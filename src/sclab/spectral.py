"""Spectral controllability criteria for -∂²_x + x² with Gaussian control.

The eigenfunctions are the normalized Hermite functions φ_i (eigenvalues
2i+1; the popular ½-normalized oscillator has gaps 1 instead of 2, which the
reports flag rather than rescale).  Matrix elements of a Gaussian control
potential,

    b_ij = ∫ φ_i(x) φ_j(x) e^{ax² + bx + c} dx,   a < 1,

are computed exactly, with no quadrature: completing the square makes x an
affine function of a new variable y, the Hermite recurrence expands each
polynomial factor φ_i·e^{x²/2} in orthonormal Hermite polynomials of y, and
(b_ij) is a scaled Gram matrix of those coefficient rows.  The criteria
checked downstream: connectivity of the leading minors of (b_ij) and absence
of rational relations among the spectral gaps (a finite search can refute
independence, never prove it).  The classical counterpart is a theorem, not
a simulation: with the control cut off to {|x| > ε}, the classical flow of
p² + x² is the free rotation wherever |x| ≤ ε, so a phase-space disc of radius
r₀ ≤ ε never meets the control's support and is invariant under every
control.  The verdict is r₀ ≤ ε with margin ε − r₀, which witnesses
classical non-controllability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import QuadratureDivergence, TruncationNotConverged

SEARCH_BUDGET = 10 ** 7
CUTOFF_MAX_ORDER = 4096  # Gauss–Legendre orders above this cutoff_coupling never builds


def _hermite_recurrence(N: int, h0: np.ndarray, times_x) -> np.ndarray:
    """Rows h_0..h_{N-1} of the orthonormal Hermite recurrence
    h_{i+1} = √(2/(i+1))·x·h_i − √(i/(i+1))·h_{i−1}, where h_0 and the
    action of x are supplied (pointwise values or coefficient vectors)."""
    out = np.empty((N,) + h0.shape)
    out[0] = h0
    if N > 1:
        out[1] = np.sqrt(2.0) * times_x(out[0])
    for i in range(1, N - 1):
        out[i + 1] = np.sqrt(2.0 / (i + 1)) * times_x(out[i]) - np.sqrt(i / (i + 1.0)) * out[i - 1]
    return out


def hermite_polynomial_values(N: int, x: np.ndarray) -> np.ndarray:
    """Rows h_i(x) with h_i = (normalized Hermite function φ_i)·e^{x²/2}.

    Stable recurrence: h_0 = π^{-1/4}, h_{i+1} = √(2/(i+1))·x·h_i − √(i/(i+1))·h_{i−1}.
    """
    x = np.asarray(x, dtype=float)
    return _hermite_recurrence(N, np.full(x.shape, np.pi ** -0.25), lambda v: x * v)


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric control-operator matrix elements in the oscillator basis."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("entries must be a square matrix")
        if not np.array_equal(e, e.T):
            raise ValueError("entries must be exactly symmetric")
        if not np.all(np.isfinite(e)):
            raise ValueError("entries must be finite")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def N(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class GapVector:
    """Ascending eigenvalues λ_0..λ_{N-1} and their consecutive gaps."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(ev) <= 0):
            raise ValueError("eigenvalues must be strictly ascending")
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(self.eigenvalues)


def _gaussian_moment_entry(i: int, j: int, a: float, b: float, c: float) -> float:
    """Oracle for small indices: expand h_i·h_j in monomials and use the
    moment recursion M_n = (b/2s)M_{n-1} + ((n-1)/2s)M_{n-2}, s = 1 - a."""
    s = 1.0 - a
    # physicists' Hermite coefficients of h_i in the monomial basis
    def h_coeffs(n: int) -> np.ndarray:
        herm = np.zeros(n + 1)
        herm[n] = 1.0
        mono = np.polynomial.hermite.herm2poly(herm)
        norm = (np.pi ** -0.25) / math.sqrt(2.0 ** n * math.factorial(n))
        return mono * norm

    prod = np.polynomial.polynomial.polymul(h_coeffs(i), h_coeffs(j))
    deg = prod.size - 1
    M = np.empty(deg + 1)
    M[0] = math.sqrt(math.pi / s) * math.exp(b * b / (4 * s) + c)
    if deg >= 1:
        M[1] = (b / (2 * s)) * M[0]
    for n in range(2, deg + 1):
        M[n] = (b / (2 * s)) * M[n - 1] + ((n - 1) / (2 * s)) * M[n - 2]
    return float(prod @ M)


def gaussian_coupling(a: float, b: float, c: float, N: int,
                      validate: bool = True) -> CouplingMatrix:
    """b_ij = ∫ φ_i φ_j e^{ax²+bx+c} dx, exact by Hermite expansion.

    With s = 1-a, the substitution x = y/√s + b/(2s) turns the integral into
    e^{b²/(4s)+c}/√s · ∫ h_i(x(y)) h_j(x(y)) e^{-y²} dy.  Multiplication by
    x(y) acts on Hermite coefficients in y as J/√s + b/(2s), J the tridiagonal
    Jacobi matrix, so the recurrence of `hermite_polynomial_values` run on
    coefficient vectors gives the lower-triangular C with
    h_i(x(y)) = Σ_k C_ik h_k(y), and B = e^{b²/(4s)+c}/√s · C·Cᵀ.  (Gauss–
    Hermite quadrature of the undamped h_i fails once N is moderate: its
    small weights are accurate only in absolute terms.)  Entries with
    i+j ≤ 4 are cross-checked against the moment recursion.
    """
    if a >= 1.0:
        raise QuadratureDivergence("need a < 1 for a normalizable integrand")
    if N < 2:
        raise ValueError("N must be at least 2")
    s = 1.0 - a
    off = np.sqrt(np.arange(1, N) / 2.0) / math.sqrt(s)
    shift = b / (2 * s)

    def times_x(v: np.ndarray) -> np.ndarray:
        out = shift * v
        out[1:] += off * v[:-1]
        out[:-1] += off * v[1:]
        return out

    C = _hermite_recurrence(N, np.eye(N)[0], times_x)
    prefactor = math.exp(b * b / (4 * s) + c) / math.sqrt(s)
    entries = prefactor * (C @ C.T)
    entries = 0.5 * (entries + entries.T)
    if validate:
        for i in range(N):
            for j in range(i, N):
                if i + j > 4:
                    continue
                oracle = _gaussian_moment_entry(i, j, a, b, c)
                if abs(entries[i, j] - oracle) > 1e-10 * max(1.0, abs(oracle)):
                    raise ArithmeticError(
                        f"Hermite expansion disagrees with the moment oracle at ({i},{j})")
    return CouplingMatrix(entries)


def cutoff_coupling(a: float, b: float, c: float, eps: float, N: int
                    ) -> tuple[CouplingMatrix, np.ndarray]:
    """Remove the central window: f_ij(ε) = ∫_{-ε}^{ε} φ_iφ_j e^{ax²+bx+c} dx.

    Returns (coupling with entries b_ij − f_ij(ε), f matrix).  The integrand
    is entire, so one Gauss–Legendre rule gives every entry at once,
    f = Φ·diag(w·e^{ax²+bx+c})·Φᵀ with Φ the φ_i at the nodes; the order
    doubles until two orders agree to 1e-13, and the first order above
    CUTOFF_MAX_ORDER is refused (QuadratureDivergence) before its rule is
    built.  The integrand is a polynomial of degree ≤ 2N−2 times a Gaussian
    of width σ = 1/√(2(1−a)) centred at x_c = b/(2(1−a)), so the rule runs
    on [−ε, ε] ∩ [x_c − L, x_c + L] with
    L = (√(4N) + 9)·σ, outside which it is below e^{−40} of its peak.  Without
    the clip a wide window puts every node of the first orders outside the
    bump, and two orders "agree" on f = 0.  Each side of the product carries
    half of the Gaussian, e^{((a−1)x²+bx+c)/2}, so e^{ax²} never overflows
    for 0 < a < 1.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    full = gaussian_coupling(a, b, c, N, validate=False)
    f = np.zeros((N, N))
    sigma = 1.0 / math.sqrt(2.0 * (1.0 - a))
    centre = b * sigma * sigma
    half = (math.sqrt(4 * N) + 9.0) * sigma
    lo, hi = max(-eps, centre - half), min(eps, centre + half)
    if hi > lo:
        mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
        order, prev = 2 * N, None
        while True:
            if order > CUTOFF_MAX_ORDER:
                raise QuadratureDivergence(
                    f"window integral not converged by Gauss–Legendre order {CUTOFF_MAX_ORDER}")
            nodes, weights = np.polynomial.legendre.leggauss(order)
            x, w = mid + rad * nodes, rad * weights
            root = hermite_polynomial_values(N, x) * np.exp(
                0.5 * ((a - 1.0) * x * x + b * x + c))
            f = (root * w) @ root.T
            f = 0.5 * (f + f.T)
            if prev is not None and np.max(np.abs(f - prev)) <= 1e-13 * max(1.0, np.max(np.abs(f))):
                break
            order, prev = 2 * order, f
    hat = full.entries - f
    hat = 0.5 * (hat + hat.T)
    return CouplingMatrix(hat), f


def minor_connectivity(B: CouplingMatrix, k: int, zero_tol: float
                       ) -> tuple[bool, list[list[int]]]:
    """Union-find connectivity of the graph with edges |b_ij| > zero_tol on
    the leading k×k minor; returns (connected, component partition)."""
    if not (1 <= k <= B.N):
        raise ValueError(f"k must be in 1..{B.N}")
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(B.entries[i, j]) > zero_tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    comps: dict[int, list[int]] = {}
    for i in range(k):
        comps.setdefault(find(i), []).append(i)
    partition = sorted(comps.values())
    return len(partition) == 1, partition


def default_zero_tol(B: CouplingMatrix) -> float:
    """1e-12 relative to the matrix max-norm (exact zero tests are meaningless
    in floating point; the threshold is reported alongside any verdict)."""
    return 1e-12 * float(np.max(np.abs(B.entries)))


def _box_relation_search(g: np.ndarray, bound: int,
                         precision: float) -> Optional[np.ndarray]:
    """Vectorized enumeration over head coefficients; the last coefficient is
    solved from the partial sum, so only (2B+1)^(m-1) candidates are visited.
    Boxes grow geometrically so small relations surface first."""
    m = g.size
    B = 1
    while True:
        B = min(B, bound)
        rng = np.arange(-B, B + 1)
        if m == 2:
            blocks = [rng[:, None]]
        else:
            mesh = np.meshgrid(*([rng] * (m - 2)), indexing="ij")
            tail = np.stack([mm.ravel() for mm in mesh], axis=-1)
            blocks = (np.concatenate(
                [np.full((tail.shape[0], 1), first), tail], axis=1) for first in rng)
        for heads in blocks:
            partial = heads @ g[:-1]
            lam_last = np.round(-partial / g[-1])
            ok = np.abs(lam_last) <= bound
            resid = np.abs(partial + lam_last * g[-1])
            nontrivial = np.any(heads != 0, axis=1) | (lam_last != 0)
            hit = ok & nontrivial & (resid < precision)
            if np.any(hit):
                best = int(np.argmax(hit))
                return np.append(heads[best], int(lam_last[best])).astype(int)
        if B == bound:
            return None
        B *= 2


def relation_floor(gaps: GapVector | np.ndarray, coeff_bound: int) -> float:
    """Dirichlet floor B·Σ|g_i|/((B+1)^m − 1) for m gaps and |λ_i| ≤ B.

    By the pigeonhole principle some nontrivial λ in that box has |λ·g| at
    most this floor, so a relation searched at a precision above it always
    exists and refutes nothing.
    """
    g = gaps.gaps if isinstance(gaps, GapVector) else np.asarray(gaps, dtype=float)
    total = coeff_bound * float(np.sum(np.abs(g)))
    if total == 0.0:
        return 0.0
    # (B+1)^m overflows a float once m is large; math.log takes the exact int
    return math.exp(math.log(total) - math.log((coeff_bound + 1) ** g.size - 1))


def gap_rational_relation(gaps: GapVector | np.ndarray, coeff_bound: int,
                          precision: float) -> Optional[np.ndarray]:
    """Search for integers λ with |λ_i| ≤ coeff_bound and |Σ λ_i·gap_i| < precision.

    A found relation refutes rational independence at this precision; None is
    evidence only.  Exhaustive enumeration solves the last coefficient from
    the partial sum (candidates = (2B+1)^(m-1)); beyond the 1e7 budget a
    lattice-based search (PSLQ) runs instead.  PSLQ tests the normalized
    vector g/‖g‖, so it is given the tolerance precision/‖g‖; its candidate
    is then verified against |λ·g| < precision in absolute terms, and a
    candidate that fails that check yields None.
    """
    g = gaps.gaps if isinstance(gaps, GapVector) else np.asarray(gaps, dtype=float)
    if g.size < 2:
        return None
    if np.any(~np.isfinite(g)):
        raise ValueError("gaps must be finite")
    m = g.size
    if (2 * coeff_bound + 1) ** (m - 1) <= SEARCH_BUDGET:
        return _box_relation_search(g, coeff_bound, precision)
    # lattice route
    import mpmath

    digits = max(15, int(-math.log10(precision)) + 10)
    with mpmath.workdps(digits):
        x = [mpmath.mpf(v) for v in g]
        rel = mpmath.pslq(x, tol=mpmath.mpf(precision) / mpmath.norm(x),
                          maxcoeff=coeff_bound, maxsteps=20000)
    if rel is None:
        return None
    full = np.array(rel, dtype=int)
    if np.max(np.abs(full)) > coeff_bound or not np.any(full):
        return None
    return full if abs(float(full @ g)) < precision else None


def perturbed_spectrum(mu: float, a: float, b: float, c: float, N: int,
                       N_big: int) -> GapVector:
    """Lowest N eigenvalues of diag(2i+1) + μ·(Gaussian coupling), computed in
    an N_big-dimensional truncation and certified by doubling it."""
    if N > N_big // 2:
        raise ValueError("need N ≤ N_big/2 for a trustworthy truncation")

    def lowest(nbig: int) -> np.ndarray:
        H = np.diag(2.0 * np.arange(nbig) + 1.0)
        if mu != 0.0:
            H = H + mu * gaussian_coupling(a, b, c, nbig, validate=False).entries
        return np.linalg.eigvalsh(H)[:N]

    ev = lowest(N_big)
    ev2 = lowest(2 * N_big)
    if np.max(np.abs(ev - ev2)) > 1e-8:
        raise TruncationNotConverged(
            f"doubling the truncation moved eigenvalues by {np.max(np.abs(ev - ev2)):.3e}")
    return GapVector(ev2)

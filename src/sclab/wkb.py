"""Semiclassical propagation by characteristics on flat one-dimensional charts.

The phase solves the Hamilton–Jacobi equation ∂_t S + ½|∇S|² + V = 0 and the
amplitude the transport equation ∂_t a + ∇a·∇S + aΔS/2 = 0.  Both reduce to
ODEs along characteristics x(t) = π∘Φᵗ(x₀, dS₀(x₀)):

    ẋ = p,  ṗ = -∇V,  Ṡ = ½p² - V,  and the variational pair
    δẋ = δp, δṗ = -V″·δx  with  J(t) = δx(t) = d(G^t x₀)/dx₀.

a(t, G^t x₀) = a₀(x₀)/√J(t,x₀) — the amplitude blows up on the caustic
J = 0, so fields are only assembled while |J| stays above a guard.  The
assembled ansatz a·e^{iS/ħ} solves the Schrödinger equation up to the
residual ħ²Δa/2; multiplying by a compactly supported cutoff χ adds the
⟨∇χ, ∇ψ̃⟩ + ψ̃Δχ/2 terms that drive the localization experiments.

Fields on a grid come from the transported seed data by the not-a-knot cubic
spline in the arrival coordinate.  Its knot slopes solve a tridiagonal system
by parallel cyclic reduction, and each grid point is evaluated as the cubic
Hermite interpolant of its knot interval (`integrate.hermite_state`), so the
module needs numpy alone.  First conjugate times are roots of the same
Hermite interpolant in time, located by `integrate.bisect_event`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CausticReached, MaskViolation
from .geometry import BoxRegion, PotentialField, make_potential
from .integrate import (bisect_event, fd_jacobian, halving_checked, hermite_state,
                        rk4_trajectory)
from .schrodinger import SpatialGrid

CAUSTIC_GUARD = 0.05


def fd_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """d/dx0 across a uniformly spaced seed family (4th order inside,
    one-sided 2nd order at the two points next to each edge)."""
    f = np.asarray(values, dtype=float)
    out = np.empty_like(f)
    out[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
    out[1] = (f[2] - f[0]) / (2 * h)
    out[-2] = (f[-1] - f[-3]) / (2 * h)
    out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h)
    return out


@dataclass(frozen=True)
class CharacteristicFan:
    """Characteristics shot from uniformly spaced seeds, with phase, action,
    and the variational data needed for amplitudes and caustic detection.

    Arrays are indexed [time, seed]: x, p, S, J (= δx), dJ (= δp = J̇), δp.
    """

    seeds: np.ndarray
    times: np.ndarray
    x: np.ndarray
    p: np.ndarray
    S: np.ndarray
    J: np.ndarray
    delta_p: np.ndarray
    hbar: float

    @property
    def seed_spacing(self) -> float:
        return float(self.seeds[1] - self.seeds[0])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def time_index(self, t: float) -> int:
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not a stored fan time (nearest {self.times[k]})")
        return k

    def laplacian_S(self) -> np.ndarray:
        """ΔS along each characteristic, exactly δp/δx from the variational pair."""
        return self.delta_p / self.J

    def to_csv(self, header_comment: str = "") -> str:
        """Rows t, seed, x, p, S, J of float reprs, ended by "\\r\\n" as
        csv.writer ends them (a repr never needs quoting)."""
        out = [f"# {header_comment}\n"] if header_comment else []
        out.append("t,seed,x,p,S,J\r\n")
        seeds = [repr(s) for s in self.seeds.tolist()]
        for t, xs, ps, Ss, Js in zip(self.times.tolist(), self.x.tolist(),
                                     self.p.tolist(), self.S.tolist(), self.J.tolist()):
            out.extend(f"{t!r},{s},{x!r},{p!r},{S!r},{J!r}\r\n"
                       for s, x, p, S, J in zip(seeds, xs, ps, Ss, Js))
        return "".join(out)


def shoot_characteristics(S0: PotentialField, V: Optional[PotentialField], seeds,
                          T: float, step: float, hbar: float = 1.0) -> CharacteristicFan:
    """Integrate the characteristic system from p(0) = dS₀ for every seed
    under the static potential V (None for V = 0).

    Seeds must be uniformly spaced (the seed index doubles as the transverse
    coordinate for finite differences).  The batched RK4 run is repeated with
    the step halved; endpoint disagreement raises StepTooCoarse.
    """
    seeds = np.asarray(seeds, dtype=float).reshape(-1)
    if seeds.size < 8:
        raise ValueError("need at least 8 seeds for transverse differences")
    gaps = np.diff(seeds)
    if np.any(gaps <= 0) or np.max(np.abs(gaps - gaps[0])) > 1e-9 * gaps[0]:
        raise ValueError("seeds must be strictly increasing and uniformly spaced")
    if V is None:
        V = make_potential("zero", 1)
    p0 = np.asarray(S0.gradient(seeds[:, None]), dtype=float)[:, 0]
    S_init = np.asarray(S0.value(seeds[:, None]), dtype=float)
    # δx(0) = 1, δp(0) = S0″(x0): variation along the Lagrangian graph of dS0
    d2S0 = fd_derivative(p0, float(gaps[0]))

    def grad_V(x: np.ndarray) -> np.ndarray:
        return np.asarray(V.gradient(x[:, None]), dtype=float)[:, 0]

    def rhs(_t: float, state: np.ndarray) -> np.ndarray:
        x, p, S, dx, dp = state
        # V″ per seed: each seed's x is its own one-point batch row
        d2V = fd_jacobian(lambda y: grad_V(y[:, 0]), x[:, None])[:, 0]
        V_x = np.asarray(V.value(x[:, None]), dtype=float)
        return np.stack([p, -grad_V(x), 0.5 * p * p - V_x, dp, -d2V * dx])

    if T <= 0:
        raise ValueError("T must be positive")
    state0 = np.stack([seeds, p0, S_init, np.ones_like(seeds), d2S0])
    times, frames = halving_checked(
        lambda h: rk4_trajectory(rhs, state0, 0.0, T, h), step)
    return CharacteristicFan(seeds=seeds, times=times,
                             x=frames[:, 0], p=frames[:, 1], S=frames[:, 2],
                             J=frames[:, 3], delta_p=frames[:, 4], hbar=hbar)


def first_conjugate_time(fan: CharacteristicFan) -> np.ndarray:
    """Per-seed first zero of J(t) (cubic Hermite root in the bracketing step,
    since J̇ = δp is stored); seeds without a zero report the fan horizon.
    One `bisect_event` call locates the roots of every seed at once."""
    out = np.full(fan.J.shape[1], fan.horizon)
    change = fan.J[:-1] * fan.J[1:] <= 0
    j = np.flatnonzero(change.any(axis=0))
    k = np.argmax(change[:, j], axis=0)  # each seed's first bracketing step
    t0, t1 = fan.times[k], fan.times[k + 1]
    h = t1 - t0
    f0, f1 = fan.J[k, j], fan.J[k + 1, j]
    d0, d1 = fan.delta_p[k, j], fan.delta_p[k + 1, j]
    # a zero at a knot is a bracket end, which bisect_event returns as is
    out[j] = bisect_event(lambda t: hermite_state(f0, f1, d0, d1, h, (t - t0) / h),
                          t0, t1, tol=1e-10)
    return out


def _pcr_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
               rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system lower_i·z_{i-1} + diag_i·z_i + upper_i·z_{i+1}
    = rhs_i for every column of rhs by parallel cyclic reduction.

    Each pass eliminates the couplings at distance s from every row at once
    and doubles s, so ⌈log₂ n⌉ vectorised passes leave a diagonal system.
    The rows are padded by n identity rows on each side, so a coupling that
    reaches past either end reads a zero.
    """
    n = diag.size
    a, b, c = np.zeros(3 * n), np.ones(3 * n), np.zeros(3 * n)
    d = np.zeros((rhs.shape[1], 3 * n))  # one row per column of rhs
    mid = slice(n, 2 * n)
    a[mid], b[mid], c[mid], d[:, mid] = lower, diag, upper, rhs.T
    s = 1
    while s < n:
        lo, hi = slice(n - s, 2 * n - s), slice(n + s, 2 * n + s)
        alpha, gamma = -a[mid] / b[lo], -c[mid] / b[hi]
        a[mid], b[mid], c[mid], d[:, mid] = (
            alpha * a[lo], b[mid] + alpha * c[lo] + gamma * a[hi], gamma * c[hi],
            d[:, mid] + alpha * d[:, lo] + gamma * d[:, hi])
        s *= 2
    return (d[:, mid] / b[mid]).T


def _not_a_knot_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot slopes of the not-a-knot cubic spline through the columns of y.

    Interior rows are the C² continuity conditions; the end rows make the
    third derivative continuous at x[1] and x[-2] (de Boor, *A Practical Guide
    to Splines*, ch. IV), the system of scipy's CubicSpline default.
    """
    dx = np.diff(x)
    slope = np.diff(y, axis=0) / dx[:, None]
    lower, diag, upper = np.zeros(x.size), np.empty(x.size), np.zeros(x.size)
    rhs = np.empty_like(y)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    upper[1:-1] = dx[:-1]
    lower[1:-1] = dx[1:]
    rhs[1:-1] = 3 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
    d = x[2] - x[0]
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    diag[-1], lower[-1] = dx[-2], d
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    return _pcr_solve(lower, diag, upper, rhs)


def not_a_knot_spline(x: np.ndarray, y: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Values at the points `at` ⊂ [x[0], x[-1]] of the not-a-knot cubic spline
    through the columns of y (knots x strictly increasing, at least 4).

    Each point is evaluated as the cubic Hermite interpolant of its knot
    interval, with the spline's slopes at the interval's two knots.
    """
    slopes = _not_a_knot_slopes(x, y)
    i = np.clip(np.searchsorted(x, at, side="right") - 1, 0, x.size - 2)
    h = (x[i + 1] - x[i])[:, None]
    return hermite_state(y[i], y[i + 1], slopes[i], slopes[i + 1], h,
                         (at - x[i])[:, None] / h)


@dataclass(frozen=True)
class WKBField:
    """Phase/amplitude data interpolated onto a uniform grid at a fixed time.

    Arrays beyond (S, a, valid_mask): dS (= momentum at the arrival point),
    da and lap_a (transverse amplitude derivatives), J for diagnostics.
    """

    grid: SpatialGrid
    t: float
    S: np.ndarray
    a: np.ndarray
    valid_mask: np.ndarray
    dS: np.ndarray
    da: np.ndarray
    lap_a: np.ndarray
    J: np.ndarray
    hbar: float

    def psi_tilde(self) -> np.ndarray:
        """The bare ansatz a·e^{iS/ħ} (zero where invalid)."""
        return np.where(self.valid_mask, self.a * np.exp(1j * self.S / self.hbar), 0.0)

    def to_csv(self, header_comment: str = "") -> str:
        import csv as _csv
        import io as _io
        buf = _io.StringIO()
        if header_comment:
            buf.write(f"# {header_comment}\n")
        w = _csv.writer(buf)
        w.writerow(["x", "S", "a", "valid"])
        xs = self.grid.points(0)
        for i in range(xs.size):
            w.writerow([repr(float(xs[i])), repr(float(self.S[i])),
                        repr(float(self.a[i])), int(self.valid_mask[i])])
        return buf.getvalue()


def wkb_field(fan: CharacteristicFan, a0: PotentialField, grid: SpatialGrid,
              t: float) -> WKBField:
    """Assemble (S, a) and their transverse derivatives on the grid at time t.

    Transported seed data are splined in the arrival coordinate by one
    not-a-knot cubic spline through all six columns (`not_a_knot_spline`: a
    parallel-cyclic-reduction solve for the knot slopes, then the cubic
    Hermite interpolant of each grid point's knot interval).  Amplitude
    derivatives are taken by seed-space finite differences first (smooth
    data), so no second difference ever touches interpolated values.
    """
    if grid.dim != 1:
        raise NotImplementedError("field assembly is one-dimensional; use the "
                                  "product ansatz for higher dimensions")
    k = fan.time_index(t)
    xs = fan.x[k]
    J = fan.J[k]
    if np.any(np.abs(J) < CAUSTIC_GUARD):
        raise CausticReached(
            f"|J| fell below {CAUSTIC_GUARD} at t={t:.6g}; the ansatz is invalid")
    if np.any(J < 0) or np.any(np.diff(xs) <= 0):
        raise CausticReached("transported seeds folded over; past the first caustic")
    h_seed = fan.seed_spacing
    a0_seed = np.asarray(a0.value(fan.seeds[:, None]), dtype=float)
    a_seed = a0_seed / np.sqrt(J)
    # transverse derivatives: d/dx = (d/dx0) / J on smooth per-seed data
    da_seed = fd_derivative(a_seed, h_seed) / J
    d2a_seed = fd_derivative(da_seed, h_seed) / J
    S_seed = fan.S[k]
    p_seed = fan.p[k]

    gx = grid.points(0)
    covered = (gx >= xs[0]) & (gx <= xs[-1])
    # one spline through all six columns solves the knot system once
    cols = np.stack([S_seed, a_seed, p_seed, da_seed, d2a_seed, J], axis=1)
    vals = np.zeros((6, gx.size))
    vals[:, covered] = not_a_knot_spline(xs, cols, gx[covered]).T
    S, a, dS, da, lap_a, J_grid = vals
    valid = covered & (np.abs(J_grid) >= CAUSTIC_GUARD)
    return WKBField(grid=grid, t=float(fan.times[k]), S=S, a=a, valid_mask=valid,
                    dS=dS, da=da, lap_a=lap_a, J=J_grid, hbar=fan.hbar)


# ---------------------------------------------------------------------------
# Cutoff functions


def _bump(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0 - 1e-12
    out = np.zeros_like(s)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = 1.0 / (1.0 - s ** 2)
        vals = np.exp(1.0 - t)
    out[inside] = vals[inside]
    return out


def _bump_d1(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0 - 1e-12
    out = np.zeros_like(s)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = 1.0 - s ** 2
        vals = _bump(s) * (-2.0 * s / q ** 2)
    out[inside] = vals[inside]
    return out


def _bump_d2(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0 - 1e-12
    out = np.zeros_like(s)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = 1.0 - s ** 2
        vals = _bump(s) * (4.0 * s ** 2 / q ** 4 - 2.0 * (1.0 + 3.0 * s ** 2) / q ** 3)
    out[inside] = vals[inside]
    return out


@dataclass(frozen=True)
class CutoffTable:
    """A cutoff tabulated on a grid: χ, ∇χ (shape (*grid.shape, dim)), Δχ,
    and the support where any of them is nonzero; arrays are read-only."""

    chi: np.ndarray
    grad: np.ndarray
    lap: np.ndarray
    support: np.ndarray


@dataclass(frozen=True)
class CutoffFunction:
    """Smooth cutoff with support exactly the closure of a box: the product
    of bumps exp(1 − 1/(1−s²)) over the axes.  `on_grid` tabulates it once
    per grid.
    """

    box: BoxRegion

    def __post_init__(self):
        if any(b is None for b in self.box.bounds):
            raise ValueError("cutoff box must constrain every axis")
        centers = np.array([(lo + hi) / 2 for lo, hi in self.box.bounds])
        halfw = np.array([(hi - lo) / 2 for lo, hi in self.box.bounds])
        object.__setattr__(self, "_centers", centers)
        object.__setattr__(self, "_halfw", halfw)
        object.__setattr__(self, "_tables", {})

    def _profile(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _bump(s), _bump_d1(s), _bump_d2(s)

    def _values(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(χ, ∇χ, Δχ) at the points x (last axis the coordinates), from one
        profile evaluation."""
        s = (np.asarray(x, dtype=float) - self._centers) / self._halfw
        val, d1, d2 = self._profile(s)
        grad = np.empty_like(s)
        lap = np.zeros(s.shape[:-1])
        for a in range(s.shape[-1]):
            others = self._partial_prod(val, a)
            grad[..., a] = (d1[..., a] / self._halfw[a]) * others
            lap = lap + (d2[..., a] / self._halfw[a] ** 2) * others
        return np.prod(val, axis=-1), grad, lap

    def on_grid(self, grid: SpatialGrid) -> CutoffTable:
        """The cutoff tabulated on the grid's mesh, computed once per grid."""
        table = self._tables.get(grid)
        if table is None:
            chi, grad, lap = self._values(grid.mesh())
            support = (chi != 0.0) | np.any(grad != 0.0, axis=-1) | (lap != 0.0)
            for arr in (chi, grad, lap, support):
                arr.setflags(write=False)
            table = self._tables[grid] = CutoffTable(chi, grad, lap, support)
        return table

    @staticmethod
    def _partial_prod(val: np.ndarray, skip: int) -> np.ndarray:
        prod = np.ones(val.shape[:-1])
        for b in range(val.shape[-1]):
            if b != skip:
                prod = prod * val[..., b]
        return prod


def wkb_residual(field: WKBField, chi: CutoffFunction) -> np.ndarray:
    """Residual of the cutoff ansatz χ·ψ̃ under the Schrödinger operator:

        r = ħ²·( χ·(Δa/2)·e^{iS/ħ} + ⟨∇χ, ∇ψ̃⟩ + (Δχ/2)·ψ̃ ),

    with ∇ψ̃ = (∇a + i a ∇S/ħ)·e^{iS/ħ}.  r does not depend on the control:
    with W constant on supp χ the control only multiplies the ansatz by a
    global phase, which leaves ‖r‖ unchanged.  ħ is the field's own, so
    every term carries the same phase e^{iS/ħ}.
    """
    hbar = field.hbar
    table = chi.on_grid(field.grid)
    if np.any(table.support & ~field.valid_mask):
        raise MaskViolation("cutoff support extends beyond the valid WKB region")
    phase = np.exp(1j * field.S / hbar)
    psi_tilde = field.psi_tilde()
    grad_psi = (field.da + 1j * field.a * field.dS / hbar) * phase
    grad_psi = np.where(field.valid_mask, grad_psi, 0.0)
    lap_term = np.where(field.valid_mask, 0.5 * field.lap_a * phase, 0.0)
    return hbar ** 2 * (table.chi * lap_term + table.grad[..., 0] * grad_psi
                        + 0.5 * table.lap * psi_tilde)

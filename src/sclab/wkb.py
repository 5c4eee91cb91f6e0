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

V″ in the variational pair is the potential's analytic diagonal second
derivative, `PotentialField.hessian`; a V without one is refused.

Fields on a grid come from the transported seed data by the not-a-knot cubic
spline in the arrival coordinate.  Its knot slopes solve a tridiagonal system
by cyclic reduction, O(n) work per system, and each grid point is evaluated
as the cubic Hermite interpolant of its knot interval
(`integrate.hermite_state`), so the module needs numpy alone.  Fields are
assembled by block: `wkb_field` takes an array of fan times and solves the
knot systems of all of them together, and `WKBField.psi_tilde` and
`wkb_residual` keep that leading axis of times.  Each time's arrays have the
bits they have when that time is assembled alone.  First conjugate times are
roots of the same Hermite interpolant in time, located by
`integrate.bisect_event`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CausticReached, MaskViolation
from .geometry import BoxRegion, PotentialField, make_potential
from .integrate import bisect_event, halving_checked, hermite_state, rk4_trajectory
from .schrodinger import SpatialGrid

CAUSTIC_GUARD = 0.05


def fd_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """d/dx0 across a uniformly spaced seed family along the last axis (4th
    order inside, one-sided 2nd order at the two points next to each edge)."""
    f = np.asarray(values, dtype=float)
    out = np.empty_like(f)
    out[..., 2:-2] = (f[..., :-4] - 8 * f[..., 1:-3] + 8 * f[..., 3:-1] - f[..., 4:]) / (12 * h)
    out[..., 0] = (-3 * f[..., 0] + 4 * f[..., 1] - f[..., 2]) / (2 * h)
    out[..., 1] = (f[..., 2] - f[..., 0]) / (2 * h)
    out[..., -2] = (f[..., -1] - f[..., -3]) / (2 * h)
    out[..., -1] = (3 * f[..., -1] - 4 * f[..., -2] + f[..., -3]) / (2 * h)
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

    def time_index(self, t):
        """Index of the stored fan time t; an array of times gives an array."""
        t = np.asarray(t, dtype=float)
        k = np.argmin(np.abs(self.times - t[..., None]), axis=-1)
        off = np.abs(self.times[k] - t) > 1e-9 * np.maximum(1.0, np.abs(t))
        if np.any(off):
            j = int(np.argmax(off))
            raise ValueError(f"t={t.flat[j]} is not a stored fan time "
                             f"(nearest {self.times[k.flat[j]]})")
        return int(k) if k.ndim == 0 else k

    def laplacian_S(self) -> np.ndarray:
        """ΔS along each characteristic, exactly δp/δx from the variational pair."""
        return self.delta_p / self.J


def shoot_characteristics(S0: PotentialField, V: Optional[PotentialField], seeds,
                          T: float, step: float, hbar: float = 1.0) -> CharacteristicFan:
    """Integrate the characteristic system from p(0) = dS₀ for every seed
    under the static potential V (None for V = 0).

    V″ in the variational pair is `V.hessian`; a V without one raises
    ValueError.  Seeds must be uniformly spaced (the seed index doubles as
    the transverse coordinate for finite differences).  The batched RK4 run
    is repeated with the step halved; endpoint disagreement raises
    StepTooCoarse.
    """
    seeds = np.asarray(seeds, dtype=float).reshape(-1)
    if seeds.size < 8:
        raise ValueError("need at least 8 seeds for transverse differences")
    gaps = np.diff(seeds)
    if np.any(gaps <= 0) or np.max(np.abs(gaps - gaps[0])) > 1e-9 * gaps[0]:
        raise ValueError("seeds must be strictly increasing and uniformly spaced")
    if V is None:
        V = make_potential("zero", 1)
    if V.hessian is None:
        raise ValueError(f"potential '{V.name}' has no analytic second derivative "
                         "(PotentialField.hessian), which the fan's V″ needs")
    p0 = np.asarray(S0.gradient(seeds[:, None]), dtype=float)[:, 0]
    S_init = np.asarray(S0.value(seeds[:, None]), dtype=float)
    # δx(0) = 1, δp(0) = S0″(x0): variation along the Lagrangian graph of dS0
    d2S0 = fd_derivative(p0, float(gaps[0]))

    def rhs(_t: float, state: np.ndarray) -> np.ndarray:
        """(ẋ, ṗ, Ṡ, δẋ, δṗ) = (p, −V′, ½p² − V, δp, −V″·δx), row by row."""
        x, p, S, dx, dp = state
        x = x[:, None]  # each seed is one point of the 1-D chart
        out = np.empty_like(state)
        out[0], out[3] = p, dp
        np.negative(np.asarray(V.gradient(x), dtype=float)[:, 0], out=out[1])
        np.subtract(0.5 * p * p, np.asarray(V.value(x), dtype=float), out=out[2])
        np.multiply(np.asarray(V.hessian(x), dtype=float)[:, 0], dx, out=out[4])
        np.negative(out[4], out=out[4])
        return out

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


def _cr_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
              rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal systems lower_i·z_{i-1} + diag_i·z_i + upper_i·z_{i+1}
    = rhs_i by cyclic reduction: coefficients (..., n), right-hand sides and
    solution (..., c, n), one system per leading index with c columns each.
    lower_0 and upper_{n-1} must be 0.

    Each level folds rows 2j and 2j + 2 into every odd row 2j + 1, which
    leaves a system of the odd rows alone, half the size; back substitution
    then recovers the even rows from their two neighbours.  The work is O(n)
    per system, and a level keeps only copies of its even rows for the way
    back.  The last odd row of an even-length level has no right neighbour
    and takes no term from it.  Every operation is elementwise along the
    leading axes, so a system solved in a batch gets the bits it gets alone.
    """
    a, b, c, d = lower[..., None, :], diag[..., None, :], upper[..., None, :], rhs
    levels = []
    while b.shape[-1] > 1:
        r = (b.shape[-1] - 1) // 2  # odd rows with a right neighbour
        levels.append(tuple(v[..., ::2].copy() for v in (a, b, c, d)))
        alpha = -a[..., 1::2] / b[..., :-1:2]
        gamma = -c[..., 1:2 * r:2] / b[..., 2::2]
        b_next = alpha * c[..., :-1:2]
        b_next += b[..., 1::2]
        b_next[..., :r] += gamma * a[..., 2::2]
        d_next = alpha * d[..., :-1:2]
        d_next += d[..., 1::2]
        d_next[..., :r] += gamma * d[..., 2::2]
        c_next = np.zeros(b_next.shape)
        c_next[..., :r] = gamma * c[..., 2::2]
        a, b, c, d = alpha * a[..., :-1:2], b_next, c_next, d_next
    z = d / b
    while levels:
        # even row 2j: (d − a·z_{2j−1} − c·z_{2j+1}) / b, where z has the odd
        # rows; the first has no left neighbour, and the last of an odd-length
        # level no right one
        a, b, c, d = levels.pop()
        e, k = b.shape[-1], z.shape[-1]
        even = d.copy()
        even[..., 1:] -= a[..., 1:] * z[..., :e - 1]
        even[..., :k] -= c[..., :k] * z
        z_next = np.empty(d.shape[:-1] + (e + k,))
        z_next[..., 1::2] = z
        np.divide(even, b, out=z_next[..., ::2])
        z = z_next
    return z


def _not_a_knot_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot slopes of the not-a-knot cubic spline through the columns of y:
    knots x (..., n), values y (..., n, c), slopes shaped like y.

    Interior rows are the C² continuity conditions; the end rows make the
    third derivative continuous at x[1] and x[-2] (de Boor, *A Practical Guide
    to Splines*, ch. IV), the system of scipy's CubicSpline default.  The
    system is built and solved with the knots on the last axis, one row of
    n per column, and the result is a view in y's layout.
    """
    dx = np.diff(x, axis=-1)[..., None, :]
    slope = np.diff(np.swapaxes(y, -1, -2), axis=-1) / dx
    lower, diag, upper = np.zeros(x.shape), np.empty(x.shape), np.zeros(x.shape)
    rhs = np.empty(slope.shape[:-1] + x.shape[-1:])
    diag[..., 1:-1] = 2 * (dx[..., 0, :-1] + dx[..., 0, 1:])
    upper[..., 1:-1] = dx[..., 0, :-1]
    lower[..., 1:-1] = dx[..., 0, 1:]
    # 3·(dx[1:]·slope[:-1] + dx[:-1]·slope[1:]), one temporary at a time
    inner = rhs[..., 1:-1]
    np.multiply(dx[..., 1:], slope[..., :-1], out=inner)
    inner += dx[..., :-1] * slope[..., 1:]
    inner *= 3
    dx0, dx1, dx2, dx3 = dx[..., 0:1], dx[..., 1:2], dx[..., -2:-1], dx[..., -1:]
    d = (x[..., 2] - x[..., 0])[..., None, None]
    diag[..., 0], upper[..., 0] = dx1[..., 0, 0], d[..., 0, 0]
    rhs[..., 0:1] = ((dx0 + 2 * d) * dx1 * slope[..., 0:1] + dx0 ** 2 * slope[..., 1:2]) / d
    d = (x[..., -1] - x[..., -3])[..., None, None]
    diag[..., -1], lower[..., -1] = dx2[..., 0, 0], d[..., 0, 0]
    rhs[..., -1:] = (dx3 ** 2 * slope[..., -2:-1] + (2 * d + dx3) * dx2 * slope[..., -1:]) / d
    del slope
    return np.swapaxes(_cr_solve(lower, diag, upper, rhs), -1, -2)


def not_a_knot_spline(x: np.ndarray, y: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Values at the points `at` ⊂ [x[0], x[-1]] of the not-a-knot cubic spline
    through the columns of y: knots x (..., n) strictly increasing, at least
    4 of them, values y (..., n, c), points at (..., p); the result is
    (..., p, c).  The leading axes index independent splines.

    Each point is evaluated as the cubic Hermite interpolant of its knot
    interval, with the spline's slopes at the interval's two knots.
    """
    slopes = _not_a_knot_slopes(x, y)
    lead, n, c = x.shape[:-1], x.shape[-1], y.shape[-1]
    at = np.broadcast_to(at, lead + np.shape(at)[-1:])
    i = np.empty(at.shape, dtype=np.intp)
    for r in np.ndindex(lead):
        i[r] = np.searchsorted(x[r], at[r], side="right")
    # each point's interval start as a flat knot index over all splines, and
    # the row of each (spline, column) in a (splines · c, n) table
    spline = np.arange(x.size // n).reshape(lead + (1,))
    i = np.clip(i - 1, 0, n - 2)
    x0 = x.reshape(-1)[i + n * spline]
    h = x.reshape(-1)[i + 1 + n * spline] - x0
    rows, start = c * spline[..., None] + np.arange(c)[:, None], i[..., None, :]
    y0, y1, m0, m1 = (np.swapaxes(v, -1, -2).reshape(-1, n)[rows, j]
                      for v in (y, slopes) for j in (start, start + 1))
    del slopes
    values = hermite_state(y0, y1, m0, m1, h[..., None, :], ((at - x0) / h)[..., None, :])
    return np.swapaxes(values, -1, -2)


@dataclass(frozen=True)
class WKBField:
    """Phase/amplitude data interpolated onto a uniform grid at a fixed time,
    or at each of an array of times.

    Arrays beyond (S, a, valid_mask): dS (= momentum at the arrival point),
    da and lap_a (transverse amplitude derivatives), J for diagnostics.  For
    an array of times t, every array has a leading axis over them.
    """

    grid: SpatialGrid
    t: float | np.ndarray
    S: np.ndarray
    a: np.ndarray
    valid_mask: np.ndarray
    dS: np.ndarray
    da: np.ndarray
    lap_a: np.ndarray
    J: np.ndarray
    hbar: float

    def psi_tilde(self) -> np.ndarray:
        """The bare ansatz a·e^{iS/ħ} (zero where invalid), at each time."""
        return np.where(self.valid_mask, self.a * np.exp(1j * self.S / self.hbar), 0.0)


def wkb_field(fan: CharacteristicFan, a0: PotentialField, grid: SpatialGrid,
              t) -> WKBField:
    """Assemble (S, a) and their transverse derivatives on the grid at the fan
    time t, or at each of an array of fan times at once.

    Transported seed data are splined in the arrival coordinate by one
    not-a-knot cubic spline through all six columns (`not_a_knot_spline`: a
    cyclic-reduction solve for the knot slopes, then the cubic Hermite
    interpolant of each grid point's knot interval); an array of times
    solves all its knot systems together.  Amplitude derivatives are taken by
    seed-space finite differences first (smooth data), so no second
    difference ever touches interpolated values.  CausticReached names the
    first time at which the ansatz is invalid, as a call at that time alone
    would.
    """
    if grid.dim != 1:
        raise NotImplementedError("field assembly is one-dimensional; a separable "
                                  "product reduces to its base factor")
    k = fan.time_index(t)
    xs = fan.x[k]
    J = fan.J[k]
    thin = np.atleast_1d(np.any(np.abs(J) < CAUSTIC_GUARD, axis=-1))
    folded = np.atleast_1d(np.any(J < 0, axis=-1) | np.any(np.diff(xs, axis=-1) <= 0, axis=-1))
    if np.any(thin | folded):
        first = int(np.argmax(thin | folded))
        if thin[first]:
            raise CausticReached(f"|J| fell below {CAUSTIC_GUARD} at "
                                 f"t={np.atleast_1d(t)[first]:.6g}; the ansatz is invalid")
        raise CausticReached("transported seeds folded over; past the first caustic")
    h_seed = fan.seed_spacing
    a0_seed = np.asarray(a0.value(fan.seeds[:, None]), dtype=float)
    a_seed = a0_seed / np.sqrt(J)
    # transverse derivatives: d/dx = (d/dx0) / J on smooth per-seed data
    da_seed = fd_derivative(a_seed, h_seed) / J
    d2a_seed = fd_derivative(da_seed, h_seed) / J

    gx = grid.points(0)
    lo, hi = xs[..., :1], xs[..., -1:]
    covered = (gx >= lo) & (gx <= hi)
    # one spline through all six columns solves the knot system once.  It is
    # evaluated on the range of grid points that some time covers; a time's
    # points outside its own knots are clipped onto them, then zeroed.  The
    # columns are stored knots-last, the layout the spline works in.
    span = slice(np.searchsorted(gx, np.min(lo)), np.searchsorted(gx, np.max(hi), "right"))
    cols = np.stack([fan.S[k], a_seed, fan.p[k], da_seed, d2a_seed, J], axis=-2)
    spline = not_a_knot_spline(xs, np.swapaxes(cols, -1, -2), np.clip(gx[span], lo, hi))
    vals = np.zeros((6,) + covered.shape)
    vals[..., span] = np.where(covered[..., span], np.moveaxis(spline, -1, 0), 0.0)
    S, a, dS, da, lap_a, J_grid = vals
    valid = covered & (np.abs(J_grid) >= CAUSTIC_GUARD)
    return WKBField(grid=grid, t=fan.times[k] if np.ndim(k) else float(fan.times[k]),
                    S=S, a=a, valid_mask=valid, dS=dS, da=da, lap_a=lap_a, J=J_grid,
                    hbar=fan.hbar)


# ---------------------------------------------------------------------------
# Cutoff functions


def _bump(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bump exp(1 − 1/(1−s²)) and its first two derivatives at s, from
    one exponential; all three are zero where |s| ≥ 1 − 1e-12."""
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0 - 1e-12
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = 1.0 - s ** 2
        val = np.exp(1.0 - 1.0 / q)
        d1 = val * (-2.0 * s / q ** 2)
        d2 = val * (4.0 * s ** 2 / q ** 4 - 2.0 * (1.0 + 3.0 * s ** 2) / q ** 3)
    return tuple(np.where(inside, v, 0.0) for v in (val, d1, d2))


@dataclass(frozen=True)
class CutoffTable:
    """A cutoff tabulated on a grid: χ, χ′, χ″ (each of the grid's shape) and
    the support where any of them is nonzero; arrays are read-only."""

    chi: np.ndarray
    grad: np.ndarray
    lap: np.ndarray
    support: np.ndarray


@dataclass(frozen=True)
class CutoffFunction:
    """Smooth cutoff on a line with support exactly the closure of an
    interval: the bump exp(1 − 1/(1−s²)) with s the position scaled to
    [−1, 1].  The box has one bounded axis, as the obstruction's Ω′ does.
    `on_grid` tabulates it once per grid.
    """

    box: BoxRegion

    def __post_init__(self):
        if len(self.box.bounds) != 1 or self.box.bounds[0] is None:
            raise ValueError("the cutoff is one-dimensional: its box needs exactly "
                             "one axis, bounded")
        lo, hi = self.box.bounds[0]
        object.__setattr__(self, "_center", (lo + hi) / 2)
        object.__setattr__(self, "_halfw", (hi - lo) / 2)
        object.__setattr__(self, "_tables", {})

    def _values(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(χ, χ′, χ″) at the points x (last axis the one coordinate), from
        one bump evaluation."""
        s = (np.asarray(x, dtype=float)[..., 0] - self._center) / self._halfw
        val, d1, d2 = _bump(s)
        return val, d1 / self._halfw, d2 / self._halfw ** 2

    def on_grid(self, grid: SpatialGrid) -> CutoffTable:
        """The cutoff tabulated on the grid's mesh, computed once per grid."""
        table = self._tables.get(grid)
        if table is None:
            chi, grad, lap = self._values(grid.mesh())
            support = (chi != 0.0) | (grad != 0.0) | (lap != 0.0)
            for arr in (chi, grad, lap, support):
                arr.setflags(write=False)
            table = self._tables[grid] = CutoffTable(chi, grad, lap, support)
        return table


def wkb_residual(field: WKBField, chi: CutoffFunction) -> np.ndarray:
    """Residual of the cutoff ansatz χ·ψ̃ under the Schrödinger operator:

        r = ħ²·( χ·(Δa/2)·e^{iS/ħ} + ⟨∇χ, ∇ψ̃⟩ + (Δχ/2)·ψ̃ ),

    with ∇ψ̃ = (∇a + i a ∇S/ħ)·e^{iS/ħ}.  r does not depend on the control:
    with W constant on supp χ the control only multiplies the ansatz by a
    global phase, which leaves ‖r‖ unchanged.  ħ is the field's own, so
    every term carries the same phase e^{iS/ħ}.  A field at an array of
    times gives one residual grid per time, and MaskViolation if the cutoff
    leaves the valid region at any of them.
    """
    hbar = field.hbar
    table = chi.on_grid(field.grid)
    if np.any(table.support & ~field.valid_mask):
        raise MaskViolation("cutoff support extends beyond the valid WKB region")
    phase = np.exp(1j * field.S / hbar)
    psi_tilde = np.where(field.valid_mask, field.a * phase, 0.0)  # field.psi_tilde(), bitwise
    grad_psi = (field.da + 1j * field.a * field.dS / hbar) * phase
    grad_psi = np.where(field.valid_mask, grad_psi, 0.0)
    lap_term = np.where(field.valid_mask, 0.5 * field.lap_a * phase, 0.0)
    return hbar ** 2 * (table.chi * lap_term + table.grad * grad_psi
                        + 0.5 * table.lap * psi_tilde)

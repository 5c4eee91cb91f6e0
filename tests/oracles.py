"""Reference computations that only the tests use.

Each is a direct transcription of its formula on a flat chart, kept out of
`sclab` because nothing there needs it: the tests hold the code under test
against these.
"""

import numpy as np

from sclab.dynamics import HamiltonianSpec, evolve
from sclab.geometry import BoxRegion, PhasePoint, PotentialField
from sclab.integrate import bisect_event, hermite_state
from sclab.schrodinger import SpatialGrid, WaveGrid
from sclab.wkb import shoot_characteristics, wkb_field, wkb_residual

# Relative step of fd_jacobian's central differences.
FD_REL_STEP = 1e-5


def fd_jacobian(f, x) -> np.ndarray:
    """Central differences: out[..., k] = ∂f/∂x_k with h = FD_REL_STEP·(1 + |x_k|).

    x has shape (..., d) and axis k is its last axis.  A batch of points
    (m, d) is perturbed all at once, so f must act row-wise and its output
    must broadcast against x[..., k].  The reference for the analytic
    gradients and second derivatives of the potentials.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.shape[-1]):
        h = FD_REL_STEP * (1.0 + np.abs(x[..., k]))
        xp, xm = x.copy(), x.copy()
        xp[..., k] += h
        xm[..., k] -= h
        cols.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * h))
    return np.stack(cols, axis=-1)


def control_value(spec: HamiltonianSpec, x, u) -> float:
    """Σ_a u_a W_a(x) for one row u of control values."""
    u = spec.control_rows(u)
    if u.ndim != 1:
        raise ValueError(f"need one row of {spec.n_controls} control values, got {u.shape}")
    return float(sum(ua * Wa(x) for ua, Wa in zip(u, spec.W)))


def hamiltonian(spec: HamiltonianSpec, lam: PhasePoint, u) -> float:
    """Total energy ½p·p + V(x) + Σ u_a W_a(x)."""
    return 0.5 * float(lam.p @ lam.p) + spec.V(lam.x) + control_value(spec, lam.x, u)


def validate_potential(field: PotentialField, points) -> None:
    """Gradient vs central differences to relative 1e-6 at each point, and
    c_bound ≥ 0 where given; ValueError otherwise."""
    for x in points:
        x = np.asarray(x, dtype=float)
        g = field.grad(x)
        fd = fd_jacobian(field.__call__, x)
        scale = max(1.0, float(np.max(np.abs(g))))
        if np.max(np.abs(g - fd)) > 1e-6 * scale:
            raise ValueError(f"gradient of '{field.name}' disagrees with finite differences at {x}")
        if field.c_bound is not None and field.c_bound < 0:
            raise ValueError("c bound must be nonnegative")


def controlled_field(spec: HamiltonianSpec, u, z) -> np.ndarray:
    """(ẋ, ṗ) = (p, −(∇V + Σ_a u_a∇W_a)) at a state (2n,) under one value
    row u, or at each row of a stack (m, 2n) under the row of a table u
    (m, n_controls), one row at a time: the gradients through
    `PotentialField.grad`, the sum formed left to right and negated last."""
    n = spec.space.dimension
    u, z = spec.control_rows(u), np.asarray(z, dtype=float)
    if z.ndim == 1:
        force = spec.V.grad(z[:n])
        for ua, W in zip(u, spec.W):
            force = force + ua * W.grad(z[:n])
        return np.concatenate([z[n:], -force])
    return np.stack([controlled_field(spec, u_j, z_j) for u_j, z_j in zip(u, z)])


def cumulative_trapezoid(values, times) -> np.ndarray:
    """∫ values dt at each time by the trapezoid rule, 0 at the first."""
    out = np.zeros(np.shape(values))
    out[1:] = np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(times))
    return out


def knot_system_condition(x) -> float:
    """1-norm condition number of the not-a-knot slope system on knots x, as
    LAPACK's tridiagonal estimator (dgtcon) gives it.  The rows are those of
    `wkb._not_a_knot_slopes`: C² continuity inside and continuity of the
    third derivative at x[1] and x[-2]."""
    from scipy.linalg import lapack
    dx = np.diff(np.asarray(x, dtype=float))
    diag = np.concatenate([[dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]])
    upper = np.concatenate([[x[2] - x[0]], dx[:-1]])
    lower = np.concatenate([dx[1:], [x[-1] - x[-3]]])
    column_sums = np.abs(diag) + np.concatenate([[0.0], np.abs(upper)]) \
        + np.concatenate([np.abs(lower), [0.0]])
    dl, d, du, du2, ipiv, info = lapack.dgttrf(lower, diag, upper)
    if info != 0:
        raise ValueError("singular knot system")
    rcond, info = lapack.dgtcon(dl, d, du, du2, ipiv, float(np.max(column_sums)), norm="1")
    return 1.0 / rcond


def flow_jacobian(spec: HamiltonianSpec, lam0: PhasePoint, u,
                  step: float = 1e-3) -> np.ndarray:
    """Derivative of the flow map over u's duration with respect to the
    initial state, by central differences of `evolve` endpoints."""
    h = 1e-5
    z0 = lam0.as_state()
    n = lam0.dimension
    J = np.empty((z0.size, z0.size))
    for k in range(z0.size):
        ends = []
        for sign in (1.0, -1.0):
            z = z0.copy()
            z[k] += sign * h
            ends.append(evolve(spec, PhasePoint(z[:n], z[n:]), u, step).endpoint.as_state())
        J[:, k] = (ends[0] - ends[1]) / (2 * h)
    return J


def control_integral(u, t: float) -> float:
    """∫₀ᵗ u for a scalar piecewise-constant law, one segment at a time."""
    total = 0.0
    bp = u.breakpoints
    for a, b, value in zip(bp[:-1].tolist(), bp[1:].tolist(), u.values):
        if t <= a:
            break
        total += value * (min(t, b) - a)
    return total


def region_probability(psi, region: BoxRegion) -> float:
    """Riemann-sum occupation probability of the region (axes may be open)."""
    pts = psi.grid.mesh().reshape(-1, psi.grid.dim)
    mask = region.contains(pts).reshape(psi.grid.shape)
    return float(np.sum(np.abs(psi.values[mask]) ** 2) * psi.grid.cell_volume)


def plane_wave(grid: SpatialGrid, mode: int) -> WaveGrid:
    """Normalized e^{ikx} with k the given integer mode (1D), at ħ = 1: the
    split-step tests' reference state."""
    if grid.dim != 1:
        raise ValueError("plane_wave is one-dimensional")
    s, L, n = grid.axes[0]
    k = 2 * np.pi * mode / L
    vals = np.exp(1j * k * grid.points(0)) / np.sqrt(L)
    return WaveGrid(grid, vals)


def engine_fan(engine, horizon: float):
    """The fan an AnsatzEngine built at horizon shoots and then drops, shot
    again by the same call, so with the same bits."""
    cfg = engine.config
    return shoot_characteristics(cfg.S0, cfg.V, engine.seeds, horizon, cfg.fan_step,
                                 hbar=cfg.hbar)


def residual_norms(engine, fan, idx) -> np.ndarray:
    """‖r(t_k)‖ of the control-free residual at the fan indices idx, from
    the fields of the config's a0 on the fan `engine_fan` gives, divided by
    the engine's ‖χ·a0‖."""
    field = wkb_field(fan, engine.config.a0, engine.grid, fan.times[idx])
    r = wkb_residual(field, engine.chi)
    return np.sqrt(np.sum(np.abs(r) ** 2, axis=-1) * engine.grid.cell_volume) / engine.a0_norm


def member_residual_norm(engine, fan, u, k: int) -> float:
    """‖r(t_k)‖ of the ansatz for one control u with the constancy hypothesis
    broken, formed for this (member, time) alone: the control-free residual
    of the config's a0 field assembled at t_k alone on the fan `engine_fan`
    gives, plus u(t_k)·(W − c)·χψ̃, both divided by the engine's ‖χ·a0‖, as
    a fresh grid."""
    t = float(fan.times[k])
    field = wkb_field(fan, engine.config.a0, engine.grid, t)
    uval = float(np.atleast_1d(u.value_at(min(t, u.duration - 1e-15)))[0])
    r = (wkb_residual(field, engine.chi) / engine.a0_norm
         + uval * (engine.w_vals - engine.c_ref)
         * (engine.chi_vals * field.psi_tilde() / engine.a0_norm))
    return float(np.sqrt(np.sum(np.abs(r) ** 2) * engine.grid.cell_volume))


def conjugate_times_per_seed(fan) -> np.ndarray:
    """First zero of each seed's J(t), one seed at a time: the first step
    whose ends bracket a sign change, then the root of that step's cubic
    Hermite interpolant by scalar bisection; the fan horizon if none."""
    out = np.full(fan.J.shape[1], fan.horizon)
    for j in range(fan.J.shape[1]):
        J, dJ = fan.J[:, j], fan.delta_p[:, j]
        change = np.flatnonzero(J[:-1] * J[1:] <= 0)
        if change.size == 0:
            continue
        k = int(change[0])
        if J[k] == 0.0:
            out[j] = fan.times[k]
            continue
        t0, h = fan.times[k], fan.times[k + 1] - fan.times[k]
        out[j] = bisect_event(lambda t: hermite_state(J[k], J[k + 1], dJ[k], dJ[k + 1], h,
                                                      (t - t0) / h),
                              t0, fan.times[k + 1], tol=1e-10)
    return out

"""Control-uniform lower bounds on the exit time from a region.

The chart is a product N₁ × N₂, and the box Ω states the split: its bounded
axes are the base N₁ (coordinates x) and the chart's other axes are the
fibre N₂ (coordinates y).  When the control potential W is constant along
the base on Ω (so the control force has no component along those axes) and
the drift force is bounded there, ‖d₁V(x, y)‖ ≤ c, the (x, pˣ) dynamics are
sandwiched between the autonomous comparison systems

    ẋ = pˣ,   ṗˣ_i = ± c,

one per sign pattern (the comparison principle; Walter, *Differential and
Integral Inequalities*, 1970).  Their exit time from Ω is therefore a lower
bound for the true exit time under *every* admissible control, which the
ensemble sampler probes empirically.  The comparison is x₀ + p₀t ± c·t²/2 on
each axis, and the bound is its first root, in closed form.  A force bound
that varies over Ω is passed as its sup over Ω, a number.

The sampler marches every member on its own grid, cut at its own switches
by `dynamics.control_pieces` (the cutter the split-step march uses too), and
runs the step-halving check in the same lockstep stack: one row per
(pass, member), each with its own step, leaving when it exits or when its
schedule ends.  The stack is column-major, and the rows that leave Ω in a
tick are located by one bisection.  A member's exit time therefore depends
on its control alone.  The report's `ensemble_spread` (max − min of the
exits) is event-location noise up to EXIT_TIME_TOL, and `march_ticks` counts
the ticks of the stack.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynamics import ControlSignal, HamiltonianSpec, control_pieces, controlled_rhs
from .errors import HypothesisViolated, StepTooCoarse
from .geometry import W_CONSTANCY_TOL, BoxRegion, PhasePoint
from .integrate import _nsteps, bisect_event, check_escape, hermite_state, rk4_step

EXIT_TIME_TOL = 1e-8
# Relative margin by which the closed-form bound is rounded down.  The root
# is computed from d = wall − x₀ and a = float(c) (one rounding each, each
# moving t by at most u relative, u = 2⁻⁵³) in six correctly rounded
# operations on positive terms, which add at most 4u: below 6u in all.  The
# margin is 16u, which also covers the rounding of the final product.
CLOSED_FORM_REL_MARGIN = 16 * 2.0 ** -53
# The count assumes no rounding below the normal range (_TINY is the least
# normal double).  v² and 2ad each lose at most 2⁻¹⁰⁷⁴ to underflow, under
# 2⁻¹⁰⁰ relative of a sum of at least 2⁻⁹⁶⁸, whose root is _SQUARES_FLOOR.
_TINY = 2.0 ** -1022
_SQUARES_FLOOR = 2.0 ** -484
# Points per base axis of the Ω grid on which W's constancy is checked.
OMEGA_GRID_POINTS = 9


@dataclass(frozen=True)
class ExitReport:
    """Analytic bound vs sampled exits over a control ensemble.

    The content of the bound is sampled_min_exit ≥ analytic_bound; a breach is
    a failed test, not an error state, so the report only records it.
    """

    analytic_bound: float
    sampled_min_exit: float
    ensemble_size: int
    exit_times: np.ndarray
    horizon: float
    halving_drift: float = 0.0
    march_ticks: int = 0  # rk4_step calls of the ensemble stack

    @property
    def halving_allowed(self) -> float:
        """Largest accepted max over members of |exit(step) − exit(step/2)|."""
        return 1e-5 * max(1.0, self.horizon)

    @property
    def bound_respected(self) -> bool:
        return self.sampled_min_exit >= self.analytic_bound - 1e-12

    @property
    def ensemble_spread(self) -> float:
        """max − min of the exit times; up to EXIT_TIME_TOL it is event-location
        noise, so members that exit at one time read as spread ≤ EXIT_TIME_TOL."""
        return float(np.ptp(self.exit_times)) if self.exit_times.size else 0.0

    @property
    def members_exited(self) -> int:
        """Members that leave Ω before the horizon."""
        return int(np.count_nonzero(self.exit_times < self.horizon))


def _check_fit(spec: HamiltonianSpec, Omega: BoxRegion) -> None:
    """ValueError naming Ω and the chart unless Ω bounds some axis and has
    no more entries than the chart has axes."""
    n = spec.space.dimension
    if len(Omega.bounds) > n or all(b is None for b in Omega.bounds):
        raise ValueError(f"Ω = {Omega.bounds} does not fit the {n}-dimensional chart: "
                         f"it must bound at least one axis and have at most {n} entries")


def _omega_grid(Omega: BoxRegion) -> np.ndarray:
    """The grid of OMEGA_GRID_POINTS per bounded axis of Ω, one row a point."""
    axes = [np.linspace(b[0], b[1], OMEGA_GRID_POINTS) for b in Omega.bounds if b is not None]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def check_w_constancy(spec: HamiltonianSpec, Omega: BoxRegion, lam0: PhasePoint) -> float:
    """Max over an Ω × (sample y) grid of ‖d₁W‖; raises HypothesisViolated.

    The base axes are Ω's bounded axes, gridded over Ω; the fibre axes are
    the chart's others, sampled at y₀ and three points off it.
    """
    n1_axes = [k for k, b in enumerate(Omega.bounds) if b is not None]
    n2_axes = [k for k in range(spec.space.dimension) if k not in n1_axes]
    grid1 = _omega_grid(Omega)
    y0 = lam0.x[n2_axes]
    y_samples = [y0, y0 + 0.7, y0 - 1.3, np.zeros_like(y0)] if n2_axes else [y0]
    worst = 0.0
    for W in spec.W:
        for y in y_samples:
            pts = np.zeros((grid1.shape[0], spec.space.dimension))
            pts[:, n1_axes] = grid1
            pts[:, n2_axes] = y
            grads = np.asarray(W.gradient(pts), dtype=float)
            worst = max(worst, float(np.max(np.abs(grads[:, n1_axes]))))
    if worst >= W_CONSTANCY_TOL:
        raise HypothesisViolated(
            f"control potential varies along the base factor on Ω (max ‖d₁W‖ = {worst:.3e})")
    return worst


def _locate_exits(Omega: BoxRegion, lo: np.ndarray, hi: np.ndarray,
                  Z_lo: np.ndarray, Z_hi: np.ndarray,
                  F_lo: np.ndarray, F_hi: np.ndarray) -> np.ndarray:
    """Exit time from Ω of every row that leaves it during its step.

    Row j stepped over [lo[j], hi[j]] from Z_lo[j], inside Ω, to Z_hi[j],
    with the field F_lo[j], F_hi[j] at the ends.  One `bisect_event` call
    locates all rows to EXIT_TIME_TOL on the signed gap to ∂Ω along the
    steps' cubic Hermite dense output, so a probe costs no rhs call, and the
    bracket is consistent: the probe at hi sees Z_hi itself.
    """
    h, start, n = (hi - lo)[:, None], lo[:, None], Z_lo.shape[1] // 2

    def gap_at(t):
        z = hermite_state(Z_lo, Z_hi, F_lo, F_hi, h, (t[:, None] - start) / h)
        return Omega.signed_gap(z[:, :n])

    return bisect_event(gap_at, lo, hi, tol=EXIT_TIME_TOL)


def _wall_time(v: float, a: float, d: float) -> float:
    """First t > 0 with v·t + a·t²/2 = d, for d > 0 and a ≥ 0 (inf if there
    is none), rounded down by CLOSED_FORM_REL_MARGIN.

    Each branch is free of cancellation: the root is d/v for a = 0,
    2d/(v + √(v² + 2ad)) for v > 0 and (√(v² + 2ad) − v)/a for v ≤ 0.  A
    discriminant that overflows or is below _SQUARES_FLOOR, and a root below
    the normal range, give 0, which is a safe bound.
    """
    if a == 0.0:
        t = d / v if v > 0.0 else math.inf
    else:
        disc = math.sqrt(v * v + 2.0 * a * d)
        if not _SQUARES_FLOOR <= disc < math.inf:
            return 0.0
        t = 2.0 * d / (v + disc) if v > 0.0 else (disc - v) / a
    return t * (1.0 - CLOSED_FORM_REL_MARGIN) if t >= _TINY else 0.0


def _closed_form_bound(x0: np.ndarray, p0: np.ndarray, c: float,
                       Omega: BoxRegion) -> float:
    """Exit time from Ω of the comparison systems under the constant forcing
    c, rounded down (inf if none leaves).

    The axes decouple, and on each the sign that pushes toward a wall
    reaches it first, so the least exit over the 2^n₁ sign patterns is the
    least over Ω's bounded axes and walls of the first root of
    p·t + c·t²/2 = d, with d the distance to the wall and p the momentum
    toward it.
    """
    if not (isinstance(c, numbers.Real) and 0.0 <= c < math.inf):
        raise ValueError(f"the force bound c_bound = {c!r} must be a finite number ≥ 0: "
                         "pass the sup of |∂ₓV| over Ω")
    a = float(c)
    best = math.inf
    for x, p, b in zip(x0.tolist(), p0.tolist(), Omega.bounds):
        if b is not None:
            best = min(best, _wall_time(p, a, b[1] - x), _wall_time(-p, a, x - b[0]))
    return best


def exit_lower_bound(spec: HamiltonianSpec, Omega: BoxRegion, lam0: PhasePoint,
                     horizon: float = 10.0) -> float:
    """Control-independent lower bound for the exit time from Ω.

    Checks that W is constant along the base on Ω, then returns the exit
    time of the comparison systems under V's c_bound (the sup of |∂ₓV| over
    Ω), `_closed_form_bound`, capped at the horizon.  A start on ∂Ω or
    outside Ω gives 0.  An Ω that does not fit the chart raises ValueError.
    """
    _check_fit(spec, Omega)
    check_w_constancy(spec, Omega, lam0)
    if Omega.signed_gap(lam0.x) <= 0.0:
        return 0.0
    return float(min(horizon, _closed_form_bound(lam0.x, lam0.p, spec.V.c_bound, Omega)))


# ---------------------------------------------------------------------------
# Ensemble sampling


def _march_exits(spec: HamiltonianSpec, lam0: PhasePoint, Omega: BoxRegion,
                 controls: Sequence[ControlSignal], horizon: float,
                 step: float) -> tuple[np.ndarray, int]:
    """Exit times of every member at step and at step/2, (2, m) with the
    horizon where a row does not exit, and the number of ticks marched.
    StepTooCoarse if some member's every segment takes one step in both
    passes, since its two passes would then be one grid.

    One stack holds a row per (pass, member), in that order, and advances
    all live rows together, one `rk4_step` per tick, each with its own step
    h as an (M, 1) column: `controlled_rhs` under the rows' control table is
    autonomous, so a row's own time t only brackets its events.  The stack
    is column-major, so each coordinate is one contiguous run and the
    columns broadcast along it.  At the end of a segment a row takes its
    next segment's h, t and u; it leaves the stack when it leaves Ω or when
    its schedule ends.  The rows that leave Ω in a tick are located by one
    `bisect_event` call on their steps' dense output.  Every row's
    arithmetic is its own, so a member's exit does not depend on the rest
    of the ensemble.
    """
    m, n = len(controls), spec.space.dimension
    # row 0 of seg_n and seg_h is the coarse pass, row 1 the fine pass
    first, _, seg_a, seg_b, seg_u = control_pieces(controls, (0.0, horizon))
    seg_u = seg_u.reshape(seg_a.size, -1)
    seg_n = np.stack([_nsteps(seg_a, seg_b, step), _nsteps(seg_a, seg_b, 0.5 * step)])
    seg_h = (seg_b - seg_a) / seg_n
    # such a member would march its one grid twice and always pass halving
    unhalved = np.logical_and.reduceat(seg_n[0] == seg_n[1], first[:-1])
    if unhalved.any():
        raise StepTooCoarse(
            f"member {int(np.argmax(unhalved))} takes the same steps at step {step!r} and "
            "at step/2 on every segment, so step halving checks nothing; refine the step")
    exits = np.full((2, m), horizon)
    # per live row: its index into exits.flat, its pass (1 = fine), its
    # segment, its member's last segment and the tick its segment ends
    row = np.arange(2 * m)
    seg = np.tile(first[:-1], 2)
    last = np.tile(first[1:] - 1, 2)
    fine = np.repeat([0, 1], m)
    end = seg_n[fine, seg]
    H = seg_h[fine, seg][:, None]
    T = np.zeros((2 * m, 1))
    U = seg_u[seg]
    Z = np.asfortranarray(np.tile(lam0.as_state(), (2 * m, 1)))
    rhs = controlled_rhs(spec, U)
    tick, next_end = 0, end.min()
    while True:
        Z_prev, T_prev = Z, T
        Z = rk4_step(rhs, T, Z, H)
        T = T + H
        tick += 1
        check_escape(Z, T)
        keep = Omega.contains(Z[:, :n])
        kept = keep.all()
        if not kept:
            crossed = np.flatnonzero(~keep)
            # a row with gap ≤ 0 at its step's start (on ∂Ω, or started
            # outside Ω) exits there; the rest are bisected
            t_exit = T_prev[crossed, 0]
            inside = Omega.signed_gap(Z_prev[crossed, :n]) > 0.0
            if inside.any():
                j = crossed[inside]
                rhs_x = controlled_rhs(spec, U[j])
                t_exit[inside] = _locate_exits(
                    Omega, T_prev[j, 0], T[j, 0], Z_prev[j], Z[j],
                    rhs_x(T_prev[j], Z_prev[j]), rhs_x(T[j], Z[j]))
            exits.flat[row[crossed]] = t_exit
        switched = tick == next_end
        if switched:
            switch = np.flatnonzero(keep & (end == tick))
            done = seg[switch] == last[switch]
            keep[switch[done]] = False
            kept = kept and not done.any()
            switch = switch[~done]
            seg[switch] += 1
            s, p = seg[switch], fine[switch]
            end[switch] = tick + seg_n[p, s]
            H[switch, 0] = seg_h[p, s]
            T[switch, 0] = seg_a[s]
            U[switch] = seg_u[s]
        if not kept:
            row, seg, last, fine, end = row[keep], seg[keep], last[keep], fine[keep], end[keep]
            H, T, U = H[keep], T[keep], U[keep]
            Z = np.asfortranarray(Z[keep])  # a boolean index comes back row-major
            if not row.size:
                return exits, tick
        elif not switched:
            continue
        rhs = controlled_rhs(spec, U)
        next_end = end.min()


def sampled_exit_time(spec: HamiltonianSpec, lam0: PhasePoint, Omega: BoxRegion,
                      ensemble: Sequence[ControlSignal], horizon: float,
                      step: float = 2e-3,
                      analytic_bound: Optional[float] = None) -> ExitReport:
    """Minimum first-exit time of the base-factor projection over an ensemble.

    Each member marches on its own grid: its cuts are 0, the horizon and its
    breakpoints in between, and each segment between cuts gets a whole number
    of equal steps no longer than step (`control_pieces`, `_nsteps`).  The
    control is looked up once per segment, at its start.  The pass at step
    and the halved-step pass run as one lockstep stack (`_march_exits`), so a
    member's exit time depends on its own control alone.  Each exit is located by bisection to 1e-8 on the
    cubic Hermite dense output of the step that leaves Ω.  The halved-step
    pass must reproduce every exit time to `halving_allowed` (StepTooCoarse
    otherwise, and also for a member whose halved pass takes the same steps
    on every segment); the report carries the halved-step exits and
    `halving_drift`.  An Ω that does not fit the chart raises ValueError.
    """
    _check_fit(spec, Omega)
    controls = list(ensemble)
    if analytic_bound is None:
        analytic_bound = exit_lower_bound(spec, Omega, lam0, horizon=horizon)
    if not controls:
        return ExitReport(analytic_bound, horizon, 0, np.empty(0), horizon)
    (exits, exits_fine), march_ticks = _march_exits(spec, lam0, Omega, controls,
                                                    horizon, step)
    report = ExitReport(analytic_bound=analytic_bound,
                        sampled_min_exit=float(np.min(exits_fine)),
                        ensemble_size=len(controls),
                        exit_times=exits_fine,
                        horizon=horizon,
                        halving_drift=float(np.max(np.abs(exits - exits_fine))),
                        march_ticks=march_ticks)
    if report.halving_drift > report.halving_allowed:
        raise StepTooCoarse(f"exit times move by {report.halving_drift:.3e} under step "
                            f"halving (allowed {report.halving_allowed:.3e}); refine the step")
    return report

"""Small-time steering maneuvers built from impulsive controls.

The two primitives:

* impulse: a constant control u = -k/ε on [0, ε] shifts the momentum by
  k·dW(x₀) = Σ_a k_a dW_a(x₀) with O(ε) error while the position barely
  moves;
* burst: an impulse to the boosted momentum (k/ε)·dW(x₀) followed by free
  flight of duration ε carries the position to x₀ + k·dW(x₀), the time-1
  point of the straight line with initial covector k·dW(x₀), again up to
  O(ε).

Compositions of bursts track gradient curves of W, and with a full rank of
control potentials (dW₁ ∧ … ∧ dWₙ ≠ 0) any phase-space target can be hit:
burst along the covector x₁ − x₀ of the connecting line, then a final
impulse to fix the momentum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import ControlSignal, HamiltonianSpec, evolve
from .errors import (DegenerateDirection, LinearSolveFailed, TargetOffCurve,
                     WedgeDegenerate)
from .geometry import PhasePoint
from .integrate import check_escape, rk4_step

WEDGE_TOL = 1e-10
SUBSTEPS = 2000  # least RK4 steps per plan segment
# How long, and at what RK4 step, the gradient curve is followed each way.
GRADIENT_CURVE_MAX_TIME = 60.0
GRADIENT_CURVE_STEP = 1e-3


@dataclass(frozen=True)
class SteeringPlan:
    """Consecutive (control, duration) segments with the limit-system target.

    epsilon is the rescaling parameter the maneuver was synthesized at; the
    realized endpoint and its error are filled in by execute_plan.
    """

    segments: tuple[tuple[ControlSignal, float], ...]
    predicted_endpoint: PhasePoint
    epsilon: float
    realized_endpoint: Optional[PhasePoint] = None
    achieved_error: Optional[float] = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        for u, dur in self.segments:
            if abs(u.duration - dur) > 1e-12 * max(1.0, dur):
                raise ValueError("segment duration must match its control law")

    @property
    def total_duration(self) -> float:
        return float(sum(d for _, d in self.segments))


def execute_plan(spec: HamiltonianSpec, lam0: PhasePoint,
                 plan: SteeringPlan) -> SteeringPlan:
    """Run the plan's segments through the flow; returns the plan with the
    realized endpoint and the distance to the prediction filled in.

    Impulsive segments carry control values of order 1/ε², so the step count
    is boosted with the control magnitude (capped) to keep RK4 in its
    stability region for nonlinear control potentials.
    """
    lam = lam0
    for u, dur in plan.segments:
        umax = float(np.max(np.abs(u.values)))
        n = max(SUBSTEPS, min(20000, int(np.ceil(2.0 * umax * dur))))
        lam = evolve(spec, lam, u, dur / n).endpoint
    err = float(np.linalg.norm(np.concatenate([
        lam.x - plan.predicted_endpoint.x, lam.p - plan.predicted_endpoint.p])))
    return SteeringPlan(plan.segments, plan.predicted_endpoint, plan.epsilon,
                        realized_endpoint=lam, achieved_error=err)


def _covector(spec: HamiltonianSpec, k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """k·dW(x) = Σ_a k_a dW_a(x) for a row k of control coefficients."""
    terms = [ka * W.grad(x) for ka, W in zip(k, spec.W)]
    return sum(terms[1:], terms[0])


def impulse_steer(spec: HamiltonianSpec, lam0: PhasePoint, k,
                  eps: float) -> SteeringPlan:
    """Momentum kick: constant u = -k/ε on [0, ε] targeting λ₀ + (0, k·dW(x₀)).

    k is a row of n_controls coefficients, a scalar for one control."""
    k = spec.control_rows(k)
    if eps <= 0:
        raise ValueError("eps must be positive")
    predicted = PhasePoint(lam0.x, lam0.p + _covector(spec, k, lam0.x))
    u = ControlSignal.constant(-k / eps, eps)
    return SteeringPlan(((u, eps),), predicted, eps)


def geodesic_burst(spec: HamiltonianSpec, lam0: PhasePoint, k,
                   eps: float) -> SteeringPlan:
    """Impulse to momentum (k/ε)·dW(x₀), then free flight for time ε; k is a
    row of n_controls coefficients, a scalar for one control.

    The projection of the endpoint converges, as ε → 0, to x₀ + k·dW(x₀), the
    time-1 point of the free flight with initial covector k·dW(x₀).  The
    inner impulse runs for
    ε·min(ε, 1) so its position drift (at O(k/ε) momentum) stays O(ε) and the
    total duration stays ≤ 2ε.
    """
    k = spec.control_rows(k)
    if eps <= 0:
        raise ValueError("eps must be positive")
    kdW = _covector(spec, k, lam0.x)
    if np.linalg.norm(kdW) < 1e-12 * np.linalg.norm(k):
        raise DegenerateDirection("k·dW vanishes at the starting point; burst moves nowhere")
    eps_inner = eps * min(eps, 1.0)
    kick = ControlSignal.constant(-(k / eps) / eps_inner, eps_inner)
    flight = ControlSignal.constant(np.zeros_like(k), eps)
    # limit target: time-1 point of the free flight with covector k·dW(x0),
    # at the boosted momentum
    if not k.any():
        target = PhasePoint(lam0.x, lam0.p)
    else:
        target = PhasePoint(lam0.x + kdW, kdW / eps)
    return SteeringPlan(((kick, eps_inner), (flight, eps)), target, eps)


def _gradient_curve(spec: HamiltonianSpec, x0: np.ndarray, target: np.ndarray,
                    tol: float):
    """Follow ẋ = ∇W from x0 in both time directions until the target is met.

    Returns the sampled arc from x0 to the (near-)hit, or raises
    TargetOffCurve when both directions stall or wander without approaching,
    and TrajectoryEscape when the flow leaves the overflow guard or turns
    non-finite.
    """
    W = spec.W[0]

    d0 = np.linalg.norm(np.asarray(x0, dtype=float) - target)

    def flow_dir(sign: float):
        def rhs(_t, x):
            return sign * W.grad(x)
        xs = [np.array(x0, dtype=float)]
        t, x = 0.0, np.array(x0, dtype=float)
        while t < GRADIENT_CURVE_MAX_TIME:
            x = rk4_step(rhs, t, x, GRADIENT_CURVE_STEP)
            t += GRADIENT_CURVE_STEP
            check_escape(x, t)
            xs.append(x.copy())
            d = np.linalg.norm(x - target)
            if d < tol:
                return xs, True
            if d > 10.0 * (d0 + 1.0):
                break  # running away from the target
            speed = np.linalg.norm(W.grad(x))
            if speed < 1e-8:
                break  # stalled near a critical point
        return xs, False

    if np.linalg.norm(target - np.asarray(x0, dtype=float)) < tol:
        return [np.array(x0, dtype=float)]
    for sign in (+1.0, -1.0):
        xs, hit = flow_dir(sign)
        if hit:
            return xs
    raise TargetOffCurve(
        f"target {np.asarray(target)} not reached by the gradient curve through {x0}")


def _polygonal_waypoints(arc: list[np.ndarray], chord_tol: float) -> list[np.ndarray]:
    """Greedy subsampling of the arc so each chord stays within chord_tol of it."""
    if len(arc) <= 2:
        return list(arc)
    pts = np.asarray(arc)
    waypoints = [pts[0]]
    start = 0
    while start < len(pts) - 1:
        end = len(pts) - 1
        # shrink until the chord from start..end hugs the curve
        while end > start + 1:
            a, b = pts[start], pts[end]
            seg = b - a
            L2 = float(seg @ seg)
            mids = pts[start:end + 1]
            tt = np.clip(((mids - a) @ seg) / max(L2, 1e-300), 0.0, 1.0)
            dev = np.max(np.linalg.norm(mids - (a + tt[:, None] * seg), axis=1))
            if dev <= chord_tol:
                break
            end = start + max(1, (end - start) // 2)
        waypoints.append(pts[end])
        start = end
    return waypoints


def gradient_curve_steer(spec: HamiltonianSpec, lam0: PhasePoint, target,
                         tol: float, eps: float) -> SteeringPlan:
    """Drive the projection to a target on the gradient curve of W through x₀.

    The curve is approximated by straight chords (deviation < tol/10); each
    chord is realized by a burst re-planned from the realized state.
    """
    if spec.n_controls != 1:
        raise ValueError("gradient-curve steering needs a single control potential")
    target = np.asarray(target, dtype=float).reshape(-1)
    dW0 = spec.W[0].grad(lam0.x)
    if np.linalg.norm(dW0) < 1e-12:
        raise DegenerateDirection("dW vanishes at the starting point")
    arc = _gradient_curve(spec, lam0.x, target, tol)
    waypoints = _polygonal_waypoints(arc, chord_tol=tol / 10.0)
    if len(waypoints) < 2:
        waypoints = [np.array(lam0.x, dtype=float), target]
    waypoints[-1] = target

    segments: list[tuple[ControlSignal, float]] = []
    lam = lam0
    eps_inner = eps * min(eps, 1.0)
    for wp in waypoints[1:]:
        dW = spec.W[0].grad(lam.x)
        norm2 = float(dW @ dW)
        if norm2 < 1e-20:
            raise DegenerateDirection("gradient of W vanished along the maneuver")
        # chord displacement ≈ k ∇W in the limit ⇒ solve k from the norm
        delta = wp - lam.x
        k = float(delta @ dW) / norm2
        # momentum-setting impulse: cancels the residue of the previous flight
        # along dW (exact in 1D) and installs the boosted covector (k/ε)·dW
        k_imp = float((k / eps) * norm2 - lam.p @ dW) / norm2
        kick = ControlSignal.constant(-k_imp / eps_inner, eps_inner)
        flight = ControlSignal.constant(0.0, eps)
        burst = SteeringPlan(((kick, eps_inner), (flight, eps)),
                             PhasePoint(wp, (k / eps) * dW), eps)
        burst = execute_plan(spec, lam, burst)
        segments.extend(burst.segments)
        lam = burst.realized_endpoint
    predicted = PhasePoint(target, lam.p)
    err = float(np.linalg.norm(lam.x - target))
    return SteeringPlan(tuple(segments), predicted, eps,
                        realized_endpoint=lam, achieved_error=err)


def _control_frame(spec: HamiltonianSpec, x: np.ndarray) -> np.ndarray:
    """Rows are dW_i(x); square because full-rank steering needs n controls."""
    n = spec.space.dimension
    if spec.n_controls != n:
        raise ValueError(f"full-rank steering needs {n} control potentials")
    return np.stack([W.grad(x) for W in spec.W])


def _solve_coefficients(frame: np.ndarray, target_covector: np.ndarray) -> np.ndarray:
    det = np.linalg.det(frame)
    if abs(det) < WEDGE_TOL:
        raise WedgeDegenerate(f"|det dW| = {abs(det):.3e} below tolerance")
    try:
        return np.linalg.solve(frame.T, target_covector)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - det check precedes
        raise LinearSolveFailed(str(exc)) from exc


def full_rank_steer(spec: HamiltonianSpec, lam0: PhasePoint, lam1: PhasePoint,
                    eps: float) -> SteeringPlan:
    """Reach an arbitrary phase-space target with n independent controls.

    Steps: (a) decompose the covector x₁ − x₀ of the connecting line in the
    dW_i frame, (b) burst with those coefficients as the control row, (c)
    cancel the residual momentum with a final (much shorter) impulse
    re-solved at the realized position.
    """
    frame0 = _control_frame(spec, lam0.x)
    frame1 = _control_frame(spec, lam1.x)
    for fr, where in ((frame0, "start"), (frame1, "target")):
        if abs(np.linalg.det(fr)) < WEDGE_TOL:
            raise WedgeDegenerate(f"control differentials degenerate at the {where}")

    a = _solve_coefficients(frame0, lam1.x - lam0.x)
    plan_burst = geodesic_burst(spec, lam0, a, eps)
    plan_burst = execute_plan(spec, lam0, plan_burst)
    lam_mid = plan_burst.realized_endpoint

    # final impulse: shift momentum to the requested one at the realized position
    frame_mid = _control_frame(spec, lam_mid.x)
    b = _solve_coefficients(frame_mid, lam1.p - lam_mid.p)
    eps_final = eps * min(eps, 1.0) ** 2
    plan_imp = impulse_steer(spec, lam_mid, b, eps_final)
    plan_imp = execute_plan(spec, lam_mid, plan_imp)
    lam_end = plan_imp.realized_endpoint

    segments = plan_burst.segments + plan_imp.segments
    err = float(np.linalg.norm(np.concatenate([lam_end.x - lam1.x, lam_end.p - lam1.p])))
    return SteeringPlan(segments, lam1, eps, realized_endpoint=lam_end,
                        achieved_error=err)

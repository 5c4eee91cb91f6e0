"""Fixed-step RK4 integration with step-halving acceptance checks.

One integrator serves every module: classical explicit Runge–Kutta 4 with a
deterministic step count per interval.  Acceptance rule: re-integrate with the
step halved and require the endpoint to move by less than 1e-8 relative,
otherwise StepTooCoarse.  `rk4_step` is shape-agnostic, so an (m, d) array
of states advances a whole control ensemble in one vectorized step.  Events
inside a step are located on its dense output: `hermite_state` is the cubic
Hermite interpolant built from the step's endpoint states and the field at
them (Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.6), so a probe costs
no rhs call.  `ESCAPE_GUARD` is the one overflow guard of every trajectory.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import StepTooCoarse, TrajectoryEscape

HALVING_REL_TOL = 1e-8
# Overflow guard for all trajectory integration (finite-time escape detector).
ESCAPE_GUARD = 1e12


def _nsteps(t0: float, t1: float, step: float) -> int:
    span = t1 - t0
    if span < 0:
        raise ValueError("integration interval reversed")
    if step <= 0:
        raise ValueError("step must be positive")
    return max(1, int(np.ceil(span / step - 1e-12)))


def rk4_step(rhs: Callable, t: float, z: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(t, z)
    k2 = rhs(t + 0.5 * h, z + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, z + 0.5 * h * k2)
    k4 = rhs(t + h, z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def hermite_state(z0, z1, f0, f1, h: float, s: float):
    """Cubic Hermite interpolant of one step of length h at fraction s ∈ [0, 1].

    z0, z1 are the states at the step's ends and f0, f1 the field there.  The
    interpolant matches all four, so it returns z0 at s = 0 and z1 at s = 1
    exactly, and it is exact for cubic trajectories.
    """
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * z0 + h10 * h * f0 + h01 * z1 + h11 * h * f1


def rk4_endpoint(rhs: Callable, z0: np.ndarray, t0: float, t1: float, step: float,
                 guard: float = ESCAPE_GUARD) -> np.ndarray:
    """Endpoint after fixed-step RK4 over [t0, t1] (no halving check)."""
    n = _nsteps(t0, t1, step)
    h = (t1 - t0) / n
    z = np.array(z0, dtype=float)
    t = t0
    for _ in range(n):
        z = rk4_step(rhs, t, z, h)
        t += h
        if not np.all(np.isfinite(z)) or np.max(np.abs(z)) > guard:
            raise TrajectoryEscape(f"state escaped the overflow guard near t={t:.6g}")
    return z


def rk4_endpoint_checked(rhs: Callable, z0: np.ndarray, t0: float, t1: float,
                         step: float, guard: float = ESCAPE_GUARD) -> np.ndarray:
    """Endpoint with the step-halving acceptance check; returns the fine run."""
    coarse = rk4_endpoint(rhs, z0, t0, t1, step, guard)
    fine = rk4_endpoint(rhs, z0, t0, t1, 0.5 * step, guard)
    scale = max(1.0, float(np.max(np.abs(fine))))
    if np.max(np.abs(coarse - fine)) > HALVING_REL_TOL * scale:
        raise StepTooCoarse(
            f"halving the step moved the endpoint by more than {HALVING_REL_TOL} relative")
    return fine


def rk4_trajectory(rhs: Callable, z0: np.ndarray, t0: float, t1: float, step: float,
                   guard: float = ESCAPE_GUARD) -> tuple[np.ndarray, np.ndarray]:
    """All intermediate states on the fixed-step grid, including both ends."""
    n = _nsteps(t0, t1, step)
    h = (t1 - t0) / n
    times = t0 + h * np.arange(n + 1)
    out = np.empty((n + 1, np.size(z0)))
    z = np.array(z0, dtype=float)
    out[0] = z
    t = t0
    for i in range(n):
        z = rk4_step(rhs, t, z, h)
        t += h
        if not np.all(np.isfinite(z)) or np.max(np.abs(z)) > guard:
            raise TrajectoryEscape(f"state escaped the overflow guard near t={t:.6g}")
        out[i + 1] = z
    return times, out


def bisect_event(f: Callable[[float], float], lo: float, hi: float,
                 tol: float = 1e-10, max_iter: int = 200) -> float:
    """Root of a scalar sign-changing function by plain bisection."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("event function does not change sign on the bracket")
    while hi - lo > tol and max_iter > 0:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
        max_iter -= 1
    return 0.5 * (lo + hi)


def variational_rhs(rhs: Callable, dim: int, fd_scale: float = 1e-6) -> Callable:
    """Augment a phase-space field with its linearization J̇ = DF·J.

    DF is evaluated by central finite differences of rhs, so only the field
    itself is required.  State layout: (z, J.ravel()) with J a dim×dim matrix.
    """

    def aug(t: float, w: np.ndarray) -> np.ndarray:
        z = w[:dim]
        J = w[dim:].reshape(dim, dim)
        f0 = rhs(t, z)
        DF = np.empty((dim, dim))
        for k in range(dim):
            h = fd_scale * (1.0 + abs(z[k]))
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            DF[:, k] = (rhs(t, zp) - rhs(t, zm)) / (2 * h)
        return np.concatenate([f0, (DF @ J).ravel()])

    return aug

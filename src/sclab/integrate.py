"""Fixed-step RK4 integration, its certificates and event location.

Every module integrates through this one: classical explicit Runge–Kutta 4
with a deterministic step count per interval.

* `_nsteps` is the one step-count rule: an interval of length ℓ takes
  n = max(1, ⌈ℓ/step − 1e-12⌉) steps of h = ℓ/n.  The marcher below, the
  exit-time stack and the split-step march all count their steps with it.
* `rk4_trajectory` is the one fixed-interval marcher.  It returns every state
  on the grid h = (t1 − t0)/n, n = `_nsteps`(t0, t1, step), both ends
  included.  The
  state may have any shape (an (m, d) array advances a whole ensemble at
  once), and the result keeps it: (n + 1, *z0.shape).
* `rk4_step` is the step itself.  A batch of rows may step with an (m, 1)
  column of steps, one per row; each row then gets the arithmetic of its
  own scalar step.  The result keeps z's memory order when rhs does, so a
  stack may be column-major: each coordinate is then one contiguous run of
  m values, and the (m, 1) columns broadcast along it.  The numbers do not
  depend on the layout.
* `check_escape` is the one overflow guard.  The marcher applies it to the
  whole state after every step, and so do the event-driven loops elsewhere;
  a non-finite entry or one above `ESCAPE_GUARD` raises TrajectoryEscape.
* `halving_checked` is the acceptance rule: run again with the step halved
  and require the endpoint to move by less than `HALVING_REL_TOL` relative,
  otherwise StepTooCoarse.  It returns the fine run.
* No finite-difference derivative lives here: the WKB fan's V″ is the
  potential's analytic `PotentialField.hessian`, and the central-difference
  Jacobian the tests check derivatives against is `tests/oracles.py`'s.
* Events inside a step are located on its dense output: `hermite_state` is
  the cubic Hermite interpolant built from the step's endpoint states and the
  field at them (Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.6), so a
  probe costs no rhs call.  `bisect_event` is the one event locator; it
  takes one bracket or an array of them, so the rows of a stack that cross
  in one step are located together.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import StepTooCoarse, TrajectoryEscape

HALVING_REL_TOL = 1e-8
# Overflow guard for all trajectory integration (finite-time escape detector).
ESCAPE_GUARD = 1e12


def _nsteps(t0, t1, step: float):
    """Steps of at most step over [t0, t1]; elementwise for arrays of ends."""
    span = np.subtract(t1, t0)
    if np.any(span < 0):
        raise ValueError("integration interval reversed")
    if step <= 0:
        raise ValueError("step must be positive")
    n = np.maximum(1, np.ceil(span / step - 1e-12).astype(int))
    return int(n) if n.ndim == 0 else n


def rk4_step(rhs: Callable, t, z: np.ndarray, h) -> np.ndarray:
    """One classical RK4 step of length h from (t, z).

    For a batch z of shape (m, d), h may be an (m, 1) column, one step per
    row; t is then a scalar or a matching column, as rhs needs it.  The
    combination z + (h/6)·(((k1 + 2k2) + 2k3) + k4) is accumulated in place
    in a fresh array, in that order, so the result is the textbook
    expression's to the bit, and it keeps the memory order of the k's.
    """
    half = 0.5 * h
    t_half = t + half
    k1 = rhs(t, z)
    k2 = rhs(t_half, z + half * k1)
    k3 = rhs(t_half, z + half * k2)
    k4 = rhs(t + h, z + h * k3)
    acc = 2.0 * k2
    acc += k1
    acc += 2.0 * k3
    acc += k4
    acc *= h / 6.0
    acc += z
    return acc


def check_escape(z: np.ndarray, t) -> None:
    """Raise TrajectoryEscape if z is not finite or leaves the overflow guard.

    t is the time of z, or a column of per-row times; the message names the
    latest.  One reduction covers both: the max of |z| is NaN if any entry
    is, and NaN fails the comparison.  z is an ndarray; its own methods skip
    the np.max wrapper.
    """
    if not abs(z).max() <= ESCAPE_GUARD:
        raise TrajectoryEscape(f"state escaped the overflow guard near t={np.max(t):.6g}")


def rk4_trajectory(rhs: Callable, z0: np.ndarray, t0: float, t1: float,
                   step: float) -> tuple[np.ndarray, np.ndarray]:
    """All states on the fixed-step grid over [t0, t1], including both ends.

    Returns (times, states) with states of shape (n + 1, *z0.shape).  rhs sees
    the accumulated time t += h; every step is checked against the guard.
    """
    n = _nsteps(t0, t1, step)
    h = (t1 - t0) / n
    z = np.array(z0, dtype=float)
    out = np.empty((n + 1,) + z.shape)
    out[0] = z
    t = t0
    for i in range(n):
        z = rk4_step(rhs, t, z, h)
        t += h
        check_escape(z, t)
        out[i + 1] = z
    return t0 + h * np.arange(n + 1), out


def halving_checked(run: Callable[[float], tuple[np.ndarray, np.ndarray]],
                    step: float) -> tuple[np.ndarray, np.ndarray]:
    """run(step) and run(step/2) must end within HALVING_REL_TOL relative of
    each other (StepTooCoarse otherwise); returns the fine run's (times, states).
    The coarse run's endpoint is copied, so its trajectory is freed before
    the fine run starts.
    """
    coarse = run(step)[1][-1].copy()
    fine = run(0.5 * step)
    scale = max(1.0, float(np.max(np.abs(fine[1][-1]))))
    if np.max(np.abs(coarse - fine[1][-1])) > HALVING_REL_TOL * scale:
        raise StepTooCoarse(
            f"halving the step moved the endpoint by more than {HALVING_REL_TOL} relative")
    return fine


def hermite_state(z0, z1, f0, f1, h: float, s: float):
    """Cubic Hermite interpolant of one step of length h at fraction s ∈ [0, 1].

    z0, z1 are the states at the step's ends and f0, f1 the field there.  The
    interpolant matches all four, so it returns z0 at s = 0 and z1 at s = 1
    exactly, and it is exact for cubic trajectories.
    """
    q = (1 - s) * (1 - s)  # not ** 2, which takes C pow for a scalar s
    h00 = (1 + 2 * s) * q
    h10 = s * q
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * z0 + h10 * h * f0 + h01 * z1 + h11 * h * f1


def bisect_event(f: Callable, lo, hi, tol: float = 1e-10, max_iter: int = 200):
    """Root of a sign-changing function by plain bisection.

    lo and hi may be arrays of brackets, one root each; f then maps an array
    of times, one per bracket, to the values there, so one call of f probes
    every bracket.  Each bracket takes exactly the steps it would take alone,
    and a scalar bracket returns a float.  ValueError if some bracket's ends
    have the same sign.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    flo, fhi = np.array(f(lo), dtype=float), np.asarray(f(hi), dtype=float)
    root = np.where(flo == 0.0, lo, hi)
    found = (flo == 0.0) | (fhi == 0.0)
    if np.any(~found & (flo * fhi > 0)):
        raise ValueError("event function does not change sign on the bracket")
    live = ~found & (hi - lo > tol)
    for _ in range(max_iter):
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        fm = np.asarray(f(mid), dtype=float)
        hit = live & (fm == 0.0)
        np.copyto(root, mid, where=hit)
        found |= hit
        live &= ~hit
        left = live & (flo * fm < 0)
        np.copyto(hi, mid, where=left)
        right = live & ~left
        np.copyto(lo, mid, where=right)
        np.copyto(flo, fm, where=right)
        live &= hi - lo > tol
    root = np.where(found, root, 0.5 * (lo + hi))
    return float(root) if root.ndim == 0 else root

"""Controlled classical Hamiltonian flow with trajectory output.

The flow of H = ½‖p‖² + V(x) + Σ_a u_a(t) W_a(x) integrates, in flat chart
coordinates,

    ẋ = p,
    ṗ = -∇V(x) - Σ_a u_a(t) ∇W_a(x),

restarting the integrator at every control breakpoint so RK4 never straddles a
jump.  On each constant-control subinterval the full Hamiltonian is a
conserved quantity, which the tests use as the primary integration oracle.

Two pieces of code read a law's breakpoints, and nothing outside this module
does: `ControlSignal._segment` is the one lookup (u(t) and ∫₀ᵗu use it), and
`control_pieces` is the one cutter (the exit-time and split-step marches,
`evolve` and `ControlSignal.window` take their pieces from it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import ChartSpace, PhasePoint, PotentialField
from .integrate import halving_checked, rk4_trajectory
# Not called here: perfbench/test_tracer.py reads sclab.dynamics.rk4_step to
# check that its tracer restores every binding it patched.
from .integrate import rk4_step  # noqa: F401


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-constant control: values[i] holds on [breakpoints[i], breakpoints[i+1]).

    values rows may be scalars (single control) or vectors (one entry per
    control potential).
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float).reshape(-1)
        vals = np.asarray(self.values, dtype=float)
        if bp.size < 2 or bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0 and contain at least one interval")
        if np.any(np.diff(bp) <= 0) or not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite and strictly increasing")
        if vals.shape[0] != bp.size - 1:
            raise ValueError("need one value row per subinterval")
        if not np.all(np.isfinite(vals)):
            raise ValueError("control values must be finite")
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, value, duration: float) -> "ControlSignal":
        return cls(np.array([0.0, duration]), np.asarray([value], dtype=float))

    @property
    def duration(self) -> float:
        return float(self.breakpoints[-1])

    def _segment(self, t):
        """Index of the segment holding t, or of each of an array of times:
        right-continuous, and a time outside [0, duration), the final
        instant too, takes the nearest segment, since the search runs over
        the interior breakpoints."""
        return np.searchsorted(self.breakpoints[1:-1], t, side="right")

    def value_at(self, t):
        """Value at a time, or values at an array of times (`_segment`'s rule)."""
        return self.values[self._segment(t)]

    def integral(self, t):
        """∫₀^min(t, duration) u of a scalar law, at a time or an array of
        times: the whole segments before t summed in time order, then the
        part of t's own segment."""
        bp, vals = self.breakpoints, self.values
        cum = np.concatenate([[0.0], np.cumsum(vals * np.diff(bp))])
        k = self._segment(t)
        return cum[k] + vals[k] * (np.minimum(t, bp[-1]) - bp[k])

    def window(self, a: float, b: float) -> "ControlSignal":
        """The law on [a, b], shifted to start at 0."""
        if not (0.0 <= a < b <= self.duration + 1e-12):
            raise ValueError("window must lie inside the control's support")
        _, _, start, end, u = control_pieces([self], (a, b))
        return ControlSignal(np.append(start, end[-1]) - a, u)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Kinetic term from `space` plus drift potential V and control potentials W.

    W may be a single PotentialField or a list (multi-control Hamiltonian
    H = ½‖p‖² + V + Σ u_a W_a); all fields live on the same chart.
    """

    space: ChartSpace
    V: PotentialField
    W: PotentialField | Sequence[PotentialField]

    def __post_init__(self):
        if isinstance(self.W, PotentialField):
            object.__setattr__(self, "W", (self.W,))
        else:
            object.__setattr__(self, "W", tuple(self.W))

    @property
    def n_controls(self) -> int:
        return len(self.W)

    def control_rows(self, u) -> np.ndarray:
        """u as a row of n_controls values (a scalar if one) or an
        (m, n_controls) table; ValueError for any other shape."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.ndim > 2 or u.shape[-1] != self.n_controls:
            raise ValueError(f"need {self.n_controls} control values per row, got {u.shape}")
        return u


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the controlled flow."""

    times: np.ndarray
    xs: np.ndarray
    ps: np.ndarray

    def state(self, i: int) -> PhasePoint:
        return PhasePoint(self.xs[i], self.ps[i])

    @property
    def endpoint(self) -> PhasePoint:
        return self.state(-1)


def controlled_rhs(spec: HamiltonianSpec, u) -> Callable:
    """Phase-space vector field for frozen control values u.

    u is a row of n_controls values (a scalar for one control) and the field
    maps a state (2n,) to (2n,), or u is a table (m, n_controls) and it maps
    a stack (m, 2n) to (m, 2n), row j under u[j].  A table needs batched
    potential callbacks.  Columns that are zero in every row are dropped
    here, once.  The output has z's memory order, so a column-major stack
    stays column-major through an RK4 step.

    The field calls the `gradient` callbacks on the view z[..., :n] and
    builds ṗ in place in the output: −∇V, then each u_a·∇W_a subtracted in
    turn, the gradient scaled by u_a in place.  A W built by `pullback(f, k)`
    is nonzero in force column k alone, so its term evaluates f′ on the
    (..., 1) view z[..., k:k + 1] and subtracts u_a·f′ from that column
    only; the other columns would only subtract ±0.  Negation is exact, so
    (−a) − b is −(a + b) to the bit, up to the sign of an exact zero.
    """
    n = spec.space.dimension
    u = spec.control_rows(u)
    grad_V = spec.V.gradient
    # (u_a column, gradient, the force columns it reaches)
    terms = []
    for a, W in enumerate(spec.W):
        if u[..., a].any():
            k, f = W.axis_factor or (None, W)
            cols = slice(None) if k is None else slice(k, k + 1)
            terms.append((u[..., a, None], f.gradient, cols))

    def rhs(_t: float, z: np.ndarray) -> np.ndarray:
        x = z[..., :n]
        out = np.empty_like(z, dtype=float)
        out[..., :n] = z[..., n:]
        force = out[..., n:]
        np.negative(grad_V(x), out=force)
        for ua, grad_W, cols in terms:
            g = grad_W(x[..., cols])
            g *= ua
            reached = force[..., cols]
            reached -= g
        return out

    return rhs


def _march_segments(spec: HamiltonianSpec, z0: np.ndarray, u: ControlSignal,
                    step: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4 through the control's segments, restarting at every breakpoint so
    no step straddles a jump."""
    times, states = [np.zeros(1)], [np.asarray(z0, dtype=float)[None]]
    _, _, start, end, vals = control_pieces([u], (0.0, u.duration))
    for a, b, uval in zip(start.tolist(), end.tolist(), vals):
        t, z = rk4_trajectory(controlled_rhs(spec, uval), states[-1][-1], a, b, step)
        times.append(t[1:])
        states.append(z[1:])
    return np.concatenate(times), np.concatenate(states)


def evolve(spec: HamiltonianSpec, lam0: PhasePoint, u: ControlSignal,
           step: float) -> Trajectory:
    """Integrate the controlled flow over the control's full duration.

    The integrator restarts at each breakpoint; acceptance requires the
    halved-step endpoint to agree to 1e-8 relative (StepTooCoarse otherwise).
    """
    times, states = halving_checked(
        lambda h: _march_segments(spec, lam0.as_state(), u, h), step)
    n = spec.space.dimension
    return Trajectory(times=times, xs=states[:, :n], ps=states[:, n:])


# ---------------------------------------------------------------------------
# Control ensembles


def sorted_unique(values) -> np.ndarray:
    """The distinct values of an array, sorted: np.unique's result for finite
    values, without the first np.unique call's import of numpy.ma."""
    s = np.sort(np.asarray(values).reshape(-1))
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def control_pieces(controls: Sequence[ControlSignal], bounds):
    """Every law cut at each bound and at its own breakpoints strictly
    inside the bounds, flat over the members: member j owns the pieces
    [first[j], first[j+1]), in time order.

    bounds are nondecreasing.  Piece p is [start[p], end[p]] in window[p],
    the last k with bounds[k] ≤ start[p], so a repeated bound opens an empty
    window.  u[p] is the law's value on the piece, from one `value_at` call
    per member at the pieces' starts: a start is exact, where a midpoint
    can round onto the next cut.  Returns (first, window, start, end, u).
    """
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[0], bounds[-1]
    cuts = [sorted_unique(np.concatenate([bounds, bp[(bp > lo) & (bp < hi)]]))
            for bp in (c.breakpoints for c in controls)]
    first = np.cumsum([0] + [c.size - 1 for c in cuts])
    start = np.concatenate([c[:-1] for c in cuts])
    end = np.concatenate([c[1:] for c in cuts])
    window = np.searchsorted(bounds, start, side="right") - 1
    u = np.concatenate([c.value_at(t[:-1]) for c, t in zip(controls, cuts)])
    return first, window, start, end, u


def sample_controls(seed, count: int, duration: float, amplitude: float,
                    max_breakpoints: int = 8, scheme: str = "uniform",
                    include_extremes: bool = False) -> list[ControlSignal]:
    """Random piecewise-constant laws on [0, duration] with |u| ≤ amplitude.

    scheme 'uniform' draws amplitudes iid; 'lhs' stratifies each subinterval's
    amplitude across the ensemble (Latin hypercube).  include_extremes appends
    the two adversarial constants ±amplitude.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if count < 0:
        raise ValueError("count must be nonnegative")
    n_breaks = rng.integers(1, max_breakpoints + 1, size=count)
    controls = []
    if scheme == "lhs":
        # one stratum permutation per subinterval slot
        strata = [rng.permutation(count) for _ in range(max_breakpoints)]
    for j in range(count):
        m = int(n_breaks[j])
        interior = np.sort(rng.uniform(0.0, duration, size=m - 1)) if m > 1 else np.empty(0)
        bp = np.concatenate([[0.0], interior, [duration]])
        # guard against coincident interior points
        bp = sorted_unique(bp)
        if bp.size < 2:
            bp = np.array([0.0, duration])
        nseg = bp.size - 1
        if scheme == "lhs":
            vals = np.array([
                amplitude * (2.0 * (strata[s][j] + rng.uniform()) / count - 1.0)
                for s in range(nseg)])
        else:
            vals = rng.uniform(-amplitude, amplitude, size=nseg)
        controls.append(ControlSignal(bp, vals))
    if include_extremes:
        controls.append(ControlSignal.constant(amplitude, duration))
        controls.append(ControlSignal.constant(-amplitude, duration))
    return controls


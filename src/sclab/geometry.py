"""Chart-level geometry: configuration manifolds, potentials, geodesics.

Supported manifolds are products of lines and circles described in a single
chart.  The metric enters through its inverse ("cometric") g^{ij}(x); the
kinetic Hamiltonian is H_g(x, p) = ½ g^{ij}(x) p_i p_j and geodesics are the
integral curves of

    ẋ^i = g^{ij} p_j,      ṗ_i = -½ ∂g^{jk}/∂x^i p_j p_k.

Everything downstream (controlled dynamics, steering, WKB characteristics)
consumes ChartSpace / PotentialField, so their callbacks must be pure and,
for grid work, accept batched inputs of shape (..., dim).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidChart, MetricDegenerate
from .integrate import fd_jacobian, halving_checked, rk4_trajectory


def _as_vector(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (dim,):
        raise ValueError(f"expected coordinate vector of length {dim}, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class ChartSpace:
    """A product of lines and circles with a user-supplied cometric.

    topology: per-axis period, or None for an unbounded line axis.
    cometric/dcometric: callbacks x ↦ g^{ij}(x) and x ↦ ∂g^{ij}/∂x^k
    (dcometric[i, j, k]); both default to the flat metric.
    product_split: optional (N1 axes, N2 axes) partition used by the
    product-manifold experiments.
    """

    dimension: int
    topology: tuple[Optional[float], ...] = ()
    cometric: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dcometric: Optional[Callable[[np.ndarray], np.ndarray]] = None
    product_split: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if not self.topology:
            object.__setattr__(self, "topology", (None,) * self.dimension)
        if len(self.topology) != self.dimension:
            raise ValueError("topology needs one entry per axis")
        if (self.cometric is None) != (self.dcometric is None):
            raise ValueError("cometric and dcometric must be supplied together")
        if self.product_split is not None:
            n1, n2 = self.product_split
            if sorted(tuple(n1) + tuple(n2)) != list(range(self.dimension)):
                raise ValueError("product_split must partition the axes exactly")
            object.__setattr__(self, "product_split", (tuple(n1), tuple(n2)))

    @property
    def is_flat(self) -> bool:
        return self.cometric is None

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """Wrap circle-axis coordinates into [0, period)."""
        x = np.array(x, dtype=float)
        for k, period in enumerate(self.topology):
            if period is not None:
                x[..., k] %= period
        return x

    def phase_point(self, x, p) -> "PhasePoint":
        """PhasePoint factory that applies the circle-axis reduction."""
        return PhasePoint(self.reduce(_as_vector(x, self.dimension)),
                          _as_vector(p, self.dimension))

    def validate(self, points: Sequence[np.ndarray]) -> None:
        """Check SPD of g^{ij} and dcometric vs finite differences at sample points.

        Derivative agreement is required to relative 1e-6.
        """
        for x in points:
            g = cometric_at(self, np.asarray(x, dtype=float))
            if self.is_flat:
                continue
            dg = np.asarray(self.dcometric(np.asarray(x, dtype=float)), dtype=float)
            scale = max(1.0, np.max(np.abs(g)))
            err = np.max(np.abs(fd_jacobian(self.cometric, x) - dg), axis=(0, 1))
            if np.max(err) > 1e-6 * scale:
                raise InvalidChart(f"dcometric disagrees with finite differences at "
                                   f"x={x} axis {int(np.argmax(err))}")


@dataclass(frozen=True)
class PhasePoint:
    """A cotangent-bundle point λ = (x, p) in chart coordinates."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).reshape(-1)
        p = np.asarray(self.p, dtype=float).reshape(-1)
        if x.shape != p.shape:
            raise ValueError("position and momentum must have equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
            raise ValueError("phase point entries must be finite")
        x.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)

    @property
    def dimension(self) -> int:
        return self.x.size

    def as_state(self) -> np.ndarray:
        """Flat state vector (x_1..x_n, p_1..p_n) for integrators."""
        return np.concatenate([self.x, self.p])


@dataclass(frozen=True)
class PotentialField:
    """A scalar field with analytic gradient and optional fibre-wise bounds.

    value/gradient must broadcast over batched inputs of shape (..., dim).
    c_bound(x) majorizes the base-factor differential norm and K_bound(x) the
    norm-equivalence factor used by the exit-time comparison systems.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    c_bound: Optional[Callable[[np.ndarray], float]] = None
    K_bound: Optional[Callable[[np.ndarray], float]] = None
    name: str = "custom"

    def __call__(self, x) -> float:
        return float(self.value(np.asarray(x, dtype=float)))

    def grad(self, x) -> np.ndarray:
        return np.asarray(self.gradient(np.asarray(x, dtype=float)), dtype=float)

    def validate(self, points: Sequence[np.ndarray]) -> None:
        """Gradient-vs-central-difference check to relative 1e-6; c, K ≥ 0."""
        for x in points:
            x = np.asarray(x, dtype=float)
            g = self.grad(x)
            fd = fd_jacobian(self.__call__, x)
            scale = max(1.0, float(np.max(np.abs(g))))
            if np.max(np.abs(g - fd)) > 1e-6 * scale:
                raise ValueError(f"gradient of '{self.name}' disagrees with finite differences at {x}")
            if self.c_bound is not None and self.c_bound(x) < 0:
                raise ValueError("c bound must be nonnegative")
            if self.K_bound is not None and self.K_bound(x) < 0:
                raise ValueError("K bound must be nonnegative")


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned box constraining a subset of axes; None = unconstrained.

    bounds[k] is (lo, hi) for a constrained axis k.  Used both as the exit
    region Ω on the N1 factor and as an occupation-probability window.
    """

    bounds: tuple[Optional[tuple[float, float]], ...]

    def __post_init__(self):
        clean = []
        for b in self.bounds:
            if b is None:
                clean.append(None)
                continue
            lo, hi = float(b[0]), float(b[1])
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"degenerate interval {b}")
            clean.append((lo, hi))
        object.__setattr__(self, "bounds", tuple(clean))

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Membership mask, broadcasting over batched points (..., dim)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
            squeeze = True
        else:
            squeeze = False
        inside = np.ones(x.shape[:-1], dtype=bool)
        for k, b in enumerate(self.bounds):
            if b is not None:
                inside &= (x[..., k] >= b[0]) & (x[..., k] <= b[1])
        return bool(inside[0]) if squeeze else inside

    def signed_gap(self, x: np.ndarray) -> float:
        """Smallest distance from x to the boundary (negative if outside)."""
        gaps = []
        for k, b in enumerate(self.bounds):
            if b is not None:
                gaps.append(min(x[k] - b[0], b[1] - x[k]))
        return min(gaps) if gaps else np.inf


# ---------------------------------------------------------------------------
# Operations


def cometric_at(space: ChartSpace, x) -> np.ndarray:
    """Evaluate g^{ij}(x); checks symmetry, finiteness, positive definiteness."""
    x = _as_vector(x, space.dimension)
    if space.is_flat:
        return np.eye(space.dimension)
    g = np.asarray(space.cometric(x), dtype=float)
    if g.shape != (space.dimension, space.dimension):
        raise InvalidChart(f"cometric returned shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise InvalidChart(f"cometric has non-finite entries at x={x}")
    if np.max(np.abs(g - g.T)) > 1e-12 * max(1.0, np.max(np.abs(g))):
        raise MetricDegenerate(f"cometric not symmetric at x={x}")
    try:
        np.linalg.cholesky(0.5 * (g + g.T))
    except np.linalg.LinAlgError:
        raise MetricDegenerate(f"cometric not positive definite at x={x}") from None
    return g


def dcometric_at(space: ChartSpace, x) -> np.ndarray:
    """∂g^{ij}/∂x^k at x, indexed [i, j, k]; zeros for the flat metric."""
    x = _as_vector(x, space.dimension)
    if space.is_flat:
        return np.zeros((space.dimension,) * 3)
    dg = np.asarray(space.dcometric(x), dtype=float)
    if dg.shape != (space.dimension,) * 3:
        raise InvalidChart(f"dcometric returned shape {dg.shape}")
    if not np.all(np.isfinite(dg)):
        raise InvalidChart(f"dcometric has non-finite entries at x={x}")
    return dg


def riemannian_gradient(space: ChartSpace, f: PotentialField, x) -> np.ndarray:
    """∇f = g^{ij} ∂_j f, the metric gradient as a tangent vector."""
    x = _as_vector(x, space.dimension)
    return cometric_at(space, x) @ f.grad(x)


def geodesic_rhs(space: ChartSpace, z: np.ndarray) -> np.ndarray:
    """Hamilton's equations for H_g = ½ g^{ij} p_i p_j in flat state form."""
    n = space.dimension
    x, p = z[:n], z[n:]
    if space.is_flat:
        return np.concatenate([p, np.zeros(n)])
    g = np.asarray(space.cometric(x), dtype=float)
    dg = np.asarray(space.dcometric(x), dtype=float)
    xdot = g @ p
    pdot = -0.5 * np.einsum("jki,j,k->i", dg, p, p)
    return np.concatenate([xdot, pdot])


def geodesic_endpoint(space: ChartSpace, x0, p0, t: float, step: float) -> PhasePoint:
    """Endpoint of the geodesic flow after time t (RK4 + step-halving check).

    Kinetic energy ½‖p‖² is conserved along the way; exceeding the overflow
    guard raises TrajectoryEscape, a failed halving check StepTooCoarse.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if step <= 0:
        raise ValueError("step must be positive")
    z0 = np.concatenate([_as_vector(x0, space.dimension), _as_vector(p0, space.dimension)])
    if t == 0:
        return space.phase_point(z0[: space.dimension], z0[space.dimension:])
    z = halving_checked(lambda h: rk4_trajectory(
        lambda _t, zz: geodesic_rhs(space, zz), z0, 0.0, t, h), step)[1][-1]
    n = space.dimension
    return space.phase_point(z[:n], z[n:])


def pullback(field: PotentialField, axis: int) -> PotentialField:
    """The 1-D field f as a field on a product chart: F(x) = f(x[axis])."""

    def val(x):
        return np.asarray(field.value(np.asarray(x)[..., axis:axis + 1]))

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        g[..., axis] = np.asarray(field.gradient(x[..., axis:axis + 1]))[..., 0]
        return g

    return PotentialField(val, grad, name=f"pullback-axis{axis}")


# ---------------------------------------------------------------------------
# Built-in registry of potentials and metrics (config-facing)


def _per_axis(coeff, dim: int) -> np.ndarray:
    arr = np.asarray(coeff, dtype=float).reshape(-1)
    if arr.size == 1:
        arr = np.repeat(arr, dim)
    if arr.size != dim:
        raise ValueError(f"need 1 or {dim} coefficients, got {arr.size}")
    return arr


def make_potential(name: str, dim: int = 1, **coeffs) -> PotentialField:
    """Build a named potential; all registry fields are smooth and vectorized.

    Names: zero, harmonic (k, center), linear (slope, offset),
    gaussian (amplitude, center, width), cosine (amplitude, freq, phase),
    polynomial (per-axis coefficient lists c0, c1, ... ascending).
    """
    name = name.lower().replace("_", "-")
    if name == "zero":
        return PotentialField(
            value=lambda x: np.zeros(np.shape(x)[:-1]) if np.ndim(x) > 1 else 0.0,
            gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            name="zero",
        )
    if name == "harmonic":
        k = _per_axis(coeffs.get("k", 1.0), dim)
        center = _per_axis(coeffs.get("center", 0.0), dim)

        def val(x):
            d = np.asarray(x, dtype=float) - center
            return 0.5 * np.sum(k * d * d, axis=-1)

        return PotentialField(val, lambda x: k * (np.asarray(x, dtype=float) - center),
                              name="harmonic")
    if name == "linear":
        slope = _per_axis(coeffs.get("slope", 1.0), dim)
        offset = float(coeffs.get("offset", 0.0))
        return PotentialField(
            lambda x: np.sum(slope * np.asarray(x, dtype=float), axis=-1) + offset,
            lambda x: np.broadcast_to(slope, np.shape(x)).astype(float),
            name="linear",
        )
    if name == "gaussian":
        amp = float(coeffs.get("amplitude", 1.0))
        center = _per_axis(coeffs.get("center", 0.0), dim)
        width = _per_axis(coeffs.get("width", 1.0), dim)

        def g_val(x):
            d = (np.asarray(x, dtype=float) - center) / width
            return amp * np.exp(-0.5 * np.sum(d * d, axis=-1))

        def g_grad(x):
            x = np.asarray(x, dtype=float)
            d = (x - center) / width
            return (-d / width) * amp * np.exp(-0.5 * np.sum(d * d, axis=-1))[..., None]

        return PotentialField(g_val, g_grad, name="gaussian")
    if name == "cosine":
        amp = _per_axis(coeffs.get("amplitude", 1.0), dim)
        freq = _per_axis(coeffs.get("freq", 1.0), dim)
        phase = _per_axis(coeffs.get("phase", 0.0), dim)

        def c_val(x):
            return np.sum(amp * np.cos(freq * np.asarray(x, dtype=float) + phase), axis=-1)

        def c_grad(x):
            return -amp * freq * np.sin(freq * np.asarray(x, dtype=float) + phase)

        return PotentialField(c_val, c_grad, name="cosine")
    if name == "polynomial":
        # coeffs: key "c<axis>" with ascending coefficient list, e.g. c0="0,0,0.5"
        per_axis = []
        for ax in range(dim):
            c = coeffs.get(f"c{ax}", coeffs.get("c", [0.0]))
            per_axis.append(np.asarray(c, dtype=float).reshape(-1))

        def p_val(x):
            x = np.asarray(x, dtype=float)
            total = np.zeros(x.shape[:-1])
            for ax, c in enumerate(per_axis):
                total = total + np.polynomial.polynomial.polyval(x[..., ax], c)
            return total

        def p_grad(x):
            x = np.asarray(x, dtype=float)
            g = np.zeros_like(x)
            for ax, c in enumerate(per_axis):
                dc = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)
                g[..., ax] = np.polynomial.polynomial.polyval(x[..., ax], dc)
            return g

        return PotentialField(p_val, p_grad, name="polynomial")
    raise ValueError(f"unknown potential '{name}'")


def make_metric(name: str, dim: int = 1, **coeffs) -> ChartSpace:
    """Build a ChartSpace with a named metric on lines (use replace() for circles).

    Names: flat; constant-diagonal (values); polynomial-diagonal
    (per-axis g^{kk}(x_k) coefficient lists, must stay positive).
    """
    name = name.lower().replace("_", "-")
    if name == "flat":
        return ChartSpace(dimension=dim)
    if name == "constant-diagonal":
        values = _per_axis(coeffs.get("values", 1.0), dim)
        if np.any(values <= 0):
            raise MetricDegenerate("diagonal cometric entries must be positive")
        g_const = np.diag(values)

        return ChartSpace(
            dimension=dim,
            cometric=lambda x: g_const,
            dcometric=lambda x: np.zeros((dim, dim, dim)),
        )
    if name == "polynomial-diagonal":
        per_axis = []
        for ax in range(dim):
            c = coeffs.get(f"c{ax}", coeffs.get("c", [1.0]))
            per_axis.append(np.asarray(c, dtype=float).reshape(-1))

        def met(x):
            g = np.zeros((dim, dim))
            for ax, c in enumerate(per_axis):
                g[ax, ax] = np.polynomial.polynomial.polyval(x[ax], c)
            return g

        def dmet(x):
            dg = np.zeros((dim, dim, dim))
            for ax, c in enumerate(per_axis):
                dc = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)
                dg[ax, ax, ax] = np.polynomial.polynomial.polyval(x[ax], dc)
            return dg

        return ChartSpace(dimension=dim, cometric=met, dcometric=dmet)
    raise ValueError(f"unknown metric '{name}'")

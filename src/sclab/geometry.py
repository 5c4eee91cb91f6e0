"""Chart-level geometry: flat configuration charts, phase points, potentials.

Every chart is flat: the kinetic Hamiltonian is ½‖p‖², so the free flow is
the straight line x(t) = x₀ + t·p₀.  The quantum side of sclab (the
split-step oracle with −ħ²Δ/2 and the WKB fan with ẋ = p) lives on the same
flat charts, so both sides of a comparison share one kinetic term.

Everything downstream (controlled dynamics, steering, WKB characteristics)
consumes ChartSpace / PotentialField, so their callbacks must be pure and,
for grid work, accept batched inputs of shape (..., dim).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# max |∂W| on Ω along the base axes at or above which a control potential W
# counts as varying there (the exit-time and obstruction hypothesis checks)
W_CONSTANCY_TOL = 1e-9


@dataclass(frozen=True)
class ChartSpace:
    """A flat chart R^n: the kinetic term is ½‖p‖²."""

    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")


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
    """A scalar field with analytic gradient, optional analytic diagonal
    second derivative and an optional force bound.

    value/gradient/hessian must broadcast over batched inputs of shape
    (..., dim); hessian(x)[..., k] is ∂²f/∂x_k², shaped like the gradient
    (the WKB fan's V″ needs it).  gradient returns a new float array, which
    the controlled field scales in place.  c_bound is a number, the sup over
    the exit region Ω of the base-factor differential norm |∂ₓV|; the
    exit-time comparison systems are forced by it, and their exit is in
    closed form.  axis_factor is (k, f) for a field f(x_k) of one axis,
    which only `pullback` sets.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    c_bound: Optional[float] = None
    name: str = "custom"
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    axis_factor: Optional[tuple[int, "PotentialField"]] = None

    def __call__(self, x) -> float:
        return float(self.value(np.asarray(x, dtype=float)))

    def grad(self, x) -> np.ndarray:
        return np.asarray(self.gradient(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned box constraining a subset of axes; None = unconstrained.

    bounds[k] is (lo, hi) for a constrained axis k.  Used both as an
    occupation-probability window and as the exit region Ω of a product
    N₁ × N₂, where it states the split: its bounded axes are the base N₁
    and the rest are the fibre N₂.
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
        inside = None
        for k, b in enumerate(self.bounds):
            if b is not None:
                axis = (x[..., k] >= b[0]) & (x[..., k] <= b[1])
                if inside is None:
                    inside = axis
                else:
                    inside &= axis
        if inside is None:
            inside = np.ones(x.shape[:-1], dtype=bool)
        return bool(inside[0]) if squeeze else inside

    def signed_gap(self, x: np.ndarray):
        """Smallest distance from x to the boundary (negative if outside).

        A point (dim,) gives a float; batched points (..., dim) give one gap
        per point.
        """
        x = np.asarray(x, dtype=float)
        gap = np.full(x.shape[:-1], np.inf)
        for k, b in enumerate(self.bounds):
            if b is not None:
                gap = np.minimum(gap, np.minimum(x[..., k] - b[0], b[1] - x[..., k]))
        return float(gap) if gap.ndim == 0 else gap


# ---------------------------------------------------------------------------
# Operations


def pullback(field: PotentialField, axis: int) -> PotentialField:
    """The 1-D field f as a field on a product chart: F(x) = f(x[axis]).

    Its gradient is the full-width (..., dim) array, zero off the axis.  The
    result carries (axis, f) as its axis_factor, so the controlled field
    evaluates f′ on the (..., 1) column x[..., axis:axis + 1] alone and
    subtracts u·f′ from that force column, with the same bits.
    """

    def val(x):
        return np.asarray(field.value(np.asarray(x)[..., axis:axis + 1]))

    def grad(x):
        x = np.asarray(x, dtype=float)
        # laid out like x: a column-major stack then gets a column-major
        # gradient, which the controlled field combines with its
        # column-major output without a strided pass
        g = np.zeros_like(x)
        g[..., axis] = np.asarray(field.gradient(x[..., axis:axis + 1]))[..., 0]
        return g

    return PotentialField(val, grad, name=f"pullback-axis{axis}", axis_factor=(axis, field))


# ---------------------------------------------------------------------------
# Built-in registry of potentials (config-facing)


def _per_axis(coeff, dim: int) -> np.ndarray:
    arr = np.asarray(coeff, dtype=float).reshape(-1)
    if arr.size == 1:
        arr = np.repeat(arr, dim)
    if arr.size != dim:
        raise ValueError(f"need 1 or {dim} coefficients, got {arr.size}")
    return arr


def _shared(coeff: np.ndarray):
    """A per-axis coefficient as a Python float when every axis holds the
    same bits, else the array itself."""
    bits = coeff.view(np.uint64)
    return float(coeff[0]) if (bits == bits[0]).all() else coeff


def _all_plus_zero(coeff: np.ndarray) -> bool:
    """Every entry +0.0: x − 0.0 is x for every float, but x − (−0.0) is
    x + 0.0, which turns −0.0 into +0.0."""
    return bool(((coeff == 0.0) & ~np.signbit(coeff)).all())


def make_potential(name: str, dim: int = 1, **coeffs) -> PotentialField:
    """Build a named potential; all registry fields are smooth and vectorized,
    with analytic gradient and diagonal second derivative.

    Names: zero, harmonic (k, center), linear (slope, offset),
    gaussian (amplitude, center, width), cosine (amplitude, freq, phase),
    polynomial (per-axis coefficient lists c0, c1, ... ascending).

    The harmonic and cosine gradients fold their coefficients once, here,
    where the fold keeps every bit, −0.0 included: a coefficient that every
    axis shares becomes a Python float; a cosine freq of 1.0 on every axis
    drops its multiply (1.0·x is x); a harmonic center of +0.0 on every axis
    drops its subtract (x − 0.0 is x).  The cosine's + phase always stays,
    since x + 0.0 turns −0.0 into +0.0, and the (zero-signed) gradient would
    change with it.
    """
    name = name.lower().replace("_", "-")

    def zeros(x):
        return np.zeros(np.shape(x))

    if name == "zero":
        return PotentialField(
            value=lambda x: np.zeros(np.shape(x)[:-1]) if np.ndim(x) > 1 else 0.0,
            gradient=zeros, hessian=zeros, name="zero",
        )
    if name == "harmonic":
        k = _per_axis(coeffs.get("k", 1.0), dim)
        center = _per_axis(coeffs.get("center", 0.0), dim)

        def val(x):
            d = np.asarray(x, dtype=float) - center
            return 0.5 * np.sum(k * d * d, axis=-1)

        g_k = _shared(k)
        g_center = None if _all_plus_zero(center) else _shared(center)

        def h_grad(x):
            x = np.asarray(x, dtype=float)
            return g_k * (x if g_center is None else x - g_center)

        return PotentialField(val, h_grad,
                              hessian=lambda x: np.broadcast_to(k, np.shape(x)).astype(float),
                              name="harmonic")
    if name == "linear":
        slope = _per_axis(coeffs.get("slope", 1.0), dim)
        offset = float(coeffs.get("offset", 0.0))
        return PotentialField(
            lambda x: np.sum(slope * np.asarray(x, dtype=float), axis=-1) + offset,
            lambda x: np.full_like(x, slope, dtype=float),  # laid out like x
            hessian=zeros, name="linear",
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

        def g_hess(x):
            d = (np.asarray(x, dtype=float) - center) / width
            return ((d * d - 1.0) / (width * width)) \
                * amp * np.exp(-0.5 * np.sum(d * d, axis=-1))[..., None]

        return PotentialField(g_val, g_grad, hessian=g_hess, name="gaussian")
    if name == "cosine":
        amp = _per_axis(coeffs.get("amplitude", 1.0), dim)
        freq = _per_axis(coeffs.get("freq", 1.0), dim)
        phase = _per_axis(coeffs.get("phase", 0.0), dim)
        # -amp * freq is (-amp) * freq, so hoisting it keeps the gradient's bits
        grad_coeff = -amp * freq
        hess_coeff = grad_coeff * freq
        g_coeff, g_phase = _shared(grad_coeff), _shared(phase)
        g_freq = None if (freq == 1.0).all() else _shared(freq)

        def c_val(x):
            return np.sum(amp * np.cos(freq * np.asarray(x, dtype=float) + phase), axis=-1)

        def c_grad(x):
            x = np.asarray(x, dtype=float)
            return g_coeff * np.sin((x if g_freq is None else g_freq * x) + g_phase)

        def c_hess(x):
            return hess_coeff * np.cos(freq * np.asarray(x, dtype=float) + phase)

        return PotentialField(c_val, c_grad, hessian=c_hess, name="cosine")
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

        def p_derivative(order):
            """∂^order/∂x_k^order of each axis's polynomial, shaped like x."""
            derived = [np.polynomial.polynomial.polyder(c, order) if c.size > order
                       else np.zeros(1) for c in per_axis]

            def derivative(x):
                x = np.asarray(x, dtype=float)
                g = np.zeros_like(x)
                for ax, dc in enumerate(derived):
                    g[..., ax] = np.polynomial.polynomial.polyval(x[..., ax], dc)
                return g

            return derivative

        return PotentialField(p_val, p_derivative(1), hessian=p_derivative(2),
                              name="polynomial")
    raise ValueError(f"unknown potential '{name}'")

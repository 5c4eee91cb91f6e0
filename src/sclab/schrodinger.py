"""Spectrally accurate controlled Schrödinger propagation on periodic grids.

Strang splitting for  iħ ∂_t ψ = -ħ²Δψ/2 + (V + u(t)W)ψ:

    ψ → exp(-i(V+uW)dt/2ħ)·ψ → FFT → exp(-iħk²dt/2)·ψ̂ → IFFT
      → exp(-i(V+uW)dt/2ħ)·ψ

Second order in dt, exactly norm preserving, and exact whenever the potential
commutes with the kinetic term (constant W gives the global phase e^{-ic∫u/ħ}).
Periodic boxes stand in for the line: callers keep states away from the
boundary and monitor the top-mode diagnostic.

`split_step_evolve` advances one `WaveGrid` or a `WaveStack` of m states,
each under its own control, over a common window.  Every member keeps its
own substep schedule and the stack steps in lockstep, with one FFT over the
whole stack per step; a single state is the m = 1 stack.  The resolution
check (`TOP_MODE_MASS_TOL`) runs as one batched spectrum on the input and on
every member at each of its own control segment ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
# numpy loads numpy.fft lazily; importing it here loads it with sclab, so
# perfbench/tracer.py can wrap fftn/ifftn before a run makes its first FFT
from numpy import fft

from .dynamics import ControlSignal
from .errors import GridMismatch, GridTooCoarse
from .geometry import BoxRegion, PotentialField

TOP_MODE_FRACTION = 0.10
TOP_MODE_MASS_TOL = 1e-8


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid, one (start, length, points) triple per axis."""

    axes: tuple[tuple[float, float, int], ...]

    def __post_init__(self):
        if not (1 <= len(self.axes) <= 2):
            raise ValueError("grids are 1D or 2D")
        clean = tuple((float(s), float(L), int(n)) for s, L, n in self.axes)
        for s, L, n in clean:
            if L <= 0 or n < 4:
                raise ValueError("each axis needs positive length and ≥ 4 points")
        object.__setattr__(self, "axes", clean)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(n for _, _, n in self.axes)

    @property
    def cell_volume(self) -> float:
        return float(np.prod([L / n for _, L, n in self.axes]))

    def points(self, axis: int = 0) -> np.ndarray:
        s, L, n = self.axes[axis]
        return s + L * np.arange(n) / n

    def mesh(self) -> np.ndarray:
        """Coordinates at every grid node, shape (*shape, dim)."""
        grids = np.meshgrid(*[self.points(a) for a in range(self.dim)], indexing="ij")
        return np.stack(grids, axis=-1)

    def wavenumbers(self, axis: int) -> np.ndarray:
        _, L, n = self.axes[axis]
        return 2 * np.pi * fft.fftfreq(n, d=L / n)

    def k_squared(self) -> np.ndarray:
        if self.dim == 1:
            return self.wavenumbers(0) ** 2
        k0 = self.wavenumbers(0)
        k1 = self.wavenumbers(1)
        return k0[:, None] ** 2 + k1[None, :] ** 2


@dataclass(frozen=True)
class WaveGrid:
    """Complex wavefunction samples on a SpatialGrid with its ħ convention."""

    grid: SpatialGrid
    values: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        _require_finite(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume))

    def normalized(self) -> "WaveGrid":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero state")
        return WaveGrid(self.grid, self.values / n, self.hbar)

    def inner(self, other: "WaveGrid") -> complex:
        if self.grid != other.grid:
            raise GridMismatch("states live on different grids")
        return complex(np.sum(np.conj(self.values) * other.values)
                       * self.grid.cell_volume)


class WaveStack:
    """m states on one grid, values of shape (m, *grid.shape), evolved in place.

    The stack owns the buffers `split_step_evolve` works in (the spectra,
    each member's half potential phase and kinetic phase, and a real power
    buffer), so evolving it window after window allocates no array of its
    size.  Between calls the spectra buffer is free as `scratch`, and
    `distances` uses it.
    """

    def __init__(self, grid: SpatialGrid, values, hbar: float = 1.0):
        vals = np.array(values, dtype=complex)
        if vals.shape[1:] != grid.shape or vals.ndim != grid.dim + 1:
            raise ValueError(f"values shape {vals.shape} != (m, *{grid.shape})")
        _require_finite(vals)
        self.grid, self.values, self.hbar = grid, vals, float(hbar)
        self.scratch = np.empty_like(vals)
        self._half = np.empty_like(vals)
        self._kin = np.empty_like(vals)
        self._power = np.empty(vals.shape)

    def __len__(self) -> int:
        return self.values.shape[0]

    def member(self, j: int) -> WaveGrid:
        """Member j as a validated WaveGrid (a copy)."""
        return WaveGrid(self.grid, self.values[j].copy(), self.hbar)

    def distances(self, other: np.ndarray) -> np.ndarray:
        """‖ψ_j − other_j‖ for every member; other is one state's values or a
        stack's, and may be `scratch`, which this overwrites."""
        diff = np.subtract(self.values, other, out=self.scratch)
        power = np.abs(diff, out=self._power)
        np.square(power, out=power)
        axes = tuple(range(1, self.grid.dim + 1))
        return np.sqrt(power.sum(axis=axes) * self.grid.cell_volume)


def top_mode_mass(psi: WaveGrid) -> float:
    """Fraction of spectral mass in the top 10% of |k| modes."""
    return float(_top_mode_masses(psi.values[None], psi.grid)[0])


def _top_mode_masses(values: np.ndarray, grid: SpatialGrid,
                     work: Optional[np.ndarray] = None,
                     power: Optional[np.ndarray] = None) -> np.ndarray:
    """top_mode_mass of each state in a stack (m, *grid.shape).

    work (complex) and power (real) are optional buffers of at least m rows.
    """
    m = values.shape[0]
    axes = tuple(range(1, grid.dim + 1))
    spec = fft.fftn(values, grid.shape, axes, out=None if work is None else work[:m])
    spec = np.abs(spec, out=None if power is None else power[:m])
    np.square(spec, out=spec)
    total = spec.sum(axis=axes)
    if grid.dim == 1:
        kmag = np.abs(grid.wavenumbers(0))
    else:
        kmag = np.sqrt(grid.k_squared())
    cut = (1.0 - TOP_MODE_FRACTION) * float(np.max(kmag))
    top = spec[:, kmag >= cut].sum(axis=-1)
    return np.divide(top, total, out=np.zeros(m), where=total != 0.0)


def _check_resolution(values: np.ndarray, grid: SpatialGrid,
                      work: Optional[np.ndarray] = None,
                      power: Optional[np.ndarray] = None) -> None:
    mass = float(np.max(_top_mode_masses(values, grid, work, power)))
    if mass > TOP_MODE_MASS_TOL:
        raise GridTooCoarse(
            f"top-mode spectral mass {mass:.3e} exceeds {TOP_MODE_MASS_TOL:.0e}")


def _require_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values.view(float))):
        raise ValueError("wavefunction values must be finite")


def _potential_array(grid: SpatialGrid, field: Optional[PotentialField]) -> np.ndarray:
    if field is None:
        return np.zeros(grid.shape)
    return np.asarray(field.value(grid.mesh()), dtype=float)


def default_dt(u: ControlSignal, grid: SpatialGrid, hbar: float = 1.0) -> float:
    """min(subinterval)/64 capped by the spectral heuristic 2π/(8·E_max)."""
    min_seg = float(np.min(np.diff(u.breakpoints)))
    e_max = 0.5 * hbar * float(np.max(grid.k_squared()))
    return min(min_seg / 64.0, 2 * np.pi / (8.0 * e_max))


def _pieces(u: ControlSignal, t0: float, t1: float, dt: float):
    """(h, substeps, value) of each piece of u on [t0, t1], cut at u's
    breakpoints strictly inside; nseg = ceil(len/dt − 1e-12), h = len/nseg."""
    if t1 <= t0:
        return []
    bp = u.breakpoints
    lo = int(np.searchsorted(bp, t0, side="right"))
    hi = int(np.searchsorted(bp, t1, side="left"))
    rel = [float(c) - t0 for c in (t0, *bp[lo:hi], t1)]
    last = u.values.shape[0] - 1
    pieces = []
    for k in range(len(rel) - 1):
        length = rel[k + 1] - rel[k]
        nseg = max(1, math.ceil(length / dt - 1e-12))
        pieces.append((length / nseg, nseg, u.values[min(lo - 1 + k, last)]))
    return pieces


def split_step_evolve(psi0, V: Optional[PotentialField],
                      W: Optional[PotentialField | Sequence[PotentialField]],
                      u, T: float, dt: Optional[float] = None, *,
                      t0: float = 0.0, check_input: bool = True):
    """Evolve over [t0, T] under V + u(t)·W with Strang splitting.

    psi0 is a WaveGrid evolved under the ControlSignal u (a new WaveGrid is
    returned), or a WaveStack of m states evolved in place under the m
    controls in u (the stack is returned).  Each member cuts [t0, T] at its
    own breakpoints; on each piece dt is adjusted downward to divide it and
    the member applies half_v, then (FFT, kin, IFFT, half_v²)…, then half_v.
    The members step in lockstep on the step index, one FFT over the whole
    stack per step, and a member with fewer steps is left unchanged once
    done.  Norms are preserved to machine precision.  The momentum-resolution
    guard runs on the input (unless check_input is False, for an input the
    previous window already checked) and on every member at each of its
    piece ends; every returned state is checked finite.  dt=None takes
    default_dt of each member's control.
    """
    single = isinstance(psi0, WaveGrid)
    stack = WaveStack(psi0.grid, psi0.values[None], psi0.hbar) if single else psi0
    controls = [u] if single else list(u)
    grid, hbar, psi = stack.grid, stack.hbar, stack.values
    m = len(stack)
    if len(controls) != m:
        raise ValueError(f"{len(controls)} controls for {m} states")
    if T < t0 or t0 < 0:
        raise ValueError("need 0 ≤ t0 ≤ T")
    if any(T > c.duration + 1e-12 for c in controls):
        raise ValueError("control law shorter than the requested horizon")
    Varr = _potential_array(grid, V)
    if W is None:
        Warrs = []
    elif isinstance(W, PotentialField):
        Warrs = [_potential_array(grid, W)]
    else:
        Warrs = [_potential_array(grid, Wa) for Wa in W]
    k2 = grid.k_squared()
    axes = tuple(range(1, grid.dim + 1))  # with s given too, fftn skips a shape look-up
    rows = (m,) + (1,) * grid.dim  # a per-member mask broadcast over the grid
    spectra, power, half, kin = stack.scratch, stack._power, stack._half, stack._kin
    if check_input:
        _check_resolution(psi, grid, spectra, power)
    plans = [_pieces(c, t0, T, dt if dt is not None else default_dt(c, grid, hbar))
             for c in controls]
    total = np.array([sum(n for _, n, _ in plan) for plan in plans], dtype=int)
    n_steps = int(total.max(initial=0))
    # lockstep schedule: opens[g] lists the (member, piece) pairs whose piece
    # starts at step g; closing[g, j] marks the last substep of a piece
    opens = [[] for _ in range(n_steps)]
    opening = np.zeros((n_steps, m), dtype=bool)
    closing = np.zeros((n_steps, m), dtype=bool)
    for j, plan in enumerate(plans):
        g = 0
        for k, (_, nseg, _) in enumerate(plan):
            opens[g].append((j, k))
            opening[g, j] = True
            g += nseg
            closing[g - 1, j] = True
    active = np.arange(n_steps)[:, None] < total
    # a member's last piece ends the window: checked once, after the loop
    inner_end = closing & (np.arange(n_steps)[:, None] < total - 1)
    kin_by_h: dict[float, np.ndarray] = {}
    masks = zip(*(_row_masks(flags, rows)
                  for flags in (active, opening, active & ~opening, closing)))
    for pairs, (act, start, mid, close), ends in zip(opens, masks, inner_end):
        for j, k in pairs:
            h, _, uval = plans[j][k]
            Vtot = Varr + sum(ua * Wa for ua, Wa in zip(np.atleast_1d(uval), Warrs))
            np.exp(-0.5j * h * Vtot / hbar, out=half[j])
            if h not in kin_by_h:
                kin_by_h[h] = np.exp(-0.5j * h * hbar * k2)
            kin[j] = kin_by_h[h]
        _multiply_rows(half, psi, start)
        if mid is not None:
            np.multiply(half, half, out=spectra)  # half_v², spectra still free
            _multiply_rows(spectra, psi, mid)
        fft.fftn(psi, grid.shape, axes, out=spectra)
        _multiply_rows(kin, spectra, act)
        if act is True:
            fft.ifftn(spectra, grid.shape, axes, out=psi)
        else:
            fft.ifftn(spectra, grid.shape, axes, out=spectra)
            np.copyto(psi, spectra, where=act)
        _multiply_rows(half, psi, close)
        if ends.any():
            _check_resolution(psi[ends], grid, spectra, power)
    if n_steps:
        _check_resolution(psi, grid, spectra, power)
    _require_finite(psi)
    return WaveGrid(grid, psi[0], hbar) if single else stack


def _row_masks(flags: np.ndarray, rows: tuple[int, ...]) -> list:
    """Per step (row of flags): True if every member is flagged, None if none
    is, else the flags shaped to broadcast over a stack."""
    every, some = flags.all(axis=1).tolist(), flags.any(axis=1).tolist()
    return [True if e else f.reshape(rows) if s else None
            for f, e, s in zip(flags, every, some)]


def _multiply_rows(factor: np.ndarray, psi: np.ndarray, where) -> None:
    """psi[j] = factor[j]·psi[j] in place for the members `where` selects."""
    if where is not None:
        np.multiply(factor, psi, out=psi, where=where)


def region_probability(psi: WaveGrid, region: BoxRegion) -> float:
    """Riemann-sum occupation probability of the region (axes may be open)."""
    pts = psi.grid.mesh().reshape(-1, psi.grid.dim)
    mask = region.contains(pts).reshape(psi.grid.shape)
    return float(np.sum(np.abs(psi.values[mask]) ** 2) * psi.grid.cell_volume)


def l2_distance(psi: WaveGrid, phi: WaveGrid) -> float:
    if psi.grid != phi.grid:
        raise GridMismatch("states live on different grids")
    return float(np.sqrt(np.sum(np.abs(psi.values - phi.values) ** 2)
                         * psi.grid.cell_volume))


def plane_wave(grid: SpatialGrid, mode: int, hbar: float = 1.0) -> WaveGrid:
    """Normalized e^{ikx} with k the given integer mode (1D)."""
    if grid.dim != 1:
        raise ValueError("plane_wave is one-dimensional")
    s, L, n = grid.axes[0]
    k = 2 * np.pi * mode / L
    vals = np.exp(1j * k * grid.points(0)) / np.sqrt(L)
    return WaveGrid(grid, vals, hbar)


def gaussian_packet(grid: SpatialGrid, center, sigma, momentum=None,
                    hbar: float = 1.0) -> WaveGrid:
    """Normalized Gaussian bump exp(-(x-c)²/4σ² + ik·x) on the grid."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), center.shape)
    mesh = grid.mesh()
    d2 = sum(((mesh[..., a] - center[a]) / sigma[a]) ** 2 for a in range(grid.dim))
    vals = np.exp(-0.25 * d2).astype(complex)
    if momentum is not None:
        momentum = np.atleast_1d(np.asarray(momentum, dtype=float))
        phase = sum(momentum[a] * mesh[..., a] for a in range(grid.dim))
        vals = vals * np.exp(1j * phase / hbar)
    return WaveGrid(grid, vals, hbar).normalized()

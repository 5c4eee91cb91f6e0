"""Spectrally accurate controlled Schrödinger propagation on periodic grids.

Strang splitting for  iħ ∂_t ψ = -ħ²Δψ/2 + (V + u(t)W)ψ:

    ψ → exp(-i(V+uW)dt/2ħ)·ψ → FFT → exp(-iħk²dt/2)·ψ̂ → IFFT
      → exp(-i(V+uW)dt/2ħ)·ψ

Second order in dt, exactly norm preserving, and exact whenever the potential
commutes with the kinetic term (constant W gives the global phase e^{-ic∫u/ħ}).
Periodic boxes stand in for the line: callers keep states away from the
boundary and monitor the top-mode diagnostic.

`split_step_evolve` advances one `WaveGrid` or a `WaveStack` of m states,
each under its own control, over a common window, and may stop at a
sequence of times inside it to hand the stack to a callback.  Every member
keeps its own substep schedule and the stack steps in lockstep, with one
FFT over the whole stack per step; a single state is the m = 1 stack.  The
work that does not change from step to step is done once per call: the
potentials, k², the top-mode mask and the pieces are built once, and a
member's phase factors are exponentiated again only when its step size or
control value changes.  The pieces are the controls cut by
`dynamics.control_pieces`, the cutter the classical exit march uses too,
with `integrate._nsteps` steps each.  The resolution check
(`TOP_MODE_MASS_TOL`) runs as one batched spectrum on the input, on every
member at each of its own control segment ends, and on the whole stack at
every stop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
# numpy loads numpy.fft lazily; importing it here loads it with this module,
# which perfbench/tracer.py reads before it wraps fftn/ifftn, so the tracer
# binds to them before a run makes its first FFT
from numpy import fft

from .dynamics import control_pieces
from .errors import GridMismatch, GridTooCoarse
from .geometry import PotentialField
from .integrate import _nsteps

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


class WaveStack:
    """m states on one grid, values of shape (m, *grid.shape), evolved in place.

    The stack owns the buffers `split_step_evolve` works in (the spectra,
    each member's half potential phase and kinetic phase, and a real power
    buffer), so evolving it window after window allocates no array of its
    size.  Between calls the spectra buffer is free as `scratch`, and
    `distances` uses it.
    """

    def __init__(self, grid: SpatialGrid, values, hbar: float = 1.0):
        # C order: a broadcast view's copy would otherwise keep its
        # zero-stride axis innermost, and the FFT axes must be contiguous
        vals = np.array(values, dtype=complex, order="C")
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


def _top_modes(grid: SpatialGrid) -> np.ndarray:
    """Mask of the modes in the top TOP_MODE_FRACTION of |k|."""
    kmag = np.abs(grid.wavenumbers(0)) if grid.dim == 1 else np.sqrt(grid.k_squared())
    return kmag >= (1.0 - TOP_MODE_FRACTION) * float(np.max(kmag))


def _top_mode_masses(values: np.ndarray, grid: SpatialGrid,
                     work: Optional[np.ndarray] = None,
                     power: Optional[np.ndarray] = None,
                     top: Optional[np.ndarray] = None) -> np.ndarray:
    """top_mode_mass of each state in a stack (m, *grid.shape).

    work (complex) and power (real) are optional buffers of at least m rows;
    top is `_top_modes(grid)`, when the caller holds it.
    """
    m = values.shape[0]
    axes = tuple(range(1, grid.dim + 1))
    spec = fft.fftn(values, grid.shape, axes, out=None if work is None else work[:m])
    spec = np.abs(spec, out=None if power is None else power[:m])
    np.square(spec, out=spec)
    total = spec.sum(axis=axes)
    top_mass = spec[:, _top_modes(grid) if top is None else top].sum(axis=-1)
    return np.divide(top_mass, total, out=np.zeros(m), where=total != 0.0)


def _check_resolution(values: np.ndarray, grid: SpatialGrid,
                      work: Optional[np.ndarray] = None,
                      power: Optional[np.ndarray] = None,
                      top: Optional[np.ndarray] = None) -> None:
    mass = float(np.max(_top_mode_masses(values, grid, work, power, top)))
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


def _lockstep_schedule(first, window, h, nseg, values, n_windows: int):
    """The step schedule of a march of the members through consecutive windows.

    The pieces are flat, as `control_pieces` gives them: member j owns
    [first[j], first[j+1]), and piece p takes nseg[p] steps of h[p] in
    window[p] under values[p].  The members step together, and window k
    takes as many steps as its longest member, so every member reaches each
    window's end at the same step.  Returns (n_win, opens, flags): n_win[k]
    is window k's step count; opens yields, step by step, the (member, h,
    value) of each piece that starts at that step, members in order, from
    the flat arrays sorted by first step (no tuple per piece is held); flags
    holds the (G, m) masks active, opening, closing and inner_end (a piece
    ends at step g before its member's window does).
    """
    m = first.size - 1
    member = np.repeat(np.arange(m), np.diff(first))
    steps = np.zeros((n_windows, m), dtype=int)
    np.add.at(steps, (window, member), nseg)
    n_win = steps.max(axis=1, initial=0)
    start = np.concatenate([[0], np.cumsum(n_win)])
    G = int(start[-1])
    # a piece's first step: its window's first step plus the substeps of its
    # member's earlier pieces, less those of the member's earlier windows
    before = np.cumsum(nseg) - nseg
    earlier = np.cumsum(steps, axis=0) - steps
    g0 = start[window] + before - before[first[member]] - earlier[window, member]
    opening = np.zeros((G, m), dtype=bool)
    closing = np.zeros((G, m), dtype=bool)
    opening[g0, member] = True
    closing[g0 + nseg - 1, member] = True
    order = np.argsort(g0, kind="stable")
    member_o, h_o, values_o = member[order], h[order], values[order]
    at = np.concatenate([[0], np.cumsum(np.bincount(g0, minlength=G))]).tolist()
    opens = (zip(member_o[a:b].tolist(), h_o[a:b].tolist(), values_o[a:b])
             for a, b in zip(at[:-1], at[1:]))
    # each step's index inside its window, and its window's per-member totals
    local = (np.arange(G) - np.repeat(start[:-1], n_win))[:, None]
    totals = np.repeat(steps, n_win, axis=0)
    active = local < totals
    inner_end = closing & (local < totals - 1)
    return n_win.tolist(), opens, (active, opening, closing, inner_end)


def split_step_evolve(psi0, V: Optional[PotentialField], W: Optional[PotentialField],
                      u, T, dt: float, *,
                      t0: float = 0.0, check_input: bool = True,
                      on_stop: Optional[Callable[[int, "WaveStack"], None]] = None):
    """Evolve over [t0, T] under V + u(t)·W with Strang splitting, for scalar
    controls u (W None for no control term).

    psi0 is a WaveGrid evolved under the ControlSignal u (a new WaveGrid is
    returned), or a WaveStack of m states evolved in place under the m
    controls in u (the stack is returned).  T is the end time, or an
    increasing sequence of stop times; on_stop(k, stack), when given, runs
    once the whole stack has reached stop k.  During it the stack's scratch
    is free.

    Each member cuts [t0, T] at every stop and at its own breakpoints
    (`control_pieces`); on each piece dt is adjusted downward to divide it
    (`_nsteps`), and the member applies half_v, then (FFT, kin, IFFT,
    half_v²)…, then half_v.  The members step in lockstep on the step
    index, one FFT over the whole stack per step, and a member with fewer
    steps in a window waits, unchanged, for the others at the window's
    stop.  Potentials, k² and the pieces are built once per call; a
    member's half phase is exponentiated again only when its (h, u)
    changes, the step's new ones in one batched np.exp, and its kinetic
    phase only when its h changes.  Norms are preserved to machine
    precision.  The momentum-resolution guard runs on the input (unless
    check_input is False, for an input a previous call already checked), on
    every member at each of its piece ends and on the whole stack at each
    stop, where every state is also checked finite.
    """
    single = isinstance(psi0, WaveGrid)
    stack = WaveStack(psi0.grid, psi0.values[None], psi0.hbar) if single else psi0
    controls = [u] if single else list(u)
    grid, hbar, psi = stack.grid, stack.hbar, stack.values
    m = len(stack)
    stops = [float(s) for s in np.atleast_1d(np.asarray(T, dtype=float))]
    if len(controls) != m:
        raise ValueError(f"{len(controls)} controls for {m} states")
    if not stops or stops[0] < t0 or t0 < 0 or any(b <= a for a, b in zip(stops, stops[1:])):
        raise ValueError("need 0 ≤ t0 ≤ T, and stop times increasing")
    if any(stops[-1] > c.duration + 1e-12 for c in controls):
        raise ValueError("control law shorter than the requested horizon")
    Varr = _potential_array(grid, V)
    Warr = None if W is None else _potential_array(grid, W)
    k2 = grid.k_squared()
    top = _top_modes(grid)
    axes = tuple(range(1, grid.dim + 1))  # with s given too, fftn skips a shape look-up
    rows = (m,) + (1,) * grid.dim  # a per-member mask broadcast over the grid
    spectra, power, half, kin = stack.scratch, stack._power, stack._half, stack._kin
    if check_input:
        _check_resolution(psi, grid, spectra, power, top)
    bounds = np.array([t0] + stops)
    # lengths from the window's start, so a window's pieces are the same
    # whether it is marched alone or with others
    first, window, start, end, values = control_pieces(controls, bounds)
    a, b = start - bounds[window], end - bounds[window]
    nseg = _nsteps(a, b, dt)
    n_win, opens, (active, opening, closing, inner_end) = _lockstep_schedule(
        first, window, (b - a) / nseg, nseg, values, len(stops))
    masks = zip(*(_row_masks(flags, rows)
                  for flags in (active, opening, active & ~opening, closing)))
    schedule = zip(opens, masks, inner_end)
    half_key = [None] * m  # the (h, u bytes) each member's half phase was made for
    kin_h = [None] * m  # the h each member's kinetic phase was made for
    for k, n_steps in enumerate(n_win):
        for pairs, (act, start, mid, close), ends in itertools.islice(schedule, n_steps):
            fresh = []  # members whose half phase changes; their exponents go to spectra
            kin_new = {}
            for j, h, uval in pairs:
                key = (h, uval.tobytes())
                if key != half_key[j]:
                    half_key[j] = key
                    Vtot = Varr if Warr is None else Varr + uval * Warr
                    np.multiply(-0.5j * h, Vtot, out=spectra[len(fresh)])
                    fresh.append(j)
                if h != kin_h[j]:
                    kin_h[j] = h
                    if h not in kin_new:
                        kin_new[h] = np.exp(-0.5j * h * hbar * k2)
                    kin[j] = kin_new[h]
            if fresh:
                exponents = spectra[:len(fresh)]
                np.divide(exponents, hbar, out=exponents)
                half[fresh] = np.exp(exponents, out=exponents)
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
                _check_resolution(psi[ends], grid, spectra, power, top)
        if n_steps:
            _check_resolution(psi, grid, spectra, power, top)
        _require_finite(psi)
        if on_stop is not None:
            on_stop(k, stack)
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


def l2_distance(psi: WaveGrid, phi: WaveGrid) -> float:
    if psi.grid != phi.grid:
        raise GridMismatch("states live on different grids")
    return float(np.sqrt(np.sum(np.abs(psi.values - phi.values) ** 2)
                         * psi.grid.cell_volume))


def plane_wave(grid: SpatialGrid, mode: int) -> WaveGrid:
    """Normalized e^{ikx} with k the given integer mode (1D), at ħ = 1."""
    if grid.dim != 1:
        raise ValueError("plane_wave is one-dimensional")
    s, L, n = grid.axes[0]
    k = 2 * np.pi * mode / L
    vals = np.exp(1j * k * grid.points(0)) / np.sqrt(L)
    return WaveGrid(grid, vals)


def gaussian_packet(grid: SpatialGrid, center, sigma, momentum=None) -> WaveGrid:
    """Normalized Gaussian bump exp(-(x-c)²/4σ² + ik·x) on the grid, at ħ = 1."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), center.shape)
    mesh = grid.mesh()
    d2 = sum(((mesh[..., a] - center[a]) / sigma[a]) ** 2 for a in range(grid.dim))
    vals = np.exp(-0.25 * d2).astype(complex)
    if momentum is not None:
        momentum = np.atleast_1d(np.asarray(momentum, dtype=float))
        phase = sum(momentum[a] * mesh[..., a] for a in range(grid.dim))
        vals = vals * np.exp(1j * phase)
    return WaveGrid(grid, vals).normalized()

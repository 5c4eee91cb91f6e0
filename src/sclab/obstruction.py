"""Localization experiments: certified lower bounds on quantum steering time.

Protocol, for a control potential constant (= c) on a box Ω of the base
factor: build the cutoff ansatz

    φ(t) = χ·a·e^{iS/ħ}·e^{-ic∫₀ᵗu/ħ}

whose Schrödinger residual r is control independent; by Duhamel and unitarity
‖ψ(t) − φ(t)‖ ≤ δ(t) = (1/ħ)∫₀ᵗ‖r‖.  Any witness ψ₁ supported outside Ω keeps
‖ψ₁ − φ(t)‖ ≥ 1, so for every control ‖ψ₁ − ψ(t)‖ ≥ 1 − δ(t): as long as
δ stays below 1 the true state cannot approach anything supported outside
Ω — a quantitative obstruction horizon.

A product N₁ × N₂ whose potentials live on the second factor needs nothing
more.  H = −ħ²/2·Δ + V₂(y) + u·W₂(y) separates, so from ψ₁ ⊗ ψ₂ the state is
ψ(t) = U₁(t)ψ₁ ⊗ ψ₂(t), with U₁ the free flow on N₁, and the ansatz
χψ̃₁ ⊗ ψ₂(t) leaves ψ − φ = (U₁ψ₁ − χψ̃₁) ⊗ ψ₂(t).  Since ‖ψ₂(t)‖ = 1, the
control never reaches ‖ψ − φ‖, δ or the verdict: they are the scalar ones
on N₁ with W ≡ 1.

Both stages, `run_localization_experiment` and `estimate_Tq_lower_bound`,
take one `AnsatzEngine`: one hypothesis check and one fan serve them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import sample_controls, sorted_unique
from .errors import CausticReached, HypothesisViolated
from .geometry import W_CONSTANCY_TOL, BoxRegion, PotentialField, make_potential
from .schrodinger import SpatialGrid, WaveGrid, WaveStack, split_step_evolve
from .wkb import (CAUSTIC_GUARD, CutoffFunction, first_conjugate_time,
                  shoot_characteristics, wkb_field, wkb_residual)

DUHAMEL_SLACK = 1e-6
# Fan times whose fields the engine assembles in one pass.  A block's knot
# systems, Hermite values and residual grids are alive together with the
# fan, at most 0.36 MB per fan time at 1,200 seeds and 512 grid points, and
# the block passes are the run's memory high-water mark.  On the seed-0
# obstruction benchmark config (2-core Xeon, numpy 2.4) the run's peak RSS
# read 41.6 / 43.2 / 46.6 MB at blocks of 4 / 8 / 16, and the 161 fields
# took 98–108 / 79–89 / 81–84 ms: 8 is as fast as 16 at 3.4 MB less, where
# 4 saves 1.6 MB for some 20 ms more.
FIELD_BLOCK = 8
UNIFORMITY_TOL = 1e-9


@dataclass(frozen=True)
class ObstructionConfig:
    """Everything one localization experiment needs, defaults at demo scale.

    The experiment runs on the one-dimensional `grid` of the base factor.  A
    separable N₁ × N₂ system gives the δ and verdict of this scalar run on
    N₁ (module docstring), so no second factor is configured.  The ansatz is
    cut off by the bump χ on `omega_prime`, and the witness state sits at the
    antipode of Ω's center.  `dt` is the split-step step of the ensemble
    march; None, the default, takes min(1e-3, ε_max/64), with ε_max the
    largest ε snapped to its fan time.  One march serves every ε, so each
    ε's row of the report samples the trajectory the largest ε certifies.

    `enforce_hypothesis = False` runs a W that varies on Ω instead of
    refusing it: each member's residual norms then add u·(W − c)·χψ̃ to the
    residual grids the engine keeps at the stops, and T_q reads 0 once
    max|W′| on Ω ≥ W_CONSTANCY_TOL.
    """

    grid: SpatialGrid
    omega: BoxRegion
    omega_prime: BoxRegion
    V: Optional[PotentialField] = None
    W: Optional[PotentialField] = None
    a0: PotentialField = None
    S0: PotentialField = None
    eps_grid: tuple[float, ...] = (0.01, 0.02, 0.04, 0.08)
    n_seeds: int = 1200
    fan_step: float = 1e-3
    dt: Optional[float] = None
    n_samples: int = 24
    ensemble_count: int = 200
    ensemble_amplitude: float = 50.0
    ensemble_max_breakpoints: int = 8
    seed: int = 0
    target_distance_floor: float = 0.1
    enforce_hypothesis: bool = True
    hbar: float = 1.0

    def __post_init__(self):
        if self.grid.dim != 1:
            raise ValueError("the base-factor grid must be one-dimensional")
        if self.a0 is None:
            object.__setattr__(self, "a0", make_potential("gaussian", 1, width=0.18))
        if self.S0 is None:
            object.__setattr__(self, "S0", make_potential("zero", 1))
        lo_o, hi_o = self.omega.bounds[0]
        lo_p, hi_p = self.omega_prime.bounds[0]
        if not (lo_o < lo_p and hi_p < hi_o):
            raise ValueError("omega_prime must be compactly inside omega")
        if not all(e > 0 for e in self.eps_grid) or list(self.eps_grid) != sorted(self.eps_grid):
            raise ValueError("eps_grid must be positive and ascending")
        if not (0.0 <= self.target_distance_floor < 1.0):
            raise ValueError("target_distance_floor must be in [0, 1)")


@dataclass(frozen=True)
class ObstructionReport:
    """One localization run as an (ε, control) table: row e of each of the
    five arrays is the outcome of every member at `eps_grid[e]`, the e-th ε
    snapped to its fan time.  Each verdict and minimum reduces them."""

    eps_grid: tuple[float, ...]
    delta: np.ndarray
    max_deviation: np.ndarray
    min_witness_distance: np.ndarray
    outside_probability: np.ndarray
    duhamel_margin: np.ndarray  # min over the samples of δ(t) + slack − ‖ψ − φ‖
    target_distance_floor: float
    initial_tail: float
    caustic_floor: float
    max_d1w: float

    @property
    def witness_margin(self) -> np.ndarray:
        """min_witness_distance − (1 − δ − slack): negative where ψ came
        closer to the witness than δ allows."""
        return self.min_witness_distance - (1.0 - self.delta - DUHAMEL_SLACK)

    @property
    def duhamel_violations(self) -> int:
        return int(np.count_nonzero(~(self.duhamel_margin >= 0.0)))  # a NaN fails

    @property
    def witness_violations(self) -> int:
        return int(np.count_nonzero(self.witness_margin < 0.0))

    @property
    def duhamel_margin_min(self) -> float:
        """The least Duhamel margin: negative iff a Duhamel check failed."""
        return float(np.min(self.duhamel_margin))

    @property
    def witness_margin_min(self) -> float:
        """The least witness margin: negative iff a witness check failed."""
        return float(np.min(self.witness_margin))

    @property
    def delta_by_eps(self) -> dict:
        """{ε: max δ over the ensemble}."""
        return dict(zip(self.eps_grid, np.max(self.delta, axis=1).tolist()))

    @property
    def delta_spread_by_eps(self) -> dict:
        """{ε: max − min of δ over the ensemble}."""
        return dict(zip(self.eps_grid, np.ptp(self.delta, axis=1).tolist()))

    @property
    def hypothesis_uniform(self) -> bool:
        """δ is the same for every member at every ε, to UNIFORMITY_TOL."""
        return bool(np.all(np.ptp(self.delta, axis=1) < UNIFORMITY_TOL))

    @property
    def ensemble_spread(self) -> float:
        """Max over ε of the spread (max − min) of max_deviation across the
        ensemble: round-off size when the control cannot move ψ off φ."""
        return float(np.max(np.ptp(self.max_deviation, axis=1)))

    @property
    def certified_bound(self) -> float:
        """The largest ε whose max δ is below 1 − floor, or 0 when any
        Duhamel or witness check failed: a run whose own checks fail
        certifies nothing."""
        below = np.max(self.delta, axis=1) < 1.0 - self.target_distance_floor
        if self.duhamel_violations or self.witness_violations or not np.any(below):
            return 0.0
        return self.eps_grid[int(np.flatnonzero(below)[-1])]


def check_hypothesis(config: ObstructionConfig) -> float:
    """Max |W'| over an Ω grid on the base factor (0 without W); raises
    HypothesisViolated when the config enforces a constant W on Ω."""
    if config.W is None:
        return 0.0
    lo, hi = config.omega.bounds[0]
    xs = np.linspace(lo, hi, 257)[:, None]
    grads = np.asarray(config.W.gradient(xs), dtype=float)
    max_d1w = float(np.max(np.abs(grads)))
    if config.enforce_hypothesis and max_d1w >= W_CONSTANCY_TOL:
        raise HypothesisViolated(
            f"control potential varies on Ω (max |W'| = {max_d1w:.3e})")
    return max_d1w


class AnsatzEngine:
    """χψ̃ and the residual norms of one config at every fan time its stages read.

    It runs `check_hypothesis` first, so a broken config fails before the
    fan is shot.  It records the caustic and guard floors and never raises
    for them; `require_valid` does, up to the time a stage needs.  Of the
    ε grid's entries that the fan reaches, one that snaps to t = 0, or
    snapped times that do not strictly increase, are a ValueError once the
    fan is shot and before any field is assembled.

    The fan lives only while the engine is built.  At build the engine
    works out its served set (`served`), every fan index a stage reads: t = 0,
    the T_q grid (`tq_idx`: the fan times up to the usable horizon, thinned to
    fewer than 512 when there are more) and the sample indices of each ε of
    the config's grid whose snapped time is a fan time at or before the
    guard floor (`_sample_indices`).  One loop assembles the K served
    indices from the config's raw a0, FIELD_BLOCK fan times per `wkb_field`
    and `wkb_residual` call and each index once, in ⌈K/FIELD_BLOCK⌉ block
    passes into arrays allocated once: χψ̃ (`chi_psi`, one grid row each),
    the control-free ‖r‖ (`norms`) and, with the hypothesis broken
    (`w_vals` is not None), the control-free residual grids at the sample
    indices (`residuals`), so `member_residual_norms` needs no fan.  The
    fields are linear in a0, which is scaled so that ‖χ·a0‖ = 1: at the end
    each of these arrays is divided in place by ‖χ·a0‖ (`a0_norm`), the
    norm of the t = 0 row, which is served first.  Then it drops the fan: of
    it the engine keeps `times` and the floors.  `rows` gives the rows of
    served fan indices, and a read at a fan time outside the served set is a
    ValueError.  On the seed-0 benchmark config (161 fan times, 1,200 seeds,
    512 grid points) the χψ̃ array is 1.3 MB, and the fan freed after the
    build 7.7 MB.
    """

    def __init__(self, config: ObstructionConfig, horizon: float):
        self.max_d1w = check_hypothesis(config)
        self.config = config
        self.grid = config.grid
        lo_o, hi_o = config.omega.bounds[0]
        margin = 0.02 * (hi_o - lo_o)
        self.seeds = np.linspace(lo_o + margin, hi_o - margin, config.n_seeds)
        self.chi = CutoffFunction(config.omega_prime)
        fan = shoot_characteristics(
            config.S0, config.V, self.seeds, horizon, config.fan_step, hbar=config.hbar)
        self.times = fan.times
        conj = first_conjugate_time(fan)
        self.caustic_floor = float(np.min(conj))
        # first stored time at which any seed trips the amplitude guard
        guarded = np.any(np.abs(fan.J) < CAUSTIC_GUARD, axis=1)
        guard_floor = (float(fan.times[int(np.argmax(guarded))])
                       if np.any(guarded) else fan.horizon)
        # first time the transported seeds stop covering the cutoff support
        gx = self.grid.points(0)
        lo_p, hi_p = config.omega_prime.bounds[0]
        support = gx[(gx >= lo_p) & (gx <= hi_p)]
        uncovered = ((fan.x[:, 0] > support[0])
                     | (fan.x[:, -1] < support[-1]))
        cover_floor = (float(fan.times[int(np.argmax(uncovered))])
                       if np.any(uncovered) else fan.horizon)
        self.guard_floor = min(guard_floor, cover_floor)
        self.chi_vals = self.chi.on_grid(self.grid).chi
        # control-potential reference value on Ω′ (the phase rate)
        if config.W is None:
            self.c_ref = 0.0
        else:
            center = np.array([0.5 * (config.omega_prime.bounds[0][0]
                                      + config.omega_prime.bounds[0][1])])
            self.c_ref = float(np.asarray(config.W.value(center[None, :])).reshape(-1)[0])
        # W on the grid, for the control term of a deliberately broken hypothesis
        self.w_vals = (np.asarray(config.W.value(self.grid.mesh()), dtype=float)
                       if not (config.enforce_hypothesis or config.W is None) else None)
        # the fan times T_q reads: up to the last one before the guard floor,
        # thinned to fewer than 512
        usable = fan.horizon if self.guard_floor >= fan.horizon \
            else self.guard_floor - config.fan_step
        n_usable = int(np.count_nonzero(fan.times <= usable + 1e-12))
        stride = max(1, n_usable // 256)
        self.tq_idx = (sorted_unique(np.append(np.arange(0, n_usable, stride), n_usable - 1))
                       if n_usable >= 2 else np.zeros(0, dtype=int))
        # the sample indices of each ε the localization run reads; an ε past
        # the fan (an engine built for T_q alone) gets none, since the run
        # refuses it before it reads
        samples = []
        for eps in config.eps_grid:
            try:
                samples.append(_sample_indices(self, eps, config.n_samples))
            except ValueError:
                continue
        ends = self.times[[idx[-1] for idx in samples]]
        if ends.size and ends[0] == 0.0:
            raise ValueError(f"ε={config.eps_grid[0]!r} snaps to the fan time 0.0, "
                             "where δ bounds no interval")
        if np.any(np.diff(ends) <= 0):
            raise ValueError(f"eps_grid snaps to the fan times {ends.tolist()}, "
                             "which must be strictly increasing")
        # t = 0, whose row gives the scale of a0, and the samples of each ε up
        # to the guard floor: the run refuses a later one before it reads
        stops = sorted_unique(np.concatenate(
            [np.zeros(1, dtype=int)]
            + [idx for idx in samples if self.times[idx[-1]] <= self.guard_floor]))
        self.served = sorted_unique(np.concatenate([self.tq_idx, stops]))
        # each fan index's row in chi_psi and norms, and in residuals; -1 if none
        self._row = np.full(self.times.size, -1)
        self._row[self.served] = np.arange(self.served.size)
        self._stop_row = np.full(self.times.size, -1)
        self.chi_psi = np.empty((self.served.size,) + self.grid.shape, dtype=complex)
        self.norms = np.empty(self.served.size)
        self.residuals = None
        if self.w_vals is not None:
            self._stop_row[stops] = np.arange(stops.size)
            self.residuals = np.empty((stops.size,) + self.grid.shape, dtype=complex)
        for start in range(0, self.served.size, FIELD_BLOCK):
            block = slice(start, start + FIELD_BLOCK)
            k = self.served[block]
            field = wkb_field(fan, config.a0, self.grid, fan.times[k])
            r = wkb_residual(field, self.chi)
            self.chi_psi[block] = self.chi_vals * field.psi_tilde()
            self.norms[block] = np.sqrt(np.sum(np.abs(r) ** 2, axis=-1) * self.grid.cell_volume)
            if self.residuals is not None:
                stop = self._stop_row[k]
                self.residuals[stop[stop >= 0]] = r[stop >= 0]
            del field, r  # a block's grids, not held while the next is assembled
        # a0 is scaled so that ‖χ·a0‖ = 1 on the grid.  Every kept array is
        # linear in a0, so each is divided by ‖χ·a0‖, the norm of the row of
        # t = 0, which is served first
        self.a0_norm = float(np.sqrt(np.sum(np.abs(self.chi_psi[0]) ** 2)
                                     * self.grid.cell_volume))
        if self.a0_norm == 0:
            raise ValueError("χ·a0 vanishes on the grid")
        for kept in (self.chi_psi, self.norms, self.residuals):
            if kept is not None:
                kept /= self.a0_norm

    def require_valid(self, t: float) -> None:
        """Raise CausticReached if the ansatz stops being valid before t."""
        if self.guard_floor < t:
            raise CausticReached(
                f"ansatz validity ends at t={self.guard_floor:.4g} before "
                f"t={t:.4g}; shrink the ε grid")

    def _rows(self, idx, row_of: np.ndarray) -> np.ndarray:
        """The rows row_of gives the fan indices idx; ValueError naming the
        first fan time of idx that it gives none."""
        idx = np.asarray(idx, dtype=int)
        rows = row_of[idx]
        if np.any(rows < 0):
            t = float(self.times[idx[rows < 0].flat[0]])
            raise ValueError(f"the engine serves no row at the fan time t={t!r}; see "
                             "AnsatzEngine for the times it serves")
        return rows

    def rows(self, idx) -> np.ndarray:
        """The rows of chi_psi and norms at the served fan indices idx."""
        return self._rows(idx, self._row)

    def residual_norms(self, idx) -> np.ndarray:
        """‖r(t_k)‖ of the control-free residual at served fan indices idx."""
        return self.norms[self.rows(idx)]

    def phase(self, integral):
        """The control phase e^{-ic∫₀ᵗu/ħ} of the scalar ansatz, from ∫₀ᵗu
        (one value or an array of them)."""
        return np.exp(-1j * self.c_ref * integral / self.config.hbar)

    def member_residual_norms(self, idx, controls: list) -> np.ndarray:
        """‖r(t_k)‖ of every member at served fan indices idx, shape
        (m, len(idx)), for a deliberately broken hypothesis: the residual
        without its control phase, which no norm sees, plus the control term
        u·(W − c)·χψ̃, both from the engine's rows."""
        idx = np.asarray(idx, dtype=int)
        rows, stops = self.rows(idx), self._rows(idx, self._stop_row)
        u = np.array([c.value_at(self.times[idx]) for c in controls])
        out = np.empty((len(controls), idx.size))
        for col, (row, stop) in enumerate(zip(rows.tolist(), stops.tolist())):
            terms = (self.residuals[stop]
                     + u[:, col, None] * (self.w_vals - self.c_ref) * self.chi_psi[row])
            out[:, col] = np.sqrt(np.sum(np.abs(terms) ** 2, axis=1) * self.grid.cell_volume)
        return out


def _sample_indices(engine: AnsatzEngine, eps: float, n_samples: int) -> np.ndarray:
    """Fan-grid indices of times covering [0, ε] with about n_samples entries."""
    times = engine.times
    k_end = int(np.argmin(np.abs(times - eps)))
    if abs(times[k_end] - eps) > engine.config.fan_step:
        raise ValueError(f"ε={eps} is beyond the fan horizon")
    stride = max(1, k_end // max(2, n_samples - 1))
    return sorted_unique(np.append(np.arange(0, k_end, stride), k_end))


def _witness_state(config: ObstructionConfig) -> WaveGrid:
    """Normalized bump supported in the far complement of Ω (exactly zero on Ω)."""
    gx = config.grid.points(0)
    lo, hi = config.omega.bounds[0]
    s, L, _ = config.grid.axes[0]
    center = s + ((hi + lo) / 2 - s + L / 2) % L  # antipode of the Ω center
    width = min(L / 10.0, 0.45 * max(1e-6, (L - (hi - lo)) / 2))
    vals = np.exp(-0.5 * ((gx - center) / width) ** 2).astype(complex)
    vals[(gx >= lo) & (gx <= hi)] = 0.0
    return WaveGrid(config.grid, vals, config.hbar).normalized()


def run_localization_experiment(engine: AnsatzEngine) -> ObstructionReport:
    """Evolve the true equation over a control ensemble and tabulate, per
    (ε, control), the Duhamel bound, the control uniformity of δ and the
    witness-distance floor, which the report checks; it certifies the
    largest ε with uniform δ(ε) < 1 − floor, or 0 when any check fails.

    The whole ensemble evolves once, as one WaveStack (m, n): one
    split_step_evolve call over [0, ε_max] advances every member under its
    own control and stops at the union of every ε's sample times, at the
    step `ObstructionConfig.dt` (by default the one ε_max alone would take).
    At each of the K stops one recorder builds φ for every row in one
    broadcast multiply, the engine's χψ̃ row of the stop's fan index times
    each member's phase e^{-ic∫u/ħ} (one `integral` call per member gives
    the (m, K) table of ∫u over the stops and one np.exp its phases), and
    writes the stop's row of three (K, m) arrays: ‖ψ − φ‖, the witness
    distance and the outside probability of every member.  Each ε then
    reduces its own stops c into its row of the report's (ε, control)
    arrays: δ, the end of its δ(t) integrated over c with `_cumulative_upper`
    (rounded up where ‖r‖ is monotone between samples); the max deviation
    and least Duhamel margin (δ + slack) − ‖ψ − φ‖ over c[1:]; the least
    witness distance over c; and the outside probability at c[-1].  The
    residual norms of every stop come from the engine's norm array (or, with
    the hypothesis broken, one row per member from its residual grids): the
    engine serves every stop.  φ is built in the stack's scratch buffer, and
    no array of the stack's size is allocated per stop.  The engine's
    horizon must reach max(eps_grid), and its ansatz must stay valid to the
    largest sample time (CausticReached otherwise).  Each ε snaps to its
    nearest fan time; the engine has refused an ε on t = 0, whose checks
    have no interval to fail on, and snapped times that do not strictly
    increase.
    """
    config = engine.config
    samples = [_sample_indices(engine, eps, config.n_samples) for eps in config.eps_grid]
    ends = engine.times[[idx[-1] for idx in samples]]
    engine.require_valid(float(ends[-1]))
    # the march's stops: every sample time of every ε, each once
    union = sorted_unique(np.concatenate(samples))
    times = engine.times[union]
    rng = np.random.default_rng(config.seed)
    controls = sample_controls(rng, config.ensemble_count, max(config.eps_grid),
                               config.ensemble_amplitude,
                               config.ensemble_max_breakpoints,
                               scheme="lhs", include_extremes=True)
    psi1 = _witness_state(config)

    m = len(controls)
    # grid points outside Ω, where the outside probabilities sum |ψ|²
    outside = ~config.omega.contains(config.grid.mesh()).reshape(config.grid.shape)
    stack = WaveStack(config.grid, np.zeros((m,) + config.grid.shape), config.hbar)
    psi, phi = stack.values, stack.scratch  # φ rows go to the stack's scratch
    rows = engine.rows(union)
    phases = engine.phase(np.array([u.integral(times) for u in controls]))
    # ‖ψ − φ‖, the witness distance and the outside mass of every member at
    # every stop
    dev, witness, outside_p = (np.empty((union.size, m)) for _ in range(3))

    def record(s: int) -> None:
        """Build φ of every member at stop s and record the stop's row."""
        np.multiply(engine.chi_psi[rows[s]], phases[:, s, None], out=phi)
        dev[s] = stack.distances(phi)
        witness[s] = stack.distances(psi1.values)
        outside_p[s] = np.sum(np.abs(psi[:, outside]) ** 2, axis=1) * config.grid.cell_volume

    np.multiply(engine.chi_psi[rows[0]], phases[:, 0, None], out=psi)
    psi0 = stack.member(0).normalized().values
    initial_tail = np.sum(np.abs(psi0[outside]) ** 2) * config.grid.cell_volume
    record(0)
    split_step_evolve(stack, config.V, config.W, controls, times[1:],
                      config.dt or min(1e-3, float(times[-1]) / 64.0),
                      t0=float(times[0]), on_stop=lambda k, _stack: record(k + 1))

    if engine.w_vals is None:
        # the residual is control independent: one row serves every member
        all_norms = engine.residual_norms(union)[None, :]
    else:
        all_norms = engine.member_residual_norms(union, controls)
    delta, max_dev, min_witness, outside_end, margin = (np.empty((ends.size, m))
                                                        for _ in range(5))
    for e, idx in enumerate(samples):
        # this ε's stops, its δ(t) there, and its extremes over them
        c = np.searchsorted(union, idx)
        delta_t = _cumulative_upper(all_norms[:, c], times[c]) / config.hbar
        delta[e] = delta_t[:, -1]
        max_dev[e] = np.max(dev[c[1:]], axis=0)
        margin[e] = np.min(delta_t.T[1:] + DUHAMEL_SLACK - dev[c[1:]], axis=0)
        min_witness[e] = np.min(witness[c], axis=0)
        outside_end[e] = outside_p[c[-1]]
    return ObstructionReport(
        eps_grid=tuple(ends.tolist()), delta=delta, max_deviation=max_dev,
        min_witness_distance=min_witness, outside_probability=outside_end,
        duhamel_margin=margin, target_distance_floor=config.target_distance_floor,
        initial_tail=float(initial_tail), caustic_floor=engine.caustic_floor,
        max_d1w=engine.max_d1w)


def _cumulative_upper(norms: np.ndarray, times: np.ndarray) -> np.ndarray:
    """∫‖r‖ at each sample time, along the last axis of norms, taking on
    each interval the larger of its two end norms: at or above the
    trapezoid, it rounds δ up where ‖r‖ is monotone over an interval, and
    equals the trapezoid where ‖r‖ is constant."""
    out = np.zeros_like(norms)
    out[..., 1:] = np.cumsum(np.maximum(norms[..., 1:], norms[..., :-1]) * np.diff(times), -1)
    return out


def estimate_Tq_lower_bound(engine: AnsatzEngine, threshold: float = 1.0) -> float:
    """Largest horizon up to the engine's with δ(ε) < threshold, found on the
    cumulative residual integral over the engine's T_q grid (monotone in ε,
    so the grid bisection reduces to an inversion); capped by the caustic
    guard floor.  Returns 0 when even the first sample exceeds the threshold.

    Each interval of the grid contributes the larger of its two end norms
    times its length, so δ is not understated where ‖r‖ falls between
    samples the way the trapezoid understates it; inside the crossing
    interval δ is inverted linearly between its end values.

    δ here is the integral of the control-free ‖r‖, which bounds the true δ
    only while W is constant on Ω: a config that does not enforce the
    hypothesis and breaks it gets 0, since then no horizon is certified (one
    that enforces it never gets an engine)."""
    if engine.max_d1w >= W_CONSTANCY_TOL:
        return 0.0
    idx = engine.tq_idx
    if idx.size < 2:
        return 0.0
    ts = engine.times[idx]
    delta = _cumulative_upper(engine.residual_norms(idx), ts) / engine.config.hbar
    below = delta < threshold
    if delta[0] >= threshold:
        return 0.0
    if np.all(below):
        return float(ts[-1])
    k = int(np.argmax(~below))  # first sample at or above the threshold
    t_lo, t_hi = ts[k - 1], ts[k]
    d_lo, d_hi = delta[k - 1], delta[k]
    t_star = t_lo + (threshold - d_lo) / max(d_hi - d_lo, 1e-300) * (t_hi - t_lo)
    return float(min(t_star, ts[-1]))

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

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import sample_controls, sorted_unique
from .errors import CausticReached, HypothesisViolated
from .geometry import BoxRegion, PotentialField, make_potential
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
# max |W'| on Ω at or above which W counts as varying there
W_CONSTANCY_TOL = 1e-9


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
    ε's records are samples of the trajectory the largest ε certifies.
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
class ObstructionRecord:
    """Per-(ε, control) outcome of one localization run."""

    eps: float
    control_index: int
    delta: float
    max_deviation: float
    min_witness_distance: float
    outside_probability: float
    duhamel_margin: float  # min over samples of δ(t) + slack − ‖ψ−φ‖

    @property
    def duhamel_ok(self) -> bool:
        return self.duhamel_margin >= 0.0

    @property
    def witness_margin(self) -> float:
        """min_witness_distance − (1 − δ − slack): negative when ψ came
        closer to the witness than δ allows."""
        return self.min_witness_distance - (1.0 - self.delta - DUHAMEL_SLACK)


@dataclass(frozen=True)
class ObstructionReport:
    records: tuple[ObstructionRecord, ...]
    eps_grid: tuple[float, ...]
    delta_by_eps: dict
    delta_spread_by_eps: dict
    certified_bound: float
    duhamel_violations: int
    witness_violations: int
    initial_tail: float
    caustic_floor: float
    hypothesis_uniform: bool
    max_d1w: float

    @property
    def ensemble_spread(self) -> float:
        """Max over ε of the spread (max − min) of max_deviation across the
        ensemble: round-off size when the control cannot move ψ off φ."""
        by_eps: dict[float, list[float]] = {}
        for r in self.records:
            by_eps.setdefault(r.eps, []).append(r.max_deviation)
        return max((max(v) - min(v) for v in by_eps.values()), default=0.0)

    @property
    def duhamel_margin_min(self) -> float:
        """The least Duhamel margin of any record: negative iff a Duhamel
        check failed."""
        return min(r.duhamel_margin for r in self.records)

    @property
    def witness_margin_min(self) -> float:
        """The least witness margin of any record: negative iff a witness
        check failed."""
        return min(r.witness_margin for r in self.records)

    def to_json(self) -> str:
        payload = {
            "eps_grid": list(self.eps_grid),
            "delta_by_eps": {repr(k): v for k, v in sorted(self.delta_by_eps.items())},
            "delta_spread_by_eps": {repr(k): v for k, v in
                                    sorted(self.delta_spread_by_eps.items())},
            "certified_bound": self.certified_bound,
            "duhamel_violations": self.duhamel_violations,
            "witness_violations": self.witness_violations,
            "initial_tail": self.initial_tail,
            "caustic_floor": self.caustic_floor,
            "hypothesis_uniform": self.hypothesis_uniform,
            "max_d1w": self.max_d1w,
            "n_records": len(self.records),
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_csv(self, header_comment: str = "") -> str:
        import csv as _csv
        import io as _io
        buf = _io.StringIO()
        if header_comment:
            buf.write(f"# {header_comment}\n")
        w = _csv.writer(buf)
        w.writerow(["eps", "control_index", "delta", "max_deviation",
                    "min_witness_distance", "outside_probability"])
        for r in self.records:
            w.writerow([repr(r.eps), r.control_index, repr(r.delta),
                        repr(r.max_deviation), repr(r.min_witness_distance),
                        repr(r.outside_probability)])
        return buf.getvalue()


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
    for them; `require_valid` does, up to the time a stage needs.

    The fan lives only while the engine is built.  At build the engine
    works out its served set (`served`), every fan index a stage reads: the
    T_q grid (`tq_idx`: the fan times up to the usable horizon, thinned to
    fewer than 512 when there are more) and the sample indices of each ε of
    the config's grid whose snapped time is a fan time at or before the
    guard floor (`_sample_indices`).  For the K served indices it assembles
    χψ̃ (`chi_psi`, one grid row each) and the control-free ‖r‖ (`norms`),
    FIELD_BLOCK fan times per `wkb_field` and `wkb_residual` call and each
    index once, in ⌈K/FIELD_BLOCK⌉ block passes into arrays allocated once.
    With the hypothesis broken (`w_vals` is not None) it assembles t = 0
    alone first, for the scale of a0, and also keeps the control-free
    residual grids at the sample indices (`residuals`), so
    `member_residual_norms` needs no fan.  Then it drops the fan: of it the engine keeps `times`
    and the floors.  A read at a fan time outside the served set is a
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
        # t = 0, which scales a0, and the sample indices the localization run
        # reads; an ε past the fan or the guard floor gets none, since the run
        # refuses it before it reads
        samples = [np.zeros(1, dtype=int)]
        for eps in config.eps_grid:
            try:
                idx = _sample_indices(self, eps, config.n_samples)
            except ValueError:
                continue
            if self.times[idx[-1]] <= self.guard_floor:
                samples.append(idx)
        stops = sorted_unique(np.concatenate(samples))
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
        # a0 is scaled so that ‖χ·a0‖ = 1 on the grid.  The field is linear
        # in a0, so without the control term the first block, assembled with
        # the raw a0, supplies the scale from its t = 0 row and is kept
        # divided by it; with it, t = 0 is assembled alone for the scale
        first = self.served[:FIELD_BLOCK if self.w_vals is None else 1]
        field = wkb_field(fan, config.a0, self.grid, fan.times[first])
        nrm = np.sqrt(np.sum((self.chi_vals * field.a[0]) ** 2) * self.grid.cell_volume)
        if nrm == 0:
            raise ValueError("χ·a0 vanishes on the grid")
        self.a0 = PotentialField(
            value=lambda x, f=config.a0, s=nrm: np.asarray(f.value(x)) / s,
            gradient=lambda x, f=config.a0, s=nrm: np.asarray(f.gradient(x)) / s,
            name="a0-normalized")
        done = 0
        if self.w_vals is None:
            self._keep(first, self.chi_vals * field.psi_tilde() / nrm,
                       wkb_residual(field, self.chi), nrm)
            done = first.size
        del field  # a block's grids, not held while the next is assembled
        for start in range(done, self.served.size, FIELD_BLOCK):
            k = self.served[start:start + FIELD_BLOCK]
            field = wkb_field(fan, self.a0, self.grid, fan.times[k])
            self._keep(k, self.chi_vals * field.psi_tilde(), wkb_residual(field, self.chi))
            del field

    def require_valid(self, t: float) -> None:
        """Raise CausticReached if the ansatz stops being valid before t."""
        if self.guard_floor < t:
            raise CausticReached(
                f"ansatz validity ends at t={self.guard_floor:.4g} before "
                f"t={t:.4g}; shrink the ε grid")

    def _keep(self, k: np.ndarray, chi_psi: np.ndarray, r: np.ndarray,
              scale: float = 1.0) -> None:
        """Store the χψ̃ rows and ‖r‖/scale of the fan indices k and, where
        the engine keeps them, their residual grids r."""
        self.chi_psi[self._row[k]] = chi_psi
        self.norms[self._row[k]] = np.sqrt(np.sum(np.abs(r) ** 2, axis=-1)
                                           * self.grid.cell_volume) / scale
        if self.residuals is not None:
            stop = self._stop_row[k]
            self.residuals[stop[stop >= 0]] = r[stop >= 0]

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

    def chi_psi_at(self, t: float) -> np.ndarray:
        """χψ̃ at the served fan time t."""
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not a stored fan time (nearest {self.times[k]})")
        return self.chi_psi[self._rows(k, self._row)]

    def residual_norms(self, idx) -> np.ndarray:
        """‖r(t_k)‖ of the control-free residual at served fan indices idx."""
        return self.norms[self._rows(idx, self._row)]

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
        rows, stops = self._rows(idx, self._row), self._rows(idx, self._stop_row)
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


def build_ansatz(engine: AnsatzEngine, t: float, phases: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """The cutoff approximate solution φ(t) of every member, written to out:
    φ_j = χψ̃(t), the engine's row for t, times member j's control phase
    e^{-ic∫₀ᵗu_j/ħ}.  phases has shape (m,) and out (m, *grid.shape)."""
    return np.multiply(engine.chi_psi_at(t), phases[:, None], out=out)


def run_localization_experiment(engine: AnsatzEngine) -> ObstructionReport:
    """Evolve the true equation over a control ensemble and verify, per record,
    the Duhamel bound, the control uniformity of δ, and the witness-distance
    floor; certify the largest ε with uniform δ(ε) < 1 − floor, or 0 when
    any record fails its Duhamel or witness check.

    The whole ensemble evolves once, as one WaveStack (m, n): one
    split_step_evolve call over [0, ε_max] advances every member under its
    own control and stops at the union of every ε's sample times, at the
    step `ObstructionConfig.dt` (by default the one ε_max alone would take).
    At each stop `build_ansatz` builds φ for every row in one broadcast
    multiply (the shared χψ̃(t_k) row times each member's phase e^{-ic∫u/ħ};
    one `integral` call per member gives the (m, K) table of ∫u over the
    stops and one np.exp its phases), and ‖ψ − φ‖ and the witness distance
    are taken once per row.  They are then folded into the running extremes
    of each ε that samples the stop: its max deviation, its least Duhamel
    margin and its least witness distance.  Each ε keeps its own δ(t),
    integrated over its own sample times with `_cumulative_upper` (rounded
    up where ‖r‖ is monotone between samples), and reads its outside
    probabilities at its own end stop.  The residual norms of every stop
    come from the engine's norm array (or, with the hypothesis broken, one
    row per member from its residual grids), and χψ̃ from its rows: the
    engine serves every stop.  The working set is the stack and its fixed buffers,
    updated in place: φ is built in the stack's scratch buffer, and no
    array of the stack's size is allocated per stop.  The engine's horizon
    must reach max(eps_grid), and its ansatz must stay valid to the largest
    sample time (CausticReached otherwise).  Each ε snaps to its nearest
    fan time, and a grid whose snapped times are not strictly increasing is
    a ValueError.
    """
    config = engine.config
    samples = [_sample_indices(engine, eps, config.n_samples) for eps in config.eps_grid]
    ends = engine.times[[idx[-1] for idx in samples]]
    if np.any(np.diff(ends) <= 0):
        raise ValueError(f"eps_grid snaps to the fan times {ends.tolist()}, "
                         "which must be strictly increasing")
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

    if engine.w_vals is None:
        # the residual is control independent: one row serves every member
        all_norms = engine.residual_norms(union)[None, :]
    else:
        all_norms = engine.member_residual_norms(union, controls)
    phases = engine.phase(np.array([u.integral(times) for u in controls]))
    # per ε: its stops, its δ(t) at them and its running extremes
    cols = [np.searchsorted(union, idx) for idx in samples]
    delta_t = [np.array([_cumulative_upper(row, times[c]) for row in all_norms[:, c]])
               / config.hbar for c in cols]
    max_dev = np.zeros((len(cols), m))
    min_margin = np.full((len(cols), m), np.inf)
    sampled_by = [[] for _ in union]  # (ε, its sample number) at each stop
    for i, c in enumerate(cols):
        for p, s in enumerate(c.tolist()):
            sampled_by[s].append((i, p))

    def set_phi(s: int) -> None:
        """φ of every member at stop s."""
        build_ansatz(engine, float(times[s]), phases[:, s], phi)

    def outside_mass() -> np.ndarray:
        """The probability of every member outside Ω."""
        return np.sum(np.abs(psi[:, outside]) ** 2, axis=1) * config.grid.cell_volume

    set_phi(0)
    psi[...] = phi
    psi0 = stack.member(0).normalized().values
    initial_tail = np.sum(np.abs(psi0[outside]) ** 2) * config.grid.cell_volume
    # every ε starts from the t = 0 values: later stops fold into its witness
    # distances, and its end stop overwrites its outside masses
    min_witness = np.tile(stack.distances(psi1.values), (len(cols), 1))
    outside_p = np.tile(outside_mass(), (len(cols), 1))

    def fold(k: int, _stack: WaveStack) -> None:
        """Fold ‖ψ − φ‖, the Duhamel margin and the witness distance at stop
        k + 1 into the extremes of each ε that samples it, and take the
        outside probabilities of each ε that ends there."""
        set_phi(k + 1)
        dev = stack.distances(phi)
        witness = stack.distances(psi1.values)
        for i, p in sampled_by[k + 1]:
            np.maximum(max_dev[i], dev, out=max_dev[i])
            np.minimum(min_margin[i], delta_t[i][:, p] + DUHAMEL_SLACK - dev,
                       out=min_margin[i])
            np.minimum(min_witness[i], witness, out=min_witness[i])
            if p == cols[i].size - 1:
                outside_p[i] = outside_mass()

    if times.size > 1:
        split_step_evolve(stack, config.V, config.W, controls, times[1:],
                          config.dt or min(1e-3, float(times[-1]) / 64.0),
                          t0=float(times[0]), on_stop=fold)

    records: list[ObstructionRecord] = []
    delta_by_eps: dict[float, float] = {}
    spread_by_eps: dict[float, float] = {}
    for i, eps_eff in enumerate(ends.tolist()):
        deltas = np.broadcast_to(delta_t[i][:, -1], (m,))
        for j in range(m):
            records.append(ObstructionRecord(
                eps=eps_eff, control_index=j, delta=float(deltas[j]),
                max_deviation=float(max_dev[i, j]),
                min_witness_distance=float(min_witness[i, j]),
                outside_probability=float(outside_p[i, j]),
                duhamel_margin=float(min_margin[i, j])))
        delta_by_eps[eps_eff] = float(np.max(deltas))
        spread_by_eps[eps_eff] = float(np.max(deltas) - np.min(deltas))

    duh_bad = sum(1 for r in records if not r.duhamel_ok)
    wit_bad = sum(1 for r in records if r.witness_margin < 0.0)
    threshold = 1.0 - config.target_distance_floor
    certified = 0.0
    if duh_bad == 0 and wit_bad == 0:  # a run whose own checks fail certifies nothing
        for eps_eff, dmax in sorted(delta_by_eps.items()):
            if dmax < threshold:
                certified = eps_eff
    return ObstructionReport(
        records=tuple(records), eps_grid=tuple(sorted(delta_by_eps)),
        delta_by_eps=delta_by_eps, delta_spread_by_eps=spread_by_eps,
        certified_bound=certified, duhamel_violations=duh_bad,
        witness_violations=wit_bad, initial_tail=float(initial_tail),
        caustic_floor=engine.caustic_floor,
        hypothesis_uniform=all(v < UNIFORMITY_TOL for v in spread_by_eps.values()),
        max_d1w=engine.max_d1w)


def _cumulative_upper(norms: np.ndarray, times: np.ndarray) -> np.ndarray:
    """∫‖r‖ at each sample time, taking on each interval the larger of its
    two end norms: at or above the trapezoid, it rounds δ up where ‖r‖ is
    monotone over an interval, and equals the trapezoid where ‖r‖ is
    constant."""
    out = np.zeros_like(norms)
    out[1:] = np.cumsum(np.maximum(norms[1:], norms[:-1]) * np.diff(times))
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

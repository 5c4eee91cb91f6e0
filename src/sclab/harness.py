"""Experiment orchestration: config → module calls → artifacts on disk.

Every runner is deterministic given (config, seed): all randomness flows from
one seeded generator.  Exit status: 0 success, 2 hypothesis violations, 1 any
other error (with an error record in summary.json).

This is the one module that writes files; the numerical modules return
arrays, and each runner builds its tables from them.  Every CSV goes through
`_write_csv` and starts with a comment carrying the config hash and the
seed; `summary.json` carries them as keys, and `report.json` carries
neither.  Both JSON files go through `_write_json`.

Each kind loads only its own modules: exit-time `exit_time`, steer
`steering`, spectral `spectral`, wkb `wkb` and `schrodinger`, obstruction
`obstruction` (which imports `wkb` and `schrodinger`).  The shared layers,
`config`, `dynamics`, `geometry`, `integrate` and `errors`, load with this
module.  The six kind modules are registered with `importlib.util.LazyLoader`
when this module is imported: each is in sys.modules and on the `sclab`
package from then on, but is compiled and executed only when a run first
reads one of its attributes, so an exit-time run never compiles the
quantum, spectral and steering code.  They are registered rather than
imported inside the runners because perfbench/tracer.py looks every traced
module up in sys.modules right after `import sclab.cli`, before the run.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from typing import Callable

import numpy as np

from .config import ExperimentConfig, build_potential
from .dynamics import HamiltonianSpec, sample_controls
from .errors import HypothesisViolated, SclabError, ValidationError
from .geometry import (BoxRegion, ChartSpace, PhasePoint, PotentialField,
                       make_potential, pullback)


def _lazy(name: str):
    """`sclab.<name>`, registered in sys.modules and on the package now, and
    compiled and executed when one of its attributes is first read."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:  # one imported before the harness is used as it is
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


exit_mod = _lazy("exit_time")
obs_mod = _lazy("obstruction")
schro_mod = _lazy("schrodinger")
spec_mod = _lazy("spectral")
steer_mod = _lazy("steering")
wkb_mod = _lazy("wkb")

STATUS_OK = 0
STATUS_ERROR = 1
STATUS_HYPOTHESIS = 2


# Rows formatted and written per write call, so no file is built whole in
# memory: the default wkb run writes its 24.3 MB fan.csv at a 70 MB peak
# RSS, where building the file as one string peaked at 158 MB.
CSV_BLOCK = 4096


def _open(config: ExperimentConfig, name: str):
    os.makedirs(config.out, exist_ok=True)
    return open(os.path.join(config.out, name), "w", newline="")


def _write_json(config: ExperimentConfig, name: str, payload: dict) -> None:
    with _open(config, name) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))


def _write_summary(config: ExperimentConfig, payload: dict) -> None:
    payload = dict(payload)
    payload["config_hash"] = config.content_hash()
    payload["seed"] = config.seed
    payload["experiment"] = config.kind
    _write_json(config, "summary.json", payload)


def _write_csv(config: ExperimentConfig, name: str, columns: dict, note: str = "") -> None:
    """One table: the hash/seed comment, the `note` comment if any, the
    header row, then a row per index of the equal-length columns, ended by
    "\r\n" as csv.writer ends them.  A cell is written by str, which is
    repr for a float; an array column is converted to Python scalars one
    block of CSV_BLOCK rows at a time.  No cell may need csv quoting."""
    cols = list(columns.values())
    n = len(cols[0])
    assert all(len(c) == n for c in cols), f"{name}: columns differ in length"
    row = ",".join(["{}"] * len(cols)) + "\r\n"
    with _open(config, name) as fh:
        fh.write(f"# config_hash={config.content_hash()} seed={config.seed}\n")
        if note:
            fh.write(f"# {note}\n")
        fh.write(",".join(columns) + "\r\n")
        for start in range(0, n, CSV_BLOCK):
            block = [c[start:start + CSV_BLOCK] for c in cols]
            fh.write("".join(map(row.format, *(b.tolist() if isinstance(b, np.ndarray)
                                               else b for b in block))))


def run_experiment(config: ExperimentConfig) -> int:
    """Dispatch on the experiment kind; returns the process exit status."""
    runner: Callable[[ExperimentConfig], None] = {
        "steer": _run_steer,
        "exit-time": _run_exit_time,
        "wkb": _run_wkb,
        "obstruction": _run_obstruction,
        "spectral": _run_spectral,
    }[config.kind]
    try:
        runner(config)
        return STATUS_OK
    except HypothesisViolated as exc:
        _write_summary(config, {"error": str(exc), "error_kind": "HypothesisViolated"})
        return STATUS_HYPOTHESIS
    except (SclabError, ValueError) as exc:
        # a ValueError is a library check refusing the config's values
        _write_summary(config, {"error": str(exc),
                                "error_kind": type(exc).__name__})
        return STATUS_ERROR


def _entries(config: ExperimentConfig, key: str, count: int) -> np.ndarray:
    """The entries of a float-list key; ValidationError naming the key
    unless it has exactly count of them."""
    values = config[key]
    if len(values) != count:
        raise ValidationError(f"needs {count} entries, got {len(values)}", key=key)
    return np.asarray(values)


# ---------------------------------------------------------------------------


def _run_steer(config: ExperimentConfig) -> None:
    dim = config["steer.dimension"]
    space = ChartSpace(dimension=dim)
    V = build_potential(config, "steer.v", dim)
    W = build_potential(config, "steer.w", dim)
    maneuver = config["steer.maneuver"]
    if maneuver == "full-rank" and dim == 2:
        W2 = build_potential(config, "steer.w2", dim)
        spec = HamiltonianSpec(space=space, V=V, W=[W, W2])
    else:
        spec = HamiltonianSpec(space=space, V=V, W=W)
    lam0 = PhasePoint(_entries(config, "steer.x0", dim),
                      _entries(config, "steer.p0", dim))
    k = config["steer.k"]
    eps_sweep = config["steer.eps_sweep"]
    predicted, realized, errs, durations = [], [], [], []
    for eps in eps_sweep:
        if maneuver == "impulse":
            plan = steer_mod.impulse_steer(spec, lam0, k, eps)
            plan = steer_mod.execute_plan(spec, lam0, plan)
        elif maneuver == "burst":
            plan = steer_mod.geodesic_burst(spec, lam0, k, eps)
            plan = steer_mod.execute_plan(spec, lam0, plan)
        elif maneuver == "gradient-curve":
            plan = steer_mod.gradient_curve_steer(
                spec, lam0, _entries(config, "steer.target", dim),
                tol=config["steer.tol"], eps=eps)
        else:
            lam1 = PhasePoint(_entries(config, "steer.target", dim),
                              _entries(config, "steer.target_p", dim))
            plan = steer_mod.full_rank_steer(spec, lam0, lam1, eps)
        predicted.append(" ".join(map(repr, plan.predicted_endpoint.x.tolist())))
        realized.append(" ".join(map(repr, plan.realized_endpoint.x.tolist())))
        errs.append(float(plan.achieved_error))
        durations.append(float(plan.total_duration))
    _write_csv(config, "steer_sweep.csv", {
        "eps": eps_sweep, "predicted_x": predicted, "realized_x": realized,
        "error": errs, "duration": durations})
    errs = np.array(errs)
    eps_arr = np.array(eps_sweep, dtype=float)
    ok = errs > 0
    slope = (float(np.polyfit(np.log(eps_arr[ok]), np.log(errs[ok]), 1)[0])
             if np.count_nonzero(ok) >= 2 else None)
    _write_summary(config, {
        "maneuver": maneuver,
        "final_error": float(errs[-1]),
        "loglog_slope": slope,
        "total_duration_last": durations[-1],
    })


def _exit_time_spec(config: ExperimentConfig) -> HamiltonianSpec:
    """Canned product family: flat (x) × (y), V = ½c·x² + cos y, W on N2.
    The run's Ω bounds x alone, which makes x the base N1.

    V's c_bound is the sup of |∂ₓV| = c|x| over Ω, c·max(|lo|, |hi|).
    """
    c = config["exit.force_bound"]
    lo, hi = _entries(config, "exit.omega", 2)
    space = ChartSpace(dimension=2)

    def grad_V(xy):
        xy = np.asarray(xy, dtype=float)
        g = np.empty_like(xy)
        np.multiply(c, xy[..., 0], out=g[..., 0])
        np.sin(xy[..., 1], out=g[..., 1])
        np.negative(g[..., 1], out=g[..., 1])
        return g

    V = PotentialField(
        value=lambda xy: 0.5 * c * np.asarray(xy)[..., 0] ** 2
        + np.cos(np.asarray(xy)[..., 1]),
        gradient=grad_V,
        c_bound=c * max(abs(float(lo)), abs(float(hi))),
        name="exit-demo")
    w2 = build_potential(config, "exit.w2", 1)
    if w2.name == "zero":
        w2 = make_potential("cosine", 1)
    return HamiltonianSpec(space=space, V=V, W=pullback(w2, 1))


def _run_exit_time(config: ExperimentConfig) -> None:
    spec = _exit_time_spec(config)
    lam0 = PhasePoint(_entries(config, "exit.x0", 2), _entries(config, "exit.p0", 2))
    lo, hi = _entries(config, "exit.omega", 2)
    omega = BoxRegion(((lo, hi), None))
    controls = sample_controls(config.seed, config["exit.ensemble"],
                               config["exit.horizon"], config["exit.amplitude"],
                               config["exit.breakpoints"])
    report = exit_mod.sampled_exit_time(spec, lam0, omega, controls,
                                        horizon=config["exit.horizon"],
                                        step=config["exit.step"])
    _write_csv(config, "exit_times.csv",
               {"control_index": np.arange(report.exit_times.size),
                "exit_time": report.exit_times},
               note=f"analytic_bound={report.analytic_bound!r} horizon={report.horizon!r}")
    _write_summary(config, {
        "analytic_bound": report.analytic_bound,
        "sampled_min_exit": report.sampled_min_exit,
        "bound_respected": report.bound_respected,
        "ensemble_size": report.ensemble_size,
        "horizon": report.horizon,
        "ensemble_spread": report.ensemble_spread,
        "members_exited": report.members_exited,
        "halving_drift": report.halving_drift,
        "halving_allowed": report.halving_allowed,
        "march_ticks": report.march_ticks,
    })


def _run_wkb(config: ExperimentConfig) -> None:
    seeds = np.linspace(config["wkb.seed_lo"], config["wkb.seed_hi"],
                        config["wkb.n_seeds"])
    S0 = build_potential(config, "wkb.s0", 1)
    V = build_potential(config, "wkb.v", 1)
    a0 = build_potential(config, "wkb.a0", 1)
    fan = wkb_mod.shoot_characteristics(S0, V, seeds, config["wkb.horizon"],
                                        config["wkb.step"], hbar=config["wkb.hbar"])
    conj = wkb_mod.first_conjugate_time(fan)
    grid = schro_mod.SpatialGrid(((config["wkb.grid_lo"], config["wkb.grid_len"],
                                   config["wkb.grid_n"]),))
    # the stored fan time nearest the requested one
    t_snap = float(fan.times[np.argmin(np.abs(fan.times - config["wkb.snapshot_t"]))])
    field = wkb_mod.wkb_field(fan, a0, grid, t_snap)
    # t-major rows; each time and seed is formatted once and repeated by list
    n_t, n_s = fan.x.shape
    _write_csv(config, "fan.csv", {
        "t": [t for t in map(repr, fan.times.tolist()) for _ in range(n_s)],
        "seed": list(map(repr, fan.seeds.tolist())) * n_t,
        "x": fan.x.ravel(), "p": fan.p.ravel(), "S": fan.S.ravel(), "J": fan.J.ravel()})
    _write_csv(config, "field.csv", {
        "x": grid.points(0), "S": field.S, "a": field.a,
        "valid": field.valid_mask.astype(int)})
    stride = max(1, n_t // 64)
    abs_J = np.abs(fan.J[::stride])
    _write_csv(config, "jacobian_range.csv", {
        "t": fan.times[::stride], "min_abs_J": np.min(abs_J, axis=1),
        "max_abs_J": np.max(abs_J, axis=1)})
    _write_csv(config, "conjugate_times.csv",
               {"seed": fan.seeds, "first_conjugate_time": conj})
    # identity check: exp(∫ΔS) vs the variational J, reported not asserted;
    # it holds only up to each seed's first conjugate time
    lapS = fan.laplacian_S()
    dt = float(fan.times[1] - fan.times[0])
    integral = np.zeros_like(lapS)
    integral[1:] = 0.5 * dt * np.cumsum(lapS[1:] + lapS[:-1], axis=0)
    usable = (np.abs(fan.J) > 0.05) & (fan.times[:, None] <= conj[None, :])
    J = fan.J[usable]
    rel = np.abs(np.exp(integral[usable]) - J) / np.maximum(np.abs(J), 1e-300)
    _write_summary(config, {
        "conjugate_floor": float(np.min(conj)),
        "snapshot_t": t_snap,
        "jacobian_identity_max_rel_error": float(np.max(rel)),
        "field_valid_fraction": float(np.mean(field.valid_mask)),
    })


def _run_obstruction(config: ExperimentConfig) -> None:
    grid = schro_mod.SpatialGrid(((config["obstruction.grid_lo"],
                                   config["obstruction.grid_len"],
                                   config["obstruction.grid_n"]),))
    lo, hi = _entries(config, "obstruction.omega", 2)
    lop, hip = _entries(config, "obstruction.omega_prime", 2)
    w_field = build_potential(config, "obstruction.w", 1)
    if w_field.name == "zero":
        w_field = make_potential("linear", 1, slope=0.0, offset=1.0)
    v_field = build_potential(config, "obstruction.v", 1)
    ocfg = obs_mod.ObstructionConfig(
        grid=grid,
        omega=BoxRegion(((lo, hi),)),
        omega_prime=BoxRegion(((lop, hip),)),
        V=None if v_field.name == "zero" else v_field,
        W=w_field,
        a0=make_potential("gaussian", 1, width=config["obstruction.a0_width"]),
        S0=build_potential(config, "obstruction.s0", 1),
        eps_grid=tuple(config["obstruction.eps_grid"]),
        n_seeds=config["obstruction.n_seeds"],
        fan_step=config["obstruction.fan_step"],
        n_samples=config["obstruction.n_samples"],
        ensemble_count=config["obstruction.ensemble"],
        ensemble_amplitude=config["obstruction.amplitude"],
        ensemble_max_breakpoints=config["obstruction.breakpoints"],
        seed=config.seed,
        target_distance_floor=config["obstruction.distance_floor"],
        enforce_hypothesis=config["obstruction.enforce_hypothesis"],
    )
    # one engine, and its one fan, serves both stages; it checks the
    # hypothesis before it shoots the fan, and T_q stops at its horizon
    engine = obs_mod.AnsatzEngine(ocfg, max(ocfg.eps_grid))
    report = obs_mod.run_localization_experiment(engine)
    n_eps, m = report.delta.shape
    _write_csv(config, "records.csv", {
        "eps": np.repeat(report.eps_grid, m), "control_index": np.tile(np.arange(m), n_eps),
        "delta": report.delta.ravel(), "max_deviation": report.max_deviation.ravel(),
        "min_witness_distance": report.min_witness_distance.ravel(),
        "outside_probability": report.outside_probability.ravel()})
    _write_json(config, "report.json", {
        "eps_grid": list(report.eps_grid),
        "delta_by_eps": {repr(k): v for k, v in report.delta_by_eps.items()},
        "delta_spread_by_eps": {repr(k): v for k, v in report.delta_spread_by_eps.items()},
        "certified_bound": report.certified_bound,
        "duhamel_violations": report.duhamel_violations,
        "witness_violations": report.witness_violations,
        "initial_tail": report.initial_tail,
        "caustic_floor": report.caustic_floor,
        "hypothesis_uniform": report.hypothesis_uniform,
        "max_d1w": report.max_d1w,
        "n_records": report.delta.size,
    })
    tq = obs_mod.estimate_Tq_lower_bound(
        engine, threshold=1.0 - config["obstruction.distance_floor"])
    _write_summary(config, {
        "certified_bound": report.certified_bound,
        "tq_lower_bound": tq,
        "duhamel_violations": report.duhamel_violations,
        "witness_violations": report.witness_violations,
        "duhamel_margin_min": report.duhamel_margin_min,
        "witness_margin_min": report.witness_margin_min,
        "delta_spread_max": max(report.delta_spread_by_eps.values()),
        "ensemble_spread": report.ensemble_spread,
        "hypothesis_uniform": report.hypothesis_uniform,
        "initial_tail": report.initial_tail,
        "caustic_floor": report.caustic_floor,
    })


def _run_spectral(config: ExperimentConfig) -> None:
    a, b, c = config["spectral.a"], config["spectral.b"], config["spectral.c"]
    N = config["spectral.N"]
    B = spec_mod.gaussian_coupling(a, b, c, N)
    hat, f = spec_mod.cutoff_coupling(a, b, c, config["spectral.eps"], N)
    zero_tol = spec_mod.default_zero_tol(B)
    connected, connected_cutoff = [], []
    for k in range(2, N + 1):
        connected.append(int(spec_mod.minor_connectivity(B, k, zero_tol)[0]))
        connected_cutoff.append(int(spec_mod.minor_connectivity(hat, k, zero_tol)[0]))
    gaps = spec_mod.perturbed_spectrum(config["spectral.mu"], a, b, c, N,
                                       config["spectral.N_big"])
    relation = spec_mod.gap_rational_relation(gaps,
                                              config["spectral.coeff_bound"],
                                              config["spectral.precision"])
    floor = spec_mod.relation_floor(gaps, config["spectral.coeff_bound"])
    # the free rotation keeps the disc of radius r0 out of the control's
    # support {|x| > eps}, so it is invariant under every control, iff r0 <= eps
    eps, r0 = config["spectral.eps"], config["spectral.disc_r0"]
    _write_csv(config, "coupling.csv", {
        "i": np.repeat(np.arange(N), N), "j": np.tile(np.arange(N), N),
        "b_ij": B.entries.ravel(), "b_hat_ij": hat.entries.ravel(), "f_ij": f.ravel()})
    _write_csv(config, "gaps.csv", {
        "i": range(N), "eigenvalue": gaps.eigenvalues,
        "gap": gaps.gaps.tolist() + [""]})  # λ_{N-1} has no gap above it
    _write_csv(config, "connectivity.csv", {
        "k": range(2, N + 1), "connected": connected, "connected_cutoff": connected_cutoff})
    _write_summary(config, {
        "b00": float(B.entries[0, 0]),
        "b01": float(B.entries[0, 1]),
        "zero_tol": zero_tol,
        "relation_found": None if relation is None else [int(v) for v in relation],
        "relation_floor": floor,
        "informative": config["spectral.precision"] < floor,
        "relation_note": ("a found relation refutes rational independence at "
                          "this precision; none found is evidence only; a "
                          "relation with residual ≤ relation_floor always "
                          "exists, so the search is informative only if "
                          "precision < relation_floor"),
        "gap_convention_note": ("operator -d²/dx² + x² has unperturbed gaps 2; "
                                "the half-normalized oscillator would have gaps 1"),
        "disc_invariant": r0 <= eps,
        "disc_margin": eps - r0,
    })

"""Experiment orchestration: config → module calls → artifacts on disk.

Every runner is deterministic given (config, seed): all randomness flows from
one seeded generator, and every emitted file starts with a header comment
carrying the config hash and the seed.  Exit status: 0 success, 2 hypothesis
violations, 1 any other error (with an error record in summary.json).

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

import csv
import importlib.util
import io
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


def _header(config: ExperimentConfig) -> str:
    return f"config_hash={config.content_hash()} seed={config.seed}"


def _write(out_dir: str, name: str, text: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def _write_summary(config: ExperimentConfig, payload: dict) -> None:
    payload = dict(payload)
    payload["config_hash"] = config.content_hash()
    payload["seed"] = config.seed
    payload["experiment"] = config.kind
    _write(config.out, "summary.json", json.dumps(payload, sort_keys=True, indent=2))


def _csv_table(header_comment: str, columns: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write(f"# {header_comment}\n")
    w = csv.writer(buf)
    w.writerow(columns)
    for row in rows:
        w.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


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


def _leading(config: ExperimentConfig, key: str, count: int) -> np.ndarray:
    """The first count entries of a float-list key; ValidationError naming
    the key when it has fewer."""
    values = config[key]
    if len(values) < count:
        raise ValidationError(f"needs {count} entries, got {len(values)}", key=key)
    return np.asarray(values[:count])


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
    lam0 = PhasePoint(_leading(config, "steer.x0", dim),
                      _leading(config, "steer.p0", dim))
    k = config["steer.k"]
    rows = []
    for eps in config["steer.eps_sweep"]:
        if maneuver == "impulse":
            plan = steer_mod.impulse_steer(spec, lam0, k, eps)
            plan = steer_mod.execute_plan(spec, lam0, plan)
        elif maneuver == "burst":
            plan = steer_mod.geodesic_burst(spec, lam0, k, eps)
            plan = steer_mod.execute_plan(spec, lam0, plan)
        elif maneuver == "gradient-curve":
            plan = steer_mod.gradient_curve_steer(
                spec, lam0, _leading(config, "steer.target", dim),
                tol=config["steer.tol"], eps=eps)
        else:
            lam1 = PhasePoint(_leading(config, "steer.target", dim),
                              _leading(config, "steer.target_p", dim))
            plan = steer_mod.full_rank_steer(spec, lam0, lam1, eps)
        rows.append([eps,
                     " ".join(repr(float(v)) for v in plan.predicted_endpoint.x),
                     " ".join(repr(float(v)) for v in plan.realized_endpoint.x),
                     float(plan.achieved_error), float(plan.total_duration)])
    _write(config.out, "steer_sweep.csv", _csv_table(
        _header(config), ["eps", "predicted_x", "realized_x", "error", "duration"],
        rows))
    errs = np.array([r[3] for r in rows], dtype=float)
    eps_arr = np.array([r[0] for r in rows], dtype=float)
    ok = errs > 0
    slope = (float(np.polyfit(np.log(eps_arr[ok]), np.log(errs[ok]), 1)[0])
             if np.count_nonzero(ok) >= 2 else None)
    _write_summary(config, {
        "maneuver": maneuver,
        "final_error": float(errs[-1]),
        "loglog_slope": slope,
        "total_duration_last": rows[-1][4],
    })


def _exit_time_spec(config: ExperimentConfig) -> HamiltonianSpec:
    """Canned product family: flat (x) × (y), V = ½c·x² + cos y, W on N2.
    The run's Ω bounds x alone, which makes x the base N1.

    V's c_bound is the sup of |∂ₓV| = c|x| over Ω, c·max(|lo|, |hi|).
    """
    c = config["exit.force_bound"]
    lo, hi = _leading(config, "exit.omega", 2)
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
    lam0 = PhasePoint(_leading(config, "exit.x0", 2), _leading(config, "exit.p0", 2))
    lo, hi = _leading(config, "exit.omega", 2)
    omega = BoxRegion(((lo, hi), None))
    controls = sample_controls(config.seed, config["exit.ensemble"],
                               config["exit.horizon"], config["exit.amplitude"],
                               config["exit.breakpoints"])
    report = exit_mod.sampled_exit_time(spec, lam0, omega, controls,
                                        horizon=config["exit.horizon"],
                                        step=config["exit.step"])
    _write(config.out, "exit_times.csv", report.to_csv(_header(config)))
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
    stride = max(1, fan.times.size // 64)
    rows = [[float(t), float(np.min(np.abs(fan.J[k]))), float(np.max(np.abs(fan.J[k])))]
            for k, t in enumerate(fan.times) if k % stride == 0]
    _write(config.out, "fan.csv", fan.to_csv(_header(config)))
    _write(config.out, "field.csv", field.to_csv(_header(config)))
    _write(config.out, "jacobian_range.csv", _csv_table(
        _header(config), ["t", "min_abs_J", "max_abs_J"], rows))
    _write(config.out, "conjugate_times.csv", _csv_table(
        _header(config), ["seed", "first_conjugate_time"],
        [[float(s), float(tc)] for s, tc in zip(fan.seeds, conj)]))
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
    lo, hi = _leading(config, "obstruction.omega", 2)
    lop, hip = _leading(config, "obstruction.omega_prime", 2)
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
    _write(config.out, "records.csv", report.to_csv(_header(config)))
    _write(config.out, "report.json", report.to_json())
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
    conn_rows = []
    for k in range(2, N + 1):
        ok, parts = spec_mod.minor_connectivity(B, k, zero_tol)
        ok_hat, _ = spec_mod.minor_connectivity(hat, k, zero_tol)
        conn_rows.append([k, int(ok), int(ok_hat)])
    gaps = spec_mod.perturbed_spectrum(config["spectral.mu"], a, b, c, N,
                                       config["spectral.N_big"])
    relation = spec_mod.gap_rational_relation(gaps,
                                              config["spectral.coeff_bound"],
                                              config["spectral.precision"])
    floor = spec_mod.relation_floor(gaps, config["spectral.coeff_bound"])
    # the free rotation keeps the disc of radius r0 out of the control's
    # support {|x| > eps}, so it is invariant under every control, iff r0 <= eps
    eps, r0 = config["spectral.eps"], config["spectral.disc_r0"]
    _write(config.out, "coupling.csv", _csv_table(
        _header(config), ["i", "j", "b_ij", "b_hat_ij", "f_ij"],
        [[i, j, float(B.entries[i, j]), float(hat.entries[i, j]), float(f[i, j])]
         for i in range(N) for j in range(N)]))
    _write(config.out, "gaps.csv", _csv_table(
        _header(config), ["i", "eigenvalue", "gap"],
        [[i, float(gaps.eigenvalues[i]),
          float(gaps.gaps[i]) if i < len(gaps.gaps) else ""]
         for i in range(N)]))
    _write(config.out, "connectivity.csv", _csv_table(
        _header(config), ["k", "connected", "connected_cutoff"], conn_rows))
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

"""sclab benchmark: `sclab <kind>` workloads timed end to end, one run at a time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload exit-crossing --seed 0 --seconds 40 --trace 0

Each run launches `perfbench/child.py` in a fresh interpreter with a fresh
output directory, the workload's config and `seed = <seed>`, and checks the
run's `summary.json`.  Runs repeat while a typical run still ends within
`--seconds`; the end-to-end metrics are medians over the runs that passed
their check, so a failed run is never counted as a fast one.  With
`--trace 1` one more run goes under the tracer and the layer probes run; the
per-layer metrics come from those.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

`--shipped-sizes` drops the benchmark's size overrides, so the configs run at
the CLI's shipped defaults (about 35 s per exit-time run); use it to compare
traced counts with profiles of the default configs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / str(os.getpid())  # one per benchmark process
BUDGET_S = 170.0  # every run of the benchmark ends within this
EXIT_TIME_TOL = 1e-8  # sclab.exit_time.EXIT_TIME_TOL: event location tolerance

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("integrate.rk4_step.calls", "count"),
    ("integrate.rk4_step.member_steps", "count"),
    ("integrate.rk4_step.total_s", "s"),
    ("integrate.bisect_event.calls", "count"),
    ("integrate.bisect_event.probes", "count"),
    ("integrate.bisect_event.total_s", "s"),
    ("dynamics.ControlSignal.value_at.calls", "count"),
    ("dynamics.ControlSignal.window.calls", "count"),
    ("exit_time.sampled_exit_time.total_s", "s"),
    ("exit_time.sampled_exit_time.self_s", "s"),
    ("exit_time.exit_lower_bound.total_s", "s"),
    ("schrodinger.split_step_evolve.calls", "count"),
    ("schrodinger.split_step_evolve.total_s", "s"),
    ("schrodinger.split_step_evolve.self_s", "s"),
    ("schrodinger.fft.calls", "count"),
    ("schrodinger.top_mode_mass.calls", "count"),
    ("schrodinger.top_mode_mass.total_s", "s"),
    ("schrodinger.l2_distance.total_s", "s"),
    ("wkb.shoot_characteristics.calls", "count"),
    ("wkb.shoot_characteristics.total_s", "s"),
    ("wkb.wkb_field.calls", "count"),
    ("wkb.wkb_field.total_s", "s"),
    ("wkb.wkb_residual.total_s", "s"),
    ("obstruction.run_localization_experiment.total_s", "s"),
    ("obstruction.run_localization_experiment.self_s", "s"),
    ("obstruction.estimate_Tq_lower_bound.total_s", "s"),
    ("io.to_csv.total_s", "s"),
    ("io.output_bytes", "B"),
    ("setup.import_s", "s"),
    ("config.parse_config.total_s", "s"),
    ("trace.overhead_s", "s"),
    ("probe.rk4_step.single_us", "us"),
    ("probe.rk4_step.batch1000_us_per_member", "us"),
    ("probe.controlled_rhs_us", "us"),
    ("probe.split_step.step_us_n512", "us"),
    ("probe.gaussian_coupling.N48_ms", "ms"),
    ("probe.cutoff_coupling.N12_ms", "ms"),
)


# ---------------------------------------------------------------------------
# Workloads and their output checks


def _check_exit_crossing(s: dict) -> list[str]:
    err = abs(s["sampled_min_exit"] - math.asin(2.0 / 3.0))
    return [f"|sampled_min_exit - asin(2/3)| = {err:.3e} > {EXIT_TIME_TOL}"] \
        if not err <= EXIT_TIME_TOL else []


def _check_exit_ensemble(s: dict) -> list[str]:
    problems = []
    if s["sampled_min_exit"] != s["horizon"]:
        problems.append(f"sampled_min_exit {s['sampled_min_exit']!r} != horizon")
    if not abs(s["analytic_bound"] - math.sqrt(2.0)) <= 1e-3:
        problems.append(f"analytic_bound {s['analytic_bound']!r} is not sqrt(2)")
    return problems


def _check_obstruction(s: dict) -> list[str]:
    problems = [f"{key} = {s[key]}" for key in ("duhamel_violations", "witness_violations")
                if s[key] != 0]
    if s["hypothesis_uniform"] is not True:
        problems.append("hypothesis_uniform is not true")
    return problems


def _check_bound_respected(s: dict) -> list[str]:
    return [] if s["bound_respected"] is True else ["bound_respected is not true"]


@dataclass(frozen=True)
class Workload:
    kind: str
    keys: dict  # config lines beyond seed and out
    size: dict  # size overrides, dropped by --shipped-sizes
    checks: tuple[Callable[[dict], list[str]], ...]
    # seed-0 summary.json values recorded at the benchmark's first commit,
    # key -> (value, absolute tolerance)
    reference: dict


EXIT_REFERENCE = {"horizon": (3.0, 0.0), "seed": (0, 0)}

WORKLOADS = {
    # No member leaves Ω (the base stays at x = 0): the whole run is the
    # batched sweep, dominated by rebuilding the control table at every cut.
    "exit-ensemble": Workload(
        kind="exit-time", keys={}, size={"exit.ensemble": 300},
        checks=(_check_exit_ensemble, _check_bound_respected),
        reference={**EXIT_REFERENCE,
                   "analytic_bound": (1.414213565826416, EXIT_TIME_TOL),
                   "sampled_min_exit": (3.0, EXIT_TIME_TOL),
                   "ensemble_size": (300, 0)}),
    # Every member follows x = 1.5 sin t and exits at asin(2/3) in the same
    # step: the run is dominated by bisection event location.
    "exit-crossing": Workload(
        kind="exit-time", keys={"exit.p0": "1.5,0.0"}, size={"exit.ensemble": 100},
        checks=(_check_exit_crossing, _check_bound_respected),
        reference={**EXIT_REFERENCE,
                   "analytic_bound": (0.5615528144836428, EXIT_TIME_TOL),
                   "sampled_min_exit": (0.7297276548324281, EXIT_TIME_TOL),
                   "ensemble_size": (100, 0)}),
    # The quantum workload: many short split-step evolutions, resolution
    # checks and two WKB fans.
    "obstruction": Workload(
        kind="obstruction",
        keys={"obstruction.w.name": "linear", "obstruction.w.slope": "0.0",
              "obstruction.w.offset": "1.0"},
        size={"obstruction.ensemble": 40},
        checks=(_check_obstruction,),
        reference={"caustic_floor": (0.08, 1e-12),
                   "certified_bound": (0.04, 1e-12),
                   "delta_spread_max": (0.0, 1e-12),
                   "duhamel_violations": (0, 0),
                   "witness_violations": (0, 0),
                   "initial_tail": (-4.440892098500626e-16, 1e-12),
                   "tq_lower_bound": (0.055515979827057985, 1e-8),
                   "seed": (0, 0)}),
}


def config_text(wl: Workload, seed: int, out: Path, shipped_sizes: bool) -> str:
    keys = dict(wl.keys) if shipped_sizes else {**wl.keys, **wl.size}
    lines = [f"experiment = {wl.kind}", f"seed = {seed}", f"out = {out}"]
    lines += [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def check_summary(wl: Workload, summary: dict, use_reference: bool) -> list[str]:
    if "error" in summary:
        return [f"{summary.get('error_kind')}: {summary['error']}"]
    problems = [p for check in wl.checks for p in check(summary)]
    if use_reference:
        for key, (want, tol) in wl.reference.items():
            got = summary.get(key)
            if not (isinstance(got, (int, float)) and abs(got - want) <= tol):
                problems.append(f"{key} = {got!r}, reference {want!r} ± {tol}")
    return problems


# ---------------------------------------------------------------------------
# Running one child


@dataclass
class Run:
    ok: bool
    wall_s: float = math.nan
    setup_s: float = math.nan
    peak_rss_mb: float = math.nan
    output_bytes: int = 0
    problems: list = field(default_factory=list)


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(argv: list[str], timeout: float, stdout, stderr):
    """Run argv to completion; returns (exit code, launch time, seconds, rusage).

    os.wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would be the
    maximum over every child so far.  A child over its timeout is killed.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = _clock()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=stdout, stderr=stderr)
    killer = threading.Timer(max(timeout, 0.1), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t0, _clock() - t0, usage


def run_workload(name: str, wl: Workload, seed: int, index: int, timeout: float,
                 shipped_sizes: bool, trace_path: Path | None = None) -> Run:
    tag = f"{name}-{index}"
    out, cfg, stamp, log = (WORK / tag, WORK / f"{tag}.cfg", WORK / f"{tag}.stamp",
                            WORK / f"{tag}.log")
    cfg.write_text(config_text(wl, seed, out, shipped_sizes))
    argv = [sys.executable, str(HERE / "child.py"), wl.kind, str(cfg), str(stamp)]
    if trace_path is not None:
        argv.append(str(trace_path))
    try:
        with open(log, "w") as err:
            code, t0, wall, usage = spawn(argv, timeout, subprocess.DEVNULL, err)
        if code != 0:
            tail = log.read_text().strip().splitlines()[-1:] or ["no output"]
            return Run(ok=False, problems=[f"exit code {code}: {tail[0]}"])
        try:
            summary = json.loads((out / "summary.json").read_text())
            problems = check_summary(wl, summary,
                                     use_reference=seed == 0 and not shipped_sizes)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return Run(ok=False, problems=[f"summary.json unreadable: {exc!r}"])
        return Run(ok=not problems, wall_s=wall,
                   setup_s=float(stamp.read_text()) - t0,
                   peak_rss_mb=usage.ru_maxrss / 1024.0,
                   output_bytes=sum(p.stat().st_size for p in out.iterdir()),
                   problems=problems)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        for path in (cfg, stamp, log):
            path.unlink(missing_ok=True)


def run_probes(timeout: float) -> dict | None:
    """The layer probes in their own interpreter; None if they fail."""
    raw = WORK / "probes.json"
    with open(raw, "w") as fh:
        code, _, _, _ = spawn([sys.executable, str(HERE / "probes.py")], timeout,
                              fh, subprocess.DEVNULL)
    return json.loads(raw.read_text()) if code == 0 else None


def traced_layers(name: str, wl: Workload, args, runs: list[Run], timeout) -> dict:
    """One run under the tracer plus the probes; appends the run to `runs`."""
    trace_path = WORK / "trace.json"
    traced = run_workload(name, wl, args.seed, len(runs), timeout(),
                          args.shipped_sizes, trace_path)
    untraced = [r.wall_s for r in runs if r.ok]
    runs.append(traced)
    if not traced.ok:
        return {}
    probes = run_probes(timeout())
    if probes is None:
        traced.ok = False
        traced.problems.append("layer probes failed")
        return {}
    layers = json.loads(trace_path.read_text())
    layers["io.output_bytes"] = traced.output_bytes
    layers["trace.overhead_s"] = traced.wall_s - statistics.median(untraced) \
        if untraced else 0.0
    layers.update(probes)
    return layers


# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)  # unwinds through spawn, which kills the child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shipped-sizes", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not 0 < args.seconds <= BUDGET_S - 50:
        parser.error(f"--seconds must lie in (0, {BUDGET_S - 50:g}]")
    if not (ROOT / "src" / "sclab" / "cli.py").is_file():
        print(f"error: no sclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = _clock()

    def left() -> float:
        return BUDGET_S - (_clock() - start)

    wl = WORKLOADS[args.workload]
    WORK.mkdir(parents=True)
    try:
        # compile and page in sclab, numpy and scipy before anything is timed
        code, _, _, _ = spawn([sys.executable, "-c", "import sclab.cli"], left(),
                              subprocess.DEVNULL, None)
        if code != 0:
            print("error: cannot import sclab from the checkout", file=sys.stderr)
            return 2
        runs: list[Run] = []
        took: list[float] = []
        # start a run only if a typical run still ends inside --seconds
        while not runs or _clock() - start + statistics.median(took) <= args.seconds:
            t0 = _clock()
            runs.append(run_workload(args.workload, wl, args.seed, len(runs), left(),
                                     args.shipped_sizes))
            took.append(_clock() - t0)
        layers = (traced_layers(args.workload, wl, args, runs, left)
                  if args.trace else {})
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:  # another benchmark process still uses it
            pass
    return report(args, runs, layers)


def report(args, runs: list[Run], layers: dict) -> int:
    good = [r for r in runs[: len(runs) - args.trace] if r.ok]
    failed = sum(not r.ok for r in runs)
    for i, r in enumerate(runs):
        for problem in r.problems:
            print(f"run {i} failed: {problem}")
    print(f"{args.workload}: seed {args.seed}, {len(runs)} runs, {len(good)} timed")
    print(f"  fail_fraction = {failed / len(runs):.4g} ratio ({failed} of {len(runs)} "
          f"attempted runs failed)")
    metrics = {}
    if good:
        for name, unit in END_TO_END:
            q1, med, q3 = quartiles([getattr(r, name) for r in good])
            print(f"  {name} = {med:.6g} {unit} (median of {len(good)}; "
                  f"quartiles {q1:.6g} .. {q3:.6g})")
            metrics[name] = {"value": med, "unit": unit}
    if args.trace:
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER} if layers else {}
        for name, m in metrics.items():
            value = m["value"]
            print(f"  {name} = {value if isinstance(value, int) else f'{value:.6g}'} "
                  f"{m['unit']}")
    correct = failed == 0 and bool(good) and (not args.trace or bool(layers))
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Checks of the benchmark's tracer against cProfile, and of BENCHMARK.json.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import sclab.dynamics
import sclab.exit_time
import sclab.harness
import sclab.integrate
from sclab.config import parse_config

import run
from tracer import Tracer

SMALL_EXIT = """\
experiment = exit-time
seed = 0
exit.ensemble = 20
exit.horizon = 2.0
exit.p0 = 1.5,0.0
"""


def _profile_calls(profile: cProfile.Profile, filename: str, funcname: str) -> int:
    """Calls of every function named funcname defined in filename."""
    return sum(nc for (fname, _, name), (_, nc, *_rest) in
               pstats.Stats(profile).stats.items()
               if fname.endswith(filename) and name == funcname)


@pytest.fixture(scope="module")
def traced_small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exit")
    config = parse_config(SMALL_EXIT + f"out = {out}\n")
    tracer = Tracer()
    profile = cProfile.Profile()
    with tracer:
        profile.enable()
        status = sclab.harness.run_experiment(config)
        profile.disable()
    assert status == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["sampled_min_exit"] - np.arcsin(2.0 / 3.0)) <= 1e-8
    return tracer.totals(), profile


@pytest.mark.parametrize("metric, filename, funcname", [
    ("integrate.rk4_step.calls", "integrate.py", "rk4_step"),
    ("integrate.bisect_event.calls", "integrate.py", "bisect_event"),
    ("integrate.bisect_event.probes", "exit_time.py", "gap_at"),
    ("exit_time.sampled_exit_time.calls", "exit_time.py", "sampled_exit_time"),
    ("exit_time.exit_lower_bound.calls", "exit_time.py", "exit_lower_bound"),
    ("dynamics.ControlSignal.value_at.calls", "dynamics.py", "value_at"),
])
def test_counts_match_cprofile(traced_small_run, metric, filename, funcname):
    totals, profile = traced_small_run
    expected = _profile_calls(profile, filename, funcname)
    assert expected > 0
    assert totals[metric] == expected


def test_self_time_within_total(traced_small_run):
    totals, _ = traced_small_run
    spans = [k[: -len(".total_s")] for k in totals if k.endswith(".total_s")]
    assert "exit_time.sampled_exit_time" in spans
    for span in spans:
        assert 0.0 <= totals[f"{span}.self_s"] <= totals[f"{span}.total_s"]
    # the sweep's own time excludes the rk4_step and bisect_event spans in it
    assert (totals["exit_time.sampled_exit_time.self_s"]
            < totals["exit_time.sampled_exit_time.total_s"]
            - totals["integrate.bisect_event.total_s"])


def test_member_steps_count_batch_rows(traced_small_run):
    totals, _ = traced_small_run
    # the sweep steps 20 members at once, the bisections one member at a time
    assert totals["integrate.rk4_step.member_steps"] > totals["integrate.rk4_step.calls"]


def test_every_binding_restored():
    originals = {
        "exit_time.rk4_step": sclab.exit_time.rk4_step,
        "exit_time.bisect_event": sclab.exit_time.bisect_event,
        "dynamics.rk4_step": sclab.dynamics.rk4_step,
        "integrate.rk4_step": sclab.integrate.rk4_step,
        "fftn": np.fft.fftn,
    }
    value_at = vars(sclab.dynamics.ControlSignal)["value_at"]
    with Tracer():
        assert sclab.exit_time.rk4_step is not originals["exit_time.rk4_step"]
        assert sclab.dynamics.rk4_step is sclab.integrate.rk4_step
        assert np.fft.fftn is not originals["fftn"]
    assert sclab.exit_time.rk4_step is originals["exit_time.rk4_step"]
    assert sclab.exit_time.bisect_event is originals["exit_time.bisect_event"]
    assert sclab.dynamics.rk4_step is originals["dynamics.rk4_step"]
    assert sclab.integrate.rk4_step is originals["integrate.rk4_step"]
    assert np.fft.fftn is originals["fftn"]
    assert vars(sclab.dynamics.ControlSignal)["value_at"] is value_at


def test_span_closed_on_exception():
    tracer = Tracer()
    with tracer:
        with pytest.raises(ValueError):
            sclab.integrate.bisect_event(lambda t: 1.0, 0.0, 1.0)
        assert tracer._open == []
    totals = tracer.totals()
    assert totals["integrate.bisect_event.calls"] == 1
    assert totals["integrate.bisect_event.probes"] == 2


def test_benchmark_json_matches_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)

"""Shared test settings.

Property tests run under one hypothesis profile: no deadline, because the
wall time of one example varies with host load, and derandomized, so every
run draws the same examples.  Explicit per-test @settings still apply on top.
The `bench` fixture is perfbench/run.py as a module, for the tests that run
the benchmark's workloads.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import settings

BENCH_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

settings.register_profile("sclab", deadline=None, derandomize=True)
settings.load_profile("sclab")


@pytest.fixture
def bench(monkeypatch):
    """perfbench/run.py: its WORKLOADS, config_text and check_summary."""
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module

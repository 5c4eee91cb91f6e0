"""Layer probes: isolated calls into public sclab functions, timed in-process.

Usage: python3 perfbench/probes.py   (prints one JSON object of timings)

They cover layers that no CLI workload of the benchmark reaches: the
spectral couplings and steering's rhs, plus the RK4 step and the split-step
step on their own.  Each figure is the median over repeats of a timed loop.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

from sclab.dynamics import ControlSignal, HamiltonianSpec, controlled_rhs
from sclab.geometry import ChartSpace, make_potential
from sclab.integrate import rk4_step
from sclab.schrodinger import SpatialGrid, gaussian_packet, split_step_evolve
from sclab.spectral import cutoff_coupling, gaussian_coupling

REPEATS = 5


def per_call_s(fn, calls: int) -> float:
    """Median over REPEATS of the mean time of `calls` back-to-back calls."""
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def trivial_rhs(_t, z):
    return -z


def main() -> dict:
    single = np.array([0.3, -0.2])
    batch = np.tile(single, (1000, 1))
    spec = HamiltonianSpec(space=ChartSpace(dimension=1),
                           V=make_potential("harmonic", 1),
                           W=make_potential("linear", 1))
    rhs = controlled_rhs(spec, 1.0)
    grid = SpatialGrid(((-np.pi, 2 * np.pi, 512),))
    psi = gaussian_packet(grid, 0.0, 0.3)
    w_field = make_potential("linear", 1, slope=0.0, offset=1.0)
    n_steps = 200
    u = ControlSignal.constant(1.0, n_steps * 1e-4)
    return {
        "probe.rk4_step.single_us":
            1e6 * per_call_s(lambda: rk4_step(trivial_rhs, 0.0, single, 1e-3), 2000),
        "probe.rk4_step.batch1000_us_per_member":
            1e6 * per_call_s(lambda: rk4_step(trivial_rhs, 0.0, batch, 1e-3), 500) / 1000,
        "probe.controlled_rhs_us":
            1e6 * per_call_s(lambda: rhs(0.0, single), 2000),
        "probe.split_step.step_us_n512":
            1e6 * per_call_s(lambda: split_step_evolve(psi, None, w_field, u, u.duration,
                                                       dt=1e-4), 5) / n_steps,
        "probe.gaussian_coupling.N48_ms":
            1e3 * per_call_s(lambda: gaussian_coupling(-1.0, 1.0, 0.0, 48), 5),
        "probe.cutoff_coupling.N12_ms":
            1e3 * per_call_s(lambda: cutoff_coupling(-1.0, 1.0, 0.0, 0.5, 12), 1),
    }


if __name__ == "__main__":
    print(json.dumps(main()))

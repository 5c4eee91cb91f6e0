"""One benchmark run: `sclab <kind> --config <config>` in a fresh interpreter.

Usage: python3 perfbench/child.py <kind> <config> <stamp> [<trace.json>]

Writes the CLOCK_MONOTONIC time at entry to `run_experiment` into <stamp>,
so the parent can take set-up time against its own launch stamp (the clock
is shared between processes on Linux).  With <trace.json>, the layers run
under a `Tracer` and its totals are written there.  Exits with the CLI's
status.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    kind, config, stamp = argv[:3]
    trace_path = argv[3] if len(argv) > 3 else None
    t0 = time.perf_counter()
    import sclab.cli as cli  # pulls in numpy, scipy and every sclab module
    import_s = time.perf_counter() - t0

    run_experiment = cli.run_experiment

    def stamped(cfg):
        with open(stamp, "w") as fh:
            fh.write(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return run_experiment(cfg)

    cli.run_experiment = stamped
    cli_argv = [kind, "--config", config]
    if trace_path is None:
        return cli.main(cli_argv)
    from tracer import Tracer
    tracer = Tracer()
    with tracer:
        status = cli.main(cli_argv)
    totals = tracer.totals()
    totals["setup.import_s"] = import_s
    with open(trace_path, "w") as fh:
        json.dump(totals, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

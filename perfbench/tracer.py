"""Per-layer spans and counts for sclab, taken by wrapping public functions.

Nothing in `sclab` is edited.  `Tracer.install()` replaces each traced
function at every binding that refers to it in an imported `sclab.*`
module, because `from .integrate import rk4_step` copies the name into the
importing module and patching only the defining module would miss those
calls.  Methods are replaced on their class.  `Tracer.uninstall()` puts
every original back.

A span records calls, total time and self time (total minus the time
covered by spans opened inside it).  Functions too hot for a span are only
counted.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute, span name); "Class.method" names a method
SPANS = (
    ("sclab.integrate", "rk4_step", "integrate.rk4_step"),
    ("sclab.integrate", "bisect_event", "integrate.bisect_event"),
    ("sclab.exit_time", "sampled_exit_time", "exit_time.sampled_exit_time"),
    ("sclab.exit_time", "exit_lower_bound", "exit_time.exit_lower_bound"),
    ("sclab.schrodinger", "split_step_evolve", "schrodinger.split_step_evolve"),
    ("sclab.schrodinger", "top_mode_mass", "schrodinger.top_mode_mass"),
    ("sclab.schrodinger", "l2_distance", "schrodinger.l2_distance"),
    ("sclab.wkb", "shoot_characteristics", "wkb.shoot_characteristics"),
    ("sclab.wkb", "wkb_field", "wkb.wkb_field"),
    ("sclab.wkb", "wkb_residual", "wkb.wkb_residual"),
    ("sclab.obstruction", "run_localization_experiment",
     "obstruction.run_localization_experiment"),
    ("sclab.obstruction", "estimate_Tq_lower_bound",
     "obstruction.estimate_Tq_lower_bound"),
    ("sclab.config", "parse_config", "config.parse_config"),
)

# (module, attribute, counter name); several functions may share a counter
COUNTS = (
    ("sclab.dynamics", "ControlSignal.value_at", "dynamics.ControlSignal.value_at.calls"),
    ("sclab.dynamics", "ControlSignal.window", "dynamics.ControlSignal.window.calls"),
    ("numpy.fft", "fftn", "schrodinger.fft.calls"),
    ("numpy.fft", "ifftn", "schrodinger.fft.calls"),
)

IO_SPAN = "io.to_csv"
IO_METHODS = ("to_csv", "to_json")


class Tracer:
    """Wraps the layers of an imported `sclab`; collects spans and counts."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self.counts: Counter = Counter()
        self._open: list[float] = []  # child time covered inside each open span
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, on_call=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = open_spans.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += child
                if open_spans:
                    open_spans[-1] += elapsed

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_members(self, args, kwargs):
        """rk4_step(rhs, t, z, h): add the batch rows of z."""
        z = args[2] if len(args) > 2 else kwargs["z"]
        self.counts["integrate.rk4_step.member_steps"] += (
            z.shape[0] if getattr(z, "ndim", 1) == 2 else 1)
        return args, kwargs

    def _count_probes(self, args, kwargs):
        """bisect_event(f, lo, hi, ...): count every call of f."""
        f = args[0] if args else kwargs.pop("f")
        counts = self.counts

        def probe(t):
            counts["integrate.bisect_event.probes"] += 1
            return f(t)

        return (probe,) + tuple(args[1:]), kwargs

    # -- binding ----------------------------------------------------------

    def _replace(self, module_name, attr, make):
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            self._set(cls, meth, make(vars(cls)[meth]))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        scope = [m for n, m in list(sys.modules.items())
                 if m is not None and (n == "sclab" or n.startswith("sclab."))]
        if owner not in scope:
            scope.append(owner)
        for module in scope:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)

    def _set(self, owner, name, value):
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every traced function; `sclab` modules must be imported."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        hooks = {"integrate.rk4_step": self._count_members,
                 "integrate.bisect_event": self._count_probes}
        try:
            for module_name, attr, name in SPANS:
                self._replace(module_name, attr,
                              lambda fn, n=name: self._span(n, fn, hooks.get(n)))
            for module_name, attr, name in COUNTS:
                self._replace(module_name, attr,
                              lambda fn, n=name: self._counter(n, fn))
            for cls in _io_classes():
                for meth in IO_METHODS:
                    if meth in vars(cls):
                        self._set(cls, meth, self._span(IO_SPAN, vars(cls)[meth]))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put back every original binding, newest first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """Flat {metric name: number} of every span and counter."""
        out: dict = {}
        for name, (calls, total, child) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = total - child
        out.update(self.counts)
        return out


def _io_classes() -> list[type]:
    """Classes defined in imported sclab modules that own to_csv/to_json."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("sclab."):
            continue
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == name
                    and any(m in value.__dict__ for m in IO_METHODS)):
                found.append(value)
    return found

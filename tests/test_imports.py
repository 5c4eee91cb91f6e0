"""Every name a `sclab` module or a test module imports is used in it, every
module-level function and class is used somewhere in `sclab`, every `ObstructionConfig`
field is set by the CLI and every `PotentialField` field by some call in
`sclab`, or has a stated reason not to be, every defaulted parameter of a
`sclab` function is passed by some call in `sclab`, or has a stated reason not
to be, only `dynamics` reads a control law's breakpoints, only `harness` and `cli`
import csv, io or json or call open, nothing in `sclab` imports scipy, which is a test-only
reference, `import sclab.cli` loads no OpenSSL, the config hash of a fixed
text is pinned, and no benchmark run loads numpy.ma.

Each module is parsed with `ast`.  An imported name that no `Name` node in the
module refers to is reported, unless its import statement carries
`# noqa: F401` (an import kept for a reason the code itself cannot show).  A
module-level function or class that no `Name`, `Attribute` or import alias in
any `sclab` module refers to, or a method of a module-level class other than a
dunder that no `Attribute` refers to, outside its own definition, is reported
unless `UNREFERENCED_ALLOWED` gives the reason it stays.  A method is reached
only as `x.name`, so a local variable of the same name does not keep it.
References are matched by name alone, so a method that shares its name with
an attribute used elsewhere passes unseen.
"""

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sclab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))

# definitions nothing in sclab calls, each with the reason it is kept
UNREFERENCED_ALLOWED = {
    "dynamics.py:ControlSignal.window": "perfbench/tracer.py counts its calls",
    "schrodinger.py:gaussian_packet": "perfbench/probes.py builds its states with it",
    "schrodinger.py:l2_distance": "perfbench/tracer.py times it",
    "schrodinger.py:top_mode_mass": "perfbench/tracer.py times it",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_unused_and_noqa():
    source = ("import os\nimport sys  # noqa: F401\n"
              "from typing import (Callable,\n    Optional)  # noqa: F401\n"
              "from math import pi, tau\nprint(pi)\n")
    assert unused_imports(source) == ["os (line 1)", "tau (line 5)"]


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """"module:name" of each module-level function or class that no Name,
    Attribute or import alias in `sources` refers to outside its own body,
    and "module:Class.method" of each non-dunder method of one that no
    Attribute refers to there.  `__init__.py` sources are skipped, so a
    re-export alone keeps nothing.

    References are matched by bare name, not by the receiver's type: a
    method stays unflagged while any attribute of the same name is read,
    whatever object it is read on.  A dead `CutoffFunction.chi` once went
    unflagged because `CutoffTable.chi` was read."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()
             if Path(mod).name != "__init__.py"}
    refs = []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((mod, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                refs.append((mod, node.lineno, node.attr, True))
            elif isinstance(node, ast.alias):
                refs.append((mod, node.lineno, node.name, False))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    dead = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, functions + (ast.ClassDef,)):
                continue
            defs = [(node, node.name, False)]
            if isinstance(node, ast.ClassDef):
                defs += [(meth, f"{node.name}.{meth.name}", True) for meth in node.body
                         if isinstance(meth, functions) and not meth.name.startswith("__")]
            for d, label, method in defs:
                if not any(name == d.name and (attr or not method)
                           and not (where == mod and d.lineno <= line <= d.end_lineno)
                           for where, line, name, attr in refs):
                    dead.append(f"{mod}:{label}")
    return sorted(dead)


def test_no_unreferenced_definitions():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_definitions(sources) == sorted(UNREFERENCED_ALLOWED)


def test_checker_sees_unreferenced_definitions():
    sources = {
        "a.py": ("def used():\n    pass\n\n"
                 "def by_attribute():\n    pass\n\n"
                 "def recursive(n):\n    return recursive(n - 1)\n\n"
                 "class Dead:\n    pass\n"),
        "b.py": ("from . import a\nfrom .a import used\n\n"
                 "def caller():\n    return used(), a.by_attribute()\n"),
    }
    assert unreferenced_definitions(sources) == [
        "a.py:Dead", "a.py:recursive", "b.py:caller"]


def test_checker_ignores_package_reexports():
    sources = {
        "__init__.py": ("from .a import exported, used\n"
                        "__all__ = ['exported', 'used']\n"),
        "a.py": "def exported():\n    pass\n\ndef used():\n    pass\n",
        "b.py": "from .a import used\n",
    }
    assert unreferenced_definitions(sources) == ["a.py:exported"]


def test_checker_sees_unreferenced_methods():
    sources = {
        "a.py": ("class Box:\n"
                 "    def __init__(self):\n        self.used()\n\n"
                 "    def used(self):\n        pass\n\n"
                 "    @property\n    def size(self):\n        return 1\n\n"
                 "    def dead(self):\n        return self.dead()\n\n"
                 "print(Box().size)\n"),
    }
    assert unreferenced_definitions(sources) == ["a.py:Box.dead"]


def test_checker_sees_a_method_behind_a_local_of_its_name():
    # only x.inner reaches a method; the local `inner` of another function
    # is a different thing and keeps nothing alive
    sources = {
        "a.py": ("class Box:\n"
                 "    def inner(self):\n        return 1\n\n"
                 "def caller(xs):\n"
                 "    inner = [x for x in xs]\n    return inner\n"),
        "b.py": "from .a import Box, caller\nprint(caller([Box()]))\n",
    }
    assert unreferenced_definitions(sources) == ["a.py:Box.inner"]


# defaulted parameters no call in sclab passes, each with the reason it stays
# a parameter rather than a module constant
UNSET_DEFAULTS_ALLOWED = {
    "cli.py:main(argv)": "the tests and perfbench/child.py pass it; the sclab script "
                         "reads sys.argv",
    "exit_time.py:sampled_exit_time(analytic_bound)": "the tests skip the closed-form "
                                                      "bound with it",
    "schrodinger.py:gaussian_packet(momentum)": "the split-step tests' moving packet",
    "schrodinger.py:split_step_evolve(check_input)": "the tests march windows after the "
                                                     "first without the input check",
}


def passes(call: ast.Call, param: str, position) -> bool:
    """Whether call passes param, by keyword or, when position is not None,
    as its positional argument number position."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return position is not None and (len(call.args) > position or any(
        isinstance(arg, ast.Starred) for arg in call.args))


def unset_defaults(sources: dict[str, str]) -> list[str]:
    """"module:function(param)" of each defaulted parameter of a module-level
    function, or "module:Class.method(param)" of a method of a module-level
    class, that no call in `sources` passes, by keyword or by position.  A
    call to a class counts for its `__init__`, and a method's positions
    start after self or cls (not for a staticmethod).  A call with *args or
    **kwargs counts as passing every positional or keyword parameter.

    Calls are matched by the callee's bare name (`f(...)` or `x.f(...)`),
    as `unreferenced_definitions` matches references: a parameter stays
    unflagged while any callable of the same name is called with it."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unset = []
    for mod, tree in trees.items():
        defs = []  # (definition, label, the name calls use, leading positions bound)
        for node in tree.body:
            if isinstance(node, functions):
                defs.append((node, node.name, node.name, 0))
            elif isinstance(node, ast.ClassDef):
                for meth in node.body:
                    if isinstance(meth, functions):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in meth.decorator_list)
                        defs.append((meth, f"{node.name}.{meth.name}",
                                     node.name if meth.name == "__init__" else meth.name,
                                     0 if static else 1))
        for d, label, name, bound in defs:
            args = d.args
            positional = args.posonlyargs + args.args
            defaulted = [(p.arg, i - bound) for i, p in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(p.arg, None) for p, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            for param, position in defaulted:
                if not any(passes(call, param, position) for call in calls.get(name, ())):
                    unset.append(f"{mod}:{label}({param})")
    return sorted(unset)


def test_every_default_is_set_by_some_call():
    sources = {p.name: p.read_text() for p in MODULES}
    assert unset_defaults(sources) == sorted(UNSET_DEFAULTS_ALLOWED)


def test_checker_sees_unset_defaults():
    sources = {
        "a.py": ("def f(x, by_position=1, by_keyword=2, unset=3, *, only=4):\n"
                 "    return x\n\n"
                 "def splat(x=1, y=2):\n    return x\n\n"
                 "class Box:\n"
                 "    def __init__(self, size=1, colour=None):\n        self.size = size\n\n"
                 "    def grow(self, by=1, times=1):\n        return self\n\n"
                 "    @staticmethod\n    def make(n=1):\n        return n\n"),
        "b.py": ("from .a import Box, f, splat\n\n"
                 "f(0, 1, by_keyword=5)\nsplat(*[1])\n"
                 "Box(2).grow(3).make(4)\n"),
    }
    assert unset_defaults(sources) == [
        "a.py:Box.__init__(colour)", "a.py:Box.grow(times)", "a.py:f(only)", "a.py:f(unset)"]


def attribute_readers(sources: dict[str, str], attr: str) -> list[str]:
    """The modules of `sources` that refer to some object's attribute `attr`."""
    return sorted(mod for mod, text in sources.items()
                  if any(isinstance(node, ast.Attribute) and node.attr == attr
                         for node in ast.walk(ast.parse(text))))


def test_checker_sees_attribute_readers():
    sources = {
        "a.py": "def f(u):\n    return u.breakpoints[1:]\n",
        "b.py": "breakpoints = cfg['exit.breakpoints']\nmax_breakpoints = 8\n",
        "c.py": "n = len(laws[0].breakpoints)\n",
    }
    assert attribute_readers(sources, "breakpoints") == ["a.py", "c.py"]


def test_breakpoints_read_only_in_dynamics():
    # ControlSignal._segment is the one lookup and control_pieces the one
    # cutter; every other module reads a law through them
    sources = {p.name: p.read_text() for p in MODULES}
    assert attribute_readers(sources, "breakpoints") == ["dynamics.py"]


# ObstructionConfig fields that harness._run_obstruction does not pass, each
# with the reason; any other field is a knob no CLI run can reach
OBSTRUCTION_FIELDS_UNSET = {
    "hbar": "the CLI runs at ħ = 1 until one engine serves every ħ",
    "dt": "the tests' finer split-step step",
}


def keywords_passed(source: str, function: str, callee: str) -> set[str]:
    """Keyword names of every call to `callee` (`callee(...)` or
    `x.callee(...)`) inside the module-level `function` of source."""
    tree = ast.parse(source)
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return {kw.arg for node in ast.walk(body) if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == callee
                 or isinstance(node.func, ast.Attribute) and node.func.attr == callee)
            for kw in node.keywords}


def test_checker_sees_passed_keywords():
    source = ("def run():\n    Cfg(a=1, b=g(c=2))\n    Cfg(d=3)\n    mod.Cfg(f=5)\n\n"
              "def other():\n    Cfg(e=4)\n")
    assert keywords_passed(source, "run", "Cfg") == {"a", "b", "d", "f"}


def test_harness_passes_every_obstruction_field():
    from sclab.obstruction import ObstructionConfig
    passed = keywords_passed((SRC / "harness.py").read_text(), "_run_obstruction",
                             "ObstructionConfig")
    unset = {f.name for f in dataclasses.fields(ObstructionConfig)} - passed
    assert sorted(unset) == sorted(OBSTRUCTION_FIELDS_UNSET)


# PotentialField fields that no PotentialField(...) call in sclab passes,
# each with the reason; any other field is a knob no run can set
POTENTIAL_FIELDS_UNSET: dict[str, str] = {}


def fields_passed(source: str, callee: str, fields: tuple[str, ...]) -> set[str]:
    """Names of the `fields` (in constructor order) that some call to
    `callee` in source passes, positionally or by keyword."""
    passed = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == callee):
            passed.update(fields[:len(node.args)])
            passed.update(kw.arg for kw in node.keywords if kw.arg is not None)
    return passed


def test_checker_sees_positional_and_keyword_fields():
    source = ("def f(v, g):\n    return Field(v, g, name='x')\n\n"
              "Field(1, hessian=2)\nOther(1, 2, 3, bound=4)\n")
    fields = ("value", "gradient", "bound", "name", "hessian")
    assert fields_passed(source, "Field", fields) == {"value", "gradient", "name", "hessian"}


def test_sclab_passes_every_potential_field():
    from sclab.geometry import PotentialField
    fields = tuple(f.name for f in dataclasses.fields(PotentialField))
    passed = set().union(*(fields_passed(p.read_text(), "PotentialField", fields)
                           for p in MODULES))
    assert sorted(set(fields) - passed) == sorted(POTENTIAL_FIELDS_UNSET)


def imported_modules(source: str) -> set[str]:
    """Top-level package of every absolute import in source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


# the modules that may touch files: the harness writes every artifact, and
# the CLI reads the config and the summary it prints
FILE_MODULES = ("cli.py", "harness.py")


def file_access(source: str) -> list[str]:
    """Each import of csv, io or json (function-local ones too) and each call
    of a function named open in source, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and imported_modules(ast.unparse(node)) & {"csv", "io", "json"}:
            found.append(f"{ast.unparse(node)} (line {node.lineno})")
        elif isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None)):
            found.append(f"{ast.unparse(node.func)}( (line {node.lineno})")
    return found


def test_checker_sees_file_access():
    source = ("import numpy as np\nimport csv\nfrom json import dumps\n"
              "def f(path):\n    import io as _io\n    with open(path) as fh:\n"
              "        return os.open(path, 0)\n")
    assert file_access(source) == ["import csv (line 2)", "from json import dumps (line 3)",
                                   "import io as _io (line 5)", "open( (line 6)",
                                   "os.open( (line 7)"]


def test_only_the_harness_and_cli_touch_files():
    # every artifact goes through the harness's writers; the numerical
    # modules hand it arrays
    assert {p.name: file_access(p.read_text()) for p in MODULES
            if p.name not in FILE_MODULES and file_access(p.read_text())} == {}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    # sclab runs on numpy alone; scipy is a test-only reference
    assert "scipy" not in imported_modules(path.read_text())


def test_cli_import_loads_no_scipy():
    code = ("import json, sys\nimport sclab.cli\n"
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert json.loads(out.stdout) == []


# counts the traced benchmark runs must read: each proves the tracer bound
# to the layer (numpy.fft for the FFTs) before the run made its first call
TRACED_COUNTS = {
    "exit-crossing": {"integrate.rk4_step.calls": 732},
    "obstruction": {"schrodinger.fft.calls": 457},
}


def test_traced_benchmark_runs(tmp_path, bench):
    # perfbench/child.py, as the benchmark's --trace 1 run starts it: it
    # looks every traced module up in sys.modules right after import sclab.cli
    totals = {}
    for name, workload in sorted(bench.WORKLOADS.items()):
        config, trace = tmp_path / f"{name}.cfg", tmp_path / f"{name}.json"
        config.write_text(bench.config_text(workload, 0, tmp_path / name, shipped_sizes=False))
        run = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), workload.kind,
             str(config), str(tmp_path / f"{name}.stamp"), str(trace)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert run.returncode == 0, run.stderr
        totals[name] = json.loads(trace.read_text())
    for name, counts in TRACED_COUNTS.items():
        assert {k: totals[name].get(k) for k in counts} == counts


def executed_kind_modules(kind: str, config_text: str, tmp_path) -> list:
    """In a fresh interpreter, the kinds' modules that one `sclab <kind>`
    run executed, then whether numpy.fft was imported.  A module's dict is
    read past LazyLoader's hook, which would execute it; exec adds
    __builtins__ to it."""
    config = tmp_path / f"{kind}.cfg"
    config.write_text(config_text + f"out = {tmp_path / kind}\n")
    code = ("import json, sys\nimport sclab.cli\n"
            f"assert sclab.cli.main([{kind!r}, '--config', {str(config)!r}]) == 0\n"
            "names = ['exit_time', 'obstruction', 'schrodinger', 'spectral', 'steering', 'wkb']\n"
            "print(json.dumps([[n for n in names if '__builtins__' in "
            "object.__getattribute__(sys.modules['sclab.' + n], '__dict__')],"
            " 'numpy.fft' in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_runs_execute_only_their_kinds_modules(tmp_path):
    exit_run = executed_kind_modules(
        "exit-time", "experiment = exit-time\nexit.ensemble = 4\nexit.horizon = 0.5\n",
        tmp_path)
    assert exit_run == [["exit_time"], False]
    spectral_run = executed_kind_modules("spectral", "experiment = spectral\n", tmp_path)
    assert spectral_run == [["spectral"], False]


def test_cli_import_loads_no_openssl():
    # hashlib loads OpenSSL's _hashlib (+3.5 MB RSS); config imports it only
    # when a config hash is taken, after an obstruction run's engine build
    code = ("import json, sys\nimport sclab.cli\n"
            "print(json.dumps([m for m in ('hashlib', '_hashlib') if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert json.loads(out.stdout) == []


def test_content_hash_is_pinned():
    # the obstruction benchmark's config text; every default enters the
    # canonical text, so this digest moves with any key, default or format
    from sclab.config import parse_config
    text = ("experiment = obstruction\nseed = 0\nobstruction.w.name = linear\n"
            "obstruction.w.slope = 0.0\nobstruction.w.offset = 1.0\n"
            "obstruction.ensemble = 40\n")
    assert parse_config(text).content_hash() == "8bf2ef64bd777680"


def test_benchmark_runs_load_no_numpy_ma(tmp_path, bench):
    # numpy 2.4's first np.unique call imports numpy.ma (11–20 ms of a run);
    # the three benchmark workloads run in one interpreter without it
    argv = []
    for name, workload in sorted(bench.WORKLOADS.items()):
        config = tmp_path / f"{name}.cfg"
        config.write_text(bench.config_text(workload, 0, tmp_path / name, shipped_sizes=False))
        argv.append([workload.kind, "--config", str(config)])
    code = ("import json, sys\nimport sclab.cli\n"
            f"status = [sclab.cli.main(a) for a in {argv!r}]\n"
            "print(json.dumps([status, 'numpy.ma' in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [[0, 0, 0], False]


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = {re.match(r"[\w.-]+", r).group() for r in project["dependencies"]}
    test = {re.match(r"[\w.-]+", r).group() for r in project["optional-dependencies"]["test"]}
    assert "scipy" not in runtime
    assert "scipy" in test

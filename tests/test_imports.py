"""Every name a `sclab` module imports is used in it, every module-level
function and class is used somewhere in `sclab`, every `ObstructionConfig`
field is set by the CLI and every `PotentialField` field by some call in
`sclab`, or has a stated reason not to be, only `dynamics` reads a control
law's breakpoints, nothing in `sclab` imports scipy, which is a test-only
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

# definitions nothing in sclab calls, each with the reason it is kept
UNREFERENCED_ALLOWED = {
    "dynamics.py:ControlSignal.window": "perfbench/tracer.py counts its calls",
    "schrodinger.py:gaussian_packet": "perfbench/probes.py builds its states with it",
    "schrodinger.py:l2_distance": "perfbench/tracer.py times it",
    "schrodinger.py:plane_wave": "the split-step tests' reference state",
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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
    """Keyword names of every call to `callee` inside the module-level
    `function` of source."""
    tree = ast.parse(source)
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return {kw.arg for node in ast.walk(body)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == callee for kw in node.keywords}


def test_checker_sees_passed_keywords():
    source = ("def run():\n    Cfg(a=1, b=g(c=2))\n    Cfg(d=3)\n\n"
              "def other():\n    Cfg(e=4)\n")
    assert keywords_passed(source, "run", "Cfg") == {"a", "b", "d"}


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    # sclab runs on numpy alone; scipy is a test-only reference
    assert "scipy" not in imported_modules(path.read_text())


def test_cli_import_loads_no_scipy():
    code = ("import json, sys\nimport sclab.cli\n"
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']"
            " + ['numpy.fft' in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    # no scipy module, and numpy.fft loaded (scipy used to load it; the
    # tracer of perfbench/tracer.py binds to it before a run starts)
    assert json.loads(out.stdout) == [True]


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

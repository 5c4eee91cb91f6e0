"""Every name a `sclab` module imports is used in it.

Each module is parsed with `ast`; an imported name that no `Name` node in the
module refers to is reported, unless its import statement carries
`# noqa: F401` (an import kept for a reason the code itself cannot show).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sclab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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

"""No module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "irred"


def _unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            # a name listed in __all__ is re-exported, so it is used
            used |= {e.value for e in node.value.elts}
    return sorted(imported - used)


def test_unused_import_is_found():
    src = ("from __future__ import annotations\n"
           "import math, os.path\n"
           "from .linear import solve, rref as r\n"
           "__all__ = ['solve']\n"
           "def f():\n"
           "    from .poly import Poly\n"
           "    return math.pi\n")
    assert _unused_imports(src) == ["Poly", "os", "r"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []

"""Every division of Q scalars in the package goes through mpoly.qdiv.

Over Q a scalar is an int or a Fraction, and int / int gives a float.
So every `/` in src/irred must either sit inside qdiv, which keeps the
quotient exact and canonical, or sit in a function listed below, whose
operands are never two Q scalars.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "irred"

# (module, function) -> why no operand pair there is two Q scalars
ALLOWED = {
    ("field", "FieldElem.__rtruediv__"): "operands are FieldElem",
    ("field", "FieldElem.__pow__"): "operands are FieldElem",
    ("linops", "DiffOp.monic"): "operands are RatFun",
    ("linops", "_krylov_solvers"): "operands are RatFun",
    ("oracle", "_frat"): "floats of the numeric oracle",
    ("oracle", "numeric_ve_oracle"): "floats of the numeric oracle",
    ("poly", "RatFun.__rtruediv__"): "operands are RatFun",
    ("poly", "RatFun.__pow__"): "operands are RatFun",
    ("ratsolve", "denominator_bound"): "operands are RatFun",
    ("screen", "ExpWitness.log_derivative"): "operands are RatFun",
    ("screen", "_exponential_solutions"): "operands are RatFun",
    ("verdict", "_Parsed.solve"): "operands are RatFun",
    ("verdict", "check_p3"): "operands are RatFun or FieldElem",
}


def _divisions(source):
    """(function, line) of every `/` and `/=` in source; function is the
    dotted name of the enclosing classes and functions, "" at the top
    level."""
    found = []
    scope = []

    class Visitor(ast.NodeVisitor):
        def visit_scope(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        visit_FunctionDef = visit_AsyncFunctionDef = visit_scope
        visit_ClassDef = visit_scope

        def visit_op(self, node):
            if isinstance(node.op, ast.Div):
                found.append((".".join(scope), node.lineno))
            self.generic_visit(node)

        visit_BinOp = visit_AugAssign = visit_op

    Visitor().visit(ast.parse(source))
    return found


def _unexcused(source, module):
    """The divisions of source that are neither in qdiv nor allowed."""
    return [(module, fn, line) for fn, line in _divisions(source)
            if fn != "qdiv" and (module, fn) not in ALLOWED]


def test_planted_division_is_found():
    src = ("def qdiv(a, b):\n"
           "    return a / b\n"
           "class C:\n"
           "    def f(self, a, b):\n"
           "        a /= b\n"
           "        return a\n"
           "def solve(x):\n"
           "    return [y / x for y in (1, 2)]\n"
           "def term(v, w):\n"
           "    return v / w\n"
           "HALF = 1 / 2\n")
    assert _unexcused(src, "m") == [("m", "C.f", 5), ("m", "solve", 8),
                                    ("m", "term", 10), ("m", "", 11)]
    # an allowance names one module's function, not every function so named
    assert _unexcused(src, "grammar") == [
        ("grammar", "C.f", 5), ("grammar", "solve", 8),
        ("grammar", "term", 10), ("grammar", "", 11)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_q_division_is_qdiv(path):
    assert _unexcused(path.read_text(encoding="utf-8"), path.stem) == []


def test_every_allowance_is_used():
    used = {(p.stem, fn) for p in SRC.glob("*.py")
            for fn, _ in _divisions(p.read_text(encoding="utf-8"))}
    assert sorted(set(ALLOWED) - used) == []

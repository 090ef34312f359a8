"""Rational solutions of scalar operators and first order systems."""

from fractions import Fraction

import pytest

from irred.linops import parse_operator, DiffOp
from irred.poly import Poly, RatFun
from irred.ratsolve import (coprime_basis, degree_bound, denominator_bound,
                            indicial_polynomial, rational_solutions,
                            system_rational_solutions)


def t():
    return RatFun.gen("t")


def test_coprime_basis():
    x = Poly.gen("t")
    base = coprime_basis([(x - 1) * (x - 2), (x - 1) * x ** 2])
    assert sorted(str(f) for f in base) == ["t", "t - 1", "t - 2"]


def test_indicial_euler_at_zero():
    L = parse_operator("t^2*D^2 + t*D - 1")
    ind = indicial_polynomial(L, 0)
    assert ind.integer_roots == [-1, 1]


def test_indicial_euler_at_infinity():
    L = parse_operator("t^2*D^2 + t*D - 1")
    ind = indicial_polynomial(L, "inf")
    assert ind.integer_roots == [-1, 1]


def test_indicial_irrational_cluster():
    # t^2 - 2 splits off two conjugate singular points, handled unsplit
    L = parse_operator("(t^2 - 2)*D - t")
    ind = indicial_polynomial(L, Poly.gen("t") ** 2 - 2)
    assert isinstance(ind.point, Poly)


def test_denominator_bound_ordinary_pole_of_rhs():
    # y' = 1/t^2 has the rational solution -1/t; the bound must allow it
    L = parse_operator("D")
    D = denominator_bound(L, RatFun(Poly.const(1, "t"), Poly.gen("t") ** 2))
    assert str(D) == "t"


def test_denominator_bound_euler():
    L = parse_operator("t^2*D^2 + t*D - 1")
    D = denominator_bound(L)
    assert str(D) == "t"


def test_degree_bound_homogeneous_euler():
    L = parse_operator("t^2*D^2 + t*D - 1")
    assert degree_bound(L) == 1


def test_rational_solutions_euler_homogeneous():
    L = parse_operator("t^2*D^2 + t*D - 1")
    space = rational_solutions(L)
    assert space.particular == RatFun.zero("t")
    assert len(space.basis) == 2
    sols = sorted(str(y) for y in space.basis)
    assert sols == ["1/(t)", "t"]


def test_rational_solutions_inhomogeneous():
    L = parse_operator("D^2 - D")
    y0 = t() ** 2 / 2
    g = L.apply(y0)
    space = rational_solutions(L, g)
    assert space.particular is not None
    assert L.apply(space.particular) == g
    # constants solve the homogeneous equation
    assert any(y.is_constant() for y in space.basis)


def test_rational_solutions_no_solution():
    # y' = 1/t has only the logarithm
    L = parse_operator("D")
    space = rational_solutions(L, 1 / t())
    assert space.particular is None


def test_rational_solutions_planted_with_poles():
    L = parse_operator("D^2 + (1/t)*D - 4")
    y0 = (t() ** 2 + 3) / (t() - 1)
    g = L.apply(y0)
    space = rational_solutions(L, g)
    assert space.particular is not None
    assert L.apply(space.particular) == g


def test_rational_solutions_rejects_parameters():
    L = parse_operator("D - mu", "x", ("mu",))
    with pytest.raises(ValueError):
        rational_solutions(L)


def test_system_zero_matrix():
    zero = RatFun.zero("t")
    one = RatFun.const(1, "t")
    # 1 x 1: the covector e_1 is cyclic; the constants solve F' = 0
    space = system_rational_solutions([[zero]])
    assert space.basis == [[one]]
    space2 = system_rational_solutions([[zero]], [one])
    assert space2.particular[0].derivative() == one
    # 2 x 2: e_1 is not cyclic for the zero matrix, so the system
    # is refused as unsupported rather than scalarized another way
    A = [[zero, zero], [zero, zero]]
    for b in (None, [one, zero]):
        with pytest.raises(ValueError, match="unsupported system"):
            system_rational_solutions(A, b)


def test_system_companion_consistency():
    L = parse_operator("t^2*D^2 + t*D - 1")
    from oracles import companion
    A = companion(L)
    space = system_rational_solutions(A)
    assert len(space.basis) == 2


def test_system_unsolvable():
    zero = RatFun.zero("t")
    # F' = 1/t: a logarithm, no rational solution
    space = system_rational_solutions([[zero]], [1 / t()])
    assert space.particular is None
    with pytest.raises(ValueError, match="unsupported system"):
        system_rational_solutions([[zero, zero], [zero, zero]],
                                  [1 / t(), zero])


def test_polynomial_solutions_eliminates_once(rref_calls):
    from irred.ratsolve import _polynomial_solutions
    L = parse_operator("D^2 - D")
    g = L.apply(t() ** 2 / 2)
    part, basis = _polynomial_solutions(L, g, 3)
    assert len(rref_calls) == 1
    assert L.apply(part) == g
    assert [str(y) for y in basis] == ["1"]


def test_rational_solutions_bounds_the_degree_once(monkeypatch):
    import irred.ratsolve as ratsolve
    calls = []
    bound = ratsolve.degree_bound

    def counting(L, g=None):
        calls.append(g is None)
        return bound(L, g)

    monkeypatch.setattr(ratsolve, "degree_bound", counting)
    L = parse_operator("D^2 + (1/t)*D - 4")
    g = L.apply((t() ** 2 + 3) / (t() - 1))
    space = rational_solutions(L, g)
    assert L.apply(space.particular) == g
    assert calls == [False]
    rational_solutions(L)
    assert calls == [False, True]


def test_hessenberg_systems_scalarize_without_new_singularities():
    """Upper Hessenberg polynomial systems with a nonzero constant
    subdiagonal: the covector e_last gives polynomial coefficients, back
    substitution recovers a planted solution, and the system solver
    finds it."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from irred.linops import cyclic_vector_scalarize
    entry = st.lists(st.integers(-2, 2), min_size=2, max_size=2)
    sub = st.integers(-3, 3).filter(bool)

    @st.composite
    def systems(draw):
        n = draw(st.integers(2, 5))
        zero = RatFun.zero("t")
        A = [[zero] * n for _ in range(n)]
        for i in range(n):
            if i:
                A[i][i - 1] = RatFun.const(draw(sub), "t")
            for j in range(i, n):
                A[i][j] = RatFun(Poly([Fraction(c) for c in draw(entry)], "t"))
        F = [RatFun(Poly([Fraction(c) for c in draw(entry)], "t"))
             for _ in range(n)]
        if draw(st.booleans()):
            # planted: F solves F' = A F + b
            AF = [sum((a * f for a, f in zip(row, F)), zero) for row in A]
            b = [f.derivative() - af for f, af in zip(F, AF)]
        else:
            b, F = F, None
        return A, b, F

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(systems())
    def check(system):
        A, b, F = system
        res = cyclic_vector_scalarize(A, b)
        assert all(c.den.degree() == 0 for c in res.op.coeffs)
        if F is not None:
            assert res.op.apply(F[-1]) == res.rhs
            assert res.back_substitute(F[-1]) == F
        space = system_rational_solutions(A, b)
        assert F is None or space.particular is not None

    check()


def test_degree_bound_past_the_budget_is_refused_before_any_image(
        monkeypatch):
    """t*D - 2000 has the integer exponent 2000 at infinity; its degree
    bound passes MAX_DEGREE_BOUND, and the solver refuses it before it
    applies the operator to any monomial."""
    import irred.ratsolve as ratsolve
    L = parse_operator("t*D - 2000")
    assert degree_bound(L) == 2000 > ratsolve.MAX_DEGREE_BOUND == 64
    monkeypatch.setattr(ratsolve, "_polynomial_solutions", None)
    with pytest.raises(ValueError, match="degree bound 2000 exceeds 64"):
        rational_solutions(L, t())


def test_denominator_bound_past_the_budget_is_refused_before_any_power(
        monkeypatch):
    """t*D + 1000000 has the integer exponent -1000000 at 0, so its
    denominator bound would be t^1000000; it is refused before any factor
    power is built.  A bound of degree MAX_DENOMINATOR_DEGREE is kept."""
    import irred.ratsolve as ratsolve
    assert ratsolve.MAX_DENOMINATOR_DEGREE == 64
    L = parse_operator("D")
    for k, ok in ((65, True), (66, False)):
        # y' = 1/t^k: the pole of order k at an ordinary point needs t^(k-1)
        g = RatFun(Poly.const(1, "t"), Poly.gen("t") ** k)
        if ok:
            assert denominator_bound(L, g) == Poly.gen("t") ** (k - 1)
        else:
            with pytest.raises(ValueError,
                               match="denominator bound of degree 65 exceeds"):
                denominator_bound(L, g)
    monkeypatch.setattr(Poly, "__pow__", None)
    with pytest.raises(ValueError, match="degree 1000000 exceeds 64"):
        denominator_bound(parse_operator("t*D + 1000000"))

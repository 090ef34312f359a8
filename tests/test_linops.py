"""Differential operators, companion systems, cyclic vectors, sym powers."""

import math
from fractions import Fraction

import pytest

from irred.grammar import ParseError, parse_ratfun
from irred.linops import (DiffOp, cyclic_vector_scalarize, parse_operator,
                          sym_power_matrix, sym_power_operator)
from irred.poly import Poly, RatFun
from oracles import companion, gauge_transform, sym_power_by_composition


def test_operator_parse_print_roundtrip():
    ops = [parse_operator(s) for s in
           ["D^2 - t", "D^5 - 20*t*D^3 - 30*D^2 + 64*t^2*D + 64*t",
            "(1/t)*D + t^2"]]
    # the operator of an n = 32 family certificate
    ops.append(sym_power_operator(parse_operator("D^2 - t"), 33))
    for L in ops:
        assert parse_operator(str(L)) == L


def test_operator_power_budget():
    assert parse_operator("D^64").order() == 64
    with pytest.raises(ParseError, match="degree 65 exceeds 64"):
        parse_operator("D^65")
    with pytest.raises(ParseError, match="degree 66 exceeds 64"):
        parse_operator("(t^2*D)^33")


def test_operator_power_of_d_is_the_monomial():
    D = DiffOp.identity_d("t")
    for k in range(12):
        assert parse_operator("D^%d" % k) == D ** k
    t = DiffOp([RatFun.gen("t")])
    assert parse_operator("(D)^3 + t*D^2") == D ** 3 + t * D ** 2
    assert parse_operator("D^2*D^3") == D ** 5


def test_operator_parse_parenthesized_constant():
    # a fully parenthesized order-0 coefficient stays order 0
    L = parse_operator("D^2 + ((-4*x - 4*mu)/(x))", "x", ("mu",))
    assert L.order() == 2
    assert str(L.coeff(0)) == str(parse_ratfun("(-4*x - 4*mu)/x", "x", ("mu",)))


def test_operator_product_leibniz():
    t = RatFun.gen("t")
    D = DiffOp.identity_d("t")
    # D * t = t*D + 1
    L = D * DiffOp([t])
    assert L == DiffOp([RatFun.const(1, "t"), t])


def test_apply_operator():
    L = parse_operator("D^2 - t")
    t = RatFun.gen("t")
    f = t ** 3
    assert L.apply(f) == 6 * t - t ** 4


def test_companion_matrix():
    L = parse_operator("D^2 - t")
    A = companion(L)
    t = RatFun.gen("t")
    assert A[0][1] == RatFun.const(1, "t")
    assert A[1][0] == t
    assert not A[0][0] and not A[1][1]


def test_sym_power_operator_airy():
    L = parse_operator("D^2 - t")
    L4 = sym_power_operator(L, 4)
    assert L4 == parse_operator("D^5 - 20*t*D^3 - 30*D^2 + 64*t^2*D + 64*t")


def test_sym_power_operator_annihilates_products():
    # sym^2(D^2 - t) kills squares of solutions; verify on truncated series
    # via the matrix route instead: sym of companion matches operator
    L = parse_operator("D^2 - t")
    A = companion(L)
    S = sym_power_matrix(A, 2)
    res = cyclic_vector_scalarize(S, retries=10)
    L2 = sym_power_operator(L, 2)
    # both annihilate the same 3-dimensional space: equal up to left factor;
    # here orders agree so they are proportional, hence equal once monic
    assert res.op.monic() == L2.monic()


@pytest.mark.parametrize("text, var, ms", [
    ("D^2 - t", "t", range(1, 10)),
    ("D^2 - 4 - 2/x", "x", range(1, 6)),
    ("D^2 - 4 - 3/x", "x", [4]),
    ("D^2 + (1/t)*D - (t^2 + 1)/t^2", "t", range(1, 6)),
])
def test_sym_power_recurrence_matches_cyclic_vector_route(text, var, ms):
    L = parse_operator(text, var)
    for m in ms:
        route = cyclic_vector_scalarize(
            sym_power_matrix(companion(L), m)).op.monic()
        got = sym_power_operator(L, m)
        assert got == route
        assert str(got) == str(route)


@pytest.mark.parametrize("text, var, params, ms", [
    ("D^2 - t", "t", (), range(1, 10)),
    ("D^2 - 4 - 4*mu/x", "x", ("mu",), range(1, 10)),
    ("D^2 + (1/t)*D - (t^2 + 1)/t^2", "t", (), range(1, 6)),
], ids=["airy", "p3-over-q-mu", "first-order-term"])
def test_sym_power_operator_matches_generic_composition(text, var, params, ms):
    L = parse_operator(text, var, params)
    for m in ms:
        assert sym_power_operator(L, m) == sym_power_by_composition(L, m)


def test_sym_power_operator_eliminates_nothing(rref_calls):
    L9 = sym_power_operator(parse_operator("D^2 - t"), 9)
    assert L9.order() == 10
    assert rref_calls == []


def test_cyclic_vector_zero_matrix():
    zero = RatFun.zero("t")
    A = [[zero, zero], [zero, zero]]
    res = cyclic_vector_scalarize(A, retries=20)
    assert res.op.order() == 2


def test_cyclic_vector_back_substitution():
    # companion of D^2 - t: scalarize and map solutions back
    L = parse_operator("D^2 - t")
    A = companion(L)
    one = RatFun.const(1, "t")
    zero = RatFun.zero("t")
    res = cyclic_vector_scalarize(A, v=[one, zero])
    assert res.op.monic() == L.monic()


def test_cyclic_vector_retries_draw_in_a_fixed_order():
    # e_0 is not cyclic for A = 0, nor is any constant covector; the first
    # success is a drawn linear covector, which back_substitute reveals
    zero = RatFun.zero("t")
    t = RatFun.gen("t")
    res = cyclic_vector_scalarize([[zero, zero], [zero, zero]], retries=20)
    assert [str(x) for x in res.back_substitute(t)] == ["-1/12", "1/4"]
    assert [str(x) for x in res.back_substitute(t * t)] == [
        "(-1/4)*t^2 + (-1/6)*t", "(-1/4)*t^2 + (1/2)*t"]


def test_cyclic_vector_failure_without_retries():
    zero = RatFun.zero("t")
    with pytest.raises(ValueError, match="cyclic vector failed"):
        cyclic_vector_scalarize([[zero, zero], [zero, zero]])


def test_scalarization_eliminates_once(rref_calls):
    L = parse_operator("D^5 - 20*t*D^3 - 30*D^2 + 64*t^2*D + 64*t")
    res = cyclic_vector_scalarize(companion(L))
    assert res.op == L
    # the Krylov matrix of e_1 on a companion matrix is the identity, so
    # the scalarization substitutes and eliminates nothing
    assert rref_calls == []
    # the covector (1, t, 0, 0, 0) has two entries in new columns: the
    # Krylov matrix is not triangular and is eliminated once
    t = RatFun.gen("t")
    zero, one = RatFun.zero("t"), RatFun.const(1, "t")
    v = [one, t, zero, zero, zero]
    res = cyclic_vector_scalarize(companion(L), v=v)
    assert rref_calls == [5]
    f = t ** 3 + 1 / t
    assert sum((a * x for a, x in zip(v, res.back_substitute(f))), zero) == f


@pytest.mark.parametrize("n", [*range(2, 9), 16, 32])
def test_family_system_scalarizes_to_the_symmetric_power(n):
    """Psi(n) is upper Hessenberg with a constant subdiagonal, so the
    default covector is e_last and the scalar equation is exactly
    Sym^(n+1)(D^2 - t) with rhs (-1)^(n+1) (n+1)! p."""
    from irred.verdict import _family_psi
    p = RatFun.gen("t") ** 2 + 1
    zero = RatFun.zero("t")
    op, rhs = cyclic_vector_scalarize(_family_psi(n), [p] + [zero] * (n + 1))
    want = sym_power_operator(parse_operator("D^2 - t"), n + 1)
    assert op == want
    assert str(op) == str(want)
    assert rhs == (-1) ** (n + 1) * math.factorial(n + 1) * p


def test_triangular_krylov_solves_match_the_inverse(rref_calls):
    """A Krylov matrix triangular up to a column order (lower,
    anti-triangular or with permuted pivots; constant pivots, rational
    functions below them) is solved by substitution, without an
    elimination, exactly as its inverse solves it."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from irred.linear import inverse, mat_mul
    from irred.linops import _krylov_solvers
    t = Poly.gen("t")
    zero, one = RatFun.zero("t"), RatFun.const(1, "t")
    ints = st.integers(-3, 3)
    entries = st.builds(
        lambda cs, r: RatFun(Poly([Fraction(c) for c in cs], "t"),
                             None if r is None else t - r),
        st.lists(ints, min_size=1, max_size=3), st.one_of(st.none(), ints))
    pivot = st.fractions(-3, 3, max_denominator=3).filter(bool)

    @st.composite
    def systems(draw):
        n = draw(st.integers(1, 5))
        order = draw(st.sampled_from(["lower", "anti", "permuted"]))
        pivots = {"lower": list(range(n)),
                  "anti": list(range(n - 1, -1, -1))}.get(order)
        if pivots is None:
            pivots = draw(st.permutations(range(n)))
        V = [[zero] * n for _ in range(n)]
        for i, col in enumerate(pivots):
            V[i][col] = RatFun.const(draw(pivot), "t")
            for k in pivots[:i]:
                V[i][k] = draw(entries)
        r = [draw(entries) for _ in range(n)]
        d = [draw(entries) for _ in range(n)]
        return V, r, d

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(systems())
    def check(system):
        V, r, d = system
        rref_calls.clear()
        left, right = _krylov_solvers(V, one)
        c, F = left(r), right(d)
        assert rref_calls == []
        Vinv = inverse(V, one)
        assert c == mat_mul([r], Vinv)[0]
        assert F == [row[0] for row in mat_mul(Vinv, [[x] for x in d])]

    check()

    # a row with two new columns: V is inverted by one elimination
    x = RatFun.gen("t")
    V = [[one, x], [x, one]]
    rref_calls.clear()
    left, right = _krylov_solvers(V, one)
    assert rref_calls == [2]
    r = [x, 1 / x]
    assert mat_mul([left(r)], V)[0] == r
    assert [row[0] for row in mat_mul(V, [[f] for f in right(r)])] == r
    # and a singular one is reported, not solved
    assert _krylov_solvers([[one, x], [one, x]], one) is None


def test_p3_shaped_system_keeps_the_first_covector():
    # constant superdiagonal, rational subdiagonal: not upper Hessenberg
    # with a constant subdiagonal, so the default covector is e_1
    x = RatFun.gen("x")
    zero, one = RatFun.zero("x"), RatFun.const(1, "x")
    A = [[zero] * 5 for _ in range(5)]
    for i in range(4):
        A[i][i + 1] = (4 * i - 16) * one
        A[i + 1][i] = (-1) ** i * (i + 1) * (2 + 1 / x)
    default = cyclic_vector_scalarize(A)
    explicit = cyclic_vector_scalarize(A, v=[one] + [zero] * 4)
    assert default.op == explicit.op
    assert str(default.op) == str(explicit.op)
    assert [str(f) for f in default.back_substitute(x)] == [
        str(f) for f in explicit.back_substitute(x)]


def test_gauge_transform_shape():
    t = RatFun.gen("t")
    one = RatFun.const(1, "t")
    zero = RatFun.zero("t")
    A = [[zero, one], [t, zero]]
    P = [[one, t], [zero, one]]
    B = gauge_transform(P, A)
    assert len(B) == 2 and len(B[0]) == 2


def test_adjoint_involution_simple():
    L = parse_operator("D^3 + t*D + 1")
    assert L.adjoint().adjoint() == L


def test_diffop_sum_cancels_to_zero_operator():
    L = parse_operator("D^3 + t*D + 1")
    assert (L - L).is_zero() and str(L - L) == "0"
    assert L + parse_operator("-D^3 + D") == parse_operator("(t + 1)*D + 1")


def test_diffop_specialize():
    L = parse_operator("D^2 - 4 - 4*mu/x", "x", ("mu",))
    Lm = L.specialize({"mu": Fraction(1, 2)})
    assert Lm == parse_operator("D^2 - 4 - 2/x", "x")


def test_operator_power_is_repeated_composition():
    # D + t does not commute with its coefficients
    L = parse_operator("D + t")
    want = DiffOp([RatFun.const(1, "t")])
    for k in range(8):
        assert L ** k == want
        assert str(L ** k) == str(want)
        want = want * L


def test_negative_operator_power_rejected():
    with pytest.raises(ValueError):
        parse_operator("D^-2 - t")
    with pytest.raises(ValueError):
        DiffOp.identity_d() ** -1
    t = RatFun.gen("t")
    assert parse_ratfun("t^-2") == 1 / t ** 2

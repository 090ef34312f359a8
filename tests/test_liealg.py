"""Constant-matrix Lie algebra machinery and the block generators."""

from fractions import Fraction

import pytest

from irred.field import FieldElem
from irred.jets import EquationFamily, build_lnve_airy_family
from irred.liealg import (adjoint_action_matrix,
                          associated_lie_algebra, block_e_matrices,
                          block_xyh, classify_lnve_lie_algebra, lie_closure,
                          lie_dimension)
from irred.linear import in_span, mat_bracket, mat_transpose, rank
from irred.linops import sym_power_matrix
from irred.poly import Poly, RatFun
from irred.verdict import _family_psi
from oracles import (block_f_matrices, canonical_q, p3_graded_parts,
                     sl2_triplet_check)


def _scaled(M, c):
    return [[c * x for x in row] for row in M]


def _add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def test_block_xyh_is_sl2():
    for n in (2, 3, 4):
        X, Y, H = block_xyh(n)
        assert sl2_triplet_check(X, Y, H)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_e_bracket_table(n):
    X, Y, H = block_xyh(n)
    E = block_e_matrices(n)
    zero = _scaled(E[0], 0)
    for i in range(n + 2):
        up = E[i + 1] if i + 1 <= n + 1 else zero
        down = E[i - 1] if i - 1 >= 0 else zero
        assert mat_bracket(X, E[i]) == _scaled(up, i + 1)
        assert mat_bracket(Y, E[i]) == _scaled(down, n + 2 - i)
        assert mat_bracket(H, E[i]) == _scaled(E[i], 2 * i - n - 1)
        for j in range(n + 2):
            assert mat_bracket(E[i], E[j]) == zero


def test_lie_closure_pnve3_generators():
    # X perturbed by the lowest-weight ideal element still generates
    # everything: bracketing down kills E_0, so [X+E_0, Y] = H exactly
    X, Y, H = block_xyh(3)
    E = block_e_matrices(3)
    M1 = _add(X, E[0])
    assert mat_bracket(M1, Y) == H
    alg = lie_closure([M1, Y])
    assert alg.dimension == 8


def test_lie_closure_sl2():
    X, Y, H = block_xyh(2)
    alg = lie_closure([X, Y])
    assert alg.dimension == 3
    assert classify_lnve_lie_algebra(alg.dimension, 2) == "sl2"


def test_classify_full():
    X, Y, H = block_xyh(3)
    gens = [X, Y] + block_e_matrices(3)
    alg = lie_closure(gens)
    assert alg.dimension == 8
    assert classify_lnve_lie_algebra(alg.dimension, 3) == "sl2 x Sym^(n+1)"


def test_associated_lie_algebra_airy():
    t = RatFun.gen("t")
    one = RatFun.const(1, "t")
    zero = RatFun.zero("t")
    A = [[zero, one], [t, zero]]
    coeffs, mats = associated_lie_algebra(A)
    assert len(mats) == 2
    alg = lie_closure(mats)
    assert alg.dimension == 3


def test_adjoint_action_on_f_basis():
    # [X + tY, .] on the F basis is the negated transpose of sym^(n+1)(A1);
    # the adjoint action is the oracle of the closed form _family_psi
    t = RatFun.gen("t")
    one = RatFun.const(1, "t")
    zero = RatFun.zero("t")
    A1 = [[zero, one], [t, zero]]
    for n in range(2, 7):
        X, Y, _ = block_xyh(n)
        diag = [[x * one + t * (y * one) for x, y in zip(rx, ry)]
                for rx, ry in zip(X, Y)]
        Psi = adjoint_action_matrix(diag, block_f_matrices(n))
        S = sym_power_matrix(A1, n + 1)
        expect = [[-x for x in row] for row in mat_transpose(S)]
        assert Psi == expect
        closed = _family_psi(n)
        assert len(closed) == len(Psi) == n + 2
        for got_row, want_row in zip(closed, Psi):
            assert len(got_row) == len(want_row)
            for got, want in zip(got_row, want_row):
                assert isinstance(got, RatFun)
                assert got == want
                assert str(got) == str(want)


def _closure_case(name):
    """(generators, expected dimension) of a named closure case."""
    if name == "p2":
        p = EquationFamily(3, 2).p()
        _, mats = associated_lie_algebra(build_lnve_airy_family(3, p))
        return mats, 8
    if name == "sl2":
        X, Y, _ = block_xyh(2)
        return [X, Y], 3
    X, Y, _ = block_xyh(3)
    return [X, Y] + block_e_matrices(3), 8


@pytest.mark.parametrize("name", ["p2", "sl2", "sl2 x Sym^4"])
def test_lie_closure_basis_is_bracket_closed(name):
    gens, dim = _closure_case(name)
    alg = lie_closure(gens)
    assert alg.dimension == dim
    flat = [[x for row in B for x in row] for B in alg.basis]
    one = Fraction(1)
    # independent basis, containing every generator
    assert rank(flat) == dim
    for G in gens:
        assert in_span(flat, [x for row in G for x in row], one)
    # the rank-based test, on every ordered pair
    for Bi in alg.basis:
        for Bj in alg.basis:
            br = mat_bracket(Bi, Bj)
            assert in_span(flat, [x for row in br for x in row], one)


def test_lie_closure_keeps_insertion_order():
    # generators come first, then the first new bracket [basis[1], basis[0]]
    X, Y, _ = block_xyh(2)
    alg = lie_closure([X, Y])
    assert alg.basis == [X, Y, mat_bracket(Y, X)]


def test_lie_closure_self_check_is_reachable(monkeypatch):
    # a reduction that wrongly sends [Y, X] to zero keeps H out of the
    # basis; the closing check reduces the stored bracket again and trips
    import irred.liealg as liealg
    X, Y, _ = block_xyh(2)
    target = [x for row in mat_bracket(Y, X) for x in row]
    skipped = []
    real = liealg._reduce

    def faulty(rows, v):
        if v == target and not skipped:
            skipped.append(v)
            return [x - x for x in v]
        return real(rows, v)

    monkeypatch.setattr(liealg, "_reduce", faulty)
    with pytest.raises(RuntimeError, match="closure not closed"):
        lie_closure([X, Y])
    assert skipped


def test_lie_closure_reduces_exactly(monkeypatch):
    """int entries are reduced as canonical ints and Fractions, never in
    floats, and a float or a bool entry is refused."""
    import irred.liealg as liealg
    seen = []
    real = liealg._reduce

    def spy(rows, v):
        out = real(rows, v)
        seen.extend(x for _, r in rows for x in r)
        seen.extend(v + out)
        return out

    monkeypatch.setattr(liealg, "_reduce", spy)
    alg = lie_closure([[[3, 1], [0, 7]], [[0, 0], [1, 0]]])
    assert alg.dimension == 4
    assert seen and all(canonical_q(x) for x in seen)
    assert any(type(x) is Fraction for x in seen)
    assert all(type(x) is int for M in alg.basis for row in M for x in row)
    for bad in (0.1, 1.0, "1", True):
        with pytest.raises(ValueError, match="exact entries"):
            lie_closure([[[bad, 0], [0, 0]]])


def test_lie_closure_brackets_each_pair_once(monkeypatch):
    # 8 basis matrices give 8 * 7 / 2 = 28 unordered pairs
    import irred.liealg as liealg
    gens, dim = _closure_case("p2")
    calls = []
    real = liealg.mat_bracket

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(liealg, "mat_bracket", counting)
    assert lie_closure(gens).dimension == dim == 8
    assert len(calls) == 28


def test_adjoint_action_eliminates_once(rref_calls):
    t = RatFun.gen("t")
    one = RatFun.const(1, "t")
    X, Y, _ = block_xyh(3)
    diag = [[x * one + t * (y * one) for x, y in zip(rx, ry)]
            for rx, ry in zip(X, Y)]
    Psi = adjoint_action_matrix(diag, block_f_matrices(3))
    assert len(Psi) == 5
    # one elimination of the 36 flattened entries for all 5 brackets
    assert rref_calls == [36]


MU = ("mu",)


def _mu_monomial(c, e):
    """c * mu^e in Q(mu)."""
    x = FieldElem.from_fraction(c, MU)
    return x * FieldElem.parameter("mu", MU) ** e


@pytest.mark.parametrize("level", ["At2", "At3"])
def test_lie_dimension_p3_generators(p3_chain, level):
    """The P3 constants of orders 2 and 3 at mu = 1 over Q generate a Lie
    algebra of the dimension that their regrades generate over Q(mu)."""
    gens = list(p3_chain.unit_parts[level])
    graded = list(p3_graded_parts(p3_chain)[level])
    assert lie_dimension(gens) == lie_closure(graded).dimension
    if level == "At3":
        assert lie_dimension(gens) == 8


@pytest.mark.parametrize("name", ["p2", "sl2", "sl2 x Sym^4"])
def test_lie_dimension_over_q(name, monkeypatch):
    """Over Q only the integer scaling applies; lie_closure gets integer
    generators with the spans of the given ones."""
    import irred.liealg as liealg
    gens, dim = _closure_case(name)
    gens = [[[Fraction(x, 3) for x in row] for row in G] for G in gens]
    seen = []
    real = liealg.lie_closure

    def spying(gs, limit=None):
        seen.append(gs)
        return real(gs, limit)

    monkeypatch.setattr(liealg, "lie_closure", spying)
    assert lie_dimension(gens) == real(gens).dimension == dim
    scaled, = seen
    assert all(type(x) is int for M in scaled for row in M for x in row)
    assert rank([[x for row in M for x in row] for M in scaled]) == \
        rank([[x for row in M for x in row] for M in gens])


def test_lie_dimension_graded_and_ungraded_draws():
    """Random generators c * mu^(w_j - w_i + s_k) with rational c generate
    a Lie algebra over Q(mu) of the dimension that their values at
    mu = 1 generate over Q; lie_dimension takes those Q(mu) generators,
    and the same with one entry turned into c * (mu + 1), to lie_closure
    as given."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-4, 4),
                                st.integers(1, 3)))

    @st.composite
    def graded(draw):
        n = draw(st.integers(2, 3))
        k = draw(st.integers(1, 2))
        w = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        s = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        cs = iter(draw(st.lists(coeff, min_size=k * n * n,
                                max_size=k * n * n)))
        unit = [[[next(cs) for _ in range(n)] for _ in range(n)]
                for _ in range(k)]
        return unit, [[[_mu_monomial(c, w[j] - w[i] + s[g])
                        for j, c in enumerate(row)]
                       for i, row in enumerate(G)]
                      for g, G in enumerate(unit)]

    @hypothesis.settings(max_examples=15, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(graded(), st.integers(0, 10 ** 6))
    def check(drawn, pick):
        unit, gens = drawn
        assert lie_dimension(unit) == lie_dimension(gens) \
            == lie_closure(gens).dimension
        nonzero = [(g, i, j) for g, G in enumerate(gens)
                   for i, row in enumerate(G) for j, x in enumerate(row) if x]
        if not nonzero:
            return
        g, i, j = nonzero[pick % len(nonzero)]
        gens[g][i][j] = gens[g][i][j] * (FieldElem.parameter("mu", MU) + 1)
        assert lie_dimension(gens) == lie_closure(gens).dimension

    check()

"""Jet prolongation, restriction, linearization, and the two showcases."""

from fractions import Fraction

import pytest

from irred.field import FieldElem
import irred.jets
from irred.jets import (_P3_SCALES, EquationFamily, VectorFieldSpec,
                        _from_parts, _p3_third_rows, _scale_conj,
                        _subsystem_matrices, _w_parts, build_lnve_airy_family,
                        build_p3_chain, jet_name, linearize,
                        normal_restrict, p3_unit_field, p3_weights, prolong,
                        rename_ratfun, restrict_along_curve, truncate)
from irred.grammar import ParseError, parse_ratfun
from irred.liealg import adjoint_action_matrix
from irred.linear import mat_identity, mat_mul
from irred.mpoly import MPoly
from irred.poly import Poly, RatFun
from irred.verdict import _at_mu, _p3_n_basis, check_p3, p3_psi_and_b
from oracles import (cinf_c0, lnve_airy_family_pipeline, mu_graded, p3_field,
                     p3_gauges, p3_graded_parts, p3_order, p3_reference_parts,
                     p3_w_field, regraded)


def p2_field():
    return VectorFieldSpec(("x", "y", "z"), ["1", "z", "x*y + 2*y^3"],
                           indep="x")


def test_prolong_linear_field():
    # x' = x without an independent coordinate: every jet copies itself
    X = VectorFieldSpec(("x",), ["x"])
    J = prolong(X, 2)
    for l in range(3):
        v = jet_name("x", l)
        assert str(J.rhs[v]) == v


def test_prolong_triangular():
    J = prolong(p2_field(), 3)
    for v in J.vars:
        w = J.jet_order[v]
        rhs = J.rhs[v]
        got = rhs.total_degree([J.jet_order[u] for u in J.vars])
        if got is not None:
            assert got == w


def test_restrict_requires_invariance():
    J = prolong(p2_field(), 1)
    one = RatFun.const(1, "x")
    with pytest.raises(ValueError):
        restrict_along_curve(J, {"y": one, "z": one})


def test_restrict_at_a_point_of_an_autonomous_field():
    """With no independent coordinate the curve is a point, given as
    text or as scalars, and it must be an equilibrium: X(point) = 0."""
    X = VectorFieldSpec(("y", "z"), ["z", "y - y^2"])
    for point in ({"y": "1", "z": "0"}, {"y": 1, "z": 0}):
        J = restrict_along_curve(prolong(X, 1), point)
        assert J.vars == ("y^(1)", "z^(1)")
        assert J.curve == {"y": 1, "z": 0}
        assert linearize(J).matrix == [[0, 1], [-1, 0]]
    for curve, msg in (({"y": "0", "z": "1"}, "not invariant"),
                       ({"y": 0, "z": 1}, "not invariant"),
                       ({"y": "1", "z": "t"}, "unknown name 't'")):
        with pytest.raises(ValueError, match=msg):
            restrict_along_curve(prolong(X, 1), curve)


def test_autonomous_field_has_scalar_coefficients():
    """A field with no independent coordinate carries its coefficients
    in Q(params) itself, and it has no variable t: a t in a component
    is an unknown name."""
    X = VectorFieldSpec(("y", "z"), ["z/3 + 2", "mu*y^2"], params=("mu",))
    mu = FieldElem.parameter("mu", ("mu",))
    assert X.indep is None and X.czero == 0 and X.cone == 1
    assert isinstance(X.czero, FieldElem) and not hasattr(X, "cvar")
    assert X.components["y"].terms == {(0, 1): Fraction(1, 3), (0, 0): 2}
    assert X.components["z"].terms == {(2, 0): mu}
    assert all(isinstance(c, FieldElem) for f in X.components.values()
               for c in f.terms.values())
    Q = VectorFieldSpec(("y", "z"), ["z/3 + 2", "-y/2 + 6/2"])
    assert [type(c) for c in Q.components["z"].terms.values()] == [
        Fraction, int]
    with pytest.raises(ParseError, match="unknown name 't'"):
        VectorFieldSpec(("y", "z"), ["z/3 + t", "2*y^2"])


def test_ve1_is_airy_companion():
    J = normal_restrict(restrict_along_curve(prolong(p2_field(), 1),
                                             {"y": "0", "z": "0"}))
    L = linearize(J)
    assert L.labels == ["y^(1)", "z^(1)"]
    A = L.matrix
    x = RatFun.gen("x")
    assert not A[0][0] and A[0][1] == RatFun.const(1, "x")
    assert A[1][0] == x and not A[1][1]


def test_family_matrix_displayed():
    A = build_lnve_airy_family(3, 12)
    t = RatFun.gen("t")
    got = [[str(x) for x in row] for row in A]
    assert got == [
        ["0", "1", "0", "0", "0", "0"],
        ["3*t", "0", "2", "0", "0", "0"],
        ["0", "2*t", "0", "3", "0", "0"],
        ["0", "0", "t", "0", "0", "0"],
        ["0", "0", "0", "0", "0", "1"],
        ["12", "0", "0", "0", "t", "0"],
    ]


@pytest.mark.parametrize("n,P", [(2, "1"), (3, "2"), (4, "x")])
def test_family_matrix_equals_pipeline(n, P):
    fam = EquationFamily(n, P)
    direct = build_lnve_airy_family(n, fam.p())
    L = lnve_airy_family_pipeline(n, P)
    assert len(L.matrix) == n + 3
    for ra, rb in zip(direct, L.matrix):
        for a, b in zip(ra, rb):
            assert a == RatFun(rename_ratfun(b, "t").num,
                               rename_ratfun(b, "t").den)


def test_family_p_value():
    fam = EquationFamily(3, "2")
    assert fam.p() == RatFun.const(12, "t")
    fam2 = EquationFamily(2, "1/x + y")
    t = RatFun.gen("t")
    assert fam2.p() == 2 / t


def test_family_rejects_pole_along_y0():
    for P in ("1/y", "y^-1"):
        with pytest.raises(ValueError, match="P must be polynomial in y"):
            EquationFamily(2, P)


def test_family_budgets_are_sharp():
    """n <= 32; a power, product or result of degree at most 64 in x
    and in y, with integers of at most 4096 bits by its factors' sizes."""
    for P in ("x^64", "y^64", "(x+1)^32*(x-1)^32", "y^60*x^64", "1/x^64"):
        EquationFamily(32, P)
    with pytest.raises(ValueError, match="n <= 32"):
        EquationFamily(33, "x")
    for P in ("x^65", "y^65", "x^64*x", "1/x^64/x", "y^2*y^63",
              "((x+1)^64)^64", "(1/x)^65", "x^64 + 1/x^64"):
        with pytest.raises(ValueError, match="degree [0-9]+ exceeds 64"):
            EquationFamily(2, P)
    EquationFamily(2, "2^2048 + 2^2048*x")
    for P in ("2^2049", "2^2048*2^2048*2", "(3/4)^1366"):
        with pytest.raises(ValueError, match="bits exceeds 4096"):
            EquationFamily(2, P)


def test_p3_chain_first_level(p3_chain):
    """A1, At1 and Q1 at mu = 1, and regraded over Q(mu) by the
    reference: Q1 by diag(1, mu) Q1 diag(mu, 1)."""
    U = p3_chain.unit_parts
    assert _strs(_from_parts(*U["A1"], "x")) == [
        ["(-2*x - 2)/(x)", "4/(x)"], ["(-x - 1)/(x)", "(2*x + 2)/(x)"]]
    assert _strs(_from_parts(*U["At1"], "x")) == [
        ["0", "(x + 1)/(x)"], ["4", "0"]]
    G = p3_graded_parts(p3_chain)
    A1 = [[str(x) for x in row] for row in _from_parts(*G["A1"], "x",
                                                      ("mu",))]
    assert A1 == [["(-2*x - 2*mu)/(x)", "4/(x)"],
                  ["(-mu*x - mu^2)/(x)", "(2*x + 2*mu)/(x)"]]
    expect = [["0", "1/mu + 1/x"], ["4*mu", "0"]]
    for ra, rb in zip(_from_parts(*G["At1"], "x", ("mu",)), expect):
        for a, b in zip(ra, rb):
            assert a == parse_ratfun(b, "x", ("mu",))
    assert p3_chain.Q1 == [[-2, 1], [-1, 0]]
    Q1 = [[str(x) for x in row] for row in mu_graded(p3_chain.Q1, (0, 1),
                                                     (-1, 0))]
    assert Q1 == [["-2*mu", "1"], ["-mu^2", "0"]]


def test_p3_chain_specialized(p3_chain):
    """At1 at mu = 1/2, by the regrade check_p3 takes at a rational mu
    and by the reference regrade specialized."""
    At1 = _from_parts(*p3_chain.unit_parts["At1"], "x")
    want = [["0", "(2*x + 1)/(x)"], ["2", "0"]]
    assert _strs(_at_mu(At1, (0, 1), (0, 1), 0, Fraction(1, 2))) == want
    sub = {"mu": Fraction(1, 2)}
    assert [[str(x.specialize(sub)) for x in row]
            for row in regraded(At1, (0, 1), (0, 1))] == want


def test_p3_gauge_inverses_are_closed_forms(p3_chain):
    """The reference gauges R_k over Q(mu) are the inverses of Q_k, Q1 is
    the chain's regraded, and At_k = R_k A_k Q_k on each constant part
    regraded."""
    one = FieldElem.from_fraction(1, ("mu",))
    Qs, Rs = p3_gauges(FieldElem.parameter("mu", ("mu",)))
    assert Qs[0] == mu_graded(p3_chain.Q1, (0, 1), (-1, 0))
    G = p3_graded_parts(p3_chain)
    for k, R, Q in zip((1, 2, 3), Rs, Qs):
        assert mat_mul(R, Q) == mat_identity(len(Q), one)
        for C, Ct in zip(G["A%d" % k], G["At%d" % k]):
            assert mat_mul(Q, Ct) == mat_mul(C, Q)


def _strs(M):
    return [[str(x) for x in row] for row in M]


def test_p3_low_orders_read_off_order_three():
    """A1 and A2 of the truncated order-3 system are those of orders 1
    and 2 prolonged on their own, byte for byte."""
    J3 = p3_order(3)
    for k in (1, 2):
        got, want = linearize(truncate(J3, k)), linearize(p3_order(k))
        assert got.vars == want.vars
        assert got.basis == want.basis and got.labels == want.labels
        assert _strs(got.matrix) == _strs(want.matrix)
        assert got.matrix == want.matrix
    assert truncate(J3, 3).rhs == J3.rhs


def test_truncate_rejects_a_higher_jet_on_a_lower_right_side():
    J = prolong(p2_field(), 2)
    J1 = prolong(p2_field(), 1)
    assert truncate(J, 1).vars == J1.vars and truncate(J, 1).rhs == J1.rhs
    J.rhs["y^(1)"] = MPoly.gen("y^(2)", J.vars, RatFun.const(1, "x"),
                               RatFun.zero("x"))
    with pytest.raises(ValueError, match=r"y\^\(1\)' involves y\^\(2\)"):
        truncate(J, 1)
    truncate(J, 2)
    with pytest.raises(ValueError, match="truncation order"):
        truncate(J, 3)


def test_p3_parts_match_ratfun_gauge(p3_chain):
    """The chain's (C_inf, C_0) of At_k, regraded, are the parts of
    R_k A_k Q_k, with A_k over Q(mu)(x) from the pass on the field over
    Q(mu)(x), and Q_k and R_k the reference gauges over Q(mu)."""
    params = ("mu",)
    G = p3_graded_parts(p3_chain)
    one = RatFun.const(1, "x", params)
    Qs, Rs = p3_gauges(FieldElem.parameter("mu", params))
    L = {k: linearize(p3_order(k)) for k in (1, 2, 3)}
    A = {1: L[1].matrix,
         2: _scale_conj(L[2].matrix, _P3_SCALES[2]),
         3: _scale_conj(_subsystem_matrices([L[3].matrix],
                                            _p3_third_rows(L[3]),
                                            one)[0],
                        _P3_SCALES[3])}
    for k in (1, 2, 3):
        R, Q = ([[x * one for x in row] for row in G[k - 1]]
                for G in (Rs, Qs))
        At = mat_mul(mat_mul(R, A[k]), Q)
        assert list(cinf_c0(At)) == list(G["At%d" % k])
        assert _strs(At) == _strs(_from_parts(*G["At%d" % k], "x", params))
        assert list(cinf_c0(A[k])) == list(G["A%d" % k])
    A1 = _from_parts(*G["A1"], "x", params)
    assert A[1] == A1 and _strs(A[1]) == _strs(A1)


def test_p3_psi_from_parts_matches_adjoint_action(p3_chain):
    """Psi and b from the constant parts at mu = 1, regraded by the N
    weights, are the adjoint action on, and the N-coordinates of, the
    block parts of At3 over Q(mu)(x); Psi1 and Psi2 with shifts 1 and -1
    give Psi = (1/mu + 1/x) Psi1 + 4 mu Psi2."""
    params = ("mu",)
    At3 = _from_parts(*p3_graded_parts(p3_chain)["At3"], "x", params)
    zero = RatFun.zero("x", params)
    diag = [list(r) for r in At3]
    for i in (7, 8):
        for j in range(4):
            diag[i][j] = zero
    Psi, Psi1, Psi2, b = p3_psi_and_b(p3_chain)
    n = (3, 2, 1, 0, -1)
    Psi, b = regraded(Psi, n, n), regraded([b], (0,), [-e for e in n])[0]
    Ns = _p3_n_basis()
    assert Psi == adjoint_action_matrix(diag, Ns)
    assert _strs(Psi) == _strs(adjoint_action_matrix(diag, Ns))
    Psi1, Psi2 = mu_graded(Psi1, n, n, 1), mu_graded(Psi2, n, n, -1)
    assert Psi1 == cinf_c0(Psi)[1]
    mu = FieldElem.parameter("mu", params)
    c1, c2 = 1 / mu + 1 / RatFun.gen("x", params), 4 * mu
    assert Psi == [[c1 * p1 + c2 * p2 for p1, p2 in zip(r1, r2)]
                   for r1, r2 in zip(Psi1, Psi2)]
    off = [[x - y for x, y in zip(ra, rd)] for ra, rd in zip(At3, diag)]
    rebuilt = [[sum((c * N[i][j] for c, N in zip(b, Ns)), zero)
                for j in range(9)] for i in range(9)]
    assert rebuilt == off


def _at_w_is_1_over_x(c):
    """c, a polynomial in mu and w, over Q(mu)(x) at w = 1/x."""
    params = ("mu",)
    x = RatFun.gen("x", params)
    mu = FieldElem.parameter("mu", params)
    assert isinstance(c, FieldElem) and not any(any(e) for e in c.den)
    return sum((v * mu ** a / x ** b for (a, b), v in c.num.items()),
               RatFun.zero("x", params))


def test_p3_w_field_is_p3_field_at_w_equal_1_over_x():
    W, X = p3_w_field(), p3_field()
    assert W.indep is None and W.params == ("mu", "w")
    assert W.deps == X.deps == ("y", "z")
    for c in W.deps:
        assert {e: _at_w_is_1_over_x(f)
                for e, f in W.components[c].terms.items()} \
            == X.components[c].terms


def test_p3_unit_field_is_the_w_field_at_mu_1():
    U = p3_unit_field()
    assert U.indep is None and U.params == ("w",)
    assert U.components == p3_w_field("1").components


def test_p3_weights_are_the_grading_tables():
    """s of A_k counts the z-jet factors of each basis element, and At_k
    shifts each Sym^j block by j (up to a constant)."""
    assert [p3_weights(k) for k in (1, 2, 3)] == [
        ([0, 1], [0, 1]),
        ([0, 1, 2, 0, 1], [0, 1, 2, 1, 2]),
        ([0, 1, 2, 3, 0, 1, 2, 0, 1], [0, 1, 2, 3, 1, 2, 3, 2, 3])]
    for k in (1, 2):
        L = linearize(truncate(p3_order(3), k))
        z = [i for i, v in enumerate(L.vars) if v.startswith("z")]
        assert [sum(e[i] for i in z) for e in L.basis] == p3_weights(k)[0]


def test_p3_regraded_chain_matches_the_q_mu_w_reference(p3_chain):
    """The chain runs at mu = 1; its unit parts regraded by p3_weights are
    the parts of the pass over Q(mu, w) with mu left in, for symbolic
    mu, and, with mu put into the field, at two rational mu, where the
    regrade check_p3 takes gives them too."""
    ref = p3_reference_parts()
    G = p3_graded_parts(p3_chain)
    assert set(ref) == set(G) == set(p3_chain.unit_parts)
    for name, parts in ref.items():
        assert list(parts) == list(G[name])
        assert [_strs(C) for C in parts] == [_strs(C) for C in G[name]]
    for m in ("1/2", "-7/3"):
        sub = {"mu": Fraction(m)}
        for name, parts in p3_reference_parts(m).items():
            assert list(parts) == [
                [[x.specialize(sub) for x in row] for row in C]
                for C in G[name]]
            s = p3_weights(int(name[-1]))[name.startswith("At")]
            unit = _from_parts(*p3_chain.unit_parts[name], "x")
            assert list(parts) == list(cinf_c0(
                _at_mu(unit, s, s, 0, Fraction(m))))


def test_mu_graded_builds_monomials():
    G = mu_graded([[3, 0], [Fraction(-1, 2), Fraction(4, 2)]], (0, 2),
                  (1, 0), 1)
    assert _strs(G) == [["3", "0"], ["-1/2*mu^2", "2*mu^3"]]
    mu = FieldElem.parameter("mu", ("mu",))
    assert G == [[3 * mu ** 0, 0 * mu], [-mu ** 2 / 2, 2 * mu ** 3]]
    assert mu_graded([[5]], (0,), (2,)) == [[5 / mu ** 2]]
    assert type(G[1][1].num[(3,)]) is int


def test_check_p3_builds_no_two_parameter_field_element(monkeypatch):
    """With the chain built at mu = 1 over Q(w), no FieldElem of check_p3
    has more than one parameter."""
    seen = set()
    init = FieldElem.__init__

    def spy(self, params, *args, **kw):
        seen.add(tuple(params))
        init(self, params, *args, **kw)

    monkeypatch.setattr(FieldElem, "__init__", spy)
    check_p3([Fraction(1, 2), Fraction(-7, 3)])
    assert seen and max(map(len, seen)) == 1


def test_w_parts_reads_off_the_w_coefficients():
    params = ("mu", "w")
    mu, w = (FieldElem.parameter(p, params) for p in params)
    M = [[mu - mu, 3 + 2 * w, mu * w],
         [(mu * mu + 1) / 2 - w / 3, w, mu]]
    Ci, C0 = _w_parts(M)
    m = FieldElem.parameter("mu", ("mu",))
    assert Ci == [[0, 3, 0], [(m * m + 1) / 2, 0, m]]
    assert C0 == [[0, 2, m], [Fraction(-1, 3), 1, 0]]
    assert all(c.params == ("mu",) for r in Ci + C0 for c in r)
    assert _from_parts(Ci, C0, "x", ("mu",)) == [
        [_at_w_is_1_over_x(f) for f in r] for r in M]
    for bad in (w * w, 1 / mu, w / (w + 1)):
        with pytest.raises(ValueError, match="not of the form"):
            _w_parts([[bad]])
    # with w the only parameter the parts are over Q
    w = FieldElem.parameter("w", ("w",))
    assert _w_parts([[w / 2 - 3, 4 + w - w]]) == ([[-3, 4]],
                                                  [[Fraction(1, 2), 0]])


def test_p3_chain_takes_no_gcd_and_no_normal_restriction(monkeypatch):
    """The chain runs on scalar coefficients in Q(w) and Q: no normal
    restriction, no Poly gcd and no RatFun arithmetic at all."""
    seen = set()

    def spy(name):
        orig = getattr(RatFun, name)

        def wrapped(self, *args):
            seen.add(self.params)
            return orig(self, *args)
        monkeypatch.setattr(RatFun, name, wrapped)

    for name in ("__add__", "__mul__", "__truediv__", "derivative"):
        spy(name)

    def no_gcd(self, other):
        raise AssertionError("gcd of %s and %s" % (self, other))

    monkeypatch.setattr(Poly, "gcd", no_gcd)
    monkeypatch.setattr(irred.jets, "normal_restrict", None)
    build_p3_chain()
    assert seen == set()


def test_cinf_c0_and_from_parts_are_inverse():
    params = ("mu",)
    x = RatFun.gen("x", params)
    mu = FieldElem.parameter("mu", params)
    M = [[x - x, 3 + x / x, mu / x, (2 * mu * x - 5) / x],
         [(mu + 1) / (mu * x), x / x - 1 + 1 / x, x - x + mu, (x + mu) / x]]
    Ci, C0 = cinf_c0(M)
    rebuilt = _from_parts(Ci, C0, "x", params)
    assert rebuilt == M and _strs(rebuilt) == _strs(M)
    for bad in (x, 1 / (x * x), 1 / (x + 1), (x * x + 1) / x):
        with pytest.raises(ValueError, match="not of the form"):
            cinf_c0([[bad]])


def test_mpoly_power_is_repeated_multiplication():
    x = RatFun.gen("x")
    zero, one = RatFun.zero("x"), RatFun.const(1, "x")
    y = MPoly.gen("y", ("y", "z"), one, zero)
    z = MPoly.gen("z", ("y", "z"), one, zero)
    base = y * MPoly.const(x, ("y", "z"), zero) - z.scale(1 / (x + 1)) + y
    unit = MPoly.const(one, ("y", "z"), zero)
    want = unit
    for k in range(8):
        assert base ** k == want
        assert str(base ** k) == str(want)
        want = want * base
    with pytest.raises(ValueError):
        base ** -1


def test_mpoly_ring_ops_cancel():
    x = RatFun.gen("x")
    zero, one = RatFun.zero("x"), RatFun.const(1, "x")
    y = MPoly.gen("y", ("y", "z"), one, zero)
    z = MPoly.gen("z", ("y", "z"), one, zero).scale(x)
    f = y * y - z + MPoly.const(x / (x - 1), ("y", "z"), zero)
    assert (f + (-f)).is_zero()
    assert (f - f).terms == {}
    # (y + x z)(y - x z): the y*z terms cancel
    assert ((y + z) * (y - z)).terms == {(2, 0): one, (0, 2): -x * x}
    assert f.diff("y") == y.scale(2)


def test_subsystem_matrix_eliminates_once(rref_calls):
    from irred.linear import mat_mul
    t = RatFun.gen("t")
    one = RatFun.const(1, "t")
    zero = RatFun.zero("t")
    full = [[t, one, zero, zero], [zero, 1 / t, zero, zero],
            [zero, t, 2 * one, zero], [one, t, zero, t * t]]
    other = [[one, zero, zero, zero], [t, zero, zero, zero],
             [zero, zero, t, zero], [zero, zero, zero, one]]
    # rows 0..2 of S span e0, e1, e2, whose span is invariant under both
    S = [[one, one, zero, zero], [zero, one, zero, zero],
         [zero, t, one, zero]]
    B, C = _subsystem_matrices([full, other], S, one)
    assert rref_calls == [4]
    assert mat_mul(B, S) == mat_mul(S, full)
    assert mat_mul(C, S) == mat_mul(S, other)
    with pytest.raises(ValueError, match="not invariant"):
        _subsystem_matrices([full], [[zero, zero, zero, one]], one)

"""Exact arithmetic: parameter field, polynomials, rational functions."""

import itertools
import operator
import random
from fractions import Fraction

import pytest

from irred.field import FieldElem, mp_gcd, scalar
from irred.mpoly import (dense_add, dense_divmod, dense_gcd, dense_mul, mp_add,
                         mp_mul, mp_neg, mp_scale, power)
from irred.grammar import ParseError, parse_ratfun
from irred.poly import Poly, RatFun, ratfun
from oracles import canonical_q, euclid_gcd, same_field


def test_field_elem_arithmetic():
    mu = FieldElem.parameter("mu", ("mu",))
    e = (mu + 1) * (mu - 1)
    assert e == mu * mu - 1
    assert (e / (mu - 1)) == mu + 1
    assert str(mu ** 2 / (2 * mu)) == "(1/2)*mu" or (mu ** 2 / (2 * mu)) == mu / 2


def test_field_elem_specialize():
    mu = FieldElem.parameter("mu", ("mu",))
    v = (mu ** 2 + 1) / (mu - 2)
    got = v.specialize({"mu": Fraction(3)})
    assert type(got) is int and got == 10
    got = v.specialize({"mu": 3})
    assert type(got) is int and got == 10
    got = v.specialize({"mu": Fraction(1, 2)})
    assert type(got) is Fraction and got == Fraction(-5, 6)


def test_floats_are_refused_as_constants():
    """A float is not read as its binary fraction: check_p3([0.1]) would
    otherwise certify mu = 3602879701896397/36028797018963968."""
    from irred.verdict import check_p3
    mu = FieldElem.parameter("mu", ("mu",))
    for call in (lambda: scalar(0.1), lambda: scalar(2.0),
                 lambda: scalar(0.5, ("mu",)),
                 lambda: FieldElem.from_fraction(0.1, ("mu",)),
                 lambda: (mu + 1).specialize({"mu": 0.1}),
                 lambda: check_p3([0.1])):
        with pytest.raises(ValueError, match="float is not an exact"):
            call()


def test_qq_roundtrip():
    """A scalar of Q is an int when integral and a Fraction otherwise."""
    assert type(scalar(Fraction(3, 4))) is Fraction
    assert scalar(Fraction(3, 4)) == Fraction(3, 4)
    assert type(scalar(0)) is int and not scalar(0)
    assert type(scalar(Fraction(6, 3))) is int and scalar(Fraction(6, 3)) == 2
    assert type(scalar(True)) is int and scalar(True) == 1
    assert isinstance(scalar(2, ("mu",)), FieldElem)


def test_field_elem_over_q_raises():
    with pytest.raises(ValueError):
        FieldElem((), {(): Fraction(1)})
    with pytest.raises(ValueError):
        FieldElem.from_fraction(1, ())


def test_q_coefficients_are_fractions():
    """Over Q every Poly and RatFun coefficient is an int when integral
    and a Fraction otherwise: an integral Fraction is taken as its int on
    construction, and no int / int gives a float."""
    def canonical(p):
        return all(canonical_q(c) for c in p.coeffs)

    def types(p):
        return [type(c) for c in p.coeffs]

    a = Poly([1, 2, 3], "x")
    b = Poly([Fraction(1, 2), -1], "x")
    q, r = a.divmod(b)
    for p in (a, b, a + b, a - b, a * b, q, r, a.gcd(b), (a * b).gcd(a),
              a.monic(), a.derivative(), 2 - a, a * 3, Poly.gen("x")):
        assert canonical(p), p
    assert types(a) == [int] * 3 and types(b) == [Fraction, int]
    assert types(Poly([Fraction(4, 2), Fraction(1, 3)], "x")) == [int, Fraction]
    assert types(a.monic()) == [Fraction, Fraction, int]
    assert types(b * 2) == [int, int] and types(b.monic()) == [Fraction, int]
    assert types(q) == [Fraction, int] and types(r) == [Fraction]
    mu = FieldElem.parameter("mu", ("mu",))
    v = mu / 3 + 1
    assert type(v.specialize({"mu": 2})) is Fraction
    assert type(v.specialize({"mu": 3})) is int
    assert types(Poly([mu, 1, v], "x", ("mu",)).specialize({"mu": 3})) \
        == [int] * 3
    f, g = RatFun(a, b), RatFun(b, a * a)
    for h in (f + g, f - g, f * g, f / g, f / 3, 1 / f, f + 1):
        assert canonical(h.num) and canonical(h.den), h
    assert types(RatFun(a, Poly([2, 2], "x")).den) == [int, int]
    with pytest.raises(ValueError):
        Poly([1.5], "x")
    with pytest.raises(ValueError):
        Poly([mu], "x")


def test_mp_gcd_one_parameter():
    mu = FieldElem.parameter("mu", ("mu",))
    a = (mu + 1) ** 3 * (mu - 2)
    b = (mu + 1) * (mu + 3)
    g = mp_gcd(a.num, b.num, 1)
    # monic gcd is mu + 1
    assert g == (mu + 1).num


def test_poly_divmod_and_gcd():
    t = Poly.gen("t")
    p = (t ** 2 - 1) * (t + 3)
    q, r = p.divmod(t - 1)
    assert r.is_zero()
    assert q == (t + 1) * (t + 3)
    assert p.gcd(t ** 2 - 1).monic() == (t ** 2 - 1).monic()


def test_poly_shift():
    t = Poly.gen("t")
    p = t ** 2 + t
    s = p.shift(Fraction(1))
    # p(t + 1) = t^2 + 3t + 2
    assert s == t ** 2 + 3 * t + 2


def test_squarefree_decomposition():
    t = Poly.gen("t")
    p = (t - 1) ** 2 * (t + 2)
    parts = p.squarefree_decomposition()
    by_mult = {m: f for f, m in parts}
    assert by_mult[2].monic() == (t - 1).monic()
    assert by_mult[1].monic() == (t + 2).monic()


def test_rational_roots():
    t = Poly.gen("t")
    p = (t - 2) * (2 * t + 1) * (t ** 2 + 1)
    roots, rem = p.rational_roots()
    assert sorted(roots) == [Fraction(-1, 2), Fraction(2)]
    assert rem.degree() == 2


def test_rational_roots_match_sympy():
    """rational_roots equals sympy.roots over QQ, with planted roots p/q
    whose p and q run to 10^15 and 10^12, so no divisor search could end."""
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    x = sympy.Symbol("x")
    planted = st.lists(st.builds(Fraction, st.integers(-10 ** 15, 10 ** 15),
                                 st.integers(1, 10 ** 12)),
                       max_size=4)
    cofactor = st.lists(st.integers(-5, 5), min_size=1, max_size=3).filter(
        lambda c: c[-1] != 0)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(planted, cofactor, st.integers(0, 2))
    def check(roots, cof, zeros):
        t = Poly.gen("x")
        p = Poly([Fraction(c) for c in cof], "x") * t ** zeros
        for r in roots:
            p = p * Poly([-r.numerator, r.denominator], "x")
        got, rem = p.rational_roots()
        sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                         for c in reversed(p.coeffs)], x, domain=sympy.QQ)
        want = sympy.roots(sp, filter="Q")
        assert got == sorted(Fraction(int(r.p), int(r.q))
                             for r, k in want.items() for _ in range(k))
        for r in got:
            rem = rem * Poly([-r, 1], "x")
        assert rem == p

    check()


def test_integer_roots_match_sympy():
    """integer_roots equals the integer roots of sympy.roots over QQ, with
    multiplicity, on a non-monic polynomial with planted integer roots up
    to 10^15 and planted roots p/q, q up to 10^12, that it must skip; a
    repeated half-integer root must not be taken for a bisection point."""
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    x = sympy.Symbol("x")
    ints = st.lists(st.tuples(st.integers(-10 ** 15, 10 ** 15),
                              st.integers(1, 2)), max_size=3)
    small_or_big = st.integers(-6, 6) | st.integers(-10 ** 15, 10 ** 15)
    fracs = st.lists(st.tuples(
        st.builds(Fraction, small_or_big,
                  st.integers(2, 4) | st.integers(2, 10 ** 12)),
        st.integers(1, 2)), max_size=3)
    cofactor = st.lists(st.integers(-5, 5), min_size=1, max_size=3).filter(
        lambda c: c[-1] != 0)
    scale = st.builds(Fraction, st.integers(1, 50), st.integers(1, 50))

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(ints, fracs, cofactor, scale)
    def check(int_roots, frac_roots, cof, c):
        p = Poly([c * k for k in cof], "x")
        for r, k in int_roots:
            p = p * Poly([-r, 1], "x") ** k
        for r, k in frac_roots:
            p = p * Poly([-r.numerator, r.denominator], "x") ** k
        got = p.integer_roots()
        sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                         for c in reversed(p.coeffs)], x, domain=sympy.QQ)
        want = sympy.roots(sp, filter="Z")
        assert got == sorted(int(r) for r, k in want.items()
                             for _ in range(k))
        assert all(type(r) is int for r in got)

    check()
    t = Poly.gen("x")
    assert ((2 * t - 1) ** 2 * (t - 1) ** 2).integer_roots() == [1, 1]


def test_ratfun_normalization():
    t = Poly.gen("t")
    f = RatFun((t ** 2 - 1), (t - 1))
    assert f.is_polynomial()
    assert f.as_poly() == t + 1


def test_ratfun_pole_orders():
    f = parse_ratfun("(t + 2)/(t^2*(t-1))")
    factors, inf_order = f.pole_orders()
    orders = sorted(factors.values())
    assert orders == [1, 2]
    # order of vanishing at infinity: deg den - deg num
    assert inf_order == 2


def test_grammar_roundtrip():
    samples = [
        "t^2 + 1",
        "(3*t - 1)/(t^2)",
        "1/2",
        "(t^3 + (1/3)*t)/(t - 5)",
    ]
    for s in samples:
        f = parse_ratfun(s)
        assert parse_ratfun(str(f)) == f


def test_grammar_roundtrip_with_params():
    f = parse_ratfun("(4*mu + 1)*mu^4/x^2", "x", ("mu",))
    assert parse_ratfun(str(f), "x", ("mu",)) == f


def test_grammar_rejects_unknown_name():
    with pytest.raises(ParseError):
        parse_ratfun("t + w")


def test_grammar_power_budget():
    """A power is refused before it is computed when its degree, in the
    variable or in a parameter, could pass 64 or an integer in it 4096
    bits; a product is refused when the degrees of its factors add up
    past 64 (tests/test_grammar.py has the sums and quotients)."""
    assert parse_ratfun("2/t^64").den.degree() == 64
    assert parse_ratfun("(mu*t + 1)^64", "t", ("mu",)).num.degree() == 64
    assert parse_ratfun("t^32*t^32").num.degree() == 64
    assert parse_ratfun("3^1024").constant_value() == 3 ** 1024
    for text, msg in [("2/t^200000", "degree 200000 exceeds 64"),
                      ("t^40*t^40", "degree 80 exceeds 64"),
                      ("(t^2 + 1)^-33", "degree 66 exceeds 64"),
                      ("mu^65", "degree 65 exceeds 64"),
                      ("2^100000000", "200000000 bits exceeds 4096"),
                      ("(1/3)^2049", "4098 bits exceeds 4096")]:
        with pytest.raises(ParseError, match=msg):
            parse_ratfun(text, "t", ("mu",))


def test_parameter_ratfun_subtraction_is_fast():
    # large parameter-polynomial coefficients must reduce quickly
    a = parse_ratfun(
        "8192*mu^4/x + 5120*(4*mu + 1)*mu^4/x^2"
        " + 512*(24*mu^2 + 16*mu - 7)*mu^4/x^3", "x", ("mu",))
    b = parse_ratfun("256*(31*mu + 3)*mu^4/x^4", "x", ("mu",))
    c = a - b + parse_ratfun("768*mu^4/x^5", "x", ("mu",))
    assert c.den.degree() == 5


def test_ratfun_coercion():
    f = ratfun(3, "t")
    assert f.is_constant()
    assert type(f.constant_value()) is int and f.constant_value() == 3
    f = ratfun(Fraction(6, 4), "t")
    assert type(f.constant_value()) is Fraction
    assert f.constant_value() == Fraction(3, 2)
    assert type(ratfun(Fraction(6, 3), "t").constant_value()) is int


# ---------------------------------------------------------------------------
# the shared sparse kernels and power (irred.mpoly)

def _dense_add(f, g, zero):
    out = {}
    for e in set(f) | set(g):
        s = f.get(e, zero) + g.get(e, zero)
        if s:
            out[e] = s
    return out


def _dense_mul(f, g, zero):
    """Coefficient of every exponent in the bounding box, by convolution."""
    if not f or not g:
        return {}
    nv = len(next(iter(f)))
    top = [max(e[i] for e in f) + max(e[i] for e in g) for i in range(nv)]
    out = {}
    for e in itertools.product(*(range(d + 1) for d in top)):
        s = zero
        for e1, c1 in f.items():
            e2 = tuple(a - b for a, b in zip(e, e1))
            if e2 in g:
                s = s + c1 * g[e2]
        if s:
            out[e] = s
    return out


def _random_dict(rng, coeff):
    out = {}
    for _ in range(rng.randint(0, 5)):
        out[(rng.randint(0, 3), rng.randint(0, 2))] = coeff(rng)
    return out


def _rand_fraction(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def _rand_ratfun(rng):
    x = RatFun.gen("x")
    return (rng.randint(1, 3) * x - rng.randint(-2, 2)) / (x + rng.randint(1, 4))


def _rand_mu(rng):
    mu = FieldElem.parameter("mu", ("mu",))
    return ((rng.choice([-3, -2, -1, 1, 2, 3]) * mu + rng.randint(-2, 2))
            / (mu + rng.randint(1, 4)))


# the dense kernels against references written out in full, each slot
# filled from an explicit zero

def _trimmed(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _naive_add(a, b, zero):
    n = max(len(a), len(b))
    return _trimmed([(a[i] if i < len(a) else zero)
                     + (b[i] if i < len(b) else zero) for i in range(n)])


def _naive_mul(a, b, zero):
    out = [zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trimmed(out)


def _rand_dense(rng, coeff, zero, top=3):
    """Up to top + 1 slots, some zero, the last one possibly zero too."""
    return [zero if rng.random() < 0.3 else coeff(rng)
            for _ in range(rng.randint(0, top + 1))]


def _check_dense(a, b, zero):
    one = zero + 1
    assert dense_add(a, b) == _naive_add(a, b, zero)
    prod = dense_mul(a, b)
    assert prod == _naive_mul(a, b, zero)
    assert all(same_field(c, zero) for c in prod)
    if _trimmed(b):
        q, r = dense_divmod(a, b)
        assert _naive_add(_naive_mul(q, b, zero), r, zero) == _trimmed(a)
        assert len(r) < len(_trimmed(b))
        assert q == _trimmed(q) and r == _trimmed(r)
    else:
        with pytest.raises(ZeroDivisionError):
            dense_divmod(a, b)
    g = dense_gcd(a, b)
    if not _trimmed(a) and not _trimmed(b):
        assert g == []
        return g
    assert g[-1] == one
    cofactors = []
    for f in (a, b):
        cof, rem = dense_divmod(f, g)
        assert rem == []
        cofactors.append(cof)
    assert dense_gcd(*cofactors) == [one]
    return g


@pytest.mark.parametrize("coeff,zero", [
    (_rand_fraction, Fraction(0)),
    (_rand_mu, FieldElem.from_fraction(0, ("mu",))),
    (_rand_ratfun, RatFun.zero("x"))], ids=["Q", "mu", "RatFun"])
def test_kernels_match_dense_reference(coeff, zero):
    rng = random.Random(7)
    for _ in range(40):
        f, g = _random_dict(rng, coeff), _random_dict(rng, coeff)
        assert mp_add(f, g) == _dense_add(f, g, zero)
        assert mp_mul(f, g) == _dense_mul(f, g, zero)
        assert mp_add(f, mp_neg(f)) == {}
        c = coeff(rng)
        assert mp_scale(f, c) == _dense_mul(f, {(0, 0): c}, zero)
        assert mp_scale(f, zero) == {}
    for _ in range(20):
        a, b = _rand_dense(rng, coeff, zero), _rand_dense(rng, coeff, zero)
        _check_dense(a, b, zero)
        # a common factor the gcd must keep
        h = _rand_dense(rng, coeff, zero, 1) + [coeff(rng)]
        g = _check_dense(_naive_mul(h, a, zero), _naive_mul(h, b, zero), zero)
        if g:
            assert dense_divmod(g, h)[1] == []


@pytest.mark.parametrize("zero", [
    Fraction(0), FieldElem.from_fraction(0, ("mu",)), RatFun.zero("x")],
    ids=["Q", "mu", "RatFun"])
def test_dense_kernel_edge_cases(zero):
    one = zero + 1
    x2m1 = [-one, zero, one]                       # x^2 - 1
    # zero operands
    assert dense_add([], []) == [] and dense_add(x2m1, []) == x2m1
    assert dense_mul([], x2m1) == [] and dense_mul(x2m1, []) == []
    assert dense_divmod([], x2m1) == ([], [])
    assert dense_gcd([], []) == []
    assert dense_gcd([], [2 * one, 4 * one]) == [one / 2, one]
    with pytest.raises(ZeroDivisionError):
        dense_divmod(x2m1, [zero])
    # internal zeros: (1 + x^3) x and (1 + x^3) + x^2
    assert dense_mul([one, zero, zero, one], [zero, one]) == [
        zero, one, zero, zero, one]
    assert dense_add([one, zero, zero, one], [zero, zero, one]) == [
        one, zero, one, one]
    # cancellation to zero, also of the top slots only
    assert dense_add(x2m1, [one, zero, -one]) == []
    assert dense_add(x2m1, [one, one, -one]) == [zero, one]
    assert dense_divmod(dense_mul(x2m1, [one, one]), x2m1) == ([one, one], [])
    # divisor of higher degree than the dividend
    assert dense_divmod([one, one], x2m1) == ([], [one, one])
    assert dense_gcd([one, one], x2m1) == [one, one]
    assert dense_gcd([-one, one], [one, one]) == [one]


def test_dense_division_matches_sympy():
    """dense_divmod and dense_gcd over Q equal sympy div and gcd."""
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    x = sympy.Symbol("x")

    def to_sympy(a):
        return sympy.Poly(list(reversed(a)) or [0], x, domain=sympy.QQ)

    def from_sympy(p):
        return _trimmed(Fraction(int(c.p), int(c.q))
                        for c in reversed(p.all_coeffs()))

    coeffs = st.lists(st.builds(Fraction, st.integers(-4, 4),
                                st.integers(1, 3)), max_size=5)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(coeffs, coeffs, coeffs)
    def check(h, u, v):
        a = from_sympy(to_sympy(h) * to_sympy(u))
        b = from_sympy(to_sympy(h) * to_sympy(v))
        assert dense_gcd(a, b) == from_sympy(sympy.gcd(to_sympy(a),
                                                       to_sympy(b)))
        if b:
            q, r = sympy.div(to_sympy(a), to_sympy(b))
            assert dense_divmod(a, b) == (from_sympy(q), from_sympy(r))

    check()


@pytest.mark.parametrize("zero", [
    Fraction(0), FieldElem.from_fraction(0, ("mu",))], ids=["Q", "mu"])
def test_dense_gcd_of_a_monomial_matches_euclid(zero):
    """With a monomial operand c x^k, dense_gcd's closed form x^j, j the
    smaller of k and the other's order at 0, is Euclid's gcd."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ints = st.integers(-4, 4)
    if isinstance(zero, FieldElem):
        mu = FieldElem.parameter("mu", ("mu",))
        coeff = st.builds(lambda a, b, d: (a + b * mu) / d, ints, ints,
                          st.integers(1, 3))
    else:
        coeff = st.builds(Fraction, ints, st.integers(1, 3))
    slot = st.one_of(st.just(zero), coeff)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(coeff.filter(bool), st.integers(0, 4),
                      st.lists(slot, max_size=7))
    def check(c, k, other):
        m = [zero] * k + [c]
        for a, b in ((m, other), (other, m)):
            g = dense_gcd(a, b)
            assert g == euclid_gcd(a, b)
            assert all(same_field(x, zero) for x in g)

    check()


def test_kernels_drop_cancelled_terms():
    for one in (Fraction(1), RatFun.const(1, "x")):
        s = {(1, 0): one, (0, 1): one}             # x + y
        d = {(1, 0): one, (0, 1): -one}            # x - y
        assert mp_add(s, mp_neg(s)) == {}
        assert mp_mul(s, d) == {(2, 0): one, (0, 2): -one}


def _kfold(x, k, one):
    out = one
    for _ in range(k):
        out = out * x
    return out


def test_power_is_repeated_multiplication():
    mu = FieldElem.parameter("mu", ("mu",))
    t = Poly.gen("t")
    x = RatFun.gen("x")
    cases = [((mu + 1) / (2 * mu - 3), FieldElem.from_fraction(1, ("mu",))),
             (t - Fraction(2, 3), Poly.const(1)),
             ((x ** 2 - 1) / (3 * x + 1), RatFun.const(1, "x"))]
    for base, one in cases:
        for k in range(8):
            want = _kfold(base, k, one)
            assert base ** k == want
            assert str(base ** k) == str(want)
            assert power(base, k, one) == want


def test_negative_powers():
    mu = FieldElem.parameter("mu", ("mu",))
    x = RatFun.gen("x")
    for base in ((mu + 1) / (2 * mu - 3), (x ** 2 - 1) / (3 * x + 1)):
        for k in range(1, 4):
            assert base ** -k == 1 / base ** k
    with pytest.raises(ValueError):
        Poly.gen("t") ** -1
    with pytest.raises(ValueError):
        power(Fraction(2), -1, Fraction(1))
    assert parse_ratfun("x^-2", "x") == 1 / x ** 2


def test_field_ops_match_sympy_cancel():
    """FieldElem + - * / over Q(a, b) equal sympy.cancel of the same."""
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    params = ("a", "b")
    sa, sb = sympy.symbols(params)

    def to_sympy(f):
        def poly(d):
            return sum(c * sa ** i * sb ** j for (i, j), c in d.items())
        return poly(f.num) / poly(f.den)

    terms = st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(-3, 3).filter(bool), min_size=1, max_size=3)

    def elem(num, den):
        return FieldElem(params, {e: Fraction(c) for e, c in num.items()},
                         {e: Fraction(c) for e, c in den.items()})

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(terms, terms, terms, terms,
                      st.sampled_from("+-*/"))
    def check(n1, d1, n2, d2, op):
        f, g = elem(n1, d1), elem(n2, d2)
        if op == "/" and not g:
            return
        got = {"+": f + g, "-": f - g, "*": f * g, "/": f / g}[op]
        sf, sg = to_sympy(f), to_sympy(g)
        want = {"+": sf + sg, "-": sf - sg, "*": sf * sg, "/": sf / sg}[op]
        assert sympy.cancel(to_sympy(got) - want) == 0
        # reduced: numerator and denominator share no factor
        num, den = sympy.fraction(to_sympy(got))
        assert sympy.gcd(sympy.expand(num), sympy.expand(den)).is_number

    check()

    # one parameter, with a factor h planted in both denominators and a
    # factor p in the first numerator and the second denominator, so
    # that Henrici's rules have something to cancel
    smu = sympy.Symbol("mu")
    upoly = st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any)
    factor = st.lists(st.integers(-3, 3), min_size=1, max_size=2).map(
        lambda cs: cs + [1])

    def dense(cs):
        return {(i,): Fraction(c) for i, c in enumerate(cs) if c}

    def mu_sympy(d):
        return sum(c * smu ** e for (e,), c in d.items())

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(upoly, upoly, upoly, upoly, factor, factor,
                      st.sampled_from("+-*/"))
    def check_mu(n1, d1, n2, d2, h, p, op):
        n1, d1, n2, d2, h, p = map(dense, (n1, d1, n2, d2, h, p))
        f = FieldElem(("mu",), mp_mul(n1, p), mp_mul(d1, h))
        g = FieldElem(("mu",), n2, mp_mul(mp_mul(d2, h), p))
        got = _OPS[op](f, g)
        a, b, c, d = f.num, f.den, g.num, g.den
        num, den = {"+": (mp_add(mp_mul(a, d), mp_mul(c, b)), mp_mul(b, d)),
                    "-": (mp_add(mp_mul(a, d), mp_neg(mp_mul(c, b))),
                          mp_mul(b, d)),
                    "*": (mp_mul(a, c), mp_mul(b, d)),
                    "/": (mp_mul(a, d), mp_mul(b, c))}[op]
        old = FieldElem(("mu",), num, den)         # one full-gcd reduction
        assert got == old and str(got) == str(old)
        assert max(got.den.items())[1] == 1
        want = mu_sympy(num) / mu_sympy(den)
        assert sympy.cancel(mu_sympy(got.num) / mu_sympy(got.den) - want) == 0
        assert sympy.gcd(mu_sympy(got.num), mu_sympy(got.den)).is_number

    check_mu()


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv}


def _old_route(op, f, g):
    """f op g by one full-gcd reduction of the unreduced fraction."""
    a, b, c, d = f.num, f.den, g.num, g.den
    num, den = {"+": (a * d + c * b, b * d), "-": (a * d - c * b, b * d),
                "*": (a * c, b * d), "/": (a * d, b * c)}[op]
    return RatFun(num, den)


@pytest.mark.parametrize("params", [(), ("mu",)], ids=["Q", "mu"])
def test_ratfun_ops_match_full_gcd_and_sympy(params):
    """RatFun + - * / by Henrici's rules equal sympy.cancel and, by ==
    and str, the full-gcd reduction of the unreduced result."""
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    sx, smu = sympy.symbols("x mu")
    if params:
        mu = FieldElem.parameter("mu", params)
        coeff = st.builds(lambda a, b: a * mu + b,
                          st.integers(-2, 2), st.integers(-2, 2))
    else:
        coeff = st.integers(-3, 3).map(Fraction)
    # degree at most 1, and monic factors of degree 1, planted below: the
    # full-gcd reference runs Euclid over Q(mu), whose coefficients swell
    poly = st.lists(coeff, max_size=2).map(lambda cs: Poly(cs, "x", params))
    nonzero = poly.filter(bool)
    factor = coeff.map(lambda c: Poly([c, 1], "x", params))

    def field_sympy(c):
        if isinstance(c, (int, Fraction)):
            return sympy.Rational(c.numerator, c.denominator)

        def part(d):
            return sum(k * smu ** e[0] if e else k for e, k in d.items())
        return part(c.num) / part(c.den)

    def to_sympy(r):
        def part(p):
            return sum(field_sympy(c) * sx ** i for i, c in enumerate(p.coeffs))
        return part(r.num) / part(r.den)

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(poly, nonzero, poly, nonzero, factor, factor,
                      st.booleans(), st.sampled_from("+-*/"))
    def check(n1, d1, n2, d2, h, p, cancel, op):
        # h divides both denominators; p the first numerator and the
        # second denominator
        f = RatFun(n1 * p, d1 * h)
        g = RatFun(n2, d2 * h * p)
        if cancel:
            # f + g = g0 then drops factors of f's denominator, so gcd(t, g)
            # is not 1 in Henrici's sum
            g = _old_route("-", g, f)
        if op == "/" and not g:
            return
        got = _OPS[op](f, g)
        old = _old_route(op, f, g)
        assert got == old and str(got) == str(old)
        assert got.den.leading() == 1
        assert got.num.gcd(got.den).degree() == 0
        want = sympy.cancel(_OPS[op](to_sympy(f), to_sympy(g)))
        assert sympy.cancel(to_sympy(got)) == want

    check()


@pytest.fixture
def gcd_calls(monkeypatch):
    """Calls of Poly.gcd and of irred.field.mp_gcd, by name."""
    import irred.field
    calls = {"Poly.gcd": 0, "mp_gcd": 0}
    poly_gcd, mp = Poly.gcd, irred.field.mp_gcd

    def counting_gcd(self, other):
        calls["Poly.gcd"] += 1
        return poly_gcd(self, other)

    def counting_mp(*args):
        calls["mp_gcd"] += 1
        return mp(*args)

    monkeypatch.setattr(Poly, "gcd", counting_gcd)
    monkeypatch.setattr(irred.field, "mp_gcd", counting_mp)
    return calls


def test_polynomial_ratfun_ops_take_no_gcd(gcd_calls):
    mu = FieldElem.parameter("mu", ("mu",))
    x = RatFun.gen("x", ("mu",))
    f, g = x ** 2 + mu, mu * x - 1
    gcd_calls.update({"Poly.gcd": 0, "mp_gcd": 0})
    f + g
    f * g
    assert gcd_calls == {"Poly.gcd": 0, "mp_gcd": 0}


def test_sum_of_parameter_polynomials_takes_no_gcd(gcd_calls):
    mu = FieldElem.parameter("mu", ("mu",))
    a, b = mu ** 2 + 3 * mu, 2 * mu - 1
    gcd_calls.update({"Poly.gcd": 0, "mp_gcd": 0})
    assert a + b == mu ** 2 + 5 * mu - 1
    assert gcd_calls["mp_gcd"] == 0


def test_zero_ratfun_takes_no_gcd(gcd_calls):
    den = Poly.gen("x") ** 2 + 1
    f = RatFun(Poly.zero("x"), den)
    assert gcd_calls["Poly.gcd"] == 0
    assert f == 0 and f.den == 1

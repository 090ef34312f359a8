"""Exponential solutions, log detection, SL2 certification."""

from fractions import Fraction

import pytest

from irred.linops import parse_operator
from irred.screen import (TAG_REDUCIBLE, TAG_SL2, TAG_UNDETERMINED,
                          UnsupportedOperator, certify_sl2,
                          exponential_solutions_restricted, has_log_at)


def l2(mu):
    return parse_operator("D^2 - 4 - %s/x" % (4 * Fraction(mu)), "x")


def test_airy_certified_sl2():
    v = certify_sl2(parse_operator("D^2 - t"))
    assert v.tag == TAG_SL2


def test_d2_is_reducible():
    v = certify_sl2(parse_operator("D^2"))
    assert v.tag == TAG_REDUCIBLE
    assert v.witness is not None


def test_nonzero_trace_undetermined():
    v = certify_sl2(parse_operator("D^2 + D - 1"))
    assert v.tag == TAG_UNDETERMINED


def test_exponential_witness_integer_parameter():
    wits = exponential_solutions_restricted(l2(1))
    assert wits
    for w in wits:
        assert abs(w.lam) == 2


def test_no_exponential_witness_half_integer():
    assert exponential_solutions_restricted(l2(Fraction(1, 2))) == []


def test_witness_degree_law():
    # effective polynomial degree (local exponent at 0 plus factor degree)
    # equals |mu| for integer mu
    for mu in (1, -1, 2, 3):
        wits = exponential_solutions_restricted(l2(mu))
        assert wits
        for w in wits:
            deg = w.poly.degree() + sum(w.rho.values())
            assert deg == abs(mu)


def test_l2_certified_at_non_integer():
    v = certify_sl2(l2(Fraction(1, 2)))
    assert v.tag == TAG_SL2


def test_has_log_forced():
    # solutions 1 and log(t)
    assert has_log_at(parse_operator("t*D^2 + D"), 0)


def test_no_log_euler():
    # solutions t and 1/t
    assert not has_log_at(parse_operator("t^2*D^2 + t*D - 1"), 0)


def test_has_log_rejects_irregular():
    with pytest.raises(ValueError):
        has_log_at(parse_operator("t^4*D^2 + 1"), 0)


def test_unsupported_singularities_are_refused():
    # irrational finite singular points
    v = certify_sl2(parse_operator("D^2 - 1/(t^2 - 2)"))
    assert v.tag == TAG_UNDETERMINED
    assert "unsupported" in (v.reason or "")


def test_witness_search_past_the_degree_budget_is_refused():
    """The witness of D^2 - 4 - 4k/x has degree k; k = 16 is searched,
    and k = 17 is refused before its search, so certify_sl2 answers
    undetermined."""
    import irred.screen as screen
    assert screen.MAX_WITNESS_DEGREE == 16
    assert exponential_solutions_restricted(l2(16))
    with pytest.raises(UnsupportedOperator,
                       match="witness degree bound 17 exceeds 16"):
        exponential_solutions_restricted(l2(17))
    v = certify_sl2(l2(17))
    assert v.tag == TAG_UNDETERMINED and "search budget" in v.reason


def test_resonance_index_past_the_budget_is_refused():
    """D^2 - t - m(m+1)/t^2 + 1/t has the exponents m + 1 and -m at 0,
    so the resonance index 2m + 1: 63 is expanded, 65 is refused before
    the Frobenius recurrence."""
    import irred.screen as screen
    assert screen.MAX_RESONANCE_INDEX == 64

    def op(m):
        return parse_operator("D^2 - t - %d/t^2 + 1/t" % (m * (m + 1)))

    assert has_log_at(op(31), 0)
    assert certify_sl2(op(31)).tag == TAG_SL2
    with pytest.raises(ValueError, match="resonance index 65 exceeds 64"):
        has_log_at(op(32), 0)
    assert certify_sl2(op(32)).tag == TAG_UNDETERMINED


def test_resonance_budget_is_named_unless_a_point_forces_a_log():
    """Index 65 at 0 leaves the screen undetermined, and the reason names
    the budget as the witness budget does; a second point that forces a
    logarithm still certifies, whether it comes before or after 0."""
    v = certify_sl2(parse_operator("D^2 - t - 1056/t^2 + 1/t"))
    assert v.tag == TAG_UNDETERMINED
    assert v.reason == ("undetermined (search budget): resonance index 65 "
                        "exceeds 64")
    for text, point in [("D^2 - t - 1056/t^2 + 1/t + 1/(t-1)", "1"),
                        ("D^2 - t - 1056/(t-1)^2 + 1/(t-1) + 1/t", "0")]:
        v = certify_sl2(parse_operator(text))
        assert v.tag == TAG_SL2
        assert v.reason.endswith("local solutions at %s" % point)


@pytest.mark.parametrize("text, tag, reason", [
    # 0 and 1 are rational regular points; the simple pole at 0 forces a
    # logarithm (exponents 0 and 1, resonance coefficient 1)
    ("D^2 - t + 1/t + 1/(t-1)", TAG_SL2,
     "no exponential solutions; logarithm forced in the local solutions "
     "at 0"),
    ("D^2 - t - 2/t^2 - 2/(t-1)^2 + 1/t", TAG_SL2,
     "no exponential solutions; logarithm forced in the local solutions "
     "at 0"),
    # exponents (1 +- sqrt(-3))/2 at 0 and at 1: no logarithm evidence
    ("D^2 - t + 1/t^2 + 1/(t-1)^2", TAG_UNDETERMINED,
     "no exponential solutions but no logarithm evidence"),
    ("D^2 - t + 1/(t^2+1)", TAG_UNDETERMINED,
     "undetermined (unsupported singularity structure): irrational "
     "singular points"),
])
def test_rational_singular_points_are_split(text, tag, reason):
    """A squarefree factor of the denominators that is a product of
    rational linear factors gives its rational points; irrational points
    are named only when a factor with no rational root is left."""
    v = certify_sl2(parse_operator(text))
    assert (v.tag, v.reason) == (tag, reason)


def _many_points(k):
    """D^2 - 1 + sum 1/(t - i), i < k: a mild infinity (lam = +-1) and k
    regular points with exponents 0 and 1, so 2 * 2^k choices."""
    return parse_operator(
        "D^2 - 1 + " + " + ".join("1/(t-%d)" % i for i in range(k)))


def test_exponent_combinations_past_the_budget_are_refused():
    """2 * 2^5 = 64 exponent choices are searched; 128 are refused before
    the first degree bound, and certify_sl2 names the budget."""
    import irred.screen as screen
    assert screen.MAX_EXPONENT_COMBINATIONS == 64
    exponential_solutions_restricted(_many_points(5))
    with pytest.raises(UnsupportedOperator,
                       match="128 exponent combinations exceed 64"):
        exponential_solutions_restricted(_many_points(6))
    v = certify_sl2(_many_points(16))
    assert v.tag == TAG_UNDETERMINED
    assert v.reason == ("undetermined (search budget): %d exponent "
                        "combinations exceed 64" % 2 ** 17)


def test_singular_points_past_the_budget_are_refused(monkeypatch):
    """16 finite singular points are split into rational roots; 17, or
    a factor of degree 17 with no rational root, are refused before any
    root is sought, and certify_sl2 names the budget."""
    import irred.screen as screen
    from irred.poly import Poly
    assert screen.MAX_SINGULAR_POINTS == 16

    def refuse(self):
        raise AssertionError("a root was sought")

    monkeypatch.setattr(Poly, "rational_roots", refuse)
    for L in (_many_points(17), parse_operator("D^2 - 1/(t^17 + 2)")):
        v = certify_sl2(L)
        assert v.tag == TAG_UNDETERMINED
        assert v.reason == ("undetermined (search budget): 17 finite "
                            "singular points exceed 16")


@pytest.mark.parametrize("lam, rho, poly", [
    (1, {0: 1, 1: 2}, "t + 3"),
    (-2, {0: Fraction(1, 2), 1: -1}, "1"),
    (Fraction(1, 2), {0: 2, 1: Fraction(-1, 3), -2: 1}, "t - 5"),
])
def test_planted_witness_over_several_rational_points(lam, rho, poly):
    """y = e^(lam t) prod (t - s)^rho_s P(t) solves D^2 - (u' + u^2) with
    u = y'/y; the search over its two or three rational singular points
    finds a witness with that logarithmic derivative."""
    from irred.grammar import parse_ratfun
    from irred.screen import ExpWitness
    u = ExpWitness(lam, rho, parse_ratfun(poly).as_poly()).log_derivative("t")
    b = u.derivative() + u * u
    L = parse_operator("D^2") - parse_operator(str(b))
    wits = exponential_solutions_restricted(L)
    assert any(w.log_derivative("t") == u for w in wits)


def test_each_screen_finds_its_singular_points_once(monkeypatch):
    """certify_sl2 hands the points it finds to the exponential search
    and to the logarithm search alike: one _finite_singularities call per
    screen, on the P3 screen and on 16 rational points with a fractional
    slope at infinity, where both searches run."""
    import irred.screen as screen
    calls = []
    find = screen._finite_singularities

    def spy(*args):
        calls.append(args)
        return find(*args)

    monkeypatch.setattr(screen, "_finite_singularities", spy)
    sixteen = parse_operator(
        "D^2 - t + " + " + ".join("1/(t-%d)" % i for i in range(16)))
    for L, reason in [
            (l2(Fraction(1, 2)), "no exponential solutions; logarithm "
             "forced in the local solutions at 0"),
            (sixteen, "no exponential solutions; logarithm forced in the "
             "local solutions at 0")]:
        calls.clear()
        v = certify_sl2(L)
        assert (v.tag, v.reason) == (TAG_SL2, reason)
        assert len(calls) == 1

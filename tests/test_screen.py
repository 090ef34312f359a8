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

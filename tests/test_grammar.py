"""The grammar's scalar-first evaluator against the RatFun-only one.

grammar._Parser keeps a value a scalar of Q(params) until it meets the
main variable; oracles.RatFunParser lifts every atom to a RatFun.  Both
must give the same value and the same printed form on every input, and
fail the same way: a budget refusal is a ParseError, a zero divisor a
ZeroDivisionError, and a negative power of an operator a ValueError.
"""

import time

import pytest

from irred.grammar import ParseError, parse_ratfun
from irred.jets import EquationFamily
from irred.linops import parse_operator
from oracles import (canonical_q, reference_parse_operator,
                     reference_parse_ratfun)

CASES = [
    # (parse, reference, variable, parameters, names an atom may be)
    (parse_ratfun, reference_parse_ratfun, "t", (), ("t",)),
    (parse_ratfun, reference_parse_ratfun, "x", ("mu",), ("x", "mu")),
    (parse_operator, reference_parse_operator, "t", (), ("t", "D")),
    (parse_operator, reference_parse_operator, "x", ("mu",),
     ("x", "mu", "D")),
]
IDS = ["ratfun-Q", "ratfun-Qmu", "operator-Q", "operator-Qmu"]


def _outcome(parse, text, var, params):
    """(value, its text) of parse, or the type of the error it raises."""
    try:
        v = parse(text, var, params)
    except (ValueError, ZeroDivisionError) as e:
        return type(e)
    return v, str(v)


@pytest.mark.parametrize("parse, reference, var, params, names", CASES,
                         ids=IDS)
def test_parser_agrees_with_the_ratfun_reference(parse, reference, var,
                                                 params, names):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    atoms = st.one_of(st.integers(0, 12).map(str), st.sampled_from(names))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda t: "(%s %s %s)" % t),
            st.tuples(inner, st.integers(-2, 3)).map(
                lambda t: "%s^%d" % t),
            inner.map(lambda s: "-" + s))

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(st.recursive(atoms, extend, max_leaves=7))
    def check(text):
        assert (_outcome(parse, text, var, params)
                == _outcome(reference, text, var, params)), text

    check()


@pytest.mark.parametrize("parse, reference, var, params, names", CASES,
                         ids=IDS)
@pytest.mark.parametrize("text", [
    "2^5000", "(1/3)^2049", "2^-5000", "(7/2)^-3000", "(2^2048)^2",
    "%(v)s^65", "(%(v)s + 1)^-65", "3*%(v)s^40*(1/%(v)s)^65",
    "(%(v)s^2 + 2)^33",
])
def test_budget_refusals_stay_parse_errors(parse, reference, var, params,
                                           names, text):
    text = text % {"v": var}
    for p in (parse, reference):
        with pytest.raises(ParseError):
            p(text, var, params)


@pytest.mark.parametrize("parse, reference, var, params, names", CASES,
                         ids=IDS)
def test_budgets_are_sharp_on_both_evaluators(parse, reference, var, params,
                                              names):
    """A scalar's size is its coefficient size, so each budget stops at
    the same power as on RatFun values."""
    texts = ["2^2048", "2^2049", "(1/2)^-2048", "(1/2)^-2049",
             "(3/2)^2048", "(3/2)^2049", "%(v)s^64", "(2*%(v)s)^-65"]
    if params:
        texts += ["mu^64", "mu^65", "(mu + 1/2)^64", "(2*mu/3)^-65"]
    for text in texts:
        text = text % {"v": var}
        got = _outcome(parse, text, var, params)
        assert got == _outcome(reference, text, var, params), text
        assert (got is ParseError) == ("65" in text or "49" in text), text


@pytest.mark.parametrize("var, params", [("t", ()), ("x", ("mu",))],
                         ids=["Q", "Qmu"])
@pytest.mark.parametrize("text", ["1/0", "0^-1", "1/(2 - 2)",
                                  "(1/2 - 1/2)^-3", "x/(1/2 - 1/2)"])
def test_zero_divisors_stay_zero_division_errors(var, params, text):
    text = text.replace("x", var)
    for p in (parse_ratfun, reference_parse_ratfun):
        with pytest.raises(ZeroDivisionError):
            p(text, var, params)
    if "^" not in text:  # an operator has no negative powers at all
        for p in (parse_operator, reference_parse_operator):
            with pytest.raises(ZeroDivisionError):
                p(text, var, params)


def test_parameter_zero_divisor_is_a_zero_division_error():
    for text in ["1/(mu - mu)", "(2*mu - mu*2)^-1"]:
        with pytest.raises(ZeroDivisionError):
            parse_ratfun(text, "x", ("mu",))


@pytest.mark.parametrize("text, want", [
    ("1/2 + 1/2", "1"), ("4/2", "2"), ("(1/2)^-2", "4"), ("2^-2", "1/4"),
    ("6/4 - 1/2", "1"), ("2*mu*2", "4*mu"), ("mu/mu", "1"),
    ("(mu + 1)^2 - mu^2 - 2*mu", "1"), ("2*mu*2/x", "4*mu/(x)"),
])
def test_scalars_stay_canonical(text, want):
    """A scalar result is canonical once lifted: an integral Fraction
    is its int, so the printed form is the reference's."""
    f = parse_ratfun(text, "x", ("mu",) if "mu" in text else ())
    assert str(f) == want == str(reference_parse_ratfun(
        text, "x", ("mu",) if "mu" in text else ()))
    if "mu" not in text:
        assert canonical_q(f.constant_value())


# a sum whose common denominator, and a product whose value, pass degree
# 64 although every term or factor is within the power budget
CRAFTED = ["1/(t+1)^64+1/(t+2)^64+1/(t+3)^64", "*".join(["(t+1)^64"] * 64)]


def _family_p(text, var, params):
    return EquationFamily(3, text.replace("t", "x"))


@pytest.mark.parametrize("text", CRAFTED, ids=["sum", "product"])
@pytest.mark.parametrize("parse, var, params", [
    (parse_ratfun, "t", ()), (parse_ratfun, "x", ("mu",)),
    (parse_operator, "t", ()), (parse_operator, "x", ("mu",)),
    (_family_p, "x", ())], ids=["ratfun-Q", "ratfun-Qmu", "operator-Q",
                                "operator-Qmu", "family"])
def test_sums_and_products_past_the_degree_budget_fail_fast(parse, var,
                                                             params, text):
    """Every + - * / is bounded before it is computed, from the degrees
    of its operands, so these fail in milliseconds instead of running a
    gcd of degree 128 or building a polynomial of degree 4096."""
    text = text.replace("t", var)
    start = time.process_time()
    with pytest.raises(ParseError, match="degree 128 exceeds 64"):
        parse(text, var, params)
    assert time.process_time() - start < 0.1


# every constant within the power budget, but the common denominator of
# the first two terms has 3,966-bit coefficients, and with the third it
# would pass 4096 bits: unbounded, the parse took 6 s in the gcd
BIG_SUM = ("1/(2^2000*t^16+3^1000*t+1)+1/(5^800*t^16+7^700*t+1)"
           "+1/(11^500*t^16+13^500*t+1)+1/(17^400*t^16+19^400*t+1)")


@pytest.mark.parametrize("parse, var, params", [
    (parse_ratfun, "t", ()), (parse_ratfun, "x", ("mu",)),
    (parse_operator, "t", ()), (parse_operator, "x", ("mu",)),
    (_family_p, "x", ())], ids=["ratfun-Q", "ratfun-Qmu", "operator-Q",
                                "operator-Qmu", "family"])
def test_sums_past_the_bit_budget_fail_fast(parse, var, params):
    """Every + - * / is bounded by the bits of its operands before it is
    computed, so the sum is refused at its third term, in milliseconds."""
    start = time.process_time()
    with pytest.raises(ParseError, match="5818 bits exceeds 4096"):
        parse(BIG_SUM.replace("t", var), var, params)
    assert time.process_time() - start < 0.1


@pytest.mark.parametrize("text, bits", [
    ("2^2048 + 2^2048*t", None), ("2^2048*2^2047", 4097),
    ("(2^2000*t + 1)*(2^2000*t - 1)", None), ("2^2048*t*2^2048", 4098),
    ("1/(2^2000*t + 1) + 1/(3^1300*t + 1)", None),
    ("1/(2^2000*t + 1) + 1/(3^1300*t + 1) + 1/(5^100*t + 1)", 4295),
    ("3^2000 - 1/3^500", None), ("3^2000 - 1/3^1000", 4756),
])
def test_bit_budget_admits_what_fits(text, bits):
    """A sum of values with integer coefficients and no denominator takes
    the larger bits plus one; any other sum adds them plus one, and a
    product adds them."""
    if bits is None:
        parse_ratfun(text)
        return
    with pytest.raises(ParseError, match="%d bits exceeds 4096" % bits):
        parse_ratfun(text)


@pytest.mark.parametrize("text", [
    "1/(t+1)^32 + 1/(t+2)^32", "(t+1)^32*(t+2)^32",
    "(t^40 + 1) - t^40 + t^64"])
def test_degree_budget_admits_what_fits(text):
    """A sum of two polynomials takes the larger degree; a sum with a
    denominator and a product add them.  Each of these reaches degree 64
    exactly, so one more factor t, or one more term 1/t, is refused."""
    f = parse_ratfun(text)
    assert max(f.num.degree(), f.den.degree()) == 64
    for bigger in ("(%s)*t" % text, "(%s) + 1/t" % text):
        with pytest.raises(ParseError, match="degree 65 exceeds 64"):
            parse_ratfun(bigger)


def test_a_quotient_adds_the_degrees():
    assert parse_ratfun("t^32/(t+1)^32").den.degree() == 32
    with pytest.raises(ParseError, match="degree 65 exceeds 64"):
        parse_ratfun("t^33/(t+1)^32")


def _operator_around(text, var, params):
    """text as the coefficients of an operator of order 3."""
    return parse_operator("(%s)*D^3 - D*(%s) + %s" % (text, text, text), var,
                          params)


@pytest.mark.parametrize("parse, var, params, names", [
    (parse_ratfun, "t", (), ("t",)),
    (parse_ratfun, "x", ("mu",), ("x", "mu")),
    (_operator_around, "t", (), ("t",)),
    (_family_p, "x", (), ("x", "y"))],
    ids=["ratfun-Q", "ratfun-Qmu", "operator-Q", "family"])
def test_every_parse_ends_fast(parse, var, params, names):
    """Sums, products, quotients and powers of shifted powers of the
    variable and of their reciprocals: each parse gives a value or a
    ParseError (or, dividing by zero, a ZeroDivisionError, and for an
    operator, which has no negative powers, a ValueError) within 0.5 s of
    CPU."""
    refused = (ParseError, ZeroDivisionError) + (
        (ValueError,) if parse is _operator_around else ())
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    shifted = st.tuples(st.sampled_from(["", "1/"]), st.sampled_from(names),
                        st.integers(1, 9),
                        st.sampled_from([1, 2, 21, 32, 33, 64])).map(
        lambda t: "%s(%s+%d)^%d" % t)
    atoms = st.one_of(st.integers(0, 12).map(str), st.sampled_from(names),
                      shifted)

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda t: "(%s %s %s)" % t),
            st.tuples(inner, st.sampled_from([-64, -2, 2, 3, 64])).map(
                lambda t: "%s^%d" % t))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(st.recursive(atoms, extend, max_leaves=6))
    @hypothesis.example(BIG_SUM.replace("t", names[0]))
    def check(text):
        start = time.process_time()
        try:
            parse(text, var, params)
        except refused:
            pass
        assert time.process_time() - start < 0.5, text

    check()

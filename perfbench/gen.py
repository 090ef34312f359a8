"""Seeded inputs of the benchmark workloads, with their expected verdicts.

Every expected verdict follows from how the input is made, never from
irred:

* family, planted: p = L(q) with L = Sym^(n+1)(D^2 - t) and q a small
  nonzero polynomial, so L y = p has the rational solution q:
  INCONCLUSIVE.
* family, non-planted: p = L(q) + r with r != 0 and deg r < sigma(n).
  L has polynomial coefficients and leading coefficient 1, so a rational
  solution is a polynomial q', and deg L(q') = deg q' + sigma(n).  Then
  L(q' - q) = r forces deg r >= sigma(n): no solution, IRREDUCIBLE.
* family, pole shortcut: p has a pole of order 1..n+2 at a finite point,
  which no rational solution of L y = p can produce: IRREDUCIBLE.
* p2 (y'' = x y + 2 y^3) and p3 at non-integer mu: IRREDUCIBLE by the
  paper.

Inputs are plain JSON values; the benchmark process receives only these.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

IRREDUCIBLE = "IRREDUCIBLE"
INCONCLUSIVE = "INCONCLUSIVE"

# degree shift of Sym^(n+1)(D^2 - t) for n = 2..6, as recorded in the
# degree_argument evidence; checked against sympower.sigma
SIGMA = {2: 2, 3: 1, 4: 3, 5: 2, 6: 4}

# (n, P, expected) of the golden family inputs of ROADMAP.md.  n=3 P=x
# gives p = 6t = L(3/32); the other two P=x^k have deg p < sigma(n).
FAMILY_ANCHORS = ((2, "x", IRREDUCIBLE), (3, "x", INCONCLUSIVE),
                  (3, "2", IRREDUCIBLE), (4, "x^2", IRREDUCIBLE))

# n of each drawn family input.  The n and the degrees of q and r are
# fixed and every coefficient is nonzero; only the coefficients and the
# pole data are drawn.  The work of the criterion follows the degrees,
# not the coefficients, so the work of a run hardly depends on the seed.
# It grows steeply with n, so the planted and non-planted inputs keep to
# n = 2 and 3, and n = 4..6 and 8 appear only in the cheap pole-shortcut
# class; the anchors cover n = 4.
PLANTED_NS = (2,)
NON_PLANTED_NS = (3,)
POLE_NS = (2, 3, 4, 5, 6, 8)
Q_DEGREE = 2

P3_ANCHOR_MU = Fraction(1, 2)

# golden certificate hashes (first 16 hex digits of sha256 of to_json())
# as listed in ROADMAP.md; reported for information only
GOLDEN = {
    "p2": "396d0af96884999b",
    "p3 mu=1/2": "6605747844022e72",
    "family n=2 P=x": "e92324a15425cf6b",
    "family n=3 P=x": "135437cf6189cb3b",
    "family n=3 P=2": "a1dea61563b2ca4c",
    "family n=4 P=x^2": "93f40317ccab605e",
}

WORKLOADS = ("family", "p3", "p2")


def inputs(workload, seed):
    """{"inputs": [...], "tamper_base": {...}} of one run."""
    if workload == "family":
        items = family_inputs(seed)
    elif workload == "p3":
        items = [p3_input(seed)]
    elif workload == "p2":
        items = [{"label": "p2", "kind": "p2", "expected": IRREDUCIBLE}]
    else:
        raise ValueError("unknown workload %r" % workload)
    return {"inputs": items, "tamper_base": tamper_base(seed)}


def _family(label, n, P, expected):
    return {"label": label, "kind": "family", "n": n, "P": P,
            "expected": expected}


def family_anchors():
    return [_family("family n=%d P=%s" % (n, P), n, P, v)
            for n, P, v in FAMILY_ANCHORS]


def family_inputs(seed):
    import sympower

    rng = random.Random("family:%d" % seed)
    out = family_anchors()
    for n in PLANTED_NS + NON_PLANTED_NS:
        m = n + 1
        if sympower.sigma(m) != SIGMA[n]:
            raise RuntimeError("degree shift of Sym^%d changed" % m)
        q = sympower.poly(_rand_coeffs(rng, Q_DEGREE))
        p = sympower.apply(m, q)
        if n in PLANTED_NS:
            label, expected = "planted n=%d" % n, INCONCLUSIVE
        else:
            r = sympower.poly(_rand_coeffs(rng, SIGMA[n] - 1))
            p += r
            label, expected = "non-planted n=%d" % n, IRREDUCIBLE
        P = poly_text(sympower.coefficients(p / math.factorial(n)))
        out.append(_family(label, n, P, expected))
    for n in POLE_NS:
        out.append(_family("pole n=%d" % n, n, pole_P(rng, n), IRREDUCIBLE))
    return out


def poly_text(coeffs, var="x"):
    """Polynomial with Fraction coefficients (ascending) in irred's grammar."""
    terms = []
    for k, c in enumerate(coeffs):
        if c:
            mono = "" if k == 0 else "*%s" % var if k == 1 else \
                "*%s^%d" % (var, k)
            terms.append("(%s)%s" % (c, mono))
    return " + ".join(terms) if terms else "0"


def _rand_coeff(rng):
    """A nonzero small rational."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                    rng.choice((1, 2, 3)))


def _rand_coeffs(rng, deg):
    """Nonzero coefficients of a dense polynomial of degree deg."""
    return [_rand_coeff(rng) for _ in range(deg + 1)]


def pole_P(rng, n):
    """P(x, y) whose p = n! P(t, 0) has a pole of order 1..n+2 at a point."""
    k = rng.randint(1, n + 2)
    a = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5)))
    c = _rand_coeff(rng)
    rest = poly_text(_rand_coeffs(rng, rng.randint(0, 2)))
    return "(%s)/(x - (%s))^%d + %s + (%s)*y" % (c, a, k, rest,
                                                   _rand_coeff(rng))


def p3_input(seed):
    """check_p3 at [m], with m a drawn non-integer rational other than the
    golden 1/2 (golden.py checks that one)."""
    rng = random.Random("p3:%d" % seed)
    while True:
        m = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                     rng.choice((2, 3, 4, 5)))
        if m.denominator != 1 and m != P3_ANCHOR_MU:
            break
    mus = [m]
    return {"label": "p3 mu=%s" % ",".join(map(str, mus)), "kind": "p3",
            "mus": [str(x) for x in mus], "expected": IRREDUCIBLE}


def tamper_base(seed):
    """A cheap pole-shortcut family input for the tamper set."""
    rng = random.Random("tamper:%d" % seed)
    n = rng.randint(2, 6)
    return _family("tamper base n=%d" % n, n, pole_P(rng, n), IRREDUCIBLE)

"""Galois screening for second order operators over Q.

Three ingredients: a restricted exponential-solution search (candidates
with rational logarithmic-derivative data only), exact detection of a
forced logarithm in the local solutions at a regular singular point, and
the certification routine combining them to pin the Galois group to
SL(2,C).  Deliberately not a full Kovacic implementation; anything
outside the supported singularity classes comes back "undetermined",
never a wrong verdict.
"""

from __future__ import annotations

import itertools
import math

from .field import scalar
from .linops import DiffOp
from .mpoly import qdiv
from .poly import Poly, RatFun
from .ratsolve import (_polynomial_solutions, coprime_basis, degree_bound,
                       _poly_valuation)

TAG_SL2 = "SL2-certified"
TAG_REDUCIBLE = "reducible (exponential solution found, " \
    "group virtually solvable possible)"
TAG_UNDETERMINED = "undetermined"

# Largest degree of an exponential witness searched for.  Honest screens
# never search: D^2 - t has no candidate, and P3's degree bound is
# negative at non-integer mu.  D^2 - 4 - 4k/t, with a witness of degree
# k, takes 0.15 s CPU at k = 16 and 2 s at k = 24 (Python 3.11, x86-64).
MAX_WITNESS_DEGREE = 16

# Largest resonance index has_log_at expands to.  Honest screens have
# index 1 (P3) or no finite singular point; D^2 - t - m(m+1)/t^2 + 1/t,
# of index 2m + 1, takes 0.02 s CPU at m = 32 and 0.26 s at m = 128.
MAX_RESONANCE_INDEX = 64

# Largest number of finite singular points (the degree of the coprime
# factor base of the denominators) whose rational roots are sought.
# Honest screens have at most one.  On D^2 - 1 + sum 1/(t - i), i < k,
# the root search and the regularity checks took 0.2 s CPU at k = 60 and
# 2 s at k = 150 (Python 3.11, x86-64).
MAX_SINGULAR_POINTS = 16

# Largest number of exponent choices (lam and one exponent per finite
# singular point) the witness search runs a degree bound for, up to
# 2 * 2^k at k points.  Honest screens need at most 4 (P3: lam = +-2, one
# point with exponents 0 and 1); D^2 - 1 + sum 1/(t - i), i < 5, needs 64
# and takes 0.05 s CPU (Python 3.11, x86-64).
MAX_EXPONENT_COMBINATIONS = 64


class UnsupportedOperator(ValueError):
    """Singularity structure outside the restricted search classes."""


class ExpWitness:
    """Exponential solution e^(lam x) prod (x-s)^rho_s P(x)."""

    def __init__(self, lam, rho, poly):
        self.lam = scalar(lam)
        self.rho = dict(rho)  # point -> rational exponent
        self.poly = poly

    def log_derivative(self, var):
        """y'/y as a RatFun."""
        w = RatFun.const(self.lam, var)
        for s, r in self.rho.items():
            lin = RatFun(Poly([-s, 1], var))
            w = w + RatFun.const(r, var) / lin
        if not self.poly.is_zero() and self.poly.degree() > 0:
            w = w + RatFun(self.poly.derivative()) / RatFun(self.poly)
        return w

    def __repr__(self):
        return "ExpWitness(lam=%s, rho=%s, poly=%s)" % (
            self.lam, self.rho, self.poly)


class ScreenVerdict:
    def __init__(self, tag, witness=None, reason=None):
        self.tag = tag
        self.witness = witness
        self.reason = reason

    def __repr__(self):
        return "ScreenVerdict(%r, witness=%r, reason=%r)" % (
            self.tag, self.witness, self.reason)


def _monic_ab(L: DiffOp):
    if L.order() != 2:
        raise ValueError("screen handles order 2 only")
    if L.params:
        raise ValueError("screen needs Q coefficients")
    Lm = L.monic()
    return Lm.coeff(1), Lm.coeff(0)


def _rat_degree(f: RatFun):
    """Degree of a rational function; None for zero."""
    if not f:
        return None
    return f.num.degree() - f.den.degree()


def _value_at_infinity(f: RatFun):
    d = _rat_degree(f)
    if d is None or d < 0:
        return 0
    if d > 0:
        raise ValueError("no finite value at infinity")
    return qdiv(f.num.leading(), f.den.leading())


def _pole_order(f: RatFun, s) -> int:
    if not f:
        return 0
    lin = Poly([-s, 1], f.var)
    vn = _poly_valuation(f.num, lin)[0]
    vd = _poly_valuation(f.den, lin)[0]
    return max(0, vd - vn)


def _limit_scaled(f: RatFun, s, k: int):
    """Value of (x-s)^k f at x=s (pole order of f at most k)."""
    lin = RatFun(Poly([-s, 1], f.var))
    g = f * lin ** k
    return g.evaluate(s)


def _rational_pair_roots(a1, a0):
    """Rational roots of e^2 + a1 e + a0; None when irrational.

    The two roots sum to a rational, so they are rational together or
    not at all.
    """
    p = Poly([a0, a1, 1], "e")
    roots, rem = p.rational_roots()
    if rem.degree() and rem.degree() > 0:
        return None
    return sorted(set(roots))


def _finite_singularities(a: RatFun, b: RatFun, var):
    """Rational finite singular points with regularity checks."""
    dens = []
    if a:
        dens.append(a.den)
    if b:
        dens.append(b.den)
    if not dens:
        return []
    basis = coprime_basis(dens)
    count = sum(f.degree() for f in basis)
    if count > MAX_SINGULAR_POINTS:
        raise UnsupportedOperator(
            "undetermined (search budget): %d finite singular points exceed "
            "%d" % (count, MAX_SINGULAR_POINTS))
    points = []
    for f in basis:
        roots, rest = f.rational_roots()
        if rest.degree() > 0:
            raise UnsupportedOperator(
                "undetermined (unsupported singularity structure): "
                "irrational singular points")
        for s in roots:
            if _pole_order(a, s) > 1 or _pole_order(b, s) > 2:
                raise UnsupportedOperator(
                    "undetermined (unsupported singularity structure): "
                    "irregular finite singularity at %s" % s)
            points.append(s)
    return sorted(points)


def _conjugated_operator(a, b, w, var):
    """Operator satisfied by z when y = exp(int w) z solves y''+ay'+b=0."""
    A = a + 2 * w
    B = w.derivative() + w * w + a * w + b
    one = RatFun.const(1, var)
    return DiffOp([B, A, one], var)


def exponential_solutions_restricted(L: DiffOp):
    """Witnesses y with y'/y = lam + sum rho/(x-s) + P'/P, all data rational.

    Complete within the supported singularity classes: regular rational
    finite singularities, and an infinity that is either mild (rational
    constant candidates) or of provably obstructing fractional slope.
    Raises UnsupportedOperator otherwise, or past MAX_WITNESS_DEGREE.
    """
    a, b = _monic_ab(L)
    return _exponential_solutions(L, a, b, _finite_singularities(a, b, L.var))


def _exponential_solutions(L, a, b, points):
    """exponential_solutions_restricted(L), given L = D^2 + a D + b and
    its finite singular points."""
    var = L.var
    da = _rat_degree(a)
    db = _rat_degree(b)
    da_ = da if da is not None else -10 ** 9
    db_ = db if db is not None else -10 ** 9
    if da_ <= 0 and db_ <= 0:
        lams = _rational_pair_roots(_value_at_infinity(a),
                                    _value_at_infinity(b))
        if lams is None:
            raise UnsupportedOperator(
                "undetermined (unsupported singularity structure): "
                "irrational exponential parts at infinity")
    elif db_ >= 1 and db_ % 2 == 1 and 2 * da_ < db_:
        # fractional Newton slope db/2 at infinity: no exponential
        # solution with rational logarithmic derivative exists at all
        return []
    else:
        raise UnsupportedOperator(
            "undetermined (unsupported singularity structure): "
            "integer slope > 0 at infinity")

    # candidate exponents at each finite singular point: indicial roots
    rho_choices = []
    for s in points:
        alpha = _limit_scaled(a, s, 1)
        beta = _limit_scaled(b, s, 2)
        roots = _rational_pair_roots(alpha - 1, beta)
        if roots is None:
            raise UnsupportedOperator(
                "undetermined (unsupported singularity structure): "
                "irrational exponents at %s" % s)
        rho_choices.append(roots)
    combos = len(lams) * math.prod(map(len, rho_choices))
    if combos > MAX_EXPONENT_COMBINATIONS:
        raise UnsupportedOperator(
            "undetermined (search budget): %d exponent combinations exceed "
            "%d" % (combos, MAX_EXPONENT_COMBINATIONS))

    witnesses = []
    for lam in lams:
        for combo in itertools.product(*rho_choices) if rho_choices \
                else [()]:
            w = RatFun.const(lam, var)
            for s, r in zip(points, combo):
                lin = RatFun(Poly([-s, 1], var))
                w = w + RatFun.const(r, var) / lin
            M = _conjugated_operator(a, b, w, var)
            bound = degree_bound(M, None)
            if bound < 0:
                continue
            if bound > MAX_WITNESS_DEGREE:
                raise UnsupportedOperator(
                    "undetermined (search budget): witness degree bound "
                    "%d exceeds %d" % (bound, MAX_WITNESS_DEGREE))
            _, basis = _polynomial_solutions(M, RatFun.zero(var), bound)
            for P in basis:
                wit = ExpWitness(lam, dict(zip(points, combo)), P.as_poly())
                _verify_witness(L, wit)
                witnesses.append(wit)
    return witnesses


def _verify_witness(L: DiffOp, wit: ExpWitness):
    """Exact re-substitution of the witness into L."""
    a, b = _monic_ab(L)
    var = L.var
    u = wit.log_derivative(var)
    res = u.derivative() + u * u + a * u + b
    if res:
        raise RuntimeError("exponential witness fails re-substitution")


def _taylor_coeffs(f: RatFun, s, n: int):
    """Taylor coefficients of f at s up to order n (f regular at s)."""
    num = f.num.shift(s)
    den = f.den.shift(s)
    if not den.coeff(0):
        raise ValueError("pole at the expansion point")
    out = []
    for k in range(n + 1):
        acc = num.coeff(k)
        for j in range(k):
            acc = acc - den.coeff(k - j) * out[j]
        out.append(qdiv(acc, den.coeff(0)))
    return out


def has_log_at(L: DiffOp, point) -> bool:
    """Does the local solution space at a regular singular point force a log?

    Frobenius analysis up to the resonance index; exact.  False at an
    ordinary point, ValueError on an irregular one, and
    UnsupportedOperator (a ValueError) past MAX_RESONANCE_INDEX.
    """
    a, b = _monic_ab(L)
    s = scalar(point)
    if _pole_order(a, s) > 1 or _pole_order(b, s) > 2:
        raise ValueError("not regular singular")
    if _pole_order(a, s) == 0 and _pole_order(b, s) == 0:
        return False
    var = L.var
    lin = RatFun(Poly([-s, 1], var))
    p = a * lin          # x a(x), regular at s
    q = b * lin * lin    # x^2 b(x), regular at s
    p0 = _limit_scaled(a, s, 1)
    q0 = _limit_scaled(b, s, 2)
    roots = _rational_pair_roots(p0 - 1, q0)
    if roots is None:
        return False
    r2, r1 = roots[0], roots[-1]
    diff = r1 - r2
    if diff.denominator != 1:
        return False
    m = int(diff)
    if m == 0:
        return True
    if m > MAX_RESONANCE_INDEX:
        raise UnsupportedOperator(
            "undetermined (search budget): resonance index %d exceeds %d"
            % (m, MAX_RESONANCE_INDEX))
    pc = _taylor_coeffs(p, s, m)
    qc = _taylor_coeffs(q, s, m)

    def f(e):
        return e * (e - 1) + pc[0] * e + qc[0]

    c = [1]
    for k in range(1, m + 1):
        rhs = 0
        for j in range(k):
            rhs -= (pc[k - j] * (r2 + j) + qc[k - j]) * c[j]
        if k < m:
            c.append(qdiv(rhs, f(r2 + k)))
        else:
            return rhs != 0
    raise AssertionError("unreachable")


def certify_sl2(L: DiffOp) -> ScreenVerdict:
    """Pin Gal(L) = SL(2,C) when the restricted evidence suffices.

    Certified when the operator has zero subleading coefficient (group
    inside SL2), the restricted exponential search is empty
    (irreducible), and either some regular singular point forces a local
    logarithm or the emptiness came from a fractional slope at infinity
    with no finite singularity at all.
    """
    try:
        a, b = _monic_ab(L)
    except ValueError as e:
        return ScreenVerdict(TAG_UNDETERMINED, reason=str(e))
    if a:
        return ScreenVerdict(
            TAG_UNDETERMINED,
            reason="nonzero trace: group not constrained to SL2")
    try:
        points = _finite_singularities(a, b, L.var)
        wits = _exponential_solutions(L, a, b, points)
    except UnsupportedOperator as e:
        return ScreenVerdict(TAG_UNDETERMINED, reason=str(e))
    if wits:
        return ScreenVerdict(TAG_REDUCIBLE, witness=wits[0])
    if not points:
        db = _rat_degree(b)
        if db is not None and db >= 1 and db % 2 == 1:
            return ScreenVerdict(
                TAG_SL2,
                reason="no finite singularity, fractional slope %d/2 at "
                       "infinity rules out solvable subgroups" % db)
        return ScreenVerdict(
            TAG_UNDETERMINED,
            reason="no exponential solutions but no logarithm evidence")
    # a point past the resonance budget gives no evidence either way; a
    # later point that forces a logarithm still certifies
    budget = None
    for s in points:
        try:
            if has_log_at(L, s):
                return ScreenVerdict(
                    TAG_SL2,
                    reason="no exponential solutions; logarithm forced in "
                           "the local solutions at %s" % s)
        except UnsupportedOperator as e:
            budget = budget or str(e)
    return ScreenVerdict(
        TAG_UNDETERMINED,
        reason=budget or "no exponential solutions but no logarithm evidence")

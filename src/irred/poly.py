"""Univariate polynomials and reduced rational functions over the
parameter field.  The main variable (t, x, ...) is carried for printing;
arithmetic requires matching variables.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .field import FieldElem
from .mpoly import (dense_add, dense_divmod, dense_gcd, dense_mul, power,
                    print_sum)


class Poly:
    """Dense univariate polynomial, coefficients ascending, trimmed."""

    __slots__ = ("var", "params", "coeffs")

    def __init__(self, coeffs, var="t", params=()):
        params = tuple(params)
        cs = []
        for c in coeffs:
            if isinstance(c, (int, Fraction)):
                c = FieldElem.from_fraction(c, params)
            elif c.params != params:
                raise ValueError("parameter context mismatch in Poly")
            cs.append(c)
        while cs and not cs[-1]:
            cs.pop()
        self.var = var
        self.params = params
        self.coeffs = tuple(cs)

    # constructors ---------------------------------------------------------
    @classmethod
    def zero(cls, var="t", params=()):
        return cls([], var, params)

    @classmethod
    def const(cls, c, var="t", params=()):
        return cls([c], var, params)

    @classmethod
    def gen(cls, var="t", params=()):
        return cls([0, 1], var, params)

    # basics ---------------------------------------------------------------
    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Degree; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def leading(self) -> FieldElem:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k) -> FieldElem:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return FieldElem.from_fraction(0, self.params)

    def _lift(self, other):
        if isinstance(other, Poly):
            if other.var != self.var or other.params != self.params:
                raise ValueError("mixing polynomials in different variables")
            return other
        if isinstance(other, (int, Fraction, FieldElem)):
            return Poly.const(other, self.var, self.params)
        return NotImplemented

    # arithmetic -----------------------------------------------------------
    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Poly(dense_add(self.coeffs, o.coeffs), self.var, self.params)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs], self.var, self.params)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Poly(dense_mul(self.coeffs, o.coeffs), self.var, self.params)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, Poly.const(1, self.var, self.params))

    def divmod(self, other: "Poly"):
        q, r = dense_divmod(self.coeffs, self._lift(other).coeffs)
        return Poly(q, self.var, self.params), Poly(r, self.var, self.params)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero():
            return self
        lc = self.leading()
        return Poly([c / lc for c in self.coeffs], self.var, self.params)

    def derivative(self):
        return Poly([self.coeffs[i] * i for i in range(1, len(self.coeffs))],
                    self.var, self.params)

    def gcd(self, other: "Poly") -> "Poly":
        return Poly(dense_gcd(self.coeffs, self._lift(other).coeffs),
                    self.var, self.params)

    def evaluate(self, x: FieldElem) -> FieldElem:
        if isinstance(x, (int, Fraction)):
            x = FieldElem.from_fraction(x, self.params)
        acc = FieldElem.from_fraction(0, self.params)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, a) -> "Poly":
        """Compose with var + a (Taylor shift)."""
        g = Poly.gen(self.var, self.params) + a
        acc = Poly.zero(self.var, self.params)
        for c in reversed(self.coeffs):
            acc = acc * g + c
        return acc

    def specialize(self, assignment: dict) -> "Poly":
        return Poly([c.specialize(assignment) for c in self.coeffs],
                    self.var, ())

    def squarefree_decomposition(self):
        """Yun's algorithm: list of (factor, multiplicity), factors monic."""
        f = self.monic()
        out = []
        if f.degree() in (None, 0):
            return out
        g = f.gcd(f.derivative())
        if g.degree() == 0:
            return [(f, 1)]
        b = f // g
        c = f.derivative() // g
        d = c - b.derivative()
        i = 1
        while b.degree() > 0:
            a = b.gcd(d)
            if a.degree() > 0:
                out.append((a, i))
            b = b // a
            c = d // a
            d = c - b.derivative()
            i += 1
        return out

    def rational_roots(self):
        """Rational roots (over Q only), with multiplicities via division."""
        if self.params:
            raise ValueError("rational root extraction needs Q coefficients")
        if self.degree() == 1:
            # no divisor search: the root of c1 x + c0 is -c0/c1
            root = (-self.coeffs[0] / self.coeffs[1]).as_fraction()
            return [root], Poly(self.coeffs[1:], self.var, self.params)
        roots = []
        f = self
        for cand in _rational_root_candidates(f):
            while not f.is_zero() and f.degree() >= 1 and not f.evaluate(cand):
                roots.append(cand)
                lin = Poly([-cand, 1], self.var, self.params)
                f = f // lin
        return sorted(roots), f

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.var, self.params, self.coeffs))

    def __repr__(self):
        return "Poly(%s)" % self.__str__()

    def __str__(self):
        return print_sum(
            (str(c), "" if k == 0 else self.var if k == 1
             else "%s^%d" % (self.var, k))
            for k, c in reversed(list(enumerate(self.coeffs))) if c)


def _rational_root_candidates(f: Poly):
    """Candidate rational roots of f over Q by the rational root theorem."""
    lcm = math.lcm(*(c.as_fraction().denominator for c in f.coeffs))
    ints = [int(c.as_fraction() * lcm) for c in f.coeffs]
    k = 0
    while k < len(ints) and ints[k] == 0:
        k += 1
    if k == len(ints):
        return []
    a0, an = abs(ints[k]), abs(ints[-1])
    cands = {Fraction(0)} if k > 0 else set()
    for p in _divisors(a0):
        for q in _divisors(an):
            cands.add(Fraction(p, q))
            cands.add(Fraction(-p, q))
    return sorted(cands)


def _divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


class RatFun:
    """Reduced fraction of univariate polynomials; denominator monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None, _normalized=False):
        if den is None:
            den = Poly.const(1, num.var, num.params)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _normalized:
            g = num.gcd(den)
            if not g.is_zero() and g.degree() > 0:
                num = num // g
                den = den // g
            lc = den.leading()
            if not (lc == 1):
                num = Poly([c / lc for c in num.coeffs], num.var, num.params)
                den = den.monic()
        self.num = num
        self.den = den

    @property
    def var(self):
        return self.num.var

    @property
    def params(self):
        return self.num.params

    # constructors ---------------------------------------------------------
    @classmethod
    def zero(cls, var="t", params=()):
        return cls(Poly.zero(var, params))

    @classmethod
    def const(cls, c, var="t", params=()):
        return cls(Poly.const(c, var, params))

    @classmethod
    def gen(cls, var="t", params=()):
        return cls(Poly.gen(var, params))

    def _lift(self, other):
        if isinstance(other, RatFun):
            return other
        if isinstance(other, Poly):
            return RatFun(other)
        if isinstance(other, (int, Fraction, FieldElem)):
            return RatFun.const(other, self.var, self.params)
        return NotImplemented

    # arithmetic -----------------------------------------------------------
    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return RatFun(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return RatFun(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, k: int):
        one = RatFun.const(1, self.var, self.params)
        if k < 0:
            return power(one / self, -k, one)
        return power(self, k, one)

    def derivative(self) -> "RatFun":
        n, d = self.num, self.den
        return RatFun(n.derivative() * d - n * d.derivative(), d * d)

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    # queries --------------------------------------------------------------
    def is_constant(self):
        return self.den.degree() == 0 and (self.num.is_zero()
                                           or self.num.degree() == 0)

    def constant_value(self) -> FieldElem:
        if not self.is_constant():
            raise ValueError("not a constant rational function: %s" % self)
        if self.num.is_zero():
            return FieldElem.from_fraction(0, self.params)
        return self.num.coeffs[0]

    def is_polynomial(self):
        return self.den.degree() == 0

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError("not a polynomial: %s" % self)
        return self.num           # the denominator is monic, so it is 1

    def evaluate(self, x):
        d = self.den.evaluate(x)
        if not d:
            raise ZeroDivisionError("pole at evaluation point")
        return self.num.evaluate(x) / d

    def specialize(self, assignment: dict) -> "RatFun":
        """Exact parameter substitution; errors when a denominator dies."""
        den = self.den.specialize(assignment)
        if den.is_zero():
            raise ZeroDivisionError(
                "denominator %s vanishes under %s" % (self.den, assignment))
        return RatFun(self.num.specialize(assignment), den)

    def pole_orders(self):
        """Map of squarefree denominator factors to pole order, plus the
        order at infinity (deg den - deg num; negative means growth).

        Over Q, rational roots are split off as linear factors; higher
        degree squarefree factors are kept unsplit.
        """
        if not self:
            raise ValueError("pole orders undefined for 0")
        factors = {}
        for g, mult in self.den.squarefree_decomposition():
            if not self.params:
                roots, rest = g.rational_roots()
                for r in roots:
                    lin = Poly([-r, 1], self.var, self.params)
                    factors[lin] = factors.get(lin, 0) + mult
                if rest.degree() and rest.degree() > 0:
                    factors[rest.monic()] = factors.get(rest.monic(), 0) + mult
            else:
                factors[g] = factors.get(g, 0) + mult
        inf_order = self.den.degree() - self.num.degree()
        return factors, inf_order

    def __repr__(self):
        return "RatFun(%s)" % self.__str__()

    def __str__(self):
        if self.den.degree() == 0:
            p = self.as_poly()
            return str(p)
        ns, ds = str(self.num), str(self.den)
        if self.num.degree() == 0 and "/" not in ns and " " not in ns:
            left = ns
        else:
            left = "(%s)" % ns
        return "%s/(%s)" % (left, ds)


def common_denominator(fs, var, params=()) -> Poly:
    """Monic lcm of the denominators of the RatFuns fs; 1 for none."""
    den = Poly.const(1, var, params)
    for f in fs:
        den = den * (f.den // den.gcd(f.den))
    return den


def ratfun(c, var="t", params=()) -> RatFun:
    """Coerce ints/Fractions/FieldElems/Polys to RatFun."""
    if isinstance(c, RatFun):
        return c
    if isinstance(c, Poly):
        return RatFun(c)
    return RatFun.const(c, var, params)

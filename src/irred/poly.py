"""Univariate polynomials and reduced rational functions, with int or
Fraction coefficients over Q (an int exactly when the coefficient is
integral) and FieldElem ones over Q(params).  The main variable (t, x,
...) is carried for printing; arithmetic requires matching variables.

`RatFun` sums and products of reduced operands are reduced by Henrici's
rules (JACM 1956; Knuth, TAOCP vol. 2, 4.5.1), which take gcds only of
factors that can share something; the canonical form (coprime, monic
denominator) is the same as that of the full-gcd reduction
`RatFun(num, den)` applies.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .field import FieldElem, scalar
from .mpoly import (dense_add, dense_divmod, dense_gcd, dense_mul, power,
                    print_sum, qdiv, qnorm)


class Poly:
    """Dense univariate polynomial, coefficients ascending, trimmed."""

    __slots__ = ("var", "params", "coeffs")

    def __init__(self, coeffs, var="t", params=()):
        params = tuple(params)
        cs = []
        for c in coeffs:
            if isinstance(c, (int, Fraction)):
                if params or c.__class__ is not int:
                    c = scalar(c, params)
            elif not (isinstance(c, FieldElem) and c.params == params):
                raise ValueError("coefficient %r in another context" % (c,))
            cs.append(c)
        while cs and not cs[-1]:
            cs.pop()
        self.var = var
        self.params = params
        self.coeffs = tuple(cs)

    @classmethod
    def _trusted(cls, coeffs, var, params):
        """A Poly of trimmed coefficients taken from checked Polys."""
        p = cls.__new__(cls)
        p.var, p.params, p.coeffs = var, params, tuple(coeffs)
        return p

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

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return scalar(0, self.params)

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
        return Poly._trusted(dense_add(self.coeffs, o.coeffs), self.var,
                             self.params)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted([-c for c in self.coeffs], self.var, self.params)

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
        return Poly._trusted(dense_mul(self.coeffs, o.coeffs), self.var,
                             self.params)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, Poly.const(1, self.var, self.params))

    def divmod(self, other: "Poly"):
        q, r = dense_divmod(self.coeffs, self._lift(other).coeffs)
        return (Poly._trusted(q, self.var, self.params),
                Poly._trusted(r, self.var, self.params))

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero():
            return self
        lc = self.leading()
        return Poly._trusted([qdiv(c, lc) for c in self.coeffs], self.var,
                             self.params)

    def derivative(self):
        return Poly._trusted([qnorm(self.coeffs[i] * i)
                              for i in range(1, len(self.coeffs))],
                             self.var, self.params)

    def gcd(self, other: "Poly") -> "Poly":
        return Poly._trusted(dense_gcd(self.coeffs, self._lift(other).coeffs),
                             self.var, self.params)

    def evaluate(self, x):
        if isinstance(x, (int, Fraction)):
            x = scalar(x, self.params)
        acc = scalar(0, self.params)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return qnorm(acc)

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
        """(Rational roots, ascending and with multiplicity, and the
        cofactor free of them) over Q only.

        With integer coefficients a_0..a_n, the rational roots are y / a_n
        for the integer roots y of the monic g(y) = a_n^(n-1) f(y / a_n),
        whose coefficients a_i a_n^(n-1-i) are integers; no divisor is
        searched for.
        """
        if self.params:
            raise ValueError("rational root extraction needs Q coefficients")
        roots, f = [], self
        if not self.degree():
            return roots, f
        a = _integer_coeffs(self)
        n = len(a) - 1
        g = [c * a[-1] ** (n - 1 - i) for i, c in enumerate(a[:-1])] + [1]
        for r in sorted(qdiv(y, a[-1]) for y in _integer_roots(g)):
            roots.append(r)
            f = f // Poly([-r, 1], self.var)
        return roots, f

    def integer_roots(self):
        """Integer roots (over Q only), ascending, each repeated by its
        multiplicity."""
        if self.params:
            raise ValueError("integer root extraction needs Q coefficients")
        return _integer_roots(_integer_coeffs(self)) if self.degree() else []

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


def _integer_coeffs(f: Poly):
    """The coefficients of f over Q times the lcm of their denominators."""
    lcm = math.lcm(*(c.denominator for c in f.coeffs))
    return [c.numerator * (lcm // c.denominator) for c in f.coeffs]


def _integer_roots(g):
    """Integer roots, ascending and each repeated by its multiplicity, of
    an integer polynomial g of positive degree (ascending coefficients
    g_0..g_n).

    A Sturm chain counts the real roots between the points y + 1/s, for
    integers y and s the least power of two above |g_n|.  Such a point is
    never a root: its reduced denominator s does not divide g_n, which a
    rational root's denominator does.  Bisection in y down to unit
    intervals leaves one integer to test in each interval with a root;
    its multiplicity is the number of derivatives vanishing there.
    """
    chain = [list(g)]
    chain.append([i * c for i, c in enumerate(chain[0]) if i])
    while True:
        r = dense_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    # the same chain with integer coefficients, scaled by positive integers
    chain = [[int(c * math.lcm(*(x.denominator for x in p))) for c in p]
             for p in chain]

    lead = abs(g[-1]).bit_length()
    s = 1 << lead

    def variations(y):
        """Sign changes of the chain at y + 1/s."""
        m = y * s + 1
        signs = []
        for p in chain:
            v, pw = p[-1], 1
            for c in reversed(p[:-1]):
                pw *= s
                v = v * m + c * pw
            if v:
                signs.append(v > 0)
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # Fujiwara: every root y has |y| <= 2 max |g_(n-i) / g_n|^(1/i), below
    # the power of two `bound`, as |g_(n-i) / g_n| < 2^(bits - lead + 1)
    n = len(g) - 1
    bound = 2 ** (1 + max(max(0, -((lead - 1 - abs(c).bit_length())
                                   // (n - i)))
                          for i, c in enumerate(g[:-1])))
    # the intervals (lo + 1/s, hi + 1/s] hold the integers lo + 1..hi
    lo, hi = -bound - 1, bound
    out = []
    stack = [(lo, hi, variations(lo), variations(hi))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            d = g
            while not sum(c * hi ** i for i, c in enumerate(d)):
                out.append(hi)
                d = [i * c for i, c in enumerate(d) if i]
            continue
        mid = (lo + hi) // 2
        vmid = variations(mid)
        stack += [(mid, hi, vmid, vhi), (lo, mid, vlo, vmid)]
    return out


class RatFun:
    """Reduced fraction of univariate polynomials; denominator monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None, _normalized=False):
        if den is None:
            den = Poly.const(1, num.var, num.params)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _normalized:
            if num.is_zero():
                den = Poly.const(1, num.var, num.params)
            else:
                num, den, _ = _cancel(num, den)
                lc = den.leading()
                if not (lc == 1):
                    num = Poly._trusted([qdiv(c, lc) for c in num.coeffs],
                                        num.var, num.params)
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
        # c over 1 is reduced, with a monic denominator
        return cls(Poly.const(c, var, params), Poly.const(1, var, params),
                   True)

    @classmethod
    def gen(cls, var="t", params=()):
        return cls(Poly.gen(var, params))

    def _lift(self, other):
        if isinstance(other, RatFun):
            if other.var != self.var or other.params != self.params:
                raise ValueError("mixing rational functions in different "
                                 "variables")
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
        if not o:
            return self
        if not self:
            return o
        b, d = self.den, o.den
        if b.degree() == 0 and d.degree() == 0:
            return RatFun(self.num + o.num, b, _normalized=True)
        # Henrici: with g = gcd(b, d), a/b + c/d = t / (b/g * d) for
        # t = a d/g + c b/g, and only gcd(t, g) can still cancel
        bq, dq, g = _cancel(b, d)
        t = self.num * dq + o.num * bq
        if t.is_zero():
            return RatFun(t)
        if g is not None:
            t, _, h = _cancel(t, g)
            if h is not None:
                d = d // h
        return RatFun(t, bq * d, _normalized=True)

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
        if other.__class__ is int or other.__class__ is Fraction:
            if not other:
                return RatFun.zero(self.var, self.params)
            # a nonzero rational keeps num/den reduced and den monic
            return RatFun(Poly._trusted([qnorm(c * other) for c in
                                         self.num.coeffs], self.var,
                                        self.params), self.den, True)
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if not self or not o:
            return RatFun.zero(self.var, self.params)
        # Henrici: cancel gcd(a, d) and gcd(c, b); what is left is coprime
        a, d, _ = _cancel(self.num, o.den)
        c, b, _ = _cancel(o.num, self.den)
        return RatFun(a * c, b * d, _normalized=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        lc = o.num.leading()
        inverse = RatFun(Poly._trusted([qdiv(c, lc) for c in o.den.coeffs],
                                       self.var, self.params),
                         o.num.monic(), _normalized=True)
        return self * inverse

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

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant rational function: %s" % self)
        if self.num.is_zero():
            return scalar(0, self.params)
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
        return qdiv(self.num.evaluate(x), d)

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


def _cancel(f: Poly, g: Poly):
    """(f/h, g/h, h) for the monic h = gcd(f, g) of nonzero f and g.

    h is None when it is 1; a constant f or g needs no gcd for that.
    """
    if f.degree() == 0 or g.degree() == 0:
        return f, g, None
    h = f.gcd(g)
    if h.degree() == 0:
        return f, g, None
    return f // h, g // h, h


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

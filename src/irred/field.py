"""Exact coefficient field Q(params): rational functions in named
parameters over Q, at least one.  Q itself is a plain int or Fraction
(canonical, see mpoly.py), never a FieldElem; `scalar(c, params)` gives
the constant c in either field.

Elements are reduced fractions of multivariate polynomials in the declared
parameters, with int or Fraction coefficients.  Canonical form:
gcd-reduced, denominator leading coefficient (degree-lexicographic order)
equal to 1.

Sums and products of reduced operands are reduced by Henrici's rules
(JACM 1956; Knuth, TAOCP vol. 2, 4.5.1), which take gcds only of factors
that can share something; the canonical form is the same as that of the
full-gcd reduction `FieldElem(params, num, den)` applies.
"""

from __future__ import annotations

from fractions import Fraction

from .mpoly import (_trim, dense_gcd, join_terms, mp_add, mp_mul, mp_neg,
                    mp_scale, power, qdiv, qnorm)

# ---------------------------------------------------------------------------
# Q-specific parts of the sparse {exponent-tuple: int or Fraction}
# polynomials; the ring-generic kernels live in mpoly.py


def _deglex_key(exps):
    return (sum(exps), exps)


def mp_const(c, nvars: int):
    c = scalar(c)
    if not c:
        return {}
    return {(0,) * nvars: c}


def mp_leading(f):
    e = max(f, key=_deglex_key)
    return e, f[e]


def mp_div_exact(f, g):
    """Exact multivariate division; caller guarantees divisibility."""
    if not f:
        return {}
    eg, cg = mp_leading(g)
    out = {}
    rem = dict(f)
    while rem:
        ef, cf = mp_leading(rem)
        q = tuple(a - b for a, b in zip(ef, eg))
        if any(x < 0 for x in q):
            raise ArithmeticError("inexact polynomial division")
        c = qdiv(cf, cg)
        out[q] = c
        rem = mp_add(rem, mp_neg(mp_mul({q: c}, g)))
    return out


def _mp_to_univar(f, nvars):
    """View f in the first variable: list of coefficient polys in the rest."""
    by_deg = {}
    for e, c in f.items():
        d = e[0]
        by_deg.setdefault(d, {})[e[1:]] = c
    top = max(by_deg) if by_deg else -1
    return [by_deg.get(d, {}) for d in range(top + 1)]


def _mp_from_univar(coeffs, nvars):
    out = {}
    for d, p in enumerate(coeffs):
        for e, c in p.items():
            out[(d,) + e] = c
    return out


def _uv_deg(coeffs):
    d = len(coeffs) - 1
    while d >= 0 and not coeffs[d]:
        d -= 1
    return d


def _uv_sub(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        ca = a[i] if i < len(a) else {}
        cb = b[i] if i < len(b) else {}
        out.append(mp_add(ca, mp_neg(cb)))
    return _trim(out)


def _uv_pseudo_rem(a, b, nv):
    """Pseudo-remainder of univariate polys with multivariate coefficients."""
    a = list(a)
    db, lb = _uv_deg(b), b[_uv_deg(b)]
    while _uv_deg(a) >= db and a:
        da = _uv_deg(a)
        la = a[da]
        a = [mp_mul(c, lb) for c in a]
        shift = [{} for _ in range(da - db)] + [mp_mul(c, la) for c in b]
        a = _uv_sub(a, shift)
    return a


def mp_gcd(f, g, nvars: int):
    """Gcd over Q: monic Euclid in one variable, primitive
    pseudo-remainder sequences in more."""
    if not f:
        return dict(g)
    if not g:
        return dict(f)
    if nvars == 1:
        f, g = [[h.get((d,), 0) for d in range(max(h)[0] + 1)]
                for h in (f, g)]
        return {(d,): c for d, c in enumerate(dense_gcd(f, g)) if c}
    fu = _mp_to_univar(f, nvars)
    gu = _mp_to_univar(g, nvars)
    if _uv_deg(fu) == 0 and _uv_deg(gu) == 0:
        inner = mp_gcd(fu[0], gu[0], nvars - 1)
        return _mp_from_univar([inner], nvars)

    def content(u):
        c = {}
        for p in u:
            c = mp_gcd(c, p, nvars - 1)
        return c

    cf, cg = content(fu), content(gu)
    fu = [mp_div_exact(p, cf) if p else {} for p in fu]
    gu = [mp_div_exact(p, cg) if p else {} for p in gu]
    cd = mp_gcd(cf, cg, nvars - 1)
    a, b = fu, gu
    if _uv_deg(a) < _uv_deg(b):
        a, b = b, a
    while True:
        r = _uv_pseudo_rem(a, b, nvars)
        if not r:
            break
        cr = content(r)
        r = [mp_div_exact(p, cr) if p else {} for p in r]
        a, b = b, r
        if _uv_deg(b) == 0:
            b = [mp_const(1, nvars - 1)]
            break
    gu = [mp_mul(p, cd) for p in b]
    res = _mp_from_univar(gu, nvars)
    # normalize sign/scale of leading term for determinism
    _, lc = mp_leading(res)
    return mp_scale(res, qdiv(1, lc))


def _is_const(f):
    """Whether the nonzero polynomial f is a constant."""
    return len(f) == 1 and not any(next(iter(f)))


def _cancel(f, g, nvars: int):
    """(f/h, g/h, h) for the monic h = gcd(f, g) of nonzero f and g.

    h is None when it is 1; a constant f or g needs no gcd for that.
    """
    if _is_const(f) or _is_const(g):
        return f, g, None
    h = mp_gcd(f, g, nvars)
    if _is_const(h):
        return f, g, None
    return mp_div_exact(f, h), mp_div_exact(g, h), h


def mp_eval(f, values):
    """Substitute rationals for all variables."""
    total = 0
    for e, c in f.items():
        term = c
        for v, k in zip(values, e):
            term *= v ** k
        total += term
    return qnorm(total)


# ---------------------------------------------------------------------------

def scalar(c, params=()):
    """The rational constant c in Q(params): over Q an int when it is
    integral and a Fraction otherwise, a FieldElem when there are
    parameters.  A float is refused rather than read as its binary
    fraction."""
    if params:
        return FieldElem.from_fraction(c, params)
    if c.__class__ is int:
        return c
    if isinstance(c, float):
        raise ValueError("a float is not an exact constant: %r" % c)
    return qnorm(Fraction(c))


class FieldElem:
    """Element of Q(params), params not empty: a reduced fraction of
    parameter polynomials."""

    __slots__ = ("params", "num", "den")

    def __init__(self, params, num, den=None, _normalized=False):
        self.params = tuple(params)
        if not self.params:
            raise ValueError("Q is represented by int or Fraction, not "
                             "FieldElem")
        if den is None:
            den = mp_const(1, len(self.params))
        if not den:
            raise ZeroDivisionError("zero denominator in coefficient field")
        if not _normalized:
            num, den = self._reduce(num, den, len(self.params))
        self.num = num
        self.den = den

    @staticmethod
    def _reduce(num, den, nv):
        if not num:
            return {}, mp_const(1, nv)
        num, den, _ = _cancel(num, den, nv)
        _, lc = mp_leading(den)
        if lc != 1:
            inv = qdiv(1, lc)
            num = mp_scale(num, inv)
            den = mp_scale(den, inv)
        return num, den

    # constructors ---------------------------------------------------------
    @classmethod
    def from_fraction(cls, c, params):
        params = tuple(params)
        nv = len(params)
        # a constant over 1 is born reduced
        return cls(params, mp_const(c, nv), mp_const(1, nv),
                   _normalized=True)

    @classmethod
    def parameter(cls, name, params):
        params = tuple(params)
        i = params.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(params)))
        return cls(params, {e: 1})

    def _lift(self, other):
        if isinstance(other, FieldElem):
            if other.params != self.params:
                raise ValueError("parameter context mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElem.from_fraction(other, self.params)
        return NotImplemented

    # arithmetic -----------------------------------------------------------
    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.num:
            return self
        if not self.num:
            return o
        b, d = self.den, o.den
        if _is_const(b) and _is_const(d):
            return FieldElem(self.params, mp_add(self.num, o.num), b,
                             _normalized=True)
        # Henrici: with g = gcd(b, d), a/b + c/d = t / (b/g * d) for
        # t = a d/g + c b/g, and only gcd(t, g) can still cancel
        nv = len(self.params)
        bq, dq, g = _cancel(b, d, nv)
        t = mp_add(mp_mul(self.num, dq), mp_mul(o.num, bq))
        if not t:
            return FieldElem(self.params, t)
        if g is not None:
            t, _, h = _cancel(t, g, nv)
            if h is not None:
                d = mp_div_exact(d, h)
        return FieldElem(self.params, t, mp_mul(bq, d), _normalized=True)

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.params, mp_neg(self.num), self.den, _normalized=True)

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
        if not self.num or not o.num:
            return FieldElem(self.params, {})
        if _is_const(self.den) and _is_const(o.den):  # polynomials
            return FieldElem(self.params, mp_mul(self.num, o.num), self.den,
                             _normalized=True)
        # Henrici: cancel gcd(a, d) and gcd(c, b); what is left is coprime
        nv = len(self.params)
        a, d, _ = _cancel(self.num, o.den, nv)
        c, b, _ = _cancel(o.num, self.den, nv)
        return FieldElem(self.params, mp_mul(a, c), mp_mul(b, d),
                         _normalized=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero field element")
        _, lc = mp_leading(o.num)
        inv = qdiv(1, lc)
        inverse = FieldElem(self.params, mp_scale(o.den, inv),
                            mp_scale(o.num, inv), _normalized=True)
        return self * inverse

    def __rtruediv__(self, other):
        o = self._lift(other)
        return o / self

    def __pow__(self, k: int):
        one = FieldElem.from_fraction(1, self.params)
        if k < 0:
            return power(one / self, -k, one)
        return power(self, k, one)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.params,
                     frozenset(self.num.items()),
                     frozenset(self.den.items())))

    # queries --------------------------------------------------------------
    def specialize(self, assignment: dict):
        """Substitute rationals for all parameters; an int or a Fraction."""
        values = []
        for p in self.params:
            if p not in assignment:
                raise ValueError("missing assignment for parameter %r" % p)
            values.append(scalar(assignment[p]))
        d = mp_eval(self.den, values)
        if d == 0:
            raise ZeroDivisionError(
                "denominator %s vanishes under %s" % (_mp_str(self.den, self.params), assignment))
        return qdiv(mp_eval(self.num, values), d)

    def __repr__(self):
        return "FieldElem(%s)" % self.__str__()

    def __str__(self):
        nv = len(self.params)
        if self.den == mp_const(1, nv):
            return _mp_str(self.num, self.params)
        return "(%s)/(%s)" % (_mp_str(self.num, self.params),
                              _mp_str(self.den, self.params))


def _mp_str(f, params):
    if not f:
        return "0"
    parts = []
    for e in sorted(f, key=_deglex_key, reverse=True):
        c = f[e]
        factors = []
        for name, k in zip(params, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append("%s^%d" % (name, k))
        if not factors:
            term = str(c)
        else:
            mono = "*".join(factors)
            if c == 1:
                term = mono
            elif c == -1:
                term = "-" + mono
            else:
                term = "%s*%s" % (c, mono)
        parts.append(term)
    return join_terms(parts)


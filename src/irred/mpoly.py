"""Polynomial kernels over an arbitrary coefficient ring.

A scalar of Q is canonical: an int when it is integral, a Fraction
otherwise, never a float.  Every kernel keeps Q coefficients canonical:
`qnorm` turns an integral Fraction result into its int, and `qdiv` is the
one division of Q scalars (an int / int that does not divide exactly
gives a Fraction, not a float).  Both pass any other coefficient through.

The sparse kernels (mp_*) work on {exponent tuple: coeff} dicts whose
coefficients are never zero; they only need +, -, * and truthiness of
the coefficients.  The parameter field (field.py) runs them over int or
Fraction coefficients, and MPoly over rational functions of the
independent variable for jet-space right-hand sides.

The dense kernels (dense_*) work on ascending coefficient lists in one
variable and return them trimmed.  Division and gcd need a coefficient
field (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 3).  Poly
and DiffOp run them over int or Fraction, FieldElem and RatFun, the
one-parameter gcd of field.py over int or Fraction.
"""

from __future__ import annotations

from fractions import Fraction


def qnorm(c):
    """c, with an integral Fraction replaced by its int."""
    if c.__class__ is Fraction and c.denominator == 1:
        return c.numerator
    return c


def qdiv(a, b):
    """a / b, canonical over Q: an int when a and b are ints and b
    divides a, a Fraction for any other int / int, and a / b otherwise
    (an integral Fraction quotient as its int)."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    c = a / b
    if c.__class__ is Fraction and c.denominator == 1:
        return c.numerator
    return c


def mp_add(f, g):
    out = dict(f)
    for e, c in g.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        else:
            s = s + c
            if s:
                out[e] = qnorm(s)
            else:
                del out[e]
    return out


def mp_neg(f):
    return {e: -c for e, c in f.items()}


def mp_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e)
            if s is None:
                out[e] = c1 * c2
            else:
                s = s + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
    return {e: qnorm(c) for e, c in out.items()}


def mp_scale(f, c):
    if not c:
        return {}
    return {e: qnorm(k * c) for e, k in f.items()}


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def dense_add(a, b):
    """Sum; the slots past the shorter operand are copied, not added."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = qnorm(out[i] + c)
    return _trim(out)


def dense_mul(a, b):
    """Product; terms with a zero factor are skipped.

    A slot with no surviving term is a zero of the type of a[0] * b[0],
    the type the full sum would have.
    """
    if not a or not b:
        return []
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                s = out[i + j]
                out[i + j] = x * y if s is None else s + x * y
    if any(s is None for s in out):
        z = a[0] * b[0]
        z = z - z
        out = [z if s is None else s for s in out]
    return _trim([qnorm(s) for s in out])


def dense_divmod(a, b):
    """(q, r) with a = q b + r and len(r) < len(b); b must be nonzero."""
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = _trim(list(a))
    db = len(b) - 1
    if len(r) <= db:
        return [], r
    lb = b[-1]
    q = [None] * (len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = qdiv(r[k + db], lb)
        if c:
            # slot k + db cancels exactly; it is cut off below
            for j in range(db):
                if b[j]:
                    r[k + j] = qnorm(r[k + j] - c * b[j])
    del r[db:]
    return q, _trim(r)


def dense_gcd(a, b):
    """Monic gcd by Euclid; [] when both are zero.

    When both are nonzero and one is a monomial c x^k, the gcd is x^j for
    j the smaller of k and the order of the other at 0, with no Euclid
    step.
    """
    a, b = _trim(list(a)), _trim(list(b))
    if a and b:
        for m, other in ((a, b), (b, a)):
            if not any(m[:-1]):
                j = 0
                while j < len(m) - 1 and not other[j]:
                    j += 1
                one = qdiv(m[-1], m[-1])
                return [one - one] * j + [one]
    while b:
        a, b = b, dense_divmod(a, b)[1]
    if not a:
        return a
    lc = a[-1]
    return [qdiv(c, lc) for c in a]


def power(x, k: int, one):
    """x**k by repeated squaring; one is returned for k = 0."""
    if k < 0:
        raise ValueError("negative exponent %d" % k)
    out = None
    while k:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if k:
            x = x * x
    return one if out is None else out


def join_terms(parts):
    """Join printed terms with " + ", or " - " before a negated term."""
    s = parts[0]
    for t in parts[1:]:
        s += " - " + t[1:] if t.startswith("-") else " + " + t
    return s


def print_sum(pairs):
    """Print a sum of coefficient * monomial terms; "0" for no terms.

    pairs are (coefficient string, monomial), the constant term with an
    empty monomial.  A constant is wrapped when it contains a space, 1
    and -1 drop to the monomial, and any other coefficient is wrapped
    when it contains a space or "/".
    """
    parts = []
    for cs, mono in pairs:
        if not mono:
            parts.append("(%s)" % cs if " " in cs else cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append("-" + mono)
        else:
            wrap = " " in cs or "/" in cs
            parts.append("%s*%s" % ("(%s)" % cs if wrap else cs, mono))
    return join_terms(parts) if parts else "0"


class MPoly:
    """Polynomial in named variables, terms as {exponent tuple: coeff}."""

    __slots__ = ("vars", "terms", "czero")

    def __init__(self, varnames, terms, czero):
        self.vars = tuple(varnames)
        self.terms = {e: c for e, c in terms.items() if c}
        self.czero = czero

    # constructors ---------------------------------------------------------
    @classmethod
    def const(cls, c, varnames, czero):
        varnames = tuple(varnames)
        return cls(varnames, {(0,) * len(varnames): c}, czero)

    @classmethod
    def zero(cls, varnames, czero):
        return cls(varnames, {}, czero)

    @classmethod
    def gen(cls, name, varnames, cone, czero):
        varnames = tuple(varnames)
        i = varnames.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(varnames)))
        return cls(varnames, {e: cone}, czero)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("variable context mismatch")

    def __add__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        return MPoly(self.vars, mp_add(self.terms, other.terms), self.czero)

    def __neg__(self):
        return MPoly(self.vars, mp_neg(self.terms), self.czero)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            return self.scale(other)
        self._check(other)
        return MPoly(self.vars, mp_mul(self.terms, other.terms), self.czero)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        return MPoly(self.vars, mp_scale(self.terms, c), self.czero)

    def __pow__(self, k: int):
        return power(self, k, MPoly.const(_one_like(self.czero), self.vars,
                                          self.czero))

    def diff(self, name):
        """Partial derivative with respect to one variable."""
        i = self.vars.index(name)
        # e -> e - 1 in slot i is injective, so no two terms collide
        return MPoly(self.vars, {e[:i] + (e[i] - 1,) + e[i + 1:]: e[i] * c
                                 for e, c in self.terms.items() if e[i]},
                     self.czero)

    def map_coeffs(self, f):
        return MPoly(self.vars, {e: f(c) for e, c in self.terms.items()},
                     self.czero)

    def extend(self, varnames):
        """Reinterpret over a larger variable list (superset, any order)."""
        varnames = tuple(varnames)
        idx = [varnames.index(v) for v in self.vars]
        out = {}
        for e, c in self.terms.items():
            e2 = [0] * len(varnames)
            for i, k in zip(idx, e):
                e2[i] = k
            out[tuple(e2)] = c
        return MPoly(varnames, out, self.czero)

    def total_degree(self, weights=None):
        """Max weighted degree; None for zero."""
        if not self.terms:
            return None
        if weights is None:
            weights = [1] * len(self.vars)
        return max(sum(w * k for w, k in zip(weights, e)) for e in self.terms)

    def as_coeff(self):
        """The constant term, if the polynomial is constant."""
        for e in self.terms:
            if any(e):
                raise ValueError("not a constant polynomial")
        if not self.terms:
            return self.czero
        return next(iter(self.terms.values()))

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __repr__(self):
        return "MPoly(%s)" % self.__str__()

    def __str__(self):
        order = sorted(self.terms,
                       key=lambda ex: (-sum(ex), tuple(-k for k in ex)))
        return print_sum(
            (str(self.terms[e]),
             "*".join(v if k == 1 else "%s^%d" % (v, k)
                      for v, k in zip(self.vars, e) if k))
            for e in order)


def _one_like(czero):
    return czero + 1

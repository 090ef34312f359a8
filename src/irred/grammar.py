"""Textual grammar for exact rational functions.

Accepts integers, + - * / ^, parentheses, one main variable name and any
declared parameter names.  print -> parse is the identity on canonical
forms (tested), since parsing just evaluates the expression tree with
exact arithmetic: a value is a scalar of Q(params) (an int, a Fraction
or a FieldElem) until it meets the main variable, and a RatFun from then
on; the parsed result is a RatFun, whose constructor makes its
coefficients canonical.  Every power and every + - * / is refused with
ParseError before it is computed when its result could pass the degree
or bit budgets (see _Parser), so a parse never computes past them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add

from .field import FieldElem
from .mpoly import qdiv
from .poly import RatFun

_RATIONALS = (int, Fraction)
_SCALARS = _RATIONALS + (FieldElem,)


class ParseError(ValueError):
    pass


# an integer, a name, an operator, or any other character (an error)
_TOKENS = re.compile(r"(\d+)|([^\W\d]\w*)|([-+*/^()])|(\S)")


def tokenize(text: str):
    toks = []
    for num, name, op, bad in _TOKENS.findall(text):
        if bad:
            raise ParseError("unexpected character %r" % bad)
        toks.append(("int", int(num)) if num else ("name", name) if name
                    else (op, op))
    toks.append(("end", None))
    return toks


def max_size(sizes):
    """Entrywise maximum of equally long size tuples."""
    return tuple(map(max, zip(*sizes)))


def _coeff_size(c):
    """(0, degree in the parameters, bit length of the largest integer)
    of an int, a Fraction or a FieldElem."""
    deg = max(sum(e) for e in (*c.num, *c.den)) if isinstance(
        c, FieldElem) else 0
    return 0, deg, coeff_bits((c,))[0]


def coeff_bits(cs):
    """(bit length of the largest integer, whether every one is an int)
    over the scalars cs; a FieldElem by the integers of its terms."""
    acc, whole = 0, True
    for c in cs:
        if c.__class__ is int:
            acc |= abs(c)
            continue
        whole = False
        acc |= (abs(c.numerator) | c.denominator if c.__class__ is Fraction
                else 1 << coeff_bits([*c.num.values(), *c.den.values()])[0]
                >> 1)
    return acc.bit_length(), whole


def _coeff_degree(c):
    """(degree in the parameters, whether c has no denominator) of a
    scalar: 0 over Q, the largest total degree of a FieldElem's terms."""
    if not isinstance(c, FieldElem):
        return 0, True
    return (max(sum(e) for e in (*c.num, *c.den)),
            len(c.den) == 1 and not any(next(iter(c.den))))


def ratfun_degrees(fs, params):
    """((degree in the variable, in the parameters), whether none has a
    denominator) bounding the RatFuns fs: over Q read in O(1) per RatFun
    from its coefficient lists, with parameters from their terms too."""
    deg, poly = 0, True
    for f in fs:
        n, d = len(f.num.coeffs), len(f.den.coeffs)
        deg = max(deg, n - 1, d - 1)
        poly = poly and d == 1
    if not params:
        return (deg, 0), poly
    ps = [_coeff_degree(c) for f in fs for c in f.num.coeffs + f.den.coeffs]
    return (deg, max(d for d, _ in ps)), poly and all(q for _, q in ps)


def ratfun_size(f: RatFun):
    """(degree in the variable, degree in the parameters, bits) of f,
    bits the bit length of the largest integer in its coefficients."""
    deg = max(len(f.num.coeffs), len(f.den.coeffs)) - 1
    return max_size([(deg, 0, 0)] + [_coeff_size(c) for c in
                                     f.num.coeffs + f.den.coeffs])


class _Parser:
    """Recursive-descent parser over scalar and RatFun values.

    A power is refused before it is computed when its result could pass
    MAX_DEGREE in some degree, or MAX_BITS in the bit length of an
    integer, as bounded by the size of its base (the `size` of a value).
    So is every + - * /, when its result could pass MAX_DEGREE as bounded
    by the `degrees` of its operands: a product or quotient adds them,
    and so does a sum unless both operands have no denominator, when it
    takes the larger.  Over Q those are read in O(1) from the lengths of
    the coefficient lists; with parameters, from their terms.  So is every
    + - * /, rational operands included, past MAX_BITS as bounded by the
    `bits` of its operands: a sum of values with integer coefficients and
    no denominator takes the larger plus one, any other sum adds them plus
    one, and a product or quotient adds them.
    """

    MAX_DEGREE = 64
    MAX_BITS = 4096

    def __init__(self, toks, var, params):
        self.toks = toks
        self.pos = 0
        self.var = var
        self.params = tuple(params)

    def peek(self):
        return self.toks[self.pos][0]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError("expected %s, got %r" % (kind, t[1]))
        return t

    def parse(self) -> RatFun:
        v = self.expr()
        self.expect("end")
        if isinstance(v, _SCALARS):
            return RatFun.const(v, self.var, self.params)
        return v

    def expr(self):
        v = self.term()
        while self.peek() in "+-":
            op = self.next()[0]
            w = self.term()
            self.check(op, v, w)
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.factor()
        while self.peek() in "*/":
            op = self.next()[0]
            w = self.factor()
            self.check(op, v, w)
            v = v * w if op == "*" else qdiv(v, w)
        return v

    def factor(self):
        sign = 1
        while self.peek() in "+-":
            if self.next()[0] == "-":
                sign = -sign
        v = self.atom()
        if self.peek() == "^":
            self.next()
            neg = False
            if self.peek() == "-":
                self.next()
                neg = True
            k = self.expect("int")[1]
            v = self.power(v, -k if neg else k)
        return v if sign == 1 else -v

    def size(self, v):
        """Degrees of a value, each bounded by MAX_DEGREE, then the bit
        length of its largest integer."""
        return _coeff_size(v) if isinstance(v, _SCALARS) else ratfun_size(v)

    def degrees(self, v):
        """(degrees, whether v has no denominator): v's degree in the
        variable, then in the parameters."""
        if isinstance(v, RatFun):
            return ratfun_degrees((v,), self.params)
        if isinstance(v, FieldElem):
            p, poly = _coeff_degree(v)
            return (0, p), poly
        return (0, 0), True

    def bits(self, v):
        """(bit length of the largest integer in v, whether v has integer
        coefficients and no denominator, its monic denominator 1)."""
        if not isinstance(v, RatFun):
            return coeff_bits((v,))
        bits, whole = coeff_bits(v.num.coeffs + v.den.coeffs)
        return bits, whole and len(v.den.coeffs) == 1

    def refuse_bits(self, op, v, w, k=1):
        """Raise ParseError when v op w, w counted k times, could pass
        MAX_BITS (see the class)."""
        (bv, iv), (bw, iw) = self.bits(v), self.bits(w)
        bits = (bv + k * bw if op in "*/" else
                max(bv, bw) + 1 if iv and iw else bv + bw + 1)
        if bits > self.MAX_BITS:
            raise ParseError("a constant of %d bits exceeds %d"
                             % (bits, self.MAX_BITS))

    def check(self, op, v, w):
        """Raise before v op w is computed when it could pass MAX_BITS or
        MAX_DEGREE (see the class).  Every value is within MAX_DEGREE, so
        a rational operand, which adds no degree, needs no degree check."""
        self.refuse_bits(op, v, w)
        if v.__class__ in _RATIONALS or w.__class__ in _RATIONALS:
            return
        (dv, pv), (dw, pw) = self.degrees(v), self.degrees(w)
        self.refuse_past(map(max if op in "+-" and pv and pw else add,
                             dv, dw))

    def refuse_past(self, degrees):
        """Raise ParseError when one of degrees passes MAX_DEGREE."""
        deg = max(degrees)
        if deg > self.MAX_DEGREE:
            raise ParseError("degree %d exceeds %d" % (deg, self.MAX_DEGREE))

    def within_budget(self, *parts):
        """Raise unless the product of v^k over the (v, k) parts keeps
        within MAX_DEGREE and MAX_BITS, as the sizes of its factors
        bound it."""
        *degs, bits = map(sum, zip(*([k * x for x in self.size(v)]
                                     for v, k in parts)))
        if max(degs) > self.MAX_DEGREE:
            raise ParseError("degree %d exceeds %d"
                             % (max(degs), self.MAX_DEGREE))
        if bits > self.MAX_BITS:
            raise ParseError("a constant of %d bits exceeds %d"
                             % (bits, self.MAX_BITS))

    def power(self, v, k):
        self.within_budget((v, abs(k)))
        if k < 0 and isinstance(v, _SCALARS):
            return qdiv(1, v ** -k)
        return v ** k

    def atom(self):
        kind, val = self.next()
        if kind == "int":
            return val
        if kind == "name":
            if val in self.params:
                return FieldElem.parameter(val, self.params)
            if val == self.var:
                return RatFun.gen(self.var, self.params)
            raise ParseError("unknown name %r (variable is %r, parameters %s)"
                             % (val, self.var, list(self.params)))
        if kind == "(":
            v = self.expr()
            self.expect(")")
            return v
        raise ParseError("unexpected token %r" % val)


def parse_ratfun(text: str, var="t", params=()) -> RatFun:
    return _Parser(tokenize(text), var, params).parse()

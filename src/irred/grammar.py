"""Textual grammar for exact rational functions.

Accepts integers, + - * / ^, parentheses, one main variable name and any
declared parameter names.  print -> parse is the identity on canonical
forms (tested), since parsing just evaluates the expression tree with
exact arithmetic: a value is a scalar of Q(params) (an int, a Fraction
or a FieldElem) until it meets the main variable, and a RatFun from then
on; the parsed result is a RatFun, whose constructor makes its
coefficients canonical.  Every power and every + - * / is refused with
ParseError before it is computed when its result could pass the degree
budget (see _Parser), so a parse never computes past that degree.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .field import FieldElem
from .mpoly import qdiv
from .poly import RatFun

_RATIONALS = (int, Fraction)
_SCALARS = _RATIONALS + (FieldElem,)


class ParseError(ValueError):
    pass


def tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j])))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j]))
            i = j
        elif c in "+-*/^()":
            toks.append((c, c))
            i += 1
        else:
            raise ParseError("unexpected character %r" % c)
    toks.append(("end", None))
    return toks


def max_size(sizes):
    """Entrywise maximum of equally long size tuples."""
    return tuple(map(max, zip(*sizes)))


def _coeff_size(c):
    """(0, degree in the parameters, bit length of the largest integer)
    of an int, a Fraction or a FieldElem."""
    if isinstance(c, FieldElem):
        terms = list(c.num.items()) + list(c.den.items())
        return (0, max(sum(e) for e, _ in terms),
                max(_coeff_size(x)[2] for _, x in terms))
    return 0, 0, max(c.numerator.bit_length(), c.denominator.bit_length())


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
    the coefficient lists; with parameters, from their terms.
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

    def check(self, op, v, w):
        """Raise before v op w is computed when it could pass MAX_DEGREE
        (see the class).  Every value is within it, so a rational
        operand, which adds no degree, needs no check."""
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

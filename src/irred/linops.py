"""Matrices of rational functions and scalar differential operators.

Matrices are plain nested lists of RatFun (see linear.py for the generic
elimination routines).  DiffOp is Sum c_i D^i with D = d/dvar acting on
the left; composition uses the Leibniz rule D o c = c D + c'.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .field import FieldElem
from .grammar import (ParseError, _Parser, max_size, ratfun_degrees,
                      ratfun_size, tokenize)
from .linear import mat_mul, mat_shape
from .mpoly import dense_add, dense_mul, power, print_sum, qdiv, qnorm
from .poly import Poly, RatFun, ratfun


def _zero_one_of(entry: RatFun):
    z = RatFun.zero(entry.var, entry.params)
    return z, RatFun.const(1, entry.var, entry.params)


def sym_power_matrix(A, m: int):
    """Induced system matrix on the basis u_k = C(m,k) y^(m-k) z^k.

    If (y,z)' = A (y,z) then the vector of u_k solves U' = M U.
    """
    if mat_shape(A) != (2, 2):
        raise ValueError("sym_power_matrix expects a 2x2 matrix")
    (a, b), (c, d) = A
    zero = qnorm(a - a)
    M = [[zero] * (m + 1) for _ in range(m + 1)]
    for k in range(m + 1):
        M[k][k] = qnorm((m - k) * a + k * d)
        if k + 1 <= m:
            M[k][k + 1] = qnorm((k + 1) * b)
        if k - 1 >= 0:
            M[k][k - 1] = qnorm((m - k + 1) * c)
    return M


def sym_power_rep(Q, m: int):
    """Induced change of basis on u_k = C(m,k) y^(m-k) z^k for (y,z) = Q(u,v).

    This is the multiplicative symmetric power (group representation), as
    opposed to sym_power_matrix which is the derivation action.
    """
    if mat_shape(Q) != (2, 2):
        raise ValueError("sym_power_rep expects a 2x2 matrix")
    (a, b), (c, d) = Q
    zero = qnorm(a - a)
    S = [[zero] * (m + 1) for _ in range(m + 1)]
    for k in range(m + 1):
        # expand C(m,k) (a u + b v)^(m-k) (c u + d v)^k in powers of u
        p1 = [math.comb(m - k, i) * a ** i * b ** (m - k - i)
              for i in range(m - k + 1)]
        p2 = [math.comb(k, l) * c ** l * d ** (k - l) for l in range(k + 1)]
        for i, x in enumerate(dense_mul(p1, p2)):
            S[k][m - i] = qnorm(math.comb(m, k) * x
                                * Fraction(1, math.comb(m, i)))
    return S


class DiffOp:
    """Scalar linear differential operator Sum c_i D^i, c_i rational."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, var=None, params=None):
        cs = []
        for c in coeffs:
            if not isinstance(c, RatFun):
                c = ratfun(c, var or "t", params or ())
            cs.append(c)
        if not cs:
            raise ValueError("operator needs at least one coefficient")
        while len(cs) > 1 and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def var(self):
        return self.coeffs[0].var

    @property
    def params(self):
        return self.coeffs[0].params

    def order(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return len(self.coeffs) == 1 and not self.coeffs[0]

    def coeff(self, k) -> RatFun:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return RatFun.zero(self.var, self.params)

    @classmethod
    def identity_d(cls, var="t", params=()):
        return cls([RatFun.zero(var, params), RatFun.const(1, var, params)])

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return DiffOp(dense_add(self.coeffs, o.coeffs)
                      or [RatFun.zero(self.var, self.params)])

    __radd__ = __add__

    def __neg__(self):
        return DiffOp([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def _lift(self, other):
        if isinstance(other, DiffOp):
            return other
        if isinstance(other, (int, Fraction, FieldElem, Poly, RatFun)):
            return DiffOp([ratfun(other, self.var, self.params)])
        return NotImplemented

    def __mul__(self, other):
        """Operator composition; scalars act as order-zero operators."""
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        zero = RatFun.zero(self.var, self.params)
        out = [zero] * (self.order() + o.order() + 1)
        for j, b in enumerate(o.coeffs):
            # D^i o b = sum_k C(i,k) b^(k) D^(i-k): each b^(k) taken once
            derivs = [b]
            while len(derivs) <= self.order() and derivs[-1]:
                derivs.append(derivs[-1].derivative())
            for i, a in enumerate(self.coeffs):
                for k, bk in enumerate(derivs[:i + 1]):
                    if a and bk:
                        out[i - k + j] = (out[i - k + j]
                                          + a * bk * math.comb(i, k))
        return DiffOp(out)

    def __rmul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self

    def __pow__(self, k: int):
        return power(self, k, DiffOp([RatFun.const(1, self.var, self.params)]))

    def monic(self):
        lc = self.coeffs[-1]
        if not lc:
            raise ValueError("cannot monicize the zero operator")
        return DiffOp([c / lc for c in self.coeffs])

    def apply(self, f) -> RatFun:
        f = ratfun(f, self.var, self.params)
        acc = RatFun.zero(self.var, self.params)
        for c in self.coeffs:
            acc = acc + c * f
            f = f.derivative()
        return acc

    def specialize(self, assignment: dict) -> "DiffOp":
        return DiffOp([c.specialize(assignment) for c in self.coeffs])

    def __eq__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "DiffOp(%s)" % self.__str__()

    def __str__(self):
        return print_sum(
            (str(c), "" if k == 0 else "D" if k == 1 else "D^%d" % k)
            for k, c in reversed(list(enumerate(self.coeffs))) if c)


class _OpParser(_Parser):
    """Grammar parser over the operator ring.  A value stays below it, a
    scalar or a RatFun as in _Parser, until it meets D, and becomes a
    DiffOp then or at the end."""

    def parse(self):
        v = super().parse()
        return v if isinstance(v, DiffOp) else DiffOp([v])

    def size(self, v):
        """The order, then the largest size of a coefficient."""
        if not isinstance(v, DiffOp):
            return (0,) + super().size(v)
        return (v.order(),) + max_size([ratfun_size(c) for c in v.coeffs])

    def degrees(self, v):
        """The order, then the degrees of the coefficients (_Parser)."""
        if not isinstance(v, DiffOp):
            d, poly = super().degrees(v)
            return (0,) + d, poly
        d, poly = ratfun_degrees(v.coeffs, self.params)
        return (v.order(),) + d, poly

    def bits(self, v):
        """_Parser.bits, of an operator over its coefficients."""
        if not isinstance(v, DiffOp):
            return super().bits(v)
        bits, whole = zip(*map(super().bits, v.coeffs))
        return max(bits), all(whole)

    def check(self, op, v, w):
        """As _Parser; v * w and v / w differentiate w up to order(v)
        times, each derivative adding a denominator, so w counts
        order(v) + 1 times in the coefficient degrees and bits."""
        if op in "+-" or not isinstance(v, DiffOp) or not v.order():
            return super().check(op, v, w)
        k = v.order() + 1
        self.refuse_bits(op, v, w, k)
        (dv, _), (dw, _) = self.degrees(v), self.degrees(w)
        self.refuse_past([dv[0] + dw[0]]
                         + [a + k * b for a, b in zip(dv[1:], dw[1:])])

    def atom(self):
        kind, val = self.toks[self.pos]
        if kind == "name" and val == "D":
            self.pos += 1
            return DiffOp.identity_d(self.var, self.params)
        return super().atom()

    def power(self, v, k):
        """D^k is built as the monomial, not composed by squaring.  A
        negative power is taken of the value as an operator, which
        DiffOp refuses, so a coefficient has none either."""
        D = DiffOp.identity_d(self.var, self.params)
        if k > 0 and isinstance(v, DiffOp) and v == D:
            self.within_budget((v, k))
            zero, one = D.coeffs
            return DiffOp([zero] * k + [one])
        if k < 0 and not isinstance(v, DiffOp):
            v = DiffOp([v], self.var, self.params)
        return super().power(v, k)

    def term(self):
        """As _Parser.term; dividing an operator by w composes it with
        1/w, and w may not be an operator of positive order."""
        v = self.factor()
        while self.peek() in "*/":
            op = self.next()[0]
            w = self.factor()
            self.check(op, v, w)
            if op == "*":
                v = v * w
                continue
            if isinstance(w, DiffOp):
                if w.order() != 0:
                    raise ParseError("cannot divide by a differential operator")
                w = w.coeffs[0]
            v = v * qdiv(1, w) if isinstance(v, DiffOp) else qdiv(v, w)
        return v


def parse_operator(text: str, var="t", params=()) -> DiffOp:
    return _OpParser(tokenize(text), var, params).parse()


class ScalarizeResult(tuple):
    """(operator, rhs) pair that also exposes the back-substitution map."""

    def __new__(cls, op, rhs, back):
        self = super().__new__(cls, (op, rhs))
        self.back_substitute = back
        return self

    @property
    def op(self):
        return self[0]

    @property
    def rhs(self):
        return self[1]


def cyclic_vector_scalarize(A, b=None):
    """Turn the system F' = A F + b into one scalar equation M(f) = h.

    f = v.F for a covector v read off A; solvability in rational
    functions is preserved both ways.  The returned object unpacks as
    (M, h) and has a back_substitute(f) method recovering the full
    vector F.

    If A is upper Hessenberg with a nonzero constant subdiagonal, v is
    e_n: the Krylov rows v_k are then anti-triangular with a nonzero
    constant anti-diagonal, so e_n is cyclic, det V is a nonzero
    constant and M has no singularity that A lacks (for the family
    matrix Psi(n), M is Sym^(n+1)(D^2 - t)).  Otherwise v is e_1, which
    gives a triangular V on a matrix with a constant superdiagonal
    (the P3 obstruction systems).

    The Krylov matrix V is solved by substitution.  Each row v_k must
    bring exactly one column that the rows above it do not use, with a
    constant entry there; every row is checked as it is computed.  If
    one does not, v is not cyclic or V is not triangular up to a column
    order, and ValueError reports the system as unsupported: a refusal,
    never a guess.
    """
    n, n2 = mat_shape(A)
    if n != n2:
        raise ValueError("system matrix must be square")
    zero, one = _zero_one_of(A[0][0])
    if b is None:
        b = [zero] * n
    b = [ratfun(x, zero.var, zero.params) for x in b]
    hessenberg = all(A[i][i - 1].is_constant() and A[i][i - 1]
                     and not any(A[i][:i - 1]) for i in range(1, n))
    k = n - 1 if hessenberg else 0
    rows = [[one if i == k else zero for i in range(n)]]
    pivots = [k]
    ws = [zero]
    Ab = [list(row) + [bk] for row, bk in zip(A, b)]
    for i in range(1, n + 1):
        vi = rows[-1]
        # the last row times A and times b in one product
        vAb = mat_mul([vi], Ab)[0]
        row = [x.derivative() + y for x, y in zip(vi, vAb)]
        rows.append(row)
        ws.append(ws[-1].derivative() + vAb[n])
        if i < n:
            new = [j for j, x in enumerate(row) if x and j not in pivots]
            if len(new) != 1 or not row[new[0]].is_constant():
                raise ValueError(
                    "unsupported system: Krylov row %d of the covector "
                    "e_%d does not bring exactly one new column with a "
                    "constant pivot" % (i, k + 1))
            pivots.append(new[0])
    left, right = _krylov_solvers(rows[:n], pivots, one)
    # c_0..c_{n-1} with sum_i c_i v_i = -v_n
    c = left([-x for x in rows[n]])
    op = DiffOp(c + [one])
    h = ws[n] + sum((c[i] * ws[i] for i in range(n)), zero)

    def back(f):
        f = ratfun(f, zero.var, zero.params)
        derivs = []
        g = f
        for i in range(n):
            derivs.append(g - ws[i])
            g = g.derivative()
        return right(derivs)

    return ScalarizeResult(op, h, back)


def _krylov_solvers(V, pivots, one):
    """The maps r -> r V^-1 and d -> V^-1 d by substitution, for V
    triangular up to a column order: row i of V has its constant pivot
    in column pivots[i] and is zero outside the columns pivots[0..i].
    O(n^2) products and divisions by the pivots only.
    """
    n = len(V)
    invs = [one / V[i][j] for i, j in enumerate(pivots)]

    def left(r):
        # column pivots[j] of V is zero in the rows above row j
        x = [None] * n
        for j in reversed(range(n)):
            col = pivots[j]
            s = r[col]
            for i in range(j + 1, n):
                if x[i] and V[i][col]:
                    s = s - x[i] * V[i][col]
            x[j] = s * invs[j]
        return x

    def right(d):
        F = [None] * n
        for i, row in enumerate(V):
            s = d[i]
            for col in pivots[:i]:
                if row[col] and F[col]:
                    s = s - row[col] * F[col]
            F[pivots[i]] = s * invs[i]
        return F

    return left, right


def sym_power_chain(L: DiffOp, m: int) -> list:
    """The operators L_0, ..., L_{m+1} of the recurrence for Sym^m(L).

    For monic L = D^2 + a D + b: L_0 = 1, L_1 = D and
    L_{i+1} = D L_i + i a L_i + i (m - i + 1) b L_{i-1}; Sym^m(L) is
    L_{m+1} (Bronstein, Mulders & Weil, ISSAC 1997).  For a solution y
    of L, L_k(y^m) = m!/(m-k)! y^(m-k) y'^k.
    """
    if L.order() != 2:
        raise ValueError("symmetric power of operators implemented for order 2")
    Lm = L.monic()
    a, b = Lm.coeff(1), Lm.coeff(0)
    zero, one = _zero_one_of(a)
    chain = [[one], [zero, one]]
    for i in range(1, m + 1):
        prev, cur = chain[-2:]
        ia, s = i * a, i * (m - i + 1) * b
        # on coefficients, D o sum c_k D^k = sum (c_k' D^k + c_k D^(k+1))
        nxt = [c.derivative() + ia * c if a else c.derivative()
               for c in cur] + [zero]
        for k, c in enumerate(cur):
            nxt[k + 1] = nxt[k + 1] + c
        for k, c in enumerate(prev):
            nxt[k] = nxt[k] + s * c
        chain.append(nxt)
    return [DiffOp(cs) for cs in chain]


def sym_power_operator(L: DiffOp, m: int) -> DiffOp:
    """Monic operator annihilating all products of m solutions of L:
    the last operator of sym_power_chain(L, m)."""
    return sym_power_chain(L, m)[-1]

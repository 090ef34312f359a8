"""Reference routes that the tests compare irred against.

None of these is on a path that builds or replays a certificate: each
is a second, plainer way to get a result the package computes otherwise.
"""

import math
from fractions import Fraction

# verdict._family_psi is looked up at each call, so a test can perturb it
from irred import verdict
from irred.field import FieldElem, scalar
from irred.grammar import (ParseError, _Parser, max_size, ratfun_size,
                           tokenize)
from irred.jets import (_P3_SCALES, EquationFamily, VectorFieldSpec,
                        _blockdiag, _from_parts, _p3_third_rows,
                        _scale_conj, _subsystem_matrices, _w_parts,
                        linearize, normal_restrict, p3_weights, prolong,
                        restrict_along_curve, truncate)
from irred.liealg import block_e_matrices
from irred.linear import (mat_bracket, mat_identity, mat_mul, mat_shape,
                          mat_sub, mat_transpose, solve_all)
from irred.linops import DiffOp, cyclic_vector_scalarize, sym_power_rep
from irred.mpoly import _trim, dense_divmod, qdiv, qnorm
from irred.poly import Poly, RatFun


def companion(L):
    """Companion matrix of the monicized operator: Y=(y,y',...) gives Y'=AY."""
    n = L.order()
    if n < 1:
        raise ValueError("companion matrix needs order >= 1")
    Lm = L.monic()
    zero = RatFun.zero(L.var, L.params)
    one = RatFun.const(1, L.var, L.params)
    A = [[zero] * n for _ in range(n)]
    for i in range(n - 1):
        A[i][i + 1] = one
    for j in range(n):
        A[n - 1][j] = -Lm.coeff(j)
    return A


def sym_power_by_composition(L, m):
    """Sym^m(L) of an order-2 L by the recurrence of
    linops.sym_power_operator, each step composed with DiffOp.__mul__:
    L_{i+1} = (D + i a) L_i + i (m - i + 1) b L_{i-1}."""
    Lm = L.monic()
    a, b = Lm.coeff(1), Lm.coeff(0)
    D = DiffOp.identity_d(L.var, L.params)
    prev, cur = DiffOp([RatFun.const(1, L.var, L.params)]), D
    for i in range(1, m + 1):
        prev, cur = cur, ((D + i * a) * cur
                          + DiffOp([i * (m - i + 1) * b]) * prev)
    return cur


def family_scalar_form(n, p):
    """The Krylov pass of linops.cyclic_vector_scalarize on
    F' = Psi(n) F + [p, 0, ...]: it unpacks as the scalar form (M, h) and
    lifts a scalar solution by back_substitute.  reduced_form_obstruction
    takes both from closed forms instead (Sym^(n+1)(D^2 - t) and
    verdict._family_lift)."""
    zero = RatFun.zero("t")
    return cyclic_vector_scalarize(verdict._family_psi(n),
                                   [p] + [zero] * (n + 1))


def mat_derivative(a):
    return [[x.derivative() for x in row] for row in a]


def inverse(m, one):
    """m^-1 by one elimination with every unit vector as a right-hand
    side; ValueError when m is singular."""
    n, n2 = mat_shape(m)
    if n != n2:
        raise ValueError("inverse of a non-square matrix")
    cols, kernel = solve_all(m, mat_identity(n, one), one)
    if kernel:
        raise ValueError("matrix is singular")
    return mat_transpose(cols)


def gauge_transform(P, A):
    """P[A] = P A P^{-1} - P' P^{-1}; the system matrix after Y = P Z."""
    entry = P[0][0]
    try:
        Pinv = inverse(P, RatFun.const(1, entry.var, entry.params))
    except ValueError:
        raise ValueError("not a gauge transformation")
    return mat_sub(mat_mul(mat_mul(P, A), Pinv),
                   mat_mul(mat_derivative(P), Pinv))


def sl2_triplet_check(X, Y, H) -> bool:
    """[X,Y]=H, [H,X]=2X, [H,Y]=-2Y."""
    def scaled(M, c):
        return [[c * x for x in row] for row in M]

    return (mat_bracket(X, Y) == [list(r) for r in H]
            and mat_bracket(H, X) == scaled(X, 2)
            and mat_bracket(H, Y) == scaled(Y, -2))


def block_f_matrices(n):
    """Alternating-sign variant F_i = (-1)^i E_i of the ideal basis.

    On this basis the adjoint action of the block system matrix
    X + t Y is sym^(n+1)(A_1) with every entry negated and transposed
    (the dual of the symmetric power system).
    """
    out = []
    for i, E in enumerate(block_e_matrices(n)):
        s = (-1) ** i
        out.append([[s * x for x in row] for row in E])
    return out


def lnve_airy_family_pipeline(n, P):
    """The family's (LNVE_n) matrix through prolong -> restrict -> normal
    -> linearize, against build_lnve_airy_family's closed form."""
    X = EquationFamily(n, P).field()
    J = prolong(X, n)
    zero = RatFun.zero("x")
    J = restrict_along_curve(J, {"y": zero, "z": zero})
    return linearize(normal_restrict(J))


def euclid_gcd(a, b):
    """Monic gcd of ascending coefficient lists by Euclid alone, with no
    closed form for a monomial operand; [] when both are zero."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, dense_divmod(a, b)[1]
    return [qdiv(c, a[-1]) for c in a] if a else a


def canonical_q(x):
    """Whether x is a canonical scalar of Q: an int, or a Fraction that
    is not integral (never a float or a bool)."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def same_field(x, like):
    """Whether x is in the coefficient field of like: a canonical scalar
    when like is an int or a Fraction, an object of like's type
    otherwise."""
    if type(like) in (int, Fraction):
        return canonical_q(x)
    return type(x) is type(like)


def p3_field():
    """Hamiltonian vector field of the Painleve III case over Q(mu)(x),
    x H = 2 y^2 z^2 - (x y^2 - 2 mu y - x) z - mu x y, with x the
    independent coordinate: the form that jets.p3_w_field writes with
    w = 1/x."""
    ay = "(4*y^2*z - x*y^2 + 2*mu*y + x)/x"
    az = "(-4*y*z^2 + 2*x*y*z - 2*mu*z + mu*x)/x"
    return VectorFieldSpec(("x", "y", "z"), ["1", ay, az],
                           params=("mu",), indep="x")


def p3_order(k):
    """The order-k P3 system over Q(mu)(x), prolonged at order k,
    restricted along y = 1, z = -mu/2 and normal-restricted."""
    return normal_restrict(restrict_along_curve(prolong(p3_field(), k),
                                                {"y": "1", "z": "-mu/2"}))


def p3_w_field(mu="mu"):
    """The P3 field with w = 1/x taken for a parameter, over Q(mu, w);
    with mu the text of a rational, the field at that mu, over Q(w).
    jets.p3_unit_field is its value at mu = 1."""
    ay = "4*w*y^2*z - y^2 + 2*mu*w*y + 1"
    az = "-4*w*y*z^2 + 2*y*z - 2*mu*w*z + mu"
    return VectorFieldSpec(
        ("y", "z"), [c.replace("mu", "(%s)" % mu) for c in (ay, az)],
        params=("mu", "w") if mu == "mu" else ("w",))


def p3_gauges(mu):
    """(Q1, Q2, Q3) and their inverses (R1, R2, R3) at mu, a FieldElem
    over Q(mu) or a rational: Q1 = [[-2 mu, 1], [-mu^2, 0]], and Q_k
    the block diagonal of Sym^j(Q1), j = k, ..., 1."""
    zero = mu - mu

    def gauges(M):
        S2 = sym_power_rep(M, 2)
        return (M, _blockdiag([S2, M], zero),
                _blockdiag([sym_power_rep(M, 3), S2, M], zero))

    # det Q1 = mu^2, and Sym^j(Q1^-1) = Sym^j(Q1)^-1 block by block
    one, det = zero + 1, mu * mu
    return (gauges([[-2 * mu, one], [-det, zero]]),
            gauges([[zero, -one / det], [one, -2 * mu / det]]))


def p3_reference_parts(mu="mu"):
    """The constant parts (C_inf, C_0) of A1..A3 and At1..At3, by name,
    from the jet pass on p3_w_field(mu) along y = 1, z = -mu/2 with mu
    left in: over Q(mu) for mu = "mu", over Q at the text of a
    rational.  It is the pass jets.build_p3_chain runs at mu = 1 only."""
    J3 = restrict_along_curve(prolong(p3_w_field(mu), 3),
                              {"y": "1", "z": "-(%s)/2" % mu})
    L3 = linearize(J3)
    m = (FieldElem.parameter("mu", ("mu",)) if mu == "mu"
         else scalar(Fraction(mu)))
    one = m - m + 1
    parts = {
        "A1": _w_parts(linearize(truncate(J3, 1)).matrix),
        "A2": tuple(_scale_conj(C, _P3_SCALES[2])
                    for C in _w_parts(linearize(truncate(J3, 2)).matrix)),
        "A3": tuple(_scale_conj(B, _P3_SCALES[3]) for B in
                    _subsystem_matrices(_w_parts(L3.matrix),
                                        _p3_third_rows(L3), one)),
    }
    for k, R, Q in zip((1, 2, 3), *p3_gauges(m)[::-1]):
        parts["At%d" % k] = tuple(mat_mul(R, mat_mul(C, Q))
                                  for C in parts["A%d" % k])
    return parts


def mu_graded(C, rows, cols, shift=0):
    """The rational matrix C over Q(mu), entry c at (i, j) times mu^e,
    e = rows[i] - cols[j] + shift, each built reduced with no arithmetic:
    the reference regrade of a P3 record at mu = 1."""

    def monomial(c, e):  # c mu^e / 1, or c / mu^-e
        if not c:
            return FieldElem(("mu",), {}, {(0,): 1}, _normalized=True)
        return FieldElem(("mu",), {(max(e, 0),): qnorm(c)},
                         {(max(-e, 0),): 1}, _normalized=True)

    return [[monomial(c, r - s + shift) for c, s in zip(row, cols)]
            for row, r in zip(C, rows)]


def regraded(M, rows, cols, shift=0):
    """A P3 matrix over Q(x) at mu = 1, entries c_inf + c_0/x, over
    Q(mu)(x) by the reading rule of irred.verdict: entry (i, j) becomes
    mu^(rows_i - cols_j + shift) (c_inf + mu c_0/x)."""
    Ci, C0 = cinf_c0(M)
    return _from_parts(mu_graded(Ci, rows, cols, shift),
                       mu_graded(C0, rows, cols, shift + 1), "x", ("mu",))


def p3_graded_parts(chain):
    """The unit parts of the P3 chain over Q(mu), by name, regraded by
    p3_weights: C_inf with shift 0 and C_0 with shift 1."""
    out = {}
    for k in (1, 2, 3):
        for name, s in zip(("A%d" % k, "At%d" % k), p3_weights(k)):
            Ci, C0 = chain.unit_parts[name]
            out[name] = (mu_graded(Ci, s, s), mu_graded(C0, s, s, 1))
    return out


def cinf_c0(M):
    """Split a matrix with entries c_inf + c_0/x into two constant parts.

    An entry is reduced with a monic denominator, so it has that form
    when its denominator is 1 and its numerator c_inf, or its
    denominator x and its numerator c_inf x + c_0; the parts are read
    off the coefficients, without arithmetic.
    """
    Cinf, C0 = [], []
    for row in M:
        ri, r0 = [], []
        for f in row:
            # the coefficients of x f = c_0 + c_inf x, ascending
            zero = scalar(0, f.params)
            if f.den.degree() == 0:
                xf = (zero,) + f.num.coeffs
            elif f.den == Poly.gen(f.var, f.params):
                xf = f.num.coeffs
            else:
                xf = None
            if xf is None or len(xf) > 2:
                raise ValueError("entry %s is not of the form a + b/x" % f)
            xf += (zero,)
            r0.append(xf[0])
            ri.append(xf[1])
        Cinf.append(ri)
        C0.append(r0)
    return Cinf, C0


class RatFunParser(_Parser):
    """The grammar's evaluator with every value a RatFun from its atom
    on, the reference that grammar._Parser's scalars must agree with:
    the same tokens, precedence and power budget, over RatFun arithmetic
    alone."""

    def parse(self):
        v = self.expr()
        self.expect("end")
        return v

    def expr(self):
        v = self.term()
        while self.peek() in "+-":
            op = self.next()[0]
            w = self.term()
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.factor()
        while self.peek() in "*/":
            op = self.next()[0]
            w = self.factor()
            v = v * w if op == "*" else v / w
        return v

    def size(self, v):
        return ratfun_size(v)

    def power(self, v, k):
        self.within_budget((v, abs(k)))
        return v ** k

    def atom(self):
        v = super().atom()
        if isinstance(v, (RatFun, DiffOp)):
            return v
        return RatFun.const(v, self.var, self.params)


def compose(A, B):
    """The operator A o B by the Leibniz rule, term by term, with every
    derivative of every coefficient of B taken afresh: the reference for
    DiffOp.__mul__, which takes each b^(k) once."""
    zero = RatFun.zero(A.var, A.params)
    out = [zero] * (A.order() + B.order() + 1)
    for i, a in enumerate(A.coeffs):
        for j, b in enumerate(B.coeffs):
            bk = b
            for k in range(i + 1):
                # D^i o b = sum_k C(i,k) b^(k) D^(i-k)
                out[i - k + j] = out[i - k + j] + a * math.comb(i, k) * bk
                bk = bk.derivative()
    return DiffOp(out)


class RatFunOpParser(RatFunParser):
    """The operator parser with every value a DiffOp from its atom on,
    composed by `compose`: the reference for linops._OpParser, which
    keeps a value a scalar or a RatFun until it meets D."""

    def size(self, v):
        return (v.order(),) + max_size([ratfun_size(c) for c in v.coeffs])

    def atom(self):
        kind, val = self.toks[self.pos]
        if kind == "name" and val == "D":
            self.pos += 1
            return DiffOp.identity_d(self.var, self.params)
        v = super().atom()
        if isinstance(v, DiffOp):
            return v
        return DiffOp([v], self.var, self.params)

    def power(self, v, k):
        D = DiffOp.identity_d(self.var, self.params)
        if k > 0 and v == D:
            self.within_budget((v, k))
            zero, one = D.coeffs
            return DiffOp([zero] * k + [one])
        if k <= 0:
            return super().power(v, k)
        self.within_budget((v, k))
        out = v
        for _ in range(k - 1):
            out = compose(out, v)
        return out

    def term(self):
        v = self.factor()
        while self.peek() in "*/":
            op = self.next()[0]
            w = self.factor()
            if op == "*":
                v = compose(v, w)
            else:
                if w.order() != 0:
                    raise ParseError("cannot divide by a differential "
                                     "operator")
                v = compose(v, DiffOp([RatFun.const(1, w.var, w.params)
                                       / w.coeffs[0]]))
        return v


def reference_parse_ratfun(text, var="t", params=()):
    return RatFunParser(tokenize(text), var, params).parse()


def reference_parse_operator(text, var="t", params=()):
    return RatFunOpParser(tokenize(text), var, params).parse()

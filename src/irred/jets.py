"""Variational equations via jet prolongation.

A vector field X = d/dx + a_y d/dy + ... is prolonged to jet coordinates
c^(l) by the total-derivative derivation delta = sum c^(l+1) d/dc^(l);
the right-hand side of c^(l) is delta^l(a_c).  Restricting along an
invariant curve and introducing normalized monomial variables in the jet
coordinates produces the linearized variational systems.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .field import FieldElem
from .grammar import (ParseError, _Parser, max_size, parse_ratfun,
                      ratfun_size, tokenize)
from .linear import mat_mul, mat_transpose, solve_all
from .linops import sym_power_matrix, sym_power_rep
from .mpoly import MPoly, _one_like
from .poly import Poly, RatFun, ratfun


def jet_name(c, l):
    return c if l == 0 else "%s^(%d)" % (c, l)


def rename_ratfun(f: RatFun, var: str) -> RatFun:
    """Same coefficients, different variable name."""
    return RatFun(Poly(f.num.coeffs, var, f.params),
                  Poly(f.den.coeffs, var, f.params), _normalized=True)


class _MPParser(_Parser):
    """Parses expressions into MPoly in the dependent coordinates with
    rational-function coefficients in the independent variable.  A power
    or product past the budgets of _Parser (MAX_DEGREE in the
    coordinates, the variable or a parameter; MAX_BITS) is rejected
    before it is computed, and so is a parsed result past them, which
    sums can build."""

    def __init__(self, toks, deps, cvar, params):
        super().__init__(toks, cvar, params)
        self.deps = tuple(deps)
        self.czero = RatFun.zero(cvar, params)
        self.cone = RatFun.const(1, cvar, params)

    def _const(self, c):
        return MPoly.const(c, self.deps, self.czero)

    def atom(self):
        kind, val = self.next()
        if kind == "int":
            return self._const(RatFun.const(Fraction(val), self.var, self.params))
        if kind == "name":
            if val in self.deps:
                return MPoly.gen(val, self.deps, self.cone, self.czero)
            if val in self.params:
                return self._const(RatFun.const(
                    FieldElem.parameter(val, self.params), self.var, self.params))
            if val == self.var:
                return self._const(RatFun.gen(self.var, self.params))
            raise ParseError("unknown name %r" % val)
        if kind == "(":
            v = self.expr()
            self.expect(")")
            return v
        raise ParseError("unexpected token %r" % val)

    def size(self, v):
        """Degree in the coordinates, then the largest size of a
        coefficient."""
        return (v.total_degree() or 0,) + max_size(
            [(0, 0, 0)] + [ratfun_size(c) for c in v.terms.values()])

    def parse(self):
        v = super().parse()
        self.within_budget((v, 1))
        return v

    def term(self):
        v = self.factor()
        while self.peek() in "*/":
            op = self.next()[0]
            w = self.factor()
            self.within_budget((v, 1), (w, 1))
            if op == "*":
                v = v * w
            else:
                c = w.as_coeff()  # raises for non-constant divisors
                if not c:
                    raise ParseError("division by zero")
                v = v.scale(self.cone / c)
        return v


def parse_component(text, deps, cvar, params=()):
    try:
        return _MPParser(tokenize(text), deps, cvar, params).parse()
    except ValueError as e:
        raise ParseError("bad component %r: %s" % (text, e))


class VectorFieldSpec:
    """Polynomial vector field; components polynomial in the dependent
    coordinates with rational coefficients in the independent one."""

    def __init__(self, coords, components, params=(), indep=None):
        self.coords = tuple(coords)
        self.params = tuple(params)
        if indep is not None and indep not in self.coords:
            raise ValueError("independent coordinate %r not declared" % indep)
        self.indep = indep
        self.cvar = indep if indep is not None else "t"
        self.deps = tuple(c for c in self.coords if c != indep)
        self.czero = RatFun.zero(self.cvar, self.params)
        self.cone = RatFun.const(1, self.cvar, self.params)
        if len(components) != len(self.coords):
            raise ValueError("component count does not match coordinates")
        comps = {}
        for name, comp in zip(self.coords, components):
            if isinstance(comp, str):
                comp = parse_component(comp, self.deps, self.cvar, self.params)
            comps[name] = comp
        if indep is not None:
            if comps[indep] != MPoly.const(self.cone, self.deps, self.czero):
                raise ValueError(
                    "component of the independent coordinate must be 1")
        self.components = comps

    def __repr__(self):
        return "VectorFieldSpec(%s)" % "; ".join(
            "%s' = %s" % (c, self.components[c]) for c in self.coords)


class JetSystem:
    """Prolonged system: x^(l)' = rhs[x^(l)], polynomials in jet vars."""

    def __init__(self, field, k, varnames, rhs, jet_order, curve=None,
                 normal=False):
        self.field = field
        self.k = k
        self.vars = tuple(varnames)
        self.rhs = rhs
        self.jet_order = dict(jet_order)  # var name -> jet weight
        self.curve = curve
        self.normal = normal

    def __repr__(self):
        lines = ["%s' = %s" % (v, self.rhs[v]) for v in self.vars]
        return "JetSystem(\n  " + "\n  ".join(lines) + "\n)"


def prolong(X: VectorFieldSpec, k: int) -> JetSystem:
    """Jet prolongation to order k; k=0 returns the base field itself."""
    universe = list(X.deps)
    order = {c: 0 for c in X.deps}
    for l in range(1, k + 1):
        for c in X.coords:
            universe.append(jet_name(c, l))
            order[jet_name(c, l)] = l
    universe = tuple(universe)

    succ = {}
    for v in universe:
        l = order[v]
        base = v if l == 0 else v[:v.rindex("^")]
        nxt = jet_name(base, l + 1)
        succ[v] = nxt if nxt in order else None

    def delta(f: MPoly) -> MPoly:
        out = MPoly.zero(universe, X.czero)
        if X.indep is not None and k >= 1:
            dcoef = f.map_coeffs(lambda c: c.derivative())
            if dcoef:
                out = out + MPoly.gen(jet_name(X.indep, 1), universe,
                                      X.cone, X.czero) * dcoef
        for v in universe:
            df = f.diff(v)
            if df.is_zero():
                continue
            if succ[v] is None:
                raise ValueError("jet order overflow differentiating %s" % v)
            out = out + MPoly.gen(succ[v], universe, X.cone, X.czero) * df
        return out

    rhs = {}
    for c in X.deps:
        cur = X.components[c].extend(universe)
        rhs[c] = cur
        for l in range(1, k + 1):
            cur = delta(cur)
            rhs[jet_name(c, l)] = cur
    if X.indep is not None:
        for l in range(1, k + 1):
            rhs[jet_name(X.indep, l)] = MPoly.zero(universe, X.czero)
    return JetSystem(X, k, universe, rhs, order)


def _eval_mpoly(p: MPoly, assign) -> RatFun:
    """Fully evaluate an MPoly with RatFun values for every variable."""
    czero = p.czero
    total = czero
    for e, c in p.terms.items():
        term = c
        for v, kk in zip(p.vars, e):
            if kk:
                term = term * assign[v] ** kk
        total = total + term
    return total


def restrict_along_curve(J: JetSystem, curve) -> JetSystem:
    """Substitute an invariant solution curve for the order-0 coordinates.

    curve maps each dependent coordinate to a rational function of the
    independent variable; invariance is checked symbolically first.
    """
    X = J.field
    if X.indep is None:
        raise ValueError("restriction needs an independent coordinate")
    vals = {}
    for c in X.deps:
        v = curve[c] if isinstance(curve, dict) else None
        if v is None:
            raise ValueError("curve missing coordinate %r" % c)
        if isinstance(v, str):
            v = parse_ratfun(v, X.cvar, X.params)
        vals[c] = ratfun(v, X.cvar, X.params)
    # invariance: c' along the curve must equal the field component
    for c in X.deps:
        comp = X.components[c]
        ev = _eval_mpoly(comp, vals)
        if not (vals[c].derivative() == ev):
            raise ValueError("curve is not invariant: %s' = %s but field "
                             "gives %s" % (c, vals[c].derivative(), ev))

    newvars = tuple(v for v in J.vars if J.jet_order[v] >= 1)
    order = {v: J.jet_order[v] for v in newvars}

    def project(p: MPoly) -> MPoly:
        out = MPoly.zero(newvars, X.czero)
        for e, coef in p.terms.items():
            factor = coef
            ne = []
            for v, kk in zip(p.vars, e):
                if J.jet_order[v] == 0:
                    if kk:
                        factor = factor * vals[v] ** kk
                else:
                    ne.append(kk)
            out = out + MPoly(newvars, {tuple(ne): factor}, X.czero)
        return out

    rhs = {v: project(J.rhs[v]) for v in newvars}
    return JetSystem(X, J.k, newvars, rhs, order, curve=dict(vals),
                     normal=J.normal)


def normal_restrict(J: JetSystem) -> JetSystem:
    """Delete jets of the independent coordinate (set them to zero)."""
    X = J.field
    if X.indep is None:
        raise ValueError("normal restriction needs an independent coordinate")
    dropped = {jet_name(X.indep, l) for l in range(1, J.k + 1)}
    newvars = tuple(v for v in J.vars if v not in dropped)
    order = {v: J.jet_order[v] for v in newvars}
    keep_idx = [i for i, v in enumerate(J.vars) if v not in dropped]
    drop_idx = [i for i, v in enumerate(J.vars) if v in dropped]

    def project(p: MPoly) -> MPoly:
        out = {}
        for e, coef in p.terms.items():
            if any(e[i] for i in drop_idx):
                continue
            out[tuple(e[i] for i in keep_idx)] = coef
        return MPoly(newvars, out, X.czero)

    rhs = {v: project(J.rhs[v]) for v in newvars}
    return JetSystem(X, J.k, newvars, rhs, order, curve=J.curve, normal=True)


class LinearizedSystem:
    """Linear system U' = A U in normalized monomial variables."""

    def __init__(self, matrix, basis, varnames, labels):
        self.matrix = matrix
        self.basis = basis      # list of exponent tuples over varnames
        self.vars = varnames
        self.labels = labels

    def __iter__(self):
        return iter((self.matrix, self.labels))

    def __repr__(self):
        return "LinearizedSystem(%d vars: %s)" % (len(self.basis),
                                                  ", ".join(self.labels))


def _multinomial(e):
    s = sum(e)
    n = math.factorial(s)
    for k in e:
        n //= math.factorial(k)
    return n


def _basis_sort_key(e):
    # blocks by number of factors, descending; then lexicographic descending
    return (-sum(e), tuple(-k for k in e))


def monomial_label(e, varnames):
    n = _multinomial(e)
    mono = "*".join(v if k == 1 else "%s^%d" % (v, k)
                    for v, k in zip(varnames, e) if k)
    return mono if n == 1 else "%d*%s" % (n, mono)


def linearize(J: JetSystem) -> LinearizedSystem:
    """Linear system satisfied by the weight-k monomials in jet variables.

    Monomial variables are normalized by the number of orderings,
    z_e = multinomial(e) * prod v^e.  Only the invariant subsystem
    generated by the top-order jets is kept: the monomials reached from
    them by repeated differentiation.  This reproduces the displayed
    reduced systems.
    """
    X = J.field
    if J.curve is None and any(J.jet_order[v] == 0 for v in J.vars):
        raise ValueError("linearize needs the system restricted along a curve")
    k = J.k
    vars_ = J.vars

    def derivative_poly(e):
        acc = MPoly.zero(vars_, X.czero)
        for i, v in enumerate(vars_):
            if not e[i]:
                continue
            rest = {tuple(e[:i] + (e[i] - 1,) + e[i + 1:]):
                    e[i] * X.cone}
            acc = acc + MPoly(vars_, rest, X.czero) * J.rhs[v]
        return acc.scale(RatFun.const(_multinomial(e), X.cvar, X.params))

    seeds = [tuple(1 if j == i else 0 for j in range(len(vars_)))
             for i, v in enumerate(vars_) if J.jet_order[v] == k]
    basis = set(seeds)
    frontier = seeds
    while frontier:
        nxt = []
        for e in frontier:
            for e2 in derivative_poly(e).terms:
                if e2 not in basis:
                    basis.add(e2)
                    nxt.append(e2)
        frontier = nxt
    basis = sorted(basis, key=_basis_sort_key)

    index = {e: i for i, e in enumerate(basis)}
    n = len(basis)
    A = [[X.czero] * n for _ in range(n)]
    for i, e in enumerate(basis):
        dp = derivative_poly(e)
        for e2, c in dp.terms.items():
            if e2 not in index:
                raise ValueError("linearization left the monomial space "
                                 "(missing %s)" % (e2,))
            A[i][index[e2]] = c * Fraction(1, _multinomial(e2))
    labels = [monomial_label(e, vars_) for e in basis]
    return LinearizedSystem(A, basis, vars_, labels)


# ---------------------------------------------------------------------------
# the family y'' = x y + y^n P(x,y)

class EquationFamily:
    """y'' = x y + y^n P(x,y) over Q, with P polynomial in y, rational in
    x and finite along y = 0.  The obstruction datum is p(t) = n! P(t,0).
    n is at most MAX_N: the criterion's work grows steeply with n."""

    MAX_N = 32

    def __init__(self, n, P):
        if not 2 <= n <= self.MAX_N:
            raise ValueError("family needs 2 <= n <= %d" % self.MAX_N)
        self.n = n
        if isinstance(P, str):
            try:
                P = parse_component(P, ("y",), "x")
            except ParseError as e:
                raise ValueError("P must be polynomial in y and finite "
                                 "along y=0: %s" % e)
        elif not isinstance(P, MPoly):
            P = MPoly.const(ratfun(P, "x"), ("y",), RatFun.zero("x"))
        self.P = P

    def p(self) -> RatFun:
        """n! * P(t, 0), in the variable t."""
        c = self.P.terms.get((0,), RatFun.zero("x"))
        return rename_ratfun(c * math.factorial(self.n), "t")

    def field(self) -> VectorFieldSpec:
        deps = ("y", "z")
        zero, one = RatFun.zero("x"), RatFun.const(1, "x")
        y = MPoly.gen("y", deps, one, zero)
        z = MPoly.gen("z", deps, one, zero)
        P2 = MPoly(deps, {(e[0], 0): c for e, c in self.P.terms.items()},
                   zero)
        x = MPoly.const(RatFun.gen("x"), deps, zero)
        az = x * y + y ** self.n * P2
        return VectorFieldSpec(("x", "y", "z"),
                               [MPoly.const(one, deps, zero), z, az],
                               indep="x")


def build_lnve_airy_family(n: int, p) -> list:
    """The (n+3) x (n+3) reduced linearized normal variational matrix.

    Top-left: sym^n of the Airy companion matrix; bottom-right: the Airy
    companion matrix; the only coupling is p(t) at row n+3, column 1
    (1-based).
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    p = ratfun(p, "t")
    zero = RatFun.zero("t")
    one = RatFun.const(1, "t")
    t = RatFun.gen("t")
    A1 = [[zero, one], [t, zero]]
    S = sym_power_matrix(A1, n)
    m = n + 3
    A = [[zero] * m for _ in range(m)]
    for i in range(n + 1):
        for j in range(n + 1):
            A[i][j] = S[i][j]
    A[n + 1][n + 2] = one
    A[n + 2][n + 1] = t
    A[n + 2][0] = p
    return A


def lnve_airy_family_pipeline(n: int, P) -> LinearizedSystem:
    """Same matrix through prolong -> restrict -> normal -> linearize."""
    X = EquationFamily(n, P).field()
    J = prolong(X, n)
    zero = RatFun.zero("x")
    J = restrict_along_curve(J, {"y": zero, "z": zero})
    return linearize(normal_restrict(J))


# ---------------------------------------------------------------------------
# decomposition of planar homogeneous vector fields

def vf_decompose(A: MPoly, B: MPoly):
    """Write A d/dx + B d/dy = G E + J-grad K for homogeneous A, B.

    E = x d/dx + y d/dy is the Euler field and J-grad K is the
    Hamiltonian field K_y d/dx - K_x d/dy.  Returns (G, K) with
    G = (A_x + B_y)/(n+1) and K = (y A - x B)/(n+1).
    """
    if A.vars != B.vars or len(A.vars) != 2:
        raise ValueError("expected two bivariate polynomials")
    xn, yn = A.vars
    wa = A.total_degree()
    wb = B.total_degree()
    n = wa if wa is not None else wb
    if n is None:
        raise ValueError("cannot decompose the zero field")
    for P, w in ((A, wa), (B, wb)):
        if w is None:
            continue
        if w != n or any(sum(e) != n for e in P.terms):
            raise ValueError("components must be homogeneous of equal degree")
    inv = Fraction(1, n + 1)
    G = (A.diff(xn) + B.diff(yn)).scale(inv)
    one = _one_like(A.czero)
    x = MPoly.gen(xn, A.vars, one, A.czero)
    y = MPoly.gen(yn, A.vars, one, A.czero)
    K = (y * A - x * B).scale(inv)
    # reconstruction identity, checked exactly
    if not (G * x + K.diff(yn) == A and G * y - K.diff(xn) == B):
        raise ArithmeticError("decomposition identity failed")
    return G, K


# ---------------------------------------------------------------------------
# the Painleve III chain

class P3Chain:
    """Variational matrices of orders 1..3 with their partial reductions."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


def _cinf_c0(M):
    """Split a matrix with entries c_inf + c_0/x into two constant parts."""
    Cinf, C0 = [], []
    for row in M:
        ri, r0 = [], []
        for f in row:
            g = f * RatFun.gen(f.var, f.params)
            if not g.is_polynomial():
                raise ValueError("entry %s is not of the form a + b/x" % f)
            gp = g.as_poly()
            if gp.degree() is not None and gp.degree() > 1:
                raise ValueError("entry %s is not of the form a + b/x" % f)
            ri.append(gp.coeff(1))
            r0.append(gp.coeff(0))
        Cinf.append(ri)
        C0.append(r0)
    return Cinf, C0


def _subsystem_matrix(full, S, one):
    """Induced matrix on the invariant row space S: solve S A = B S."""
    # row i of B expresses row i of S A in the rows of S
    B, _ = solve_all(mat_transpose(S), mat_mul(S, full), one)
    if None in B:
        raise ValueError("row space is not invariant")
    return B


def p3_field() -> VectorFieldSpec:
    """Hamiltonian vector field of the Painleve III case, x H =
    2 y^2 z^2 - (x y^2 - 2 mu y - x) z - mu x y."""
    ay = "(4*y^2*z - x*y^2 + 2*mu*y + x)/x"
    az = "(-4*y*z^2 + 2*x*y*z - 2*mu*z + mu*x)/x"
    return VectorFieldSpec(("x", "y", "z"), ["1", ay, az],
                           params=("mu",), indep="x")


def build_p3_chain() -> P3Chain:
    """Variational chain along y=1, z=-mu/2 with gauges Q1, Q2, Q3 and
    their inverses R1, R2, R3; At_k = R_k A_k Q_k.

    Every matrix is over Q(mu)(x), with mu symbolic; specialize the
    entries for a rational mu.  The gauge Q1 degenerates at mu = 0.
    """
    params = ("mu",)
    X = p3_field()
    muv = parse_ratfun("mu", "x", params)
    zero = RatFun.zero("x", params)
    one = RatFun.const(1, "x", params)
    curve = {"y": one, "z": -muv / 2}

    J3 = normal_restrict(restrict_along_curve(prolong(X, 3), curve))
    J1 = normal_restrict(restrict_along_curve(prolong(X, 1), curve))
    J2 = normal_restrict(restrict_along_curve(prolong(X, 2), curve))

    A1 = linearize(J1).matrix
    # order-l jet variables carry a 1/l! (Taylor coefficient) normalization
    # in this chain; the middle block of A3 uses the polarized quadratic
    # basis.  Both are constant diagonal gauges of the linearize output.
    A2 = _scale_conj(linearize(J2).matrix,
                     [1, 1, 1, Fraction(1, 2), Fraction(1, 2)])

    A3 = _scale_conj(_p3_third_matrix(linearize(J3), one),
                     [1, 1, 1, 1,
                      Fraction(1, 3), Fraction(1, 3), Fraction(1, 3),
                      Fraction(1, 6), Fraction(1, 6)])

    Q1 = [[-2 * muv, one], [-muv * muv, zero]]
    Q2 = _blockdiag([sym_power_rep(Q1, 2), Q1], zero)
    Q3 = _blockdiag([sym_power_rep(Q1, 3), sym_power_rep(Q1, 2), Q1], zero)
    # R_k = Q_k^-1 in closed form: the adjugate of Q1 (det Q1 = mu^2), and
    # Sym^j(Q1^-1) = Sym^j(Q1)^-1 block by block
    (a, b), (c, d) = Q1
    det = a * d - b * c
    R1 = [[d / det, -b / det], [-c / det, a / det]]
    R2 = _blockdiag([sym_power_rep(R1, 2), R1], zero)
    R3 = _blockdiag([sym_power_rep(R1, 3), sym_power_rep(R1, 2), R1], zero)

    At1 = mat_mul(mat_mul(R1, A1), Q1)
    At2 = mat_mul(mat_mul(R2, A2), Q2)
    At3 = mat_mul(mat_mul(R3, A3), Q3)

    return P3Chain(A1=A1, Q1=Q1, R1=R1, At1=At1, A2=A2, Q2=Q2, R2=R2,
                   At2=At2, A3=A3, Q3=Q3, R3=R3, At3=At3)


def _scale_conj(A, diag):
    n = len(A)
    return [[A[i][j] * Fraction(diag[i]) / Fraction(diag[j])
             for j in range(n)] for i in range(n)]


def _blockdiag(blocks, zero):
    n = sum(len(b) for b in blocks)
    out = [[zero] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[off + i][off + j] = v
        off += len(b)
    return out


def _p3_third_matrix(L3: LinearizedSystem, one):
    """Extract the 9x9 third variational matrix from the weight-3
    monomial system: cubic block, polarized mixed block, jet block."""
    vars_ = L3.vars
    idx = {e: i for i, e in enumerate(L3.basis)}
    N = len(L3.basis)
    zero = one - one

    def unit(exps, c=one):
        v = [zero] * N
        e = tuple(exps)
        v[idx[e]] = c * Fraction(1, 1)
        return v

    def ex(*pairs):
        e = [0] * len(vars_)
        for name, k in pairs:
            e[vars_.index(name)] = k
        return tuple(e)

    y1, z1 = "y^(1)", "z^(1)"
    y2, z2 = "y^(2)", "z^(2)"
    y3, z3 = "y^(3)", "z^(3)"
    rows = []
    # cubic binomial basis s_k = C(3,k) y1^(3-k) z1^k: these are exactly the
    # normalized monomial variables
    for k in range(4):
        rows.append(unit(ex((y1, 3 - k), (z1, k))))
    # polarized quadratic basis m_k = 3 * u_k(xi_2, xi_1); monomial variables
    # carry the multiset normalization 2 for mixed products
    m0 = [zero] * N
    m0[idx[ex((y2, 1), (y1, 1))]] = one * Fraction(3, 2)
    m1 = [zero] * N
    m1[idx[ex((y2, 1), (z1, 1))]] = one * Fraction(3, 2)
    m1[idx[ex((z2, 1), (y1, 1))]] = one * Fraction(3, 2)
    m2 = [zero] * N
    m2[idx[ex((z2, 1), (z1, 1))]] = one * Fraction(3, 2)
    rows.extend([m0, m1, m2])
    rows.append(unit(ex((y3, 1))))
    rows.append(unit(ex((z3, 1))))
    return _subsystem_matrix(L3.matrix, rows, one)

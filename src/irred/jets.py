"""Variational equations via jet prolongation.

A vector field X = d/dx + a_y d/dy + ... is prolonged to jet coordinates
c^(l) by the total-derivative derivation delta = sum c^(l+1) d/dc^(l);
the right-hand side of c^(l) is delta^l(a_c).  Restricting along an
invariant curve (at an equilibrium point, for a field with no independent
coordinate) and introducing normalized monomial variables in the jet
coordinates produces the linearized variational systems.  Coefficients
are rational functions of the independent coordinate, or for a field with
none the scalars of Q(params) themselves (int, Fraction or FieldElem).
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

from .field import FieldElem, scalar
from .grammar import (ParseError, _coeff_size, _Parser, max_size,
                      parse_ratfun, ratfun_size, tokenize)
from .linear import mat_mul, mat_transpose, solve_all
from .linops import sym_power_matrix, sym_power_rep
from .mpoly import MPoly, qdiv, qnorm
from .poly import Poly, RatFun, ratfun


def jet_name(c, l):
    return c if l == 0 else "%s^(%d)" % (c, l)


def rename_ratfun(f: RatFun, var: str) -> RatFun:
    """Same coefficients, different variable name."""
    return RatFun(Poly(f.num.coeffs, var, f.params),
                  Poly(f.den.coeffs, var, f.params), _normalized=True)


def _coeff(c, var, params):
    """c as a coefficient: a RatFun in var, or with var None a scalar."""
    if var is not None:
        return ratfun(c, var, params)
    return c if isinstance(c, FieldElem) else scalar(c, params)


class _MPParser(_Parser):
    """Parses expressions into MPoly in the dependent coordinates, with
    coefficients rational in cvar, or in Q(params) when cvar is None.  A
    power or product past the budgets of _Parser (MAX_DEGREE in the
    coordinates, the variable or a parameter; MAX_BITS), or a sum past
    MAX_DEGREE or MAX_BITS, is rejected before it is computed, and so is
    a parsed result past them."""

    def __init__(self, toks, deps, cvar, params):
        super().__init__(toks, cvar, params)
        self.deps = tuple(deps)
        self.czero = _coeff(0, cvar, params)
        self.cone = _coeff(1, cvar, params)

    def _const(self, c):
        return MPoly.const(_coeff(c, self.var, self.params), self.deps,
                           self.czero)

    def atom(self):
        kind, val = self.next()
        if kind == "int":
            return self._const(val)
        if kind == "name":
            if val in self.deps:
                return MPoly.gen(val, self.deps, self.cone, self.czero)
            if val in self.params:
                return self._const(FieldElem.parameter(val, self.params))
            if val == self.var:
                return MPoly.const(RatFun.gen(self.var, self.params),
                                   self.deps, self.czero)
            raise ParseError("unknown name %r" % val)
        if kind == "(":
            v = self.expr()
            self.expect(")")
            return v
        raise ParseError("unexpected token %r" % val)

    def size(self, v):
        """Degree in the coordinates, then the largest size of a
        coefficient."""
        size = _coeff_size if self.var is None else ratfun_size
        return (v.total_degree() or 0,) + max_size(
            [(0, 0, 0)] + [size(c) for c in v.terms.values()])

    def degrees(self, v):
        """The degree in the coordinates, then those of the coefficients
        (_Parser)."""
        ds = [super(_MPParser, self).degrees(c) for c in v.terms.values()]
        return ((v.total_degree() or 0,)
                + max_size([(0, 0)] + [d for d, _ in ds]),
                all(poly for _, poly in ds))

    def bits(self, v):
        """_Parser.bits over the coefficients."""
        bits, whole = zip((0, True), *map(super().bits, v.terms.values()))
        return max(bits), all(whole)

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
                v = v.scale(qdiv(self.cone, c))
        return v


def parse_component(text, deps, cvar, params=()):
    try:
        return _MPParser(tokenize(text), deps, cvar, params).parse()
    except ValueError as e:
        raise ParseError("bad component %r: %s" % (text, e))


class VectorFieldSpec:
    """Polynomial vector field; components polynomial in the dependent
    coordinates with coefficients rational in the independent one, or
    in Q(params) when there is no independent coordinate."""

    def __init__(self, coords, components, params=(), indep=None):
        self.coords = tuple(coords)
        self.params = tuple(params)
        if indep is not None and indep not in self.coords:
            raise ValueError("independent coordinate %r not declared" % indep)
        self.indep = indep
        self.deps = tuple(c for c in self.coords if c != indep)
        self.czero = _coeff(0, indep, self.params)
        self.cone = _coeff(1, indep, self.params)
        if len(components) != len(self.coords):
            raise ValueError("component count does not match coordinates")
        comps = {}
        for name, comp in zip(self.coords, components):
            if isinstance(comp, str):
                comp = parse_component(comp, self.deps, indep, self.params)
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

    def __init__(self, field, k, varnames, rhs, jet_order, curve=None):
        self.field = field
        self.k = k
        self.vars = tuple(varnames)
        self.rhs = rhs
        self.jet_order = dict(jet_order)  # var name -> jet weight
        self.curve = curve

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


def _eval_mpoly(p: MPoly, assign):
    """Fully evaluate an MPoly with a coefficient for every variable."""
    czero = p.czero
    total = czero
    for e, c in p.terms.items():
        term = c
        for v, kk in zip(p.vars, e):
            if kk:
                term = term * assign[v] ** kk
        total = total + term
    return total


def curve_values(X: VectorFieldSpec, curve) -> dict:
    """Each dependent coordinate's value on curve (text or not) as a
    coefficient of X; with no independent coordinate the curve is a point."""
    vals = {}
    for c in X.deps:
        v = curve[c] if isinstance(curve, dict) else None
        if v is None:
            raise ValueError("curve missing coordinate %r" % c)
        if isinstance(v, str):
            v = (parse_ratfun(v, X.indep, X.params) if X.indep is not None
                 else parse_component(v, (), None, X.params).as_coeff())
        vals[c] = _coeff(v, X.indep, X.params)
    return vals


def restrict_along_curve(J: JetSystem, curve) -> JetSystem:
    """Substitute an invariant solution curve (`curve_values`) for the
    order-0 coordinates.  Invariance is checked symbolically first; at a
    point, with no independent coordinate, it says X(point) = 0."""
    X = J.field
    vals = curve_values(X, curve)
    # invariance: c' along the curve must equal the field component
    for c in X.deps:
        ev = _eval_mpoly(X.components[c], vals)
        dv = X.czero if X.indep is None else vals[c].derivative()
        if not (dv == ev):
            raise ValueError("curve is not invariant: %s' = %s but field "
                             "gives %s" % (c, dv, ev))

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
                        factor = qnorm(factor * vals[v] ** kk)
                else:
                    ne.append(kk)
            out = out + MPoly(newvars, {tuple(ne): factor}, X.czero)
        return out

    rhs = {v: project(J.rhs[v]) for v in newvars}
    return JetSystem(X, J.k, newvars, rhs, order, curve=dict(vals))


def _keep_vars(J: JetSystem, newvars, k):
    """J on the variables newvars, of jet order at most k; every other
    variable is set to zero."""
    keep_idx = [J.vars.index(v) for v in newvars]
    drop_idx = [i for i, v in enumerate(J.vars) if v not in newvars]
    rhs = {}
    for v in newvars:
        out = {}
        for e, coef in J.rhs[v].terms.items():
            if any(e[i] for i in drop_idx):
                continue
            out[tuple(e[i] for i in keep_idx)] = coef
        rhs[v] = MPoly(newvars, out, J.field.czero)
    order = {v: J.jet_order[v] for v in newvars}
    return JetSystem(J.field, k, newvars, rhs, order, curve=J.curve)


def normal_restrict(J: JetSystem) -> JetSystem:
    """Delete jets of the independent coordinate (set them to zero)."""
    X = J.field
    if X.indep is None:
        raise ValueError("normal restriction needs an independent coordinate")
    dropped = {jet_name(X.indep, l) for l in range(1, J.k + 1)}
    newvars = tuple(v for v in J.vars if v not in dropped)
    return _keep_vars(J, newvars, J.k)


def truncate(J: JetSystem, k: int) -> JetSystem:
    """The jets of order <= k of J, the system J would be at order k.

    They form an invariant subsystem, because the right side of a jet of
    order l involves jets of order <= l only; that is checked exactly,
    and a right side that involves a higher jet raises ValueError.
    """
    if not 0 <= k <= J.k:
        raise ValueError("truncation order %d outside 0..%d" % (k, J.k))
    newvars = tuple(v for v in J.vars if J.jet_order[v] <= k)
    for v in newvars:
        for e in J.rhs[v].terms:
            high = [u for u, m in zip(J.vars, e) if m and J.jet_order[u] > k]
            if high:
                raise ValueError("%s' involves %s" % (v, high[0]))
    return _keep_vars(J, newvars, k)


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
        m = _multinomial(e)
        return acc if m == 1 else acc.scale(_coeff(m, X.indep, X.params))

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
            m = _multinomial(e2)
            A[i][index[e2]] = c if m == 1 else qnorm(c * Fraction(1, m))
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
                raise ParseError("P must be polynomial in y and finite "
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


# ---------------------------------------------------------------------------
# the Painleve III chain

def _w_parts(M):
    """Split a matrix over Q(params, w), entries c_inf + c_0 w, into the
    parts (C_inf, C_0) over Q(params), or over Q when w is alone.

    w is the last parameter.  An entry is read off the coefficients of its
    polynomial numerator, without arithmetic; one of another form raises
    ValueError.
    """
    Cinf, C0 = [], []
    for row in M:
        ri, r0 = [], []
        for c in row:
            if any(any(e) for e in c.den) or any(e[-1] > 1 for e in c.num):
                raise ValueError("entry %s is not of the form a + b*w" % c)
            byw = ({}, {})
            for e, v in c.num.items():
                byw[e[-1]][e[:-1]] = v
            params = c.params[:-1]
            for r, d in zip((ri, r0), byw):
                r.append(FieldElem(params, d, _normalized=True) if params
                         else d.get((), 0))
        Cinf.append(ri)
        C0.append(r0)
    return Cinf, C0


def _from_parts(Cinf, C0, var, params=()):
    """The matrix C_inf + C_0/x over Q(params)(var).

    With c_0 nonzero, (c_inf x + c_0)/x is coprime with a monic
    denominator, so each entry is built reduced, without a gcd.
    """
    one = Poly.const(1, var, params)
    x = Poly.gen(var, params)
    return [[RatFun(Poly([c0, ci], var, params), x, _normalized=True) if c0
             else RatFun(Poly([ci], var, params), one, _normalized=True)
             for ci, c0 in zip(ri, r0)] for ri, r0 in zip(Cinf, C0)]


def _subsystem_matrices(fulls, S, one):
    """Induced matrices on the invariant row space S: solve S A = B S for
    every A in fulls, all from one elimination."""
    # row i of B expresses row i of S A in the rows of S
    rows, _ = solve_all(mat_transpose(S),
                        [r for A in fulls for r in mat_mul(S, A)], one)
    if None in rows:
        raise ValueError("row space is not invariant")
    k = len(S)
    return [rows[i:i + k] for i in range(0, len(rows), k)]


def p3_unit_field() -> VectorFieldSpec:
    """Hamiltonian vector field of the Painleve III case, x H =
    2 y^2 z^2 - (x y^2 - 2 mu y - x) z - mu x y, with w = 1/x taken for a
    parameter and no independent coordinate, at mu = 1: z = mu Z and
    w = W/mu turn the field at any mu into this one."""
    ay = "4*w*y^2*z - y^2 + 2*w*y + 1"
    az = "-4*w*y*z^2 + 2*y*z - 2*w*z + 1"
    return VectorFieldSpec(("y", "z"), [ay, az], params=("w",))


# constant diagonal gauges of the order-2 and order-3 linearize outputs:
# order-l jet variables carry a 1/l! (Taylor coefficient) normalization in
# the chain, and the middle block of A3 uses the polarized quadratic basis
_P3_SCALES = {
    2: [1, 1, 1, Fraction(1, 2), Fraction(1, 2)],
    3: [1, 1, 1, 1, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3),
        Fraction(1, 6), Fraction(1, 6)],
}


def p3_weights(k):
    """(s of A_k, s of At_k): s_i counts the z-jet factors of basis element
    i, in Sym^j blocks j = k..1, and At_k shifts block j by k - j."""
    blocks = [range(j + 1) for j in range(k, 0, -1)]
    return ([i for b in blocks for i in b],
            [i + k - len(b) + 1 for b in blocks for i in b])


def build_p3_chain() -> SimpleNamespace:
    """Variational chain along y=1, z=-mu/2 at mu = 1: the constant parts
    of A_k and At_k = R_k A_k Q_k, Q_k the block diagonal of Sym^j(Q1),
    j = k..1.

    Every field coefficient is c_inf + c_0/x and the curve is constant.
    Normal restriction drops every jet of x, so the x^(1) d/dx term of the
    total derivative never survives it, and prolong, restrict, truncate
    and linearize are linear in the coefficients: 1/x can be a plain
    parameter w.  z = mu Z, w = W/mu take mu out, so the chain prolongs
    `p3_unit_field` over Q(w), restricts it at (1, -1/2) once at order 3
    and reads the order-k system off its truncation.  Past linearize it
    runs on the w^0 and w^1 parts (C_inf, C_0) over Q, with Q1 =
    [[-2, 1], [-1, 0]].  It keeps the parts of A1..A3, At1..At3 by name
    (.unit_parts) and Q1 (.Q1).  mu goes back in by the weights of
    `p3_weights`: c in C_inf stands for c mu^(s_i - s_j), c in C_0 for
    c mu^(s_i - s_j + 1), and Q1 for diag(1, mu) Q1 diag(mu, 1), which
    degenerates at mu = 0.
    """
    J3 = restrict_along_curve(prolong(p3_unit_field(), 3),
                              {"y": 1, "z": Fraction(-1, 2)})
    L3 = linearize(J3)
    unit = {
        "A1": _w_parts(linearize(truncate(J3, 1)).matrix),
        "A2": tuple(_scale_conj(C, _P3_SCALES[2])
                    for C in _w_parts(linearize(truncate(J3, 2)).matrix)),
        "A3": tuple(_scale_conj(B, _P3_SCALES[3]) for B in
                    _subsystem_matrices(_w_parts(L3.matrix),
                                        _p3_third_rows(L3), 1)),
    }

    def gauges(M):
        """M and the block diagonals of Sym^j(M), j = 2, 1 and 3, 2, 1."""
        S2 = sym_power_rep(M, 2)
        return (M, _blockdiag([S2, M], 0),
                _blockdiag([sym_power_rep(M, 3), S2, M], 0))

    # R1 = Q1^-1 is the adjugate of Q1 (det Q1 = 1), and
    # Sym^j(Q1^-1) = Sym^j(Q1)^-1 block by block
    Q1 = [[-2, 1], [-1, 0]]
    for k, R, Q in zip((1, 2, 3), gauges([[0, -1], [1, -2]]), gauges(Q1)):
        unit["At%d" % k] = tuple(mat_mul(R, mat_mul(C, Q))
                                 for C in unit["A%d" % k])
    return SimpleNamespace(Q1=Q1, unit_parts=unit)


def _scale_conj(A, diag):
    """D A D^-1 for D = diag(diag), each entry scaled once, by its
    ratio diag[i]/diag[j] unless that is 1."""
    return [[a if r == 1 else qnorm(a * r)
             for a, r in zip(row, [qdiv(di, dj) for dj in diag])]
            for row, di in zip(A, diag)]


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


def _p3_third_rows(L3: LinearizedSystem):
    """Rows over Q, on the weight-3 monomial basis, that span the invariant
    subspace of the 9x9 third variational matrix: cubic block, polarized
    mixed block, jet block."""

    def row(c, *monomials):
        """c at each monomial, given by its (variable, exponent) pairs."""
        v = [0] * len(L3.basis)
        for mono in map(dict, monomials):
            v[L3.basis.index(tuple(mono.get(x, 0) for x in L3.vars))] = c
        return v

    y1, z1, y2, z2 = "y^(1)", "z^(1)", "y^(2)", "z^(2)"
    # cubic binomial basis s_k = C(3,k) y1^(3-k) z1^k: these are exactly the
    # normalized monomial variables
    rows = [row(1, ((y1, 3 - k), (z1, k))) for k in range(4)]
    # polarized quadratic basis m_k = 3 * u_k(xi_2, xi_1); monomial variables
    # carry the multiset normalization 2 for mixed products
    c = Fraction(3, 2)
    rows += [row(c, ((y2, 1), (y1, 1))),
             row(c, ((y2, 1), (z1, 1)), ((z2, 1), (y1, 1))),
             row(c, ((z2, 1), (z1, 1)))]
    return rows + [row(1, (("y^(3)", 1),)), row(1, (("z^(3)", 1),))]

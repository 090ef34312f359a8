"""Exact rational solutions of L(y) = g over Q.

Abramov-style: local exponent bounds at the finite singularities give a
universal denominator, the exponent data at infinity gives a numerator
degree bound, and an undetermined-coefficients linear solve finishes.
Everything is exact; every returned solution is re-checked by
substitution before it leaves the module.

Only coefficients over Q are supported.  Parameterized operators must be
specialized first (integer-root extraction is only decidable over Q).
"""

from __future__ import annotations

from .field import scalar
from .linear import mat_mul, solve_all
from .linops import DiffOp, cyclic_vector_scalarize
from .mpoly import qdiv
from .poly import Poly, RatFun, common_denominator, ratfun


# Largest degree bound rational_solutions accepts, checked before any
# image is built.  The family's P is parsed under the grammar's degree
# budget of 64, so p has degree at most 64 and the bound of
# Sym^(n+1)(D^2 - t) y = p stays below it (63 at n = 3, P = x^64); the P3
# bound is 0.  A crafted t*D - 6000 (exponent 6000 at infinity) passes it.
MAX_DEGREE_BOUND = 64

# Largest degree of the denominator bound, checked before it is built.
# The family operator Sym^(n+1)(D^2 - t) is monic with polynomial
# coefficients, so its bound comes from the poles of p, of total order at
# most 64 (the grammar's degree budget): its degree is at most 64 - (n+2),
# 28 at n = 2, P = x^32/(x-1)^32.  p2's bound is 1, and P3's at every mu
# tried.  A crafted t*D + 1000000 would ask for t^1000000.
MAX_DENOMINATOR_DEGREE = 64


class IndicialData:
    """Local exponent data of an operator at one singular point.

    point is a rational (finite singularity), a monic Poly of
    degree > 1 (cluster of conjugate singularities, kept unsplit), or
    the string "inf".  poly is the exponent polynomial in the variable
    "e"; for a degree > 1 point it is the Q-polynomial whose integer
    roots are exactly the integer exponents at the cluster.
    """

    def __init__(self, point, poly, integer_roots):
        if poly.is_zero():
            raise ValueError("indicial polynomial is zero")
        self.point = point
        self.poly = poly
        self.integer_roots = sorted(integer_roots)

    def __repr__(self):
        return "IndicialData(point=%r, poly=%s, integer_roots=%s)" % (
            self.point, self.poly, self.integer_roots)


class SolutionSpace:
    """Affine space of rational solutions, with the bounds that prove it.

    particular is None when no rational solution exists; basis spans the
    rational solutions of the homogeneous equation.  denominator and
    degree are the universal bounds used, kept for certification.
    """

    def __init__(self, particular, basis, denominator=None, degree=None):
        self.particular = particular
        self.basis = list(basis)
        self.denominator = denominator
        self.degree = degree

    def __repr__(self):
        return "SolutionSpace(particular=%s, dim=%d)" % (
            self.particular, len(self.basis))

    def scaled(self, c):
        """The space of L y = c g from this space of L y = g, for a
        nonzero constant c: both bounds are invariant under c and the
        solver is linear in g, so it is what a fresh solve returns."""
        return SolutionSpace(
            None if self.particular is None else c * self.particular,
            self.basis, self.denominator, self.degree)


def _falling(i):
    """e (e-1) ... (e-i+1) as a Poly in e."""
    p = Poly.const(1, "e")
    e = Poly.gen("e")
    for k in range(i):
        p = p * (e - k)
    return p


def _clear_denominators(L: DiffOp, g=None):
    """Polynomial coefficients q_i and cleared right side.

    Returns (qs, rhs_poly) with qs[i] the coefficient of the i-th
    derivative and rhs_poly a Poly, after multiplying the equation by
    the least common denominator.
    """
    items = [L.coeff(i) for i in range(L.order() + 1)]
    if g is not None:
        items.append(g)
    den = common_denominator(items, L.var, L.params)
    qs = [(L.coeff(i) * RatFun(den)).as_poly() for i in range(L.order() + 1)]
    rhs = None if g is None else (g * RatFun(den)).as_poly()
    return qs, rhs


def _poly_valuation(p: Poly, f: Poly):
    """Multiplicity of the factor f in p (p nonzero)."""
    v = 0
    while True:
        q, r = p.divmod(f)
        if not r.is_zero():
            return v, p
        p = q
        v += 1


def coprime_basis(polys):
    """Pairwise-coprime monic squarefree factor base of the inputs.

    Standard gcd splitting.  Every input is a rational constant times a
    product of powers of base elements, so valuations of the inputs are
    well defined factor by factor.
    """
    work = []
    for p in polys:
        if not p.is_zero() and p.degree() > 0:
            for f, _ in p.monic().squarefree_decomposition():
                work.append(f)
    base = []
    while work:
        q = work.pop()
        if q.degree() == 0:
            continue
        for i, b in enumerate(base):
            d = b.gcd(q)
            if d.degree() == 0:
                continue
            base.pop(i)
            for piece in (d, b // d, q // d):
                if piece.degree() > 0:
                    work.append(piece)
            break
        else:
            if q not in base:
                base.append(q)
    return sorted(base, key=lambda f: (f.degree(), str(f)))


def _indicial_finite(qs, f: Poly) -> IndicialData:
    """Exponent polynomial at the roots of the squarefree factor f."""
    data = []
    for i, q in enumerate(qs):
        if q.is_zero():
            continue
        v, cof = _poly_valuation(q, f)
        data.append((i, v, cof))
    m = min(v - i for i, v, _ in data)
    if f.degree() == 1:
        a = qdiv(-f.coeff(0), f.coeff(1))
        ind = Poly.zero("e")
        for i, v, cof in data:
            if v - i == m:
                c = cof.evaluate(a)
                ind = ind + _falling(i) * Poly.const(c, "e")
        return IndicialData(a, ind, ind.integer_roots())
    # cluster of conjugate points: work modulo f
    fp = f.derivative()
    terms = {}  # x-exponent -> Poly in e
    for i, v, cof in data:
        if v - i != m:
            continue
        t = (cof * (fp ** v)) % f
        fall = _falling(i)
        for j in range(t.degree() + 1):
            cj = t.coeff(j)
            if not cj:
                continue
            add = fall * Poly.const(cj, "e")
            terms[j] = terms.get(j, Poly.zero("e")) + add
    # integer exponents at any root of f are common integer roots of the
    # x-coefficient polynomials; their gcd carries them all
    g = Poly.zero("e")
    for p in terms.values():
        g = g.gcd(p) if not g.is_zero() else p
    return IndicialData(f, g, g.integer_roots())


def _indicial_infinity(qs) -> IndicialData:
    sigma = max(q.degree() - i for i, q in enumerate(qs) if not q.is_zero())
    ind = Poly.zero("e")
    for i, q in enumerate(qs):
        if q.is_zero() or q.degree() - i != sigma:
            continue
        ind = ind + _falling(i) * Poly.const(q.leading(), "e")
    return IndicialData("inf", ind, ind.integer_roots())


def indicial_polynomial(L: DiffOp, point) -> IndicialData:
    """Exponent data of L at a finite point, a factor, or infinity."""
    if L.params:
        raise ValueError("indicial data needs Q coefficients")
    qs, _ = _clear_denominators(L)
    if isinstance(point, str) and point in ("inf", "oo", "infinity"):
        return _indicial_infinity(qs)
    if isinstance(point, Poly):
        return _indicial_finite(qs, point.monic())
    a = scalar(point)
    f = Poly([-a, 1], L.var)
    return _indicial_finite(qs, f)


def _rat_valuation(g: RatFun, f: Poly):
    """Valuation of g at the factor f (negative at a pole)."""
    if not g:
        return None
    vn = _poly_valuation(g.num, f)[0] if not g.num.is_zero() else None
    vd = _poly_valuation(g.den, f)[0]
    return (vn if vn is not None else 0) - vd


def denominator_bound(L: DiffOp, g=None) -> Poly:
    """Monic D with y D polynomial for every rational solution y of L(y)=g;
    ValueError, before it is built, past MAX_DENOMINATOR_DEGREE."""
    if L.params:
        raise ValueError("denominator bound needs Q coefficients")
    var = L.var
    qs, _ = _clear_denominators(L)
    lead = qs[-1]
    n = L.order()
    powers = []  # (f, N): D is the product of the f ** N
    sing = []
    if lead.degree() > 0:
        sing = coprime_basis([q for q in qs if not q.is_zero()])
        sing = [f for f in sing if _poly_valuation(lead, f)[0] > 0]
    # right side of the cleared equation sum q_i y^(i) = den * g
    den = (RatFun(qs[-1]) / L.coeff(L.order())).as_poly()
    gtil = None if g is None or not g else g * RatFun(den)
    for f in sing:
        data = []
        for i, q in enumerate(qs):
            if q.is_zero():
                continue
            v, _ = _poly_valuation(q, f)
            data.append((i, v))
        m = min(v - i for i, v in data)
        ind = _indicial_finite(qs, f)
        cand = [0]
        if ind.integer_roots:
            cand.append(-min(ind.integer_roots))
        if gtil is not None:
            cand.append(m - _rat_valuation(gtil, f))
        N = max(cand)
        if N > 0:
            powers.append((f, N))
    if g is not None and g.den.degree() > 0:
        # poles of g away from the singular locus: at an ordinary point a
        # solution pole of order d maps to one of order exactly d + n
        gden = g.den.monic()
        for f in coprime_basis([gden]):
            if any(f == s for s in sing):
                continue
            k = _poly_valuation(gden, f)[0] - n
            if k > 0:
                powers.append((f, k))
    degree = sum(N * f.degree() for f, N in powers)
    if degree > MAX_DENOMINATOR_DEGREE:
        raise ValueError("denominator bound of degree %d exceeds %d"
                         % (degree, MAX_DENOMINATOR_DEGREE))
    D = Poly.const(1, var)
    for f, N in powers:
        D = D * f ** N
    return D.monic()


def degree_bound(L: DiffOp, g=None) -> int:
    """Degree bound for polynomial solutions of L(y)=g; -1 if none possible."""
    if L.params:
        raise ValueError("degree bound needs Q coefficients")
    qs, rhs = _clear_denominators(L, g if g is not None else None)
    sigma = max(q.degree() - i for i, q in enumerate(qs) if not q.is_zero())
    ind = _indicial_infinity(qs)
    cand = [r for r in ind.integer_roots if r >= 0]
    if rhs is not None and not rhs.is_zero():
        d = rhs.degree() - sigma
        if d >= 0:
            cand.append(d)
    return max(cand) if cand else -1


def _polynomial_solutions(L: DiffOp, rhs, bound):
    """Solve for polynomial y of degree <= bound; returns (part, basis).

    rhs is a RatFun that must be polynomial for solutions to exist.
    """
    var = L.var
    zero = RatFun.zero(var)
    if bound < 0:
        return (zero if not rhs else None), []
    images = [L.apply(RatFun(Poly([0] * k + [1], var)))
              for k in range(bound + 1)]
    den = common_denominator(images + ([rhs] if rhs else []), var)
    cols = [(im * RatFun(den)).as_poly() for im in images]
    rp = ((rhs if rhs else zero) * RatFun(den)).as_poly()
    deg = max([c.degree() for c in cols if not c.is_zero()] +
              [rp.degree() if not rp.is_zero() else 0, 0])
    m = [[c.coeff(r) for c in cols] for r in range(deg + 1)]
    b = [rp.coeff(r) for r in range(deg + 1)]
    (sol,), kernel = solve_all(m, [b], 1)
    part = None if sol is None else RatFun(Poly(sol, var))
    # a kernel vector has a 1 at its free column, so it is never zero
    basis = [RatFun(Poly(v, var)) for v in kernel]
    return part, basis


def rational_solutions(L: DiffOp, g=None) -> SolutionSpace:
    """Complete affine space of rational solutions of L(y) = g.

    Absence of a solution is reported in the result, never raised; a
    degree bound above MAX_DEGREE_BOUND raises ValueError.  All claimed
    solutions are re-checked by exact substitution.
    """
    if L.params:
        raise ValueError("rational solving needs Q coefficients")
    var = L.var
    if g is not None:
        g = ratfun(g, var)
        if not g:
            g = None
    D = denominator_bound(L, g)
    # substitute y = z / D and clear: polynomial-solution problem for z
    M = L if D == 1 else L * DiffOp([RatFun(Poly.const(1, var), D)], var)
    # clearing g's denominator multiplies every coefficient of M by one
    # monic factor, so the indicial data at infinity, and with them the
    # homogeneous degree candidates, are those of degree_bound(M, None)
    bound = degree_bound(M, g)
    if bound > MAX_DEGREE_BOUND:
        raise ValueError("degree bound %d exceeds %d"
                         % (bound, MAX_DEGREE_BOUND))
    part, basis = _polynomial_solutions(
        M, g if g is not None else RatFun.zero(var), bound)
    Dr = RatFun(Poly.const(1, var), D)
    if part is not None:
        part = part * Dr
    basis = [y * Dr for y in basis]
    # soundness: exact re-substitution
    target = g if g is not None else RatFun.zero(var)
    if part is not None and not (L.apply(part) == target):
        raise RuntimeError("rational solver produced a wrong solution")
    for y in basis:
        if L.apply(y):
            raise RuntimeError("rational solver produced a wrong solution")
    basis.sort(key=lambda y: (y.den.degree(), y.num.degree(), str(y)))
    if g is None and part is None:
        part = RatFun.zero(var)
    return SolutionSpace(part, basis, denominator=D, degree=bound)


def system_rational_solutions(A, b=None) -> SolutionSpace:
    """Rational solutions F of F' = A F + b for a square A over Q: the
    system is scalarized by cyclic_vector_scalarize and the scalar
    solutions are lifted by lift_solutions.  A system that
    cyclic_vector_scalarize does not support raises its ValueError."""
    res = cyclic_vector_scalarize(A, b)
    return lift_solutions(A, b, res, rational_solutions(res.op, res.rhs))


def lift_solutions(A, b, res, space) -> SolutionSpace:
    """Lift the rational solutions of the scalar form of F' = A F + b.

    res is the cyclic_vector_scalarize result of the system and space
    the SolutionSpace of res.op y = res.rhs.  Every vector is
    back-substituted and verified exactly against the system.
    """
    var = A[0][0].var
    part = None
    if space.particular is not None:
        part = res.back_substitute(space.particular)
        check_system_solution(A, b, part)
    # back substitution is affine; peel off its constant part for the
    # homogeneous solutions
    F0 = res.back_substitute(RatFun.zero(var))
    basis = []
    for y in space.basis:
        raw = res.back_substitute(y)
        F = [a - c for a, c in zip(raw, F0)]
        check_system_solution(A, None, F)
        basis.append(F)
    return SolutionSpace(part, basis, denominator=space.denominator,
                         degree=space.degree)


def check_system_solution(A, b, F):
    """Re-substitute a lifted vector: RuntimeError unless F' = A F + b
    holds exactly (F' = A F when b is None)."""
    var = A[0][0].var
    AF = mat_mul(A, [[x] for x in F])
    for i, f in enumerate(F):
        rhs = AF[i][0] if b is None else AF[i][0] + ratfun(b[i], var)
        if not (f.derivative() == rhs):
            raise RuntimeError("a lifted vector fails re-substitution into "
                               "the system")

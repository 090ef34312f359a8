"""Lie algebra computations on constant matrices.

Constant means: entries in the coefficient field (int or Fraction over
Q, FieldElem over Q(params)), no dependence on the main variable.  The Lie
algebra associated to a system matrix A(x) is generated by the constant
matrices of its minimal decomposition A = sum a_i(x) M_i.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .field import FieldElem
from .linear import mat_bracket, mat_mul, mat_transpose, rref, solve_all
from .linops import sym_power_matrix
from .mpoly import qdiv, qnorm
from .poly import Poly, RatFun, common_denominator


def _flat(M):
    return [x for row in M for x in row]


class LieAlgebraBasis:
    """Bracket-closed span of constant matrices."""

    def __init__(self, basis):
        self.basis = basis

    @property
    def dimension(self):
        return len(self.basis)

    def __repr__(self):
        return "LieAlgebraBasis(dim=%d)" % self.dimension


def _reduce(rows, v):
    """v minus its part in the span of a reduced echelon basis.

    rows are (pivot, row) pairs; each row is 1 at its own pivot and 0
    at every other row's pivot, so one pass in any order suffices.
    """
    for p, r in rows:
        c = v[p]
        if c:
            v = [qnorm(x - c * y) if y else x for x, y in zip(v, r)]
    return v


def _exact(x):
    """x as an exact entry: a FieldElem, or a canonical int or Fraction;
    a float, a bool or anything else raises ValueError."""
    if isinstance(x, FieldElem):
        return x
    if x.__class__ is int or x.__class__ is Fraction:
        return qnorm(x)
    raise ValueError("lie_closure needs exact entries, not %r" % (x,))


def lie_closure(gens, limit=None) -> LieAlgebraBasis:
    """Smallest bracket-closed linear span containing the generators.

    The flattened basis matrices are kept as a reduced echelon basis;
    a candidate joins the basis when it does not reduce to zero.  Each
    unordered pair of basis matrices is bracketed once:
    [B_j, B_i] = -[B_i, B_j] and [B_i, B_i] = 0 give the rest.

    Entries must be exact: an int or a Fraction over Q (an integral
    Fraction is taken as its int), or a FieldElem, so every rank
    decision is exact; any other entry (a float or a bool, say) raises
    ValueError.  With a limit, ValueError is raised as soon as the span
    passes that dimension, so no more than limit basis matrices are ever
    bracketed.
    """
    gens = [[[_exact(x) for x in row] for row in G] for G in gens]
    if not gens:
        raise ValueError("need at least one generator")
    basis = []
    rows = []
    candidates = []

    def insert(M):
        candidates.append(_flat(M))
        v = _reduce(rows, candidates[-1])
        p = next((k for k, x in enumerate(v) if x), None)
        if p is None:
            return
        if limit is not None and len(basis) == limit:
            raise ValueError("the Lie closure passes dimension %d" % limit)
        inv = v[p]
        v = [qdiv(x, inv) if x else x for x in v]
        rows[:] = [(q, _reduce([(p, v)], r)) for q, r in rows]
        rows.append((p, v))
        basis.append(M)

    for G in gens:
        insert(G)
    for i, Bi in enumerate(basis):  # basis grows while it is walked
        for Bj in basis[:i]:
            insert(mat_bracket(Bi, Bj))

    # the span only grows, so every candidate must still reduce to zero
    if any(any(_reduce(rows, v)) for v in candidates):
        raise RuntimeError("closure not closed (internal error)")
    return LieAlgebraBasis(basis)


def lie_dimension(gens, limit=None) -> int:
    """lie_closure(gens, limit).dimension, with each generator over Q
    first scaled to integers by the lcm of its denominators: a nonzero
    scaling changes no span, and the closure then runs on ints."""
    scaled = []
    for G in gens:
        lcm = math.lcm(*(x.denominator for row in G for x in row
                         if x.__class__ is Fraction))
        scaled.append(G if lcm == 1 else
                      [[qnorm(x * lcm) for x in row] for row in G])
    return lie_closure(scaled, limit).dimension


def associated_lie_algebra(A):
    """Minimal decomposition A = sum a_i(x) M_i of a rational matrix.

    Returns (coeffs, mats): a_i as RatFun and M_i as constant matrices,
    with s minimal and the a_i forming a reduced-echelon basis of the
    span of the entries of A.
    """
    n = len(A)
    m = len(A[0])
    var = A[0][0].var
    params = A[0][0].params
    den = common_denominator([x for row in A for x in row], var, params)
    nums = [[(x * RatFun(den)).as_poly() for x in row] for row in A]
    deg = 0
    for row in nums:
        for p in row:
            if not p.is_zero():
                deg = max(deg, p.degree())
    # entry coefficient vectors over the monomial basis 1, x, ..., x^deg
    vecs = []
    for row in nums:
        for p in row:
            vecs.append([p.coeff(k) for k in range(deg + 1)])
    R, pivots = rref(vecs)
    s = len(pivots)
    coeffs = []
    for i in range(s):
        num = Poly([R[i][k] for k in range(deg + 1)], var, params)
        coeffs.append(RatFun(num, den))
    mats = [[[vecs[r * m + c][p] for c in range(m)] for r in range(n)]
            for p in pivots]
    # sanity: decomposition reproduces A (an empty sum is the zero matrix)
    flat = _flat(A)
    if s:
        ok = mat_mul([coeffs], [_flat(M) for M in mats])[0] == flat
    else:
        ok = not any(flat)
    if not ok:
        raise RuntimeError("decomposition failed to reproduce matrix")
    return coeffs, mats


def span_coordinates(mats, basis):
    """Coordinates of each matrix of mats in span(basis), all from one
    elimination; raises ValueError when one lies outside the span."""
    sample = mats[0][0][0]
    one = sample - sample + 1
    m = [[x * one for x in row]
         for row in mat_transpose([_flat(B) for B in basis])]
    sols, _ = solve_all(m, [_flat(M) for M in mats], one)
    if None in sols:
        raise ValueError("not in the span of the basis")
    return sols


def adjoint_action_matrix(diag, offbasis):
    """Matrix Psi of [diag, .] on span(offbasis): [diag, F_j] = sum Psi_ij F_i.

    diag may have rational-function entries; the basis is constant.
    """
    sample = diag[0][0]
    one = sample - sample + 1
    brs = [mat_bracket(diag, [[x * one for x in row] for row in F])
           for F in offbasis]
    return mat_transpose(span_coordinates(brs, offbasis))


def classify_lnve_lie_algebra(d: int, n: int) -> str:
    """The family's Lie algebra of dimension d, by name."""
    if d == 3:
        return "sl2"
    if d == n + 3:
        return "sl2 x Sym^(n-1)"
    if d == n + 5:
        return "sl2 x Sym^(n+1)"
    if d == 2 * n + 5:
        return "sl2 x (Sym^(n-1) + Sym^(n+1))"
    raise ValueError("unexpected structure (dimension %d)" % d)


# ---------------------------------------------------------------------------
# standard generators of the block system Lie algebra (size (n+3) x (n+3))

def block_xyh(n):
    """The sl2 triplet X, Y, H acting on Sym^n + standard blocks."""
    zero = 0
    m = n + 3

    def embed(top, bot):
        M = [[zero] * m for _ in range(m)]
        for i in range(n + 1):
            for j in range(n + 1):
                M[i][j] = top[i][j]
        for i in range(2):
            for j in range(2):
                M[n + 1 + i][n + 1 + j] = bot[i][j]
        return M

    one = 1
    up = [[zero, one], [zero, zero]]
    lo = [[zero, zero], [one, zero]]
    X = embed(sym_power_matrix(up, n), up)
    Y = embed(sym_power_matrix(lo, n), lo)
    H = mat_bracket(X, Y)
    return X, Y, H


def block_e_matrices(n):
    """Off-diagonal ideal basis E_0..E_{n+1}: bottom-left 2 x (n+1) blocks.

    Normalized so that [X,E_i]=(i+1)E_{i+1}, [Y,E_i]=(n+2-i)E_{i-1},
    [H,E_i]=(2i-n-1)E_i with the block_xyh triplet: the nonzero entries
    are +-1 with alternating signs.
    """
    m = n + 3
    out = []
    for i in range(n + 2):
        M = [[0] * m for _ in range(m)]
        if i >= 1:
            M[n + 1][i - 1] = (-1) ** (i + 1)
        if i <= n:
            M[n + 2][i] = (-1) ** i
        out.append(M)
    return out

"""Exact linear algebra over any field whose elements support the usual
Python arithmetic (+, -, *, /) and truthiness for zero-testing.  Used with
int or Fraction (Q, kept canonical by mpoly.qnorm and mpoly.qdiv),
FieldElem and RatFun coefficients alike.

Matrices are lists of lists.  Every routine needs a zero and one of the
field, supplied either explicitly or scraped from the matrix entries.
"""

from __future__ import annotations

from .mpoly import qdiv, qnorm


def mat_shape(m):
    return len(m), len(m[0]) if m else 0


def mat_sub(a, b):
    return [[qnorm(x - y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a, b):
    """Matrix product; terms with a zero factor are skipped.

    An entry with no surviving term is a zero of the type of
    a[0][0] * b[0][0], the type the full sum would have.
    """
    k = mat_shape(a)[1]
    k2, m = mat_shape(b)
    if k != k2:
        raise ValueError("shape mismatch in matrix product")
    zero = None
    out = []
    for ra in a:
        row = [None] * m
        for x, rb in zip(ra, b):
            if not x:
                continue
            for j, y in enumerate(rb):
                if y:
                    s = row[j]
                    row[j] = x * y if s is None else s + x * y
        if any(s is None for s in row):
            if zero is None:
                z = a[0][0] * b[0][0]
                zero = z - z
            row = [zero if s is None else s for s in row]
        out.append([qnorm(s) for s in row])
    return out


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def mat_identity(n, one):
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_bracket(a, b):
    """Commutator [a, b] = ab - ba."""
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def rref(m, limit=None):
    """Reduced row echelon form, in place on a copy.

    Pivots are taken only in the first limit columns (all by default);
    the remaining columns are carried along by the row operations.
    Returns (R, pivots) where pivots lists the pivot column of each
    nonzero row.
    """
    a = [list(row) for row in m]
    rows, cols = mat_shape(a)
    pivots = []
    r = 0
    for c in range(cols if limit is None else limit):
        p = None
        for i in range(r, rows):
            if a[i][c]:
                p = i
                break
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = a[r][c]
        a[r] = [qdiv(x, inv) for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [qnorm(x - f * y) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m):
    if not m or not m[0]:
        return 0
    return len(rref(m)[1])


def solve_all(m, rhss, one):
    """Solve m x = b for every b in rhss with one elimination.

    Returns (solutions, kernel): solutions[k] is one solution for
    rhss[k], or None when that system is inconsistent, and kernel is a
    basis of the right kernel of m.  Pivots are taken only in m's
    columns, so an inconsistent right-hand side leaves the others
    untouched.
    """
    cols = mat_shape(m)[1]
    zero = one - one
    aug = [list(row) + [b[i] for b in rhss] for i, row in enumerate(m)]
    r, pivots = rref(aug, cols)
    solutions = []
    for k in range(cols, cols + len(rhss)):
        if any(row[k] for row in r[len(pivots):]):
            solutions.append(None)
            continue
        x = [zero] * cols
        for row, pc in zip(r, pivots):
            x[pc] = row[k]
        solutions.append(x)
    kernel = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [zero] * cols
        v[fc] = one
        for row, pc in zip(r, pivots):
            v[pc] = -row[fc]
        kernel.append(v)
    return solutions, kernel


def in_span(vectors, v, one):
    """Is v in the row span of vectors?"""
    if not vectors:
        return not any(v)
    m = [list(w) for w in vectors]
    base = rank(m)
    return rank(m + [list(v)]) == base

"""Sym^m(D^2 - t) and its action on polynomials, computed with sympy.

This is the benchmark's own oracle for the family workload, independent
of irred: the symmetric power is derived from its definition, as the
monic operator of order m+1 that annihilates y^m for every solution y of
y'' = t y.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import sympy as sp

t = sp.Symbol("t")


@functools.cache
def sym_power(m):
    """Coefficients [a_0, ..., a_m, 1] (polynomials in t) of Sym^m(D^2 - t)."""
    # the k-th derivative of y^m is sum_j c[j] * y^(m-j) * y'^j
    c = [sp.Integer(1)] + [sp.Integer(0)] * m
    derivs = [c]
    for _ in range(m + 1):
        new = [sp.Integer(0)] * (m + 1)
        for j, cj in enumerate(c):
            if cj == 0:
                continue
            new[j] += sp.diff(cj, t)
            if j < m:
                new[j + 1] += cj * (m - j)
            if j > 0:
                new[j - 1] += cj * j * t      # y'' = t y
        c = [sp.expand(x) for x in new]
        derivs.append(c)
    M = sp.Matrix(m + 1, m + 1, lambda j, k: derivs[k][j])
    rhs = sp.Matrix([-derivs[m + 1][j] for j in range(m + 1)])
    return tuple(sp.expand(x) for x in M.LUsolve(rhs)) + (sp.Integer(1),)


def sigma(m):
    """Degree shift: deg L(q) = deg q + sigma for every polynomial q != 0."""
    a = sym_power(m)
    return max(sp.degree(ak, t) - k for k, ak in enumerate(a) if ak != 0)


def apply(m, q):
    """Sym^m(D^2 - t) applied to the polynomial q."""
    a = sym_power(m)
    return sp.expand(sum(ak * sp.diff(q, t, k) for k, ak in enumerate(a)))


def poly(coeffs):
    """The polynomial with Fraction coefficients coeffs (ascending) in t."""
    return sum(sp.Rational(c.numerator, c.denominator) * t ** k
               for k, c in enumerate(coeffs))


def coefficients(q):
    """Fraction coefficients of the polynomial q in t, ascending."""
    if q == 0:
        return []
    return [Fraction(int(c.p), int(c.q))
            for c in sp.Poly(q, t).all_coeffs()[::-1]]

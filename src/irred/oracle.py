"""Floating-point sanity net for the variational constructions.

Integrates perturbed trajectories of a vector field with an adaptive
solver, forms central divided differences in the perturbation size, and
compares them against a direct numerical integration of the prolonged
jet system.  This validates the symbolic jet machinery; it proves
nothing and is never part of a certificate's exact chain.
"""

from __future__ import annotations

from fractions import Fraction

from .jets import curve_values, prolong, jet_name
from .poly import RatFun

# central difference stencils on offsets -2..2, error O(eps^2) or better
_STENCILS = {
    1: (Fraction(1, 12), Fraction(-2, 3), Fraction(0), Fraction(2, 3),
        Fraction(-1, 12)),
    2: (Fraction(-1, 12), Fraction(4, 3), Fraction(-5, 2), Fraction(4, 3),
        Fraction(-1, 12)),
    3: (Fraction(-1, 2), Fraction(1), Fraction(0), Fraction(-1),
        Fraction(1, 2)),
    4: (Fraction(1), Fraction(-4), Fraction(6), Fraction(-4), Fraction(1)),
}


def _fpoly(p, t):
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * t + float(c)
    return acc


def _frat(r, t):
    """A coefficient at t; a scalar (no independent coordinate) as is."""
    if not isinstance(r, RatFun):
        return float(r)
    den = _fpoly(r.den, t)
    if den == 0.0:
        raise ZeroDivisionError("coefficient pole hit at t=%g" % t)
    return _fpoly(r.num, t) / den


def _fmpoly(p, assign, t):
    total = 0.0
    for e, c in p.terms.items():
        term = _frat(c, t)
        for v, k in zip(p.vars, e):
            if k:
                term *= assign[v] ** k
        total += term
    return total


def numeric_ve_oracle(X, curve, k, seeds=None, eps=1e-3, t_span=(1.0, 2.0),
                      rtol=1e-11, atol=1e-13, max_steps=200000):
    """Max relative deviation between jet integration and divided differences.

    The initial condition sits on the given curve at t_span[0]; each seed
    perturbs the dependent coordinates linearly in eps.  k is capped at 4
    by the stencil table.
    """
    from scipy.integrate import solve_ivp

    if k < 1 or k > max(_STENCILS):
        raise ValueError("jet order %d outside the stencil table" % k)
    t0, t1 = float(t_span[0]), float(t_span[1])

    vals = curve_values(X, curve)
    base0 = [_frat(vals[c], t0) for c in X.deps]

    if seeds is None:
        n = len(X.deps)
        seeds = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
        if n > 1:
            seeds.append([1.0] * n)

    def run(fun, y0):
        sol = solve_ivp(fun, (t0, t1), y0, method="DOP853", rtol=rtol,
                        atol=atol, dense_output=False)
        if not sol.success:
            raise RuntimeError("integration blow-up near t=%g" % sol.t[-1])
        if sol.t.size > max_steps:
            raise RuntimeError("step budget exceeded")
        return [float(x) for x in sol.y[:, -1]]

    def f_base(t, s):
        assign = dict(zip(X.deps, s))
        return [_fmpoly(X.components[c], assign, t) for c in X.deps]

    J = prolong(X, k)
    jet_vars = list(J.vars)

    def f_jet(t, s):
        assign = dict(zip(jet_vars, s))
        return [_fmpoly(J.rhs[v], assign, t) for v in jet_vars]

    worst = 0.0
    for seed in seeds:
        # symbolic route: integrate the prolonged jet system
        y0 = []
        for v in jet_vars:
            if J.jet_order[v] == 0:
                y0.append(base0[X.deps.index(v)])
            elif J.jet_order[v] == 1 and not v.startswith(
                    (X.indep or "\0") + "^"):
                base = v[:v.rindex("^")]
                y0.append(float(seed[X.deps.index(base)]))
            else:
                y0.append(0.0)
        jet_end = dict(zip(jet_vars, run(f_jet, y0)))

        # numeric route: perturbed flows and divided differences
        flows = {}
        for j in (-2, -1, 0, 1, 2):
            y0 = [b + j * eps * s for b, s in zip(base0, seed)]
            flows[j] = run(f_base, y0)
        for l in range(1, k + 1):
            w = _STENCILS[l]
            for ci, c in enumerate(X.deps):
                dd = sum(float(w[j + 2]) * flows[j][ci]
                         for j in (-2, -1, 0, 1, 2)) / eps ** l
                pred = jet_end[jet_name(c, l)]
                rel = abs(dd - pred) / max(1.0, abs(pred))
                worst = max(worst, rel)
    return worst

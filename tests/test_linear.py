"""Exact matrix products and eliminations against reference constructions."""

from fractions import Fraction

import pytest

from irred.field import FieldElem
from irred.linear import mat_identity, mat_mul, rref, solve_all
from irred.poly import RatFun
from oracles import inverse, same_field

MU = ("mu",)


def _dense(a, b):
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            s = a[i][0] * b[0][j]
            for k in range(1, len(b)):
                s = s + a[i][k] * b[k][j]
            row.append(s)
        out.append(row)
    return out


def _q(rows):
    return [[Fraction(x) for x in r] for r in rows]


def _qmu(rows):
    mu = FieldElem.parameter("mu", MU)
    one = FieldElem.from_fraction(1, MU)
    table = {"0": one - one, "1": one, "mu": mu, "-mu": -mu,
             "1/(mu+1)": one / (mu + 1), "mu^2/2": mu * mu / 2,
             "(mu-1)/mu": (mu - 1) / mu}
    return [[table[x] for x in r] for r in rows]


def _rat(rows, params=()):
    t = RatFun.gen("t", params)
    one = RatFun.const(1, "t", params)
    table = {"0": one - one, "1": one, "t": t, "1/t": one / t,
             "t^2-3": t * t - 3, "2/(t+1)": 2 / (t + one)}
    return [[table[x] for x in r] for r in rows]


CASES = {
    "Q": (_q([[1, 0, 2], [0, 0, 0], [Fraction(-1, 3), 4, 0]]),
          _q([[0, 5, 0], [1, 0, 0], [2, Fraction(1, 2), 0]])),
    "Q(mu)": (_qmu([["mu", "0", "1"], ["0", "1/(mu+1)", "-mu"],
                    ["0", "0", "0"]]),
              _qmu([["1", "mu^2/2", "0"], ["(mu-1)/mu", "0", "0"],
                    ["mu", "1", "0"]])),
    "RatFun": (_rat([["t", "0"], ["1/t", "t^2-3"], ["0", "0"]]),
               _rat([["0", "2/(t+1)", "1"], ["t", "0", "0"]])),
    "Fraction x RatFun": (
        _q([[0, 3], [Fraction(1, 2), 0], [0, 0]]),
        _rat([["t", "0", "1/t"], ["0", "0", "2/(t+1)"]])),
    "zero row and column": (
        _q([[1, 2, 3], [0, 0, 0], [4, 0, 6]]),
        _q([[7, 0, 1], [0, 0, 2], [3, 0, 0]])),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_mat_mul_equals_dense_product(name):
    a, b = CASES[name]
    got, want = mat_mul(a, b), _dense(a, b)
    assert got == want
    for grow, wrow in zip(got, want):
        for g, w in zip(grow, wrow):
            assert str(g) == str(w)
            assert same_field(g, w)
            assert getattr(g, "params", ()) == getattr(w, "params", ())


def test_mat_mul_zero_entries_keep_type_and_params():
    a, b = CASES["Q(mu)"]
    got = mat_mul(a, b)
    # row 2 of a is zero, column 2 of b is zero
    for z in got[2] + [row[2] for row in got]:
        assert not z
        assert isinstance(z, FieldElem) and z.params == MU
    a, b = CASES["Fraction x RatFun"]
    got = mat_mul(a, b)
    assert all(isinstance(z, RatFun) and not z for z in got[2])
    assert got[2][0].var == "t"


def test_mat_mul_shape_mismatch():
    a, _ = CASES["Q"]
    with pytest.raises(ValueError):
        mat_mul(a, a[:2])


# ---------------------------------------------------------------------------
# solve_all against the per-column constructions it replaced

def _old_solve(m, rhs, one):
    """One rref of [m | rhs] with pivots allowed in every column."""
    cols = len(m[0]) if m else 0
    r, pivots = rref([list(row) + [rhs[i]] for i, row in enumerate(m)])
    if cols in pivots:
        return None
    x = [one - one] * cols
    for i, pc in enumerate(pivots):
        x[pc] = r[i][cols]
    return x


def _old_kernel(m, one):
    cols = len(m[0]) if m else 0
    zero = one - one
    if not m or cols == 0:
        return [[one if i == j else zero for j in range(cols)]
                for i in range(cols)]
    r, pivots = rref(m)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [zero] * cols
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(v)
    return basis


def _old_inverse(m, one):
    n = len(m)
    r, pivots = rref([list(row) + list(e)
                      for row, e in zip(m, mat_identity(n, one))])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]


def _same(got, want):
    """Equal by == and str, entry by entry, with None kept as None."""
    assert (got is None) == (want is None)
    if got is None:
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(g, list):
            _same(g, w)
        else:
            assert g == w and str(g) == str(w)


def _fields():
    mu = FieldElem.parameter("mu", MU)
    qmu = FieldElem.from_fraction(1, MU)
    t = RatFun.gen("t")
    rat = RatFun.const(1, "t")
    return {
        "Fraction": (Fraction(1), lambda k: Fraction(k)),
        "Q(mu)": (qmu, lambda k: qmu * k + (mu * (k % 3) if k else 0)),
        "RatFun": (rat, lambda k: rat * k + (t * (k % 2) / (t + 1)
                                             if k else 0)),
    }


def _rank_deficient(f):
    """3 x 4 of rank 2: row 2 is row 0 plus row 1."""
    r0 = [f(1), f(2), f(0), f(-1)]
    r1 = [f(0), f(1), f(3), f(2)]
    return [r0, r1, [a + b for a, b in zip(r0, r1)]]


@pytest.mark.parametrize("field", ["Fraction", "Q(mu)", "RatFun"])
def test_solve_all_matches_per_column_solve_and_kernel(field):
    one, f = _fields()[field]
    m = _rank_deficient(f)
    good1 = [f(2), f(5), f(7)]
    bad = [f(1), f(1), f(1)]            # row 2 != row 0 + row 1
    good2 = [f(0), f(0), f(0)]
    rhss = [good1, bad, good2]
    sols, kernel = solve_all(m, rhss, one)
    assert sols[1] is None
    for b, x in zip(rhss, sols):
        _same(x, _old_solve(m, b, one))
        if x is not None:
            assert mat_mul(m, [[v] for v in x]) == [[v] for v in b]
    _same(kernel, _old_kernel(m, one))
    assert len(kernel) == 2
    for v in kernel:
        assert not any(row[0] for row in mat_mul(m, [[x] for x in v]))
    # the same right-hand sides one by one, and none at all
    for b, x in zip(rhss, sols):
        _same(solve_all(m, [b], one)[0][0], x)
    none, kernel0 = solve_all(m, [], one)
    assert none == []
    _same(kernel0, kernel)


@pytest.mark.parametrize("field", ["Fraction", "Q(mu)", "RatFun"])
def test_inverse_matches_old_construction(field):
    one, f = _fields()[field]
    m = [[f(2), f(1), f(0)], [f(1), f(3), f(1)], [f(0), f(1), f(4)]]
    inv = inverse(m, one)
    _same(inv, _old_inverse(m, one))
    assert mat_mul(m, inv) == mat_identity(3, one)
    with pytest.raises(ValueError, match="singular"):
        inverse([row[:3] for row in _rank_deficient(f)], one)


def test_solve_all_zero_rows_or_columns():
    one = Fraction(1)
    # no rows: no columns are visible either
    assert solve_all([], [], one) == ([], [])
    assert solve_all([], [[]], one) == ([[]], [])
    # two rows, no columns: only the zero right-hand side is consistent
    m = [[], []]
    assert solve_all(m, [[0, 0], [1, 0]], one) == ([[], None], [])
    _same(solve_all(m, [], one)[1], _old_kernel(m, one))
    # a zero column is a free column of the kernel
    z = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]]
    sols, kernel = solve_all(z, [[3, 6], [3, 5]], one)
    assert sols == [[0, 3], None]
    assert kernel == [[1, 0]] == _old_kernel(z, one)


def test_rref_limit_keeps_pivots_out_of_the_right_hand_side():
    one = Fraction(1)
    aug = [[one, one, 2], [2 * one, 2 * one, 5]]
    assert rref(aug)[1] == [0, 2]
    r, pivots = rref(aug, 2)
    assert pivots == [0]
    assert r[1] == [0, 0, 1]

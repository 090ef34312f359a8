"""Exact matrix products against a dense triple loop."""

from fractions import Fraction

import pytest

from irred.field import FieldElem
from irred.linear import mat_mul
from irred.poly import RatFun

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
    return [[FieldElem.from_fraction(Fraction(x), ()) for x in r]
            for r in rows]


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
    "FieldElem x RatFun": (
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
            assert type(g) is type(w)
            assert g.params == w.params


def test_mat_mul_zero_entries_keep_type_and_params():
    a, b = CASES["Q(mu)"]
    got = mat_mul(a, b)
    # row 2 of a is zero, column 2 of b is zero
    for z in got[2] + [row[2] for row in got]:
        assert not z
        assert isinstance(z, FieldElem) and z.params == MU
    a, b = CASES["FieldElem x RatFun"]
    got = mat_mul(a, b)
    assert all(isinstance(z, RatFun) and not z for z in got[2])
    assert got[2][0].var == "t"


def test_mat_mul_shape_mismatch():
    a, _ = CASES["Q"]
    with pytest.raises(ValueError):
        mat_mul(a, a[:2])

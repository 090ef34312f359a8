"""Numeric cross-validation of the jet machinery."""

import pytest

from irred.jets import VectorFieldSpec
from irred.oracle import numeric_ve_oracle


def test_linear_field_exact_ve():
    """x' = x has no independent coordinate: its coefficient is the int
    1, and the curve a scalar, given as text or as itself."""
    X = VectorFieldSpec(("x",), ["x"])
    assert X.components["x"].terms == {(1,): 1}
    for point in ({"x": "1"}, {"x": 1}):
        assert numeric_ve_oracle(X, point, 1) < 1e-8


def test_rotation_field():
    X = VectorFieldSpec(("x", "y", "z"), ["1", "z", "0 - y"], indep="x")
    res = numeric_ve_oracle(X, {"y": "0", "z": "0"}, 1)
    assert res < 1e-6


def test_order_cap():
    X = VectorFieldSpec(("x",), ["x"])
    with pytest.raises(ValueError):
        numeric_ve_oracle(X, {"x": "1"}, 7)

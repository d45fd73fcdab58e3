import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfhodge.quadrature import edge_rule, monomial_integral, triangle_rule


@pytest.mark.parametrize("degree", range(0, 13))
def test_triangle_rule_exactness(degree):
    rule = triangle_rule(degree)
    assert (rule.weights > 0).all()
    assert abs(rule.weights.sum() - 0.5) < 1e-14
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = float((rule.xy[:, 0] ** a * rule.xy[:, 1] ** b) @ rule.weights)
            assert got == pytest.approx(monomial_integral(a, b), abs=1e-14, rel=1e-13)


def test_barycentric_consistency():
    rule = triangle_rule(4)
    assert np.allclose(rule.points.sum(axis=1), 1.0)
    assert (rule.points > 0).all()


@pytest.mark.parametrize("degree", range(0, 11))
def test_edge_rule_exactness(degree):
    t, w = edge_rule(degree)
    assert (w > 0).all()
    for d in range(degree + 1):
        assert float((t**d) @ w) == pytest.approx(1.0 / (d + 1), rel=1e-13)


@settings(max_examples=100, derandomize=True)
@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9))
def test_monomials_random_pairs(a, b):
    rule = triangle_rule(a + b)
    got = float((rule.xy[:, 0] ** a * rule.xy[:, 1] ** b) @ rule.weights)
    assert got == pytest.approx(monomial_integral(a, b), abs=1e-14, rel=1e-12)

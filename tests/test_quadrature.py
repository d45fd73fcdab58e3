import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.special import roots_jacobi, roots_legendre

from surfhodge.errors import UnsupportedCombination
from surfhodge.quadrature import _JACOBI, _LEGENDRE, edge_rule, monomial_integral, triangle_rule


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
    x, y = triangle_rule(4).xy.T
    assert (x > 0).all() and (y > 0).all() and (x + y < 1).all()


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


@pytest.mark.parametrize("n", range(1, 11))
def test_tables_are_scipys_rules_to_the_bit(n):
    """The tabulated rules are the arrays scipy.special computes: the
    package reads the table and never imports scipy.special itself."""
    for (x, w), (xs, ws) in ((_LEGENDRE[n - 1], roots_legendre(n)),
                             (_JACOBI[n - 1], roots_jacobi(n, 1.0, 0.0))):
        assert np.array(x).tobytes() == xs.tobytes()
        assert np.array(w).tobytes() == ws.tobytes()


def test_degree_above_the_table_is_refused():
    assert len(triangle_rule(19).weights) == 100 and len(edge_rule(19)[0]) == 10
    for rule in (triangle_rule, edge_rule):
        with pytest.raises(UnsupportedCombination, match="degree 20 is above the tabulated 19"):
            rule(20)


def test_cached_rules_are_read_only():
    """A rule is cached and shared by every caller, so none may write it."""
    rule, (t, w) = triangle_rule(4), edge_rule(4)
    for a in (rule.weights, rule.xy, t, w):
        with pytest.raises(ValueError):
            a[0] = 99.0

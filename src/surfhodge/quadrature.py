"""Quadrature rules on the reference triangle and reference edge.

Triangle rules are conical-product rules (Gauss-Legendre x Gauss-Jacobi via
the Duffy map), which guarantee the requested polynomial exactness with
positive weights for any degree.  Edge rules are Gauss-Legendre on [0, 1].
"""

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np
from scipy.special import roots_jacobi, roots_legendre


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature rule on the reference triangle (0,0)-(1,0)-(0,1).

    points are stored in barycentric coordinates (lambda0, lambda1, lambda2)
    with lambda0 = 1 - x - y; weights sum to the reference area 1/2 and
    integrate all polynomials up to exactness_degree exactly.
    """

    points: np.ndarray  # (n, 3) barycentric
    weights: np.ndarray  # (n,)
    exactness_degree: int

    @property
    def xy(self) -> np.ndarray:
        """Reference coordinates (n, 2): x = lambda1, y = lambda2."""
        return self.points[:, 1:]

    def __len__(self) -> int:
        return len(self.weights)


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadratureRule:
    """Rule integrating all bivariate polynomials up to `degree` exactly."""
    degree = max(int(degree), 0)
    n = degree // 2 + 1
    # Gauss-Legendre in the collapsed direction s on [0, 1].
    s, ws = edge_rule(degree)
    # Gauss-Jacobi with weight (1 - t) on [0, 1]; absorbs the Duffy Jacobian.
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    t = 0.5 * (xj + 1.0)
    wj = 0.25 * wj

    S, T = np.meshgrid(s, t, indexing="ij")
    x = (S * (1.0 - T)).ravel()
    y = T.ravel()
    w = np.outer(ws, wj).ravel()
    pts = np.column_stack([1.0 - x - y, x, y])
    return QuadratureRule(points=pts, weights=w, exactness_degree=degree)


@lru_cache(maxsize=None)
def edge_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on the unit interval, exact up to `degree`.

    Returns (nodes, weights) with nodes in (0, 1) and weights summing to 1;
    the physical arc length is multiplied in by the caller.
    """
    degree = max(int(degree), 0)
    n = degree // 2 + 1
    xs, ws = roots_legendre(n)
    return 0.5 * (xs + 1.0), 0.5 * ws


def monomial_integral(a: int, b: int) -> float:
    """Exact integral of x^a y^b over the reference triangle."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)

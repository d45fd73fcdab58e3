import numpy as np
import pytest
import scipy.sparse as sp

from surfhodge.errors import NotSPD, SingularMatrix
from surfhodge.linalg import FactorizedOperator


def test_identity_solve():
    op = FactorizedOperator(sp.identity(5, format="csc"), kind="SPD")
    b = np.arange(5.0)
    assert np.allclose(op.solve(b), b)


def test_two_by_two():
    A = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    op = FactorizedOperator(A, kind="SPD")
    x = op.solve(np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_random_spd_residual(rng):
    n = 200
    R = rng.standard_normal((n, n))
    A = sp.csc_matrix(R.T @ R + n * np.eye(n))
    op = FactorizedOperator(A, kind="SPD")
    for _ in range(3):
        b = rng.standard_normal(n)
        x = op.solve(b)
        res = np.linalg.norm(A @ x - b)
        bound = 1e-10 * (abs(A).max() * np.linalg.norm(x) + np.linalg.norm(b))
        assert res <= bound


def test_not_spd_detection():
    A = sp.csc_matrix(np.diag([1.0, -2.0, 3.0]))
    with pytest.raises(NotSPD):
        FactorizedOperator(A, kind="SPD")
    B = sp.csc_matrix(np.array([[1.0, 5.0], [0.0, 1.0]]))
    with pytest.raises(NotSPD):
        FactorizedOperator(B, kind="SPD")
    # the same matrices factorize fine as symmetric-indefinite / general
    FactorizedOperator(A, kind="symmetric-indefinite")


def test_singular_matrix():
    A = sp.csc_matrix((3, 3))
    with pytest.raises(SingularMatrix):
        FactorizedOperator(A)
    with pytest.raises(SingularMatrix):
        FactorizedOperator(sp.csc_matrix(np.ones((2, 3))))


def test_solve_counting(rng):
    A = sp.csc_matrix(np.diag([1.0, 2.0, 3.0]))
    op = FactorizedOperator(A, kind="SPD")
    op.solve(np.ones(3))
    op.solve(rng.standard_normal((3, 4)))
    assert op.solve_count == 5


def test_deterministic_solves(rng):
    n = 50
    R = rng.standard_normal((n, n))
    A = sp.csc_matrix(R.T @ R + n * np.eye(n))
    b = rng.standard_normal(n)
    x1 = FactorizedOperator(A, kind="SPD").solve(b)
    x2 = FactorizedOperator(A, kind="SPD").solve(b)
    assert (x1 == x2).all()  # bitwise


def test_gauged_operator_zero_mean(rng):
    # singular SPD system (graph Laplacian): gauge picks the mean-free
    # representative and the result solves the projected problem
    n = 10
    L = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    L[0, -1] -= 1
    L[-1, 0] -= 1
    L[0, 0] -= 0.0  # periodic Laplacian, kernel = constants
    ones = np.ones(n)
    op = FactorizedOperator(sp.csc_matrix(L), [ones])
    b = rng.standard_normal(n)
    b -= b.mean()
    x = op.solve(b)
    assert abs(x.sum()) < 1e-10
    assert np.linalg.norm(L @ x - b) < 1e-10
    # a matrix of right-hand sides gives the column-wise solves, without
    # the multipliers, and counts one solve per column
    B = rng.standard_normal((n, 4))
    B -= B.mean(axis=0)
    X = op.solve(B)
    cols = np.column_stack([op.solve(B[:, j]) for j in range(4)])
    assert X.shape == (n, 4)
    assert np.abs(X - cols).max() <= 1e-13 * np.abs(cols).max()
    assert op.solve_count == 9


def test_empty_system():
    op = FactorizedOperator(sp.csc_matrix((0, 0)))
    assert op.solve(np.zeros(0)).shape == (0,)


def test_concurrent_solves_match_serial(torus):
    """Solves from several threads on one bordered factorization (the
    zero-mean streamfunction operator of a closed torus) give the serial
    results bitwise and an exact solve count."""
    from concurrent.futures import ThreadPoolExecutor

    from surfhodge.hodge import HodgeSolver

    op = HodgeSolver(torus, 1).laplace_operator
    assert op.n_constraints == 1
    rhs = np.random.default_rng(5).standard_normal((300, op.n))
    serial = [op.solve(b) for b in rhs]
    with ThreadPoolExecutor(max_workers=3) as pool:
        threaded = list(pool.map(op.solve, rhs))
    assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))
    assert op.solve_count == 600

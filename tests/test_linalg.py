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
    for bad in (np.nan, np.inf):  # non-finite entries, rejected before SuperLU
        with pytest.raises(SingularMatrix):
            FactorizedOperator(sp.csc_matrix(np.diag([1.0, bad, 3.0])), kind="SPD")


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
    op = FactorizedOperator(sp.csc_matrix(L), ones)
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
    """Solves from several threads on one gauged factorization (the
    zero-mean streamfunction operator of a closed torus) give the serial
    results bitwise and an exact solve count."""
    from concurrent.futures import ThreadPoolExecutor

    from surfhodge.hodge import HodgeSolver

    op = HodgeSolver(torus, 1).laplace_operator
    assert op.gauge is not None
    rhs = np.random.default_rng(5).standard_normal((300, op.n))
    serial = [op.solve(b) for b in rhs]
    with ThreadPoolExecutor(max_workers=3) as pool:
        threaded = list(pool.map(op.solve, rhs))
    assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))
    assert op.solve_count == 600


def _periodic_laplacian(n):
    L = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    L[0, -1] = L[-1, 0] = -1.0
    return L


def test_gauged_solve_matches_bordered_system(rng):
    """The pinned solve returns the primal part of the bordered system
    [[A, c], [c', 0]], also for a weighted constraint and a right-hand side
    with a component outside the range of A."""
    n = 12
    L = _periodic_laplacian(n)
    c = 1.0 + rng.random(n)
    op = FactorizedOperator(sp.csc_matrix(L), c, kind="SPD")
    K = np.block([[L, c[:, None]], [c[None, :], np.zeros((1, 1))]])
    B = rng.standard_normal((n, 3))
    ref = np.linalg.solve(K, np.vstack([B, np.zeros((1, 3))]))[:n]
    X = op.solve(B)
    assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(c @ X).max() <= 1e-12 * np.abs(c).sum() * np.abs(X).max()


def test_gauge_on_nonsingular_operator_raises(rng):
    """A gauge given for an operator without a kernel is an error, not a
    silently perturbed solve."""
    n = 20
    R = rng.standard_normal((n, n))
    A = sp.csc_matrix(R.T @ R + n * np.eye(n))
    with pytest.raises(SingularMatrix):
        FactorizedOperator(A, np.ones(n), kind="SPD")
    with pytest.raises(SingularMatrix):
        FactorizedOperator(sp.csc_matrix(_periodic_laplacian(n) + 1e-3 * np.eye(n)),
                           np.ones(n), kind="SPD")


def test_gauge_orthogonal_to_kernel_raises():
    n = 10
    c = np.zeros(n)
    c[0], c[1] = 1.0, -1.0  # c' 1 = 0: does not fix the constant kernel
    with pytest.raises(SingularMatrix):
        FactorizedOperator(sp.csc_matrix(_periodic_laplacian(n)), c, kind="SPD")


def test_streamfunction_factor_fill():
    """The gauged SPD streamfunction Laplacian of the 32x16 torus at k = 2
    is factorized symmetrically: about 0.46M LU entries, against 1.75M with
    the zero-mean constraint bordered and COLAMD; a deterministic guard for
    the ordering."""
    from surfhodge import meshes
    from surfhodge.hodge import HodgeSolver

    op = HodgeSolver(meshes.torus_structured(32, 16), 2).laplace_operator
    assert op._lu.nnz < 600_000


def test_saddle_oracle_factor_fill(monkeypatch):
    """The saddle-point oracle of the 16x8 torus at k = 2 is factorized
    symmetrically after its quasi-definite shift: about 0.53M LU entries,
    against 2.16M with COLAMD and partial pivoting; a deterministic guard
    for the ordering."""
    from surfhodge import flow, meshes

    made = []

    class Recording(flow.FactorizedOperator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(flow, "FactorizedOperator", Recording)
    ops = flow.FlowOperators(meshes.torus_structured(16, 8), flow.SimulationConfig(k=2))
    made.clear()
    ops.stokes_saddle()
    (op,) = made
    assert op.kind == "symmetric-indefinite" and op.gauge is not None
    assert op._lu.nnz < 800_000


def _two_constraint_saddle(eta):
    """[[I, B'], [B, 0]] with constraint rows (1, 0) and (1, eta); its
    Schur complement -B B' has an eigenvalue of about eta^2 / 2."""
    B = np.array([[1.0, 0.0], [1.0, eta]])
    return sp.csc_matrix(np.block([[np.eye(2), B.T], [B, np.zeros((2, 2))]]))


def test_indefinite_refinement_failure_raises():
    """A symmetric-indefinite matrix whose refinement cannot converge raises
    SingularMatrix and returns no vector: exactly singular (eta = 0), and
    so ill-conditioned that the shift is not refined away (eta = 3e-5,
    condition number 4e9, although its exact solve passes the near-null
    test).  The same structure with eta = 1e-2 solves to rounding."""
    for eta in (0.0, 3e-5):
        x = None
        with pytest.raises(SingularMatrix, match="refinement"):
            x = FactorizedOperator(_two_constraint_saddle(eta)).solve(np.ones(4))
        assert x is None
    A = _two_constraint_saddle(1e-2)
    x = FactorizedOperator(A).solve(np.ones(4))
    assert np.abs(A @ x - 1.0).max() <= 1e-14 * np.abs(x).max()


def test_refinement_steps_are_not_counted(rng):
    """Refined solves of a quasi-definite saddle matrix reach rounding and
    count one solve per right-hand side, however many refinement steps
    they take."""
    n, m = 30, 10
    R = rng.standard_normal((n, n))
    B = rng.standard_normal((m, n))
    A = sp.csc_matrix(np.block([[R.T @ R + np.eye(n), B.T], [B, np.zeros((m, m))]]))
    op = FactorizedOperator(A)
    b = rng.standard_normal((n + m, 3))
    X = np.column_stack([op.solve(b[:, 0]), op.solve(b[:, 1:])])
    assert op.solve_count == 3
    assert np.abs(A @ X - b).max() <= 1e-14 * abs(A).sum(axis=1).max() * np.abs(X).max()


def _neumann_grid_laplacian(m):
    T = 2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    T[0, 0] = T[-1, -1] = 1.0
    I = np.eye(m)
    return np.kron(I, T) + np.kron(T, I)


SINGULAR_SPD = {
    "periodic10": lambda: _periodic_laplacian(10),
    "periodic200": lambda: _periodic_laplacian(200),
    "neumann30x30": lambda: _neumann_grid_laplacian(30),
}


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
@pytest.mark.parametrize("name", sorted(SINGULAR_SPD))
def test_ungauged_singular_spd_raises(name, scale, rng):
    """A singular SPD matrix without a gauge is rejected whatever its size
    and scale; with the ones gauge the same matrix solves."""
    A = sp.csc_matrix(scale * SINGULAR_SPD[name]())
    with pytest.raises(SingularMatrix):
        FactorizedOperator(A, kind="SPD")
    n = A.shape[0]
    op = FactorizedOperator(A, np.ones(n), kind="SPD")
    b = rng.standard_normal(n)
    b -= b.mean()
    x = op.solve(b)
    assert abs(x.sum()) <= 1e-10 * np.abs(x).max() * n
    assert np.abs(A @ x - b).max() <= 1e-10 * np.abs(b).max()


def test_saddle_factor_peak_memory():
    """Building the saddle-point oracle's factor allocates far less than
    its LU (12 bytes per entry) under tracemalloc: no copy of U is made.
    SuperLU's own allocations are not traced; the guard is on the Python-
    side arrays around it."""
    import tracemalloc

    from surfhodge import assembly as asm
    from surfhodge import meshes
    from surfhodge.flow import FlowOperators, SimulationConfig

    ops = FlowOperators(meshes.torus_structured(16, 8), SimulationConfig(k=2))
    B, mq = ops.hodge.B, sp.csc_matrix(asm.assemble_moment(ops.Q)).T
    K = sp.bmat([[ops.A_visc, B.T, None], [B, None, mq], [None, mq.T, None]],
                format="csc")
    tracemalloc.start()
    try:
        op = FactorizedOperator(K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * op._lu.nnz / 4

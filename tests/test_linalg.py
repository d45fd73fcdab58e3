import numpy as np
import pytest
import scipy.sparse as sp

from surfhodge.errors import NotSPD, SingularMatrix, SolverError, SolverFailure
from surfhodge.linalg import FactorizedOperator, check_symmetric, mnorm, zero_mean


def test_identity_solve():
    op = FactorizedOperator(sp.identity(5, format="csc"))
    b = np.arange(5.0)
    assert np.allclose(op.solve(b), b)


@pytest.mark.parametrize("scale", [2.0**-600, 1e-3, 1.0, 3e4, 2.0**500])
def test_mnorm_reads_a_held_product_with_the_same_bits(rng, scale):
    """mnorm(x, M, M x) scales the held M x as it scales x, by a power of 2,
    so it equals mnorm(x, M) bit for bit, however large or small x is."""
    A = sp.random(60, 60, density=0.1, random_state=1)
    M = (A @ A.T + sp.identity(60)).tocsr()
    for x in (scale * rng.standard_normal(60), np.zeros(60)):
        assert mnorm(x, M, M @ x) == mnorm(x, M)


def test_two_by_two():
    A = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    op = FactorizedOperator(A)
    x = op.solve(np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_random_spd_residual(rng):
    n = 200
    R = rng.standard_normal((n, n))
    A = sp.csc_matrix(R.T @ R + n * np.eye(n))
    op = FactorizedOperator(A)
    for _ in range(3):
        b = rng.standard_normal(n)
        x = op.solve(b)
        res = np.linalg.norm(A @ x - b)
        bound = 1e-10 * (abs(A).max() * np.linalg.norm(x) + np.linalg.norm(b))
        assert res <= bound


def test_not_spd_detection():
    A = sp.csc_matrix(np.diag([1.0, -2.0, 3.0]))
    with pytest.raises(NotSPD):
        FactorizedOperator(A)
    B = sp.csc_matrix(np.array([[1.0, 5.0], [0.0, 1.0]]))
    with pytest.raises(NotSPD):
        FactorizedOperator(B)
    # a symmetric pattern with asymmetric values, in both sparse formats;
    # asymmetry within 1e-12 of the largest entry is accepted
    for fmt in (sp.csc_matrix, sp.csr_matrix):
        with pytest.raises(NotSPD):
            check_symmetric(fmt(np.array([[2.0, 1.0], [1.0 + 1e-11, 2.0]])), "matrix")
        assert not check_symmetric(fmt(np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]])), "matrix")
        assert check_symmetric(fmt(np.array([[2.0, 1.0], [1.0, 2.0]])), "matrix")  # exactly
    # every factor is SPD: a symmetric-indefinite saddle-point matrix, with
    # its zero diagonal, is rejected too
    K = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NotSPD):
        FactorizedOperator(K)


def test_singular_matrix():
    # the zero matrix fails the positive-diagonal check (NotSPD); either way
    # a SolverError, so the CLI exit code is 4
    A = sp.csc_matrix((3, 3))
    with pytest.raises(SolverError):
        FactorizedOperator(A)
    with pytest.raises(SingularMatrix):
        FactorizedOperator(sp.csc_matrix(np.ones((2, 3))))
    for bad in (np.nan, np.inf):  # non-finite entries, rejected before SuperLU
        with pytest.raises(SingularMatrix):
            FactorizedOperator(sp.csc_matrix(np.diag([1.0, bad, 3.0])))


@pytest.mark.parametrize("form", ["mass", "stiffness"])
def test_exactly_symmetric_csr_factored_from_its_arrays(form, monkeypatch, rng):
    """An exactly symmetric canonical csr matrix is its own csc: the
    unpinned mass matrix is factored from its own arrays, with no copy,
    and both it and the pinned stiffness solve bitwise as the factor of
    their csc copy."""
    from surfhodge import assembly as asm, linalg, meshes
    from surfhodge.fespace import build_space

    mesh = meshes.torus_structured(8, 8)
    A = (asm.assemble_mass(build_space(mesh, "bdm", 1, "zero_normal_trace")) if form == "mass"
         else asm.assemble_broken_stiffness(build_space(mesh, "lagrange", 2)))
    factored = []
    splu = linalg.spla.splu
    monkeypatch.setattr(linalg.spla, "splu", lambda F, **kw: factored.append(F) or splu(F, **kw))
    op = FactorizedOperator(A)
    (F,) = factored
    assert op.pinned == (form == "stiffness")
    shared = [np.shares_memory(getattr(F, name), getattr(A, name))
              for name in ("data", "indices", "indptr")]
    assert shared == [not op.pinned] * 3
    b = rng.standard_normal(A.shape[0])
    b -= b.mean()
    assert np.array_equal(op.solve(b), FactorizedOperator(A.tocsc()).solve(b))


def _record_sweeps(monkeypatch):
    """The trans argument of every SuperLU solve from here on."""
    from surfhodge import linalg

    sweeps = []

    class Recorded:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz

        def solve(self, b, trans="N"):
            sweeps.append(trans)
            return self.lu.solve(b, trans)

    splu = linalg.spla.splu
    monkeypatch.setattr(linalg.spla, "splu", lambda F, **kw: Recorded(splu(F, **kw)))
    return sweeps


@pytest.mark.parametrize("form", ["mass", "stiffness"])
def test_exactly_symmetric_csr_solves_with_plain_sweeps(form, monkeypatch, rng):
    """An exactly symmetric csr matrix, unpinned (mass) or pinned (the
    closed-surface stiffness), is solved with SuperLU's plain sweeps, one
    column or a block of columns in one call, to within 1e-13 of a dense
    solve."""
    from surfhodge import assembly as asm, meshes
    from surfhodge.fespace import build_space

    mesh = meshes.torus_structured(8, 8)
    A = (asm.assemble_mass(build_space(mesh, "bdm", 1, "zero_normal_trace")) if form == "mass"
         else asm.assemble_broken_stiffness(build_space(mesh, "lagrange", 2)))
    sweeps = _record_sweeps(monkeypatch)
    op = FactorizedOperator(A)
    assert A.format == "csr" and op.pinned == (form == "stiffness")
    B = rng.standard_normal((A.shape[0], 3))
    B -= B.mean(axis=0)
    X = np.column_stack([op.solve(B[:, 0]), op.solve(B)])
    assert sweeps == ["N"] * 3  # the factor's own near-null check, the column, the block
    D, i = A.toarray(), int(op.pinned)  # a pinned solve has x_0 = 0
    want = np.vstack([np.zeros((i, 3)), np.linalg.solve(D[i:, i:], B[i:])])[:, [0, 0, 1, 2]]
    assert np.abs(X - want).max() <= 1e-13 * np.abs(want).max()


def test_rounding_symmetric_matrix_solves_a_x_equals_b(monkeypatch):
    """A csc matrix symmetric only to rounding passes check_symmetric and is
    solved as A x = b.  Its symmetric part has the eigenvalue 1e-7 twice,
    and its antisymmetric part of size 1e-13 couples the two eigenvectors,
    so A' x = b would miss the dense solution by far more than the bound."""
    n, u, w = np.ones(3) / np.sqrt(3), np.array([1, -1, 0]) / np.sqrt(2), np.array([1, 1, -2])
    w = w / np.sqrt(6)
    A = sp.csc_matrix(1e-7 * np.eye(3) + (1 - 1e-7) * np.outer(n, n)
                      + 1e-13 * (np.outer(u, w) - np.outer(w, u)))
    assert not check_symmetric(A, "A")
    b = np.array([1.0, -0.5, 0.25])
    want, transposed = np.linalg.solve(A.toarray(), b), np.linalg.solve(A.toarray().T, b)
    bound = 1e-8 * np.abs(want).max()
    assert np.abs(transposed - want).max() > 100 * bound
    sweeps = _record_sweeps(monkeypatch)
    x = FactorizedOperator(A).solve(b)
    assert set(sweeps) == {"N"}
    assert np.abs(x - want).max() <= bound


def test_solve_counting(rng):
    A = sp.csc_matrix(np.diag([1.0, 2.0, 3.0]))
    op = FactorizedOperator(A)
    assert (op.n, op.lu_nnz) == (3, 6)  # L's unit diagonal is stored too
    op.solve(np.ones(3))
    op.solve(rng.standard_normal((3, 4)))
    assert op.solve_count == 5


def test_deterministic_solves(rng):
    n = 50
    R = rng.standard_normal((n, n))
    A = sp.csc_matrix(R.T @ R + n * np.eye(n))
    b = rng.standard_normal(n)
    x1 = FactorizedOperator(A).solve(b)
    x2 = FactorizedOperator(A).solve(b)
    assert (x1 == x2).all()  # bitwise


def test_gauged_operator_zero_mean(rng):
    # singular SPD system (graph Laplacian, kernel = constants): the factor
    # pins the first dof, and zero_mean picks the mean-free representative
    # of a solution of the consistent problem
    n = 10
    L = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    L[0, -1] -= 1
    L[-1, 0] -= 1
    ones = np.ones(n)
    op = FactorizedOperator(sp.csc_matrix(L))
    assert op.pinned
    b = rng.standard_normal(n)
    b -= b.mean()
    x = op.solve(b)
    assert x[0] == 0.0
    x = zero_mean(x, ones)
    assert abs(x.sum()) < 1e-10
    assert np.linalg.norm(L @ x - b) < 1e-10
    # a matrix of right-hand sides gives the column-wise solves and counts
    # one solve per column
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
    assert (op.n, op.lu_nnz) == (0, 0)


def test_concurrent_solves_match_serial(torus):
    """Solves from several threads on one pinned factorization (the
    streamfunction operator of a closed torus) give the serial results
    bitwise and an exact solve count."""
    from concurrent.futures import ThreadPoolExecutor

    from surfhodge.hodge import HodgeSolver

    op = HodgeSolver(torus, 1).laplace_operator
    assert op.pinned
    rhs = np.random.default_rng(5).standard_normal((300, op.n))
    serial = [op.solve(b) for b in rhs]
    with ThreadPoolExecutor(max_workers=3) as pool:
        threaded = list(pool.map(op.solve, rhs))
    assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))
    assert op.solve_count == 600


def test_gauged_batched_solve_matches_single_columns(torus):
    """For this draw, raw Gaussian columns of default_rng(3), a pinned solve
    of several columns gives each column bitwise the result of solving it
    alone, whether the column is a view or a copy.  That is a property of
    the draw, not of batching: SuperLU's block sweeps agree with single
    solves only to rounding in general (see the next test)."""
    from surfhodge.hodge import HodgeSolver

    op = HodgeSolver(torus, 2).laplace_operator
    assert op.pinned
    B = np.random.default_rng(3).standard_normal((op.n, 5))
    X = op.solve(B)
    for j in range(B.shape[1]):
        assert np.array_equal(X[:, j], op.solve(B[:, j]))
        assert np.array_equal(X[:, j], op.solve(B[:, j].copy()))


@pytest.mark.parametrize("seed", [1, 3, 4])
def test_gauged_batched_solve_agrees_with_single_columns(seed, torus):
    """FactorizedOperator's promise for a block: each column of a pinned
    5-column solve agrees with its solve alone to 1e-14 of the column's
    largest entry.  These zero-mean columns of default_rng(seed) on the
    8x8 torus's streamfunction Laplacian at k = 2 are draws whose block
    solve is not bitwise: measured, 234, 433 and 9 entries differ, by at
    most 4.5e-16 of the column's largest entry."""
    from surfhodge.hodge import HodgeSolver

    op = HodgeSolver(torus, 2).laplace_operator
    assert op.pinned
    B = np.random.default_rng(seed).standard_normal((op.n, 5))
    B -= B.mean(axis=0)
    X = op.solve(B)
    for j in range(B.shape[1]):
        x = op.solve(B[:, j])
        assert np.abs(X[:, j] - x).max() <= 1e-14 * np.abs(x).max()


@pytest.mark.parametrize("form", ["stream", "mass"])
def test_unpinned_batched_solve_agrees_with_single_columns(form, sphere4, solver_cache):
    """An unpinned factor, the pierced sphere's streamfunction Laplacian or
    its BDM mass matrix, gives each column of a 5-column solve the result of
    solving it alone to 1e-14 of the column's largest entry.  Not always
    bitwise: SuperLU's plain sweeps take a block with dense block kernels,
    and one entry of this mass block differs from its single solve (at most
    5.8e-16 measured over 10 draws here and on the pierced sphere (3, 4) at
    k = 3)."""
    solver = solver_cache(sphere4, 2)
    op = solver.laplace_operator if form == "stream" else FactorizedOperator(solver.M)
    assert not op.pinned
    B = np.random.default_rng(4).standard_normal((op.n, 5))
    X = op.solve(B)
    for j in range(B.shape[1]):
        x = op.solve(B[:, j])
        assert np.abs(X[:, j] - x).max() <= 1e-14 * np.abs(x).max()


def _periodic_laplacian(n):
    L = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    L[0, -1] = L[-1, 0] = -1.0
    return L


def test_gauged_solve_matches_bordered_system(rng):
    """The pinned solve, shifted by zero_mean to c' x = 0, is the primal part
    of the bordered system [[A, c], [c', 0]], also for a weighted
    constraint, for right-hand sides in the range of A."""
    n = 12
    L = _periodic_laplacian(n)
    c = 1.0 + rng.random(n)
    op = FactorizedOperator(sp.csc_matrix(L))
    K = np.block([[L, c[:, None]], [c[None, :], np.zeros((1, 1))]])
    B = rng.standard_normal((n, 3))
    B -= B.mean(axis=0)
    ref = np.linalg.solve(K, np.vstack([B, np.zeros((1, 3))]))[:n]
    X = zero_mean(op.solve(B), c)
    assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(c @ X).max() <= 1e-12 * np.abs(c).sum() * np.abs(X).max()


def test_streamfunction_factor_fill():
    """The pinned streamfunction Laplacian of the 32x16 torus at k = 2 is
    factorized symmetrically: about 0.33M LU entries, against 1.75M with
    the zero-mean constraint bordered and COLAMD; a deterministic guard for
    the ordering."""
    from surfhodge import meshes
    from surfhodge.hodge import HodgeSolver

    op = HodgeSolver(meshes.torus_structured(32, 16), 2).laplace_operator
    assert op.lu_nnz < 600_000


def test_streamfunction_factor_fill_unstructured():
    """On the unstructured pierced sphere (3, 4) at k = 3 the streamfunction
    Laplacian's LU holds about 0.81M entries with unrelaxed supernodes,
    against 1.06M with SuperLU's default relax = 10."""
    from surfhodge import meshes
    from surfhodge.hodge import HodgeSolver

    op = HodgeSolver(meshes.sphere_with_holes(3, 4), 3).laplace_operator
    assert op.lu_nnz < 900_000


def test_stokes_block_factor_fill():
    """The pinned Stokes streamfunction block A_ss of the 32x16 torus at
    k = 2 holds about 1.57M LU entries.  It is formed from the interpolated
    E that FlowOperators assembles: without E's rounding-level entries its
    minimum-degree ordering fills 1.76M, so this guards the rounding entries
    where A_ss is formed."""
    from surfhodge import flow, meshes

    ops = flow.FlowOperators(meshes.torus_structured(32, 16), flow.SimulationConfig(k=2))
    assert FactorizedOperator(ops.A_red.A_ss).lu_nnz < 1_650_000


def test_saddle_oracle_factor_fill(flow_factors):
    """The saddle-point oracle of the 16x8 torus at k = 2 builds one SPD
    factor, not pinned, of the penalized velocity block restricted to the
    kernel of B[qp]: order n_V - n_qp = 1408 and about 0.34M LU entries
    (the full penalized block A + gamma B'WB: 1920 and 0.51M); a
    deterministic guard for the ordering."""
    from surfhodge import flow, meshes

    ops = flow.FlowOperators(meshes.torus_structured(16, 8), flow.SimulationConfig(k=2))
    flow_factors.clear()
    ops.stokes_saddle()
    (op,) = flow_factors
    n_qp = ops.Q.dof_map[:, 1:].size
    assert op.n == ops.V.total_dofs - n_qp == 1408 and not op.pinned
    assert op.lu_nnz < 360_000


def test_saddle_oracle_factor_fill_32x16(flow_factors):
    """On the 32x16 torus at k = 2, the `stokes --compare-saddle` bench
    mesh, the oracle's one factor has order 5632 (of 7680 H(div) dofs) and
    about 2.03M LU entries (3.0M for the full penalized block)."""
    from surfhodge import flow, meshes

    ops = flow.FlowOperators(meshes.torus_structured(32, 16), flow.SimulationConfig(k=2))
    flow_factors.clear()
    ops.stokes_saddle()
    (op,) = flow_factors
    assert op.n == 5632 and op.lu_nnz <= 2_100_000


def test_saddle_oracle_factor_fill_unstructured(flow_factors, sphere4):
    """On the unstructured pierced sphere (2, 4) at k = 2 the oracle's factor
    holds about 0.33M LU entries with unrelaxed supernodes (the full
    penalized block: 0.50M, and 0.74M with SuperLU's default relax = 10)."""
    from surfhodge import flow

    ops = flow.FlowOperators(sphere4, flow.SimulationConfig(k=2))
    flow_factors.clear()
    ops.stokes_saddle()
    (op,) = flow_factors
    assert op.lu_nnz < 360_000


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
    """A Laplacian whose kernel is the constants, whatever its size and
    scale, is factored with its first dof pinned and solves with x_0 = 0.
    Scaled to D A D, whose kernel is not constant, or doubled into two
    disconnected blocks, whose kernel is larger, it is rejected."""
    A = sp.csc_matrix(scale * SINGULAR_SPD[name]())
    n = A.shape[0]
    op = FactorizedOperator(A)
    assert op.pinned
    b = rng.standard_normal(n)
    b -= b.mean()
    x = op.solve(b)
    assert x[0] == 0.0
    assert np.abs(A @ x - b).max() <= 1e-10 * np.abs(b).max()
    x = zero_mean(x, np.ones(n))
    assert abs(x.sum()) <= 1e-10 * np.abs(x).max() * n
    D = sp.diags(1.0 + rng.random(n))
    for bad in (D @ A @ D, sp.block_diag([A, A])):
        with pytest.raises(SingularMatrix):
            FactorizedOperator(bad)


def test_saddle_factor_peak_memory(monkeypatch):
    """Building the saddle-point oracle's factor, of its penalized block on
    the kernel of B[qp], allocates far less than its LU (12 bytes per
    entry) under tracemalloc: no copy of U is made.  SuperLU's own
    allocations are not traced; the guard is on the Python-side arrays
    around it."""
    import tracemalloc

    from surfhodge import flow, meshes

    peaks = []

    class Traced(flow.FactorizedOperator):
        def __init__(self, A):
            tracemalloc.start()
            try:
                super().__init__(A)
                peaks.append((self, tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()

    ops = flow.FlowOperators(meshes.torus_structured(16, 8), flow.SimulationConfig(k=2))
    monkeypatch.setattr(flow, "FactorizedOperator", Traced)
    ops.stokes_saddle()
    ((op, peak),) = peaks
    assert peak < 12 * op.lu_nnz / 4


def _traced_factor(A):
    """FactorizedOperator(A) and the peak of its constructor's allocations
    under tracemalloc."""
    import tracemalloc

    tracemalloc.start()
    try:
        return FactorizedOperator(A), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_unsorted_input_factored_as_its_sorted_copy(monkeypatch):
    """A csc matrix whose indices are unsorted, the order a sum of sparse
    products leaves, is sorted in place before it is checked and factored:
    the 16x8 oracle block with each column's entries shuffled solves bit for
    bit as the sorted block, and its constructor peaks within 10% of the
    sorted block's (0.79 MB each; 2.38 MB while the unsorted block took
    check_symmetric's A - A' path)."""
    from surfhodge import flow, meshes

    blocks = []

    class Kept(flow.FactorizedOperator):
        def __init__(self, A):
            super().__init__(A)
            blocks.append(A)

    ops = flow.FlowOperators(meshes.torus_structured(16, 8), flow.SimulationConfig(k=2))
    monkeypatch.setattr(flow, "FactorizedOperator", Kept)
    ops.stokes_saddle()
    (K,) = blocks
    assert K.format == "csc" and K.has_canonical_format
    rng = np.random.default_rng(5)
    order = np.concatenate([start + rng.permutation(stop - start)
                            for start, stop in zip(K.indptr[:-1], K.indptr[1:])])
    shuffled = sp.csc_matrix((K.data[order], K.indices[order], K.indptr.copy()), shape=K.shape)
    assert not shuffled.has_sorted_indices
    sorted_op, sorted_peak = _traced_factor(K)
    shuffled_op, shuffled_peak = _traced_factor(shuffled)
    assert shuffled.has_canonical_format  # sorted in place, its values kept
    assert np.array_equal(shuffled.indices, K.indices) and np.array_equal(shuffled.data, K.data)
    b = rng.standard_normal(K.shape[0])
    assert np.array_equal(shuffled_op.solve(b), sorted_op.solve(b))
    assert shuffled_peak <= 1.10 * sorted_peak, (shuffled_peak, sorted_peak)


def test_duplicate_entries_summed_in_place():
    """A csc matrix with a duplicate entry is factored as the matrix of its
    sums, and is left canonical."""
    A = sp.csc_matrix((np.array([2.0, 1.0, 1.0, 1.0, 3.0]), np.array([0, 1, 0, 1, 1]),
                       np.array([0, 2, 5])), shape=(2, 2))  # A[1, 1] = 1 + 3
    b = np.array([1.0, 2.0])
    x = FactorizedOperator(A).solve(b)
    assert A.has_canonical_format and A.nnz == 4
    assert np.allclose(np.array([[2.0, 1.0], [1.0, 4.0]]) @ x, b, rtol=0, atol=1e-14)


def test_superlu_out_of_memory_is_a_solver_failure(monkeypatch):
    """SuperLU's MemoryError becomes a SolverFailure (CLI exit 4) that names
    the order and entries of the matrix it was factoring."""
    from surfhodge import linalg

    def splu(F, **kwargs):
        raise MemoryError("Not enough memory to perform factorization.")

    monkeypatch.setattr(linalg.spla, "splu", splu)
    A = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(5, 5), format="csc")
    with pytest.raises(SolverFailure, match="out of memory factoring a matrix of order 5 "
                                            "with 13 entries"):
        FactorizedOperator(A)

"""Sparse direct factorization of SPD matrices with an optional pinned gauge.

Desk-scale problems (<= ~1e5 dofs) are handled by scipy's SuperLU
factorization; no iterative solvers.  Every factored operator is SPD
(streamfunction forms, mass matrices, the mean-mode Laplacian of the
pressure Poisson solve, the augmented viscous block of the saddle-point
oracle), and
FactorizedOperator is the one factorization class, with one ordering and
pivoting policy for every factor.  A zero-mean (or other) gauge constraint
on an operator with a one-dimensional kernel is imposed by pinning the
first dof and projecting along the kernel, so a gauged block keeps a
symmetric factorization.  FactorizedOperator is also the one place that
decides singularity, by one test on every factor: the factor yields a
near-null vector z of A (the kernel vector under a gauge, A^-1 r for a fixed
random r otherwise), and A counts as singular when |A z| <= 1e-10 |A| |z|
(infinity norms).  Every FactorizedOperator counts its solves (one per
right-hand side), which the Schur-complement instrumentation relies on.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NotSPD, SingularMatrix

# One SuperLU policy for every factor: a symmetric minimum-degree ordering
# and static diagonal pivots (on SPD blocks 4-5x less fill than a column
# ordering with partial pivoting), with unrelaxed supernodes.  The default
# relax = 10 merges small elimination subtrees into dense column blocks
# whose union pattern fills their ancestors: on unstructured meshes relax = 1
# stores 18-72% fewer LU entries (structured tori: within 1.5%); relax >= 4
# brings most of the fill back.  panel_size stays at its default: panel sizes
# of 30-40 made scipy 1.17's splu corrupt the heap and abort or segfault,
# even with relax = 1.
_SPLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0, "relax": 1,
                 "options": {"SymmetricMode": True}}

# Singularity test: z is a near-null vector of A when |A z| <= tol |A| |z|,
# and c fixes a kernel z when |c' z| > tol |c|_1 |z| (other norms: infinity
# norms).  Measured |A z| / (|A| |z|): ungauged singular blocks <= 5e-15 and
# gauged kernels <= 7e-14 (tori up to 96x48, k <= 2), accepted ungauged
# factors >= 1e-5 (all factors of the test suite).
_KERNEL_TOL = 1e-10


class FactorizedOperator:
    """Reusable LU factorization of a sparse SPD matrix A, optionally gauged
    by one linear constraint c' x = 0 (gauge = c, a vector); with a gauge, A
    is positive definite on the gauge's null space.  NotSPD is raised unless
    A is symmetric with a positive diagonal; that is necessary for SPD, not
    sufficient: an indefinite [[1, 2], [2, 1]] factors without NotSPD.

    With a gauge, A must have a one-dimensional kernel z with z_0 != 0.
    A is factorized without its first row and column, z is computed once
    from that factor (z_0 = 1), and solve(b) returns the solution of the
    bordered system [[A, c], [c', 0]] [x; l] = [b; 0]: it removes the
    component of b outside the range of A, solves with x_0 = 0 and adds the
    multiple of z that makes c' x = 0.  Without a gauge, z = A^-1 r
    must not be near-null.  SingularMatrix is raised when the test fails and
    for non-finite entries of A.

    solve() accepts a vector or a matrix of right-hand-side columns and
    increments solve_count by the number of columns; concurrent solves from
    several threads are allowed.  n is the order of A and lu_nnz the number
    of entries stored in its L and U factors (0 for an empty A).
    """

    def __init__(self, A: sp.spmatrix, gauge: np.ndarray | None = None):
        A = sp.csc_matrix(A)
        n, m = A.shape
        if n != m:
            raise SingularMatrix("factorization requires a square matrix")
        if not np.isfinite(A.data).all():
            raise SingularMatrix("matrix has non-finite entries")
        self.n = n
        self.gauge = None if gauge is None else np.asarray(gauge, dtype=float)
        self.solve_count = 0
        self._count_lock = threading.Lock()
        self.lu_nnz = 0
        if n == 0:  # empty systems occur e.g. for trace-constrained spaces
            self._lu = None
            return
        if (A.diagonal() <= 0).any():
            raise NotSPD("nonpositive diagonal entry in a matrix declared SPD")
        check_symmetric(A, "matrix declared SPD")
        try:
            self._lu = spla.splu(A if self.gauge is None else A[1:, 1:], **_SPLU_OPTIONS)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularMatrix(str(exc)) from exc
        self.lu_nnz = self._lu.nnz
        # the factor's own near-null vector z (its solve is not counted)
        if self.gauge is None:
            z = self._lu.solve(np.random.default_rng(0).standard_normal(n))
            if _is_near_null(A, z):
                raise SingularMatrix("matrix is numerically singular")
            return
        z = np.empty(n)
        z[0] = 1.0
        z[1:] = -self._lu.solve(A[1:, 0].toarray().ravel())
        if not _is_near_null(A, z):
            raise SingularMatrix("gauge constraint given for an operator "
                                 "without a kernel")
        c = self.gauge
        cz = float(c @ z)
        # a non-finite z (pinned block singular: the kernel is larger or
        # z_0 = 0) fails this comparison too
        if not abs(cz) > _KERNEL_TOL * np.abs(c).sum() * np.abs(z).max():
            raise SingularMatrix("gauge constraint does not fix the kernel")
        self._z, self._cz = z, cz

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        with self._count_lock:
            self.solve_count += 1 if b.ndim == 1 else b.shape[1]
        if self.n == 0:
            return np.zeros_like(b)
        if self.gauge is None:
            return self._lu.solve(b)
        z, c = self._z, self.gauge
        # A is symmetric, so z spans its left kernel: drop c's share of b
        # along it, which is what the bordered system's multiplier absorbs
        b = b - np.multiply.outer(c, _dots(z, b) / self._cz)
        x = np.zeros_like(b)
        x[1:] = self._lu.solve(b[1:])
        return x - np.multiply.outer(z, _dots(c, x) / self._cz)


def _dots(v: np.ndarray, X: np.ndarray):
    """v' X by one 1-D dot product per column of X, each on a contiguous
    copy, so that a column's result does not depend on the columns solved
    with it (SuperLU's solve is column-independent, a matrix-vector product
    is not)."""
    if X.ndim == 1:
        return v @ np.ascontiguousarray(X)
    return np.array([v @ np.ascontiguousarray(x) for x in X.T])


def check_symmetric(A: sp.spmatrix, what: str) -> None:
    """Raise NotSPD unless |A - A'| <= 1e-12 |A| (largest entries).  For a
    canonical csr or csc A with a symmetric pattern this costs one copy, A'
    in A's format, whose data becomes the difference."""
    T = A.T.asformat(A.format)
    if (A.format in ("csr", "csc") and A.has_canonical_format
            and np.array_equal(A.indptr, T.indptr) and np.array_equal(A.indices, T.indices)):
        T.data -= A.data
        D = T.data
    else:
        D = (A - T).data
    if D.size and np.abs(D, out=D).max() > 1e-12 * max(A.data.max(), -A.data.min()):
        raise NotSPD(f"{what} is not symmetric")


def _abs(A: sp.csc_matrix) -> sp.csc_matrix:  # |A|, sharing A's index arrays
    return sp.csc_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)


def _is_near_null(A: sp.csc_matrix, z: np.ndarray) -> bool:
    """|A z| <= _KERNEL_TOL |A| |z| in infinity norms; a non-finite z, which
    only a singular factor produces, counts as null."""
    if not np.isfinite(z).all():
        return True
    A_norm = (_abs(A) @ np.ones(A.shape[1])).max()
    return bool(np.abs(A @ z).max() <= _KERNEL_TOL * A_norm * np.abs(z).max())

"""Sparse direct factorization of SPD matrices, or of SPD matrices up to
a kernel of constants.

Desk-scale problems (<= ~1e5 dofs) are handled by scipy's SuperLU
factorization; no iterative solvers.  Every factored operator is SPD (mass
matrices, the saddle-point oracle's augmented block) or has the constants
as its kernel (the streamfunction forms and step block on a closed
surface, the mean-mode and Crouzeix-Raviart Laplacians).
FactorizedOperator is the one factorization class, with one ordering and
pivoting policy for every factor; it finds a constants kernel itself and
pins the first dof, and zero_mean shifts a pinned solution to zero mean.
It is also the one place that decides singularity, by one near-null test
on every factor, and every factor solves with SuperLU's plain sweeps, which
take a block of right-hand sides in one pass.  Every
FactorizedOperator counts its solves (one per right-hand side), which the
Schur-complement instrumentation relies on.  SuperLU running out of
memory is a SolverFailure, like every other failure to factor.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NotSPD, SingularMatrix, SolverFailure

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

# Kernel tests, in infinity norms: A has the constants as a kernel when
# |A 1| <= tol |A|, and a factor F of A is singular when z = F^-1 r is
# near-null, |F z| <= tol |A| |z|.  Measured over every factor of the test
# suite: |A 1| / |A| <= 4.8e-15 for the constants-kernel blocks and >= 0.033
# for the others; |F z| / (|A| |z|) <= 6e-15 for singular blocks and
# >= 3e-8 for accepted ones.  The pinned Stokes block's ratio falls with
# the mesh (k = 2 torus: 1.2e-7 at 32x16, 1.3e-8 at 64x32).
_KERNEL_TOL = 1e-10


try:  # the C library's malloc_trim (glibc); None where it has none (macOS, musl, Windows)
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None


def _release_free_heap() -> None:
    """Hand the C heap's free pages back to the OS, with malloc_trim(0),
    which also releases free pages inside the heap, not only at its top.
    glibc keeps what numpy and scipy free resident, and a large factor
    built after a long set-up is allocated beside those pages, not on them.
    Later allocations fault released pages back in, which costs time, so
    this is called only before a factor that nothing after it reuses the
    pages for.  Does nothing where the C library has no malloc_trim."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class FactorizedOperator:
    """Reusable LU factorization of a sparse SPD matrix A, or of one that is
    SPD up to a kernel of constants.  NotSPD is raised unless A is symmetric
    with a positive diagonal; that is necessary for SPD, not sufficient: an
    indefinite [[1, 2], [2, 1]] factors without NotSPD.

    When |A 1| <= 1e-10 |A| (infinity norms) A is factorized without its
    first row and column, pinned is True, and solve(b) returns the solution
    with x_0 = 0 of A x = b for 1'b = 0.  SingularMatrix is raised when
    z = F^-1 r, F the matrix factored and r a fixed random vector, is
    near-null, |F z| <= 1e-10 |A| |z| (so a kernel larger than the
    constants is rejected), and for non-finite entries of A.

    A csc A, and a csr A that is exactly symmetric (its arrays read as csc
    are A' = A), is factored from its own arrays, or when pinned from one
    copy without its first row and column; another csr A is converted once,
    and any other input is converted to csc.  A csr or csc A that is not
    canonical (unsorted indices or duplicate entries, as a sum of sparse
    products leaves it) is made canonical in place by A.sum_duplicates(),
    which changes the caller's matrix in its layout, not in its values; the
    symmetry check then costs one copy, A', which is released before
    SuperLU runs.  Every factor is solved with SuperLU's plain sweeps,
    A x = b, which take a block of columns in one supernodal pass (its
    transposed sweeps take one column at a time) with dense block kernels,
    so a column of a block agrees with its solve alone to rounding, not
    always bitwise.

    solve() accepts a vector or a matrix of right-hand-side columns and
    increments solve_count by the number of columns; concurrent solves from
    several threads are allowed.  n is the order of A and lu_nnz the number
    of entries stored in its L and U factors (0 for an empty A).  When
    SuperLU runs out of memory, SolverFailure names the order and entries
    of the matrix it was factoring.
    """

    def __init__(self, A: sp.spmatrix):
        if not (sp.issparse(A) and A.format in ("csr", "csc")):
            A = sp.csc_matrix(A)
        if not A.has_canonical_format:
            A.sum_duplicates()  # in place; also sorts the indices
        n, m = A.shape
        if n != m:
            raise SingularMatrix("factorization requires a square matrix")
        if not np.isfinite(A.data).all():
            raise SingularMatrix("matrix has non-finite entries")
        self.n = n
        self._pinned = False
        self.solve_count = 0
        self._count_lock = threading.Lock()
        self.lu_nnz = 0
        if n == 0:  # empty systems occur e.g. for trace-constrained spaces
            self._lu = None
            return
        if (A.diagonal() <= 0).any():
            raise NotSPD("nonpositive diagonal entry in a matrix declared SPD")
        exact = check_symmetric(A, "matrix declared SPD")
        if A.format == "csr":  # A' = A: A's arrays read as csc are A itself
            A = sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape) if exact else A.tocsc()
        A_norm = (_abs(A) @ np.ones(n)).max()  # |A|'s largest row sum
        self._pinned = _is_near_null(A, np.ones(n), A_norm)
        F = A[1:, 1:] if self._pinned else A
        del A  # a csc copy of A is not kept beside a pinned factor's copy
        try:
            self._lu = spla.splu(F, **_SPLU_OPTIONS)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularMatrix(str(exc)) from exc
        except MemoryError as exc:
            raise SolverFailure(f"out of memory factoring a matrix of order {F.shape[0]} "
                                f"with {F.nnz} entries") from exc
        self.lu_nnz = self._lu.nnz
        # the factor's own near-null vector (its solve is not counted)
        if _is_near_null(F, self._lu.solve(np.random.default_rng(0).standard_normal(F.shape[0])),
                         A_norm):
            raise SingularMatrix("matrix is numerically singular")

    @property
    def pinned(self) -> bool:
        """True when A's kernel is the constants and its first dof is pinned."""
        return self._pinned

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        with self._count_lock:
            self.solve_count += 1 if b.ndim == 1 else b.shape[1]
        if self.n == 0:
            return np.zeros_like(b)
        if not self._pinned:
            return self._lu.solve(b)
        x = np.empty_like(b)
        x[0] = 0.0
        x[1:] = self._lu.solve(b[1:])
        return x


def zero_mean(x: np.ndarray, moment: np.ndarray | None) -> np.ndarray:
    """x minus the multiple of the ones vector, a pinned factor's kernel,
    that makes moment' x vanish, for a vector or each column of a matrix;
    x itself for moment None."""
    return x if moment is None else x - (moment @ x) / moment.sum()


def mnorm(x: np.ndarray, M: sp.spmatrix | None = None, Mx: np.ndarray | None = None) -> float:
    """sqrt(x' M x), or |x| for M None, formed on x scaled by the power of 2
    of its largest entry.  That scaling is exact, so the bits are those of
    the unscaled form wherever it is finite, and the norm overflows only
    when it is itself beyond the float range.  Mx, a finite M x the caller
    already holds, is scaled in place of a product M y: the same bits,
    unless scaling pushes entries into the subnormal range."""
    _, e = np.frexp(np.abs(x).max(initial=0.0))
    y = np.ldexp(x, -e)
    if M is None:
        My = y
    else:
        My = M @ y if Mx is None else np.ldexp(Mx, -e)
    return float(np.ldexp(np.sqrt(max(y @ My, 0.0)), e))


def check_symmetric(A: sp.spmatrix, what: str) -> bool:
    """Raise NotSPD unless |A - A'| <= 1e-12 |A| (largest entries); True
    when A is canonical csr or csc and exactly symmetric, A' = A.  A
    canonical A with a symmetric pattern costs one copy, A' in A's format,
    whose data becomes the difference."""
    T = A.T.asformat(A.format)
    same = (A.format in ("csr", "csc") and A.has_canonical_format
            and np.array_equal(A.indptr, T.indptr) and np.array_equal(A.indices, T.indices))
    if same:
        T.data -= A.data
        D = T.data
    else:
        D = (A - T).data
    if D.size and np.abs(D, out=D).max() > 1e-12 * max(A.data.max(), -A.data.min()):
        raise NotSPD(f"{what} is not symmetric")
    return same and not D.any()


def _abs(A: sp.csc_matrix) -> sp.csc_matrix:  # |A|, sharing A's index arrays
    return sp.csc_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)


def _is_near_null(F: sp.csc_matrix, z: np.ndarray, A_norm: float) -> bool:
    """|F z| <= _KERNEL_TOL A_norm |z| in infinity norms; a non-finite z,
    which only a singular factor produces, counts as null."""
    if not np.isfinite(z).all():
        return True
    return bool(np.abs(F @ z).max() <= _KERNEL_TOL * A_norm * np.abs(z).max())

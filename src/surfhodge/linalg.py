"""Sparse direct factorization of SPD matrices, or of SPD matrices up to
a kernel of constants.

Desk-scale problems (<= ~1e5 dofs) are handled by direct factorizations;
no iterative solvers.  Every factored operator is SPD (mass matrices, the
saddle-point oracle's augmented block) or has the constants as its kernel
(the streamfunction forms and step block on a closed surface, the
mean-mode and Crouzeix-Raviart Laplacians).  FactorizedOperator is the one
factorization class; it finds a constants kernel itself and pins the first
dof, and zero_mean shifts a pinned solution to zero mean.  It has two
backends, picked from the matrix and by no option: a small block whose
reverse Cuthill-McKee band is narrow, and which is symmetric to a few ulps,
is factored by LAPACK's banded Cholesky (dpbtrf, dpbtrs); every other
block by scipy's SuperLU with one ordering and pivoting policy, solved
with its plain sweeps, which take a block of right-hand sides in one pass.
Both backends factor, pin and solve through one path.  It is also the one
place that decides singularity, by one near-null test on every factor,
and a band factor that breaks down is its definiteness verdict: such a
block is refused as singular or else as not positive definite.  Every
FactorizedOperator counts its solves (one per right-hand side), which the
Schur-complement instrumentation relies on.  Running out of memory while
factoring is a SolverFailure, like every other failure to factor.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

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

# The band backend: a block of order <= _BAND_MAX_ORDER whose band storage
# (bw + 1) n under a reverse Cuthill-McKee ordering is at most
# _BAND_MAX_RATIO times its stored entries is factored by dpbtrf.  Measured
# with one BLAS thread: the trefoil tube's (24, 8) Stokes and step blocks at
# k = 1 (n = 767, bw = 177, ratio 5.6) store 136,526 band entries against
# SuperLU's 113,440 and solve in 53 us against 124; the 32x16 torus's A_ss
# at k = 2 (bw = 822, ratio 14.0) would store 3.79M against 1.57M and solve
# in 2.3 ms against 1.3.  Blocks left to SuperLU: the trefoil's L0 (ratio
# 6.8) and L (8.7), the 32x16 torus's L0 (12.8), L (25.6) and oracle block
# (12.5), the 16x8 torus's oracle block (6.45) and the pierced sphere
# (3, 4)'s L0 (11.5) and L (30.8) at k = 3.  The order gate keeps the RCM
# test off desk-scale blocks, which it would only reject: run on every
# factor, it moved `stokes --compare-saddle` on the 32x16 torus by +5.3% in
# solve time and +0.6% in peak memory (within noise over 6 pairs; +7.9% and
# +5.5% with an extra copy of each block).
_BAND_MAX_ORDER = 2048
_BAND_MAX_RATIO = 6.0
# A band factor solves the system of A's upper triangle, not A x = b, so it
# takes only a block whose asymmetry |A - A'| is within a few ulps of |A|
# (largest entries; the trefoil blocks: 1.4e-16 and 2.3e-16).
_BAND_MAX_ASYMMETRY = 4 * np.finfo(float).eps

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
    """Reusable factorization of a sparse SPD matrix A, or of one that is
    SPD up to a kernel of constants.  NotSPD is raised unless A is symmetric
    with a positive diagonal, and when the band factor (below) breaks down
    on a block that SuperLU then factors and finds not singular, as on the
    indefinite [[1, 2], [2, 1]].  A block left to SuperLU from the start is
    not tested for definiteness: an indefinite one factors without NotSPD.

    When |A 1| <= 1e-10 |A| (infinity norms) A is factorized without its
    first row and column, pinned is True, and solve(b) returns the solution
    with x_0 = 0 of A x = b for 1'b = 0.  SingularMatrix is raised when
    z = F^-1 r, F the matrix factored and r a fixed random vector, is
    near-null, |F z| <= 1e-10 |A| |z| (so a kernel larger than the
    constants is rejected), and for non-finite entries of A.

    Two backends, picked from F: banded is True when F has order <= 2048,
    is symmetric to a few ulps (|A - A'| <= 4 eps |A|, largest entries) and
    has a reverse Cuthill-McKee band bw with (bw + 1) n at most 6 times its
    stored entries.  Such an F is factored by LAPACK's banded Cholesky,
    dpbtrf, from its upper triangle, and solved by dpbtrs column by column,
    so a column of a block has the bits of its solve alone.  Every other F,
    and an F whose band factor breaks down (to tell singular from not
    positive definite), is factored by SuperLU, with static diagonal
    pivots, and solved with its plain sweeps, A x = b, which take a block
    of columns in one supernodal pass (its transposed sweeps take one
    column at a time) with dense block kernels, so a column of a block
    agrees with its solve alone to rounding, not always bitwise.  Either
    factor keeps the rows of F in A, under the band's ordering for a band,
    and solve(b), like the near-null test, solves b restricted to them and
    returns x_0 = 0 in a pinned row.

    A csc A, and a csr A that is exactly symmetric (its arrays read as csc
    are A' = A), is factored from its own arrays, or when pinned from one
    copy without its first row and column; another csr A is converted once,
    and any other input is converted to csc.  A csr or csc A that is not
    canonical (unsorted indices or duplicate entries, as a sum of sparse
    products leaves it) is made canonical in place by A.sum_duplicates(),
    which changes the caller's matrix in its layout, not in its values; the
    symmetry check then costs one copy, A', which is released before F is
    factored.

    solve() accepts a vector or a matrix of right-hand-side columns and
    increments solve_count by the number of columns; concurrent solves from
    several threads are allowed.  n is the order of A and lu_nnz the number
    of entries stored in its factor: (bw + 1) n for a band, those of L and
    U for SuperLU (0 for an empty A).  When either backend runs out of
    memory, SolverFailure names the order and entries of the matrix it was
    factoring.
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
        self._lu = self._band = None
        if n == 0:  # empty systems occur e.g. for trace-constrained spaces
            return
        if (A.diagonal() <= 0).any():
            raise NotSPD("nonpositive diagonal entry in a matrix declared SPD")
        exact, asymmetry = _symmetry(A, "matrix declared SPD")
        if A.format == "csr":  # A' = A: A's arrays read as csc are A itself
            A = sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape) if exact else A.tocsc()
        A_norm = (_abs(A) @ np.ones(n)).max()  # |A|'s largest row sum
        self._pinned = _is_near_null(A, np.ones(n), A_norm)
        p = int(self._pinned)  # the rows the factor keeps start at p
        F = A[1:, 1:] if p else A
        del A  # a csc copy of A is not kept beside a pinned factor's copy
        try:
            band = (_band_cholesky(F) if F.shape[0] <= _BAND_MAX_ORDER
                    and asymmetry <= _BAND_MAX_ASYMMETRY else "not tried")
            if isinstance(band, tuple):  # the pinned dof folded into the permutation
                self._band, self._rows, self.lu_nnz = band[0], band[1] + p, band[0].size
            else:
                self._lu = spla.splu(F, **_SPLU_OPTIONS)
                self._rows, self.lu_nnz = slice(p, n), self._lu.nnz
        except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
            raise SingularMatrix(str(exc)) from exc
        except MemoryError as exc:
            raise _out_of_memory(F) from exc
        # the factor's own near-null vector (its solve is not counted)
        r = np.zeros(n)
        r[p:] = np.random.default_rng(0).standard_normal(n - p)
        if _is_near_null(F, self._solve(r)[p:], A_norm):
            raise SingularMatrix("matrix is numerically singular")
        if band == "broke down":
            raise NotSPD("matrix declared SPD is not positive definite")

    @property
    def pinned(self) -> bool:
        """True when A's kernel is the constants and its first dof is pinned."""
        return self._pinned

    @property
    def banded(self) -> bool:
        """True when F is factored by the banded Cholesky, not SuperLU."""
        return self._band is not None

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        with self._count_lock:
            self.solve_count += 1 if b.ndim == 1 else b.shape[1]
        return self._solve(b) if self.n else np.zeros_like(b)

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """x with x[rows] the factor's solve of b[rows], for the rows the
        factor keeps, and a pinned x_0 = 0."""
        x = np.empty_like(b)
        if self._pinned:
            x[0] = 0.0
        if self._band is not None:
            x[self._rows] = lapack.dpbtrs(self._band, b[self._rows], overwrite_b=True)[0]
        else:
            x[self._rows] = self._lu.solve(b[self._rows])
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
    return _symmetry(A, what)[0]


def _symmetry(A: sp.spmatrix, what: str) -> tuple[bool, float]:
    """check_symmetric's test: whether A is exactly symmetric, and its
    asymmetry |A - A'| / |A| (largest entries)."""
    T = A.T.asformat(A.format)
    same = (A.format in ("csr", "csc") and A.has_canonical_format
            and np.array_equal(A.indptr, T.indptr) and np.array_equal(A.indices, T.indices))
    if same:
        T.data -= A.data
        D = T.data
    else:
        D = (A - T).data
    asymmetry = np.abs(D, out=D).max() / max(A.data.max(), -A.data.min()) if D.size else 0.0
    if asymmetry > 1e-12:
        raise NotSPD(f"{what} is not symmetric")
    return same and not D.any(), float(asymmetry)


def _out_of_memory(F: sp.spmatrix) -> SolverFailure:
    return SolverFailure(f"out of memory factoring a matrix of order {F.shape[0]} "
                         f"with {F.nnz} entries")


def _band_cholesky(F: sp.csc_matrix) -> tuple[np.ndarray, np.ndarray] | str:
    """The banded Cholesky factor of F under a reverse Cuthill-McKee
    ordering perm, read from F's upper triangle, and perm; "too wide" when
    the band stores more than _BAND_MAX_RATIO times F's entries, and
    "broke down" when dpbtrf does (F is not positive definite)."""
    n = F.shape[0]
    perm = reverse_cuthill_mckee(F, symmetric_mode=True)
    at = np.empty_like(perm)
    at[perm] = np.arange(n, dtype=perm.dtype)  # the position of each dof in perm
    rows, cols = at[F.indices], np.repeat(at, np.diff(F.indptr))
    upper = rows <= cols
    rows, cols = rows[upper], cols[upper]
    bw = int((cols - rows).max())
    if (bw + 1) * n > _BAND_MAX_RATIO * F.nnz:
        return "too wide"
    ab = np.zeros((bw + 1, n), order="F")  # LAPACK's upper band storage
    ab[bw + rows - cols, cols] = F.data[upper]
    c, info = lapack.dpbtrf(ab, overwrite_ab=True)
    return "broke down" if info else (c, perm)


def _abs(A: sp.csc_matrix) -> sp.csc_matrix:  # |A|, sharing A's index arrays
    return sp.csc_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)


def _is_near_null(F: sp.csc_matrix, z: np.ndarray, A_norm: float) -> bool:
    """|F z| <= _KERNEL_TOL A_norm |z| in infinity norms; a non-finite z,
    which only a singular factor produces, counts as null."""
    if not np.isfinite(z).all():
        return True
    return bool(np.abs(F @ z).max() <= _KERNEL_TOL * A_norm * np.abs(z).max())

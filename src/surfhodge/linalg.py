"""Sparse direct factorization with an optional pinned gauge.

Desk-scale problems (<= ~1e5 dofs) are handled by scipy's SuperLU
factorization; no iterative solvers.  Every operator of the solvers is SPD
(streamfunction forms, mass matrices, the pressure Poisson operator B B');
the symmetric-indefinite kind serves only the velocity-pressure saddle-point
oracle.  FactorizedOperator is the one factorization class, with one
ordering and pivoting policy for every factor (an indefinite matrix is
factorized with its zero diagonal shifted, and each solve refined against
it).  A zero-mean (or other) gauge constraint on a symmetric operator with a
one-dimensional kernel is imposed by pinning the first dof and projecting
along the kernel, so a gauged block keeps a symmetric factorization.
FactorizedOperator is also the one place that decides singularity, by one
test on every factor: the factor yields a near-null vector z of A (the
kernel vector under a gauge, A^-1 r for a fixed random r otherwise), and A
counts as singular when |A z| <= 1e-10 |A| |z| (infinity norms).  Every
FactorizedOperator counts its solves (one per right-hand side), which the
Schur-complement instrumentation relies on.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NotSPD, SingularMatrix

# One SuperLU policy for every factor: a symmetric minimum-degree ordering
# and static diagonal pivots (on SPD blocks 4-5x less fill than a column
# ordering with partial pivoting).  An indefinite A (the oracle's zero
# pressure block) has each zero diagonal entry i set to -_SHIFT / d_i^2, d
# its symmetric Ruiz equilibration, so in scaled dofs it reads [[H, G'], [G,
# -_SHIFT I]]: quasi-definite, stably factored in any symmetric ordering
# (Vanderbei 1995).  Refinement against A removes the shift, as for static
# pivots in SuperLU_DIST (Li & Demmel 2003).  _SHIFT ~ sqrt(eps) balances
# refinement's contraction (~_SHIFT / least scaled Schur eigenvalue) against
# rounding amplified by pivots of size _SHIFT (~eps / _SHIFT).  Ruiz passes:
# at mu = 1e6 one left refinement unconverged, 2-3 reached rounding.
_SPLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                 "options": {"SymmetricMode": True}}
_SHIFT = 1e-8
_RUIZ_PASSES = 3
# A refined solve is accepted when |D r| <= _REFINE_TOL |D A D| |D^-1 x|
# (infinity norms over all columns; r = b - A x): 1e4 times the ~1e-16 that
# refinement reaches in 3-5 steps on the oracle for mu from 1e-3 to 1e6.
_REFINE_TOL = 1e-12

# Singularity test: z is a near-null vector of A when |A z| <= tol |A| |z|,
# and c fixes a kernel z when |c' z| > tol |c|_1 |z| (other norms: infinity
# norms).  Measured |A z| / (|A| |z|): ungauged singular blocks <= 5e-15 and
# gauged kernels <= 7e-14 (tori up to 96x48, k <= 2), accepted ungauged
# factors >= 1e-5 (all factors of the test suite).
_KERNEL_TOL = 1e-10


class FactorizedOperator:
    """Reusable LU factorization of a sparse symmetric matrix A, optionally
    gauged by one linear constraint c' x = 0 (gauge = c, a vector).

    kind describes A itself: "SPD" (with a gauge: positive definite on the
    gauge's null space) checks that A is symmetric with a positive diagonal.
    "symmetric-indefinite" factorizes A with its zero diagonal shifted (see
    _SPLU_OPTIONS); each solve is refined against A and raises SingularMatrix
    unless it converges, also where A is too ill-conditioned (~1e9) for the
    shift to be refined away, so no unconverged vector is returned.

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
    several threads are allowed.
    """

    def __init__(self, A: sp.spmatrix, gauge: np.ndarray | None = None,
                 kind: str = "symmetric-indefinite"):
        A = sp.csc_matrix(A)
        n, m = A.shape
        if n != m:
            raise SingularMatrix("factorization requires a square matrix")
        if kind not in ("SPD", "symmetric-indefinite"):
            raise ValueError(f"unknown factorization kind {kind!r}")
        if not np.isfinite(A.data).all():
            raise SingularMatrix("matrix has non-finite entries")
        self.kind = kind
        self.n = n
        self.gauge = None if gauge is None else np.asarray(gauge, dtype=float)
        self.solve_count = 0
        self._count_lock = threading.Lock()
        if n == 0:  # empty systems occur e.g. for trace-constrained spaces
            self._lu = None
            return
        if kind == "SPD":
            d = A.diagonal()
            if (d <= 0).any():
                raise NotSPD("nonpositive diagonal entry under SPD kind")
            check_symmetric(A, "matrix declared SPD")
        pinned = A if self.gauge is None else A[1:, 1:]
        if kind != "SPD":  # refinement needs A and d, not a scaled copy of A
            self._A, (self._d, self._A_norm) = pinned, _equilibrate(pinned)
            shift = sp.diags(np.where(pinned.diagonal() == 0, _SHIFT / self._d**2, 0))
        try:  # the shifted copy lives only while SuperLU factorizes it
            self._lu = spla.splu(pinned if kind == "SPD" else (pinned - shift).tocsc(),
                                 **_SPLU_OPTIONS)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularMatrix(str(exc)) from exc
        self._solve = self._lu.solve if kind == "SPD" else self._refined_solve
        # the factor's own near-null vector z (its solve is not counted)
        if self.gauge is None:
            z = self._solve(np.random.default_rng(0).standard_normal(n))
            if _is_near_null(A, z):
                raise SingularMatrix("matrix is numerically singular")
            return
        z = np.empty(n)
        z[0] = 1.0
        z[1:] = -self._solve(A[1:, 0].toarray().ravel())
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
            return self._solve(b)
        z, c = self._z, self.gauge
        # A is symmetric, so z spans its left kernel: drop c's share of b
        # along it, which is what the bordered system's multiplier absorbs
        b = b - np.multiply.outer(c, (z @ b) / self._cz)
        x = np.zeros_like(b)
        x[1:] = self._solve(b[1:])
        return x - np.multiply.outer(z, (c @ x) / self._cz)

    def _refined_solve(self, b: np.ndarray) -> np.ndarray:
        """The shifted factor's solve, refined against A (uncounted) while
        |D r| halves; SingularMatrix unless it ends within _REFINE_TOL."""
        d = self._d if b.ndim == 1 else self._d[:, None]
        x = self._lu.solve(b)
        rn, last = np.abs(d * (r := b - self._A @ x)).max(), np.inf
        while 0 < rn <= 0.5 * last:
            x1 = x + self._lu.solve(r)
            r1 = b - self._A @ x1
            if not (rn1 := np.abs(d * r1).max()) < rn:
                break
            x, r, rn, last = x1, r1, rn1, rn
        if not rn <= _REFINE_TOL * self._A_norm * np.abs(x / d).max():
            raise SingularMatrix("iterative refinement did not converge")
        return x


def check_symmetric(A: sp.spmatrix, what: str) -> None:
    """Raise NotSPD unless |A - A'| <= 1e-12 |A| (largest entries)."""
    D = A - A.T
    if D.nnz and abs(D).max() > 1e-12 * abs(A).max():
        raise NotSPD(f"{what} is not symmetric")


def _abs(A: sp.csc_matrix) -> sp.csc_matrix:  # |A|, sharing A's index arrays
    return sp.csc_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)


def _equilibrate(A: sp.csc_matrix):
    """Symmetric Ruiz scaling d of A from _RUIZ_PASSES passes on the row
    1-norms of D |A| D, and the infinity norm |D A D|."""
    absA, d = _abs(A), np.ones(A.shape[0])
    for _ in range(_RUIZ_PASSES):
        s = d * (absA @ d)
        d /= np.sqrt(s, out=np.ones_like(s), where=s > 0)
    return d, float((d * (absA @ d)).max())


def _is_near_null(A: sp.csc_matrix, z: np.ndarray) -> bool:
    """|A z| <= _KERNEL_TOL |A| |z| in infinity norms; a non-finite z, which
    only a singular factor produces, counts as null."""
    if not np.isfinite(z).all():
        return True
    A_norm = (_abs(A) @ np.ones(A.shape[1])).max()
    return bool(np.abs(A @ z).max() <= _KERNEL_TOL * A_norm * np.abs(z).max())

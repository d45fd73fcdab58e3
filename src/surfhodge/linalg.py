"""Sparse direct factorization with optional bordered constraints.

Desk-scale problems (<= ~1e5 dofs) are handled by scipy's SuperLU
factorization for both SPD and symmetric-indefinite systems; no iterative
solvers.  FactorizedOperator is the one factorization class.  Zero-mean and
other gauge constraints enter as a bordered system (one extra row/column
per constraint) rather than by pinning dofs.  Every FactorizedOperator
counts its solves (one per right-hand side), which the Schur-complement
instrumentation relies on.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NotSPD, SingularMatrix


class FactorizedOperator:
    """Reusable LU factorization of a sparse square matrix A, optionally
    bordered by linear constraints c_i' x = 0.

    With constraints the factorized matrix is the symmetric bordered system
    [[A, C], [C', 0]], C = [c_1 ... c_m]; solve(b) pads b with zeros and
    returns the primal part, discarding the multipliers.  kind describes A
    itself: "SPD" (with constraints: positive definite on their null space)
    checks that A is symmetric with a positive diagonal.

    solve() accepts a vector or a matrix of right-hand-side columns and
    increments solve_count by the number of columns; concurrent solves from
    several threads are allowed.
    """

    def __init__(self, A: sp.spmatrix, constraints=(),
                 kind: str = "symmetric-indefinite"):
        A = sp.csc_matrix(A)
        n, m = A.shape
        if n != m:
            raise SingularMatrix("factorization requires a square matrix")
        if kind not in ("SPD", "symmetric-indefinite"):
            raise ValueError(f"unknown factorization kind {kind!r}")
        self.kind = kind
        self.n = n
        self.n_constraints = len(constraints)
        self.solve_count = 0
        self._count_lock = threading.Lock()
        if n == 0:  # empty systems occur e.g. for trace-constrained spaces
            self._lu = None
            self.pivot_ratio = 1.0
            return
        if kind == "SPD":
            d = A.diagonal()
            if (d <= 0).any():
                raise NotSPD("nonpositive diagonal entry under SPD kind")
            D = A - A.T
            sym_err = abs(D).max() if D.nnz else 0.0
            if sym_err > 1e-12 * max(abs(A).max(), 1e-300):
                raise NotSPD("matrix declared SPD is not symmetric")
        if self.n_constraints:
            C = sp.csc_matrix(np.column_stack(constraints))
            A = sp.bmat([[A, C], [C.T, None]], format="csc")
        try:
            self._lu = spla.splu(A)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularMatrix(str(exc)) from exc
        d = np.abs(self._lu.U.diagonal())
        if not np.isfinite(d).all():
            raise SingularMatrix("factorization produced non-finite pivots")
        self.pivot_ratio = float(d.min() / d.max())

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        with self._count_lock:
            self.solve_count += 1 if b.ndim == 1 else b.shape[1]
        if self.n == 0:
            return np.zeros_like(b)
        if not self.n_constraints:
            return self._lu.solve(b)
        pad = np.zeros((self.n_constraints,) + b.shape[1:])
        return self._lu.solve(np.concatenate([b, pad]))[: self.n]

"""Discrete Helmholtz-Hodge decomposition machinery.

The divergence-free subspace of the degree-k H(div) space splits
L2-orthogonally into rotated streamfunction gradients and a b1-dimensional
space of discrete harmonic fields.  This module computes that splitting:

* mixed Helmholtz projection onto the divergence-free subspace (and, as a
  byproduct, the discrete-gradient complement via the multiplier),
* randomized construction of an orthonormal harmonic basis,
* three-way decomposition of arbitrary H(div) fields,
* the lowest-order incomplete decomposition with the Crouzeix-Raviart
  space,
* executable dimension checks from the Euler characteristic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import assembly as asm
from .errors import (
    BasisMismatch,
    DisconnectedMesh,
    MaxAttemptsExceeded,
    WrongDegree,
)
from .fespace import FeField, build_space
from .linalg import FactorizedOperator
from .mesh import SurfaceMesh, TopologySummary, analyze_topology
from .quadrature import triangle_rule


@dataclass
class HarmonicBasis:
    """L2-orthonormal basis of the discrete harmonic space.

    vectors has shape (b1, n_dofs): each row holds the coefficients of one
    harmonic field in the degree-k H(div) space with zero normal trace.
    """

    k: int
    vectors: np.ndarray
    seed: int
    tol: float
    mesh_checksum: str
    n_attempts: int = 0
    gram_residual: float = 0.0

    @property
    def dimension(self) -> int:
        return self.vectors.shape[0]

    def save_json(self, path) -> None:
        payload = {
            "format": "surfhodge-harmonic-basis",
            "version": 1,
            "k": self.k,
            "seed": self.seed,
            "tol": self.tol,
            "b1": int(self.dimension),
            "n_dofs": int(self.vectors.shape[1]),
            "mesh_checksum": self.mesh_checksum,
            "n_attempts": self.n_attempts,
            "gram_residual": self.gram_residual,
            "vectors": self.vectors.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def load_json(cls, path) -> "HarmonicBasis":
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("format") != "surfhodge-harmonic-basis":
            raise BasisMismatch("not a harmonic basis container")
        vectors = np.array(payload["vectors"], dtype=float).reshape(
            payload["b1"], payload["n_dofs"]
        )
        return cls(
            k=payload["k"],
            vectors=vectors,
            seed=payload["seed"],
            tol=payload["tol"],
            mesh_checksum=payload["mesh_checksum"],
            n_attempts=payload.get("n_attempts", 0),
            gram_residual=payload.get("gram_residual", 0.0),
        )


@dataclass
class HodgeComponents:
    """Three-way split of an H(div) field.

    The reconstruction rot(psi) + sum_i h_i H_i + gradient_part reproduces
    the input up to residual_norm; lam is the discrete-gradient potential
    (the multiplier of the mixed projection).
    """

    psi: FeField
    h_coeffs: np.ndarray
    lam: FeField
    residual_norm: float
    rot_part: np.ndarray
    harmonic_part: np.ndarray
    gradient_part: np.ndarray


@dataclass
class DimensionReport:
    """Closed-form dimensions of the divergence-free space and its
    streamfunction image, and their difference against b1."""

    k: int
    dim_divfree: int
    dim_rot: int
    difference: int
    b1: int

    @property
    def consistent(self) -> bool:
        return self.difference == self.b1

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "dim_divfree": self.dim_divfree,
            "dim_rot": self.dim_rot,
            "difference": self.difference,
            "b1": self.b1,
            "consistent": self.consistent,
        }


def verify_dimension(topology: TopologySummary, k: int) -> DimensionReport:
    """Executable dimension count for the harmonic space.

    dim(J) = (k+1)|E_I| + k(k-1)/2 |T| - (|T| - n_components) and
    dim(rot S) = |V_I| + k|E_I| + k(k-1)/2 |T| - n_closed_components; their
    difference must equal b1 by the Euler-Poincare formula.
    """
    t = topology
    n_closed = sum(c[2] for c in t.component_betti) if t.component_betti else (
        t.n_components if t.closed else 0)
    dim_j = (k + 1) * t.n_interior_edges + k * (k - 1) // 2 * t.n_triangles - (
        t.n_triangles - t.n_components)
    dim_rot = (t.n_interior_vertices + k * t.n_interior_edges
               + k * (k - 1) // 2 * t.n_triangles - n_closed)
    return DimensionReport(
        k=k,
        dim_divfree=dim_j,
        dim_rot=dim_rot,
        difference=dim_j - dim_rot,
        b1=t.b1,
    )


class HodgeSolver:
    """Spaces, operators and cached factorizations for one (mesh, degree).

    All operations are pure given the immutable mesh; the random number
    generator of the harmonic search is an explicit seeded input, so runs
    are reproducible.
    """

    def __init__(self, mesh: SurfaceMesh, k: int):
        if mesh.n_components != 1:
            raise DisconnectedMesh("decomposition requires a connected mesh")
        self.mesh = mesh
        self.k = int(k)
        self.topology = analyze_topology(mesh)
        closed = mesh.is_closed
        self.V = build_space(mesh, "bdm", k, "zero_normal_trace")
        self.S = build_space(mesh, "lagrange", k + 1,
                             "zero_mean" if closed else "zero_boundary_trace")
        self.Q = build_space(mesh, "dg_pressure", max(k - 1, 0), "zero_mean")
        self.M = asm.assemble_mass(self.V)
        self.B = asm.assemble_div(self.V, self.Q)
        self.E = asm.assemble_rot_embedding(self.S, self.V)
        self._mixed: FactorizedOperator | None = None
        self._laplace: FactorizedOperator | None = None
        self._mass_op: FactorizedOperator | None = None
        self._checksum = mesh.checksum()

    # ------------------------------------------------------------ operators
    def saddle_matrix(self, A: sp.spmatrix) -> sp.csc_matrix:
        """Velocity-pressure saddle matrix [[A, B', 0], [B, 0, m], [0, m', 0]]
        of a velocity-space operator A, with the pressure gauged to zero
        mean by the multiplier of its moment m."""
        mq = sp.csc_matrix(asm.assemble_moment(self.Q)).T  # (nQ, 1)
        return sp.bmat([[A, self.B.T, None], [self.B, None, mq], [None, mq.T, None]],
                       format="csc")

    @property
    def mixed_operator(self) -> FactorizedOperator:
        """Factorized saddle system of the mixed Helmholtz projection."""
        if self._mixed is None:
            self._mixed = FactorizedOperator(self.saddle_matrix(self.M))
        return self._mixed

    @property
    def laplace_operator(self) -> FactorizedOperator:
        """Factorized streamfunction form (rot psi, rot phi), gauged by the
        zero-mean constraint on closed surfaces."""
        if self._laplace is None:
            L = self.E.T @ self.M @ self.E
            gauges = [asm.assemble_moment(self.S)] if self.S.zero_mean else []
            self._laplace = FactorizedOperator(L, gauges, kind="SPD")
        return self._laplace

    @property
    def mass_operator(self) -> FactorizedOperator:
        if self._mass_op is None:
            self._mass_op = FactorizedOperator(self.M, kind="SPD")
        return self._mass_op

    def mixed_solve(self, rhs_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve the mixed projection system for a velocity-space functional
        rhs_v; returns (divergence-free coefficients, multiplier)."""
        nV, nQ = self.V.total_dofs, self.Q.total_dofs
        b = np.concatenate([rhs_v, np.zeros(nQ + 1)])
        sol = self.mixed_operator.solve(b)
        return sol[:nV], sol[nV : nV + nQ]

    # ----------------------------------------------------------- operations
    def helmholtz_project(self, r) -> tuple[FeField, FeField]:
        """L2 projection into the divergence-free subspace.

        r may be an FeField in the solver's H(div) space or in a broken
        vector space on the same mesh.  Returns (u, lam) where u is the
        projection and lam the mean-zero multiplier representing the
        discrete-gradient part: Pi_{H(div)} r = u + grad-part(lam).
        """
        rhs = self._velocity_functional(r)
        u, lam = self.mixed_solve(rhs)
        return FeField(self.V, u), FeField(self.Q, lam)

    def _velocity_functional(self, r) -> np.ndarray:
        if isinstance(r, FeField):
            if r.space is self.V or (
                r.space.kind == "bdm" and r.space.total_dofs == self.V.total_dofs
            ):
                return self.M @ r.coefficients
            if r.space.value_shape == "vector" and r.space.mesh is self.mesh:
                C = asm.assemble_cross_mass(self.V, r.space)
                return C @ r.coefficients
            raise BasisMismatch("field lives on an incompatible space")
        r = np.asarray(r, dtype=float)
        if r.shape != (self.V.total_dofs,):
            raise BasisMismatch("coefficient vector length mismatch")
        return self.M @ r

    def streamfunction_solve(self, rhs_s: np.ndarray) -> np.ndarray:
        return self.laplace_operator.solve(rhs_s)

    def harmonic_basis(self, seed: int = 0, tol: float = 1e-8,
                       max_attempts: int | None = None) -> HarmonicBasis:
        """Randomized construction of the orthonormal harmonic basis.

        Draw a random unit field, project it onto the divergence-free
        subspace, remove its streamfunction part, orthogonalize against the
        accepted members, and keep the remainder unless its norm falls
        below tol.  Terminates with probability one after b1 accepted
        fields; a draw budget of 20 b1 + 20 guards against inconsistent
        topology/assembly input.
        """
        b1 = self.topology.b1
        if max_attempts is None:
            max_attempts = 20 * b1 + 20
        n = self.V.total_dofs
        accepted: list[np.ndarray] = []
        rng = np.random.default_rng(seed)
        attempts = 0
        while len(accepted) < b1:
            if attempts >= max_attempts:
                raise MaxAttemptsExceeded(
                    f"harmonic basis search exceeded {max_attempts} draws; "
                    f"accepted {len(accepted)} of {b1}")
            attempts += 1
            r = rng.standard_normal(n)
            r /= np.sqrt(r @ (self.M @ r))
            u, _ = self.mixed_solve(self.M @ r)
            psi = self.streamfunction_solve(self.E.T @ (self.M @ u))
            w = u - self.E @ psi
            for _ in range(2):  # twice-applied MGS for conditioning
                for q in accepted:
                    w = w - (q @ (self.M @ w)) * q
            nrm = np.sqrt(max(w @ (self.M @ w), 0.0))
            if nrm < tol:
                continue
            accepted.append(w / nrm)
        H = np.array(accepted).reshape(len(accepted), n)
        gram = H @ (self.M @ H.T) if len(accepted) else np.zeros((0, 0))
        gram_residual = float(abs(gram - np.eye(len(accepted))).max()) if len(accepted) else 0.0
        return HarmonicBasis(
            k=self.k,
            vectors=H,
            seed=seed,
            tol=tol,
            mesh_checksum=self._checksum,
            n_attempts=attempts,
            gram_residual=gram_residual,
        )

    def check_basis(self, basis: HarmonicBasis) -> None:
        if basis.k != self.k:
            raise BasisMismatch(f"basis degree {basis.k} != solver degree {self.k}")
        if basis.vectors.shape != (self.topology.b1, self.V.total_dofs):
            raise BasisMismatch("basis shape does not match mesh/topology")
        if basis.mesh_checksum != self._checksum:
            raise BasisMismatch("basis was built for a different mesh")

    def decompose(self, v: FeField, basis: HarmonicBasis) -> HodgeComponents:
        """Split an H(div) field into rot(psi) + harmonic + gradient parts.

        psi solves the streamfunction problem tested against rotated
        gradients, the harmonic coefficients are plain L2 inner products
        with the basis, and the gradient part comes from the mixed
        projection's multiplier.
        """
        self.check_basis(basis)
        if v.space.total_dofs != self.V.total_dofs:
            raise BasisMismatch("field does not live in the solver's space")
        vc = v.coefficients
        Mv = self.M @ vc
        h = basis.vectors @ Mv
        psi = self.streamfunction_solve(self.E.T @ Mv)
        u_proj, lam = self.mixed_solve(Mv)
        rot_part = self.E @ psi
        harmonic_part = basis.vectors.T @ h if basis.dimension else np.zeros_like(vc)
        gradient_part = vc - u_proj
        recon = rot_part + harmonic_part + gradient_part
        diff = vc - recon
        residual = float(np.sqrt(max(diff @ (self.M @ diff), 0.0)))
        return HodgeComponents(
            psi=FeField(self.S, psi),
            h_coeffs=h,
            lam=FeField(self.Q, lam),
            residual_norm=residual,
            rot_part=rot_part,
            harmonic_part=harmonic_part,
            gradient_part=gradient_part,
        )


# --------------------------------------------------- module-level wrappers
def helmholtz_project(mesh: SurfaceMesh, k: int, r) -> tuple[FeField, FeField]:
    return HodgeSolver(mesh, k).helmholtz_project(r)


def harmonic_basis(mesh: SurfaceMesh, k: int, seed: int = 0, tol: float = 1e-8,
                   max_attempts: int | None = None) -> HarmonicBasis:
    return HodgeSolver(mesh, k).harmonic_basis(seed=seed, tol=tol, max_attempts=max_attempts)


def decompose(mesh: SurfaceMesh, v: FeField, basis: HarmonicBasis) -> HodgeComponents:
    return HodgeSolver(mesh, basis.k).decompose(v, basis)


# ---------------------------------------------- lowest-order CR decomposition
@dataclass
class P0Decomposition:
    psi: FeField
    h_coeffs: np.ndarray
    phi: FeField
    residual_norm: float


def decompose_p0_incomplete(v: FeField, basis: HarmonicBasis | None = None,
                            seed: int = 0) -> P0Decomposition:
    """L2-orthogonal split of a piecewise-constant tangential field into
    rotated P1 gradients, harmonic fields and broken Crouzeix-Raviart
    gradients.

    On affine triangulations the three parts are pairwise orthogonal and
    their dimensions add up to 2|T|, so the reconstruction is exact up to
    solver precision; the residual is still computed and reported.
    """
    space = v.space
    if space.kind != "dg_vector" or space.degree != 0:
        raise WrongDegree("decompose_p0_incomplete expects a broken P0 vector field")
    mesh = space.mesh
    solver = HodgeSolver(mesh, 0)
    if basis is None:
        basis = solver.harmonic_basis(seed=seed)
    else:
        solver.check_basis(basis)

    C = asm.assemble_cross_mass(solver.V, space)  # (nV0, nP0)
    Cv = C @ v.coefficients
    psi = solver.streamfunction_solve(solver.E.T @ Cv)
    h = basis.vectors @ Cv

    CR = build_space(mesh, "crouzeix_raviart", 1, "zero_mean")
    K = asm.assemble_broken_stiffness(CR)
    cr_gauge = FactorizedOperator(K, [asm.assemble_moment(CR)])
    phi = cr_gauge.solve(asm.assemble_gradient_load(CR, v))

    # pointwise residual: v - rot(psi) - harmonic - grad_h(phi)
    rule = triangle_rule(4)
    recon = asm.tabulate_field(FeField(solver.V, solver.E @ psi), rule)
    if basis.dimension:
        recon = recon + asm.tabulate_field(
            FeField(solver.V, basis.vectors.T @ h), rule)
    _, cr_grads = asm.tabulate_scalar(CR, rule)
    recon = recon + np.einsum("tl,tlqi->tqi", CR.local_coefficients(phi), cr_grads)
    diff = asm.tabulate_field(v, rule) - recon
    resid = float(np.sqrt(np.einsum("tqi,tqi,q,t->", diff, diff, rule.weights, mesh.Jdet)))
    return P0Decomposition(
        psi=FeField(solver.S, psi),
        h_coeffs=h,
        phi=FeField(CR, phi),
        residual_norm=resid,
    )

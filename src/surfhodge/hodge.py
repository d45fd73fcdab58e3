"""Discrete Helmholtz-Hodge decomposition machinery.

The divergence-free subspace of the degree-k H(div) space splits
L2-orthogonally into rotated streamfunction gradients and a b1-dimensional
space of discrete harmonic fields.  This module computes that splitting:

* projection onto the divergence-free subspace through the streamfunction
  Laplacian and the harmonic basis, with the discrete-gradient complement
  from a pressure Poisson multiplier (every factorization is SPD; there is
  no saddle-point system),
* randomized construction of an orthonormal harmonic basis,
* three-way decomposition of arbitrary H(div) fields,
* the lowest-order incomplete decomposition with the Crouzeix-Raviart
  space,
* executable dimension checks from the Euler characteristic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import assembly as asm
from .errors import (
    BasisMismatch,
    DisconnectedMesh,
    MaxAttemptsExceeded,
    NonpositiveParameter,
    ParseError,
    WrongDegree,
)
from .fespace import FeField, build_space, count_dofs
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
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON or not text
            raise ParseError(f"cannot read harmonic basis {str(path)!r}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("format") != "surfhodge-harmonic-basis":
            raise BasisMismatch("not a harmonic basis container")
        try:
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
        except (KeyError, TypeError, ValueError) as exc:
            raise BasisMismatch(
                f"malformed harmonic basis container ({type(exc).__name__}: {exc})") from exc


@dataclass
class HodgeComponents:
    """Three-way split of an H(div) field.

    The reconstruction rot(psi) + sum_i h_i H_i + gradient_part reproduces
    the input up to residual_norm; lam is the zero-mean discrete-gradient
    potential, gradient_part = M^-1 B' lam, from the pressure Poisson
    equation B B' lam = B M (v - rot(psi) - harmonic part).
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


def verify_dimension(topology: TopologySummary, k: int) -> DimensionReport:
    """Executable dimension count for the harmonic space, from count_dofs.

    dim(J) = dim(V_0) - (dim(Q) - n_components), with V_0 the degree-k
    H(div) space with zero normal trace and Q the degree max(k-1, 0)
    discontinuous pressures (B maps V_0 onto the zero-mean pressures of
    each component), and dim(rot S) = dim(S_0) - n_closed_components, with
    S_0 the degree-(k+1) Lagrange space with zero boundary trace (rot
    annihilates the constants on closed components); their difference must
    equal b1 by the Euler-Poincare formula.  Raises
    UnsupportedCombination outside k = 0..4.
    """
    t = topology
    n_closed = sum(c[2] for c in t.component_betti)
    dim_j = count_dofs(t, "bdm", k, "zero_normal_trace") - (
        count_dofs(t, "dg_pressure", max(k - 1, 0)) - t.n_components)
    dim_rot = count_dofs(t, "lagrange", k + 1, "zero_boundary_trace") - n_closed
    return DimensionReport(
        k=k,
        dim_divfree=dim_j,
        dim_rot=dim_rot,
        difference=dim_j - dim_rot,
        b1=t.b1,
    )


class HodgeSolver:
    """Spaces, operators and cached factorizations for one (mesh, degree).

    L is the streamfunction form (rot psi, rot phi) = (grad psi, grad phi):
    rot = n x grad is an isometry and rot maps S exactly into V (E), so L =
    E' M E, assembled as the Lagrange stiffness it equals, which stores
    none of the rounding-level entries of E.  The gauge is its zero-mean
    moment on closed surfaces (None otherwise); the flow solvers reuse
    both.  All operations are pure given the immutable mesh; the random
    number generator of the harmonic search is an explicit seeded input, so
    runs are reproducible.  The factorizations are built on first use, so the
    solver is not immutable after construction.
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
        self.L = asm.assemble_broken_stiffness(self.S)
        self.gauge = asm.assemble_moment(self.S) if self.S.zero_mean else None
        self._pressure: FactorizedOperator | None = None
        self._laplace: FactorizedOperator | None = None
        self._mass_op: FactorizedOperator | None = None
        self._checksum = mesh.checksum()

    # ------------------------------------------------------------ operators
    @property
    def pressure_operator(self) -> FactorizedOperator:
        """Factorized pressure Poisson operator B B' on zero-mean
        multipliers."""
        if self._pressure is None:
            self._pressure = FactorizedOperator(
                self.B @ self.B.T, asm.assemble_moment(self.Q), kind="SPD")
        return self._pressure

    @property
    def laplace_operator(self) -> FactorizedOperator:
        """Factorized streamfunction form L, gauged by the zero-mean
        constraint on closed surfaces."""
        if self._laplace is None:
            self._laplace = FactorizedOperator(self.L, self.gauge, kind="SPD")
        return self._laplace

    @property
    def mass_operator(self) -> FactorizedOperator:
        if self._mass_op is None:
            self._mass_op = FactorizedOperator(self.M, kind="SPD")
        return self._mass_op

    def pressure_solve(self, r: np.ndarray) -> np.ndarray:
        """Zero-mean multiplier lam of B B' lam = B r: the least-squares
        solution of B' lam = r, exact when the velocity functional r vanishes
        on the divergence-free subspace."""
        return self.pressure_operator.solve(self.B @ r)

    def _project(self, f: np.ndarray, H: np.ndarray):
        """Split the velocity functional f: its divergence-free projection
        rot + harm = E psi + H'h, and the multiplier lam of the rest,
        B' lam = f - M (rot + harm).  Returns (psi, h, rot, harm, lam)."""
        psi = self.laplace_operator.solve(self.E.T @ f)
        h = H @ f
        rot, harm = self.E @ psi, H.T @ h
        return psi, h, rot, harm, self.pressure_solve(f - self.M @ (rot + harm))

    # ----------------------------------------------------------- operations
    def harmonic_basis(self, seed: int = 0, tol: float = 1e-8) -> HarmonicBasis:
        """Randomized construction of the orthonormal harmonic basis.

        Draw a random unit field, make it divergence-free by removing its
        Euclidean projection onto the range of B' (any divergence-free
        field will do, since its rot part goes next), remove its
        streamfunction part, orthogonalize against the accepted members,
        and keep the remainder unless its norm falls below tol.  Terminates
        with probability one after b1 accepted fields; a draw budget of
        20 b1 + 20 guards against inconsistent topology/assembly input.
        Raises NonpositiveParameter unless seed is a nonnegative integer and
        tol is finite and positive.
        """
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise NonpositiveParameter(f"seed must be a nonnegative integer, got {seed!r}")
        if not (math.isfinite(tol) and tol > 0):
            raise NonpositiveParameter(f"tol must be finite and positive, got {tol!r}")
        b1 = self.topology.b1
        budget = 20 * b1 + 20
        n = self.V.total_dofs
        accepted: list[np.ndarray] = []
        rng = np.random.default_rng(seed)
        attempts = 0
        while len(accepted) < b1:
            if attempts >= budget:
                raise MaxAttemptsExceeded(
                    f"harmonic basis search exceeded {budget} draws; "
                    f"accepted {len(accepted)} of {b1}")
            attempts += 1
            r = rng.standard_normal(n)
            r /= np.sqrt(r @ (self.M @ r))
            u = r - self.B.T @ self.pressure_solve(r)
            psi = self.laplace_operator.solve(self.E.T @ (self.M @ u))
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

    def validate_basis(self, basis: HarmonicBasis) -> None:
        """check_basis plus the numeric checks on a basis from outside the
        solver: finite entries, Gram residual <= 1e-10, divergence <= 1e-6
        of each unit field and |E' M h|_inf <= 1e-8 (L2-orthogonal to the
        rotated gradients)."""
        self.check_basis(basis)
        H = basis.vectors
        if not np.isfinite(H).all():
            raise BasisMismatch("harmonic basis has non-finite entries")
        MH = self.M @ H.T
        gram = float(abs(H @ MH - np.eye(basis.dimension)).max(initial=0.0))
        if gram > 1e-10:
            raise BasisMismatch(f"harmonic basis is not orthonormal (Gram residual {gram:.1e})")
        div = max((asm.divergence_norm(self.V, h) for h in H), default=0.0)
        if div > 1e-6:
            raise BasisMismatch(f"harmonic basis is not divergence-free (|div h| {div:.1e})")
        rot = float(abs(self.E.T @ MH).max(initial=0.0))
        if rot > 1e-8:
            raise BasisMismatch(
                f"harmonic basis is not orthogonal to the rotated gradients ({rot:.1e})")

    def decompose(self, v: FeField, basis: HarmonicBasis) -> HodgeComponents:
        """Split an H(div) field into rot(psi) + harmonic + gradient parts.

        psi solves the streamfunction problem tested against rotated
        gradients, the harmonic coefficients are plain L2 inner products
        with the basis, and the gradient part M^-1 B' lam comes from the
        pressure Poisson multiplier of what the two leave, so the residual
        measures the whole split.
        """
        self.check_basis(basis)
        if not self.V.same_as(v.space):
            raise BasisMismatch("field does not live in the solver's space")
        vc = v.coefficients
        psi, h, rot_part, harmonic_part, lam = self._project(self.M @ vc, basis.vectors)
        gradient_part = self.mass_operator.solve(self.B.T @ lam)
        diff = vc - rot_part - harmonic_part - gradient_part
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


# ---------------------------------------------- lowest-order CR decomposition
@dataclass
class P0Decomposition:
    psi: FeField
    h_coeffs: np.ndarray
    phi: FeField
    residual_norm: float


def decompose_p0_incomplete(v: FeField, basis: HarmonicBasis | None = None) -> P0Decomposition:
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
        basis = solver.harmonic_basis()
    else:
        solver.check_basis(basis)

    C = asm.assemble_cross_mass(solver.V, space)  # (nV0, nP0)
    Cv = C @ v.coefficients
    psi = solver.laplace_operator.solve(solver.E.T @ Cv)
    h = basis.vectors @ Cv

    CR = build_space(mesh, "crouzeix_raviart", 1, "zero_mean")
    K = asm.assemble_broken_stiffness(CR)
    cr_gauge = FactorizedOperator(K, asm.assemble_moment(CR), kind="SPD")
    phi = cr_gauge.solve(asm.assemble_gradient_load(CR, v))

    # pointwise residual: v - rot(psi) - harmonic - grad_h(phi)
    rule = triangle_rule(4)
    recon = asm.tabulate_field(FeField(solver.V, solver.E @ psi), rule)
    if basis.dimension:
        recon = recon + asm.tabulate_field(
            FeField(solver.V, basis.vectors.T @ h), rule)
    # broken CR gradients G grad(phihat)
    recon = recon + np.einsum("tl,lqd,tid->tqi", CR.local_coefficients(phi),
                              CR.ref.grad(rule.xy), mesh.G)
    diff = asm.tabulate_field(v, rule) - recon
    resid = float(np.sqrt(np.einsum("tqi,tqi,q,t->", diff, diff, rule.weights, mesh.Jdet)))
    return P0Decomposition(
        psi=FeField(solver.S, psi),
        h_coeffs=h,
        phi=FeField(CR, phi),
        residual_norm=resid,
    )

"""Discrete Helmholtz-Hodge decomposition machinery.

The divergence-free subspace of the degree-k H(div) space splits
L2-orthogonally into rotated streamfunction gradients and a b1-dimensional
space of discrete harmonic fields.  This module computes that splitting:

* projection onto the divergence-free subspace through the streamfunction
  Laplacian and the harmonic basis, with the discrete-gradient complement
  and its pressure Poisson multiplier from a right inverse of B that
  factors only a Laplacian over the triangles' mean pressure modes (every
  factorization is SPD; there is no saddle-point system),
* randomized construction of an orthonormal harmonic basis,
* three-way decomposition of arbitrary H(div) fields,
* the lowest-order incomplete decomposition with the Crouzeix-Raviart
  space,
* executable dimension checks from the Euler characteristic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp

from . import assembly as asm
from .errors import (
    BasisMismatch,
    DisconnectedMesh,
    MaxAttemptsExceeded,
    NonpositiveParameter,
    ParseError,
    WrongDegree,
)
from .fespace import FeField, FeSpace, build_space, count_dofs
from .linalg import FactorizedOperator, mnorm, zero_mean
from .mesh import SurfaceMesh, TopologySummary, analyze_topology
from .quadrature import triangle_rule

# Fields drawn beyond b1 for the harmonic basis, so that the rank shows as
# a gap below the b1 leading Gram eigenvalues; 4 drew no more accurately
# and costs two more solve columns.
OVERSAMPLING = 2
# A drawn block's rank: its Gram eigenvalues above RANK_TOL times the
# largest.  Over the corpus meshes with b1 > 0, sphere_with_holes(3, 4) and
# the 32x16 torus, k = 0-3 and seeds 0-19, the b1-th is at least 1.2e-3 of
# the largest and the next at most 2.0e-15, so any threshold in
# [1e-14, 1e-4] reads the same rank.
RANK_TOL = 1e-8


@dataclass(eq=False)
class HarmonicBasis:
    """L2-orthonormal basis of the discrete harmonic space.

    vectors has shape (b1, n_dofs): each row holds the coefficients of one
    harmonic field in the degree-k H(div) space with zero normal trace.
    The basis keeps a read-only float copy of the vectors it is given, so
    no alias can change it under a solver that caches its mass image.
    """

    k: int
    vectors: np.ndarray
    seed: int
    mesh_checksum: str
    n_attempts: int = 0
    gram_residual: float = 0.0

    def __post_init__(self):
        self.vectors = np.array(self.vectors, dtype=float)
        self.vectors.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.vectors.shape[0]

    def save_json(self, path) -> None:
        payload = {
            "format": "surfhodge-harmonic-basis",
            "version": 1,
            "k": self.k,
            "seed": self.seed,
            "tol": RANK_TOL,
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
                mesh_checksum=payload["mesh_checksum"],
                n_attempts=payload.get("n_attempts", 0),
                gram_residual=payload.get("gram_residual", 0.0),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BasisMismatch(
                f"malformed harmonic basis container ({type(exc).__name__}: {exc})") from exc


@dataclass(eq=False)
class HodgeComponents:
    """Three-way split of an H(div) field.

    The reconstruction rot(psi) + sum_i h_i H_i + gradient_part reproduces
    the input up to residual_norm.  gradient_part is R B v minus its
    projection onto rot S + H (R the right inverse of B), which equals
    M^-1 B' lam up to solver precision.  The parts are read-only arrays.
    Two values are computed on first read, then cached: residual_norm,
    |v - rot_part - harmonic_part - gradient_part|_M, costs one mass
    product, and lam, the zero-mean discrete-gradient potential
    HodgeSolver.pressure_solve(M (v - rot_part - harmonic_part)), one mass
    product and one L0 solve.  Until then the split keeps v - rot_part -
    harmonic_part, gradient_part and its solver in _source, which repr
    leaves out.  == is identity, as for every result that holds arrays.
    """

    psi: FeField
    h_coeffs: np.ndarray
    rot_part: np.ndarray
    harmonic_part: np.ndarray
    gradient_part: np.ndarray
    _source: tuple[np.ndarray, np.ndarray, HodgeSolver] = field(repr=False)

    @cached_property
    def residual_norm(self) -> float:
        r, gradient_part, solver = self._source
        with np.errstate(over="ignore", invalid="ignore"):  # the caller sees inf or nan
            return mnorm(r - gradient_part, solver.M)

    @cached_property
    def lam(self) -> FeField:
        r, _, solver = self._source
        return FeField(solver.Q, solver.pressure_solve(solver.M @ r))


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


class RightInverse:
    """The pressure side of (V, Q, B): the right inverse R of B on zero-mean
    loads, apply(b) = R b = G L0^-1 b[q0] + PK b, and transpose(r) = R' r.

    A triangle's mean mode q0 pairs only with its lowest edge-flux moments,
    B0 = B[q0]; its bubbles' divergences span its other modes qp through one
    reference block times their dof signs, so B PK is the identity on qp,
    and G = (I - PK B) B0' has B G = [B0 B0'; 0].  L0 = B0 B0' is the one
    pressure factor, a dual-graph Laplacian with one unknown per triangle
    (exactly symmetric: a column of B0 has at most two entries).  R' r is
    L0^-1 G' r on q0 and higher_modes(r) = PK' r, with no factor, on qp.
    divergence_mean_basis() builds, on each call, the saddle oracle's basis
    P of the kernel of B[qp]: (I - PK B) e_j for V's edge dofs j ascending,
    then per triangle its divergence-free bubbles N, the null space of the
    reference bubble divergence block (none at k <= 1: P = I); B0 P is B0
    on the edge columns and 0 on N.
    """

    def __init__(self, V: FeSpace, Q: FeSpace, B: sp.csr_matrix):
        self.V, self.Q, self.B = V, Q, B
        ne = V.ref.n_edge_dofs
        self.q0, qp = Q.dof_map[:, 0], Q.dof_map[:, 1:]
        self.q0_moment = asm.assemble_moment(Q)[self.q0]
        K = np.linalg.pinv(asm.reference_div_block(V, Q)[1:, ne:])
        self.PK = asm._scatter(K, V.dof_map[:, ne:], 1 / V.dof_signs[:, ne:],
                               qp, Q.dof_signs[:, 1:], B.T.shape)
        self.B0 = B[self.q0]
        self.G = (sp.eye(V.total_dofs, format="csr") - self.PK @ B) @ self.B0.T
        self._PKT, self._GT = self.PK.T, self.G.T  # csc views, applied by transpose
        self.L0 = FactorizedOperator(self.B0 @ self.B0.T)  # sorted there, in place

    def apply(self, b: np.ndarray) -> np.ndarray:
        return self.G @ self.L0.solve(b[self.q0]) + self.PK @ b

    def transpose(self, r: np.ndarray) -> np.ndarray:
        lam = self.higher_modes(r)
        lam[self.q0] = self.L0.solve(self._GT @ r)
        return lam

    def higher_modes(self, r: np.ndarray) -> np.ndarray:
        return self._PKT @ r

    def divergence_mean_basis(self) -> sp.csc_matrix:
        V, ne, n = self.V, self.V.ref.n_edge_dofs, self.V.total_dofs
        edges = np.unique(V.dof_map[:, :ne])
        edges = edges[edges >= 0]
        null = dla.null_space(asm.reference_div_block(V, self.Q)[:, ne:])
        T, n_null = V.mesh.n_triangles, null.shape[1]
        N = asm._scatter(null, V.dof_map[:, ne:], 1 / V.dof_signs[:, ne:],
                         np.arange(T * n_null).reshape(T, n_null), np.ones((T, n_null)),
                         (n, T * n_null))
        I_e = sp.eye(n, format="csc")[:, edges]
        return sp.hstack([I_e - self.PK @ self.B[:, edges], N], format="csc")


class HodgeSolver:
    """Spaces, operators and cached factorizations for one (mesh, degree).

    L is the streamfunction form (rot psi, rot phi) = (grad psi, grad phi):
    rot = n x grad is an isometry and rot maps S exactly into V (E, its
    interpolation rounding snapped to 0), so L = E' M E, assembled as the
    Lagrange stiffness it equals; the flow solvers reuse it.  The factors
    of L0 and, on a closed surface, L pin a dof (their kernel is the
    constants); pressure_field and stream_field report zero-mean fields.
    All operations are pure given the immutable mesh; the random number
    generator of the harmonic search is an explicit seeded input, so runs
    are reproducible.  L's factor, the pressure side right_inverse (with
    L0) and E' M, decompose's streamfunction load, are built on first use
    and cached on the instance (functools.cached_property), so the solver is
    not immutable after construction; removing one from vars(solver)
    releases it, and its next use builds it again.  decompose also keeps
    the mass image H M of the last basis it was given, keyed by the
    basis.vectors array object, which the basis keeps read-only.
    """

    def __init__(self, mesh: SurfaceMesh, k: int):
        if mesh.n_components != 1:
            raise DisconnectedMesh("decomposition requires a connected mesh")
        self.mesh, self.k = mesh, int(k)
        self.topology = analyze_topology(mesh)
        closed = mesh.is_closed
        self.V = build_space(mesh, "bdm", k, "zero_normal_trace")
        self.S = build_space(mesh, "lagrange", k + 1,
                             "zero_mean" if closed else "zero_boundary_trace")
        self.Q = build_space(mesh, "dg_pressure", max(k - 1, 0), "zero_mean")
        self.M = asm.assemble_mass(self.V)
        self.B = asm.assemble_div(self.V, self.Q)
        self.E = asm.assemble_rot_embedding(
            self.S, self.V, asm.snap_rounding(asm.reference_rot_block(self.S, self.V)))
        self.L = asm.assemble_broken_stiffness(self.S)
        self._psi_moment = asm.assemble_moment(self.S) if self.S.zero_mean else None
        self._ET = self.E.T  # a csc view, applied by the draws and decompositions
        self._basis_image = (None, None)  # (H, H M) of the last basis decompose read
        self._checksum = mesh.checksum()

    # ------------------------------------------------------------ operators
    @cached_property
    def right_inverse(self) -> RightInverse:
        """The pressure side, RightInverse(V, Q, B), with its factor L0."""
        return RightInverse(self.V, self.Q, self.B)

    @cached_property
    def laplace_operator(self) -> FactorizedOperator:
        """Factorized streamfunction form L."""
        return FactorizedOperator(self.L)

    @cached_property
    def _ETM(self) -> sp.csr_matrix:
        """E' M, formed as (M' E)', the transpose of a csc product, so that
        it is csr."""
        return (self.M.T @ self.E).T

    def pressure_solve(self, r: np.ndarray) -> np.ndarray:
        """Zero-mean multiplier lam = R' r, the exact solution of B' lam = r
        when the velocity functional r vanishes on the divergence-free subspace."""
        return self.pressure_field(self.right_inverse.transpose(r)).coefficients

    def pressure_field(self, p: np.ndarray) -> FeField:
        """A copy of the pressure p whose mean modes are shifted to zero mean."""
        R, p = self.right_inverse, np.array(p, dtype=float)
        p[R.q0] = zero_mean(p[R.q0], R.q0_moment)
        return FeField(self.Q, p)

    def stream_field(self, x: np.ndarray) -> FeField:
        """The streamfunction x, shifted to zero mean on a closed surface."""
        return FeField(self.S, zero_mean(x, self._psi_moment))

    # ----------------------------------------------------------- operations
    def harmonic_basis(self, seed: int = 0) -> HarmonicBasis:
        """Randomized construction of the orthonormal harmonic basis.

        Draw one Gaussian block W of b1 + OVERSAMPLING fields, make it
        divergence-free as W - R B W with the right inverse R of B
        (right_inverse; any divergence-free block will do, since its rot
        part goes next), remove its streamfunction part and, for the
        divergence E psi's rounding leaves, subtract R B W once more: W then
        spans the harmonic space with probability one (the randomized range
        finder with oversampling).  The rank is read off the spectrum of the
        Gram matrix G = W' M W: the eigenvalues above RANK_TOL times the
        largest must number b1, else MaxAttemptsExceeded is raised, and H =
        Lambda^-1/2 V' W' from those eigenpairs (Lambda, V), largest first,
        is M-orthonormal.  n_attempts is the number of fields drawn; at b1 =
        0 none is drawn and no factor is built.  Raises NonpositiveParameter
        unless seed is a nonnegative integer.
        """
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise NonpositiveParameter(f"seed must be a nonnegative integer, got {seed!r}")
        b1, n = self.topology.b1, self.V.total_dofs
        draws = b1 + OVERSAMPLING if b1 else 0
        H = np.zeros((0, n))
        if draws:
            W = np.random.default_rng(seed).standard_normal((n, draws))
            W -= self.right_inverse.apply(self.B @ W)
            W -= self.E @ self.laplace_operator.solve(self._ET @ (self.M @ W))
            W -= self.right_inverse.apply(self.B @ W)
            lam, V = np.linalg.eigh(W.T @ (self.M @ W))
            rank = int((lam > RANK_TOL * lam[-1]).sum())
            if rank != b1:
                raise MaxAttemptsExceeded(
                    f"harmonic basis draw of {draws} fields has rank {rank}, not b1 = {b1}")
            H = (V[:, -b1:] / np.sqrt(lam[-b1:])).T[::-1] @ W.T
        gram_residual = float(abs(H @ (self.M @ H.T) - np.eye(b1)).max(initial=0.0))
        return HarmonicBasis(
            k=self.k,
            vectors=H,
            seed=seed,
            mesh_checksum=self._checksum,
            n_attempts=draws,
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
        with np.errstate(over="ignore", invalid="ignore"):  # entries near 1e308 overflow here
            gram = float(abs(H @ MH - np.eye(basis.dimension)).max(initial=0.0))
        if not gram <= 1e-10:  # an overflow's NaN fails too
            raise BasisMismatch(f"harmonic basis is not orthonormal (Gram residual {gram:.1e})")
        div = max((asm.divergence_norm(self.V, h) for h in H), default=0.0)
        if div > 1e-6:
            raise BasisMismatch(f"harmonic basis is not divergence-free (|div h| {div:.1e})")
        rot = float(abs(self._ET @ MH).max(initial=0.0))
        if rot > 1e-8:
            raise BasisMismatch(
                f"harmonic basis is not orthogonal to the rotated gradients ({rot:.1e})")

    def decompose(self, v: FeField, basis: HarmonicBasis) -> HodgeComponents:
        """Split an H(div) field into rot(psi) + harmonic + gradient parts.

        psi solves the streamfunction problem tested against rotated
        gradients and the harmonic coefficients are plain L2 inner products
        with the basis.  The gradient part is g0 = R B v, which has v's
        divergence, minus its own projection onto J = rot S + H: it equals
        M^-1 B' lam up to solver precision, with no mass factor.  One
        two-column L solve, one blocked SuperLU pass, gives psi and g0's
        streamfunction, and the L0 solve of R gives g0.  Their loads are
        products with E' M and the harmonic coefficients of v and g0
        products with the basis's mass image H M, so the call makes no
        product with M.  The residual, which measures the whole split (an
        incomplete basis or an inaccurate L solve leaves it nonzero), and
        the pressure Poisson multiplier lam of what the rot and harmonic
        parts leave are not computed here but on their first reads, the
        residual with one mass product and lam with one more and an L0
        solve (HodgeComponents.residual_norm and lam).  The three parts are
        returned read-only, so no edit of them moves a residual read later.
        """
        self.check_basis(basis)
        if not self.V.same_as(v.space):
            raise BasisMismatch("field does not live in the solver's space")
        vc, H = v.coefficients, basis.vectors
        key, HM = self._basis_image
        if key is not H:
            HM = H @ self.M
            self._basis_image = (H, HM)
        g0 = self.right_inverse.apply(self.B @ vc)
        psi, psi_g = self.laplace_operator.solve(  # two E' M products beat one (n, 2) one
            np.column_stack([self._ETM @ vc, self._ETM @ g0])).T
        h = HM @ vc
        rot_part, harmonic_part = self.E @ psi, h @ H  # h @ H reads H in row order
        gradient_part = g0  # g0 - E psi_g - H' H M g0, formed on g0
        gradient_part -= self.E @ psi_g
        gradient_part -= (HM @ g0) @ H
        with np.errstate(over="ignore", invalid="ignore"):  # the caller sees inf or nan
            r = vc - rot_part  # kept for residual_norm and lam
            r -= harmonic_part
        for part in (rot_part, harmonic_part, gradient_part):
            part.flags.writeable = False  # so a lazy residual_norm is that of these parts
        return HodgeComponents(
            psi=self.stream_field(psi),
            h_coeffs=h,
            rot_part=rot_part,
            harmonic_part=harmonic_part,
            gradient_part=gradient_part,
            _source=(r, gradient_part, self),
        )


# ---------------------------------------------- lowest-order CR decomposition
@dataclass(eq=False)
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
    psi = solver.laplace_operator.solve(solver._ET @ Cv)
    h = basis.vectors @ Cv

    CR = build_space(mesh, "crouzeix_raviart", 1, "zero_mean")
    K = asm.assemble_broken_stiffness(CR)
    phi = zero_mean(FactorizedOperator(K).solve(asm.assemble_gradient_load(CR, v)),
                    asm.assemble_moment(CR))

    # pointwise residual: v - rot(psi) - harmonic - grad_h(phi)
    rule = triangle_rule(4)
    recon = asm.tabulate_field(FeField(solver.V, solver.E @ psi), rule)
    recon = recon + asm.tabulate_field(FeField(solver.V, basis.vectors.T @ h), rule)
    # broken CR gradients G grad(phihat)
    recon = recon + np.einsum("tl,lqd,tid->tqi", CR.local_coefficients(phi),
                              CR.ref.grad(rule.xy), mesh.G)
    diff = asm.tabulate_field(v, rule) - recon
    resid = float(np.sqrt(np.einsum("tqi,tqi,q,t->", diff, diff, rule.weights, mesh.Jdet)))
    return P0Decomposition(
        psi=solver.stream_field(psi),
        h_coeffs=h,
        phi=FeField(CR, phi),
        residual_norm=resid,
    )

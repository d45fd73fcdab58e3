"""Pressure-free surface Stokes and Navier-Stokes solvers.

Velocity is sought directly in the divergence-free H(div) subspace through
its streamfunction + harmonic parametrization: operators are assembled in
the parent H(div) space and restricted once, by JEmbedding.reduce_matrix,
to a BlockSystem: a sparse streamfunction block, b1 dense harmonic columns
and their transpose.  ReducedSolver factorizes that operator and solves it
for any load by a Schur complement, with exactly (number of harmonic dofs
+ 1) sparse solves for the first load.

A velocity-pressure saddle-point solver on the full H(div) space serves as
the cross-validation oracle, an augmented-Lagrangian iteration on one SPD
factor of the penalized viscous block, restricted to the velocities whose
divergence has only mean modes per triangle (the higher modes are matched
exactly by the bubbles); both formulations produce the same velocity up to
solver precision.  The iteration may start from any
pressure, such as the one reconstruct_pressure recovers from the reduced
velocity, and its answer does not depend on the start.

Time stepping for Navier-Stokes is semi-implicit Euler in the (psi, h)
unknowns, viscosity implicit and convection explicit.  The split is
L2-orthogonal and the harmonic basis orthonormal, so the reduced mass is
diag(L, I): a step makes no product with the parent mass M.  Each step
costs one convection action and one sparse solve, plus one load assembly
only when the forcing is time-dependent (a steady forcing's load is
assembled once, with FlowOperators); the rest is fixed small work on
operators built before the first step, and no sparse matrix is built.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp

from . import assembly as asm
from .errors import (
    DimensionMismatch,
    NaNDetected,
    NonpositiveParameter,
    NotSPD,
    SingularMatrix,
    SingularOperator,
    SingularSchur,
    SolverFailure,
)
from .fespace import FeField
from .hodge import HarmonicBasis, HodgeSolver
from .linalg import FactorizedOperator, _release_free_heap, check_symmetric, mnorm
from .mesh import SurfaceMesh


# ---------------------------------------------------------------- embedding
class JEmbedding:
    """Injection of (streamfunction, harmonic) coefficients into the parent
    H(div) coefficient space.

    The first block maps Lagrange coefficients to the H(div) coefficients
    of their rotated gradients; the last b1 columns are the harmonic basis
    vectors.  The matrix has full column rank; the parent operators it
    restricts are symmetric.  A csr E is held as it is, not copied, next to
    its csr transpose.
    """

    def __init__(self, E: sp.spmatrix, H: np.ndarray):
        self.E = E.tocsr()
        self.ET = self.E.T.tocsr()  # restricting a load is a per-step operation
        self.H = np.asarray(H, dtype=float)
        if self.H.ndim != 2 or self.H.shape[1] != self.E.shape[0]:
            raise DimensionMismatch("harmonic block shape does not match embedding")

    @property
    def n_stream(self) -> int:
        return self.E.shape[1]

    @property
    def n_harmonic(self) -> int:
        return self.H.shape[0]

    def apply(self, x_stream: np.ndarray, x_harmonic: np.ndarray) -> np.ndarray:
        return self.E @ x_stream + self.H.T @ x_harmonic

    def reduce_vector(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.ET @ b, self.H @ b

    def reduce_matrix(self, A: sp.spmatrix) -> BlockSystem:
        """Restrict a symmetric parent-space operator to the divergence-free
        subspace: the BlockSystem of T' A T in the (stream, harmonic)
        partition.  Raises DimensionMismatch unless A is square on the
        parent space and NotSPD when |A - A'| > 1e-12 |A|."""
        n = self.E.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch(f"operator shape {A.shape} != parent dim {n}")
        check_symmetric(sp.csr_matrix(A), "operator to restrict")
        AH = A @ self.H.T  # (N, b1) dense
        return BlockSystem((self.ET @ (A @ self.E)).tocsc(), self.ET @ AH, self.H @ AH)


@dataclass(eq=False)
class BlockSystem:
    """Symmetric reduced operator [[A_ss, A_sh], [A_sh', A_hh]]: sparse
    streamfunction block, dense harmonic columns and block.  Loads are not
    part of it; ReducedSolver.solve takes them."""

    A_ss: sp.spmatrix
    A_sh: np.ndarray
    A_hh: np.ndarray

    @property
    def n_harmonic(self) -> int:
        return self.A_hh.shape[0]


class ReducedSolver:
    """Schur-complement solver for a BlockSystem with a reusable
    factorization; the Schur complement is A_hh - A_sh' A_ss^-1 A_sh.

    Setup solves for the n_harmonic columns, so the first solve(b_s, b_h)
    brings the count of sparse solves to n_harmonic + 1; each further load
    costs one sparse solve.  n_harmonic = 0 takes the same path: the
    (n, 0) columns cost no solve and the 0 x 0 Schur complement leaves the
    streamfunction solve as it is.  A streamfunction block whose kernel is
    the constants (a closed surface) is solved with its first dof pinned; a
    block singular beyond the constants fails FactorizedOperator's
    near-null-vector test and raises SingularOperator; a Schur complement
    that Cholesky rejects (indefinite, singular or not finite) raises
    SingularSchur.  The solver keeps the factor, Z, the Schur factor and
    A_sh, which is all a solve reads; the caller owns the BlockSystem and
    may release its sparse A_ss once the solver exists.
    """

    def __init__(self, system: BlockSystem):
        self._A_sh = system.A_sh
        try:
            self.op = FactorizedOperator(system.A_ss)
        except (SingularMatrix, NotSPD) as exc:
            raise SingularOperator("streamfunction block is singular") from exc
        self.Z = self.op.solve(np.asarray(system.A_sh, dtype=float))
        try:  # SPD whenever the block system is; ValueError: non-finite entries
            self._schur, self._lower = dla.cho_factor(system.A_hh - system.A_sh.T @ self.Z)
        except (ValueError, dla.LinAlgError) as exc:
            raise SingularSchur(f"harmonic Schur complement is not SPD: {exc}") from exc
        # cho_solve's LAPACK routine, called without its per-call checks
        self._potrs, = dla.get_lapack_funcs(("potrs",), (self._schur,))

    @property
    def sparse_solves(self) -> int:
        return self.op.solve_count

    def solve(self, b_s: np.ndarray, b_h: np.ndarray):
        z0 = self.op.solve(b_s)
        x_h = b_h - self._A_sh.T @ z0
        if x_h.size:  # potrs rejects an empty right-hand side
            x_h = self._potrs(self._schur, x_h, lower=self._lower, overwrite_b=True)[0]
        z0 -= self.Z @ x_h
        return z0, x_h


# -------------------------------------------------------------------- state
@dataclass(eq=False)
class FlowState:
    """Velocity state of a flow computation: time, streamfunction and
    harmonic coefficients, the velocity field u = E psi + H' h (convection
    and the outputs read it) and its energy 1/2 (psi' L psi + |h|^2).

    A time-stepped state also records its step index and the time t0 its
    run started from, so that t = t0 + step * dt holds without the rounding
    that summing dt would accumulate.
    """

    t: float
    psi: FeField
    h_coeffs: np.ndarray
    u: FeField
    kinetic_energy: float
    step: int = 0
    t0: float | None = None

    def __post_init__(self):
        if self.t0 is None:
            self.t0 = self.t


# The largest step count, t_end / dt rounded, that a run accepts (ten
# million trefoil steps take about 1.5 hours on a 2-core x86_64 VM).
MAX_STEPS = 10_000_000


@dataclass
class SimulationConfig:
    """Parameters of a Stokes solve or Navier-Stokes run.

    The momentum equation is u_t + (u . grad) u - div(mu eps(u)) + grad p
    = f with div u = 0 (Stokes: without u_t and convection), eps(u) the
    tangential symmetric gradient; the viscous element term is mu
    eps(u):eps(v), so mu is twice the nu of -nu Lap u.  k, output_every and
    seed are integers, the last two nonnegative; mu, dt, t_end and alpha
    are finite, dt and alpha positive, mu and t_end nonnegative, and the
    step count, t_end / dt rounded, is at most MAX_STEPS; allow_inviscid
    is a bool.
    """

    k: int = 1
    mu: float = 0.1
    alpha: float | None = None  # penalty; None gives assemble_sip's default
    dt: float = 1e-3
    t_end: float = 0.1
    output_every: int = 10
    seed: int = 0
    forcing: object | None = None  # f(points (n,3), t) -> (n,3); .steady = True: ignores t
    initial: str = "stokes"  # "stokes" | "zero"
    bc: str = "noslip"  # "noslip" | "freeslip"
    allow_inviscid: bool = False

    def __post_init__(self):
        for name in ("k", "output_every", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if name != "k" and value < 0:
                raise NonpositiveParameter(f"{name} must be nonnegative, got {value}")
        if not isinstance(self.allow_inviscid, bool):
            raise ValueError(f"allow_inviscid must be true or false, got {self.allow_inviscid!r}")
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise NonpositiveParameter(f"viscosity must be finite and nonnegative, got {self.mu}")
        if self.mu == 0 and not self.allow_inviscid:
            raise NonpositiveParameter(
                "mu = 0 (Euler limit) is disabled by default; set allow_inviscid")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise NonpositiveParameter(f"time step must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise NonpositiveParameter(f"t_end must be finite and nonnegative, got {self.t_end}")
        if not self.t_end / self.dt < MAX_STEPS + 0.5:  # NaN and inf fail the comparison
            raise ValueError(f"step count t_end / dt = {self.t_end:g} / {self.dt:g} "
                             f"is above MAX_STEPS = {MAX_STEPS} or not finite")
        if self.alpha is not None and not (math.isfinite(self.alpha) and self.alpha > 0):
            raise NonpositiveParameter(f"penalty must be finite and positive, got {self.alpha}")
        if self.bc not in ("noslip", "freeslip"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.initial not in ("stokes", "zero"):
            raise ValueError(f"unknown initial condition {self.initial!r}")


def _max_abs(A: sp.spmatrix) -> float:
    """The largest |entry| of A, 0 for an empty A, without a copy of A."""
    return float(max(A.data.max(initial=0.0), -A.data.min(initial=0.0)))


def _zero_forcing(x, t):
    return np.zeros_like(x)


_zero_forcing.steady = True


# ---------------------------------------------------------------- operators
# Penalty of the saddle-point oracle, gamma = _AL_PENALTY |A| / |B'WB| in
# largest entries, so that it does not depend on the scale of mu.  10 takes
# 7-9 steps from a zero start; a larger penalty takes fewer but leaves a
# larger momentum residual (genus-2 block, k = 3, relative to |f|: 1.4e-12
# in 9 steps at 10, 2.1e-12 in 5 at 100, 1.1e-11 in 4 at 1000).
_AL_PENALTY = 10.0


class FlowOperators:
    """Spaces, forms and the embedding for one (mesh, config) pair.

    emb holds HodgeSolver.E, the one rot embedding a run keeps: the steps,
    make_state, the Stokes refinement and the snapshots read it.  A_red is
    the BlockSystem of A_visc, restricted once with E as interpolated,
    whose rounding entries, left out of HodgeSolver.E, shape A_ss's
    ordering; that E is assembled only as the argument of that restriction
    and is freed when the constructor returns.  The load of a steady
    forcing is assembled here too, so a forcing that is not finite fails at
    construction with NaNDetected, and the load tabulation is kept only for
    a forcing that reads t; a viscous form that is not finite (mu = 1e308
    overflows it) raises SolverFailure.

    A basis passed in is checked by HodgeSolver.validate_basis; without one
    the basis is drawn with config.seed, and the streamfunction factor L
    the draws used is released: no flow solve uses it.  The pressure side
    they built, HodgeSolver.right_inverse, stays for the pressure solves.

    A_visc, the viscous form on the parent space (an empty matrix at mu =
    0), and A_red are plain attributes built in the constructor;
    run_simulation and the stokes command delete what their run no longer
    reads.  pressure_mass is built on first use: only the saddle oracle and
    the stokes command's pressure discrepancy read it.  stokes_saddle keeps
    nothing: its basis and factor, of order n_V - n_qp (no n_V x n_V
    penalized block), die with the call.
    """

    def __init__(self, mesh: SurfaceMesh, config: SimulationConfig,
                 basis: HarmonicBasis | None = None):
        self.mesh, self.config, self.hodge = mesh, config, HodgeSolver(mesh, config.k)
        if basis is None:
            basis = self.hodge.harmonic_basis(seed=config.seed)
            vars(self.hodge).pop("laplace_operator", None)  # b1 = 0 draws build none
        else:
            self.hodge.validate_basis(basis)
        self.basis = basis
        self.V, self.S, self.Q, self.M = self.hodge.V, self.hodge.S, self.hodge.Q, self.hodge.M
        self.emb = JEmbedding(self.hodge.E, basis.vectors)
        if config.mu == 0:  # no viscous form remains
            self.A_visc = sp.csr_matrix((self.V.total_dofs,) * 2)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                self.A_visc = asm.assemble_sip(self.V, mu=config.mu, alpha=config.alpha,
                                               dirichlet=(config.bc == "noslip"))
            if not np.isfinite(self.A_visc.data).all():
                alpha = "" if config.alpha is None else f", alpha = {config.alpha:g}"
                raise SolverFailure(f"viscous form is not finite at mu = {config.mu:g}{alpha}")
        self.A_red = JEmbedding(asm.assemble_rot_embedding(self.S, self.V),
                                basis.vectors).reduce_matrix(self.A_visc)
        self.forcing = config.forcing if config.forcing is not None else _zero_forcing
        self._held_L_psi = None  # (psi, L psi) of the state make_state made last
        self._steady_load = None
        if getattr(self.forcing, "steady", False):
            b = asm.assemble_load(self.V, self.forcing, time=0.0)
            b.flags.writeable = False
            self._steady_load = b
        else:
            self._load_tab = asm.load_tabulation(self.V)

    @cached_property
    def pressure_mass(self) -> sp.csr_matrix:
        """The mass matrix of Q: not diagonal, it pairs every local mode."""
        return asm.assemble_mass(self.Q)

    # ------------------------------------------------------------- loads
    def load_vector(self, t: float) -> np.ndarray:
        """Load of the forcing at time t.  A forcing marked steady (an
        attribute steady = True: it ignores t) is assembled once, when the
        operators are built, and every call returns that read-only array."""
        if self._steady_load is not None:
            return self._steady_load
        return asm.assemble_load(self.V, self.forcing, time=t, tab=self._load_tab)

    def make_state(self, t: float, x_s: np.ndarray, x_h: np.ndarray,
                   step: int = 0, t0: float | None = None) -> FlowState:
        """The state (x_s, x_h) at t, with energy 1/2 (psi' L psi + |x_h|^2)
        in the reduced mass diag(L, I); NaNDetected if it is not finite.

        The state's psi coefficients are a read-only view, and the product
        L psi is held for the last state made (_stream_mass_product), so the
        next step and run_simulation's record of that state form no second
        one."""
        h = np.asarray(x_h, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            u, psi = self.emb.apply(x_s, h), self.hodge.stream_field(x_s)
            L_psi = self.hodge.L @ psi.coefficients
            energy = 0.5 * (psi.coefficients @ L_psi + h @ h)
        if not math.isfinite(energy):
            raise NaNDetected(f"non-finite state at t = {t:g}")
        psi.coefficients = psi.coefficients.view()
        psi.coefficients.flags.writeable = False
        self._held_L_psi = (psi.coefficients, L_psi)
        return FlowState(
            t=t,
            psi=psi,
            h_coeffs=h,
            u=FeField(self.V, u),
            kinetic_energy=float(energy),
            step=step,
            t0=t0,
        )

    def _stream_mass_product(self, state: FlowState) -> np.ndarray:
        """L psi of state's streamfunction coefficients: the product
        make_state formed, when state's psi is the one make_state made last
        (the same array object), and a new product otherwise, such as for a
        state built by hand or a copy whose psi was replaced."""
        held = self._held_L_psi
        if held is not None and held[0] is state.psi.coefficients:
            return held[1]
        return self.hodge.L @ state.psi.coefficients

    def initial_state(self) -> FlowState:
        """The state at t = 0 that config.initial names: zero, or the
        Stokes solution for the forcing's load (stokes_reduced), whose
        factor is released when this returns."""
        if self.config.initial == "zero":
            return self.make_state(0.0, np.zeros(self.emb.n_stream), np.zeros(self.emb.n_harmonic))
        return self.stokes_reduced()[0]

    # ------------------------------------------------------------- Stokes
    def stokes_reduced(self, load: np.ndarray | None = None):
        """Solve the reduced viscous problem for load (default: the
        forcing's load at t = 0); returns (state, info), the state at t = 0
        and info holding sparse_solves (n_harmonic + 1, the Schur solve),
        refinement_solves (1) and n_harmonic.  The solve is refined once
        against the parent-space residual b - A u: A_ss = E' A E is
        conditioned like a fourth-order operator (48x24 torus, k = 2: a
        velocity gap to stokes_saddle of 4.6e-9, and 8e-13 refined).

        Raises SingularOperator when the streamfunction block is singular
        beyond the constants, e.g. for mu = 0, where no viscous form remains,
        and make_state's NaNDetected when the state is not finite.
        """
        b = self.load_vector(0.0) if load is None else load
        solver = ReducedSolver(self.A_red)
        x_s, x_h = solver.solve(*self.emb.reduce_vector(b))
        info = {"sparse_solves": solver.sparse_solves, "refinement_solves": 1,
                "n_harmonic": self.A_red.n_harmonic}
        r = b - self.A_visc @ self.emb.apply(x_s, x_h)
        d_s, d_h = solver.solve(*self.emb.reduce_vector(r))
        return self.make_state(0.0, x_s + d_s, x_h + d_h), info

    def stokes_saddle(self, load: np.ndarray | None = None,
                      pressure: FeField | np.ndarray | None = None):
        """Velocity-pressure saddle-point oracle [[A, B'], [B, 0]] [u; p] =
        [f; 0] on the parent space, A = A_visc, with a zero-mean pressure; f
        defaults to the forcing's load at t = 0.  Returns (u, p).

        Each triangle's bubbles map one to one onto its higher pressure modes
        qp through PK, the local inverse of pressure_solve, so B[qp] u = 0 is
        met by construction: u = P z, and only the mean modes q0 are
        iterated; q0, B0 = B[q0], P and PK' are HodgeSolver.right_inverse's.
        Augmented-Lagrangian (iterated penalty) solve on one SPD factor, of
        P'(A + gamma B0'W0 B0) P with W0 the inverse of the pressure mass's
        diagonal on q0: each step solves for z with load P'(f - B0'p0) and
        sets p0 += gamma W0 B0 u.  Just before that factor is built, the C
        heap's freed pages are handed back to the OS
        (linalg._release_free_heap), so it does not land on what the set-up
        and the reduced solve freed; nothing after it reuses those pages.
        The loop leaves p[qp] as it was; one correction by the bubble rows of
        the momentum residual, p[qp] += (PK'(f - A u - B'p))[qp], then
        recovers it.  Every iterate satisfies the momentum equation tested
        with P, so the loop may start from any multiplier: pressure, a field
        on Q or its coefficients (default zero).  It stops at the first step
        after the first with |B0 u|_W0 <= 1e-13 |u|_M, so the result does not
        depend on the start beyond that tolerance.  From
        reconstruct_pressure's pressure it stops after 2 solves, against 7-9
        from zero.  Where rounding keeps the relative divergence above 1e-13
        (k = 4: it levels off at 3e-13 to 7e-13), the loop stops at its
        plateau instead: at the first step from the third on whose relative
        divergence is at most 1e-10 and not below the step before's.  A
        converging loop lowers it at every step, also at a slow rate such as
        1/2.  Each solve is written as a correction of u by the momentum
        residual, which the next step then removes, as in iterative
        refinement; a warm start's one step alone left twice the momentum
        residual of a cold start, hence the second step.  The factor is
        nonsingular exactly when the saddle matrix is; SolverFailure is raised
        when it is not (e.g. mu = 0) and after 100 steps.  A start of the wrong
        shape raises DimensionMismatch, one that is not finite NaNDetected.
        """
        b = self.load_vector(0.0) if load is None else load
        B = self.hodge.B
        p = np.zeros(B.shape[0]) if pressure is None else np.array(  # a copy: p is updated
            getattr(pressure, "coefficients", pressure), dtype=float)
        if p.shape != (B.shape[0],):
            raise DimensionMismatch(f"starting pressure shape {p.shape} != ({B.shape[0]},)")
        if not np.isfinite(p).all():
            raise NaNDetected("non-finite starting pressure")
        R = self.hodge.right_inverse  # built once the start is accepted
        q0, B0, w = R.q0, R.B0, 1.0 / self.pressure_mass.diagonal()
        # the largest entry of the semidefinite B'WB is on its diagonal
        gamma = _AL_PENALTY * _max_abs(self.A_visc) / (B.multiply(B).T @ w).max()
        P, w0 = R.divergence_mean_basis(), w[q0]
        B0P = B0 @ P
        K = (self.A_visc @ P).T @ P + B0P.T @ sp.diags(gamma * w0) @ B0P  # (A P)' = P' A
        _release_free_heap()  # the set-up's freed pages, before the run's last large factor
        try:
            op = FactorizedOperator(K)
        except (SingularMatrix, NotSPD) as exc:
            raise SolverFailure(f"saddle-point solve failed: {exc}") from exc
        PT, B0T, gw, p0 = P.T, B0.T, gamma * w0, p[q0]
        u, div = np.zeros(B.shape[1]), np.zeros(q0.size)
        last = math.inf
        for step in range(100):
            u += P @ op.solve(PT @ (b - self.A_visc @ u - B0T @ (p0 + gw * div)))
            div = B0 @ u
            p0 += gw * div
            div_norm, u_norm = math.sqrt(div @ (w0 * div)), mnorm(u, self.M)
            if step and div_norm <= 1e-13 * u_norm:
                break
            rel = div_norm / u_norm if u_norm else math.inf
            if step >= 2 and last <= rel <= 1e-10:  # rounding level: no step lowers it
                break
            last = rel
        else:
            raise SolverFailure("saddle-point solve did not converge in 100 steps")
        p[q0] = p0
        p += R.higher_modes(b - self.A_visc @ u - B.T @ p)
        return FeField(self.V, u), self.hodge.pressure_field(p)

    def reconstruct_pressure(self, state: FlowState, load: np.ndarray | None = None) -> FeField:
        """Recover the pressure from a reduced velocity solution.

        The force residual r = f(v) - a(u, v) vanishes on the
        divergence-free subspace, so r = B' p for the saddle-point pressure
        p, and HodgeSolver.pressure_solve returns it with zero mean.  load
        defaults to the forcing's load at state.t.
        """
        if load is None:
            load = self.load_vector(state.t)
        residual = load - self.A_visc @ state.u.coefficients
        return FeField(self.Q, self.hodge.pressure_solve(residual))


# ----------------------------------------------------------- time stepping
class NavierStokesStepper:
    """Semi-implicit Euler: viscosity implicit, convection explicit.

    The step operator is A_red plus the reduced mass diag(L, I) over dt,
    factorized once (costing n_harmonic + 1 sparse solves) and reused.
    Each step costs one matrix-free convection action and one sparse solve,
    plus one load assembly only when the forcing is time-dependent.  Its
    other fixed work: the finiteness checks of u and of b = f - C(u) u,
    the restriction E'b, H b plus the mass terms L psi / dt, h / dt (L psi
    is the product make_state formed for the state it made last), the
    b1 x b1 Cholesky solve by LAPACK's potrs and make_state.  The
    convection tabulation, V's gather operators and every transpose a step
    applies are built here.
    """

    def __init__(self, ops: FlowOperators):
        self.ops = ops
        dt, red = ops.config.dt, ops.A_red
        # the step block, A_red plus diag(L, I) / dt: the solver keeps only
        # its factor and A_sh, so the sparse block dies with this frame.
        # L' = L (exactly symmetric) as a csc view, so the sum is csc at once
        system = BlockSystem(red.A_ss + ops.hodge.L.T / dt, red.A_sh,
                             red.A_hh + np.eye(red.n_harmonic) / dt)
        try:
            self.solver = ReducedSolver(system)
        except SingularOperator as exc:  # the mass shift makes this unexpected
            raise SolverFailure(f"time-step operator singular: {exc}") from exc
        self._cfl_warned = False
        self._conv_cache = asm.convection_tabulation(ops.V)

    def step(self, state: FlowState) -> FlowState:
        """Advance one IMEX Euler step.  Raises NaNDetected, with no numpy
        warning before it, at a right-hand side, state or kinetic energy
        that is not finite: a run that diverges stops at its first step
        that overflows."""
        ops = self.ops
        cfg = ops.config
        u = state.u
        if not np.isfinite(u.coefficients).all():
            raise NaNDetected(f"non-finite state at t = {state.t:g}")
        n = state.step + 1
        t_next = state.t0 + n * cfg.dt
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            # first, so that the convection form's space and divergence checks
            # see the state before anything else evaluates it
            cu, umax = asm.convection_action(self._conv_cache, u, u.coefficients)
            if umax > 0 and cfg.dt > 0.5 * ops.mesh.h_min / umax and not self._cfl_warned:
                warnings.warn(
                    f"time step {cfg.dt:g} exceeds the convective CFL bound "
                    f"{0.5 * ops.mesh.h_min / umax:g}", RuntimeWarning)
                self._cfl_warned = True
            b = ops.load_vector(t_next) - cu
            if not np.isfinite(b).all():
                raise NaNDetected(f"non-finite right-hand side at t = {t_next:g}")
            b_s, b_h = ops.emb.reduce_vector(b)
            x_s, x_h = self.solver.solve(b_s + ops._stream_mass_product(state) / cfg.dt,
                                         b_h + state.h_coeffs / cfg.dt)
        return ops.make_state(t_next, x_s, x_h, step=n, t0=state.t0)


@dataclass(eq=False)
class SimulationResult:
    """Time series and final state of a Navier-Stokes run.

    records rows: (t, kinetic_energy, harmonic_norm, rot_norm, h_1..h_b1);
    the harmonic basis is orthonormal so harmonic_norm = |h_coeffs|.
    """

    records: np.ndarray
    final_state: FlowState
    output_files: list
    basis: HarmonicBasis

    @property
    def times(self):
        return self.records[:, 0]

    @property
    def kinetic_energy(self):
        return self.records[:, 1]

    @property
    def harmonic_norms(self):
        return self.records[:, 2]


def run_simulation(mesh: SurfaceMesh, config: SimulationConfig,
                   basis: HarmonicBasis | None = None,
                   out_dir=None, initial_state: FlowState | None = None) -> SimulationResult:
    """Advance the unsteady problem to t_end.

    The initial condition is the Stokes solution for the configured forcing
    (or zero, or an explicitly supplied state).  The run releases each
    operator once it stops reading it, so every later factor lands on less
    resident memory: the pressure side HodgeSolver.right_inverse, L0 with
    it, before the start (a run reconstructs no pressure), A_visc once the
    start is solved, and A_red once the step factor exists; the stepper
    keeps no sparse step block.  A released attribute is gone.  Snapshots
    (velocity, its rotational and harmonic parts, the streamfunction) are
    emitted every output_every steps through the vtk module when out_dir is
    given; a CSV time series is always accumulated and written to out_dir
    when given.
    """
    from . import vtkio

    ops = FlowOperators(mesh, config, basis)
    vars(ops.hodge).pop("right_inverse", None)  # a run reconstructs no pressure
    # the start first: its Stokes factor is freed before the step factor exists
    state = ops.initial_state() if initial_state is None else initial_state
    del ops.A_visc  # read last by the start's refinement
    stepper = NavierStokesStepper(ops)
    del ops.A_red  # the step factor exists: the steps do not read it
    n_steps = int(round(config.t_end / config.dt))
    outputs = []

    def record(st: FlowState):
        rot_norm = mnorm(st.psi.coefficients, ops.hodge.L, ops._stream_mass_product(st))
        h_norm = float(np.linalg.norm(st.h_coeffs))
        return [st.t, st.kinetic_energy, h_norm, rot_norm, *st.h_coeffs.tolist()]

    def snapshot(st: FlowState, index: int):
        if out_dir is None:
            return
        path = vtkio.write_flow_snapshot(out_dir, index, ops, st)
        outputs.append(path)

    rows = [record(state)]
    snapshot(state, 0)
    for n in range(1, n_steps + 1):
        state = stepper.step(state)
        rows.append(record(state))
        if config.output_every and n % config.output_every == 0:
            snapshot(state, n)
    records = np.array(rows)
    if out_dir is not None:
        outputs.append(vtkio.write_timeseries_csv(out_dir, records,
                                                  ops.emb.n_harmonic))
    return SimulationResult(records=records, final_state=state,
                            output_files=outputs, basis=ops.basis)

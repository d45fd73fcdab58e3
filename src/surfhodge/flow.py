"""Pressure-free surface Stokes and Navier-Stokes solvers.

Velocity is sought directly in the divergence-free H(div) subspace through
its streamfunction + harmonic parametrization: operators are assembled in
the parent H(div) space and restricted once, by JEmbedding.reduce_matrix,
to a BlockSystem: a sparse streamfunction block, b1 dense harmonic columns
and their transpose, and the gauge.  ReducedSolver factorizes that
operator and solves it for any load by a Schur complement, with exactly
(number of harmonic dofs + 1) sparse solves for the first load.

A velocity-pressure saddle-point solver on the full H(div) space serves as
the cross-validation oracle; both formulations produce the same velocity up
to solver precision.

Time stepping for Navier-Stokes is semi-implicit Euler: viscosity implicit
(the reduced operator is factorized once and reused), convection explicit.
Each step costs one convection action and one sparse solve, plus one load
assembly only when the forcing is time-dependent: the load of a steady
forcing is assembled once, when FlowOperators is built.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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
from .linalg import FactorizedOperator, check_symmetric
from .mesh import SurfaceMesh


# ---------------------------------------------------------------- embedding
class JEmbedding:
    """Injection of (streamfunction, harmonic) coefficients into the parent
    H(div) coefficient space.

    The first block maps Lagrange coefficients to the H(div) coefficients
    of their rotated gradients; the last b1 columns are the harmonic basis
    vectors.  The matrix has full column rank; the parent operators it
    restricts are symmetric.
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
        out = self.E @ x_stream
        if self.n_harmonic:
            out = out + self.H.T @ x_harmonic
        return out

    def reduce_vector(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.ET @ b, self.H @ b

    def reduce_matrix(self, A: sp.spmatrix, gauge: np.ndarray | None = None) -> BlockSystem:
        """Restrict a symmetric parent-space operator to the divergence-free
        subspace: the BlockSystem of T' A T in the (stream, harmonic)
        partition, with the given gauge on its streamfunction block.
        Raises DimensionMismatch unless A is square on the parent space and
        NotSPD when |A - A'| > 1e-12 |A|."""
        n = self.E.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch(f"operator shape {A.shape} != parent dim {n}")
        check_symmetric(sp.csr_matrix(A), "operator to restrict")
        AH = A @ self.H.T  # (N, b1) dense
        return BlockSystem((self.ET @ (A @ self.E)).tocsc(), self.ET @ AH, self.H @ AH, gauge)


@dataclass
class BlockSystem:
    """Symmetric reduced operator [[A_ss, A_sh], [A_sh', A_hh]]: sparse
    streamfunction block, dense harmonic columns and block, and the gauge
    of A_ss, the moment vector of its zero-mean constraint on closed
    surfaces (None on surfaces with boundary).  Loads are not part of it;
    ReducedSolver.solve takes them."""

    A_ss: sp.spmatrix
    A_sh: np.ndarray
    A_hh: np.ndarray
    gauge: np.ndarray | None = None

    @property
    def n_stream(self) -> int:
        return self.A_ss.shape[0]

    @property
    def n_harmonic(self) -> int:
        return self.A_hh.shape[0]


class ReducedSolver:
    """Schur-complement solver for a BlockSystem with a reusable
    factorization; the Schur complement is A_hh - A_sh' A_ss^-1 A_sh.

    Setup solves for the n_harmonic columns, so the first solve(b_s, b_h)
    brings the count of sparse solves to n_harmonic + 1; each further load
    costs one sparse solve.  A singular streamfunction block (an un-gauged
    kernel, or a gauge that does not fix it) is detected by
    FactorizedOperator's near-null-vector test and raised as
    SingularOperator.
    """

    def __init__(self, system: BlockSystem):
        self.system = system
        try:
            self.op = FactorizedOperator(system.A_ss, system.gauge, kind="SPD")
        except (SingularMatrix, NotSPD) as exc:
            raise SingularOperator(
                "streamfunction block is singular; an un-gauged kernel remains"
            ) from exc
        nh = system.n_harmonic
        if nh:
            self.Z = self.op.solve(np.asarray(system.A_sh, dtype=float))
            S = system.A_hh - system.A_sh.T @ self.Z
            try:
                self._schur_lu = dla.lu_factor(S)
            except (ValueError, dla.LinAlgError) as exc:
                raise SingularSchur(str(exc)) from exc
            if not np.isfinite(S).all() or abs(np.diag(self._schur_lu[0])).min() == 0.0:
                raise SingularSchur("harmonic Schur complement is singular")
        else:
            self.Z = np.zeros((system.n_stream, 0))
            self._schur_lu = None

    @property
    def sparse_solves(self) -> int:
        return self.op.solve_count

    def solve(self, b_s: np.ndarray, b_h: np.ndarray):
        z0 = self.op.solve(b_s)
        if self.system.n_harmonic == 0:
            return z0, np.zeros(0)
        x_h = dla.lu_solve(self._schur_lu, b_h - self.system.A_sh.T @ z0)
        x_s = z0 - self.Z @ x_h
        return x_s, x_h


# -------------------------------------------------------------------- state
@dataclass
class FlowState:
    """Velocity state of a flow computation: time, streamfunction and
    harmonic coefficients, the cached velocity field, its mass product
    Mu = M u (the next step's right-hand side reads it) and its energy.

    A time-stepped state also records its step index and the time t0 its
    run started from, so that t = t0 + step * dt holds without the rounding
    that summing dt would accumulate.
    """

    t: float
    psi: FeField
    h_coeffs: np.ndarray
    u: FeField
    Mu: np.ndarray
    kinetic_energy: float
    step: int = 0
    t0: float | None = None

    def __post_init__(self):
        if self.t0 is None:
            self.t0 = self.t


@dataclass
class SimulationConfig:
    """Parameters of a Stokes solve or Navier-Stokes run.

    The momentum equation is u_t + (u . grad) u - div(mu eps(u)) + grad p
    = f with div u = 0 (Stokes: without u_t and convection), eps(u) the
    tangential symmetric gradient; the viscous element term is mu
    eps(u):eps(v), so mu is twice the nu of -nu Lap u.  k, output_every and
    seed are integers, the last two nonnegative; mu, dt, t_end and alpha
    are finite, dt and alpha positive, mu and t_end nonnegative;
    allow_inviscid is a bool.
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
        if self.alpha is not None and not (math.isfinite(self.alpha) and self.alpha > 0):
            raise NonpositiveParameter(f"penalty must be finite and positive, got {self.alpha}")
        if self.bc not in ("noslip", "freeslip"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.initial not in ("stokes", "zero"):
            raise ValueError(f"unknown initial condition {self.initial!r}")


def _zero_forcing(x, t=0.0):
    return np.zeros_like(x)


_zero_forcing.steady = True


# ---------------------------------------------------------------- operators
class FlowOperators:
    """Spaces, forms and the embedding for one (mesh, config) pair; A_red
    is the BlockSystem of A_visc with the gauge, restricted once.  The
    load of a steady forcing is assembled here too, so a forcing that is
    not finite fails at construction with NaNDetected.

    A basis passed in is checked by HodgeSolver.validate_basis; without one
    the basis is drawn with config.seed.
    """

    def __init__(self, mesh: SurfaceMesh, config: SimulationConfig,
                 basis: HarmonicBasis | None = None):
        self.mesh = mesh
        self.config = config
        self.hodge = HodgeSolver(mesh, config.k)
        if basis is None:
            basis = self.hodge.harmonic_basis(seed=config.seed)
        else:
            self.hodge.validate_basis(basis)
        self.basis = basis
        self.V = self.hodge.V
        self.S = self.hodge.S
        self.Q = self.hodge.Q
        self.M = self.hodge.M
        self.emb = JEmbedding(self.hodge.E, basis.vectors)
        self.gauge = self.hodge.gauge
        if config.mu == 0:
            self.A_visc = sp.csr_matrix((self.V.total_dofs, self.V.total_dofs))
        else:
            self.A_visc = asm.assemble_sip(
                self.V, mu=config.mu, alpha=config.alpha,
                dirichlet=(config.bc == "noslip"))
        self.A_red = self.emb.reduce_matrix(self.A_visc, self.gauge)
        self.forcing = config.forcing if config.forcing is not None else _zero_forcing
        self._load_tab = asm.load_tabulation(self.V)
        self._steady_load = None
        if getattr(self.forcing, "steady", False):
            b = asm.assemble_load(self.V, self.forcing, time=0.0, tab=self._load_tab)
            b.flags.writeable = False
            self._steady_load = b

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
        u = self.emb.apply(x_s, x_h)
        Mu = self.M @ u
        return FlowState(
            t=t,
            psi=FeField(self.S, x_s),
            h_coeffs=np.asarray(x_h, dtype=float),
            u=FeField(self.V, u),
            Mu=Mu,
            kinetic_energy=0.5 * float(u @ Mu),
            step=step,
            t0=t0,
        )

    # ------------------------------------------------------------- Stokes
    def stokes_reduced(self, load: np.ndarray | None = None):
        """Solve the reduced viscous problem for load (default: the
        forcing's load at t = 0); returns (state, info), the state at t = 0
        and info holding sparse_solves (n_harmonic + 1) and n_harmonic.

        Raises SingularOperator when the gauged streamfunction block is
        singular, e.g. for mu = 0, where no viscous form remains.
        """
        b = self.load_vector(0.0) if load is None else load
        solver = ReducedSolver(self.A_red)
        x_s, x_h = solver.solve(*self.emb.reduce_vector(b))
        info = {"sparse_solves": solver.sparse_solves, "n_harmonic": self.A_red.n_harmonic}
        return self.make_state(0.0, x_s, x_h), info

    def stokes_saddle(self, load: np.ndarray | None = None):
        """Velocity-pressure saddle-point oracle [[0, B], [B', A]] [p; u] =
        [0; f] on the parent space, pressure first and gauged to zero mean by
        FactorizedOperator's gauge [m; 0], m its moment; f defaults to the
        forcing's load at t = 0.  Returns (u, p)."""
        b = self.load_vector(0.0) if load is None else load
        nQ = self.Q.total_dofs
        K = sp.bmat([[None, self.hodge.B], [self.hodge.B.T, self.A_visc]], format="csc")
        gauge = np.concatenate([asm.assemble_moment(self.Q), np.zeros(self.V.total_dofs)])
        try:
            sol = FactorizedOperator(K, gauge).solve(np.concatenate([np.zeros(nQ), b]))
        except SingularMatrix as exc:
            raise SolverFailure(f"saddle-point solve failed: {exc}") from exc
        return FeField(self.V, sol[nQ:]), FeField(self.Q, sol[:nQ])

    def reconstruct_pressure(self, state: FlowState, load: np.ndarray | None = None) -> FeField:
        """Recover the pressure from a reduced velocity solution.

        The force residual r = f(v) - a(u, v) vanishes on the
        divergence-free subspace, so r = B' p for the saddle-point pressure
        p; the discrete pressure Poisson equation B B' p = B r returns it
        with zero mean.  load defaults to the forcing's load at state.t.
        """
        if load is None:
            load = self.load_vector(state.t)
        residual = load - self.A_visc @ state.u.coefficients
        return FeField(self.Q, self.hodge.pressure_solve(residual))


# ----------------------------------------------------------- time stepping
class NavierStokesStepper:
    """Semi-implicit Euler: viscosity implicit, convection explicit.

    The reduced operator of M/dt + A_visc is summed from existing blocks,
    L/dt + A_ss, M_sh/dt + A_sh and M_hh/dt + A_hh, and factorized once
    (costing n_harmonic + 1 sparse solves) and reused; each step costs one
    matrix-free convection action and one sparse solve, plus one load
    assembly only when the forcing is time-dependent.
    """

    def __init__(self, ops: FlowOperators):
        self.ops = ops
        dt = ops.config.dt
        red = ops.A_red
        # the harmonic columns M H' restricted like loads: E' M H', H M H'
        M_sh, M_hh = ops.emb.reduce_vector(ops.M @ ops.emb.H.T)
        self.system = BlockSystem((ops.hodge.L / dt + red.A_ss).tocsc(), M_sh / dt + red.A_sh,
                                  M_hh / dt + red.A_hh, red.gauge)
        try:
            self.solver = ReducedSolver(self.system)
        except SingularOperator as exc:  # M/dt shift makes this unexpected
            raise SolverFailure(f"time-step operator singular: {exc}") from exc
        self._cfl_warned = False
        self._conv_cache = asm.convection_tabulation(ops.V)

    def initial_state(self) -> FlowState:
        cfg = self.ops.config
        if cfg.initial == "zero":
            return self.ops.make_state(
                0.0, np.zeros(self.ops.emb.n_stream),
                np.zeros(self.ops.emb.n_harmonic))
        state, _ = self.ops.stokes_reduced()
        return state

    def step(self, state: FlowState) -> FlowState:
        """Advance one IMEX Euler step."""
        ops = self.ops
        cfg = ops.config
        u = state.u
        if not np.isfinite(u.coefficients).all():
            raise NaNDetected(f"non-finite state at t = {state.t:g}")
        # first, so that the convection form's space and divergence checks
        # see the state before anything else evaluates it
        cu, umax = asm.convection_action(ops.V, u, u.coefficients, self._conv_cache)
        if umax > 0 and cfg.dt > 0.5 * ops.mesh.h_min / umax and not self._cfl_warned:
            warnings.warn(
                f"time step {cfg.dt:g} exceeds the convective CFL bound "
                f"{0.5 * ops.mesh.h_min / umax:g}", RuntimeWarning)
            self._cfl_warned = True
        n = state.step + 1
        t_next = state.t0 + n * cfg.dt
        b = state.Mu / cfg.dt - cu + ops.load_vector(t_next)
        if not np.isfinite(b).all():
            raise NaNDetected(f"non-finite right-hand side at t = {t_next:g}")
        b_s, b_h = ops.emb.reduce_vector(b)
        x_s, x_h = self.solver.solve(b_s, b_h)
        if not (np.isfinite(x_s).all() and np.isfinite(x_h).all()):
            raise NaNDetected(f"non-finite state at t = {t_next:g}")
        return ops.make_state(t_next, x_s, x_h, step=n, t0=state.t0)


@dataclass
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
    (or zero, or an explicitly supplied state).  Snapshots (velocity, its
    rotational and harmonic parts, the streamfunction) are emitted every
    output_every steps through the vtk module when out_dir is given; a CSV
    time series is always accumulated and written to out_dir when given.
    """
    from . import vtkio

    ops = FlowOperators(mesh, config, basis)
    stepper = NavierStokesStepper(ops)
    state = stepper.initial_state() if initial_state is None else initial_state
    n_steps = int(round(config.t_end / config.dt))
    outputs = []

    def record(st: FlowState):
        rot = ops.emb.E @ st.psi.coefficients
        rot_norm = float(np.sqrt(max(rot @ (ops.M @ rot), 0.0)))
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

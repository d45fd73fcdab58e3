"""Pressure-free surface Stokes and Navier-Stokes solvers.

Velocity is sought directly in the divergence-free H(div) subspace through
its streamfunction + harmonic parametrization: operators are assembled in
the parent H(div) space and restricted via the embedding whose columns are
rotated Lagrange basis functions and the harmonic basis vectors.  The
resulting system couples a sparse streamfunction block with b1 dense
harmonic rows/columns and is solved by a Schur complement that costs
exactly (number of harmonic dofs + 1) sparse solves.

A velocity-pressure saddle-point solver on the full H(div) space serves as
the cross-validation oracle; both formulations produce the same velocity up
to solver precision.

Time stepping for Navier-Stokes is semi-implicit Euler: viscosity implicit
(the reduced operator is factorized once and reused), convection explicit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp

from . import assembly as asm
from .errors import (
    DimensionMismatch,
    NaNDetected,
    NonpositiveParameter,
    SingularMatrix,
    SingularOperator,
    SingularSchur,
    SolverFailure,
)
from .fespace import FeField
from .hodge import HarmonicBasis, HodgeSolver
from .linalg import FactorizedOperator
from .mesh import SurfaceMesh


# ---------------------------------------------------------------- embedding
class JEmbedding:
    """Injection of (streamfunction, harmonic) coefficients into the parent
    H(div) coefficient space.

    The first block maps Lagrange coefficients to the H(div) coefficients
    of their rotated gradients; the last b1 columns are the harmonic basis
    vectors.  The matrix has full column rank.
    """

    def __init__(self, E: sp.spmatrix, H: np.ndarray):
        self.E = E.tocsr()
        self.H = np.asarray(H, dtype=float)
        if self.H.ndim != 2 or self.H.shape[1] != self.E.shape[0]:
            raise DimensionMismatch("harmonic block shape does not match embedding")

    @property
    def n_parent(self) -> int:
        return self.E.shape[0]

    @property
    def n_stream(self) -> int:
        return self.E.shape[1]

    @property
    def n_harmonic(self) -> int:
        return self.H.shape[0]

    def matrix(self) -> sp.csr_matrix:
        """The full embedding as one sparse matrix (parent x reduced)."""
        return sp.hstack([self.E, sp.csr_matrix(self.H.T)]).tocsr()

    def apply(self, x_stream: np.ndarray, x_harmonic: np.ndarray) -> np.ndarray:
        out = self.E @ x_stream
        if self.n_harmonic:
            out = out + self.H.T @ x_harmonic
        return out

    def reduce_vector(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.E.T @ b, self.H @ b

    def reduce_matrix(self, A: sp.spmatrix):
        """Blocks of T' A T in the (stream, harmonic) partition."""
        A_ss = (self.E.T @ (A @ self.E)).tocsc()
        if self.n_harmonic:
            AH = A @ self.H.T  # (N, b1) dense
            A_sh = self.E.T @ AH
            A_hs = (self.E.T @ (A.T @ self.H.T)).T
            A_hh = self.H @ AH
        else:
            A_sh = np.zeros((self.n_stream, 0))
            A_hs = np.zeros((0, self.n_stream))
            A_hh = np.zeros((0, 0))
        return A_ss, A_sh, A_hs, A_hh


@dataclass
class BlockSystem:
    """Reduced 2x2 block system: sparse streamfunction block, dense
    harmonic rows/columns, optional gauge constraints on the
    streamfunction block (the zero mean on closed surfaces)."""

    A_ss: sp.spmatrix
    A_sh: np.ndarray
    A_hs: np.ndarray
    A_hh: np.ndarray
    b_s: np.ndarray
    b_h: np.ndarray
    gauges: tuple = field(default_factory=tuple)

    @property
    def n_stream(self) -> int:
        return self.A_ss.shape[0]

    @property
    def n_harmonic(self) -> int:
        return self.A_hh.shape[0]


def build_reduced_system(A: sp.spmatrix, b: np.ndarray, emb: JEmbedding,
                         gauges=()) -> BlockSystem:
    """Restrict a parent-space operator and load to the divergence-free
    subspace via the embedding."""
    n = emb.n_parent
    if A.shape != (n, n):
        raise DimensionMismatch(f"operator shape {A.shape} != parent dim {n}")
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise DimensionMismatch(f"load shape {b.shape} != parent dim {n}")
    A_ss, A_sh, A_hs, A_hh = emb.reduce_matrix(A)
    b_s, b_h = emb.reduce_vector(b)
    return BlockSystem(A_ss, A_sh, A_hs, A_hh, b_s, b_h, tuple(gauges))


class ReducedSolver:
    """Schur-complement solver for a BlockSystem with a reusable
    factorization.

    Setup performs n_harmonic + 1 sparse solves on the first full solve
    (the harmonic columns once, then one per right-hand side); subsequent
    solves with new loads cost one sparse solve each.
    """

    PIVOT_TOL = 1e-13  # LU pivot ratio below this flags a numerically
    # singular streamfunction block (un-gauged kernel)

    def __init__(self, system: BlockSystem):
        self.system = system
        try:
            self.op = FactorizedOperator(system.A_ss, system.gauges)
        except SingularMatrix as exc:
            raise SingularOperator(
                "streamfunction block is singular; an un-gauged kernel remains"
            ) from exc
        if self.op.pivot_ratio < self.PIVOT_TOL:
            raise SingularOperator(
                f"streamfunction block numerically singular "
                f"(pivot ratio {self.op.pivot_ratio:.2e})")
        nh = system.n_harmonic
        if nh:
            self.Z = self.op.solve(np.asarray(system.A_sh, dtype=float))
            if self.Z.ndim == 1:
                self.Z = self.Z[:, None]
            S = system.A_hh - system.A_hs @ self.Z
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
        x_h = dla.lu_solve(self._schur_lu, b_h - self.system.A_hs @ z0)
        x_s = z0 - self.Z @ x_h
        return x_s, x_h


def schur_solve(system: BlockSystem):
    """Solve a BlockSystem; returns (x_stream, x_harmonic, info).

    info['sparse_solves'] counts the solves with the sparse streamfunction
    block: exactly n_harmonic + 1.
    """
    rs = ReducedSolver(system)
    x_s, x_h = rs.solve(system.b_s, system.b_h)
    return x_s, x_h, {"sparse_solves": rs.sparse_solves,
                      "n_harmonic": system.n_harmonic}


def monolithic_solve(system: BlockSystem):
    """Dense solve of the full gauged block system (test oracle)."""
    ns, nh, ng = system.n_stream, system.n_harmonic, len(system.gauges)
    n = ns + nh + ng
    K = np.zeros((n, n))
    K[:ns, :ns] = system.A_ss.toarray()
    if nh:
        K[:ns, ns:ns + nh] = system.A_sh
        K[ns:ns + nh, :ns] = system.A_hs
        K[ns:ns + nh, ns:ns + nh] = system.A_hh
    for i, g in enumerate(system.gauges):
        K[:ns, ns + nh + i] = g
        K[ns + nh + i, :ns] = g
    rhs = np.concatenate([system.b_s, system.b_h, np.zeros(ng)])
    sol = np.linalg.solve(K, rhs)
    return sol[:ns], sol[ns:ns + nh]


# -------------------------------------------------------------------- state
@dataclass
class FlowState:
    """Velocity state of a flow computation: time, streamfunction and
    harmonic coefficients, the cached velocity field and its energy.

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


@dataclass
class SimulationConfig:
    """Parameters of a Stokes solve or Navier-Stokes run."""

    k: int = 1
    mu: float = 0.1
    alpha: float | None = None  # penalty; defaults to 4 (k+1)^2
    dt: float = 1e-3
    t_end: float = 0.1
    output_every: int = 10
    seed: int = 0
    forcing: object | None = None  # callable f(points (n,3), t) -> (n,3)
    initial: str = "stokes"  # "stokes" | "zero"
    bc: str = "noslip"  # "noslip" | "freeslip"
    allow_inviscid: bool = False
    div_tol: float = 1e-10

    def __post_init__(self):
        if self.mu < 0:
            raise NonpositiveParameter("viscosity must be nonnegative")
        if self.mu == 0 and not self.allow_inviscid:
            raise NonpositiveParameter(
                "mu = 0 (Euler limit) is disabled by default; set allow_inviscid")
        if self.dt <= 0:
            raise NonpositiveParameter("time step must be positive")
        if self.alpha is not None and self.alpha <= 0:
            raise NonpositiveParameter("penalty must be positive")
        if self.bc not in ("noslip", "freeslip"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.initial not in ("stokes", "zero"):
            raise ValueError(f"unknown initial condition {self.initial!r}")

    @property
    def alpha_value(self) -> float:
        return self.alpha if self.alpha is not None else 4.0 * (self.k + 1) ** 2


def _zero_forcing(x, t=0.0):
    return np.zeros_like(x)


# ---------------------------------------------------------------- operators
class FlowOperators:
    """Spaces, forms and the embedding for one (mesh, config) pair."""

    def __init__(self, mesh: SurfaceMesh, config: SimulationConfig,
                 basis: HarmonicBasis | None = None):
        self.mesh = mesh
        self.config = config
        self.hodge = HodgeSolver(mesh, config.k)
        if basis is None:
            basis = self.hodge.harmonic_basis(seed=config.seed)
        else:
            self.hodge.check_basis(basis)
        self.basis = basis
        self.V = self.hodge.V
        self.S = self.hodge.S
        self.Q = self.hodge.Q
        self.M = self.hodge.M
        self.emb = JEmbedding(self.hodge.E, basis.vectors)
        self.gauges = [asm.assemble_moment(self.S)] if self.S.zero_mean else []
        mu = config.mu if config.mu > 0 else 1.0
        self.A_visc = asm.assemble_sip(
            self.V, mu=mu, alpha=config.alpha_value,
            dirichlet=(config.bc == "noslip"))
        if config.mu == 0:
            self.A_visc = sp.csr_matrix(self.A_visc.shape)
        self.forcing = config.forcing if config.forcing is not None else _zero_forcing
        self._load_tab = asm.load_tabulation(self.V)

    # ------------------------------------------------------------- loads
    def load_vector(self, t: float) -> np.ndarray:
        return asm.assemble_load(self.V, self.forcing, time=t, tab=self._load_tab)

    def make_state(self, t: float, x_s: np.ndarray, x_h: np.ndarray,
                   step: int = 0, t0: float | None = None) -> FlowState:
        u = self.emb.apply(x_s, x_h)
        ke = 0.5 * float(u @ (self.M @ u))
        return FlowState(
            t=t,
            psi=FeField(self.S, x_s),
            h_coeffs=np.asarray(x_h, dtype=float),
            u=FeField(self.V, u),
            kinetic_energy=ke,
            step=step,
            t0=t0,
        )

    # ------------------------------------------------------------- Stokes
    def stokes_reduced(self, t: float = 0.0, load: np.ndarray | None = None):
        """Solve the reduced viscous problem; returns (state, info).

        Raises SingularOperator when the gauged streamfunction block is
        singular, e.g. for mu = 0, where no viscous form remains.
        """
        b = self.load_vector(t) if load is None else load
        system = build_reduced_system(self.A_visc, b, self.emb, self.gauges)
        x_s, x_h, info = schur_solve(system)
        return self.make_state(t, x_s, x_h), info

    def stokes_saddle(self, t: float = 0.0, load: np.ndarray | None = None):
        """Velocity-pressure saddle-point oracle on the parent space with a
        zero-mean pressure gauge; returns (u, p) fields."""
        b = self.load_vector(t) if load is None else load
        K = self.hodge.saddle_matrix(self.A_visc)
        rhs = np.concatenate([b, np.zeros(self.Q.total_dofs + 1)])
        try:
            sol = FactorizedOperator(K).solve(rhs)
        except SingularMatrix as exc:
            raise SolverFailure(f"saddle-point solve failed: {exc}") from exc
        nV = self.V.total_dofs
        u = FeField(self.V, sol[:nV])
        p = FeField(self.Q, sol[nV:nV + self.Q.total_dofs])
        return u, p

    def reconstruct_pressure(self, state: FlowState, t: float | None = None,
                             load: np.ndarray | None = None,
                             extra_operator: sp.spmatrix | None = None) -> FeField:
        """Recover the pressure from a reduced velocity solution.

        The force residual f(v) - a(u, v) vanishes on the divergence-free
        subspace and is carried entirely by the discrete-gradient
        complement; feeding it through the mixed projection returns the
        multiplier, which equals the saddle-point pressure (mean-zero).
        """
        if load is None:
            load = self.load_vector(state.t if t is None else t)
        residual = load - self.A_visc @ state.u.coefficients
        if extra_operator is not None:
            residual = residual - extra_operator @ state.u.coefficients
        _, lam = self.hodge.mixed_solve(residual)
        return FeField(self.Q, lam)


def solve_stokes_reduced(mesh: SurfaceMesh, config: SimulationConfig,
                         basis: HarmonicBasis | None = None,
                         forcing=None) -> FlowState:
    cfg = config
    if forcing is not None:
        cfg = _with_forcing(config, forcing)
    ops = FlowOperators(mesh, cfg, basis)
    state, _ = ops.stokes_reduced(t=0.0)
    return state


def solve_stokes_saddle(mesh: SurfaceMesh, config: SimulationConfig,
                        forcing=None):
    cfg = config
    if forcing is not None:
        cfg = _with_forcing(config, forcing)
    ops = FlowOperators(mesh, cfg)
    return ops.stokes_saddle(t=0.0)


def _with_forcing(config: SimulationConfig, forcing) -> SimulationConfig:
    from dataclasses import replace

    return replace(config, forcing=forcing)


# ----------------------------------------------------------- time stepping
class NavierStokesStepper:
    """Semi-implicit Euler: viscosity implicit, convection explicit.

    The reduced mass-plus-viscosity operator is factorized once (costing
    n_harmonic + 1 sparse solves) and reused; each step costs one
    matrix-free convection action and one sparse solve.
    """

    def __init__(self, ops: FlowOperators):
        self.ops = ops
        cfg = ops.config
        A_step = (ops.M / cfg.dt + ops.A_visc).tocsr()
        zero = np.zeros(ops.V.total_dofs)
        self.system = build_reduced_system(A_step, zero, ops.emb, ops.gauges)
        try:
            self.solver = ReducedSolver(self.system)
        except SingularOperator as exc:  # M/dt shift makes this unexpected
            raise SolverFailure(f"time-step operator singular: {exc}") from exc
        self._cfl_warned = False
        self._sup_vals, _, _ = asm.tabulate_vector(ops.V, asm.volume_rule(ops.V))
        self._conv_cache = asm.convection_tabulation(ops.V)

    def initial_state(self) -> FlowState:
        cfg = self.ops.config
        if cfg.initial == "zero":
            return self.ops.make_state(
                0.0, np.zeros(self.ops.emb.n_stream),
                np.zeros(self.ops.emb.n_harmonic))
        state, _ = self.ops.stokes_reduced(t=0.0)
        return state

    def _sup_norm(self, u: FeField) -> float:
        loc = u.space.local_coefficients(u.coefficients)
        vals = np.einsum("tl,tlqi->tqi", loc, self._sup_vals)
        return float(np.linalg.norm(vals, axis=-1).max()) if vals.size else 0.0

    def step(self, state: FlowState) -> FlowState:
        """Advance one IMEX Euler step."""
        ops = self.ops
        cfg = ops.config
        u = state.u
        if not np.isfinite(u.coefficients).all():
            raise NaNDetected(f"non-finite state at t = {state.t:g}")
        # first, so that the convection form's space and divergence checks
        # see the state before anything else evaluates it
        cu = asm.convection_action(ops.V, u, u.coefficients,
                                   div_tol=max(cfg.div_tol * 1e2, 1e-8),
                                   cache=self._conv_cache)
        umax = self._sup_norm(u)
        if umax > 0 and cfg.dt > 0.5 * ops.mesh.h_min / umax and not self._cfl_warned:
            warnings.warn(
                f"time step {cfg.dt:g} exceeds the convective CFL bound "
                f"{0.5 * ops.mesh.h_min / umax:g}", RuntimeWarning)
            self._cfl_warned = True
        n = state.step + 1
        t_next = state.t0 + n * cfg.dt
        b = (ops.M @ u.coefficients) / cfg.dt - cu + ops.load_vector(t_next)
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

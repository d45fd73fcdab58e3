from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from surfhodge import assembly as asm
from surfhodge.errors import (
    DegreeMismatch,
    DimensionMismatch,
    NaNDetected,
    NonpositiveParameter,
    NotDivergenceFree,
    SingularOperator,
)
from surfhodge.fespace import FeField
from surfhodge.flow import (
    BlockSystem,
    FlowOperators,
    JEmbedding,
    NavierStokesStepper,
    ReducedSolver,
    SimulationConfig,
    build_reduced_system,
    monolithic_solve,
    run_simulation,
    schur_solve,
    solve_stokes_reduced,
    solve_stokes_saddle,
)


def smooth_forcing(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((3, 3))
    phase = rng.standard_normal(3)

    def f(x, t=0.0):
        return np.stack(
            [np.sin(x[:, 1] + phase[0]) * A[0, 0] + A[0, 1] * x[:, 2],
             np.cos(x[:, 2] + phase[1]) * A[1, 1] + A[1, 0] * x[:, 0],
             np.sin(x[:, 0] + phase[2]) * A[2, 2]], axis=1)

    return f


@pytest.fixture(scope="module")
def torus_ops(torus):
    cfg = SimulationConfig(k=1, mu=0.5, dt=1e-2, t_end=0.0, forcing=smooth_forcing(0))
    return FlowOperators(torus, cfg)


# ----------------------------------------------------------- block systems
def test_embedding_full_column_rank(torus3, basis_cache):
    from surfhodge.hodge import HodgeSolver

    solver = HodgeSolver(torus3, 1)
    emb = JEmbedding(solver.E, basis_cache(torus3, 1).vectors)
    T = emb.matrix().toarray()
    sv = np.linalg.svd(T, compute_uv=False)
    # kernel of the rot block is exactly the constants (one dimension)
    assert (sv > 1e-10 * sv[0]).sum() == T.shape[1] - 1
    # after removing the constant direction, full column rank
    n_s = emb.n_stream
    const = np.zeros(T.shape[1])
    const[:n_s] = 1.0
    Tproj = T - np.outer(T @ const, const) / (const @ const)
    sv2 = np.linalg.svd(Tproj, compute_uv=False)
    assert (sv2 > 1e-10 * sv2[0]).sum() == T.shape[1] - 1


def test_reduced_blocks_match_dense(torus3, basis_cache):
    from surfhodge.hodge import HodgeSolver

    solver = HodgeSolver(torus3, 1)
    emb = JEmbedding(solver.E, basis_cache(torus3, 1).vectors)
    rng = np.random.default_rng(4)
    b = rng.standard_normal(solver.V.total_dofs)
    system = build_reduced_system(solver.M, b, emb)
    T = emb.matrix().toarray()
    A_full = T.T @ solver.M.toarray() @ T
    ns = emb.n_stream
    assert np.abs(system.A_ss.toarray() - A_full[:ns, :ns]).max() < 1e-12
    assert np.abs(system.A_sh - A_full[:ns, ns:]).max() < 1e-12
    assert np.abs(system.A_hs - A_full[ns:, :ns]).max() < 1e-12
    # mass case: orthonormal harmonic block, zero coupling
    assert np.abs(system.A_hh - np.eye(2)).max() < 1e-10
    assert np.abs(system.A_sh).max() < 1e-10
    bs, bh = emb.reduce_vector(b)
    assert np.allclose(np.concatenate([bs, bh]), T.T @ b)


def test_reduced_system_symmetry(torus_ops):
    b = torus_ops.load_vector(0.0)
    system = build_reduced_system(torus_ops.A_visc, b, torus_ops.emb,
                                  torus_ops.gauges)
    assert np.abs(system.A_sh - system.A_hs.T).max() <= 1e-12 * max(
        1.0, np.abs(system.A_sh).max())


def test_dimension_mismatch(torus_ops):
    with pytest.raises(DimensionMismatch):
        build_reduced_system(sp.identity(3, format="csr"), np.zeros(3),
                             torus_ops.emb)


# ------------------------------------------------------------------- Schur
def test_schur_hand_example():
    system = BlockSystem(
        A_ss=sp.csr_matrix(np.array([[2.0]])),
        A_sh=np.array([[1.0]]), A_hs=np.array([[1.0]]), A_hh=np.array([[1.0]]),
        b_s=np.array([1.0]), b_h=np.array([1.0]))
    xs, xh, info = schur_solve(system)
    # S = 1 - 1/2 = 1/2, rhs_h = 1 - 1/2 = 1/2 -> x_h = 1, x_s = 0
    assert xh[0] == pytest.approx(1.0, abs=1e-14)
    assert xs[0] == pytest.approx(0.0, abs=1e-14)
    assert info["sparse_solves"] == 2


def test_schur_counts_exactly_nh_plus_one(torus_ops):
    b = torus_ops.load_vector(0.0)
    system = build_reduced_system(torus_ops.A_visc, b, torus_ops.emb,
                                  torus_ops.gauges)
    _, _, info = schur_solve(system)
    assert info["sparse_solves"] == torus_ops.emb.n_harmonic + 1 == 3


def test_schur_no_harmonic_single_solve(tetra):
    cfg = SimulationConfig(k=1, mu=1.0, forcing=smooth_forcing(1))
    ops = FlowOperators(tetra, cfg)
    system = build_reduced_system(ops.A_visc, ops.load_vector(0.0), ops.emb,
                                  ops.gauges)
    assert system.n_harmonic == 0
    xs, xh, info = schur_solve(system)
    assert info["sparse_solves"] == 1
    assert xh.size == 0


def test_schur_vs_monolithic(torus_ops):
    b = torus_ops.load_vector(0.0)
    system = build_reduced_system(torus_ops.A_visc, b, torus_ops.emb,
                                  torus_ops.gauges)
    xs, xh, _ = schur_solve(system)
    xs2, xh2 = monolithic_solve(system)
    scale = max(np.abs(xs2).max(), np.abs(xh2).max())
    assert np.abs(xs - xs2).max() <= 1e-10 * scale
    assert np.abs(xh - xh2).max() <= 1e-10 * scale


def test_singular_streamblock_detected(torus3):
    """An un-gauged singular streamfunction block raises SingularOperator."""
    from surfhodge.hodge import HodgeSolver

    solver = HodgeSolver(torus3, 0)
    emb = JEmbedding(solver.E, np.zeros((0, solver.V.total_dofs)))
    # rot-Laplace without the zero-mean gauge: kernel = constants
    system = build_reduced_system(solver.M, np.zeros(solver.V.total_dofs), emb)
    with pytest.raises(SingularOperator):
        ReducedSolver(system)


# ------------------------------------------------------------------ Stokes
def test_stokes_zero_forcing_zero_solution(sphere4):
    cfg = SimulationConfig(k=1, mu=1.0)
    state = solve_stokes_reduced(sphere4, cfg)
    assert state.kinetic_energy <= 1e-24
    u, p = solve_stokes_saddle(sphere4, cfg)
    assert np.abs(u.coefficients).max() <= 1e-12
    assert np.abs(p.coefficients).max() <= 1e-12


@pytest.mark.parametrize("mesh_name,k", [("torus", 1), ("sphere_4holes", 1),
                                         ("torus", 2)])
def test_stokes_reduced_matches_saddle(corpus, mesh_name, k):
    mesh = corpus[mesh_name]
    cfg = SimulationConfig(k=k, mu=0.7, forcing=smooth_forcing(3))
    ops = FlowOperators(mesh, cfg)
    state, _ = ops.stokes_reduced()
    u_s, p_s = ops.stokes_saddle()
    du = state.u.coefficients - u_s.coefficients
    un = np.sqrt(u_s.coefficients @ (ops.M @ u_s.coefficients))
    assert np.sqrt(du @ (ops.M @ du)) <= 1e-8 * un
    # exact incompressibility of both solutions
    assert asm.divergence_norm(ops.V, state.u.coefficients) <= 1e-10 * un
    assert asm.divergence_norm(ops.V, u_s.coefficients) <= 1e-10 * un


def test_pressure_reconstruction_matches_saddle(torus_ops):
    state, _ = torus_ops.stokes_reduced()
    u_s, p_s = torus_ops.stokes_saddle()
    p_rec = torus_ops.reconstruct_pressure(state)
    Mq = asm.assemble_mass(torus_ops.Q)
    mq = asm.assemble_moment(torus_ops.Q)
    area = mq.sum()
    pr = p_rec.coefficients - (mq @ p_rec.coefficients) / area
    ps = p_s.coefficients - (mq @ p_s.coefficients) / area
    dp = pr - ps
    assert np.sqrt(dp @ (Mq @ dp)) <= 1e-8 * np.sqrt(ps @ (Mq @ ps))


def test_pressure_robustness_gradient_forcing(torus_ops, rng):
    """Perturbing the load by a discrete gradient leaves the velocity
    unchanged and only shifts the pressure."""
    ops = torus_ops
    b = ops.load_vector(0.0)
    state0, _ = ops.stokes_reduced(load=b)
    q = rng.standard_normal(ops.Q.total_dofs)
    b_shift = b + ops.hodge.B.T @ q
    state1, _ = ops.stokes_reduced(load=b_shift)
    du = state1.u.coefficients - state0.u.coefficients
    un = np.sqrt(state0.u.coefficients @ (ops.M @ state0.u.coefficients))
    assert np.sqrt(du @ (ops.M @ du)) <= 1e-10 * un
    # the pressure does change
    p0 = ops.reconstruct_pressure(state0, load=b)
    p1 = ops.reconstruct_pressure(state1, load=b_shift)
    assert np.abs(p1.coefficients - p0.coefficients).max() > 1e-6


def test_gradient_only_forcing_gives_zero_velocity(torus_ops, rng):
    """A pure discrete-gradient load is invisible to the velocity."""
    ops = torus_ops
    q = rng.standard_normal(ops.Q.total_dofs)
    state, _ = ops.stokes_reduced(load=ops.hodge.B.T @ q)
    nrm = np.sqrt(state.u.coefficients @ (ops.M @ state.u.coefficients))
    scale = np.abs(q).max()
    assert nrm <= 1e-10 * scale


# ----------------------------------------------------------- Navier-Stokes
def test_nse_zero_forcing_zero_state(torus):
    cfg = SimulationConfig(k=1, mu=0.1, dt=1e-2, t_end=5e-2)
    res = run_simulation(torus, cfg)
    assert np.abs(res.kinetic_energy).max() == 0.0


def test_nse_viscous_decay(torus):
    def weak_forcing(x, t=0.0):
        return 1e-3 * smooth_forcing(5)(x, t)

    cfg0 = SimulationConfig(k=1, mu=0.1, dt=2e-2, t_end=0.0, forcing=weak_forcing)
    ops = FlowOperators(torus, cfg0)
    u0, _ = ops.stokes_reduced()
    cfg = SimulationConfig(k=1, mu=0.1, dt=2e-2, t_end=60 * 2e-2)
    res = run_simulation(torus, cfg, basis=ops.basis, initial_state=u0)
    ke = res.kinetic_energy
    assert ke[0] > 0
    assert (np.diff(ke) <= 1e-10 * ke[0]).all()
    assert ke[-1] < 0.9 * ke[0]


def test_nse_energy_conserved_inviscid_monitored(torus):
    cfg0 = SimulationConfig(k=1, mu=0.1, dt=1e-3, t_end=0.0,
                            forcing=smooth_forcing(6))
    u0, _ = FlowOperators(torus, cfg0).stokes_reduced()
    with pytest.raises(NonpositiveParameter):
        SimulationConfig(k=1, mu=0.0, dt=1e-3, t_end=5e-3)
    cfg = SimulationConfig(k=1, mu=0.0, dt=1e-3, t_end=5e-3, allow_inviscid=True)
    res = run_simulation(torus, cfg, initial_state=u0)
    ke = res.kinetic_energy
    # explicit convection drifts at O(dt); monitored, not asserted tightly
    assert abs(ke[-1] - ke[0]) <= 0.05 * ke[0]


def test_nse_nan_guard(torus3, basis_cache):
    cfg = SimulationConfig(k=1, mu=0.1, dt=1e-2, t_end=1e-1)
    ops = FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1))
    stepper = NavierStokesStepper(ops)
    bad = ops.make_state(0.0, np.full(ops.emb.n_stream, np.nan),
                         np.zeros(ops.emb.n_harmonic))
    with pytest.raises(NaNDetected):
        stepper.step(bad)


def test_nse_rejects_nondivfree_state(torus3, basis_cache, rng):
    cfg = SimulationConfig(k=1, mu=0.1, dt=1e-2, t_end=1e-1)
    ops = FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1))
    stepper = NavierStokesStepper(ops)
    state = stepper.initial_state()
    bad = replace(state, u=FeField(ops.V, rng.standard_normal(ops.V.total_dofs)))
    with pytest.raises(NotDivergenceFree):
        stepper.step(bad)


def test_nse_rejects_foreign_degree_state(torus3, basis_cache):
    cfg = SimulationConfig(k=1, mu=0.1, dt=1e-2, t_end=2e-2)
    stepper = NavierStokesStepper(FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1)))
    other = FlowOperators(torus3, replace(cfg, k=2), basis=basis_cache(torus3, 2))
    state = other.make_state(0.0, np.zeros(other.emb.n_stream), np.zeros(other.emb.n_harmonic))
    with pytest.raises(DegreeMismatch):
        stepper.step(state)


def test_cached_load_matches_assembly_in_time(torus3, basis_cache):
    base = smooth_forcing(9)

    def f(x, t=0.0):
        return np.cos(3.0 * t) * base(x) + t * x

    cfg = SimulationConfig(k=1, mu=0.1, forcing=f)
    ops = FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1))
    loads = []
    for t in (0.3, 1.7):
        b = ops.load_vector(t)
        want = asm.assemble_load(ops.V, f, time=t)
        assert np.abs(b - want).max() <= 1e-14 * np.abs(want).max()
        loads.append(b)
    assert np.abs(loads[0] - loads[1]).max() > 1e-3 * np.abs(loads[0]).max()


def test_nse_cfl_warning(torus3, basis_cache):
    cfg0 = SimulationConfig(k=1, mu=0.5, dt=10.0, t_end=0.0,
                            forcing=smooth_forcing(7))
    ops = FlowOperators(torus3, cfg0, basis=basis_cache(torus3, 1))
    state, _ = ops.stokes_reduced()
    stepper = NavierStokesStepper(ops)
    with pytest.warns(RuntimeWarning, match="CFL"):
        stepper.step(state)


def test_nse_divergence_free_every_step(torus3, basis_cache):
    cfg = SimulationConfig(k=1, mu=0.2, dt=5e-3, t_end=0.05,
                           forcing=smooth_forcing(8))
    ops = FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1))
    stepper = NavierStokesStepper(ops)
    state = stepper.initial_state()
    for _ in range(10):
        state = stepper.step(state)
        un = np.sqrt(state.u.coefficients @ (ops.M @ state.u.coefficients))
        assert asm.divergence_norm(ops.V, state.u.coefficients) <= 1e-10 * un


def test_simulation_times_do_not_drift(torus3, basis_cache):
    cfg0 = SimulationConfig(k=1, mu=0.2, dt=0.1, t_end=0.0, forcing=smooth_forcing(10))
    ops = FlowOperators(torus3, cfg0, basis=basis_cache(torus3, 1))
    start, _ = ops.stokes_reduced(t=0.1)
    cfg = replace(cfg0, t_end=3.0)
    res = run_simulation(torus3, cfg, basis=ops.basis, initial_state=start)
    n = round(cfg.t_end / cfg.dt)
    # summed steps would drift: 0.1 + 0.1 + 0.1 != 0.3
    np.testing.assert_array_equal(res.times, 0.1 + np.arange(n + 1) * cfg.dt)
    assert res.final_state.step == n


def test_run_simulation_sphere_no_harmonic(corpus):
    cfg = SimulationConfig(k=1, mu=0.5, dt=1e-2, t_end=5e-2,
                           forcing=smooth_forcing(9))
    res = run_simulation(corpus["icosphere"], cfg)
    assert res.basis.dimension == 0
    assert np.abs(res.harmonic_norms).max() == 0.0


def test_run_simulation_outputs(tmp_path, torus3, basis_cache):
    cfg = SimulationConfig(k=1, mu=0.5, dt=1e-2, t_end=3e-2, output_every=1,
                           forcing=smooth_forcing(10))
    res = run_simulation(torus3, cfg, basis=basis_cache(torus3, 1),
                         out_dir=tmp_path)
    names = sorted(p.split("/")[-1] for p in map(str, res.output_files))
    assert "timeseries.csv" in names
    assert sum(n.endswith(".vtk") for n in names) == 4  # t=0 + 3 steps
    csv = (tmp_path / "timeseries.csv").read_text().splitlines()
    assert csv[0] == "t,kinetic_energy,harmonic_norm,rot_norm,h_1,h_2"
    assert len(csv) == 5  # header + 4 states
    vtk = (tmp_path / "flow_000000.vtk").read_text()
    assert "DATASET POLYDATA" in vtk
    assert "VECTORS u double" in vtk
    assert "VECTORS u_rot double" in vtk
    assert "VECTORS u_harm double" in vtk
    assert "SCALARS psi double 1" in vtk


def test_stokes_ungauged_block_raises(torus3, basis_cache):
    """A singular viscous block (here: the mass form without its zero-mean
    gauge) makes the Stokes solve raise SingularOperator."""
    cfg = SimulationConfig(k=0, mu=1.0, forcing=smooth_forcing(12))
    ops = FlowOperators(torus3, cfg, basis=basis_cache(torus3, 0))
    ops.A_visc = ops.M  # reduced block E' M E is singular on the constants
    ops.gauges = []  # drop the explicit zero-mean gauge
    with pytest.raises(SingularOperator):
        ops.stokes_reduced()


def test_stokes_empty_streamblock():
    """A space with no streamfunction dofs (one triangle, k = 0) gives the
    zero velocity; the empty block still counts its one solve."""
    from surfhodge import meshes

    ops = FlowOperators(meshes.single_triangle(), SimulationConfig(k=0, mu=1.0))
    assert ops.S.total_dofs == 0 and ops.emb.n_harmonic == 0
    state, info = ops.stokes_reduced()
    assert state.kinetic_energy == 0.0
    assert info["sparse_solves"] == 1


def test_stokes_inviscid_raises():
    """With mu = 0 no viscous form is left, so the reduced Stokes operator
    is singular; the solve reports it instead of returning a zero flow."""
    from surfhodge import meshes

    cfg = SimulationConfig(k=1, mu=0.0, allow_inviscid=True,
                           forcing=smooth_forcing(15))
    ops = FlowOperators(meshes.icosphere(1), cfg)
    with pytest.raises(SingularOperator):
        ops.stokes_reduced()


def test_equivalence_on_closed_genus2(genus2):
    cfg = SimulationConfig(k=1, mu=0.4, forcing=smooth_forcing(13))
    ops = FlowOperators(genus2, cfg)
    state, _ = ops.stokes_reduced()
    u_s, _ = ops.stokes_saddle()
    du = state.u.coefficients - u_s.coefficients
    un = np.sqrt(u_s.coefficients @ (ops.M @ u_s.coefficients))
    assert np.sqrt(du @ (ops.M @ du)) <= 1e-8 * un


def test_flow_state_invariants(torus3, basis_cache):
    cfg = SimulationConfig(k=1, mu=0.3, forcing=smooth_forcing(14))
    ops = FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1))
    state, _ = ops.stokes_reduced()
    rebuilt = ops.emb.apply(state.psi.coefficients, state.h_coeffs)
    assert np.abs(rebuilt - state.u.coefficients).max() <= 1e-12 * max(
        1.0, np.abs(state.u.coefficients).max())
    un = np.sqrt(state.u.coefficients @ (ops.M @ state.u.coefficients))
    assert asm.divergence_norm(ops.V, state.u.coefficients) <= 1e-10 * un
    assert state.kinetic_energy == pytest.approx(0.5 * un**2, rel=1e-12)

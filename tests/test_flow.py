import pathlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from surfhodge import assembly as asm, meshes
from surfhodge.config import FORCING_PRESETS, load_simulation_config
from surfhodge.errors import (
    DegreeMismatch,
    DimensionMismatch,
    NaNDetected,
    NonpositiveParameter,
    NotDivergenceFree,
    NotSPD,
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
    run_simulation,
)
from surfhodge.quadrature import triangle_rule


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
    T = np.hstack([emb.E.toarray(), emb.H.T])
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
    system = emb.reduce_matrix(solver.M)
    T = np.hstack([emb.E.toarray(), emb.H.T])
    A_full = T.T @ solver.M.toarray() @ T
    ns = emb.n_stream
    assert np.abs(system.A_ss.toarray() - A_full[:ns, :ns]).max() < 1e-12
    assert np.abs(system.A_sh - A_full[:ns, ns:]).max() < 1e-12
    assert np.abs(system.A_sh.T - A_full[ns:, :ns]).max() < 1e-12
    # mass case: orthonormal harmonic block, zero coupling
    assert np.abs(system.A_hh - np.eye(2)).max() < 1e-10
    assert np.abs(system.A_sh).max() < 1e-10
    bs, bh = emb.reduce_vector(b)
    assert np.allclose(np.concatenate([bs, bh]), T.T @ b)


def test_reduced_system_symmetry(torus_ops):
    """The restricted viscous form is symmetric: its lower-left block,
    formed directly, equals A_sh', which the block system uses in its
    place."""
    emb = torus_ops.emb
    red = torus_ops.A_red
    A_ss, A_sh, A_hh = red.A_ss, red.A_sh, red.A_hh
    lower_left = (emb.H @ torus_ops.A_visc) @ emb.E
    assert np.abs(lower_left - A_sh.T).max() <= 1e-12 * max(1.0, np.abs(A_sh).max())
    assert np.abs(A_hh - A_hh.T).max() <= 1e-12 * np.abs(A_hh).max()
    assert abs(A_ss - A_ss.T).max() <= 1e-12 * abs(A_ss).max()


def test_reduced_system_rejects_nonsymmetric(torus_ops):
    """The block system keeps only the upper blocks, so a non-symmetric
    operator is refused instead of silently symmetrized."""
    A = torus_ops.A_visc.tolil()
    A[0, 1] += 1e-6 * abs(torus_ops.A_visc).max()
    with pytest.raises(NotSPD):
        torus_ops.emb.reduce_matrix(A.tocsr(), torus_ops.gauge)


def test_dimension_mismatch(torus_ops):
    with pytest.raises(DimensionMismatch):
        torus_ops.emb.reduce_matrix(sp.identity(3, format="csr"))


# ------------------------------------------------------------------- Schur
def test_schur_hand_example():
    system = BlockSystem(
        A_ss=sp.csr_matrix(np.array([[2.0]])),
        A_sh=np.array([[1.0]]), A_hh=np.array([[1.0]]))
    solver = ReducedSolver(system)
    xs, xh = solver.solve(np.array([1.0]), np.array([1.0]))
    # S = 1 - 1/2 = 1/2, rhs_h = 1 - 1/2 = 1/2 -> x_h = 1, x_s = 0
    assert xh[0] == pytest.approx(1.0, abs=1e-14)
    assert xs[0] == pytest.approx(0.0, abs=1e-14)
    assert solver.sparse_solves == 2


def test_schur_counts_exactly_nh_plus_one(torus_ops):
    b = torus_ops.load_vector(0.0)
    solver = ReducedSolver(torus_ops.A_red)
    solver.solve(*torus_ops.emb.reduce_vector(b))
    assert solver.sparse_solves == torus_ops.emb.n_harmonic + 1 == 3


def test_schur_no_harmonic_single_solve(tetra):
    cfg = SimulationConfig(k=1, mu=1.0, forcing=smooth_forcing(1))
    ops = FlowOperators(tetra, cfg)
    system = ops.A_red
    assert system.n_harmonic == 0
    solver = ReducedSolver(system)
    xs, xh = solver.solve(*ops.emb.reduce_vector(ops.load_vector(0.0)))
    assert solver.sparse_solves == 1
    assert xh.size == 0


def test_schur_vs_monolithic(torus_ops, monolithic_solve):
    b_s, b_h = torus_ops.emb.reduce_vector(torus_ops.load_vector(0.0))
    system = torus_ops.A_red
    xs, xh = ReducedSolver(system).solve(b_s, b_h)
    xs2, xh2 = monolithic_solve(system, b_s, b_h)
    scale = max(np.abs(xs2).max(), np.abs(xh2).max())
    assert np.abs(xs - xs2).max() <= 1e-10 * scale
    assert np.abs(xh - xh2).max() <= 1e-10 * scale


def test_pinned_stokes_block_matches_monolithic(torus3, basis_cache, monolithic_solve):
    """The Stokes block, gauged by pinning a dof, gives the dense bordered
    solution and meets its zero-mean constraint."""
    cfg = SimulationConfig(k=1, mu=0.7, forcing=smooth_forcing(16))
    ops = FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1))
    system = ops.A_red
    assert system.gauge is not None
    b_s, b_h = ops.emb.reduce_vector(ops.load_vector(0.0))
    xs, xh = ReducedSolver(system).solve(b_s, b_h)
    xs2, xh2 = monolithic_solve(system, b_s, b_h)
    scale = max(np.abs(xs2).max(), np.abs(xh2).max())
    assert np.abs(xs - xs2).max() <= 1e-10 * scale
    assert np.abs(xh - xh2).max() <= 1e-10 * scale
    g = system.gauge
    assert abs(g @ xs) <= 1e-12 * np.abs(g).sum() * np.abs(xs).max()


def test_singular_streamblock_detected(torus3):
    """An un-gauged singular streamfunction block raises SingularOperator."""
    from surfhodge.hodge import HodgeSolver

    solver = HodgeSolver(torus3, 0)
    emb = JEmbedding(solver.E, np.zeros((0, solver.V.total_dofs)))
    # rot-Laplace without the zero-mean gauge: kernel = constants
    system = emb.reduce_matrix(solver.M)
    with pytest.raises(SingularOperator):
        ReducedSolver(system)


# ------------------------------------------------------------------ Stokes
def test_stokes_zero_forcing_zero_solution(sphere4):
    ops = FlowOperators(sphere4, SimulationConfig(k=1, mu=1.0))
    state, _ = ops.stokes_reduced()
    assert state.kinetic_energy <= 1e-24
    u, p = ops.stokes_saddle()
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


def test_freeslip_stokes_matches_saddle(sphere4):
    """bc = "freeslip" drops the boundary penalty: the reduced solve still
    matches the saddle oracle with exact divergence, and the velocity
    differs from the no-slip one on the pierced sphere."""
    cfg = SimulationConfig(k=1, mu=0.5, bc="freeslip", forcing=smooth_forcing(3))
    ops = FlowOperators(sphere4, cfg)
    state, _ = ops.stokes_reduced()
    u_s, _ = ops.stokes_saddle()
    du = state.u.coefficients - u_s.coefficients
    un = np.sqrt(u_s.coefficients @ (ops.M @ u_s.coefficients))
    assert np.sqrt(du @ (ops.M @ du)) <= 1e-8 * un
    assert asm.divergence_norm(ops.V, state.u.coefficients) <= 1e-10 * un
    noslip, _ = FlowOperators(sphere4, replace(cfg, bc="noslip"), basis=ops.basis).stokes_reduced()
    dn = state.u.coefficients - noslip.u.coefficients
    assert np.sqrt(dn @ (ops.M @ dn)) > 1e-3 * un


def test_pressure_reconstruction_matches_saddle(torus_ops):
    state, _ = torus_ops.stokes_reduced()
    u_s, p_s = torus_ops.stokes_saddle()
    p_rec = torus_ops.reconstruct_pressure(state)
    Mq = asm.assemble_mass(torus_ops.Q)
    mq = asm.assemble_moment(torus_ops.Q)
    # both are zero-mean and compare as they are; subtracting (m'p)/m'1 would
    # remove a non-constant field, since the DG basis is orthonormal
    pr, ps = p_rec.coefficients, p_s.coefficients
    for p in (pr, ps):
        assert abs(mq @ p) <= 1e-12 * np.abs(mq).sum() * np.abs(p).max()
    dp = pr - ps
    assert np.sqrt(dp @ (Mq @ dp)) <= 1e-8 * np.sqrt(ps @ (Mq @ ps))


def test_saddle_and_reconstructed_pressures_are_zero_mean(torus_ops):
    """Both pressures come out with zero moment m'p, so they compare without
    renormalization (the DG basis is orthonormal: all-ones coefficients are
    not the constant function)."""
    state, _ = torus_ops.stokes_reduced()
    mq = asm.assemble_moment(torus_ops.Q)
    for p in (torus_ops.stokes_saddle()[1], torus_ops.reconstruct_pressure(state)):
        assert abs(mq @ p.coefficients) <= 1e-12 * np.abs(mq).sum() * np.abs(
            p.coefficients).max()


@pytest.mark.parametrize("n_major,n_minor,k,mu", [
    (8, 6, 1, 1e-3), (8, 6, 1, 1.0), (8, 6, 1, 1e6), (16, 8, 2, 1e3)])
def test_saddle_oracle_across_viscosity_scales(n_major, n_minor, k, mu):
    """The saddle-point oracle matches the reduced solve whatever the scale
    of the viscous block against the divergence block; a partial-pivot LU
    of the unscaled saddle matrix reported the last two cases singular."""
    from surfhodge import meshes

    cfg = SimulationConfig(k=k, mu=mu, forcing=smooth_forcing(21))
    ops = FlowOperators(meshes.torus_structured(n_major, n_minor), cfg)
    state, info = ops.stokes_reduced()
    u_s, _ = ops.stokes_saddle()
    du = state.u.coefficients - u_s.coefficients
    un = np.sqrt(u_s.coefficients @ (ops.M @ u_s.coefficients))
    assert np.sqrt(du @ (ops.M @ du)) <= 1e-8 * un
    assert info["sparse_solves"] == ops.emb.n_harmonic + 1


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


def test_one_pressure_factor_serves_draws_decompose_and_pressure(torus3, monkeypatch, rng):
    """The basis draws, decompose and reconstruct_pressure share one
    factorization of B B'; the Schur solve still costs b1 + 1 solves."""
    from surfhodge import hodge, linalg

    built = []

    class Counting(linalg.FactorizedOperator):
        def __init__(self, A, *args, **kwargs):
            super().__init__(A, *args, **kwargs)
            built.append(A.shape)

    monkeypatch.setattr(hodge, "FactorizedOperator", Counting)
    ops = FlowOperators(torus3, SimulationConfig(k=1, mu=0.5, forcing=smooth_forcing(5)))
    solver = ops.hodge
    op = solver.pressure_operator
    assert op.solve_count == ops.basis.n_attempts == 2
    state, info = ops.stokes_reduced()
    assert info["sparse_solves"] == ops.emb.n_harmonic + 1 == 3
    ops.reconstruct_pressure(state)
    solver.decompose(FeField(solver.V, rng.standard_normal(solver.V.total_dofs)), ops.basis)
    assert solver.pressure_operator is op
    assert op.solve_count == ops.basis.n_attempts + 2
    n_q = solver.Q.total_dofs
    assert built.count((n_q, n_q)) == 1


def test_gradient_only_forcing_gives_zero_velocity(torus_ops, rng):
    """A pure discrete-gradient load is invisible to the velocity."""
    ops = torus_ops
    q = rng.standard_normal(ops.Q.total_dofs)
    state, _ = ops.stokes_reduced(load=ops.hodge.B.T @ q)
    nrm = np.sqrt(state.u.coefficients @ (ops.M @ state.u.coefficients))
    scale = np.abs(q).max()
    assert nrm <= 1e-10 * scale


# ---------------------------------------------------------- exact solution
def _sin2(t, d):
    """d-th derivative of sin^2(pi t)."""
    pi = np.pi
    return (np.sin(pi * t) ** 2, pi * np.sin(2 * pi * t), 2 * pi**2 * np.cos(2 * pi * t),
            -4 * pi**3 * np.sin(2 * pi * t))[d]


def _patch_velocity(x, lap=False):
    """u = rot psi = (-psi_y, psi_x, 0) for psi = sin^2(pi x) sin^2(pi y),
    or its Laplacian; u and grad psi vanish on the unit square's boundary."""
    X, Y = x[:, 0], x[:, 1]
    if lap:
        u1 = -(_sin2(X, 2) * _sin2(Y, 1) + _sin2(X, 0) * _sin2(Y, 3))
        u2 = _sin2(X, 3) * _sin2(Y, 0) + _sin2(X, 1) * _sin2(Y, 2)
    else:
        u1, u2 = -_sin2(X, 0) * _sin2(Y, 1), _sin2(X, 1) * _sin2(Y, 0)
    return np.stack([u1, u2, np.zeros_like(X)], axis=1)


@pytest.mark.parametrize("k, ns, min_rate", [(1, (4, 8, 16, 32), 1.6), (2, (4, 8, 16), 2.8)],
                         ids=["k1", "k2"])
def test_stokes_converges_to_exact_solution(k, ns, min_rate):
    """Stokes on flat_patch(n) with u = rot psi and f = -(mu/2) Lap u (the
    viscous term is div(mu eps(u)) = (mu/2) Lap u for divergence-free u):
    the relative L2 velocity error, by a degree-10 rule, falls at the
    expected rate (measured: k = 1 1.77 at 16 -> 32, k = 2 3.48 at 8 -> 16).
    Adding grad p, p = 10 sin(2 pi x) cos(pi y), at mu = 1e-3 leaves the
    velocity unchanged but for the quadrature error of the grad p load,
    which falls like h^10 (2e-5 relative at n = 4, k = 1); at the finest
    mesh the velocities agree to 1e-10."""
    mu, rule = 1e-3, triangle_rule(10)

    def forcing(x, t):
        return -0.5 * mu * _patch_velocity(x, lap=True)

    def grad_p(x, t):
        X, Y = x[:, 0], x[:, 1]
        return np.stack([20 * np.pi * np.cos(2 * np.pi * X) * np.cos(np.pi * Y),
                         -10 * np.pi * np.sin(2 * np.pi * X) * np.sin(np.pi * Y),
                         np.zeros_like(X)], axis=1)

    errors = []
    for n in ns:
        mesh = meshes.flat_patch(n)
        ops = FlowOperators(mesh, SimulationConfig(k=k, mu=mu, forcing=forcing))
        state, _ = ops.stokes_reduced()
        w = np.outer(mesh.Jdet, rule.weights)[..., None]
        want = _patch_velocity(asm.physical_points(mesh, rule).reshape(-1, 3))
        want = want.reshape(mesh.n_triangles, -1, 3)
        diff = asm.tabulate_field(state.u, rule) - want
        errors.append(np.sqrt((w * diff**2).sum() / (w * want**2).sum()))

        pushed, _ = ops.stokes_reduced(load=ops.load_vector(0.0)
                                       + asm.assemble_load(ops.V, grad_p))
        d = pushed.u.coefficients - state.u.coefficients
        gap = np.sqrt(d @ (ops.M @ d)) / np.sqrt(2 * state.kinetic_energy)
        assert gap <= 1e-4 * errors[-1]
    assert gap <= 1e-10
    rates = np.log2(np.array(errors[:-1]) / errors[1:])
    assert rates[-1] >= min_rate, rates


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


def test_step_reuses_divergence_tabulation(torus3, basis_cache, monkeypatch):
    """The per-step divergence check takes the reference divergences from
    the stepper's tabulation and measures what a fresh evaluation does."""
    cfg = SimulationConfig(k=1, mu=0.1, dt=1e-2, t_end=1e-1, forcing=smooth_forcing(17))
    stepper = NavierStokesStepper(FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1)))
    state = stepper.initial_state()
    V = stepper.ops.V
    u = state.u.coefficients
    tab = stepper._conv_cache["div"]
    assert asm._divergence_norm(V, V.local_coefficients(u), tab) == asm.divergence_norm(V, u)
    calls = []
    original = type(V.ref).div
    monkeypatch.setattr(type(V.ref), "div", lambda self, xy: calls.append(1) or original(self, xy))
    for _ in range(3):
        state = stepper.step(state)
    assert calls == []


def test_state_carries_its_mass_product(torus3, basis_cache):
    """make_state keeps M u with the state, and the step's right-hand side
    reads it: a step from a state whose Mu was altered moves with it."""
    cfg = SimulationConfig(k=1, mu=0.1, dt=1e-2, t_end=1e-1, forcing=smooth_forcing(17))
    stepper = NavierStokesStepper(FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1)))
    state = stepper.initial_state()
    assert np.array_equal(state.Mu, stepper.ops.M @ state.u.coefficients)
    plain = stepper.step(state)
    shifted = stepper.step(replace(state, Mu=2.0 * state.Mu))
    assert not np.allclose(shifted.u.coefficients, plain.u.coefficients)


def test_step_reads_cfl_sup_norm_from_convection(torus3, basis_cache, monkeypatch):
    """The CFL check reads max |u| from the step's convection evaluation,
    which evaluates u nowhere else; that value agrees with tabulate_field
    at the convection rule."""
    cfg = SimulationConfig(k=1, mu=0.1, dt=1e-2, t_end=1e-1, forcing=smooth_forcing(17))
    stepper = NavierStokesStepper(FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1)))
    state = stepper.initial_state()
    rule = stepper._conv_cache["vol"][0]
    tabulate, convection = asm.tabulate_field, asm.convection_action

    def sup(u):
        return np.linalg.norm(tabulate(u, rule), axis=-1).max()

    want = sup(state.u)
    calls, seen = [], []
    monkeypatch.setattr(asm, "tabulate_field", lambda *a: calls.append(1) or tabulate(*a))
    monkeypatch.setattr(asm, "convection_action",
                        lambda *a: seen.append(convection(*a)) or seen[-1])
    stepper.step(state)
    assert calls == [] and len(seen) == 1
    assert seen[0][1] == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("mesh_name", ["torus3", "sphere4"])
def test_step_blocks_match_restricted_parent(mesh_name, basis_cache, request):
    """The time-step blocks, summed from L, the restricted viscous form and
    the harmonic blocks of M, are the restriction of M/dt + A_visc: on a
    closed gauged surface (torus, b1 = 2) and an open one (pierced sphere,
    b1 = 3)."""
    mesh = request.getfixturevalue(mesh_name)
    cfg = SimulationConfig(k=1, mu=0.3, dt=1e-2, t_end=0.0)
    ops = FlowOperators(mesh, cfg, basis=basis_cache(mesh, 1))
    got = NavierStokesStepper(ops).system
    want = ops.emb.reduce_matrix(ops.M / cfg.dt + ops.A_visc, ops.gauge)
    assert got.n_harmonic == {"torus3": 2, "sphere4": 3}[mesh_name]
    assert (got.gauge is want.gauge is ops.hodge.gauge
            and (got.gauge is not None) == (mesh_name == "torus3"))
    assert abs(got.A_ss - want.A_ss).max() <= 1e-12 * abs(want.A_ss).max()
    for name in ("A_sh", "A_hh"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


def test_run_restricts_the_viscous_form_once(torus3, basis_cache, monkeypatch):
    """A run restricts each parent operator once: the Stokes start and the
    stepper reuse the viscous blocks of FlowOperators."""
    calls = []
    original = JEmbedding.reduce_matrix
    monkeypatch.setattr(JEmbedding, "reduce_matrix",
                        lambda self, *a: calls.append(1) or original(self, *a))
    cfg = SimulationConfig(k=1, mu=0.2, dt=1e-2, t_end=3e-2, forcing=smooth_forcing(18))
    res = run_simulation(torus3, cfg, basis=basis_cache(torus3, 1))
    assert res.final_state.step == 3
    assert len(calls) == 1


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


def _counted(f):
    """f with its calls' times recorded; keeps f's steady mark."""
    times = []

    def g(x, t=0.0):
        times.append(t)
        return f(x, t)

    if hasattr(f, "steady"):
        g.steady = f.steady
    return g, times


@pytest.mark.parametrize("initial", ["stokes", "zero"])
@pytest.mark.parametrize("preset", sorted(FORCING_PRESETS))
def test_steady_forcing_evaluated_once_per_run(torus3, basis_cache, preset, initial):
    f, times = _counted(FORCING_PRESETS[preset]())
    cfg = SimulationConfig(k=1, mu=0.2, dt=1e-2, t_end=5e-2, initial=initial, forcing=f)
    run_simulation(torus3, cfg, basis=basis_cache(torus3, 1))
    assert len(times) == 1


def test_time_dependent_expression_evaluated_every_step(torus3, basis_cache):
    """nse_torus_decay's forcing reads t: the initial Stokes state and each
    step assemble its load at their own time."""
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "nse_torus_decay.cfg"
    cfg, _ = load_simulation_config(path)
    f, times = _counted(cfg.forcing)
    cfg = replace(cfg, forcing=f, t_end=10 * cfg.dt)
    res = run_simulation(torus3, cfg, basis=basis_cache(torus3, 1))
    assert len(times) == 10 + 1
    np.testing.assert_array_equal(times, res.times)


def test_steady_load_assembled_once_and_read_only(torus3, basis_cache):
    f = FORCING_PRESETS["rigid_rotation"](axis=(1.0, 0.5, 0.2))
    ops = FlowOperators(torus3, SimulationConfig(k=1, forcing=f), basis=basis_cache(torus3, 1))
    b = ops.load_vector(0.0)
    assert ops.load_vector(2.5) is b
    np.testing.assert_array_equal(b, asm.assemble_load(ops.V, f, time=2.5))
    with pytest.raises(ValueError):
        b[0] = 1.0
    # no forcing is the zero forcing, steady as well
    zero = FlowOperators(torus3, SimulationConfig(k=1), basis=basis_cache(torus3, 1))
    assert zero.load_vector(1.0) is zero.load_vector(0.0)
    assert not zero.load_vector(0.0).any()


def test_non_finite_steady_forcing_fails_at_setup(torus3, basis_cache):
    def f(x, t=0.0):
        return np.sqrt(-1.0 - x)

    f.steady = True
    cfg = SimulationConfig(k=1, initial="zero", t_end=0.0, forcing=f)
    with np.errstate(invalid="ignore"), pytest.raises(NaNDetected, match="non-finite load"):
        FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1))


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


def test_zero_initial_condition(torus3, basis_cache):
    """initial = "zero" starts from rest: the run equals one handed the
    zero state, bit for bit, and the forcing sets the flow going."""
    cfg = SimulationConfig(k=1, mu=0.2, dt=1e-2, t_end=3e-2, initial="zero",
                           forcing=smooth_forcing(19))
    basis = basis_cache(torus3, 1)
    res = run_simulation(torus3, cfg, basis=basis)
    assert res.kinetic_energy[0] == 0.0 and res.kinetic_energy[-1] > 0.0
    ops = FlowOperators(torus3, cfg, basis=basis)
    zero = ops.make_state(0.0, np.zeros(ops.emb.n_stream), np.zeros(ops.emb.n_harmonic))
    ref = run_simulation(torus3, cfg, basis=basis, initial_state=zero)
    np.testing.assert_array_equal(res.records, ref.records)


def test_simulation_times_do_not_drift(torus3, basis_cache):
    cfg0 = SimulationConfig(k=1, mu=0.2, dt=0.1, t_end=0.0, forcing=smooth_forcing(10))
    ops = FlowOperators(torus3, cfg0, basis=basis_cache(torus3, 1))
    state, _ = ops.stokes_reduced()
    start = ops.make_state(0.1, state.psi.coefficients, state.h_coeffs)
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


def test_stokes_ungauged_block_raises(torus3, basis_cache, monkeypatch):
    """A singular viscous block (here: the mass form without its zero-mean
    gauge) makes the Stokes solve raise SingularOperator.  The block
    factored is the replaced one, and with the gauge kept it solves."""
    import surfhodge.flow as flow

    factored = []

    class Recording(flow.FactorizedOperator):
        def __init__(self, A, *args, **kwargs):
            factored.append(A)
            super().__init__(A, *args, **kwargs)

    monkeypatch.setattr(flow, "FactorizedOperator", Recording)
    cfg = SimulationConfig(k=0, mu=1.0, forcing=smooth_forcing(12))
    ops = FlowOperators(torus3, cfg, basis=basis_cache(torus3, 0))
    # E' M E is singular on the constants; leave out the zero-mean gauge
    ops.A_red = ops.emb.reduce_matrix(ops.M)
    with pytest.raises(SingularOperator):
        ops.stokes_reduced()
    assert factored[-1] is ops.A_red.A_ss
    ops.A_red = ops.emb.reduce_matrix(ops.M, ops.gauge)
    ops.stokes_reduced()
    assert factored[-1] is ops.A_red.A_ss


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

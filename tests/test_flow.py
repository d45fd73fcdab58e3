import pathlib
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._base import _spbase

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
    SingularSchur,
    SolverFailure,
)
from surfhodge.fespace import FeField
from surfhodge.flow import (
    BlockSystem,
    FlowOperators,
    FlowState,
    JEmbedding,
    NavierStokesStepper,
    ReducedSolver,
    SimulationConfig,
    run_simulation,
)
from surfhodge.linalg import mnorm, zero_mean
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
        torus_ops.emb.reduce_matrix(A.tocsr())


def test_run_holds_one_rot_embedding(torus3, basis_cache, monkeypatch):
    """emb holds HodgeSolver.E itself; E as interpolated, assembled only to
    restrict A_visc to A_red (its rounding entries shape A_ss's ordering),
    is freed when FlowOperators returns."""
    assemble, interpolated = asm.assemble_rot_embedding, []

    def recording(S, V, block=None):
        E = assemble(S, V, block)
        if block is None:
            interpolated.append(weakref.ref(E))
        return E

    monkeypatch.setattr(asm, "assemble_rot_embedding", recording)
    ops = FlowOperators(torus3, SimulationConfig(k=1, mu=0.2), basis=basis_cache(torus3, 1))
    assert ops.emb.E is ops.hodge.E
    assert len(interpolated) == 1 and interpolated[0]() is None


def test_dimension_mismatch(torus_ops):
    with pytest.raises(DimensionMismatch):
        torus_ops.emb.reduce_matrix(sp.identity(3, format="csr"))
    with pytest.raises(DimensionMismatch):
        JEmbedding(torus_ops.emb.E, np.zeros((2, 3)))


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


@pytest.mark.parametrize("A_hh", [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]],
                         ids=["indefinite", "singular"])
def test_schur_not_spd_raises(A_hh):
    """With A_sh = 0 the Schur complement is A_hh: an indefinite or a
    singular one raises SingularSchur, not a solve or a warning."""
    system = BlockSystem(sp.identity(3, format="csc"), np.zeros((3, 2)), np.array(A_hh))
    with pytest.raises(SingularSchur):
        ReducedSolver(system)


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
    moment = asm.assemble_moment(torus_ops.S)
    xs, xh = ReducedSolver(system).solve(b_s, b_h)
    xs = zero_mean(xs, moment)
    xs2, xh2 = monolithic_solve(system, b_s, b_h, moment)
    scale = max(np.abs(xs2).max(), np.abs(xh2).max())
    assert np.abs(xs - xs2).max() <= 1e-10 * scale
    assert np.abs(xh - xh2).max() <= 1e-10 * scale


def test_pinned_stokes_block_matches_monolithic(torus3, basis_cache, monolithic_solve):
    """The Stokes block of a closed torus, factored with a pinned dof, gives
    the solution with x_s[0] = 0; shifted to zero mean it is the dense
    solution bordered by the zero-mean constraint, and meets it."""
    cfg = SimulationConfig(k=1, mu=0.7, forcing=smooth_forcing(16))
    ops = FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1))
    system = ops.A_red
    solver = ReducedSolver(system)
    assert solver.op.pinned
    b_s, b_h = ops.emb.reduce_vector(ops.load_vector(0.0))
    xs, xh = solver.solve(b_s, b_h)
    assert xs[0] == 0.0
    g = asm.assemble_moment(ops.S)
    xs = zero_mean(xs, g)
    xs2, xh2 = monolithic_solve(system, b_s, b_h, g)
    scale = max(np.abs(xs2).max(), np.abs(xh2).max())
    assert np.abs(xs - xs2).max() <= 1e-10 * scale
    assert np.abs(xh - xh2).max() <= 1e-10 * scale
    assert abs(g @ xs) <= 1e-12 * np.abs(g).sum() * np.abs(xs).max()


def test_singular_streamblock_detected(torus3):
    """The rot-Laplace block E'ME of a closed torus has the constants as its
    kernel: its factor pins a dof and solves.  Scaled to D A D, whose kernel
    is not constant, or doubled into two disconnected blocks, whose kernel
    is larger, it raises SingularOperator."""
    from surfhodge.hodge import HodgeSolver

    solver = HodgeSolver(torus3, 0)
    emb = JEmbedding(solver.E, np.zeros((0, solver.V.total_dofs)))
    A = emb.reduce_matrix(solver.M).A_ss
    assert ReducedSolver(BlockSystem(A, np.zeros((A.shape[0], 0)), np.zeros((0, 0)))).op.pinned
    D = sp.diags(1.0 + np.random.default_rng(0).random(A.shape[0]))
    for bad in (D @ A @ D, sp.block_diag([A, A])):
        with pytest.raises(SingularOperator):
            ReducedSolver(BlockSystem(bad.tocsc(), np.zeros((bad.shape[0], 0)), np.zeros((0, 0))))


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
def test_saddle_oracle_across_viscosity_scales(n_major, n_minor, k, mu, flow_factors):
    """The saddle-point oracle matches the reduced solve whatever the scale
    of the viscous block against the divergence block, in at most 20 solves
    of its one factor; a partial-pivot LU of the unscaled saddle matrix
    reported the last two cases singular."""
    from surfhodge import meshes

    cfg = SimulationConfig(k=k, mu=mu, forcing=smooth_forcing(21))
    ops = FlowOperators(meshes.torus_structured(n_major, n_minor), cfg)
    state, info = ops.stokes_reduced()
    flow_factors.clear()
    u_s, _ = ops.stokes_saddle()
    du = state.u.coefficients - u_s.coefficients
    un = np.sqrt(u_s.coefficients @ (ops.M @ u_s.coefficients))
    assert np.sqrt(du @ (ops.M @ du)) <= 1e-8 * un
    assert info["sparse_solves"] == ops.emb.n_harmonic + 1
    (op,) = flow_factors
    assert op.solve_count <= 20


def test_saddle_oracle_solves_its_own_system():
    """The oracle's (u, p) solves [[A, B'], [B, 0]] [u; p] = [f; 0] by
    itself, not only up to the reduced solve: measured relative momentum
    residual <= 8.3e-13 and relative divergence <= 1.3e-14 on the 16x8
    torus at k = 2, 1.2e-11 and 4.4e-13 on the pierced sphere at k = 3,
    where the bubbles carry the most higher pressure modes; the bounds are
    100x the torus's.  The pressure has zero moment (the iteration's
    rounding drift is removed)."""
    for mesh, k in ((meshes.torus_structured(16, 8), 2), (meshes.sphere_with_holes(2, 4), 3)):
        ops = FlowOperators(mesh, SimulationConfig(k=k, forcing=smooth_forcing(21)))
        u, p = ops.stokes_saddle()
        f = ops.load_vector(0.0)
        r = ops.A_visc @ u.coefficients + ops.hodge.B.T @ p.coefficients - f
        un = np.sqrt(u.coefficients @ (ops.M @ u.coefficients))
        assert np.linalg.norm(r) <= 3e-10 * np.linalg.norm(f)
        assert asm.divergence_norm(ops.V, u.coefficients) <= 7.1e-12 * un
        mq = asm.assemble_moment(ops.Q)
        assert abs(mq @ p.coefficients) <= 1e-12 * np.abs(mq).sum() * np.abs(p.coefficients).max()


@pytest.mark.parametrize("mesh_name", ["torus16x8", "pierced"])
def test_saddle_oracle_does_not_depend_on_its_start(mesh_name, flow_factors):
    """The oracle started from zero, from the reconstructed pressure, from
    that pressure with its higher modes qp set to zero and from a random
    pressure of the same M_Q-norm returns the same (u, p): measured at most
    7.4e-14 apart in velocity and 3.9e-13 in pressure on the torus, 6.2e-14
    and 1.9e-13 on the pierced sphere; the bounds are those of the full
    penalized block's oracle (10x its 9.5e-14 and 1.7e-12, 7.4e-14 and
    4.3e-13).  The loop leaves p[qp] alone, so the start without them
    shows that the oracle recovers them.  From the reconstructed pressure,
    with or without p[qp], it stops after 2 solves (7 from the other
    starts on the torus, 9 on the pierced sphere) and still solves its own
    system within test_saddle_oracle_solves_its_own_system's bounds."""
    mesh = (meshes.torus_structured(16, 8) if mesh_name == "torus16x8"
            else meshes.sphere_with_holes(2, 4))
    bound_u, bound_p = {"torus16x8": (9.5e-13, 1.7e-11), "pierced": (7.4e-13, 4.3e-12)}[mesh_name]
    cold = {"torus16x8": 7, "pierced": 9}[mesh_name]
    ops = FlowOperators(mesh, SimulationConfig(k=2, mu=0.7, forcing=smooth_forcing(21)))
    state, _ = ops.stokes_reduced()
    Mq = ops.pressure_mass
    p_rec = ops.reconstruct_pressure(state)
    p_mean = p_rec.coefficients.copy()
    p_mean[ops.Q.dof_map[:, 1:]] = 0.0
    p_rand = np.random.default_rng(0).standard_normal(ops.Q.total_dofs)
    p_rand *= np.sqrt(p_rec.coefficients @ (Mq @ p_rec.coefficients) / (p_rand @ (Mq @ p_rand)))
    results, solves = {}, {}
    for name, start in (("zero", None), ("reconstructed", p_rec), ("random", p_rand),
                        ("mean modes", p_mean)):
        flow_factors.clear()
        results[name] = ops.stokes_saddle(pressure=start)
        (op,) = flow_factors
        solves[name] = op.solve_count
    assert solves["reconstructed"] == solves["mean modes"] == 2
    assert min(solves["zero"], solves["random"]) >= cold

    def gap(x, ref, M):
        d = x.coefficients - ref.coefficients
        return np.sqrt(d @ (M @ d)) / np.sqrt(ref.coefficients @ (M @ ref.coefficients))

    (u0, p0), (u1, p1), (u2, p2), (u3, p3) = results.values()
    for (ua, pa), (ub, pb) in (((u1, p1), (u0, p0)), ((u2, p2), (u0, p0)), ((u1, p1), (u2, p2)),
                               ((u3, p3), (u1, p1)), ((u3, p3), (u0, p0))):
        assert gap(ua, ub, ops.M) <= bound_u
        assert gap(pa, pb, Mq) <= bound_p
    f = ops.load_vector(0.0)
    r = ops.A_visc @ u1.coefficients + ops.hodge.B.T @ p1.coefficients - f
    assert np.linalg.norm(r) <= 3e-10 * np.linalg.norm(f)
    un = np.sqrt(u1.coefficients @ (ops.M @ u1.coefficients))
    assert asm.divergence_norm(ops.V, u1.coefficients) <= 7.1e-12 * un


def test_saddle_oracle_rejects_a_bad_start(torus_ops):
    """A starting pressure of the wrong shape or with a value that is not
    finite is refused before anything is factored."""
    n_q = torus_ops.Q.total_dofs
    with pytest.raises(DimensionMismatch):
        torus_ops.stokes_saddle(pressure=np.zeros(n_q - 1))
    with pytest.raises(DimensionMismatch):
        torus_ops.stokes_saddle(pressure=np.zeros((n_q, 1)))
    with pytest.raises(NaNDetected):
        torus_ops.stokes_saddle(pressure=np.full(n_q, np.nan))


def test_saddle_oracle_matches_reduced_at_k3(genus2):
    """At k = 3 on the genus-2 block the oracle's velocity and pressure
    agree with the reduced solve and the reconstructed pressure to 6.2e-12
    and 4.4e-12; iterating u = K^-1 (f - B'p) without correcting by the
    momentum residual measured 3.0e-11 and 1.6e-11."""
    ops = FlowOperators(genus2, SimulationConfig(k=3, mu=0.4, forcing=smooth_forcing(13)))
    state, _ = ops.stokes_reduced()
    u_s, p_s = ops.stokes_saddle()
    Mq = asm.assemble_mass(ops.Q)
    for x, ref, M in ((state.u, u_s, ops.M), (ops.reconstruct_pressure(state), p_s, Mq)):
        d, r = x.coefficients - ref.coefficients, ref.coefficients
        assert np.sqrt(d @ (M @ d)) <= 1.5e-11 * np.sqrt(r @ (M @ r))


def test_saddle_oracle_inviscid_raises(torus):
    """With mu = 0 the saddle matrix is singular; the oracle reports it."""
    cfg = SimulationConfig(k=1, mu=0.0, allow_inviscid=True, forcing=smooth_forcing(15))
    with pytest.raises(SolverFailure):
        FlowOperators(torus, cfg).stokes_saddle()


def test_saddle_releases_free_heap_once_before_its_factor(torus, monkeypatch):
    """stokes_saddle hands the C heap's free pages back once: after its
    penalized block exists, which the release finds in the caller's frame,
    and before that block is factored, so the factor does not land on the
    pages its set-up freed."""
    import sys

    from surfhodge import flow

    ops = FlowOperators(torus, SimulationConfig(k=2, mu=0.5, forcing=smooth_forcing(0)))
    n = ops.V.total_dofs - ops.Q.dof_map[:, 1:].size
    events = []

    def release():
        blocks = [v for v in sys._getframe(1).f_locals.values()
                  if sp.issparse(v) and v.shape == (n, n)]
        events.append(("release", [id(v) for v in blocks]))

    class Recording(flow.FactorizedOperator):
        def __init__(self, A):
            events.append(("factor", id(A)))
            super().__init__(A)

    monkeypatch.setattr(flow, "_release_free_heap", release)
    monkeypatch.setattr(flow, "FactorizedOperator", Recording)
    ops.stokes_saddle()
    assert [event for event, _ in events] == ["release", "factor"]
    assert events[0][1] == [events[1][1]]  # the block that exists is the one factored


def test_saddle_solution_does_not_depend_on_heap_release(torus, monkeypatch):
    """Releasing free heap pages before the oracle's factor moves no bit of
    its velocity or pressure."""
    from surfhodge import flow

    ops = FlowOperators(torus, SimulationConfig(k=2, mu=0.5, forcing=smooth_forcing(0)))
    u, p = ops.stokes_saddle()
    monkeypatch.setattr(flow, "_release_free_heap", lambda: None)
    u_kept, p_kept = ops.stokes_saddle()
    assert np.array_equal(u.coefficients, u_kept.coefficients)
    assert np.array_equal(p.coefficients, p_kept.coefficients)


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


def test_one_pressure_factor_serves_draws_decompose_and_pressure(torus3, track_factors, rng):
    """The basis draws, decompose and reconstruct_pressure share one
    pressure factor, built once on first use: the mean-mode Laplacian with
    one unknown per triangle, not an operator on all DG pressure dofs (3 per
    triangle at k = 2).  The draws apply R twice, before and after their
    rot step.  The Schur solve still costs b1 + 1 solves."""
    from surfhodge import hodge

    built = track_factors(hodge)
    ops = FlowOperators(torus3, SimulationConfig(k=2, mu=0.5, forcing=smooth_forcing(5)))
    solver = ops.hodge
    op = solver.right_inverse.L0
    n_t, n_q = torus3.n_triangles, solver.Q.total_dofs
    assert op.n == n_t == n_q // 3
    assert op.solve_count == 2 * ops.basis.n_attempts == 2 * (2 + hodge.OVERSAMPLING)  # b1 + p
    state, info = ops.stokes_reduced()
    assert info["sparse_solves"] == ops.emb.n_harmonic + 1 == 3
    ops.reconstruct_pressure(state)
    solver.decompose(FeField(solver.V, rng.standard_normal(solver.V.total_dofs)), ops.basis)
    assert solver.right_inverse.L0 is op
    assert op.solve_count == 2 * ops.basis.n_attempts + 2  # decompose's lam is not read
    shapes = [A.shape for A, _, _ in built]
    assert shapes.count((n_t, n_t)) == 1
    assert (n_q, n_q) not in shapes


def test_stokes_start_factor_freed_before_step_factor(torus3, basis_cache, track_factors):
    """run_simulation solves the Stokes start before it builds the stepper:
    no A_ss factor is alive when the step factor is built."""
    from surfhodge import flow

    built = track_factors(flow)
    cfg = SimulationConfig(k=1, mu=0.2, dt=1e-2, t_end=2e-2, forcing=smooth_forcing(3))
    run_simulation(torus3, cfg, basis=basis_cache(torus3, 1))
    assert len(built) == 2  # the start's A_ss, then the step's L/dt + A_ss
    assert built[1][2] == []


def test_run_steps_without_what_they_do_not_read(torus3, monkeypatch):
    """Once run_simulation has built its stepper, A_visc, A_red, the step
    block's sparse A_ss and the pressure side that the basis draws built,
    the right inverse and its factor L0, are unreachable: every step runs
    with none of them alive."""
    from surfhodge import flow

    refs, alive, blocks = {}, [], []

    class Operators(FlowOperators):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            R = vars(self.hodge)["right_inverse"]
            refs.update(A_visc=weakref.ref(self.A_visc), A_red=weakref.ref(self.A_red),
                        right_inverse=weakref.ref(R), L0=weakref.ref(R.L0))

    class Solver(ReducedSolver):
        def __init__(self, system):
            blocks.append(weakref.ref(system.A_ss))
            super().__init__(system)

    class Stepper(NavierStokesStepper):
        def __init__(self, ops):
            super().__init__(ops)
            refs["step A_ss"] = blocks[-1]  # the last block factored is the stepper's

        def step(self, state):
            alive.append(sorted(name for name, ref in refs.items() if ref() is not None))
            return super().step(state)

    monkeypatch.setattr(flow, "FlowOperators", Operators)
    monkeypatch.setattr(flow, "ReducedSolver", Solver)
    monkeypatch.setattr(flow, "NavierStokesStepper", Stepper)
    cfg = SimulationConfig(k=1, mu=0.2, dt=1e-2, t_end=2e-2, forcing=smooth_forcing(3))
    run_simulation(torus3, cfg)
    assert len(refs) == 5 and len(blocks) == 2  # the Stokes start's block, then the step's
    assert alive == [[], []]


def test_stepper_steps_the_same_after_its_operators_are_deleted(torus3, basis_cache):
    """A built stepper reads neither A_visc nor A_red: after del ops.A_visc,
    ops.A_red it steps to the same bits as while they were alive, and the
    deleted names are gone."""
    cfg = SimulationConfig(k=1, mu=0.2, dt=1e-2, forcing=smooth_forcing(3))
    ops = FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1))
    stepper = NavierStokesStepper(ops)
    state = ops.initial_state()
    before = stepper.step(state)
    del ops.A_visc, ops.A_red
    after = stepper.step(state)
    for got, want in ((after.u.coefficients, before.u.coefficients),
                      (after.psi.coefficients, before.psi.coefficients),
                      (after.h_coeffs, before.h_coeffs)):
        assert got.tobytes() == want.tobytes()
    for name in ("A_visc", "A_red"):
        with pytest.raises(AttributeError):
            getattr(ops, name)


def test_draw_factor_released_pressure_factor_kept(torus3, track_factors):
    """After FlowOperators draws its basis, the streamfunction factor L the
    draws used is unreachable; the pressure factor they used, once before
    and once after their rot step, stays."""
    from surfhodge import hodge

    built = track_factors(hodge)
    ops = FlowOperators(torus3, SimulationConfig(k=1, mu=0.5))
    (laplace,) = [ref for A, ref, _ in built if A is ops.hodge.L]
    (pressure,) = [ref for A, ref, _ in built if A is not ops.hodge.L]
    assert laplace() is None
    assert ops.hodge.right_inverse.L0 is pressure()
    assert pressure().solve_count == 2 * ops.basis.n_attempts == 2 * (2 + hodge.OVERSAMPLING)


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
    # make_state refuses a non-finite state, so the NaN comes from outside
    good = ops.make_state(0.0, np.zeros(ops.emb.n_stream), np.zeros(ops.emb.n_harmonic))
    bad = replace(good, u=FeField(ops.V, np.full(ops.V.total_dofs, np.nan)))
    with pytest.raises(NaNDetected):
        stepper.step(bad)


def test_step_refuses_a_non_finite_right_hand_side():
    """A finite state whose convection overflows: harmonic coefficients
    (1e200, 0) give a velocity near 1e199.  The step raises NaNDetected at
    its right-hand side, and no warning of any kind comes before it."""
    ops = FlowOperators(meshes.torus_structured(8, 6), SimulationConfig(k=1, dt=1e-2))
    stepper = NavierStokesStepper(ops)
    good = ops.make_state(0.0, np.zeros(ops.emb.n_stream), np.zeros(ops.emb.n_harmonic))
    h = np.array([1e200, 0.0])
    u = ops.emb.apply(np.zeros(ops.emb.n_stream), h)
    assert np.isfinite(u).all()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NaNDetected, match="^non-finite right-hand side at t = 0.01$"):
            stepper.step(replace(good, h_coeffs=h, u=FeField(ops.V, u)))
    assert caught == []


@pytest.mark.parametrize("value", [np.nan, 1e300])
def test_make_state_refuses_a_non_finite_state(value, torus3, basis_cache):
    """make_state is where every flow state is checked: a velocity that is
    not finite, or whose kinetic energy overflows, raises NaNDetected with
    no numpy warning before it (warnings are errors under pytest)."""
    cfg = SimulationConfig(k=1, mu=0.1, dt=1e-2, t_end=1e-1)
    ops = FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1))
    with pytest.raises(NaNDetected, match="non-finite state at t = 0.25"):
        ops.make_state(0.25, np.full(ops.emb.n_stream, value), np.zeros(ops.emb.n_harmonic))


def test_nse_rejects_nondivfree_state(torus3, basis_cache, rng):
    cfg = SimulationConfig(k=1, mu=0.1, dt=1e-2, t_end=1e-1)
    ops = FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1))
    stepper = NavierStokesStepper(ops)
    state = ops.initial_state()
    bad = replace(state, u=FeField(ops.V, rng.standard_normal(ops.V.total_dofs)))
    with pytest.raises(NotDivergenceFree):
        stepper.step(bad)


def test_step_reuses_divergence_tabulation(torus3, basis_cache, monkeypatch):
    """The per-step divergence check takes the reference divergences from
    the stepper's tabulation and measures what a fresh evaluation does.
    A step builds no sparse matrix either: the gather operators, the
    transposes and the tabulations are all made before the first step
    (a transpose taken per call, A.T, would construct one)."""
    cfg = SimulationConfig(k=1, mu=0.1, dt=1e-2, t_end=1e-1, forcing=smooth_forcing(17))
    stepper = NavierStokesStepper(FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1)))
    state = stepper.ops.initial_state()
    V = stepper.ops.V
    u = state.u.coefficients
    tab = stepper._conv_cache["div"]
    assert asm._divergence_norm(V.local_coefficients(u), tab) == asm.divergence_norm(V, u)
    calls, built = [], []
    original = type(V.ref).div
    monkeypatch.setattr(type(V.ref), "div", lambda self, xy: calls.append(1) or original(self, xy))
    init = _spbase.__init__
    monkeypatch.setattr(_spbase, "__init__",
                        lambda self, *a, **kw: built.append(type(self)) or init(self, *a, **kw))
    assert V.gather.T is not None and len(built) == 1  # the count sees a transpose
    built.clear()
    for _ in range(3):
        state = stepper.step(state)
    assert calls == [] and built == []


def test_step_reads_the_state_in_reduced_coordinates(torus3, basis_cache):
    """The step's mass terms are L psi / dt and h / dt, read from the
    state's (psi, h): a step from a state whose psi was altered moves with
    it, and so does one from a state whose h was altered, u kept as it was."""
    cfg = SimulationConfig(k=1, mu=0.1, dt=1e-2, t_end=1e-1, forcing=smooth_forcing(17))
    ops = FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1))
    stepper = NavierStokesStepper(ops)
    state = ops.initial_state()
    assert np.abs(state.h_coeffs).min() > 0 and np.abs(state.psi.coefficients).max() > 0
    plain = stepper.step(state).u.coefficients
    for altered in (replace(state, psi=FeField(ops.S, 2.0 * state.psi.coefficients)),
                    replace(state, h_coeffs=2.0 * state.h_coeffs)):
        assert not np.allclose(stepper.step(altered).u.coefficients, plain)


def _same_state(a, b) -> bool:
    return (a.t == b.t and a.kinetic_energy == b.kinetic_energy
            and all(np.array_equal(x, y) for x, y in (
                (a.psi.coefficients, b.psi.coefficients), (a.h_coeffs, b.h_coeffs),
                (a.u.coefficients, b.u.coefficients))))


def test_step_holds_l_psi_for_the_state_made_last_only(torus3, basis_cache):
    """make_state holds L psi for the state it made last, and the step reads
    it for that state alone: the state made last, a replace(state, psi=...)
    copy of it, a hand-built FlowState and an earlier state each step to the
    same bits as a hand-built copy of them on fresh operators, which hold
    no product.  A state's psi
    is read-only, so the held product cannot go stale in place."""
    cfg = SimulationConfig(k=1, mu=0.1, dt=1e-2, t_end=1e-1, forcing=smooth_forcing(17))
    basis = basis_cache(torus3, 1)
    ops = FlowOperators(torus3, cfg, basis=basis)
    stepper = NavierStokesStepper(ops)
    s0 = ops.initial_state()
    s1 = stepper.step(s0)
    with pytest.raises(ValueError):
        s1.psi.coefficients[0] = 1.0

    def by_hand(st):  # a copy built from its fields' values alone
        return FlowState(t=st.t, psi=FeField(ops.S, st.psi.coefficients.copy()),
                         h_coeffs=st.h_coeffs.copy(), u=FeField(ops.V, st.u.coefficients.copy()),
                         kinetic_energy=st.kinetic_energy, step=st.step, t0=st.t0)

    altered = replace(s1, psi=FeField(ops.S, 2.0 * s1.psi.coefficients))
    for state in (s1, altered, by_hand(s0), s0):
        got = stepper.step(state)
        fresh = NavierStokesStepper(FlowOperators(torus3, cfg, basis=basis))
        assert _same_state(got, fresh.step(by_hand(state)))


@pytest.mark.parametrize("name", ["nse_trefoil", "nse_torus_decay", "nse_pierced_sphere"])
def test_recorded_rot_norm_is_mnorm_of_psi(name):
    """Every rot_norm a shipped nse config records, formed on the L psi that
    make_state held, equals mnorm(psi, L) of its state bit for bit: the
    states are replayed on operators that hold the same basis."""
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg"
    cfg, raw = load_simulation_config(path)
    mesh = meshes.resolve(raw["mesh"])
    result = run_simulation(mesh, cfg)
    ops = FlowOperators(mesh, cfg, basis=result.basis)
    stepper, state = NavierStokesStepper(ops), ops.initial_state()
    want = [mnorm(state.psi.coefficients, ops.hodge.L)]
    for _ in range(len(result.records) - 1):
        state = stepper.step(state)
        want.append(mnorm(state.psi.coefficients, ops.hodge.L))
    assert _same_state(state, result.final_state)
    assert np.array_equal(result.records[:, 3], want)


def _step_block(ops, monkeypatch):
    """(the BlockSystem that NavierStokesStepper(ops) factors, the stepper)."""
    from surfhodge import flow

    systems = []

    class Recording(ReducedSolver):
        def __init__(self, system):
            systems.append(system)
            super().__init__(system)

    with monkeypatch.context() as m:
        m.setattr(flow, "ReducedSolver", Recording)
        stepper = NavierStokesStepper(ops)
    (system,) = systems
    return system, stepper


def test_step_block_is_viscous_block_plus_reduced_mass(torus3, basis_cache, monkeypatch):
    """The step block is A_red plus the reduced mass diag(L, I) over dt:
    A_ss is A_red.A_ss + L/dt and A_sh is A_red.A_sh, bit for bit, and A_hh
    exceeds A_red.A_hh by exactly I/dt (1/dt dominates A_hh's diagonal,
    so subtracting A_red.A_hh from the sum gives 1/dt back)."""
    cfg = SimulationConfig(k=1, mu=0.1, dt=1e-2, t_end=1e-1)
    ops = FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1))
    got, red = _step_block(ops, monkeypatch)[0], ops.A_red
    assert (got.A_ss != red.A_ss + ops.hodge.L / cfg.dt).nnz == 0
    assert got.A_sh.tobytes() == red.A_sh.tobytes()
    assert np.array_equal(got.A_hh - red.A_hh, np.eye(red.n_harmonic) / cfg.dt)


def test_time_loop_makes_no_mass_product(torus3, basis_cache, monkeypatch, counting_mass):
    """A run from a given basis and a zero start makes one product with M,
    validate_basis's: states, the step block, the steps and the recorded
    norms all work with the reduced mass diag(L, I)."""
    from surfhodge.hodge import HodgeSolver

    masses, init = [], HodgeSolver.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.M = counting_mass(self.M)
        masses.append(self.M)

    monkeypatch.setattr(HodgeSolver, "__init__", counting_init)
    cfg = SimulationConfig(k=1, mu=0.1, dt=1e-2, t_end=3e-2, initial="zero",
                           forcing=smooth_forcing(17))
    result = run_simulation(torus3, cfg, basis=basis_cache(torus3, 1))
    assert len(result.records) == 4 and result.kinetic_energy[-1] > 0
    assert [M.products for M in masses] == [1]


@pytest.mark.parametrize("name", ["nse_trefoil", "nse_torus_decay", "nse_pierced_sphere"])
def test_timeseries_rows_satisfy_pythagoras(name):
    """Every recorded row of a shipped nse config, which is a row of its
    timeseries.csv, splits its energy as 2 KE = harmonic_norm^2 +
    rot_norm^2 to rounding: both sides read the one reduced mass diag(L, I)
    (measured: at most 3.3e-16 relative)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg"
    cfg, raw = load_simulation_config(path)
    records = run_simulation(meshes.resolve(raw["mesh"]), cfg).records
    two_ke, h_norm, rot_norm = 2.0 * records[:, 1], records[:, 2], records[:, 3]
    live = two_ke > 0
    assert live.sum() > 1
    gap = np.abs(two_ke - h_norm**2 - rot_norm**2)[live]
    assert (gap <= 1e-15 * two_ke[live]).all(), gap.max()


def test_step_reads_cfl_sup_norm_from_convection(torus3, basis_cache, monkeypatch):
    """The CFL check reads max |u| from the step's convection evaluation,
    which evaluates u nowhere else; that value agrees with tabulate_field
    at the convection rule."""
    cfg = SimulationConfig(k=1, mu=0.1, dt=1e-2, t_end=1e-1, forcing=smooth_forcing(17))
    stepper = NavierStokesStepper(FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1)))
    state = stepper.ops.initial_state()
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
def test_step_blocks_match_restricted_parent(mesh_name, basis_cache, request, monkeypatch):
    """The time-step blocks, summed from L, the restricted viscous form and
    the harmonic blocks of M, are the restriction of M/dt + A_visc: on a
    closed surface (torus, b1 = 2), whose step factor pins a dof, and an
    open one (pierced sphere, b1 = 3)."""
    mesh = request.getfixturevalue(mesh_name)
    cfg = SimulationConfig(k=1, mu=0.3, dt=1e-2, t_end=0.0)
    ops = FlowOperators(mesh, cfg, basis=basis_cache(mesh, 1))
    got, stepper = _step_block(ops, monkeypatch)
    want = ops.emb.reduce_matrix(ops.M / cfg.dt + ops.A_visc)
    assert got.n_harmonic == {"torus3": 2, "sphere4": 3}[mesh_name]
    assert stepper.solver.op.pinned == (mesh_name == "torus3")
    assert abs(got.A_ss - want.A_ss).max() <= 1e-12 * abs(want.A_ss).max()
    for name in ("A_sh", "A_hh"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


def test_step_factor_fill_on_trefoil(flow_factors):
    """The time-step block of the unstructured trefoil tube at the
    nse_trefoil.cfg settings holds about 113k LU entries with unrelaxed
    supernodes, against 138k with SuperLU's default relax = 10."""
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "nse_trefoil.cfg"
    cfg, _ = load_simulation_config(path)
    ops = FlowOperators(meshes.trefoil_tube(24, 8), cfg)
    flow_factors.clear()
    stepper = NavierStokesStepper(ops)
    assert flow_factors == [stepper.solver.op]
    assert stepper.solver.op.lu_nnz < 125_000


@pytest.mark.parametrize("name", ["nse_trefoil", "nse_torus_decay", "nse_pierced_sphere"])
def test_step_energy_identity(name):
    """The step is tested with u1, which lies in J, so each step satisfies
    E1 - E0 + |u1 - u0|_M^2 / 2 + dt a(u1, u1) - dt (f(t1), u1)
    + dt c(u0; u0, u1) = 0 exactly.  Over 30 steps of each shipped nse
    config the residual stays within 1e-10 of the largest term (measured:
    2.1e-12 or less on the trefoil and the torus, 1.3e-11 on the pierced
    sphere).  nse_torus_decay's forcing is switched off after
    t = 0, so a load taken at t_n instead of t_(n+1) breaks the first step."""
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg"
    cfg, raw = load_simulation_config(path)
    ops = FlowOperators(meshes.resolve(raw["mesh"]), cfg)
    state = ops.initial_state()
    stepper = NavierStokesStepper(ops)
    dt = cfg.dt
    for _ in range(30):
        new = stepper.step(state)
        u0, u1 = state.u.coefficients, new.u.coefficients
        du = u1 - u0
        cu, _ = asm.convection_action(stepper._conv_cache, state.u, u0)
        terms = [new.kinetic_energy - state.kinetic_energy, 0.5 * du @ (ops.M @ du),
                 dt * u1 @ (ops.A_visc @ u1), -dt * ops.load_vector(new.t) @ u1, dt * cu @ u1]
        assert abs(sum(terms)) <= 1e-10 * max(map(abs, terms)), (new.step, terms)
        state = new


def test_refined_stokes_matches_saddle_on_48x24_torus():
    """One refinement brings the reduced Stokes velocity on the 48x24 rung
    of the desk ladder (torus, k = 2, mu = 1) to the saddle oracle's: a gap
    of 4.6e-9 unrefined, 8e-13 refined.  The Schur solve still counts
    b1 + 1 sparse solves; the refinement is counted on its own.  The
    reconstructed pressure meets the oracle's to 3.4e-11 in the pressure
    mass norm; a basis drawn one field at a time left 2.8e-10."""
    cfg = SimulationConfig(k=2, mu=1.0, forcing=smooth_forcing(21))
    ops = FlowOperators(meshes.torus_structured(48, 24), cfg)
    state, info = ops.stokes_reduced()
    assert info["sparse_solves"] == ops.emb.n_harmonic + 1 and info["refinement_solves"] == 1
    u, p = (f.coefficients for f in ops.stokes_saddle())
    d = state.u.coefficients - u
    assert np.sqrt(d @ (ops.M @ d)) <= 1e-11 * np.sqrt(u @ (ops.M @ u))
    dp, Mq = ops.reconstruct_pressure(state).coefficients - p, ops.pressure_mass
    assert np.sqrt(dp @ (Mq @ dp)) <= 1e-10 * np.sqrt(p @ (Mq @ p))


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


def test_time_dependent_load_keeps_its_tabulation(torus3, basis_cache):
    """nse_torus_decay's forcing reads t, so FlowOperators keeps the load
    tabulation, and each load is assemble_load's, bit for bit."""
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "nse_torus_decay.cfg"
    cfg, _ = load_simulation_config(path)
    ops = FlowOperators(torus3, cfg, basis=basis_cache(torus3, 1))
    assert "_load_tab" in vars(ops)
    for t in (0.0, 0.002, 0.0025, 0.1):
        assert ops.load_vector(t).tobytes() == asm.assemble_load(ops.V, cfg.forcing, t).tobytes()


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
    assert "_load_tab" not in vars(ops)  # a steady load is assembled once: no tabulation kept
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
    state = ops.initial_state()
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
    """A viscous block singular beyond the constants makes the Stokes solve
    raise SingularOperator: mu = 0, where no viscous form remains.  A block
    whose kernel is the constants (here: the mass form) solves, with the
    replaced block factored and pinned."""
    import surfhodge.flow as flow

    factored = []

    class Recording(flow.FactorizedOperator):
        def __init__(self, A):
            factored.append((A, self))
            super().__init__(A)

    monkeypatch.setattr(flow, "FactorizedOperator", Recording)
    cfg = SimulationConfig(k=0, mu=1.0, forcing=smooth_forcing(12))
    ops = FlowOperators(torus3, cfg, basis=basis_cache(torus3, 0))
    # E' M E is singular on the constants only
    ops.A_red = ops.emb.reduce_matrix(ops.M)
    ops.stokes_reduced()
    assert factored[-1][0] is ops.A_red.A_ss and factored[-1][1].pinned
    inviscid = FlowOperators(torus3, replace(cfg, mu=0.0, allow_inviscid=True),
                             basis=basis_cache(torus3, 0))
    with pytest.raises(SingularOperator):
        inviscid.stokes_reduced()
    assert factored[-1][0] is inviscid.A_red.A_ss


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


@pytest.mark.parametrize("name, k", [("sphere_with_holes", 2), ("trefoil_tube", 1)])
def test_shared_solvers_under_threads_match_a_serial_run(name, k):
    """A HodgeSolver and a stepper, shared after a first call from one
    thread, serve several threads: 4 threads run decompose (reading its
    residual_norm and lam) and NavierStokesStepper.step on one
    FlowOperators' solver and one stepper, and every result is byte-equal
    to the serial run's."""
    from concurrent.futures import ThreadPoolExecutor

    mesh = meshes.sphere_with_holes(2, 4) if name == "sphere_with_holes" else \
        meshes.trefoil_tube(12, 6)
    ops = FlowOperators(mesh, SimulationConfig(k=k, mu=0.1, dt=1e-3, forcing=smooth_forcing(1)))
    stepper, solver, basis = NavierStokesStepper(ops), ops.hodge, ops.basis
    rng = np.random.default_rng(5)
    states = [ops.initial_state()]
    for _ in range(7):
        states.append(stepper.step(states[-1]))
    tasks = [("step", s) for s in states] + [
        ("decompose", FeField(ops.V, rng.standard_normal(ops.V.total_dofs))) for _ in range(16)]

    def run(task):
        kind, x = task
        if kind == "step":
            st = stepper.step(x)
            out = (st.psi.coefficients, st.h_coeffs, st.u.coefficients, st.kinetic_energy)
        else:
            comp = solver.decompose(x, basis)
            out = (comp.psi.coefficients, comp.h_coeffs, comp.rot_part, comp.harmonic_part,
                   comp.gradient_part, comp.residual_norm, comp.lam.coefficients)
        return [np.asarray(a).tobytes() for a in out]

    serial = [run(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(run, tasks * 8))
    assert threaded == serial * 8

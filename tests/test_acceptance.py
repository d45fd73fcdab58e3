"""Acceptance suite: end-to-end checks at pinned tolerances.

Each criterion prints one PASS/FAIL line (run with -s or look at captured
output).  Tolerances are fixed here, not calibrated elsewhere.
"""

import time

import numpy as np
import pytest

from surfhodge import assembly as asm, meshes
from surfhodge.fespace import FeField, build_space, count_dofs
from surfhodge.flow import (
    FlowOperators,
    NavierStokesStepper,
    ReducedSolver,
    SimulationConfig,
    run_simulation,
)
from surfhodge.hodge import HodgeSolver, decompose_p0_incomplete, verify_dimension
from surfhodge.linalg import zero_mean
from surfhodge.mesh import analyze_topology


def report(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {name}" + (f"  ({detail})" if detail else ""))
    assert passed, f"acceptance criterion {num} failed: {name} {detail}"


@pytest.fixture(scope="module")
def acc_corpus():
    c = meshes.corpus()
    return c


def smooth_random_forcing(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((3, 3))
    w = rng.uniform(0.5, 1.5, size=3)
    p = rng.uniform(0, 2 * np.pi, size=3)

    def f(x, t=0.0):
        s = np.sin(w[None, :] * x + p[None, :])
        return s @ A.T

    return f


def test_criterion_1_harmonic_dimensions(acc_corpus):
    """Harmonic basis cardinality equals b1 for k in {0,1,2} across the
    topology corpus; < 30 s total."""
    expected = {"tetrahedron": 0, "icosphere": 0, "torus": 2, "genus2": 4,
                "sphere_4holes": 3, "trefoil": 2}
    t0 = time.time()
    failures = []
    for name, b1 in expected.items():
        for k in (0, 1, 2):
            got = HodgeSolver(acc_corpus[name], k).harmonic_basis(seed=0).dimension
            if got != b1:
                failures.append(f"{name} k={k}: {got} != {b1}")
    elapsed = time.time() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    report(1, "harmonic dimensions match Betti numbers", not failures,
           f"6 meshes x k in 0..2, {elapsed:.1f}s" if not failures else "; ".join(failures))


def test_criterion_2_dof_table_counts():
    """Closed genus-1 surface with 3490 triangles (the 349 x 5 structured
    torus): closed-form dof counts for the coupled spaces at degree 3 come
    out exactly."""
    topo = analyze_topology(meshes.torus_structured(349, 5))
    checks = {
        "lagrange deg 4": (count_dofs(topo, "lagrange", 4, "zero_mean"), 27920),
        "bdm deg 3": (count_dofs(topo, "bdm", 3), 48860),
        "dg pressure deg 2": (count_dofs(topo, "dg_pressure", 2), 20940),
        "facet deg 3": (count_dofs(topo, "facet_tangential", 3), 20940),
        "harmonic dim": (verify_dimension(topo, 3).difference, 2),
    }
    failures = [f"{k}: {got} != {want}" for k, (got, want) in checks.items()
                if got != want]
    report(2, "dof table counts for the 3490-triangle genus-1 surface",
           not failures, "; ".join(failures) if failures else "all counts exact")


def test_criterion_3_orthogonality_structure(acc_corpus):
    """Gram/cross-Gram/divergence/chain-complex/reconstruction identities on
    every corpus mesh for k in {0,1,2}."""
    failures = []
    rng = np.random.default_rng(0)
    for name, mesh in acc_corpus.items():
        for k in (0, 1, 2):
            solver = HodgeSolver(mesh, k)
            basis = solver.harmonic_basis(seed=0)
            if basis.dimension:
                G = basis.vectors @ (solver.M @ basis.vectors.T)
                if np.abs(G - np.eye(basis.dimension)).max() > 1e-10:
                    failures.append(f"{name} k={k}: Gram")
                cross = solver.E.T @ (solver.M @ basis.vectors.T)
                if np.abs(cross).max() > 1e-10:
                    failures.append(f"{name} k={k}: cross-Gram")
                for h in basis.vectors:
                    if asm.divergence_norm(solver.V, h) > 1e-10:
                        failures.append(f"{name} k={k}: div h")
                        break
            BE = solver.B @ solver.E
            if BE.nnz:
                scale = abs(solver.B).dot(abs(solver.E)).max()
                if abs(BE).max() > 1e-12 * max(scale, 1e-300):
                    failures.append(f"{name} k={k}: div o rot")
            v = FeField(solver.V, rng.standard_normal(solver.V.total_dofs))
            comp = solver.decompose(v, basis)
            nv2 = float(v.coefficients @ (solver.M @ v.coefficients))
            if comp.residual_norm > 1e-10 * np.sqrt(nv2):
                failures.append(f"{name} k={k}: residual")
            parts = [comp.rot_part, comp.harmonic_part, comp.gradient_part]
            total = sum(float(p @ (solver.M @ p)) for p in parts)
            if abs(total + comp.residual_norm**2 - nv2) > 1e-10 * nv2:
                failures.append(f"{name} k={k}: pythagoras")
    report(3, "orthogonality and reconstruction suite", not failures,
           "; ".join(failures[:4]) if failures else "6 meshes x k in 0..2")


def test_criterion_4_formulation_equivalence(acc_corpus):
    """Reduced streamfunction-harmonic velocity and saddle-point velocity /
    pressure agree to 1e-8 relative; 2 meshes x k in {1,2} x 5 forcings;
    < 2 min."""
    t0 = time.time()
    failures = []
    for name in ("torus", "sphere_4holes"):
        mesh = acc_corpus[name]
        for k in (1, 2):
            cfg = SimulationConfig(k=k, mu=0.7, forcing=None)
            ops = FlowOperators(mesh, cfg)
            Mq = asm.assemble_mass(ops.Q)
            mq = asm.assemble_moment(ops.Q)
            for fs in range(5):
                load = asm.assemble_load(ops.V, smooth_random_forcing(fs))
                state, _ = ops.stokes_reduced(load=load)
                u_s, p_s = ops.stokes_saddle(load=load)
                du = state.u.coefficients - u_s.coefficients
                un = np.sqrt(u_s.coefficients @ (ops.M @ u_s.coefficients))
                if np.sqrt(du @ (ops.M @ du)) > 1e-8 * un:
                    failures.append(f"{name} k={k} f{fs}: velocity")
                # both pressures are zero-mean, so they compare as they are
                # (all-ones coefficients are not the constant function in the
                # orthonormal DG basis)
                pr = ops.reconstruct_pressure(state, load=load).coefficients
                ps = p_s.coefficients
                for p in (pr, ps):
                    if abs(mq @ p) > 1e-12 * np.abs(mq).sum() * np.abs(p).max():
                        failures.append(f"{name} k={k} f{fs}: pressure mean")
                dp = pr - ps
                pn = np.sqrt(ps @ (Mq @ ps))
                if np.sqrt(dp @ (Mq @ dp)) > 1e-8 * max(pn, 1e-300):
                    failures.append(f"{name} k={k} f{fs}: pressure")
    elapsed = time.time() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    report(4, "reduced formulation equals saddle-point oracle", not failures,
           f"2 meshes x k in 1..2 x 5 forcings, {elapsed:.1f}s"
           if not failures else "; ".join(failures[:4]))


def test_criterion_5_pressure_robustness(acc_corpus):
    """Adding a discrete gradient to the load changes the velocity by at
    most 1e-10 relative."""
    mesh = acc_corpus["torus"]
    cfg = SimulationConfig(k=1, mu=0.7, forcing=None)
    ops = FlowOperators(mesh, cfg)
    load = asm.assemble_load(ops.V, smooth_random_forcing(42))
    state0, _ = ops.stokes_reduced(load=load)
    rng = np.random.default_rng(1)
    failures = []
    for trial in range(3):
        q = rng.standard_normal(ops.Q.total_dofs)
        state1, _ = ops.stokes_reduced(load=load + ops.hodge.B.T @ q)
        du = state1.u.coefficients - state0.u.coefficients
        un = np.sqrt(state0.u.coefficients @ (ops.M @ state0.u.coefficients))
        rel = np.sqrt(du @ (ops.M @ du)) / un
        if rel > 1e-10:
            failures.append(f"trial {trial}: {rel:.2e}")
    report(5, "velocity invariant under gradient forcing shifts", not failures,
           "; ".join(failures) if failures else "3 gradient perturbations")


def test_criterion_6_schur_correctness(acc_corpus, monolithic_solve):
    """Schur solve equals the monolithic block solve to 1e-10 and performs
    exactly n_harmonic + 1 sparse solves.  The torus is closed: the Schur
    solve's x_s, shifted to zero mean, is compared with the solve bordered
    by the zero-mean constraint."""
    mesh = acc_corpus["torus"]
    cfg = SimulationConfig(k=1, mu=0.5, forcing=smooth_random_forcing(7))
    ops = FlowOperators(mesh, cfg)
    system = ops.emb.reduce_matrix(ops.A_visc)
    b_s, b_h = ops.emb.reduce_vector(ops.load_vector(0.0))
    solver = ReducedSolver(system)
    xs, xh = solver.solve(b_s, b_h)
    info = {"sparse_solves": solver.sparse_solves}
    moment = asm.assemble_moment(ops.S)
    xs = zero_mean(xs, moment)
    xs2, xh2 = monolithic_solve(system, b_s, b_h, moment)
    scale = max(np.abs(xs2).max(), np.abs(xh2).max())
    failures = []
    if np.abs(xs - xs2).max() > 1e-10 * scale or np.abs(xh - xh2).max() > 1e-10 * scale:
        failures.append("schur vs monolithic mismatch")
    if info["sparse_solves"] != system.n_harmonic + 1:
        failures.append(f"{info['sparse_solves']} sparse solves != "
                        f"{system.n_harmonic + 1}")
    report(6, "Schur complement solve (n_harmonic + 1 sparse solves)",
           not failures, "; ".join(failures) if failures else
           f"{info['sparse_solves']} solves for b1 = {system.n_harmonic}")


def test_criterion_7_energy_decay(acc_corpus):
    """200 unforced IMEX steps on the torus: kinetic energy non-increasing
    within 1e-10 relative slack per step; pointwise divergence-free states."""
    mesh = acc_corpus["torus"]

    def weak(x, t=0.0):
        return 1e-3 * smooth_random_forcing(3)(x, t)

    cfg0 = SimulationConfig(k=1, mu=0.1, dt=1e-2, t_end=0.0, forcing=weak)
    ops = FlowOperators(mesh, cfg0)
    u0, _ = ops.stokes_reduced()
    stepper0 = NavierStokesStepper(ops)
    # largest |u| at the volume points of the step's convection rule
    umax = np.linalg.norm(asm.tabulate_field(u0.u, stepper0._conv_cache["vol"][0]), axis=-1).max()
    dt = min(1e-2, 0.4 * mesh.h_min / max(umax, 1e-12))
    cfg = SimulationConfig(k=1, mu=0.1, dt=dt, t_end=0.0)
    run_ops = FlowOperators(mesh, cfg, basis=ops.basis)
    stepper = NavierStokesStepper(run_ops)
    state = u0
    ke0 = state.kinetic_energy
    failures = []
    for n in range(200):
        new = stepper.step(state)
        if new.kinetic_energy > state.kinetic_energy + 1e-10 * ke0:
            failures.append(f"energy rose at step {n}")
            break
        un = np.sqrt(new.u.coefficients @ (run_ops.M @ new.u.coefficients))
        if asm.divergence_norm(run_ops.V, new.u.coefficients) > 1e-10 * un:
            failures.append(f"divergence at step {n}")
            break
        state = new
    report(7, "monotone viscous energy decay over 200 steps", not failures,
           "; ".join(failures) if failures else
           f"KE {ke0:.3e} -> {state.kinetic_energy:.3e}, dt = {dt:.2e}")


def test_criterion_8_lowest_order_flat_decomposition():
    """On flat simply connected patches the piecewise-constant space
    reconstructs exactly from rotated P1 gradients plus broken CR
    gradients; dimension identity 2|T| = |V_I| + |E| - 1."""
    failures = []
    rng = np.random.default_rng(5)
    for mesh, label in ((meshes.square_two_triangles(), "2-triangle square"),
                        (meshes.flat_patch(4), "4x4 patch")):
        topo = analyze_topology(mesh)
        if 2 * topo.n_triangles != topo.n_interior_vertices + topo.n_edges - 1:
            failures.append(f"{label}: dimension identity")
        P0 = build_space(mesh, "dg_vector", 0)
        v = FeField(P0, rng.standard_normal(P0.total_dofs))
        dec = decompose_p0_incomplete(v)
        nv = np.linalg.norm(v.coefficients)
        if dec.residual_norm > 1e-12 * max(nv, 1.0):
            failures.append(f"{label}: residual {dec.residual_norm:.2e}")
        if dec.h_coeffs.size != 0:
            failures.append(f"{label}: unexpected harmonic part")
    report(8, "exact lowest-order decomposition on flat patches",
           not failures, "; ".join(failures) if failures else "2 patches exact")


def test_criterion_9_qualitative_runs(acc_corpus):
    """Coarse qualitative runs: persistent harmonic transport on the
    genus-1 knot tube over >= 500 steps without NaN; identically zero
    harmonic series on a b1 = 0 sphere."""
    from surfhodge.config import constant_band_forcing

    failures = []
    trefoil = acc_corpus["trefoil"]
    f = constant_band_forcing(direction=(0.0, 1.0, 0.0), amplitude=0.02,
                              band_axis=0, band_max=0.0)
    cfg = SimulationConfig(k=1, mu=0.1, dt=2e-2, t_end=500 * 2e-2,
                           forcing=f, output_every=0)
    res = run_simulation(trefoil, cfg)
    if not np.isfinite(res.records).all():
        failures.append("trefoil: non-finite record")
    if len(res.records) < 501:
        failures.append("trefoil: fewer than 500 steps")
    h = res.harmonic_norms
    tail = h[-len(h) // 4 :]
    if not (h[-1] > 1e-6 and tail.min() > 0.25 * h.max()):
        failures.append(f"trefoil: harmonic component not persistent "
                        f"(final {h[-1]:.2e}, tail min {tail.min():.2e})")
    un = np.sqrt(2 * max(res.kinetic_energy[-1], 0.0))
    sphere = acc_corpus["icosphere"]
    cfg_s = SimulationConfig(k=1, mu=0.1, dt=1e-2, t_end=100 * 1e-2,
                             forcing=lambda x, t=0.0: 1e-3 * smooth_random_forcing(2)(x, t),
                             output_every=0)
    res_s = run_simulation(sphere, cfg_s)
    if res_s.basis.dimension != 0:
        failures.append("sphere: unexpected harmonic basis")
    if np.abs(res_s.harmonic_norms).max() != 0.0:
        failures.append("sphere: nonzero harmonic series")
    if not np.isfinite(res_s.records).all():
        failures.append("sphere: non-finite record")
    report(9, "qualitative genus-1 transport and b1 = 0 runs", not failures,
           "; ".join(failures) if failures else
           f"trefoil |h| final {h[-1]:.3g} over {len(res.records) - 1} steps; "
           f"sphere harmonic series identically zero")

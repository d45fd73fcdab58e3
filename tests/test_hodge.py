import numpy as np
import pytest

from surfhodge import assembly as asm, meshes
from surfhodge.errors import BasisMismatch, MaxAttemptsExceeded, WrongDegree
from surfhodge.fespace import FeField, build_space
from surfhodge.hodge import (
    HarmonicBasis,
    HodgeSolver,
    decompose_p0_incomplete,
    verify_dimension,
)
from surfhodge.mesh import SurfaceMesh, TopologySummary, analyze_topology


# --------------------------------------------------------------- dimensions
def test_verify_dimension_tetrahedron(tetra):
    rep = verify_dimension(analyze_topology(tetra), 0)
    assert (rep.dim_divfree, rep.dim_rot) == (3, 3)  # 6 - 3 and 4 - 1
    assert rep.difference == 0 == rep.b1
    assert rep.consistent


def test_verify_dimension_torus3(torus3):
    rep = verify_dimension(analyze_topology(torus3), 0)
    assert (rep.dim_divfree, rep.dim_rot) == (10, 8)  # 27 - 17 and 9 - 1
    assert rep.difference == 2 == rep.b1


def test_verify_dimension_large_genus1():
    rep = verify_dimension(TopologySummary.closed_surface(3490, 1), 3)
    assert rep.difference == 2
    assert rep.consistent


def test_verify_dimension_corpus(corpus):
    for mesh in corpus.values():
        topo = analyze_topology(mesh)
        for k in range(4):
            assert verify_dimension(topo, k).consistent


# --------------------------------------------------------- harmonic basis
def test_harmonic_counts(corpus, basis_cache):
    expected = {"tetrahedron": 0, "icosphere": 0, "torus": 2, "genus2": 4,
                "sphere_4holes": 3, "trefoil": 2}
    for name, b1 in expected.items():
        for k in [0, 1]:
            basis = basis_cache(corpus[name], k)
            assert basis.dimension == b1, (name, k)


def test_sphere_needs_zero_solves(tetra):
    solver = HodgeSolver(tetra, 1)
    basis = solver.harmonic_basis(seed=0)
    assert basis.dimension == 0
    assert basis.n_attempts == 0
    assert solver._pressure is None  # no factorization triggered


def test_torus3_k0_orthogonality(torus3, solver_cache):
    solver = solver_cache(torus3, 0)
    basis = solver.harmonic_basis(seed=0)
    assert basis.dimension == 2
    G = basis.vectors @ (solver.M @ basis.vectors.T)
    assert np.abs(G - np.eye(2)).max() < 1e-10
    # orthogonal to every rot generator (the |V| - 1 independent hats)
    cross = solver.E.T @ (solver.M @ basis.vectors.T)
    assert np.abs(cross).max() < 1e-10


def test_harmonic_seed_independent_dimension(torus3, solver_cache):
    solver = solver_cache(torus3, 0)
    for seed in range(10):
        assert solver.harmonic_basis(seed=seed).dimension == 2


def test_harmonic_span_independent_of_seed(torus3, solver_cache):
    solver = solver_cache(torus3, 0)
    b1 = solver.harmonic_basis(seed=1)
    b2 = solver.harmonic_basis(seed=2)
    assert np.abs(b1.vectors - b2.vectors).max() > 1e-6  # different vectors
    P1 = b1.vectors.T @ (b1.vectors @ solver.M.toarray())
    P2 = b2.vectors.T @ (b2.vectors @ solver.M.toarray())
    assert np.abs(P1 - P2).max() < 1e-8  # same span (projector match)


def test_harmonic_members_divfree_and_rot_orthogonal(corpus, solver_cache, basis_cache):
    for name in ("torus", "genus2", "sphere_4holes"):
        mesh = corpus[name]
        for k in [0, 1, 2]:
            solver = solver_cache(mesh, k)
            basis = basis_cache(mesh, k)
            for h in basis.vectors:
                assert asm.divergence_norm(solver.V, h) <= 1e-10
                assert np.abs(solver.E.T @ (solver.M @ h)).max() <= 1e-10


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_streamfunction_form_is_stiffness(corpus, solver_cache, k):
    """L, assembled as the Lagrange stiffness, equals E' M E (rot is an
    isometry) and stores none of the rounding entries E carries into the
    triple product."""
    for mesh in corpus.values():
        solver = solver_cache(mesh, k)
        ELE = (solver.E.T @ solver.M @ solver.E).tocsr()
        assert abs(solver.L - ELE).max() <= 1e-13 * abs(ELE).max()
        if k > 0:  # at k = 0 both couple exactly the vertices of each triangle
            assert solver.L.nnz < ELE.nnz


def test_max_attempts_exceeded(torus3):
    solver = HodgeSolver(torus3, 0)
    with pytest.raises(MaxAttemptsExceeded):
        # candidates are unit fields; an impossible drop tolerance forces
        # every draw of the 20 b1 + 20 budget to be discarded
        solver.harmonic_basis(seed=0, tol=10.0)


def test_basis_json_round_trip(tmp_path, torus3, basis_cache):
    basis = basis_cache(torus3, 1)
    path = tmp_path / "basis.json"
    basis.save_json(path)
    back = HarmonicBasis.load_json(path)
    assert back.k == basis.k
    assert back.mesh_checksum == basis.mesh_checksum
    assert np.abs(back.vectors - basis.vectors).max() == 0.0  # bit exact


def test_basis_mismatch(torus3, torus, basis_cache):
    basis = basis_cache(torus3, 1)
    other = HodgeSolver(torus, 1)
    with pytest.raises(BasisMismatch):
        other.check_basis(basis)
    wrong_k = HodgeSolver(torus3, 0)
    with pytest.raises(BasisMismatch):
        wrong_k.check_basis(basis)


def test_field_from_another_mesh_rejected(torus, solver_cache, basis_cache):
    """A BDM field with the solver's dof count on another mesh (the torus
    stretched along y and z) is refused by decompose; a space rebuilt on
    the solver's own mesh object is accepted."""
    solver = solver_cache(torus, 1)
    basis = basis_cache(torus, 1)
    stretched = SurfaceMesh(torus.vertices * [1.0, 1.3, 0.7], torus.triangles)
    coeffs = np.random.default_rng(2).standard_normal(solver.V.total_dofs)
    foreign = FeField(build_space(stretched, "bdm", 1, "zero_normal_trace"), coeffs)
    with pytest.raises(BasisMismatch):
        solver.decompose(foreign, basis)
    rebuilt = FeField(build_space(torus, "bdm", 1, "zero_normal_trace"), coeffs)
    want = solver.decompose(FeField(solver.V, coeffs), basis)
    assert solver.decompose(rebuilt, basis).residual_norm == want.residual_norm


def test_validate_basis_numeric_checks(torus3, solver_cache, basis_cache, rng):
    """validate_basis accepts a computed basis and names the failed check
    for an orthonormal set that is not divergence-free or not orthogonal
    to the rotated gradients."""
    from dataclasses import replace

    solver = solver_cache(torus3, 1)
    basis = basis_cache(torus3, 1)
    solver.validate_basis(basis)
    M, h0 = solver.M, basis.vectors[0]

    def second(w):
        w = w - (h0 @ (M @ w)) * h0
        return replace(basis, vectors=np.array([h0, w / np.sqrt(w @ (M @ w))]))

    with pytest.raises(BasisMismatch, match="divergence"):
        solver.validate_basis(second(rng.standard_normal(solver.V.total_dofs)))
    with pytest.raises(BasisMismatch, match="rotated gradients"):
        solver.validate_basis(second(solver.E @ rng.standard_normal(solver.S.total_dofs)))


# -------------------------------------------------------------- projection
def _project(solver, basis, v):
    """The L2 projection of v into the divergence-free subspace, rot_part +
    harmonic_part of decompose, and the multiplier lam of the rest."""
    comp = solver.decompose(v, basis)
    return comp.rot_part + comp.harmonic_part, comp.lam.coefficients


def test_helmholtz_rot_field_fixed(torus3, solver_cache, basis_cache, rng):
    solver = solver_cache(torus3, 1)
    r = FeField(solver.V, solver.E @ rng.standard_normal(solver.S.total_dofs))
    u, lam = _project(solver, basis_cache(torus3, 1), r)
    nr = np.sqrt(r.coefficients @ (solver.M @ r.coefficients))
    d = u - r.coefficients
    assert np.sqrt(d @ (solver.M @ d)) <= 1e-10 * nr
    assert np.abs(lam).max() <= 1e-10 * nr


def test_helmholtz_harmonic_member_fixed(torus3, solver_cache, basis_cache):
    solver = solver_cache(torus3, 1)
    basis = basis_cache(torus3, 1)
    h = FeField(solver.V, basis.vectors[0])
    u, lam = _project(solver, basis, h)
    assert np.abs(u - h.coefficients).max() < 1e-10
    assert np.abs(lam).max() < 1e-10


def test_helmholtz_random_properties(torus3, solver_cache, basis_cache, rng):
    solver = solver_cache(torus3, 1)
    basis = basis_cache(torus3, 1)
    r = FeField(solver.V, rng.standard_normal(solver.V.total_dofs))
    u, _ = _project(solver, basis, r)
    nrm = np.sqrt(u @ (solver.M @ u))
    assert asm.divergence_norm(solver.V, u) <= 1e-10 * nrm
    # (u, grad-part q) = 0 for all q: divergence pairing vanishes
    assert np.abs(solver.B @ u).max() <= 1e-10 * nrm
    # idempotent
    u2, _ = _project(solver, basis, FeField(solver.V, u))
    assert np.abs(u2 - u).max() <= 1e-12 * max(1.0, np.abs(u).max())


# -------------------------------------------------------------- decompose
def test_decompose_rot_input(torus, solver_cache, basis_cache, rng):
    solver = solver_cache(torus, 1)
    basis = basis_cache(torus, 1)
    psi0 = rng.standard_normal(solver.S.total_dofs)
    v = FeField(solver.V, solver.E @ psi0)
    comp = solver.decompose(v, basis)
    nv = np.sqrt(v.coefficients @ (solver.M @ v.coefficients))
    assert np.abs(comp.h_coeffs).max() <= 1e-10 * nv
    assert np.abs(comp.lam.coefficients).max() <= 1e-10 * nv
    assert comp.residual_norm <= 1e-10 * nv
    # psi agrees with psi0 as a field (gauge fixed by the zero-mean space)
    d = solver.E @ (comp.psi.coefficients - psi0)
    assert np.sqrt(d @ (solver.M @ d)) <= 1e-10 * nv


def test_decompose_harmonic_input(torus, solver_cache, basis_cache):
    solver = solver_cache(torus, 1)
    basis = basis_cache(torus, 1)
    v = FeField(solver.V, basis.vectors[0])
    comp = solver.decompose(v, basis)
    assert comp.h_coeffs == pytest.approx([1.0, 0.0], abs=1e-10)
    assert np.sqrt(comp.rot_part @ (solver.M @ comp.rot_part)) <= 1e-9
    assert np.abs(comp.lam.coefficients).max() <= 1e-10


def test_decompose_random_orthogonality(torus, solver_cache, basis_cache, rng):
    solver = solver_cache(torus, 1)
    basis = basis_cache(torus, 1)
    v = FeField(solver.V, rng.standard_normal(solver.V.total_dofs))
    comp = solver.decompose(v, basis)
    nv2 = v.coefficients @ (solver.M @ v.coefficients)
    parts = [comp.rot_part, comp.harmonic_part, comp.gradient_part]
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(parts[i] @ (solver.M @ parts[j])) <= 1e-10 * nv2
    assert comp.residual_norm <= 1e-10 * np.sqrt(nv2)
    total = sum(p @ (solver.M @ p) for p in parts)
    assert abs(total - nv2) <= 1e-10 * nv2  # Pythagoras


@pytest.mark.parametrize("mesh_name,k", [("torus3", 1), ("sphere4", 2)])
def test_decompose_multiplier_matches_mixed_saddle(mesh_name, k, request,
                                                   solver_cache, basis_cache, rng):
    """The pressure Poisson multiplier and gradient part of decompose are
    those of the mixed projection [[M, B', 0], [B, 0, m], [0, m', 0]]."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    mesh = request.getfixturevalue(mesh_name)
    solver = solver_cache(mesh, k)
    M, B = solver.M, solver.B
    nV, nQ = B.shape[1], B.shape[0]
    mq = sp.csc_matrix(asm.assemble_moment(solver.Q)).T
    K = sp.bmat([[M, B.T, None], [B, None, mq], [None, mq.T, None]], format="csc")
    v = rng.standard_normal(nV)
    sol = spla.spsolve(K, np.concatenate([M @ v, np.zeros(nQ + 1)]))
    u_mixed, lam_mixed = sol[:nV], sol[nV:nV + nQ]
    comp = solver.decompose(FeField(solver.V, v), basis_cache(mesh, k))
    assert np.abs(comp.lam.coefficients - lam_mixed).max() <= 1e-10 * np.abs(lam_mixed).max()
    d = comp.gradient_part - (v - u_mixed)
    nv = np.sqrt(v @ (M @ v))
    assert np.sqrt(d @ (M @ d)) <= 1e-10 * nv
    assert comp.residual_norm <= 1e-10 * nv


def test_hierarchy_lowest_order_harmonics_span(torus, solver_cache, basis_cache):
    """The degree-0 harmonic fields injected into the degree-k space still
    span the rot-orthogonal complement: no higher-order harmonic moments."""
    basis0 = basis_cache(torus, 0)
    V0 = build_space(torus, "bdm", 0, "zero_normal_trace")
    for k in [1, 2]:
        solver = solver_cache(torus, k)
        C = asm.assemble_cross_mass(solver.V, V0)
        mass_inv = solver.mass_operator
        W = []
        for h0 in basis0.vectors:
            u = mass_inv.solve(C @ h0)  # L2 projection (exact: V0 within Vk)
            psi = solver.laplace_operator.solve(solver.E.T @ (solver.M @ u))
            W.append(u - solver.E @ psi)
        W = np.array(W)
        G = W @ (solver.M @ W.T)
        ev = np.linalg.eigvalsh(G)
        assert (ev > 1e-8).all()  # rank b1: rot(S) + H^0 spans everything
        for w in W:
            assert asm.divergence_norm(solver.V, w) <= 1e-8 * np.sqrt(
                w @ (solver.M @ w))


# --------------------------------------------------- incomplete (k = 0, CR)
def test_p0_flat_patch_exact(rng):
    mesh = meshes.square_two_triangles()
    topo = analyze_topology(mesh)
    # dimension identity 2|T| = |V_I| + |E| - 1 on a simply connected patch
    assert 2 * topo.n_triangles == topo.n_interior_vertices + topo.n_edges - 1
    P0 = build_space(mesh, "dg_vector", 0)
    v = FeField(P0, rng.standard_normal(P0.total_dofs))
    dec = decompose_p0_incomplete(v)
    assert dec.residual_norm <= 1e-12
    assert dec.h_coeffs.size == 0


def test_p0_flat_patch_larger(rng):
    mesh = meshes.flat_patch(4)
    topo = analyze_topology(mesh)
    assert 2 * topo.n_triangles == topo.n_interior_vertices + topo.n_edges - 1
    P0 = build_space(mesh, "dg_vector", 0)
    v = FeField(P0, rng.standard_normal(P0.total_dofs))
    assert decompose_p0_incomplete(v).residual_norm <= 1e-12


def _broken_gradients(phi, rule):
    """Ambient gradients (T, n_q, 3) of a scalar field at the rule's points,
    formed on every triangle as G grad(phihat)."""
    space = phi.space
    grads = np.einsum("tid,lqd->tlqi", space.mesh.G, space.ref.grad(rule.xy))
    return np.einsum("tl,tlqi->tqi", space.local_coefficients(phi.coefficients), grads)


def test_p0_cr_hat_recovery(torus3, rng):
    CR = build_space(torus3, "crouzeix_raviart", 1, "zero_mean")
    P0 = build_space(torus3, "dg_vector", 0)
    hat = np.zeros(CR.total_dofs)
    hat[5] = 1.0
    # broken gradient of the CR hat projected (exactly) into P0
    from surfhodge.quadrature import triangle_rule

    rule = triangle_rule(3)
    gv = _broken_gradients(FeField(CR, hat), rule)
    Mp = asm.assemble_mass(P0)
    # physical values F vhat / J of the P0 basis (T, n_loc, n_q, 3)
    vals = np.einsum("tic,lqc->tlqi", torus3.F / torus3.Jdet[:, None, None],
                     P0.ref.eval(rule.xy))
    b = np.zeros(P0.total_dofs)
    bloc = np.einsum("tlqi,tqi,q->tl", vals, gv, rule.weights) * torus3.Jdet[:, None]
    for t in range(torus3.n_triangles):
        b[P0.dof_map[t]] = bloc[t]
    from surfhodge.linalg import FactorizedOperator

    v = FeField(P0, FactorizedOperator(Mp, kind="SPD").solve(b))
    dec = decompose_p0_incomplete(v)
    psz = np.abs(dec.psi.coefficients).max() if dec.psi.coefficients.size else 0.0
    assert psz <= 1e-10
    assert np.abs(dec.h_coeffs).max() <= 1e-10
    # phi recovers the hat up to its mean
    mcr = asm.assemble_moment(CR)
    hat0 = hat - (mcr @ hat) / mcr.sum()
    assert np.abs(dec.phi.coefficients - hat0).max() <= 1e-10
    assert dec.residual_norm <= 1e-10


def test_p0_torus_dimensions_and_orthogonality(torus3, solver_cache, basis_cache, rng):
    """On a closed surface the three parts are mutually orthogonal and
    their dimensions add up: (|V|-1) + b1 + (|E|-1) = 2|T|."""
    topo = analyze_topology(torus3)
    assert (topo.n_vertices - 1) + 2 + (topo.n_edges - 1) == 2 * topo.n_triangles
    P0 = build_space(torus3, "dg_vector", 0)
    v = FeField(P0, rng.standard_normal(P0.total_dofs))
    dec = decompose_p0_incomplete(v, basis=basis_cache(torus3, 0))
    assert dec.residual_norm <= 1e-10 * np.linalg.norm(v.coefficients)
    # orthogonality between parts, via the P0 mass inner product
    solver = solver_cache(torus3, 0)
    from surfhodge.quadrature import triangle_rule

    rule = triangle_rule(3)
    rot_vals = asm.tabulate_field(
        FeField(solver.V, solver.E @ dec.psi.coefficients), rule)
    harm_vals = asm.tabulate_field(
        FeField(solver.V, basis_cache(torus3, 0).vectors.T @ dec.h_coeffs), rule)
    grad_vals = _broken_gradients(dec.phi, rule)

    def ip(a, b):
        return float(np.einsum("tqi,tqi,q,t->", a, b, rule.weights, torus3.Jdet))

    nv2 = ip(*(asm.tabulate_field(v, rule),) * 2)
    assert abs(ip(rot_vals, harm_vals)) <= 1e-10 * nv2
    assert abs(ip(rot_vals, grad_vals)) <= 1e-10 * nv2
    assert abs(ip(harm_vals, grad_vals)) <= 1e-10 * nv2


def test_p0_wrong_degree(torus3, rng):
    P1 = build_space(torus3, "dg_vector", 1)
    v = FeField(P1, rng.standard_normal(P1.total_dofs))
    with pytest.raises(WrongDegree):
        decompose_p0_incomplete(v)

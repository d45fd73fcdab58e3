import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest
import scipy.sparse as sp

import surfhodge
from surfhodge import assembly as asm, meshes
from surfhodge.errors import BasisMismatch, MaxAttemptsExceeded, WrongDegree
from surfhodge.fespace import FeField, build_space
from surfhodge.flow import FlowOperators, SimulationConfig, run_simulation
from surfhodge.hodge import (
    OVERSAMPLING,
    RANK_TOL,
    HarmonicBasis,
    HodgeSolver,
    decompose_p0_incomplete,
    verify_dimension,
)
from surfhodge.linalg import FactorizedOperator, mnorm
from surfhodge.mesh import SurfaceMesh, analyze_topology
from surfhodge.quadrature import triangle_rule


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
    rep = verify_dimension(analyze_topology(meshes.torus_structured(349, 5)), 3)
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
    solver = HodgeSolver(tetra, 2)
    basis = solver.harmonic_basis(seed=0)
    assert basis.dimension == 0
    assert basis.n_attempts == 0
    assert "right_inverse" not in vars(solver)  # no factorization triggered
    comp = solver.decompose(FeField(solver.V, np.ones(solver.V.total_dofs)), basis)
    assert "right_inverse" in vars(solver)
    L0 = solver.right_inverse.L0
    assert L0.n == tetra.n_triangles  # one unknown per triangle
    assert L0.solve_count == 1  # R B v; the multiplier waits
    assert comp.lam.space is solver.Q
    assert L0.solve_count == 2  # and now the multiplier


def test_decompose_builds_each_factor_once(torus3, track_factors, rng):
    """A HodgeSolver reused for many decompositions builds L and L0 once
    each, on first use, and keeps them; decompose builds no mass factor
    and makes one two-column L solve and one L0 solve per call."""
    from surfhodge import hodge

    built = track_factors(hodge)
    solver = HodgeSolver(torus3, 1)
    basis = solver.harmonic_basis(seed=0)
    draws = solver.laplace_operator.solve_count, solver.right_inverse.L0.solve_count
    for _ in range(3):
        solver.decompose(FeField(solver.V, rng.standard_normal(solver.V.total_dofs)), basis)
    kept = (solver.laplace_operator, solver.right_inverse.L0)
    assert sorted(map(id, kept)) == sorted(id(ref()) for _, ref, _ in built)
    assert solver.laplace_operator.solve_count == draws[0] + 2 * 3
    assert solver.right_inverse.L0.solve_count == draws[1] + 3


@pytest.mark.parametrize("name, k", [("torus", 2), ("sphere_4holes", 1), ("genus2", 0)])
def test_lam_on_first_read_is_the_eager_multiplier(name, k, corpus, rng):
    """decompose makes one two-column L solve and one L0 solve; the first
    read of lam adds one L0 solve and no L solve, a second read none, and
    lam is bit for bit pressure_solve(M (v - rot_part - harmonic_part)),
    and to rounding the multiplier of M v - M (rot_part + harmonic_part)."""
    solver = HodgeSolver(corpus[name], k)
    basis = solver.harmonic_basis(seed=0)
    L, L0 = solver.laplace_operator, solver.right_inverse.L0
    v = rng.standard_normal(solver.V.total_dofs)
    before = L.solve_count, L0.solve_count
    comp = solver.decompose(FeField(solver.V, v), basis)
    assert (L.solve_count, L0.solve_count) == (before[0] + 2, before[1] + 1)
    assert "lam" not in vars(comp) and "_source" not in repr(comp)
    lam = comp.lam
    assert (L.solve_count, L0.solve_count) == (before[0] + 2, before[1] + 2)
    assert comp.lam is lam
    assert (L.solve_count, L0.solve_count) == (before[0] + 2, before[1] + 2)
    eager = solver.pressure_solve(solver.M @ (v - comp.rot_part - comp.harmonic_part))
    assert lam.space is solver.Q
    assert lam.coefficients.tobytes() == eager.tobytes()
    split = solver.pressure_solve(solver.M @ v - solver.M @ (comp.rot_part + comp.harmonic_part))
    assert np.abs(lam.coefficients - split).max() <= 1e-12 * np.abs(split).max()


@pytest.mark.parametrize("name, k", [("torus", 2), ("sphere_4holes", 1), ("genus2", 0)])
def test_residual_on_first_read_is_the_eager_residual(name, k, corpus, rng, counting_mass):
    """decompose makes no product with M; the first read of residual_norm
    makes one, a second read none, and it is bit for bit mnorm(v - rot_part
    - harmonic_part - gradient_part, M), the eager value.  repr leaves it
    out, and the three parts it is formed from are read-only."""
    solver = HodgeSolver(corpus[name], k)
    basis = solver.harmonic_basis(seed=0)
    solver.M = M = counting_mass(solver.M)
    v = rng.standard_normal(solver.V.total_dofs)
    solver.decompose(FeField(solver.V, v), basis)  # builds E' M and H M
    before = M.products
    comp = solver.decompose(FeField(solver.V, v), basis)
    assert M.products == before
    assert "residual_norm" not in vars(comp) and "residual_norm" not in repr(comp)
    residual = comp.residual_norm
    assert M.products == before + 1
    assert comp.residual_norm == residual and M.products == before + 1
    r = v - comp.rot_part
    r -= comp.harmonic_part
    assert np.float64(residual).tobytes() == np.float64(
        mnorm(r - comp.gradient_part, M)).tobytes()
    for part in (comp.rot_part, comp.harmonic_part, comp.gradient_part):
        with pytest.raises(ValueError):
            part[0] = 1.0
        with pytest.raises(ValueError):
            part *= 2.0


def test_decompose_makes_no_mass_product(torus, rng, monkeypatch, counting_mass):
    """Once its first call has built E' M and the basis's mass image H M,
    decompose makes no product with M, two L solve columns in one call of
    a 2-column block and one L0 solve; the first read of residual_norm
    adds one M product, and the first read of lam one M product and one
    L0 solve."""
    solver = HodgeSolver(torus, 1)
    solver.M = M = counting_mass(solver.M)
    basis = solver.harmonic_basis(seed=0)
    L, L0 = solver.laplace_operator, solver.right_inverse.L0
    v = FeField(solver.V, rng.standard_normal(solver.V.total_dofs))
    solver.decompose(v, basis)
    counts = lambda: (M.products, L.solve_count, L0.solve_count)  # noqa: E731
    before = counts()
    calls = []
    for name, op in (("L", L), ("L0", L0)):
        monkeypatch.setattr(op, "solve", lambda b, name=name, solve=op.solve:
                            calls.append((name, np.shape(b)[1:])) or solve(b))
    comp = solver.decompose(v, basis)
    assert counts() == (before[0], before[1] + 2, before[2] + 1)
    assert sorted(calls) == [("L", (2,)), ("L0", ())]
    comp.residual_norm
    assert counts() == (before[0] + 1, before[1] + 2, before[2] + 1)
    comp.lam
    assert counts() == (before[0] + 2, before[1] + 2, before[2] + 2)


def test_decompose_uses_the_mass_image_of_its_basis(torus, solver_cache, basis_cache, rng):
    """A basis with other vectors, here the harmonic basis rotated in its
    plane, gets its own mass image: decompose returns the rotated
    coefficients, and with the first basis again its first bits."""
    from dataclasses import replace

    solver, basis = solver_cache(torus, 1), basis_cache(torus, 1)
    assert basis.dimension == 2
    c, s = np.cos(0.3), np.sin(0.3)
    R = np.array([[c, -s], [s, c]])
    v = FeField(solver.V, rng.standard_normal(solver.V.total_dofs))
    h = solver.decompose(v, basis).h_coeffs
    rotated = solver.decompose(v, replace(basis, vectors=R @ basis.vectors)).h_coeffs
    assert np.abs(rotated - R @ h).max() <= 1e-12 * np.abs(h).max()
    assert solver.decompose(v, basis).h_coeffs.tobytes() == h.tobytes()


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
    isometry) and stores none of the rounding entries the interpolated E
    carries into the triple product."""
    for mesh in corpus.values():
        solver = solver_cache(mesh, k)
        E = asm.assemble_rot_embedding(solver.S, solver.V)
        ELE = (E.T @ solver.M @ E).tocsr()
        assert abs(solver.L - ELE).max() <= 1e-13 * abs(ELE).max()
        if k > 0:  # at k = 0 both couple exactly the vertices of each triangle
            assert solver.L.nnz < ELE.nnz


def _recorded_gram_spectra(monkeypatch) -> list:
    """Each Gram spectrum that np.linalg.eigh returns from now on."""
    spectra, eigh = [], np.linalg.eigh

    def recording(G):
        lam, V = eigh(G)
        spectra.append(lam)
        return lam, V

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return spectra


def test_max_attempts_exceeded(torus3, monkeypatch):
    """The rank of a draw is the number of its Gram eigenvalues above
    RANK_TOL times the largest: on the torus (b1 = 2) the draw raises once
    the third largest is lifted to just above that threshold, and not when
    it is lifted to just below it."""
    solver, eigh = HodgeSolver(torus3, 0), np.linalg.eigh
    for factor in (0.5, 2.0):
        def lifted(G, factor=factor):
            lam, V = eigh(G)
            lam[-3] = factor * RANK_TOL * lam[-1]
            return lam, V

        monkeypatch.setattr(np.linalg, "eigh", lifted)
        if factor < 1:
            assert solver.harmonic_basis(seed=0).dimension == 2
        else:
            with pytest.raises(MaxAttemptsExceeded):
                solver.harmonic_basis(seed=0)


def test_rank_threshold_sits_in_the_gram_gap(corpus, solver_cache, monkeypatch):
    """On every corpus mesh with b1 > 0, at k = 0-3 and seeds 0-4, the b1
    leading Gram eigenvalues of a draw are at least 1e-4 of the largest
    and the next at most 1e-12 of it, so RANK_TOL = 1e-8 is decades from
    both sides (measured: at least 1.2e-3 and at most 2.0e-15)."""
    spectra = _recorded_gram_spectra(monkeypatch)
    draws = 0
    for name, mesh in corpus.items():
        for k in range(4):
            solver = solver_cache(mesh, k)
            b1 = solver.topology.b1
            if not b1:
                continue
            for seed in range(5):
                solver.harmonic_basis(seed=seed)
                lam = spectra[-1] / spectra[-1][-1]
                assert lam.size == b1 + OVERSAMPLING
                assert lam[-b1] >= 1e-4 and lam[-b1 - 1] <= 1e-12, (name, k, seed)
                draws += 1
    assert len(spectra) == draws >= 40
    assert 1e-12 < RANK_TOL < 1e-4


def test_block_draw_is_divergence_free_at_seed_900():
    """On the pierced sphere at k = 3, seed 900 drew a near-dependent
    third field when the fields were drawn one at a time (|div h| 7.0e-7,
    |E' M H| 1.8e-9); the oversampled block keeps every member at solver
    precision (measured 6.0e-11 and 1.7e-13; 8.1e-13 and 1.5e-13 since the
    draw applies R again after its rot step)."""
    solver = HodgeSolver(meshes.sphere_with_holes(3, 4), 3)
    basis = solver.harmonic_basis(seed=900)
    H = basis.vectors
    assert basis.dimension == 3 and basis.n_attempts == 3 + OVERSAMPLING
    assert max(asm.divergence_norm(solver.V, h) for h in H) <= 1e-10
    assert np.abs(solver._ET @ (solver.M @ H.T)).max() <= 1e-11
    assert basis.gram_residual <= 1e-13


def test_draw_reapplies_the_right_inverse_after_its_rot_step():
    """The rot step W - E L^-1 E' M W leaves the divergence of E psi's
    rounding in the drawn block; applying W - R B W once more removes it.
    On the pierced sphere at k = 3, seeds 0-4, the largest relative
    divergence of a harmonic field fell from 4.8e-11 to 8.1e-13, with
    |E' M h| at most 1.3e-13."""
    solver = HodgeSolver(meshes.sphere_with_holes(3, 4), 3)
    for seed in range(5):
        H = solver.harmonic_basis(seed=seed).vectors
        MH = solver.M @ H.T
        for h, mh in zip(H, MH.T):
            assert asm.divergence_norm(solver.V, h) <= 5e-12 * np.sqrt(h @ mh), seed
        assert np.abs(solver._ET @ MH).max() <= 1e-11, seed


@pytest.mark.parametrize("name, k, shift", [("torus", 1, -1), ("torus", 1, 1),
                                             ("sphere_4holes", 2, -1), ("sphere_4holes", 2, 1),
                                             ("icosphere", 1, 1)])
def test_topology_mismatch_raises(corpus, name, k, shift):
    """The rank read off the Gram spectrum checks the topology's b1 both
    ways: a harmonic space larger or smaller than b1, or none at all (a
    sphere told b1 = 1), raises instead of returning a wrong basis."""
    solver = HodgeSolver(corpus[name], k)
    solver.topology = dataclasses.replace(solver.topology, b1=solver.topology.b1 + shift)
    with pytest.raises(MaxAttemptsExceeded):
        solver.harmonic_basis(seed=0)


def test_basis_json_round_trip(tmp_path, torus3, basis_cache):
    basis = basis_cache(torus3, 1)
    path = tmp_path / "basis.json"
    basis.save_json(path)
    back = HarmonicBasis.load_json(path)
    assert back.k == basis.k
    assert back.mesh_checksum == basis.mesh_checksum
    assert np.abs(back.vectors - basis.vectors).max() == 0.0  # bit exact


def test_basis_vectors_are_read_only(torus3, solver_cache, basis_cache):
    """decompose keeps the mass image H M of the last basis.vectors array it
    read, keyed by the array.  A basis keeps a read-only copy of the
    vectors it is given, so writing into them raises and writing into the
    array it was built from leaves it, and its decompositions, as they
    were."""
    solver, basis = solver_cache(torus3, 1), basis_cache(torus3, 1)
    with pytest.raises(ValueError):
        basis.vectors[0, 0] = 1.0
    H = basis.vectors.copy()
    copied = dataclasses.replace(basis, vectors=H)
    v = FeField(solver.V, np.random.default_rng(4).standard_normal(solver.V.total_dofs))
    before = solver.decompose(v, copied).h_coeffs
    H *= 2.0
    assert copied.vectors.tobytes() == basis.vectors.tobytes()
    assert solver.decompose(v, copied).h_coeffs.tobytes() == before.tobytes()


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


# ------------------------------------------------- pressure Poisson solve
CORPUS = ("tetrahedron", "icosphere", "torus", "genus2", "sphere_4holes", "trefoil")


def _pressure_dofs(solver):
    """Mean modes q0 and other modes qp of each triangle; the higher
    edge-flux moments and the interior bubbles of the velocity space."""
    k, V, Q = solver.k, solver.V, solver.Q
    ne = 3 * (k + 1)
    higher = V.dof_map[:, :ne].reshape(-1, 3, k + 1)[:, :, 1:]
    return Q.dof_map[:, 0], Q.dof_map[:, 1:], np.unique(higher[higher >= 0]), V.dof_map[:, ne:]


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("name", CORPUS)
def test_divergence_blocks_behind_the_right_inverse(name, k, corpus, solver_cache):
    """A triangle's mean mode pairs only with the lowest edge-flux moments,
    and its interior bubbles' divergences are one reference block of full
    row rank on its other modes, times sqrt(J) (the bubbles' dof signs)."""
    mesh = corpus[name]
    solver = solver_cache(mesh, k)
    B = solver.B.tocsr()
    q0, qp, higher, bubbles = _pressure_dofs(solver)
    tol = 1e-13 * np.abs(B.data).max()
    for cols in (higher, bubbles.ravel()):
        assert np.abs(B[q0][:, cols].data).max(initial=0.0) <= tol
    ref = asm.reference_div_block(solver.V, solver.Q)[1:, 3 * (k + 1):]
    assert np.linalg.matrix_rank(ref) == qp.shape[1] == max(k * (k + 1) // 2 - 1, 0)
    assert np.allclose(solver.V.dof_signs[:, 3 * (k + 1):], np.sqrt(mesh.Jdet)[:, None])
    expected = sp.kron(sp.diags(np.sqrt(mesh.Jdet)), ref)
    assert np.abs((B[qp.ravel()][:, bubbles.ravel()] - expected).data).max(initial=0.0) <= tol


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("name", CORPUS)
def test_b_and_e_store_only_structural_entries(name, k, corpus, solver_cache):
    """An entry of B or E over its velocity dof's factor (an edge length or
    sqrt(J)) is an entry of its reference block.  B stores none at or below
    1e-10 of its block's largest entry, the interpolated E stores no zeros,
    and the solver's E is the interpolated one without the entries at or
    below that threshold of its block."""
    solver = solver_cache(corpus[name], k)
    V = solver.V
    factor = np.zeros(V.total_dofs)
    factor[V.dof_map[V.dof_map >= 0]] = abs(V.dof_signs[V.dof_map >= 0])
    B = solver.B.tocoo()
    block = abs(asm.reference_div_block(V, solver.Q)).max()
    assert (abs(B.data) / factor[B.col] > 1e-10 * block).all()
    E = asm.assemble_rot_embedding(solver.S, V).tocoo()
    assert (E.data != 0).all()
    structural = abs(E.data) * factor[E.row] > 1e-10 * abs(asm.reference_rot_block(
        solver.S, V)).max()
    Es = sp.coo_matrix((E.data[structural], (E.row[structural], E.col[structural])), E.shape)
    assert (solver.E != Es).nnz == 0 and solver.E.nnz == structural.sum()


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("name", CORPUS)
def test_right_inverse_reads_its_blocks_off_b(name, k, corpus, track_factors):
    """PK stores only the nonzero entries of its reference block, and the
    mean-mode factor L0 is built from B's own mean-mode rows B[q0]."""
    from surfhodge import hodge

    built = track_factors(hodge)
    solver = HodgeSolver(corpus[name], k)
    assert (solver.right_inverse.PK.data != 0).all()
    B0 = solver.B[solver.Q.dof_map[:, 0]]
    assert len(built) == 1 and (built[0][0] != B0 @ B0.T).nnz == 0


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("name", CORPUS)
def test_pressure_solve_inverts_b_transpose_on_one_small_factor(name, k, corpus,
                                                                track_factors):
    """pressure_solve(B' lam) returns the zero-mean lam, a draw r - R B r
    is divergence-free to rounding, and both use one factor with one
    unknown per triangle, whatever the degree."""
    from surfhodge import hodge

    built = track_factors(hodge)
    mesh = corpus[name]
    solver = HodgeSolver(mesh, k)
    B, q0 = solver.B, solver.Q.dof_map[:, 0]
    rng = np.random.default_rng(k)
    lam = rng.standard_normal(B.shape[0])
    m = asm.assemble_moment(solver.Q)
    lam[q0] -= (m @ lam) / m[q0].sum()  # ones on q0: the constant function
    got = solver.pressure_solve(B.T @ lam)
    assert np.abs(got - lam).max() <= 1e-12 * np.abs(lam).max()
    r = rng.standard_normal(B.shape[1])
    b = B @ r
    assert np.abs(B @ (r - solver.right_inverse.apply(b))).max() <= 1e-13 * np.abs(b).max()
    assert [ref().n for _, ref, _ in built] == [mesh.n_triangles]
    assert built[0][1]().solve_count == 2


@pytest.mark.parametrize("name,k", [("torus16x8", 2), ("torus16x8", 3), ("torus16x8", 4),
                                    ("pierced", 2), ("torus16x8", 0), ("torus16x8", 1)])
def test_divergence_mean_basis_spans_the_kernel_of_the_higher_modes(name, k):
    """P = right_inverse.divergence_mean_basis() has n_V - n_qp columns of
    full rank (its Gram matrix P'P factors without SingularMatrix) and
    B[qp] P = 0 to rounding; its edge columns keep their mean-mode
    divergence B[q0] and its last columns N are divergence-free bubbles.
    Without bubbles (k <= 1) P is the identity."""
    mesh = (meshes.torus_structured(16, 8) if name == "torus16x8"
            else meshes.sphere_with_holes(2, 4))
    solver = HodgeSolver(mesh, k)
    V, B, n = solver.V, solver.B, solver.V.total_dofs
    q0, qp = solver.Q.dof_map[:, 0], solver.Q.dof_map[:, 1:].ravel()
    P = solver.right_inverse.divergence_mean_basis()
    if k <= 1:
        assert qp.size == 0 and P.shape == (n, n) and (P != sp.eye(n)).nnz == 0
        return
    assert P.shape == (n, n - qp.size)
    FactorizedOperator(P.T @ P)  # nonsingular: P has full column rank
    assert abs(B[qp] @ P).max() <= 1e-12 * abs(B).max() * abs(P).max()
    ne = V.ref.n_edge_dofs
    edges = np.unique(V.dof_map[:, :ne])
    edges = edges[edges >= 0]
    B0 = B[q0]
    assert (B0 @ P[:, :edges.size] != B0[:, edges]).nnz == 0
    N = P[:, edges.size:]
    assert N.shape[1] == mesh.n_triangles * {2: 1, 3: 3, 4: 6}[k]
    bubbles = np.zeros(n, dtype=bool)
    bubbles[V.dof_map[:, ne:]] = True
    assert bubbles[N.tocoo().row].all()
    assert abs(B @ N).max() <= 1e-12 * abs(B).max() * abs(N).max()


@pytest.mark.parametrize("k", [0, 2])
def test_pressure_field_shifts_only_the_mean_modes(k, torus, solver_cache):
    """pressure_field returns a zero-mean copy that differs from its input
    by one constant on the mean modes q0 and not at all elsewhere."""
    solver = solver_cache(torus, k)
    p = np.random.default_rng(k).standard_normal(solver.Q.total_dofs) + 3.0
    before = p.copy()
    got = solver.pressure_field(p)
    assert got.space is solver.Q and np.array_equal(p, before)
    q0 = solver.Q.dof_map[:, 0]
    shift = got.coefficients - p
    assert not np.delete(shift, q0).any()
    assert np.ptp(shift[q0]) <= 1e-14 and abs(shift[q0][0]) > 1.0
    m = asm.assemble_moment(solver.Q)
    assert abs(m @ got.coefficients) <= 1e-14 * (np.abs(m) @ np.abs(p))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_harmonic_span_matches_dense_euclidean_projection(torus3, solver_cache, k):
    """The draws made divergence-free by R B span the harmonic space of
    the dense reference that uses the Euclidean projection onto the kernel
    of B: every principal cosine between the two is 1."""
    solver = solver_cache(torus3, k)
    H = solver.harmonic_basis(seed=4).vectors
    M, B, E = solver.M.toarray(), solver.B.toarray(), solver.E.toarray()
    rows = np.linalg.svd(B)[2][:len(B) - 1]  # B maps onto the zero-mean pressures
    r = np.random.default_rng(11).standard_normal((len(M), 2))
    u = r - rows.T @ (rows @ r)
    w = u - E @ np.linalg.lstsq(E.T @ M @ E, E.T @ M @ u, rcond=None)[0]
    ref = np.linalg.solve(np.linalg.cholesky(w.T @ M @ w), w.T)  # M-orthonormal rows
    cosines = np.linalg.svd(H @ M @ ref.T, compute_uv=False)
    assert len(cosines) == 2 == solver.topology.b1
    assert np.abs(cosines - 1.0).max() <= 1e-12


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_decompose_gradient_part_is_mass_inverse_of_multiplier(corpus, solver_cache,
                                                               basis_cache, rng, k):
    """decompose takes the gradient part from R B v minus its J-projection,
    without a mass factor; it equals M^-1 B' lam of the returned multiplier
    up to solver precision (measured: at most 1.3e-12 of |v|_M)."""
    from surfhodge.linalg import FactorizedOperator

    for name, mesh in corpus.items():
        solver = solver_cache(mesh, k)
        v = rng.standard_normal(solver.V.total_dofs)
        comp = solver.decompose(FeField(solver.V, v), basis_cache(mesh, k))
        d = comp.gradient_part - FactorizedOperator(solver.M).solve(
            solver.B.T @ comp.lam.coefficients)
        assert np.sqrt(d @ (solver.M @ d)) <= 1e-11 * np.sqrt(v @ (solver.M @ v)), name


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_decompose_pure_gradient_input(corpus, solver_cache, basis_cache, rng, k):
    """A discrete gradient v = M^-1 B' lam* (lam* random, zero-mean) comes
    back as the gradient part, with no rot or harmonic part (measured: at
    most 1.4e-14 of |v|_M for rot and harmonic parts, 2.0e-12 for the
    gradient error and the residual)."""
    from surfhodge.linalg import FactorizedOperator

    for name, mesh in corpus.items():
        solver = solver_cache(mesh, k)
        mq = asm.assemble_moment(solver.Q)
        lam = rng.standard_normal(solver.Q.total_dofs)
        lam -= (mq @ lam) / (mq @ mq) * mq
        v = FactorizedOperator(solver.M).solve(solver.B.T @ lam)
        comp = solver.decompose(FeField(solver.V, v), basis_cache(mesh, k))

        def norm(a):
            return np.sqrt(a @ (solver.M @ a))

        nv = norm(v)
        assert norm(comp.gradient_part - v) <= 1e-10 * nv, name
        assert norm(comp.rot_part) <= 1e-10 * nv, name
        assert norm(comp.harmonic_part) <= 1e-10 * nv, name
        assert comp.residual_norm <= 1e-11 * nv, name


def _patch_parts(x):
    """rot psi = (-psi_y, psi_x, 0) for psi = sin^2(pi x) sin^2(pi y) and
    grad phi for phi = cos(pi x) cos(pi y); both have zero normal trace on
    the unit square's boundary."""
    X, Y, zero, pi = x[:, 0], x[:, 1], np.zeros(len(x)), np.pi
    sx2, sy2 = np.sin(pi * X) ** 2, np.sin(pi * Y) ** 2
    rot = np.stack([-pi * sx2 * np.sin(2 * pi * Y), pi * np.sin(2 * pi * X) * sy2, zero], 1)
    grad = np.stack([-pi * np.sin(pi * X) * np.cos(pi * Y),
                     -pi * np.cos(pi * X) * np.sin(pi * Y), zero], 1)
    return rot, grad


@pytest.mark.parametrize("k, min_rate", [(1, 1.8), (2, 2.8)], ids=["k1", "k2"])
def test_decompose_converges_to_exact_parts(k, min_rate):
    """decompose of the L2 projection of v = rot psi + grad phi on
    flat_patch(n) (b1 = 0: the empty harmonic block): the relative L2
    errors of rot_part and gradient_part, by a degree-10 rule, fall at rate
    k + 1 (measured at n = 16 -> 32: k = 1 rot 1.99, gradient 1.98; k = 2
    rot 3.00, gradient 3.03)."""
    rule = triangle_rule(10)
    errors = []
    for n in (4, 8, 16, 32):
        mesh = meshes.flat_patch(n)
        solver = HodgeSolver(mesh, k)
        basis = solver.harmonic_basis()
        assert basis.dimension == 0
        v = FactorizedOperator(solver.M).solve(
            asm.assemble_load(solver.V, lambda x, t: sum(_patch_parts(x))))
        comp = solver.decompose(FeField(solver.V, v), basis)
        assert comp.residual_norm <= 1e-10 * np.sqrt(v @ (solver.M @ v))
        w = np.outer(mesh.Jdet, rule.weights)[..., None]
        pts = asm.physical_points(mesh, rule).reshape(-1, 3)
        row = []
        for part, want in zip((comp.rot_part, comp.gradient_part), _patch_parts(pts)):
            want = want.reshape(mesh.n_triangles, -1, 3)
            diff = asm.tabulate_field(FeField(solver.V, part), rule) - want
            row.append(np.sqrt((w * diff**2).sum() / (w * want**2).sum()))
        errors.append(row)
    errors = np.array(errors)
    rates = np.log2(errors[:-1] / errors[1:])
    assert (rates[-1] >= min_rate).all(), rates


def _prism(n_z, n_theta):
    """A polygonal cylinder: n_theta flat faces around the unit circle,
    n_z rows between z = 0 and z = 1, open at both ends (b1 = 1); its grid
    is rolled in theta only."""
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    verts = np.column_stack([np.tile(ring, (n_z + 1, 1)),
                             np.repeat(np.linspace(0.0, 1.0, n_z + 1), n_theta)])
    p00 = np.arange(n_z * n_theta).reshape(n_z, n_theta)
    p10 = np.roll(p00, -1, axis=1)
    return SurfaceMesh(verts, meshes._split_quads(p00, p10, p10 + n_theta, p00 + n_theta))


def _circumferential(n_theta):
    """The unit horizontal tangent of each face of _prism(., n_theta)."""
    def field(x, t):
        face = np.floor(np.mod(np.arctan2(x[..., 1], x[..., 0]), 2 * np.pi) * n_theta / (2 * np.pi))
        mid = (face + 0.5) * 2 * np.pi / n_theta
        return np.stack([-np.sin(mid), np.cos(mid), np.zeros_like(mid)], axis=-1)
    return field


@pytest.mark.parametrize("n_theta", [6, 12])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_decompose_prism_circumferential_field_is_harmonic(k, n_theta):
    """The face-wise unit circumferential field of a prism is constant on
    each triangle, so it lies in RT0, inside BDM_k; its flux is continuous
    and zero on both rims, so it is divergence-free, and it is L2-orthogonal
    to every rotated streamfunction.  decompose returns its L2 projection
    as purely harmonic (measured: at most 2e-12 relative)."""
    solver = HodgeSolver(_prism(3, n_theta), k)
    basis = solver.harmonic_basis()
    assert basis.dimension == 1
    v = FactorizedOperator(solver.M).solve(asm.assemble_load(solver.V, _circumferential(n_theta)))
    comp = solver.decompose(FeField(solver.V, v), basis)

    def norm(a):
        return np.sqrt(a @ (solver.M @ a))

    for rest in (v - comp.harmonic_part, comp.rot_part, comp.gradient_part):
        assert norm(rest) <= 1e-10 * norm(v)


def test_hierarchy_lowest_order_harmonics_span(torus, solver_cache, basis_cache):
    """The degree-0 harmonic fields injected into the degree-k space still
    span the rot-orthogonal complement: no higher-order harmonic moments."""
    basis0 = basis_cache(torus, 0)
    V0 = build_space(torus, "bdm", 0, "zero_normal_trace")
    for k in [1, 2]:
        solver = solver_cache(torus, k)
        C = asm.assemble_cross_mass(solver.V, V0)
        mass_inv = FactorizedOperator(solver.M)
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

    v = FeField(P0, FactorizedOperator(Mp).solve(b))
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


# ---------------------------------------------------------------- equality
def _array_dataclasses():
    """Every dataclass of surfhodge with an ndarray among its fields."""
    found = {}
    for m in pkgutil.iter_modules(surfhodge.__path__):
        for obj in vars(importlib.import_module(f"surfhodge.{m.name}")).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__.startswith("surfhodge.")
                    and any("ndarray" in str(f.type) for f in dataclasses.fields(obj))):
                found[obj.__name__] = obj
    return found


ARRAY_DATACLASSES = _array_dataclasses()
# one instance of each, on the builtin torus at k = 0 (the flow's at k = 1)
INSTANCES = {
    "FeSpace": lambda env: env["solver"].V,
    "FeField": lambda env: env["field"],
    "HarmonicBasis": lambda env: env["basis"],
    "HodgeComponents": lambda env: env["solver"].decompose(env["field"], env["basis"]),
    "P0Decomposition": lambda env: decompose_p0_incomplete(env["p0_field"], env["basis"]),
    "QuadratureRule": lambda env: triangle_rule(3),
    "BlockSystem": lambda env: env["ops"].A_red,
    "FlowState": lambda env: env["ops"].initial_state(),
    "SimulationResult": lambda env: run_simulation(env["ops"].mesh, env["ops"].config,
                                                   basis=env["flow_basis"]),
}


@pytest.mark.parametrize("name", sorted(ARRAY_DATACLASSES))
def test_array_dataclasses_compare_by_identity(name, torus, solver_cache, basis_cache, rng):
    """== on a dataclass holding arrays is identity: an instance equals
    itself, and a copy whose arrays are equal but distinct is another
    instance, not a ValueError on an ambiguous truth value."""
    solver = solver_cache(torus, 0)
    P0 = build_space(torus, "dg_vector", 0)
    env = {"solver": solver, "basis": basis_cache(torus, 0),
           "field": FeField(solver.V, rng.standard_normal(solver.V.total_dofs)),
           "p0_field": FeField(P0, rng.standard_normal(P0.total_dofs)),
           "ops": FlowOperators(torus, SimulationConfig(k=1, dt=1e-2, t_end=2e-2)),
           "flow_basis": basis_cache(torus, 1)}
    a = INSTANCES[name](env)
    assert type(a) is ARRAY_DATACLASSES[name]
    b = dataclasses.replace(a, **{f.name: getattr(a, f.name).copy()
                                  for f in dataclasses.fields(a)
                                  if f.init and isinstance(getattr(a, f.name), np.ndarray)})
    assert a == a and b == b
    assert not a == b and a != b

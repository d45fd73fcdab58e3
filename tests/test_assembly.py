import numpy as np
import pytest
import scipy.sparse as sp

from surfhodge import assembly as asm, meshes
from surfhodge.errors import (
    DegreeMismatch,
    NonpositiveParameter,
    NotDivergenceFree,
)
from surfhodge.fespace import REF_EDGE_NORMALS, FeField, build_space, edge_ref_points
from surfhodge.mesh import SurfaceMesh, edge_frames
from surfhodge.quadrature import edge_rule, triangle_rule


def interpolate_constant(space, tri, vec):
    """Element-local H(div) interpolation of a constant tangential field."""
    mesh = space.mesh
    vhat = mesh.Jdet[tri] * np.linalg.pinv(mesh.F[tri]) @ np.asarray(vec, float)
    c = np.zeros((1, len(space.ref.exps), 2))
    c[0, 0, :] = vhat
    return space.ref.apply_dofs(c, space.ref.exps)[:, 0]


# --------------------------------------------------------------------- mass
def test_p1_mass_single_triangle():
    mesh = meshes.single_triangle()
    S = build_space(mesh, "lagrange", 1)
    M = asm.assemble_mass(S).toarray()
    area = 0.5
    ref = (area / 12.0) * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], float)
    assert np.allclose(M, ref, atol=1e-15)


def test_mass_spd_random(corpus, rng):
    mesh = corpus["torus"]
    for kind, deg in [("lagrange", 2), ("bdm", 1), ("dg_pressure", 1),
                      ("crouzeix_raviart", 1), ("dg_vector", 0)]:
        space = build_space(mesh, kind, deg)
        M = asm.assemble_mass(space)
        for _ in range(10):
            x = rng.standard_normal(space.total_dofs)
            assert x @ (M @ x) > 0


def test_total_area_from_mass(corpus):
    for mesh in corpus.values():
        S = build_space(mesh, "lagrange", 1)
        M = asm.assemble_mass(S)
        ones = np.ones(S.total_dofs)
        area = 0.5 * mesh.Jdet.sum()
        assert ones @ (M @ ones) == pytest.approx(area, rel=1e-12)


# ---------------------------------------------------------------- embedding
def test_rot_embedding_kernel_is_constants(torus):
    V = build_space(torus, "bdm", 1, "zero_normal_trace")
    S = build_space(torus, "lagrange", 2, "zero_mean")
    E = asm.assemble_rot_embedding(S, V)
    const = np.ones(S.total_dofs)
    assert np.abs(E @ const).max() < 1e-12
    # full rank on the zero-mean complement: E restricted there injective
    model = E.T @ E + np.outer(np.ones(S.total_dofs), np.ones(S.total_dofs)) * 0
    sv = np.linalg.svd((E.T @ E).toarray(), compute_uv=False)
    assert (sv > 1e-12).sum() == S.total_dofs - 1


def test_rot_embedding_hand_flux_two_triangles():
    """Lowest-order fluxes of a rotated hat function match the hand
    integrals of -J grad(psi) . nu on explicit coordinates."""
    mesh = meshes.square_two_triangles()
    V = build_space(mesh, "bdm", 0)
    S = build_space(mesh, "lagrange", 1)
    E = asm.assemble_rot_embedding(S, V).toarray()
    # psi = hat at vertex 0; grad psi is constant per triangle; n = +z.
    # T0 = (0,0),(1,0),(1,1): psi = 1 - x, grad = (-1,0,0),
    #   rot psi = -n x grad = (0, 1, 0).
    # T1 = (0,0),(1,1),(0,1): psi = 1 - y, grad = (0,-1,0),
    #   rot psi = (-1, 0, 0).
    psi = np.zeros(S.total_dofs)
    psi[0] = 1.0  # vertex dof ordering starts with vertices
    u = FeField(V, E @ psi)
    vals = asm.tabulate_field(u, triangle_rule(2))
    rot = {0: np.array([0.0, 1.0, 0.0]), 1: np.array([-1.0, 0.0, 0.0])}
    assert np.allclose(vals[0], rot[0], atol=1e-13)
    assert np.allclose(vals[1], rot[1], atol=1e-13)
    # The stored coefficient is the mean flux through the owner's outward
    # conormal times the fixed reference normalization of the flux moment.
    s0 = V.ref._dof_scales[0]
    for e in range(mesh.n_edges):
        t = int(mesh.edge_tris[e, 0])
        nu = edge_frames(mesh, e)[1]
        hand = s0 * float(rot[t] @ nu)  # (1/|E|) int rot(psi).nu ds, scaled
        assert (E @ psi)[e] == pytest.approx(hand, abs=1e-13)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_chain_complex_div_rot_zero(corpus, k):
    for mesh in corpus.values():
        V = build_space(mesh, "bdm", k, "zero_normal_trace")
        Q = build_space(mesh, "dg_pressure", max(k - 1, 0))
        S = build_space(mesh, "lagrange", k + 1,
                        "zero_mean" if mesh.is_closed else "zero_boundary_trace")
        B = asm.assemble_div(V, Q)
        E = asm.assemble_rot_embedding(S, V)
        BE = B @ E
        if BE.nnz == 0:
            continue
        scale = abs(B).dot(abs(E)).max()
        assert abs(BE).max() <= 1e-12 * max(scale, 1e-300)


@pytest.mark.parametrize("name", ["torus", "sphere_4holes"])
def test_dof_maps_and_rot_embedding_independent_of_winding(corpus, name):
    mesh = corpus[name]
    tris = mesh.triangles.copy()
    flip = np.random.default_rng(3).random(len(tris)) < 0.5
    flip[0] = False  # triangle 0 fixes the orientation
    tris[flip] = tris[flip][:, ::-1]
    rewound = SurfaceMesh(mesh.vertices, tris)
    assert rewound.orientation_repaired
    for k in range(4):
        for cs, cv in (("none", "none"), ("zero_boundary_trace", "zero_normal_trace")):
            S0, S1 = (build_space(m, "lagrange", k + 1, cs) for m in (mesh, rewound))
            V0, V1 = (build_space(m, "bdm", k, cv) for m in (mesh, rewound))
            for a, b in ((S0, S1), (V0, V1)):
                assert np.array_equal(a.dof_map, b.dof_map)
                assert np.array_equal(a.dof_signs, b.dof_signs)
            diff = asm.assemble_rot_embedding(S0, V0) != asm.assemble_rot_embedding(S1, V1)
            assert diff.nnz == 0


def test_rot_embedding_interpolation_round_trip(torus, rng):
    """Embedded fields interpolate back to themselves: rot(S) sits inside
    the H(div) space exactly."""
    for k in [0, 1, 2]:
        V = build_space(torus, "bdm", k, "zero_normal_trace")
        S = build_space(torus, "lagrange", k + 1, "zero_mean")
        E = asm.assemble_rot_embedding(S, V)
        psi = rng.standard_normal(S.total_dofs)
        u = E @ psi
        # re-interpolate u elementwise through the reference dofs
        loc = V.local_coefficients(u)
        back = np.zeros_like(u)
        ref = V.ref
        for t in range(torus.n_triangles):
            coeffs = np.einsum("l,lmc->mc", loc[t], ref.coeffs)[None, :, :]
            lam = ref.apply_dofs(coeffs, ref.exps)[:, 0]
            for i in range(ref.n_local):
                g = V.dof_map[t, i]
                if g >= 0:
                    back[g] = lam[i] / V.dof_signs[t, i]
        assert np.abs(back - u).max() <= 1e-12 * max(1.0, np.abs(u).max())


# ---------------------------------------------------------------------- div
def test_div_matrix_divergence_theorem():
    """Constant-flux field on one triangle: integral of div equals the
    total boundary outflow (3 for unit integrated flux through each edge)."""
    mesh = meshes.single_triangle()
    V = build_space(mesh, "bdm", 0)
    Q = build_space(mesh, "dg_pressure", 0)
    B = asm.assemble_div(V, Q)
    # coefficient for unit integrated outflow: the dof stores the scaled
    # mean flux, so divide the target 1/|E| by the reference scale
    s0 = V.ref._dof_scales[0]
    coeffs = s0 / mesh.edge_lengths
    div_int = asm.assemble_moment(Q) @ np.linalg.solve(
        asm.assemble_mass(Q).toarray(), B.toarray() @ coeffs)
    assert div_int == pytest.approx(3.0, rel=1e-12)


def test_divergence_theorem_random_field(torus3, rng):
    """int div v over each triangle equals the boundary flux computed by
    independent edge quadrature (divergence theorem per element)."""
    from surfhodge.fespace import edge_ref_points
    from surfhodge.quadrature import edge_rule

    V = build_space(torus3, "bdm", 2, "zero_normal_trace")
    coeffs = rng.standard_normal(V.total_dofs)
    loc = V.local_coefficients(coeffs)
    rule = triangle_rule(4)
    divs = np.einsum("tl,lq->tq", loc, V.ref.div(rule.xy)) / torus3.Jdet[:, None]
    div_int = np.einsum("tq,q->t", divs, rule.weights) * torus3.Jdet
    tq, tw = edge_rule(6)
    for t in range(torus3.n_triangles):
        flux = 0.0
        for le in range(3):
            e = torus3.tri_edges[t, le]
            xy = edge_ref_points(le, tq)
            phys = np.einsum("ic,lqc->lqi", torus3.F[t] / torus3.Jdet[t],
                             V.ref.eval(xy))
            v = np.einsum("l,lqi->qi", loc[t], phys)
            flux += float((v @ torus3.conormals[t, le]) @ tw) * torus3.edge_lengths[e]
        assert div_int[t] == pytest.approx(flux, rel=1e-10, abs=1e-12)


def test_div_rank_deficiency_closed(torus3):
    V = build_space(torus3, "bdm", 1, "zero_normal_trace")
    Q = build_space(torus3, "dg_pressure", 0)
    B = asm.assemble_div(V, Q).toarray()
    sv = np.linalg.svd(B, compute_uv=False)
    rank = (sv > 1e-10 * sv[0]).sum()
    assert rank == Q.total_dofs - 1  # constants in the left kernel


def test_div_degree_mismatch(torus3):
    V = build_space(torus3, "bdm", 1)
    Q = build_space(torus3, "dg_pressure", 1)
    with pytest.raises(DegreeMismatch):
        asm.assemble_div(V, Q)
    S = build_space(torus3, "lagrange", 3)
    with pytest.raises(DegreeMismatch):
        asm.assemble_rot_embedding(S, V)


@pytest.mark.parametrize("form", [
    lambda V, Q, S, S_other: asm.assemble_cross_mass(V, S),
    lambda V, Q, S, S_other: asm.assemble_cross_mass(S, S_other),
    lambda V, Q, S, S_other: asm.assemble_div(Q, V),
    lambda V, Q, S, S_other: asm.assemble_moment(V),
    lambda V, Q, S, S_other: asm.reference_rot_block(V, S),
    lambda V, Q, S, S_other: asm.reference_rot_block(S_other, V),
], ids=["cross_mass_value_shapes", "cross_mass_two_meshes", "div_swapped", "moment_of_bdm",
        "rot_block_swapped", "rot_block_two_meshes"])
def test_forms_reject_mismatched_spaces(torus3, form):
    """A form given spaces of the wrong kinds, or spaces on two copies of
    one mesh, raises DegreeMismatch before it assembles anything."""
    V, Q, S = (build_space(torus3, kind, k)
               for kind, k in (("bdm", 1), ("dg_pressure", 0), ("lagrange", 2)))
    S_other = build_space(meshes.torus_structured(3, 3), "lagrange", 2)
    with pytest.raises(DegreeMismatch):
        form(V, Q, S, S_other)


# ---------------------------------------------------------------------- SIP
def test_sip_constant_field_free_slip_zero():
    mesh = meshes.single_triangle()
    V = build_space(mesh, "bdm", 1)
    A = asm.assemble_sip(V, mu=1.0, dirichlet=False).toarray()
    coeffs = np.zeros(V.total_dofs)
    lam = interpolate_constant(V, 0, [1.0, 0.3, 0.0])
    for i in range(V.ref.n_local):
        coeffs[V.dof_map[0, i]] = lam[i] / V.dof_signs[0, i]
    assert abs(coeffs @ A @ coeffs) < 1e-12
    # with Dirichlet (no-slip) terms the tangential boundary trace is seen
    A2 = asm.assemble_sip(V, mu=1.0, dirichlet=True).toarray()
    assert coeffs @ A2 @ coeffs > 1e-6


def test_sip_symmetry(corpus):
    for mesh in corpus.values():
        V = build_space(mesh, "bdm", 1, "zero_normal_trace")
        A = asm.assemble_sip(V, mu=0.7)
        assert abs(A - A.T).max() <= 1e-12 * abs(A).max()


SYMMETRIZED_FORMS = {
    "mass": lambda V, S: asm.assemble_mass(V),
    "stiffness": lambda V, S: asm.assemble_broken_stiffness(S),
    "sip": lambda V, S: asm.assemble_sip(V, mu=0.7),
}
SYMMETRIZED_MESHES = {
    "torus16x8": (lambda: meshes.torus_structured(16, 8), 2),
    "pierced": (lambda: meshes.sphere_with_holes(3, 4), 3),
    "tetrahedron": (meshes.tetrahedron, 1),
}


@pytest.mark.parametrize("mesh_name", sorted(SYMMETRIZED_MESHES))
@pytest.mark.parametrize("form", sorted(SYMMETRIZED_FORMS))
def test_symmetrization_in_place_is_bitwise(form, mesh_name, monkeypatch):
    """Mass, stiffness and SIP are symmetrized on their one transpose copy
    with the bits of (A + A.T) * 0.5, as csr.  On the tetrahedron at k = 1
    the SIP's facet product drops exact zeros, so its pattern is not
    symmetric and the plain sum runs."""
    build, k = SYMMETRIZED_MESHES[mesh_name]
    mesh = build()
    V = build_space(mesh, "bdm", k, "zero_normal_trace")
    S = build_space(mesh, "lagrange", k + 1)
    seen = []
    symmetrize = asm._symmetrize
    monkeypatch.setattr(asm, "_symmetrize", lambda A: seen.append(A) or symmetrize(A))
    got = SYMMETRIZED_FORMS[form](V, S)
    (A,) = seen
    T = A.T.asformat(A.format)
    in_place = np.array_equal(A.indptr, T.indptr) and np.array_equal(A.indices, T.indices)
    assert in_place == (form != "sip" or mesh_name != "tetrahedron")
    want = ((A + A.T) * 0.5).asformat("csr")
    assert got.format == "csr"
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_sip_assembly_peak_memory():
    """assemble_sip on the 32x16 torus at k = 2 returns a 4.4 MB matrix and
    peaks at about 13.7 MB of traced allocations (30.1 MB when every
    transient lived to the end: the side traces, jump, the operators, and
    a format copy at each sum and of the symmetrization)."""
    import tracemalloc

    V = build_space(meshes.torus_structured(32, 16), "bdm", 2, "zero_normal_trace")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        A = asm.assemble_sip(V, mu=0.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert A.nnz == 382_464
    assert peak < 20 * 2**20, f"{peak / 2**20:.1f} MB"


def test_sip_positive_semidefinite(torus, rng):
    for k in [0, 1, 2]:
        V = build_space(torus, "bdm", k, "zero_normal_trace")
        A = asm.assemble_sip(V, mu=1.3)
        for _ in range(10):
            x = rng.standard_normal(V.total_dofs)
            assert x @ (A @ x) >= -1e-10 * abs(A).max() * (x @ x)


def test_sip_two_triangle_jump_hand_value():
    """Rigid restrictions with a pure tangential jump across the diagonal:
    only the penalty term fires; its value is alpha*mu/h * |[u]_tau|^2 * h."""
    mesh = meshes.square_two_triangles()
    V = build_space(mesh, "bdm", 1)
    coeffs = np.zeros(V.total_dofs)
    lam = interpolate_constant(V, 0, [1.0, 1.0, 0.0])  # parallel to diagonal
    for i in range(V.ref.n_local):
        g = V.dof_map[0, i]
        coeffs[g] = lam[i] / V.dof_signs[0, i]
    A = asm.assemble_sip(V, mu=1.0, alpha=16.0, dirichlet=False).toarray()
    h = np.sqrt(2.0)
    hand = 16.0 * 1.0 / h * 2.0 * h  # jump magnitude sqrt(2), edge length h
    assert coeffs @ A @ coeffs == pytest.approx(hand, rel=1e-12)


def test_sip_parameter_validation(torus3):
    V = build_space(torus3, "bdm", 1, "zero_normal_trace")
    with pytest.raises(NonpositiveParameter):
        asm.assemble_sip(V, mu=-1.0)
    with pytest.raises(NonpositiveParameter):
        asm.assemble_sip(V, mu=1.0, alpha=0.0)


# --------------------------------------------------------------- convection
def test_convection_zero_field(torus3, rng):
    V = build_space(torus3, "bdm", 1, "zero_normal_trace")
    w = FeField(V, np.zeros(V.total_dofs))
    cu = asm.convection_action(asm.convection_tabulation(V), w,
                               rng.standard_normal(V.total_dofs))[0]
    assert not cu.any()


def test_convection_rejects_nondivfree(torus3, rng):
    """A random field is refused, and so is a rot field with a 1e-6
    perturbation (relative divergence above the 1e-8 check)."""
    V = build_space(torus3, "bdm", 1, "zero_normal_trace")
    S = build_space(torus3, "lagrange", 2, "zero_mean")
    rot = asm.assemble_rot_embedding(S, V) @ rng.standard_normal(S.total_dofs)
    r = rng.standard_normal(V.total_dofs)
    tab = asm.convection_tabulation(V)
    asm.convection_action(tab, FeField(V, rot), rot)
    for w in (FeField(V, r), FeField(V, rot + 1e-6 * np.linalg.norm(rot) / np.linalg.norm(r) * r)):
        with pytest.raises(NotDivergenceFree):
            asm.convection_action(tab, w, w.coefficients)


def _interp_piecewise_constants(V, vec_by_tri):
    """Coefficients of a piecewise-constant field (must be normal-continuous
    for the shared-edge dofs to be written consistently)."""
    mesh = V.mesh
    coeffs = np.zeros(V.total_dofs)
    for t, vec in enumerate(vec_by_tri):
        lam = interpolate_constant(V, t, vec)
        for i in range(V.ref.n_local):
            g = V.dof_map[t, i]
            if g >= 0:
                coeffs[g] = lam[i] / V.dof_signs[t, i]
    return coeffs


def test_convection_hand_assembled_upwind():
    """Lowest-order upwind flux across the diagonal of a flat 2-triangle
    patch against a hand-assembled facet term, for outflow from t0
    (sign 1) and inflow into it (sign -1)."""
    mesh = meshes.square_two_triangles()
    V = build_space(mesh, "bdm", 0)
    diag = next(e for e in range(mesh.n_edges) if not mesh.boundary_edge_mask[e])
    _, nu0, nu1 = edge_frames(mesh, diag)
    tau = mesh.edge_tangents[diag]
    h_e = mesh.edge_lengths[diag]
    tab = asm.convection_tabulation(V)

    rng = np.random.default_rng(11)
    for sign in (1.0, -1.0):
        # constant w with flux sign out of t0 across the diagonal (flat
        # patch: one ambient constant is normal-continuous on both triangles)
        w = FeField(V, _interp_piecewise_constants(V, [sign * nu0, sign * nu0]))
        for _ in range(5):
            # normal-continuous piecewise constants: a1 = a0 + beta tau keeps
            # the diagonal flux matched while allowing a tangential jump
            fields = []
            consts = []
            for _f in range(2):
                a0 = rng.standard_normal(3)
                a0[2] = 0.0
                a1 = a0 + rng.standard_normal() * tau
                consts.append((a0, a1))
                fields.append(_interp_piecewise_constants(V, [a0, a1]))
            (u0, u1), (v0, v1) = consts
            u_c, v_c = fields
            # volume terms vanish (gradients of constants); by hand, the
            # facet term per side T is int_E (w.nu_T)(u_up . v|_T) ds with
            # the tangential trace of u from the upwind element (t0 for
            # outflow) and the normal trace single-valued
            up = u0 if sign > 0 else u1
            hand = h_e * sign * ((u0 @ nu0) * (v0 @ nu0) + (up @ tau) * (v0 @ tau))
            hand -= h_e * sign * ((u1 @ nu1) * (v1 @ nu1) + (up @ tau) * (v1 @ tau))
            got = v_c @ asm.convection_action(tab, w, u_c)[0]
            assert got == pytest.approx(hand, rel=1e-12, abs=1e-13)


# ------------------------------------------------ ambient oracles (test-local)
def _ambient_tabulation(V, rule):
    """Physical values (T, n_loc, n_q, 3) and ambient gradients
    (T, n_loc, n_q, 3, 3) of the Piola-mapped local basis, formed on every
    triangle as (F / J) vhat and (F / J) grad(vhat) G'."""
    mesh = V.mesh
    piola = mesh.F / mesh.Jdet[:, None, None]
    vals = np.einsum("tic,lqc->tlqi", piola, V.ref.eval(rule.xy))
    grads = np.einsum("tia,lqab,tjb->tlqij", piola, V.ref.grad(rule.xy), mesh.G,
                      optimize=True)
    return vals, grads


def _ambient_sides(V, edges, tris, tq):
    """Local edge indices (E, S), physical values (E, S, n_loc, n_q, 3) and
    ambient gradients (E, S, n_loc, n_q, 3, 3) of the element sides tris
    (E, S) of edges, at the points tq ordered along each global tangent."""
    mesh = V.mesh
    le = np.argmax(mesh.tri_edges[tris] == edges[:, None, None], axis=2)
    flip = (~mesh.tri_edge_along[tris, le]).astype(int)
    xy = [[edge_ref_points(i, tq, f) for f in (False, True)] for i in range(3)]
    piola = mesh.F[tris] / mesh.Jdet[tris][:, :, None, None]
    ref_vals = np.array([[V.ref.eval(p) for p in row] for row in xy])[le, flip]
    ref_grads = np.array([[V.ref.grad(p) for p in row] for row in xy])[le, flip]
    vals = np.einsum("esic,eslqc->eslqi", piola, ref_vals)
    grads = np.einsum("esia,eslqab,esjb->eslqij", piola, ref_grads, mesh.G[tris],
                      optimize=True)
    return le, vals, grads


def _ambient_sip(V, mu, dirichlet):
    """The SIP form with dense ambient element blocks and dense
    (2 n_loc, 2 n_loc) facet blocks per edge."""
    mesh, k, n_loc = V.mesh, V.degree, V.ref.n_local
    alpha = 4.0 * (k + 1) ** 2
    shape = (V.total_dofs, V.total_dofs)
    rule = asm.volume_rule(V)
    _, grads = _ambient_tabulation(V, rule)
    eps = 0.5 * (grads + np.swapaxes(grads, 3, 4))
    local = mu * np.einsum("tlqij,tmqij,q->tlm", eps, eps, rule.weights) * mesh.Jdet[:, None, None]
    A = asm._scatter(local, V.dof_map, V.dof_signs, V.dof_map, V.dof_signs, shape)

    tq, tw = edge_rule(2 * k + 2)
    edges = np.flatnonzero(~mesh.boundary_edge_mask | dirichlet)
    n_e = len(edges)
    bnd = mesh.boundary_edge_mask[edges]
    tris = mesh.edge_tris[edges]
    tris[bnd, 1] = tris[bnd, 0]
    le, vals, grads = _ambient_sides(V, edges, tris, tq)
    tau = mesh.edge_tangents[edges]
    h_e = mesh.edge_lengths[edges]
    eps = 0.5 * (grads + np.swapaxes(grads, 4, 5))
    trac = mu * np.einsum("eslqij,esj,ei->eslq", eps, mesh.conormals[tris, le], tau)
    vt = np.einsum("eslqi,ei->eslq", vals, tau)
    sides = np.array([1.0, -1.0])[None, :, None, None]
    J = (sides * vt).reshape(n_e, 2 * n_loc, -1)
    G = (sides * np.where(bnd, 1.0, 0.5)[:, None, None, None] * trac).reshape(n_e, 2 * n_loc, -1)
    Jw = J * (tw[None, :] * h_e[:, None])[:, None, :]
    GJ = G @ Jw.transpose(0, 2, 1)
    block = -GJ - GJ.transpose(0, 2, 1) \
        + (alpha * mu / h_e)[:, None, None] * (J @ Jw.transpose(0, 2, 1))
    gd = V.dof_map[tris].reshape(n_e, -1)
    gd[bnd, n_loc:] = -1
    gs = V.dof_signs[tris].reshape(n_e, -1)
    A = A + asm._scatter(block, gd, gs, gd, gs, shape)
    return (A + A.T) * 0.5


def _ambient_cross_mass(rows, cols, rule):
    rv, _ = _ambient_tabulation(rows, rule)
    cv, _ = _ambient_tabulation(cols, rule)
    local = np.einsum("tlqi,tmqi,q->tlm", rv, cv, rule.weights) * rows.mesh.Jdet[:, None, None]
    return asm._scatter(local, rows.dof_map, rows.dof_signs, cols.dof_map, cols.dof_signs,
                        (rows.total_dofs, cols.total_dofs))


def _ambient_load(V, f):
    rule = asm.volume_rule(V, extra=2)
    vals, _ = _ambient_tabulation(V, rule)
    pts = asm.physical_points(V.mesh, rule)
    fv = f(pts.reshape(-1, 3), 0.0).reshape(pts.shape)
    local = np.einsum("tlqi,tqi,q,t->tl", vals, fv, rule.weights, V.mesh.Jdet)
    return _bincount_scatter(V, local)


def _padded_gather(space, c):
    """signs * c[dof_map] per triangle, with 0 appended to c for the
    dropped (-1) dofs to read."""
    gd = space.dof_map
    return space.dof_signs * np.append(c, 0.0)[np.where(gd >= 0, gd, -1)]


def _bincount_scatter(space, local):
    """Signed local contributions (T, n_local) summed into the global dofs
    by np.bincount, each dof's in (T, n_local) order; dropped dofs skipped."""
    rows = space.dof_map.ravel()
    keep = rows >= 0
    return np.bincount(rows[keep], weights=(local * space.dof_signs).ravel()[keep],
                       minlength=space.total_dofs)


def _smooth_forcing(x, t):
    return np.stack([np.sin(x[:, 1]) + x[:, 2], np.cos(x[:, 2]) * x[:, 0],
                     np.exp(0.3 * x[:, 0])], axis=1)


def _assert_matches(got, want):
    """Equal to the oracle within 1e-13 of its largest entry."""
    assert got.shape == want.shape
    diff = abs(got - want).max() if sp.issparse(got) else np.abs(got - want).max()
    assert diff <= 1e-13 * abs(want).max()


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("mesh_name", ["torus", "sphere4"])
def test_sip_matches_ambient_oracle(request, mesh_name, k):
    """Dirichlet (Nitsche) and free-slip SIP forms, with the boundary dofs
    kept and removed."""
    mesh = request.getfixturevalue(mesh_name)
    for constraint in ("none", "zero_normal_trace"):
        V = build_space(mesh, "bdm", k, constraint)
        for dirichlet in (True, False):
            _assert_matches(asm.assemble_sip(V, mu=0.7, dirichlet=dirichlet),
                            _ambient_sip(V, 0.7, dirichlet))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("mesh_name", ["torus", "sphere4"])
def test_vector_mass_and_load_match_ambient_oracle(request, mesh_name, k):
    """Vector mass, cross mass of BDM against piecewise-constant vectors,
    and the load of a smooth forcing with a normal component."""
    mesh = request.getfixturevalue(mesh_name)
    V = build_space(mesh, "bdm", k, "zero_normal_trace")
    P0 = build_space(mesh, "dg_vector", 0)
    M = _ambient_cross_mass(V, V, asm.volume_rule(V))
    _assert_matches(asm.assemble_mass(V), (M + M.T) * 0.5)
    _assert_matches(asm.assemble_cross_mass(V, P0),
                    _ambient_cross_mass(V, P0, triangle_rule(k + 3)))
    _assert_matches(asm.assemble_load(V, _smooth_forcing), _ambient_load(V, _smooth_forcing))


@pytest.mark.parametrize("kind, degree, constraint",
                         [("bdm", 2, "zero_normal_trace"), ("lagrange", 2, "none")])
def test_gather_and_scatter_match_padded_formulas(sphere4, rng, kind, degree, constraint):
    """local_coefficients, assemble_moment, assemble_load and
    assemble_gradient_load equal what the padded gather signs * c[dof_map]
    (a dropped dof reads 0) and np.bincount give, to the last bit
    (np.array_equal: a zero may change sign): on a trace-constrained BDM
    space, which drops dofs, and on a Lagrange space, whose vertex dofs
    sum the contributions of about 6 triangles each."""
    space = build_space(sphere4, kind, degree, constraint)
    c = rng.standard_normal(space.total_dofs)
    gd = space.dof_map
    assert np.array_equal(space.local_coefficients(c), _padded_gather(space, c))
    if kind == "bdm":
        assert (gd < 0).any()
        pts, weighted = asm.load_tabulation(space)
        fv = _smooth_forcing(pts.reshape(-1, 3), 0.0).reshape(pts.shape)
        local = np.matmul(fv, sphere4.F).reshape(len(fv), -1) @ weighted.T
        assert np.array_equal(asm.assemble_load(space, _smooth_forcing),
                              _bincount_scatter(space, local))
        return
    assert np.bincount(gd[:, :3].ravel()).mean() > 5.5
    rule = asm.volume_rule(space)
    local = (space.ref.eval(rule.xy) @ rule.weights)[None, :] * sphere4.Jdet[:, None]
    assert np.array_equal(asm.assemble_moment(space), _bincount_scatter(space, local))
    V = build_space(sphere4, "bdm", 1)
    field = FeField(V, rng.standard_normal(V.total_dofs))
    rule = triangle_rule(degree + 4)
    block = np.einsum("lqa,mqa,q->lm", V.ref.eval(rule.xy), space.ref.grad(rule.xy),
                      rule.weights)
    local = _padded_gather(V, field.coefficients) @ block
    assert np.array_equal(asm.assemble_gradient_load(space, field),
                          _bincount_scatter(space, local))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_side_trace_normal_rows_store_own_edge_dofs(sphere4, k):
    """Psi's flux rows are side 0's normal traces only, one per edge
    quadrature point, followed by both sides' tangential traces.  A normal
    trace on an edge is fixed by that edge's k + 1 moments, so each flux
    row stores at most k + 1 entries."""
    V = build_space(sphere4, "bdm", k, "zero_normal_trace")
    psi, jump_t, wq = asm.convection_tabulation(V)["edge"]
    assert psi.shape == (3 * len(wq), V.total_dofs)
    assert jump_t.shape == (V.total_dofs, len(wq))
    row_nnz = np.diff(psi.indptr).reshape(3, -1)  # flux rows, then tangential 0 and 1
    assert row_nnz[0].max() <= k + 1
    assert row_nnz[1:].max() == V.ref.n_local


@pytest.mark.parametrize("k", range(5))
def test_normal_traces_of_other_edges_dofs_are_rounding(k):
    """On a reference edge only the edge's own k + 1 BDM dofs have a normal
    trace: the others' vanish exactly, and evaluate to rounding, below 1e-11
    of the own dofs' largest (1.7e-12 at k = 4).  The flux rows of Psi and
    the convection oracle's flux keep the own dofs alone."""
    ref = build_space(meshes.single_triangle(), "bdm", k).ref
    tq, _ = edge_rule(max(2 * k + 2, 3 * k))
    for i, normal in enumerate(REF_EDGE_NORMALS):
        vn = ref.eval(edge_ref_points(i, tq)) @ normal  # (n_loc, n_q)
        own = np.arange(ref.n_local) // (k + 1) == i
        assert np.abs(vn[~own]).max() <= 1e-11 * np.abs(vn[own]).max()


def test_convection_facet_operators_store_no_cancelling_rows():
    """On trefoil_tube(24, 8) at k = 1 (576 interior edges, 3 points each)
    Psi stores 2 flux and 2 x 6 tangential entries per point, 3456 fewer
    than with side 1's normal rows, and the tangential jump
    J' = (Psi_tau0 - Psi_tau1)' stores 6 + 6 - 2, the two sides sharing the
    edge's 2 dofs."""
    V = build_space(meshes.trefoil_tube(24, 8), "bdm", 1)
    psi, jump_t, _ = asm.convection_tabulation(V)["edge"]
    assert (psi.nnz, jump_t.nnz) == (24192, 17280)


def _ambient_convection(V, w, u):
    """C(w) u from ambient tabulations, independent of the reference-frame
    tabulation: the volume term -(u, grad(v) w) from the physical values and
    3x3 gradients of _ambient_tabulation, and the upwind facet term from the
    physical side traces of the interior edges."""
    mesh, k = V.mesh, V.degree
    w_loc, u_loc = V.local_coefficients(w), V.local_coefficients(u)
    rule = triangle_rule(max(2 * k + 3, 3 * k))
    vals, grads = _ambient_tabulation(V, rule)
    wv = np.einsum("tl,tlqi->tqi", w_loc, vals)
    uv = np.einsum("tl,tlqi->tqi", u_loc, vals)
    local = -np.einsum("taqij,tqi,tqj,q,t->ta", grads, uv, wv, rule.weights, mesh.Jdet)

    tq, tw = edge_rule(max(2 * k + 2, 3 * k))
    interior = np.flatnonzero(~mesh.boundary_edge_mask)
    sides = mesh.edge_tris[interior]
    le, svals, _ = _ambient_sides(V, interior, sides, tq)
    nu = mesh.conormals[sides, le]  # (E, 2, 3)
    tau = mesh.edge_tangents[interior]
    bn = np.einsum("eslqi,esi->eslq", svals, nu)
    bt = np.einsum("eslqi,ei->eslq", svals, tau)
    un = np.einsum("esl,eslq->esq", u_loc[sides], bn)
    ut = np.einsum("esl,eslq->esq", u_loc[sides], bt)
    # w . nu seen from side 0, weighted; side 1 sees its negative.  Only the
    # edge's own k + 1 dofs have a normal trace there: the others' vanish
    # exactly, and evaluate to rounding (up to 1.7e-12 at k = 4)
    own = np.arange(V.ref.n_local) // (k + 1) == le[:, 0, None]  # (E, n_loc)
    wn = np.einsum("el,elq->eq", np.where(own, w_loc[sides[:, 0]], 0.0),
                   bn[:, 0]) * tw * mesh.edge_lengths[interior][:, None]
    flux = wn[:, None, :] * np.array([1.0, -1.0])[None, :, None]
    ut_up = np.where(wn > 0, ut[:, 0], ut[:, 1])
    edge = np.einsum("eslq,esq->esl", bn, flux * un) + np.einsum(
        "eslq,esq->esl", bt, flux * ut_up[:, None, :])

    out = np.zeros(V.total_dofs)
    for dofs, signs, vals_loc in ((V.dof_map, V.dof_signs, local),
                                  (V.dof_map[sides], V.dof_signs[sides], edge)):
        keep = dofs >= 0
        np.add.at(out, dofs[keep], (signs * vals_loc)[keep])
    return out


@pytest.mark.parametrize("mesh_name, k", [
    *((name, k) for name in ("torus", "sphere4") for k in range(5)),
    # no interior edges: an empty Psi, and zero-normal-trace dofs from k = 2
    ("single_triangle", 2), ("single_triangle", 3),
])
def test_convection_action_matches_ambient_oracle(request, rng, mesh_name, k):
    """The reference-frame action equals the ambient formula it replaced,
    for a generic u and for u = w; the largest |w| its evaluation returns
    for the CFL check equals the largest |w| that tabulate_field gives at
    its rule.  The oracle integrates the volume term on a rule of higher
    degree than the action's 3 max(k, 1) - 1, so agreement to rounding shows
    that the action's rule is exact for the trilinear integrand."""
    mesh = (meshes.single_triangle() if mesh_name == "single_triangle"
            else request.getfixturevalue(mesh_name))
    V = build_space(mesh, "bdm", k, "zero_normal_trace")
    S = build_space(mesh, "lagrange", k + 1,
                    "zero_mean" if mesh.is_closed else "zero_boundary_trace")
    E = asm.assemble_rot_embedding(S, V)
    cache = asm.convection_tabulation(V)
    for _ in range(2):
        w = FeField(V, E @ rng.standard_normal(S.total_dofs))
        wmax = np.linalg.norm(asm.tabulate_field(w, cache["vol"][0]), axis=-1).max()
        for u in (rng.standard_normal(V.total_dofs), w.coefficients):
            want = _ambient_convection(V, w.coefficients, u)
            got, umax = asm.convection_action(cache, w, u)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            assert abs(umax - wmax) <= 1e-13 * wmax


def _probe_assembled(V, w, cache):
    """C(w) assembled from the action by probing groups of columns.

    P is the DG face-neighbour pattern: dof i couples to dof j when a
    triangle carrying i is, or shares an edge with, one carrying j.  Columns
    with no common row in P share a probe vector e_J, and the probe's output
    on the rows of column j is C[:, j].  Also returns, per probe, the output
    outside the rows its columns reach (zero for a local operator)."""
    mesh, n = V.mesh, V.total_dofs
    tris, loc = np.nonzero(V.dof_map >= 0)
    D = sp.csr_matrix((np.ones(len(tris)), (V.dof_map[tris, loc], tris)),
                      shape=(n, mesh.Jdet.shape[0]))
    inner = mesh.edge_tris[~mesh.boundary_edge_mask]
    A = sp.coo_matrix((np.ones(2 * len(inner)), (inner.ravel(), inner[:, ::-1].ravel())),
                      shape=(D.shape[1],) * 2) + sp.identity(D.shape[1])
    P = ((D @ A @ D.T) != 0).tocsc()
    conflict = (P.T @ P).tocsr()
    color = np.full(n, -1)
    for j in range(n):
        taken = color[conflict.indices[conflict.indptr[j]:conflict.indptr[j + 1]]]
        color[j] = np.flatnonzero(~np.isin(np.arange(n + 1), taken))[0]
    rows, cols, vals, leaks = [], [], [], []
    for c in range(color.max() + 1):
        group = np.flatnonzero(color == c)
        probe = np.zeros(n)
        probe[group] = 1.0
        out = asm.convection_action(cache, w, probe)[0]
        reached = np.zeros(n, bool)
        for j in group:
            r = P.indices[P.indptr[j]:P.indptr[j + 1]]
            reached[r] = True
            rows.append(r)
            cols.append(np.full(len(r), j))
            vals.append(out[r])
        leaks.append(out[~reached])
    C = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    return C, np.concatenate(leaks)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("mesh_name", ["torus", "sphere4"])
def test_convection_action_matches_assembled(request, rng, mesh_name, k):
    """The action is one local linear operator: the matrix C(w) assembled by
    probing it reproduces it for a generic u and for u = w (the evaluation
    that reuses w's values for u), and a probe changes no row outside the
    DG face-neighbour pattern of its columns."""
    # sphere4 is open (boundary edges); rotations of random streamfunctions
    # are divergence-free and cross interior edges in both directions
    mesh = request.getfixturevalue(mesh_name)
    V = build_space(mesh, "bdm", k, "zero_normal_trace")
    S = build_space(mesh, "lagrange", k + 1,
                    "zero_mean" if mesh.is_closed else "zero_boundary_trace")
    E = asm.assemble_rot_embedding(S, V)
    cache = asm.convection_tabulation(V)
    for _ in range(2):
        w = FeField(V, E @ rng.standard_normal(S.total_dofs))
        C, leak = _probe_assembled(V, w, cache)
        assert not leak.any()
        for u in (rng.standard_normal(V.total_dofs), w.coefficients):
            want = C @ u
            got = asm.convection_action(cache, w, u)[0]
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_convection_action_upwinds_both_directions(rng):
    """At k = 1 on a flat 2-triangle patch, constant w with flux out of t0
    across the diagonal and then into it: the action equals the ambient
    oracle, whose upwind side flips with the flux."""
    mesh = meshes.square_two_triangles()
    V = build_space(mesh, "bdm", 1)
    diag = next(e for e in range(mesh.n_edges) if not mesh.boundary_edge_mask[e])
    nu0 = edge_frames(mesh, diag)[1]
    tab = asm.convection_tabulation(V)
    for sign in (1.0, -1.0):  # outflow from t0, then inflow into it
        w = FeField(V, _interp_piecewise_constants(V, [sign * nu0, sign * nu0]))
        for _ in range(3):
            u = rng.standard_normal(V.total_dofs)
            want = _ambient_convection(V, w.coefficients, u)
            got = asm.convection_action(tab, w, u)[0]
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _check_energy_stability(mesh, rng, k):
    V = build_space(mesh, "bdm", k, "zero_normal_trace")
    S = build_space(mesh, "lagrange", k + 1,
                    "zero_mean" if mesh.is_closed else "zero_boundary_trace")
    E = asm.assemble_rot_embedding(S, V)
    M = asm.assemble_mass(V)
    cache = asm.convection_tabulation(V)
    for _ in range(4):
        w = FeField(V, E @ rng.standard_normal(S.total_dofs))
        for u in (E @ rng.standard_normal(S.total_dofs), w.coefficients):
            cu = asm.convection_action(cache, w, u)[0]
            tol = min(1e-12 * np.linalg.norm(u) * np.linalg.norm(cu), 1e-10 * (u @ (M @ u)))
            assert u @ cu >= -tol


@pytest.mark.parametrize("k", [0, 1, 2])
def test_convection_energy_stability(torus, rng, k):
    """c_h(w; u, u) >= 0 to rounding for divergence-free w and u on a
    closed surface."""
    _check_energy_stability(torus, rng, k)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_convection_action_energy_stability(sphere4, rng, k):
    """c_h(w; u, u) >= 0 to rounding for divergence-free w and u on an
    open surface (boundary edges carry no flux)."""
    _check_energy_stability(sphere4, rng, k)


def test_convection_rejects_foreign_space():
    # equal-size spaces on two separately built copies of one mesh
    a, b = meshes.torus_structured(3, 3), meshes.torus_structured(3, 3)
    V = build_space(a, "bdm", 1, "zero_normal_trace")
    W = build_space(b, "bdm", 1, "zero_normal_trace")
    assert W.total_dofs == V.total_dofs
    w = FeField(W, np.zeros(W.total_dofs))
    with pytest.raises(DegreeMismatch):
        asm.convection_action(asm.convection_tabulation(V), w, np.zeros(V.total_dofs))


def test_convection_rejects_foreign_tabulation():
    """A field outside the space of the tabulation it is given (here one
    degree lower, on the same mesh) is refused, and the tabulation is left
    as it was."""
    mesh = meshes.torus_structured(3, 3)
    V = build_space(mesh, "bdm", 1, "zero_normal_trace")
    W = build_space(mesh, "bdm", 2, "zero_normal_trace")
    cache = asm.convection_tabulation(W)
    w = FeField(V, np.zeros(V.total_dofs))
    with pytest.raises(DegreeMismatch):
        asm.convection_action(cache, w, np.zeros(V.total_dofs))
    assert cache["space"] is W


# -------------------------------------------------------------------- loads
def _per_triangle_forcing(V, values):
    """A forcing callable that returns values (T, n_q, 3) at the points of
    load_tabulation(V), in the order assemble_load passes them."""
    pts = asm.load_tabulation(V)[0].reshape(-1, 3)

    def f(x, t):
        assert np.array_equal(x, pts)
        return values.reshape(-1, 3)

    return f


def test_load_zero_and_normal(corpus):
    mesh = corpus["icosphere"]
    V = build_space(mesh, "bdm", 1, "zero_normal_trace")
    b0 = asm.assemble_load(V, lambda x, t: np.zeros_like(x))
    assert np.abs(b0).max() == 0.0
    # the radial field is normal to the sphere but not to the facets: it
    # loads exactly what its tangential part per triangle loads
    pts = asm.load_tabulation(V)[0]
    radial = 2.5 * pts / np.linalg.norm(pts, axis=-1)[..., None]
    n = mesh.tri_normals[:, None, :]
    tangential = radial - np.sum(radial * n, axis=-1)[..., None] * n
    b1 = asm.assemble_load(V, _per_triangle_forcing(V, radial))
    assert np.abs(b1).max() > 1e-3
    assert np.allclose(b1, asm.assemble_load(V, _per_triangle_forcing(V, tangential)),
                       rtol=0.0, atol=1e-14 * np.abs(b1).max())


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mesh_name", ["trefoil", "sphere4"])
def test_load_of_facet_normal_forcing_is_rounding(request, mesh_name, k):
    """The Piola-mapped basis lies in each triangle's plane, so a forcing
    along the facet normals loads at most rounding next to a tangential
    forcing of the same size."""
    mesh = (meshes.trefoil_tube(24, 8) if mesh_name == "trefoil"
            else request.getfixturevalue(mesh_name))
    V = build_space(mesh, "bdm", k, "zero_normal_trace")
    pts = asm.load_tabulation(V)[0]
    amp = (1.0 + pts[..., 0] ** 2)[..., None]
    edge = mesh.F[:, :, 0] / np.linalg.norm(mesh.F[:, :, 0], axis=1)[:, None]
    b_normal = asm.assemble_load(V, _per_triangle_forcing(V, amp * mesh.tri_normals[:, None]))
    b_tangent = asm.assemble_load(V, _per_triangle_forcing(V, amp * edge[:, None]))
    assert np.abs(b_normal).max() <= 1e-14 * np.abs(b_tangent).max()


def test_load_exactly_normal_forcing_vanishes():
    mesh = meshes.single_triangle()  # normal = +z
    V = build_space(mesh, "bdm", 2)
    b = asm.assemble_load(V, lambda x, t: np.tile([0.0, 0.0, 3.7], (len(x), 1)))
    assert np.abs(b).max() < 1e-14


def test_load_constant_tangential_single_triangle():
    """Entries equal area * (f . mean of basis), with the mean computed by
    the independent edge-midpoint rule (exact for degree 1)."""
    mesh = meshes.single_triangle()
    V = build_space(mesh, "bdm", 1)
    f_vec = np.array([0.25, -1.5, 0.0])
    b = asm.assemble_load(V, lambda x, t: np.tile(f_vec, (len(x), 1)))
    mids = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    from surfhodge.fespace import eval_basis

    bv = eval_basis(V, 0, mids)
    means = bv.values.mean(axis=1)  # midpoint rule = exact mean for P1
    hand = 0.5 * (means @ f_vec) * V.dof_signs[0]
    got = b[V.dof_map[0]]
    assert np.allclose(got, hand, atol=1e-14)


# ---------------------------------------------------------------- ordering
def test_assembly_independent_of_triangle_order(torus3):
    perm = np.random.default_rng(3).permutation(torus3.n_triangles)
    mesh2 = SurfaceMesh(torus3.vertices, torus3.triangles[perm])
    for kind, deg, cons in [("bdm", 1, "zero_normal_trace"), ("lagrange", 2, "none")]:
        s1 = build_space(torus3, kind, deg, cons)
        s2 = build_space(mesh2, kind, deg, cons)
        # edge/vertex-based dofs only: identical global numbering
        if kind == "bdm":
            A1 = asm.assemble_sip(s1, mu=1.0)
            A2 = asm.assemble_sip(s2, mu=1.0)
        else:
            A1 = asm.assemble_mass(s1)
            A2 = asm.assemble_mass(s2)
        assert abs(A1 - A2).max() <= 1e-14 * abs(A1).max()


def test_sip_consistency_continuous_field_flat():
    """A globally polynomial tangential field on a flat patch has no
    tangential jumps, so the free-slip viscous energy reduces to the pure
    element term (computed here by independent quadrature)."""
    mesh = meshes.flat_patch(3)
    V = build_space(mesh, "bdm", 2)
    # smooth global field (degree 2 polynomial in x, y)
    def field(x, t):
        return np.stack([x[:, 0] ** 2 + x[:, 1], x[:, 0] * x[:, 1] - 3 * x[:, 1] ** 2,
                         np.zeros(len(x))], axis=1)

    b = asm.assemble_load(V, field)
    M = asm.assemble_mass(V)
    from surfhodge.linalg import FactorizedOperator

    u = FactorizedOperator(M).solve(b)
    mu = 0.8
    A = asm.assemble_sip(V, mu=mu, dirichlet=False)
    got = u @ (A @ u)
    # independent oracle: eps(u) = [[2x, (y+1)/2], [(y+1)/2, x-6y]] analytic
    from surfhodge.quadrature import edge_rule, triangle_rule

    rule = triangle_rule(6)
    pts = asm.physical_points(mesh, rule)
    x, y = pts[:, :, 0], pts[:, :, 1]
    eps2 = (2 * x) ** 2 + (x - 6 * y) ** 2 + 2 * (0.5 * (y + 1)) ** 2
    hand = mu * float(np.einsum("tq,q,t->", eps2, rule.weights, mesh.Jdet))
    assert got == pytest.approx(hand, rel=1e-11)


@pytest.mark.parametrize("build", [
    lambda: meshes.torus_structured(8, 8),
    lambda: meshes.trefoil_tube(),
    lambda: meshes.sphere_with_holes(3, 4),
], ids=["torus", "trefoil", "pierced_sphere"])
def test_convection_metric_exact_under_power_of_2_scaling(build):
    """The convection form's metric g = F'F / J^2 is formed with J = 2^e m
    and no s^4-sized square, so a mesh scaled by 2^j, j = +-300, tabulates
    with no warning (pytest turns one into an error) and g scales exactly
    by 2^-2j."""
    def metric(mesh):
        return asm.convection_tabulation(build_space(mesh, "bdm", 1, "zero_normal_trace"))["vol"][3]

    mesh = build()
    g = metric(mesh)
    for j in (-300, 300):
        scaled = SurfaceMesh(np.ldexp(mesh.vertices, j), mesh.triangles)
        np.testing.assert_array_equal(metric(scaled), np.ldexp(g, -2 * j))

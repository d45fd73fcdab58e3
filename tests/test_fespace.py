from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfhodge import meshes
from surfhodge.assembly import assemble_mass
from surfhodge.errors import DisconnectedMesh, IndexOutOfRange, UnsupportedCombination
from surfhodge.fespace import (
    _KINDS,
    VALID_CONSTRAINTS,
    FeField,
    build_space,
    count_dofs,
    edge_ref_points,
    eval_basis,
    shifted_legendre,
)
from surfhodge.mesh import SurfaceMesh, analyze_topology
from surfhodge.quadrature import edge_rule

ALL_KINDS = [
    ("lagrange", [1, 2, 3, 4], ["none", "zero_boundary_trace", "zero_mean"]),
    ("bdm", [0, 1, 2, 3], ["none", "zero_normal_trace"]),
    ("dg_pressure", [0, 1, 2], ["none"]),
    ("dg_vector", [0, 1], ["none"]),
    ("crouzeix_raviart", [1], ["none", "zero_mean"]),
    ("facet_tangential", [0, 1, 3], ["none"]),
]


def test_count_matches_build_everywhere(corpus):
    for mesh in corpus.values():
        topo = analyze_topology(mesh)
        for kind, degrees, constraints in ALL_KINDS:
            for d in degrees:
                for c in constraints:
                    space = build_space(mesh, kind, d, c)
                    assert space.total_dofs == count_dofs(topo, kind, d, c), (
                        kind, d, c)


def test_count_examples(tetra):
    topo = analyze_topology(tetra)
    assert count_dofs(topo, "bdm", 0, "zero_normal_trace") == 6  # one per edge
    space = build_space(tetra, "lagrange", 1, "zero_mean")
    assert space.total_dofs == 4

    sq = meshes.square_two_triangles()
    cr = build_space(sq, "crouzeix_raviart", 1, "zero_mean")
    assert cr.total_dofs == 5  # one per edge, mean constraint at solve time


def test_table_counts_synthetic_genus1():
    topo = analyze_topology(meshes.torus_structured(349, 5))  # 3490 triangles, genus 1
    assert count_dofs(topo, "lagrange", 4, "zero_mean") == 27920
    assert count_dofs(topo, "bdm", 3) == 48860
    assert count_dofs(topo, "dg_pressure", 2) == 20940
    assert count_dofs(topo, "facet_tangential", 3) == 20940


def test_unsupported_combinations(tetra):
    with pytest.raises(UnsupportedCombination):
        build_space(tetra, "lagrange", 0)
    with pytest.raises(UnsupportedCombination):
        build_space(tetra, "crouzeix_raviart", 2)
    with pytest.raises(UnsupportedCombination):
        build_space(tetra, "bdm", 1, "zero_mean")
    with pytest.raises(UnsupportedCombination):
        count_dofs(analyze_topology(tetra), "lagrange", 99)


def test_zero_mean_needs_connected_mesh(tetra):
    verts = np.vstack([tetra.vertices, tetra.vertices + 10.0])
    tris = np.vstack([tetra.triangles, tetra.triangles + 4])
    mesh = SurfaceMesh(verts, tris)
    with pytest.raises(DisconnectedMesh):
        build_space(mesh, "lagrange", 1, "zero_mean")


def _outcome(fn, *args):
    """("ok", value) or (error type, message) of fn(*args)."""
    try:
        return "ok", fn(*args)
    except (UnsupportedCombination, DisconnectedMesh) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("disconnected", [False, True])
def test_count_dofs_validates_as_build_space(tetra, disconnected):
    """Every kind x degree -1..6 x constraint: both functions raise the
    same error, or both succeed with the same count."""
    mesh = meshes.torus_structured(4, 4)
    if disconnected:
        mesh = SurfaceMesh(np.vstack([mesh.vertices, tetra.vertices + 10.0]),
                           np.vstack([mesh.triangles, tetra.triangles + mesh.n_vertices]))
    topo = analyze_topology(mesh)
    assert topo.n_components == (2 if disconnected else 1)
    constraints = sorted(set().union(*VALID_CONSTRAINTS.values()))
    for kind in VALID_CONSTRAINTS:
        for degree in range(-1, 7):
            for constraint in constraints:
                built = _outcome(build_space, mesh, kind, degree, constraint)
                counted = _outcome(count_dofs, topo, kind, degree, constraint)
                if built[0] == "ok":
                    built = ("ok", built[1].total_dofs)
                assert built == counted, (kind, degree, constraint)


def _local_entities(space):
    """(kind, position) of each local dof, read from the reference element:
    kind 0 vertex, 1 edge, 2 interior; position is the local vertex or
    edge."""
    ref, n = space.ref, space.n_local
    kind, pos = np.full(n, 2), np.zeros(n, dtype=int)
    if space.kind == "lagrange":
        kind[ref.vertex_nodes], pos[ref.vertex_nodes] = 0, range(3)
        for le, nodes in enumerate(ref.edge_nodes):
            kind[nodes], pos[nodes] = 1, le
    elif space.kind == "bdm":
        kind[:ref.n_edge_dofs] = 1
        pos[:ref.n_edge_dofs] = [le for le, _ in ref.edge_dofs]
    elif space.kind in ("crouzeix_raviart", "facet_tangential"):
        kind[:], pos[:] = 1, np.repeat(range(3), n // 3)
    return kind, pos


def test_dof_maps_number_their_entities(corpus):
    """Every space on the corpus, checked against the mesh and the
    reference element only: the kept dofs are 0..total_dofs-1; each dof
    sits on one vertex, edge or triangle and appears on every triangle
    around it (and only there), with the same dofs on each; only a trace
    constraint drops dofs, and only on the boundary; on the two sides of
    an edge, each Lagrange edge node of degree 3 and 4 sits at one
    physical point."""
    constraints = sorted(set().union(*VALID_CONSTRAINTS.values()))
    checked = 0
    for name, mesh in corpus.items():
        T = mesh.n_triangles
        for kind in VALID_CONSTRAINTS:
            for degree in range(-1, 7):
                for constraint in constraints:
                    try:
                        space = build_space(mesh, kind, degree, constraint)
                    except (UnsupportedCombination, DisconnectedMesh):
                        continue
                    checked += 1
                    where = (name, kind, degree, constraint)
                    gd = space.dof_map
                    assert gd.shape == (T, space.n_local), where
                    if space.ref is not None:
                        assert space.n_local == space.ref.n_local, where
                    kept = gd >= 0
                    assert np.array_equal(np.unique(gd[kept]), np.arange(space.total_dofs)), where
                    ek, pos = _local_entities(space)
                    ent = np.where(ek == 0, mesh.triangles[:, pos],
                                   np.where(ek == 1, mesh.tri_edges[:, pos], np.arange(T)[:, None]))
                    boundary = np.zeros(gd.shape, bool)
                    boundary[:, ek == 0] = mesh.boundary_vertex_mask[ent[:, ek == 0]]
                    boundary[:, ek == 1] = mesh.boundary_edge_mask[ent[:, ek == 1]]
                    if constraint in ("zero_boundary_trace", "zero_normal_trace"):
                        assert np.array_equal(~kept, boundary), where
                    else:
                        assert kept.all(), where
                    key = ek * (mesh.n_vertices + mesh.n_edges + T) + ent
                    dof, key_k = gd[kept], key[kept]
                    tri = np.broadcast_to(np.arange(T)[:, None], gd.shape)[kept]
                    pairs = np.unique(np.stack([dof, key_k]), axis=1)
                    assert len(np.unique(pairs[0])) == pairs.shape[1], where  # one entity each
                    # each triangle around an entity holds all of its dofs, once
                    n_dofs = np.bincount(pairs[1])
                    n_tris = np.bincount(np.unique(np.stack([key_k, tri]), axis=1)[0])
                    n_seen = np.bincount(key_k)
                    assert np.array_equal(n_seen, n_dofs * n_tris), where
                    if kind == "lagrange" and degree in (3, 4):
                        lam = np.column_stack([1.0 - space.ref.nodes.sum(axis=1), space.ref.nodes])
                        xyz = np.einsum("lv,tvc->tlc", lam, mesh.vertices[mesh.triangles])
                        first = np.zeros((space.total_dofs, 3))
                        first[gd[kept]] = xyz[kept]
                        assert np.abs(xyz[kept] - first[gd[kept]]).max() <= 1e-13, where
    # per mesh: lagrange 5 x 3, bdm 5 x 2, dg_pressure 5 x 2, dg_vector 5,
    # crouzeix_raviart 2, facet_tangential 5
    assert checked == len(corpus) * 47


# ------------------------------------------------------------------- bases
def test_lagrange_vertex_pattern(tetra):
    space = build_space(tetra, "lagrange", 1)
    bv = eval_basis(space, 0, np.eye(3))
    assert np.allclose(bv.values, np.eye(3), atol=1e-13)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=999))
def test_partition_of_unity(degree, seed):
    mesh = meshes.torus_structured(3, 3)
    space = build_space(mesh, "lagrange", degree)
    pts = np.random.default_rng(seed).dirichlet([1.0, 1.0, 1.0], size=50)
    bv = eval_basis(space, seed % mesh.n_triangles, pts)
    assert np.allclose(bv.values.sum(axis=0), 1.0, atol=1e-11)


def test_bdm_edge_trace_is_prescribed_polynomial(torus):
    """The basis dual to an edge moment has the matching Legendre trace on
    its own edge (up to normalization) and zero trace on the other edges."""
    k = 1
    space = build_space(torus, "bdm", k, "zero_normal_trace")
    mesh = torus
    t = 5
    tq, tw = edge_rule(2 * k + 2)
    for le in range(3):
        xy = edge_ref_points(le, tq)
        bv = eval_basis(space, t, np.column_stack([1 - xy.sum(1), xy]))
        e = mesh.tri_edges[t, le]
        nu = mesh.conormals[t, le]
        for i, (le_i, m_i) in enumerate(space.ref.edge_dofs):
            trace = bv.values[i] @ nu  # (n_q,)
            if le_i != le:
                assert np.abs(trace).max() < 1e-12
            else:
                # trace proportional to L_m along the local edge direction
                L = shifted_legendre(m_i, tq)
                denom = float(L @ (L * tw))
                coef = float(trace @ (L * tw)) / denom
                assert np.abs(trace - coef * L).max() < 1e-12 * max(1, abs(coef))
        # interior dofs have vanishing normal trace everywhere
        for i in range(space.ref.n_edge_dofs, space.ref.n_local):
            assert np.abs(bv.values[i] @ nu).max() < 1e-11


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_bdm_normal_continuity(corpus, k):
    """Normal jumps of random fields vanish at edge quadrature points."""
    for name, mesh in corpus.items():
        space = build_space(mesh, "bdm", k, "zero_normal_trace")
        coeffs = np.random.default_rng(0).standard_normal(space.total_dofs)
        loc = space.local_coefficients(coeffs)
        tq, _ = edge_rule(2 * k + 2)
        scale = np.abs(coeffs).max()
        for e in range(mesh.n_edges):
            if mesh.boundary_edge_mask[e]:
                continue
            traces = []
            for side in range(2):
                t = int(mesh.edge_tris[e, side])
                le = list(mesh.tri_edges[t]).index(e)
                xy = edge_ref_points(le, tq, flip=not mesh.tri_edge_along[t, le])
                phys = np.einsum("ic,lqc->lqi", mesh.F[t] / mesh.Jdet[t],
                                 space.ref.eval(xy))
                v = np.einsum("l,lqi->qi", loc[t], phys)
                traces.append(v @ mesh.conormals[t, le])
            assert np.abs(traces[0] + traces[1]).max() <= 1e-12 * scale, (name, e)


def test_bdm_zero_normal_trace_on_boundary(sphere4):
    space = build_space(sphere4, "bdm", 2, "zero_normal_trace")
    coeffs = np.random.default_rng(1).standard_normal(space.total_dofs)
    loc = space.local_coefficients(coeffs)
    tq, _ = edge_rule(6)
    for e in np.flatnonzero(sphere4.boundary_edge_mask):
        t = int(sphere4.edge_tris[e, 0])
        le = list(sphere4.tri_edges[t]).index(e)
        xy = edge_ref_points(le, tq)
        phys = np.einsum("ic,lqc->lqi", sphere4.F[t] / sphere4.Jdet[t],
                         space.ref.eval(xy))
        v = np.einsum("l,lqi->qi", loc[t], phys)
        assert np.abs(v @ sphere4.conormals[t, le]).max() < 1e-12 * np.abs(coeffs).max()


# -------------------------------------------------------------------- Piola
def test_piola_identity_embedding():
    mesh = meshes.single_triangle()  # reference triangle embedded at z = 0
    space = build_space(mesh, "dg_vector", 0)  # local basis: constant (1, 0), (0, 1)
    ref_vals = np.array([[1.0, 0.0], [0.25, -0.5]])
    out = np.array([FeField(space, c).eval_cells([0], [[1 / 3] * 3])[0, 0] for c in ref_vals])
    assert np.allclose(out[:, :2], ref_vals, atol=1e-15)
    assert np.allclose(out[:, 2], 0.0)
    bv = eval_basis(space, 0, [[1 / 3] * 3])
    assert np.allclose(ref_vals @ bv.values[:, 0], out, atol=1e-15)


def test_eval_cells_of_a_scalar_field_matches_eval_basis(torus):
    """eval_cells' scalar branch: on each triangle a Lagrange field is its
    signed local coefficients against eval_basis's values."""
    space = build_space(torus, "lagrange", 3)
    rng = np.random.default_rng(5)
    c = rng.standard_normal(space.total_dofs)
    tris, pts = [0, 7, 19], rng.dirichlet([1, 1, 1], size=6)
    out = FeField(space, c).eval_cells(tris, pts)
    assert out.shape == (len(tris), len(pts))
    for row, t in zip(out, tris):
        loc = space.dof_signs[t] * c[space.dof_map[t]]
        assert np.allclose(row, loc @ eval_basis(space, t, pts).values, rtol=0, atol=1e-14)


@pytest.mark.parametrize("kind", sorted(set(_KINDS) - {"facet_tangential"}))
def test_reference_elements_are_read_only(tetra, torus3, kind):
    """Every space of one kind and degree, on any mesh, shares one reference
    element, so none may write it: each array refuses a write, each
    sequence is a tuple, and the mass matrix keeps the bits it has with a
    freshly built, writeable reference."""
    for degree in _KINDS[kind].degrees:
        space = build_space(tetra, kind, degree)
        assert space.ref is build_space(torus3, kind, degree).ref
        before = assemble_mass(space)
        for name, value in vars(space.ref).items():
            if isinstance(value, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    value[...] = 0
            else:
                assert isinstance(value, (int, tuple)), (degree, name)
        fresh = assemble_mass(replace(space, ref=_KINDS[kind].ref(degree)))
        for M in (assemble_mass(space), fresh):
            assert (M != before).nnz == 0
            assert M.data.tobytes() == before.data.tobytes()


def test_piola_scaling():
    # reference triangle scaled by 2 in-plane: J = 4, constant fields map to
    # (1/2) of their aligned reference values
    verts = 2.0 * np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float)
    mesh = SurfaceMesh(verts, np.array([[0, 1, 2]]))
    assert mesh.Jdet[0] == pytest.approx(4.0)
    space = build_space(mesh, "dg_vector", 1)  # local basis: monomials times (1, 0), (0, 1)
    out = FeField(space, np.eye(space.total_dofs)[0]).eval_cells([0], [[1 / 3] * 3])
    assert np.allclose(out, [[[0.5, 0.0, 0.0]]])
    # the reference field (x, y) = local functions 2 and 5 has divergence 2
    bv = eval_basis(space, 0, np.random.default_rng(4).dirichlet([1, 1, 1], size=5))
    assert np.allclose(bv.divergences[2] + bv.divergences[5], 0.5)


def test_piola_div_identity(torus):
    """div of the mapped field equals J^-1 times the reference divergence."""
    space = build_space(torus, "bdm", 2)
    t = 3
    pts = np.random.default_rng(2).dirichlet([1, 1, 1], size=8)
    bv = eval_basis(space, t, pts)
    ref_div = space.ref.div(pts[:, 1:])
    assert np.allclose(bv.divergences, ref_div / torus.Jdet[t], atol=1e-12)
    # the ambient-gradient trace reproduces the divergence
    tr = np.einsum("lqii->lq", bv.gradients)
    assert np.allclose(tr, bv.divergences, atol=1e-10)


def test_eval_basis_errors(tetra):
    space = build_space(tetra, "lagrange", 1)
    with pytest.raises(IndexOutOfRange):
        eval_basis(space, 99, np.array([[1.0, 0.0, 0.0]]))
    facet = build_space(tetra, "facet_tangential", 1)
    with pytest.raises(UnsupportedCombination):
        eval_basis(facet, 0, np.array([[1.0, 0.0, 0.0]]))


def test_fefield_validation(tetra):
    space = build_space(tetra, "lagrange", 1)
    with pytest.raises(ValueError):
        FeField(space, np.zeros(3))

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfhodge import meshes
from surfhodge.errors import (
    DegenerateTriangle,
    NonManifold,
    NonOrientable,
    NonTriangle,
    ParseError,
)
from surfhodge.mesh import (
    SurfaceMesh,
    analyze_topology,
    edge_frames,
    load_mesh,
    save_obj,
    save_off,
)

TETRA_OFF = """OFF
4 4 0
1 1 1
1 -1 -1
-1 1 -1
-1 -1 1
3 0 1 2
3 0 3 1
3 0 2 3
3 1 3 2
"""

TRIANGLE_OFF = """OFF
3 1 0
0 0 0
1 0 0
0 1 0
3 0 1 2
"""


# ------------------------------------------------------------------ loading
def test_load_off_tetrahedron(tmp_path):
    path = tmp_path / "tetra.off"
    path.write_text(TETRA_OFF)
    mesh = load_mesh(path)
    assert mesh.n_vertices == 4
    assert mesh.n_edges == 6
    assert mesh.n_triangles == 4
    assert mesh.is_closed


def test_load_off_single_triangle(tmp_path):
    path = tmp_path / "tri.off"
    path.write_text(TRIANGLE_OFF)
    mesh = load_mesh(path)
    assert int(mesh.boundary_edge_mask.sum()) == 3
    assert len(mesh.boundary_loops) == 1


def test_load_obj_structured_torus(tmp_path):
    # 3x3 structured torus: counts enumerated by identifying the grid
    # entities (9 vertices, 9 horizontal + 9 vertical + 9 diagonal edges).
    torus = meshes.torus_structured(3, 3)
    path = tmp_path / "torus.obj"
    save_obj(torus, path)
    mesh = load_mesh(path)
    assert (mesh.n_vertices, mesh.n_edges, mesh.n_triangles) == (9, 27, 18)
    assert mesh.is_closed


def test_off_obj_round_trip(tmp_path, corpus):
    """Every corpus mesh written by save_off (the format the CLI reads in
    the flow runs) or save_obj reads back as the same bytes."""
    for name, mesh in corpus.items():
        for ext, save in (("off", save_off), ("obj", save_obj)):
            path = tmp_path / f"{name}.{ext}"
            save(mesh, path)
            back = load_mesh(path)
            for got, want in ((back.vertices, mesh.vertices), (back.triangles, mesh.triangles)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, ext)


def test_save_matches_per_line_format(tmp_path):
    """save_off and save_obj write each block with one % operation; the
    bytes are those of one formatted write per vertex and face, here on a
    mesh with negative coordinates that need all 17 digits."""
    mesh = meshes.torus_structured(5, 3)
    verts = mesh.vertices * -np.pi + 1 / 3
    tris = mesh.triangles
    assert (verts < 0).any() and any(float(f"{x:.16g}") != x for x in verts.ravel())
    off = "OFF\n" + f"{len(verts)} {len(tris)} 0\n" + "".join(
        f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n" for v in verts) + "".join(
        f"3 {t[0]} {t[1]} {t[2]}\n" for t in tris)
    obj = "".join(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n" for v in verts) + "".join(
        f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n" for t in tris)
    for save, want in ((save_off, off), (save_obj, obj)):
        path = tmp_path / "mesh.txt"
        save((verts, tris), path)
        assert path.read_text() == want


def test_obj_ignores_other_records(tmp_path):
    path = tmp_path / "t.obj"
    path.write_text(
        "vn 0 0 1\nv 0 0 0\nv 1 0 0\nv 0 1 0\nusemtl foo\nf 1//1 2//1 3//1\n")
    mesh = load_mesh(path)
    assert mesh.n_triangles == 1


def test_off_header_counts_comments_and_colours(tmp_path):
    """Counts on the header line, comment lines, trailing comments, blank
    lines and colour columns after the coordinates and the indices."""
    path = tmp_path / "quad.off"
    path.write_text("# two triangles\nOFF 4 2 0  # counts here\n\n"
                    "0 0 0 0.5 0.5 0.5\n1 1e-3 0\n1.5 1 0.1 # a comment\n-2.5E-1 1 0\n"
                    "3 0 1 2 255 0 0\n\n3 0 2 3 0 255 0 # another\n")
    mesh = load_mesh(path)
    want_v = np.array([[0.0, 0.0, 0.0], [1.0, 1e-3, 0.0], [1.5, 1.0, 0.1], [-0.25, 1.0, 0.0]])
    assert mesh.vertices.dtype == np.float64 and mesh.vertices.tobytes() == want_v.tobytes()
    assert mesh.triangles.dtype == np.int64
    assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]


def test_obj_slash_forms_and_negative_indices(tmp_path):
    """a//n, a/t/n and a/t references; a negative index counts back from
    the vertices defined before its face (the trailing vertex is unused
    and dropped)."""
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nvn 0 0 1\nv 1 1 0\nvt 0 0\nf 1//1 2//1 -1//1\n"
                    "v 0 1 0\nf -4/1/1 -2/1 -1\nv 5 5 5\n")
    mesh = load_mesh(path)
    want_v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    assert mesh.vertices.tobytes() == want_v.tobytes()
    assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.off"
    bad.write_text("NOT_OFF\n3 1 0\n")
    with pytest.raises(ParseError):
        load_mesh(bad)
    quad = tmp_path / "quad.off"
    quad.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(NonTriangle):
        load_mesh(quad)
    with pytest.raises(ParseError):
        load_mesh(tmp_path / "missing.xyz")
    # one 2-coordinate vertex among 3-coordinate ones: not a numpy error
    short = tmp_path / "short.obj"
    short.write_text("v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(ParseError, match="fewer than 3"):
        load_mesh(short)
    with pytest.raises(ParseError):
        SurfaceMesh(np.zeros((3, 2)), [[0, 1, 2]])
    with pytest.raises(NonTriangle):
        SurfaceMesh(np.eye(4, 3), [[0, 1, 2, 3]])



@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected(value):
    """Every vertex must be finite, an unreferenced one included."""
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [value, 1.0, 0.0]])
    for tris in ([[0, 1, 3]], [[0, 1, 2]]):
        with pytest.raises(ParseError, match="finite"):
            SurfaceMesh(verts, tris)

def test_nonmanifold_rejected():
    # three triangles sharing one edge
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]], float)
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(NonManifold):
        SurfaceMesh(verts, tris)


def test_nonorientable_rejected():
    # combinatorial Moebius band: strip of quads glued with a flip
    n = 6
    verts = np.array([[i, j, 0.1 * i * j] for i in range(n) for j in (0, 1)], float)
    tris = []
    for i in range(n):
        a, b = 2 * i, 2 * i + 1
        if i < n - 1:
            c, d = 2 * i + 2, 2 * i + 3
        else:
            c, d = 1, 0  # glue with a flip
        tris.append([a, b, c])
        tris.append([b, d, c])
    with pytest.raises(NonOrientable):
        SurfaceMesh(verts, np.array(tris))


def test_pinched_tetrahedra_rejected():
    # two closed tetrahedra sharing vertex 0: every edge has two triangles,
    # so only the vertex umbrella check can reject it
    tet = meshes.tetrahedron()
    verts = np.vstack([tet.vertices, -tet.vertices[1:] + 2 * tet.vertices[0]])
    other = np.where(tet.triangles == 0, 0, tet.triangles + 3)
    with pytest.raises(NonManifold, match="vertex 0"):
        SurfaceMesh(verts, np.vstack([tet.triangles, other]))


def test_bowtie_rejected():
    # two triangles sharing only vertex 0, which ends four boundary edges:
    # the umbrella check rejects it before the boundary loops are built
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [-1, 0, 0], [-1, -1, 0]], float)
    with pytest.raises(NonManifold, match="vertex 0"):
        SurfaceMesh(verts, np.array([[0, 1, 2], [0, 3, 4]]))


def test_degenerate_triangle_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]], float)
    tris = np.array([[0, 1, 2], [0, 1, 3]])
    with pytest.raises(DegenerateTriangle):
        SurfaceMesh(verts, tris)


def test_topological_defect_reported_before_degenerate_triangle():
    """The area test runs in the geometry pass, after the edge, orientation
    and umbrella checks: three triangles on one edge, one of them of zero
    area, are rejected as non-manifold."""
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [2, 0, 0]], float)
    with pytest.raises(NonManifold):
        SurfaceMesh(verts, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]))


@pytest.mark.parametrize("build", [
    lambda: meshes.torus_structured(8, 8),
    lambda: meshes.trefoil_tube(),
    lambda: meshes.sphere_with_holes(3, 4),
], ids=["torus", "trefoil", "pierced_sphere"])
def test_geometry_exact_under_power_of_2_scaling(build):
    """J is formed without squaring the s^2-sized cross product, so a mesh
    scaled by 2^j, j = +-300, builds with no warning (pytest turns one into
    an error), J scales exactly by 2^2j, and the unit normals and conormals
    keep their bits."""
    mesh = build()
    for j in (-300, -265, 260, 300):
        scaled = SurfaceMesh(np.ldexp(mesh.vertices, j), mesh.triangles)
        np.testing.assert_array_equal(scaled.Jdet, np.ldexp(mesh.Jdet, 2 * j))
        for name in ("tri_normals", "conormals"):
            assert getattr(scaled, name).tobytes() == getattr(mesh, name).tobytes(), (j, name)


@pytest.mark.parametrize("build", [
    lambda: meshes.sphere_with_holes(2, 13),
    lambda: meshes.sphere_with_holes(1, 4),
    lambda: meshes.genus_g_torus_chain(0),
], ids=["thirteen_holes", "one_subdivision", "genus_zero"])
def test_generators_reject_bad_arguments(build):
    with pytest.raises(ValueError):
        build()


def test_orientation_repair(torus):
    tris = torus.triangles.copy()
    rng = np.random.default_rng(7)
    flip = rng.random(len(tris)) < 0.5
    tris[flip] = tris[flip][:, ::-1]
    repaired = SurfaceMesh(torus.vertices, tris)
    assert repaired.orientation_repaired
    topo = analyze_topology(repaired)
    assert (topo.b0, topo.b1, topo.b2) == (1, 2, 1)


def test_unreferenced_vertices_dropped():
    verts = np.array([[0, 0, 0], [5, 5, 5], [1, 0, 0], [0, 1, 0]], float)
    mesh = SurfaceMesh(verts, np.array([[0, 2, 3]]))
    assert mesh.n_vertices == 3


# ----------------------------------------------------------------- topology
def test_topology_tetrahedron(tetra):
    topo = analyze_topology(tetra)
    assert topo.euler_characteristic == 2
    assert (topo.b0, topo.b1, topo.b2) == (1, 0, 1)
    assert topo.n_boundary_edges == topo.n_boundary_vertices == 0


def test_topology_torus3(torus3):
    topo = analyze_topology(torus3)
    assert topo.euler_characteristic == 9 - 27 + 18 == 0
    assert topo.b1 == 2


def test_topology_sphere_with_holes(sphere4):
    topo = analyze_topology(sphere4)
    assert topo.b1 == 3  # four boundary loops on a genus-0 surface
    assert len(sphere4.boundary_loops) == 4
    assert topo.n_boundary_edges == topo.n_boundary_vertices


@pytest.mark.parametrize("genus", [0, 1, 2])
def test_betti_closed_genus(genus):
    if genus == 0:
        mesh = meshes.icosphere(1)
    elif genus == 1:
        mesh = meshes.torus_structured(6, 6)
    else:
        mesh = meshes.genus2_block()
    topo = analyze_topology(mesh)
    assert topo.b1 == 2 * genus
    assert topo.euler_characteristic == 2 - 2 * genus


def test_genus_chain():
    for g in (1, 2, 3):
        topo = analyze_topology(meshes.genus_g_torus_chain(g))
        assert topo.b1 == 2 * g


def test_disconnected_components():
    t1 = meshes.tetrahedron()
    verts = np.vstack([t1.vertices, t1.vertices + 10.0])
    tris = np.vstack([t1.triangles, t1.triangles + 4])
    mesh = SurfaceMesh(verts, tris)
    topo = analyze_topology(mesh)
    assert topo.n_components == 2
    assert (topo.b0, topo.b1, topo.b2) == (2, 0, 2)
    assert topo.component_betti == ((1, 0, 1), (1, 0, 1))


@pytest.mark.parametrize("seed", range(8))
def test_components_numbered_by_lowest_triangle(seed):
    parts = [meshes.tetrahedron(), meshes.torus_structured(3, 3), meshes.flat_patch(2)]
    offsets = np.cumsum([0] + [p.n_vertices for p in parts])
    verts = np.vstack([p.vertices + 10.0 * i for i, p in enumerate(parts)])
    tris = np.vstack([p.triangles + off for p, off in zip(parts, offsets)])
    part_of = np.repeat(np.arange(3), [p.n_triangles for p in parts])
    perm = np.random.default_rng(seed).permutation(len(tris))
    mesh = SurfaceMesh(verts, tris[perm])
    order = np.argsort([np.flatnonzero(part_of[perm] == i)[0] for i in range(3)])
    assert np.array_equal(mesh.tri_component, np.argsort(order)[part_of[perm]])
    betti = [(1, 0, 1), (1, 2, 1), (1, 0, 0)]
    assert analyze_topology(mesh).component_betti == tuple(betti[i] for i in order)


def test_large_mesh_builds_in_linear_time():
    torus = meshes.torus_structured(96, 48)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        SurfaceMesh(torus.vertices, torus.triangles)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.5, times


def _component_betti_by_loop(mesh):
    """Per-component (b0, b1, b2), one component at a time (the reference
    for the single pass of analyze_topology)."""
    out = []
    for c in range(mesh.n_components):
        tmask = mesh.tri_component == c
        emask = mesh.tri_component[mesh.edge_tris[:, 0]] == c
        chi = len(np.unique(mesh.triangles[tmask])) - int(emask.sum()) + int(tmask.sum())
        b2 = 0 if (emask & mesh.boundary_edge_mask).any() else 1
        out.append((1, 1 + b2 - chi, b2))
    return tuple(out)


def test_component_betti_matches_per_component_count(corpus):
    parts = list(corpus.values())
    offsets = np.cumsum([0] + [p.n_vertices for p in parts])
    union = SurfaceMesh(np.vstack([p.vertices + 10.0 * i for i, p in enumerate(parts)]),
                        np.vstack([p.triangles + off for p, off in zip(parts, offsets)]))
    for mesh in parts + [union]:
        assert analyze_topology(mesh).component_betti == _component_betti_by_loop(mesh)


def test_topology_of_many_components_in_linear_time():
    n = 8000  # disjoint triangles, one component each
    verts = np.tile([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], (n, 1))
    verts[:, 2] = np.repeat(np.arange(n), 3)
    mesh = SurfaceMesh(verts, np.arange(3 * n).reshape(n, 3))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        topo = analyze_topology(mesh)
        times.append(time.perf_counter() - t0)
    assert topo.component_betti == ((1, 0, 0),) * n
    assert min(times) < 0.05, times


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10_000))
def test_topology_invariant_under_vertex_permutation(seed):
    base = meshes.torus_structured(4, 4)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(base.n_vertices)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    mesh = SurfaceMesh(base.vertices[perm], inv[base.triangles])
    t0, t1 = analyze_topology(base), analyze_topology(mesh)
    assert t0.to_dict() == t1.to_dict()


def test_boundary_loops_partition(corpus):
    """The loops partition the boundary edges; every vertex of a loop ends
    two of its edges, each loop lists its edges in ascending order, and the
    loops go by their lowest edge."""
    for mesh in corpus.values():
        loops = mesh.boundary_loops
        loop_edges = [e for loop in loops for e in loop]
        assert len(loop_edges) == len(set(loop_edges))
        assert len(loop_edges) == int(mesh.boundary_edge_mask.sum())
        assert [loop[0] for loop in loops] == sorted(loop[0] for loop in loops)
        for loop in loops:
            assert loop == sorted(loop)
            counts = np.bincount(mesh.edges[loop].ravel())
            assert set(counts[counts > 0].tolist()) == {2}


def test_boundary_loops_of_a_perforated_patch():
    """Hundreds of loops keep the order contract: a 60 x 60 patch with the
    first triangle of each 3 x 3 block's middle quad removed, so that no
    two holes share a vertex, has one 3-edge loop per hole plus its rim."""
    n = 60
    base = meshes.flat_patch(n)
    mid = np.arange(1, n, 3)
    holes = 2 * (mid[:, None] * n + mid[None, :]).ravel()
    mesh = SurfaceMesh(base.vertices, np.delete(base.triangles, holes, axis=0))
    loops = mesh.boundary_loops
    assert len(loops) == len(holes) + 1
    assert sorted(len(loop) for loop in loops) == [3] * len(holes) + [4 * n]
    assert all(loop == sorted(loop) for loop in loops)
    firsts = [loop[0] for loop in loops]
    assert firsts == sorted(firsts)
    loop_edges = sorted(e for loop in loops for e in loop)
    assert loop_edges == np.flatnonzero(mesh.boundary_edge_mask).tolist()
    assert meshes.tetrahedron().boundary_loops == []


# ------------------------------------------------------------------- frames
def test_frames_coplanar():
    mesh = meshes.square_two_triangles()
    e = int(np.flatnonzero(~mesh.boundary_edge_mask)[0])
    tau, nu1, nu2 = edge_frames(mesh, e)
    assert np.allclose(nu1, -nu2, atol=1e-14)
    assert abs(np.dot(nu1, tau)) < 1e-14


def test_frames_folded_90():
    """Two triangles sharing the edge x = 0..1, folded by 90 degrees."""
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0]])
    mesh = SurfaceMesh(verts, np.array([[0, 1, 2], [1, 0, 3]]))
    e = int(np.flatnonzero(~mesh.boundary_edge_mask)[0])
    _, nu1, nu2 = edge_frames(mesh, e)
    assert abs(np.dot(nu1, nu2)) < 1e-12


def test_frames_boundary_outward():
    mesh = meshes.single_triangle()
    for e in range(mesh.n_edges):
        tau, nu1, nu2 = edge_frames(mesh, e)
        assert nu2 is None
        mid = 0.5 * mesh.vertices[mesh.edges[e]].sum(axis=0)
        centroid = mesh.vertices.mean(axis=0)
        assert np.dot(nu1, centroid - mid) < 0


def test_frame_invariants(corpus):
    for mesh in corpus.values():
        assert np.allclose(np.linalg.norm(mesh.tri_normals, axis=1), 1.0)
        assert np.allclose(np.linalg.norm(mesh.edge_tangents, axis=1), 1.0)
        for e in range(mesh.n_edges):
            tau, nu1, nu2 = edge_frames(mesh, e)
            t1 = mesh.edge_tris[e, 0]
            assert abs(np.dot(nu1, mesh.tri_normals[t1])) < 1e-12
            assert abs(np.dot(nu1, tau)) < 1e-12
            assert abs(np.linalg.norm(nu1) - 1) < 1e-12
            if nu2 is not None:
                t2 = mesh.edge_tris[e, 1]
                assert abs(np.dot(nu2, mesh.tri_normals[t2])) < 1e-12
                assert abs(np.dot(nu2, tau)) < 1e-12
                # with both conormals outward: nu_bar = (nu1+nu2)/2 measures
                # the fold (0 iff the triangle normals agree), while
                # |nu1 - nu2|/2 = 1 exactly in the coplanar case
                nu_bar = 0.5 * (nu1 + nu2)
                assert np.linalg.norm(nu_bar) <= 1.0 + 1e-12
                n1, n2 = mesh.tri_normals[t1], mesh.tri_normals[t2]
                if np.allclose(n1, n2, atol=1e-12):
                    assert np.linalg.norm(nu_bar) < 1e-12
                    assert abs(np.linalg.norm(0.5 * (nu1 - nu2)) - 1) < 1e-12


def test_edge_frames_index_error(tetra):
    from surfhodge.errors import IndexOutOfRange

    with pytest.raises(IndexOutOfRange):
        edge_frames(tetra, 99)


# sha256 of vertex and triangle bytes (SurfaceMesh.checksum) of the built-in
# generators; a saved harmonic basis is accepted only for its mesh's
# checksum, so a generator that reorders vertices or triangles breaks it.
GENERATOR_CHECKSUMS = {
    "builtin:tetrahedron": "6f74051e9577caf0279bc8c4e3e27b18315374d561aef632fd19756bda47893e",
    "builtin:icosphere": "754cc9b408e4e60b3a4813db5c8694c48c1fe9deacc36080e61976985e9cf5bd",
    "builtin:torus": "f9b4d1b0e7ad17e58d6329d11b48b72a41a9b58445124a6fb32515aa67bf6a66",
    "builtin:genus2": "b97401ef37294f99a254c232ae51e9f684f7a281637b52fd43b2e6a7d3504f6e",
    "builtin:sphere_4holes": "ab1cb0354c458fc5cf3b886c7a236766dac8188171bf4d4f62ff849c4f3074d9",
    "builtin:trefoil": "5bf6332a91475c0bd633e9391e6a562429a144a8500550bcd8de709a96350bf5",
    "builtin:genus2_chain": "8e2628ca8a71dd4fcf6dcfa8aea3a574ffc279a033a79694d57f3402d9d85c0c",
    "builtin:flat_patch": "bbdb8dba22eef42367b1ee3eacb880d5251ca4bb74fc398d79c19f5954d3bb5e",
    "builtin:square": "e4dbb4808c542239291069ed202b381ad569987b907995593d928d869712163d",
    "torus_structured(32, 16)": "a74a480b41889f423516052d6ea6f7f0bd9ce4c603b3e7dc2c04bf25260276aa",
    "torus_structured(8, 6)": "af71e7441e3eeb69894276fe109e4f047643f72f535acca7008c35d097cd71d4",
    "trefoil_tube(12, 6)": "35525d57c1afa7fa3e92a824b2816336935291698fbc48b2e76e60b588cdac75",
    "sphere_with_holes(3, 4)": "8bd137b902ddb1618d633861421daebfcc0f98b7bfe4dce4789970208c189a74",
    "flat_patch(1)": "9153838acea99ecb73afaeb6dd512a13dee74eb64faa364cbbfbb791ed292982",
    "flat_patch(32)": "fd28de67ce0ccd9b7bd57d063cc18a57267037146ca7505c7579a2d0d9d6a8ca",
    "genus_g_torus_chain(3)": "5cc8207af64d383842c776e1931cfeaee7dd73fbb64fe62ca402aa7cb6a00094",
    "icosphere(3)": "3f0562ff80fd084abc445ec346b5ff882ef00e3810e40aff93bd66fc6fef5280",
}


def test_generator_checksums_are_pinned():
    assert {f"builtin:{name}" for name in meshes.BUILTIN} <= set(GENERATOR_CHECKSUMS)
    for spec, expected in GENERATOR_CHECKSUMS.items():
        if spec.startswith("builtin:"):
            mesh = meshes.resolve(spec)
        else:
            name, args = spec.rstrip(")").split("(")
            mesh = getattr(meshes, name)(*(int(a) for a in args.split(",")))
        assert mesh.checksum() == expected, spec

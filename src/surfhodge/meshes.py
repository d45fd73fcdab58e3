"""Built-in mesh generators for tests, demos and the verification corpus.

All generators return validated SurfaceMesh instances.  Topology is what
matters here (the solvers are exercised at desk scale), so resolutions are
deliberately coarse by default.
"""

from __future__ import annotations

import numpy as np

from .errors import MeshInputError
from .mesh import SurfaceMesh, load_mesh


def tetrahedron() -> SurfaceMesh:
    """Boundary of a regular tetrahedron (sphere topology)."""
    verts = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    tris = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return SurfaceMesh(verts, tris)


def single_triangle() -> SurfaceMesh:
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return SurfaceMesh(verts, np.array([[0, 1, 2]]))


def square_two_triangles() -> SurfaceMesh:
    """Unit square split along the diagonal (flat patch, disk topology)."""
    verts = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    )
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return SurfaceMesh(verts, tris)


def flat_patch(n: int = 4) -> SurfaceMesh:
    """Structured n x n triangulation of the unit square (simply connected)."""
    xs = np.linspace(0.0, 1.0, n + 1)
    x, y = np.meshgrid(xs, xs)
    verts = np.stack([x.ravel(), y.ravel(), np.zeros(x.size)], axis=1)
    grid = np.arange(x.size).reshape(n + 1, n + 1)
    tris = _split_quads(grid[:-1, :-1], grid[:-1, 1:], grid[1:, 1:], grid[1:, :-1])
    return SurfaceMesh(verts, tris)


def _split_quads(p00, p10, p11, p01):
    """Triangles (p00, p10, p11) and (p00, p11, p01) of each quad, quads in
    the C order of the corner-index arrays."""
    quads = np.stack([np.ravel(p) for p in (p00, p10, p11, p01)], axis=1)
    return quads[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)


def _periodic_grid(n_i: int, n_j: int):
    """Triangles of an n_i x n_j vertex grid with vertex i * n_j + j,
    periodic in both directions (a torus grid)."""
    p00 = np.arange(n_i * n_j).reshape(n_i, n_j)
    p10 = np.roll(p00, -1, axis=0)
    return _split_quads(p00, p10, np.roll(p10, -1, axis=1), np.roll(p00, -1, axis=1))


def icosphere(subdivisions: int = 1) -> SurfaceMesh:
    """Subdivided icosahedron projected to the unit sphere (b1 = 0)."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    tris = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ]
    )
    for _ in range(subdivisions):
        verts, tris = _subdivide(verts, tris)
    verts = verts / np.linalg.norm(verts, axis=1)[:, None]
    return SurfaceMesh(verts, tris)


def _subdivide(verts, tris):
    """Split each triangle into four at its edge midpoints.  The midpoints
    follow the vertices, numbered by the first appearance of their edge in
    the triangles' (ab, bc, ca) order."""
    ends = tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)  # ab, bc, ca of each triangle
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    _, first, inverse = np.unique(lo * len(verts) + hi, return_index=True,
                                  return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    ab, bc, ca = (len(verts) + rank[inverse]).reshape(-1, 3).T
    a, b, c = tris.T
    out = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    new = np.sort(first)
    return np.concatenate([verts, 0.5 * (verts[lo[new]] + verts[hi[new]])]), out


def torus_structured(
    n_major: int = 8, n_minor: int = 8, major_radius: float = 2.0, minor_radius: float = 1.0
) -> SurfaceMesh:
    """Structured torus grid with n_major x n_minor vertices (b1 = 2)."""
    u = 2.0 * np.pi * np.arange(n_major) / n_major
    v = 2.0 * np.pi * np.arange(n_minor) / n_minor
    w = major_radius + minor_radius * np.cos(v)
    verts = np.stack(np.broadcast_arrays(
        w * np.cos(u)[:, None], w * np.sin(u)[:, None], minor_radius * np.sin(v)), axis=-1)
    return SurfaceMesh(verts.reshape(-1, 3), _periodic_grid(n_major, n_minor))


def genus2_block() -> SurfaceMesh:
    """Closed genus-2 surface: boundary of a 7x3x1 voxel block with two
    through-holes (b1 = 4)."""
    solid = {(x, y, 0) for x in range(7) for y in range(3)}
    solid -= {(1, 1, 0), (5, 1, 0)}
    return voxel_surface(solid)


def voxel_surface(solid: set[tuple[int, int, int]]) -> SurfaceMesh:
    """Triangulated boundary of a union of unit voxels, oriented outward."""
    verts: dict[tuple[int, int, int], int] = {}
    quads: list[list[int]] = []

    def vid(p):
        if p not in verts:
            verts[p] = len(verts)
        return verts[p]

    # For each axis direction, emit a quad wherever solid meets empty.
    offsets = {
        (1, 0, 0): [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)],
        (-1, 0, 0): [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)],
        (0, 1, 0): [(0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)],
        (0, -1, 0): [(0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)],
        (0, 0, 1): [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)],
        (0, 0, -1): [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)],
    }
    for cell in sorted(solid):
        for normal, corners in offsets.items():
            nbr = (cell[0] + normal[0], cell[1] + normal[1], cell[2] + normal[2])
            if nbr in solid:
                continue
            quads.append(
                [vid((cell[0] + c[0], cell[1] + c[1], cell[2] + c[2])) for c in corners])
    # vid numbers the corners in insertion order
    return SurfaceMesh(np.array(list(verts), dtype=float), _split_quads(*np.array(quads).T))


def sphere_with_holes(subdivisions: int = 2, n_holes: int = 4) -> SurfaceMesh:
    """Icosphere with n_holes disjoint vertex stars removed.

    Each removed star opens one disk-shaped hole, so the result has genus 0
    with n_holes boundary loops and b1 = n_holes - 1.
    """
    if not 1 <= n_holes <= 12:
        raise ValueError("n_holes must be between 1 and 12")
    if subdivisions < 2:
        raise ValueError("need subdivisions >= 2 for disjoint vertex stars")
    base = icosphere(subdivisions)
    # Original icosahedron vertices keep indices 0..11 through subdivision;
    # at subdivision >= 2 their stars are pairwise disjoint.
    centers = list(range(n_holes))
    keep = ~np.isin(base.triangles, centers).any(axis=1)
    return SurfaceMesh(base.vertices, base.triangles[keep])


def trefoil_tube(n_along: int = 24, n_around: int = 8, radius: float = 0.35) -> SurfaceMesh:
    """Coarse tube around a trefoil knot centreline (genus 1, b1 = 2).

    A normal is parallel-transported once around the centreline; the
    transported frames are rotated back by a uniform share of the closure
    angle defect, so the tube closes like a torus grid.
    """
    ts = 2.0 * np.pi * np.arange(n_along) / n_along

    def curve(t):
        return np.array(
            [
                (2.0 + np.cos(3.0 * t)) * np.cos(2.0 * t),
                (2.0 + np.cos(3.0 * t)) * np.sin(2.0 * t),
                np.sin(3.0 * t),
            ]
        ).T

    c = curve(ts)
    tang = curve(ts + 1e-5) - curve(ts - 1e-5)
    tang /= np.linalg.norm(tang, axis=1)[:, None]

    def transport(n_prev, t_next):
        n = n_prev - np.dot(n_prev, t_next) * t_next
        return n / np.linalg.norm(n)

    frames = np.zeros((n_along, 3))
    frames[0] = transport(np.array([0.0, 0.0, 1.0]), tang[0])
    for i in range(1, n_along):
        frames[i] = transport(frames[i - 1], tang[i])
    n_back = transport(frames[-1], tang[0])
    b0 = np.cross(tang[0], frames[0])
    defect = np.arctan2(np.dot(n_back, b0), np.dot(n_back, frames[0]))
    theta = (-defect * np.arange(n_along) / n_along)[:, None]
    normals = np.cos(theta) * frames + np.sin(theta) * np.cross(tang, frames)

    th = (2.0 * np.pi * np.arange(n_around) / n_around)[None, :, None]
    b = np.cross(tang, normals)[:, None]
    verts = c[:, None] + radius * (np.cos(th) * normals[:, None] + np.sin(th) * b)
    return SurfaceMesh(verts.reshape(-1, 3), _periodic_grid(n_along, n_around))


def genus_g_torus_chain(genus: int):
    """Closed orientable surface of arbitrary genus, built as a voxel frame.

    genus 1 gives a square annulus frame, higher genus chains g holes in a
    row.  Used by property tests that sweep b1 = 2g.
    """
    if genus < 1:
        raise ValueError("genus must be >= 1")
    # holes at x = 2, 6, 10, ... leave one-voxel walls between them
    width = 4 * genus + 1
    solid = {(x, y, 0) for x in range(width) for y in range(3)}
    for g in range(genus):
        solid.discard((4 * g + 2, 1, 0))
    return voxel_surface(solid)


CORPUS_BUILDERS = {
    "tetrahedron": tetrahedron,
    "icosphere": lambda: icosphere(1),
    "torus": lambda: torus_structured(8, 8),
    "genus2": genus2_block,
    "sphere_4holes": lambda: sphere_with_holes(2, 4),
    "trefoil": lambda: trefoil_tube(24, 8),
}


def corpus() -> dict[str, SurfaceMesh]:
    """The standard verification corpus keyed by mesh name."""
    return {name: build() for name, build in CORPUS_BUILDERS.items()}


# the meshes a `builtin:<name>` spec can name
BUILTIN = {
    **CORPUS_BUILDERS,
    "genus2_chain": lambda: genus_g_torus_chain(2),
    "flat_patch": lambda: flat_patch(4),
    "square": square_two_triangles,
}


def resolve(spec: str) -> SurfaceMesh:
    """The mesh of a spec: `builtin:<name>` with a name of BUILTIN, or an
    OFF/OBJ path read by load_mesh."""
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        if name not in BUILTIN:
            raise MeshInputError(
                f"unknown builtin mesh {name!r}; available: {sorted(BUILTIN)}")
        return BUILTIN[name]()
    return load_mesh(spec)

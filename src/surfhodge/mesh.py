"""Oriented manifold triangle meshes embedded in R^3.

A SurfaceMesh owns all combinatorial and geometric data needed by the
finite element layers: edge adjacency, globally consistent orientation,
per-triangle frames for the Piola map, and edge tangents and per-triangle
edge conormals for inter-element (DG) terms.

Topology is array code: one half-edge table pairs the 3T local edges
(tri[le], tri[le+1]) by their sorted vertex pairs (np.unique), and
scipy.sparse.csgraph labels the connected components of three graphs:

* orientation: the double cover of the dual graph (node t keeps triangle
  t, node T + t flips it); the mesh is non-orientable iff some triangle's
  two nodes are connected, and the lowest triangle of each component
  keeps its winding;
* vertex umbrellas: triangle corners joined across interior edges; each
  vertex is manifold iff its corners form one group;
* connected components: the dual graph, numbered by lowest triangle.

Edge conventions
----------------
* Edges are stored as vertex pairs (lo, hi) with lo < hi; the unit tangent
  tau points from lo to hi (deterministic, independent of visit order).
* For an interior edge, edge_tris[e, 0] is the adjacent triangle that
  traverses the edge against tau and edge_tris[e, 1] the one along tau.
  With this labelling nu1 = n|_T1 x tau and nu2 = -n|_T2 x tau are both
  outward-pointing in-plane conormals (edge_frames returns them).
* For a boundary edge, edge_tris[e, 0] is the only adjacent triangle and
  nu1 is its outward conormal regardless of traversal direction.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import (
    DegenerateTriangle,
    IndexOutOfRange,
    NonManifold,
    NonOrientable,
    NonTriangle,
    ParseError,
)

_DEGENERACY_REL_TOL = 1e-12  # area threshold relative to (bbox diagonal)^2


@dataclass
class TopologySummary:
    """Entity counts, Euler characteristic and Betti numbers of a mesh.

    For disconnected meshes the Betti numbers are summed over components and
    component_betti lists the per-component (b0, b1, b2) triples.
    """

    n_vertices: int
    n_edges: int
    n_triangles: int
    n_interior_edges: int
    n_boundary_edges: int
    n_interior_vertices: int
    n_boundary_vertices: int
    euler_characteristic: int
    n_components: int
    b0: int
    b1: int
    b2: int
    closed: bool
    component_betti: tuple

    @classmethod
    def closed_surface(cls, n_triangles: int, genus: int) -> "TopologySummary":
        """Synthetic summary of a closed connected surface of given genus.

        Only the combinatorics implied by closedness are filled in
        (3T = 2E, chi = V - E + T = 2 - 2g); no mesh is required.
        """
        if n_triangles % 2:
            raise ValueError("a closed surface has an even number of triangles")
        n_edges = 3 * n_triangles // 2
        chi = 2 - 2 * genus
        n_vertices = chi + n_edges - n_triangles
        b1 = 2 * genus
        return cls(
            n_vertices=n_vertices,
            n_edges=n_edges,
            n_triangles=n_triangles,
            n_interior_edges=n_edges,
            n_boundary_edges=0,
            n_interior_vertices=n_vertices,
            n_boundary_vertices=0,
            euler_characteristic=chi,
            n_components=1,
            b0=1,
            b1=b1,
            b2=1,
            closed=True,
            component_betti=((1, b1, 1),),
        )

    def to_dict(self) -> dict:
        """The fields as a JSON-ready dict (component_betti as lists)."""
        return {**asdict(self), "component_betti": [list(c) for c in self.component_betti]}


class SurfaceMesh:
    """Oriented manifold-with-boundary triangle mesh embedded in R^3.

    The constructor validates the input (triangle-only, manifold edges,
    manifold vertex umbrellas, non-degenerate triangles), repairs
    inconsistent triangle windings when the mesh is orientable, and derives
    all edge-level structures.  Instances are immutable after construction
    and safe to share across threads.
    """

    def __init__(self, vertices, triangles):
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ParseError("vertices must be an (n, 3) array")
        if triangles.size == 0:
            raise ParseError("mesh contains no triangles")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise NonTriangle("faces must have exactly 3 vertices")
        if triangles.min() < 0 or triangles.max() >= len(vertices):
            raise ParseError("triangle vertex index out of range")
        s = np.sort(triangles, axis=1)
        if (s[:, 1:] == s[:, :-1]).any():
            raise DegenerateTriangle("triangle with repeated vertex")

        # Drop unreferenced vertices (common in OBJ exports) and reindex.
        used = np.zeros(len(vertices), dtype=bool)
        used[triangles.ravel()] = True
        if not used.all():
            remap = -np.ones(len(vertices), dtype=np.int64)
            remap[used] = np.arange(used.sum())
            vertices = vertices[used]
            triangles = remap[triangles]

        self.vertices = vertices
        self.triangles = triangles
        self._check_degenerate()
        self._build_edges()
        self._check_umbrellas()
        self._build_boundary_loops()
        self._build_geometry()
        self._build_components()
        self.vertices.setflags(write=False)
        self.triangles.setflags(write=False)

    # ------------------------------------------------------------ validation
    def _check_degenerate(self):
        p = self.vertices[self.triangles]
        cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        areas = 0.5 * np.linalg.norm(cross, axis=1)
        diag = np.linalg.norm(self.vertices.max(0) - self.vertices.min(0))
        tol = _DEGENERACY_REL_TOL * max(diag, 1e-300) ** 2
        if (areas <= tol).any():
            bad = int(np.argmax(areas <= tol))
            raise DegenerateTriangle(f"triangle {bad} has (near-)zero area")

    def _build_edges(self):
        """Pair the half-edges into edges, repair inconsistent windings and
        order the sides of each edge as the module docstring describes."""
        n_v, n_tri = len(self.vertices), len(self.triangles)
        edges, tri_edges, along, halves = _half_edges(self.triangles, n_v)
        # On the double cover, two triangles that traverse their shared
        # edge the same way must disagree (keep one, flip the other).
        h1, h2 = halves[halves[:, 1] >= 0].T
        t1, t2 = h1 // 3, h2 // 3
        cross = np.where(along.ravel()[h1] == along.ravel()[h2], n_tri, 0)
        _, labels = _components(2 * n_tri, np.concatenate([t1, t1 + n_tri]),
                                np.concatenate([t2 + cross, t2 + n_tri - cross]))
        keep, flip = labels[:n_tri], labels[n_tri:]
        if (keep == flip).any():
            raise NonOrientable("mesh admits no consistent orientation")
        # Components are numbered by their lowest node, so the lowest
        # triangle of each dual component keeps its winding.
        flip = keep > flip
        self.orientation_repaired = bool(flip.any())
        if self.orientation_repaired:
            tris = self.triangles.copy()
            tris[flip] = tris[flip][:, ::-1]
            self.triangles = tris
            edges, tri_edges, along, halves = _half_edges(tris, n_v)
        self.edges, self.tri_edges, self.tri_edge_along = edges, tri_edges, along

        # Put the side traversing the edge against its tangent first.
        interior = halves[:, 1] >= 0
        swap = interior & self.tri_edge_along.ravel()[halves[:, 0]]
        self._edge_halves = np.where(swap[:, None], halves[:, ::-1], halves)
        self.edge_tris = self._edge_halves // 3  # -1 // 3 == -1
        self.boundary_edge_mask = ~interior
        self.n_edges = len(self.edges)
        self.n_vertices = n_v
        self.n_triangles = n_tri
        bverts = np.zeros(self.n_vertices, dtype=bool)
        bverts[self.edges[self.boundary_edge_mask].ravel()] = True
        self.boundary_vertex_mask = bverts

    def _check_umbrellas(self):
        """Require the triangles around each vertex to form a single fan."""
        h1, h2 = self._edge_halves[~self.boundary_edge_mask].T
        # The two sides run opposite ways: the start corner of one is the
        # end corner of the other.
        n_groups, labels = _components(3 * self.n_triangles,
                                       np.concatenate([h1, _next_corner(h1)]),
                                       np.concatenate([_next_corner(h2), h2]))
        if n_groups != self.n_vertices:
            group_vertex = np.empty(n_groups, dtype=np.int64)
            group_vertex[labels] = self.triangles.ravel()
            counts = np.bincount(group_vertex, minlength=self.n_vertices)
            raise NonManifold(f"vertex {int(np.argmax(counts > 1))} has a non-manifold umbrella")

    def _build_boundary_loops(self):
        """Group the boundary edges into loops, numbered by their lowest
        edge; each loop lists its edges in ascending order, not in walk
        order, which no caller reads.  _check_umbrellas has left every
        boundary vertex on exactly two boundary edges, whose two ends are
        adjacent once the ends are sorted by vertex."""
        b_edges = np.flatnonzero(self.boundary_edge_mask)
        ends = np.argsort(self.edges[b_edges].ravel(), kind="stable") // 2
        n_loops, labels = _components(len(b_edges), ends[0::2], ends[1::2])
        self.boundary_loops = [b_edges[labels == c].tolist() for c in range(n_loops)]

    # -------------------------------------------------------------- geometry
    def _build_geometry(self):
        P = self.vertices
        tri = self.triangles
        p0, p1, p2 = P[tri[:, 0]], P[tri[:, 1]], P[tri[:, 2]]
        cross = np.cross(p1 - p0, p2 - p0)
        nrm = np.linalg.norm(cross, axis=1)
        self.tri_normals = cross / nrm[:, None]
        self.tri_areas = 0.5 * nrm
        # Affine map x = p0 + F xhat with F = [p1-p0 | p2-p0]  (3x2)
        self.F = np.stack([p1 - p0, p2 - p0], axis=2)
        self.Jdet = nrm  # sqrt(det(F^T F)) for a triangle = |(p1-p0)x(p2-p0)|
        FtF = np.einsum("tia,tib->tab", self.F, self.F)
        self.G = np.einsum("tia,tab->tib", self.F, np.linalg.inv(FtF))  # F (F^T F)^-1

        e = self.edges
        vec = P[e[:, 1]] - P[e[:, 0]]
        self.edge_lengths = np.linalg.norm(vec, axis=1)
        self.edge_tangents = vec / self.edge_lengths[:, None]
        self.h_min = float(self.edge_lengths.min())

        # Outward conormal of triangle t on its local edge le.
        self.conormals = np.zeros((self.n_triangles, 3, 3))
        for le in range(3):
            a = tri[:, le]
            b = tri[:, (le + 1) % 3]
            d = P[b] - P[a]
            d = d / np.linalg.norm(d, axis=1)[:, None]
            nu = np.cross(d, self.tri_normals)  # = -n x d
            self.conormals[:, le, :] = nu

    def _build_components(self):
        t1, t2 = self.edge_tris[~self.boundary_edge_mask].T
        self.n_components, self.tri_component = _components(self.n_triangles, t1, t2)

    # ------------------------------------------------------------------- API
    @property
    def is_closed(self) -> bool:
        return not self.boundary_edge_mask.any()

    def local_edge_of(self, tri: int, edge: int) -> int:
        loc = np.flatnonzero(self.tri_edges[tri] == edge)
        if len(loc) == 0:
            raise IndexOutOfRange(f"edge {edge} not on triangle {tri}")
        return int(loc[0])

    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.vertices).tobytes())
        h.update(np.ascontiguousarray(self.triangles).tobytes())
        return h.hexdigest()


def _half_edges(triangles, n_vertices):
    """Pair the 3T half-edges into edges by their sorted vertex pairs.

    Half-edge 3t + le runs from triangles[t, le] to triangles[t, le + 1].
    Returns edges (E, 2) as sorted (lo, hi) pairs in lexicographic order,
    tri_edges and tri_edge_along (T, 3), and the half-edges of each edge in
    triangle order (E, 2), with -1 for the missing side of a boundary edge.
    """
    a = triangles.ravel()
    b = triangles[:, [1, 2, 0]].ravel()
    keys, edge_of, counts = np.unique(np.minimum(a, b) * n_vertices + np.maximum(a, b),
                                      return_inverse=True, return_counts=True)
    if counts.max() > 2:
        e = int(np.argmax(counts > 2))
        lo, hi = divmod(int(keys[e]), n_vertices)
        raise NonManifold(f"edge {(lo, hi)} adjacent to {counts[e]} triangles")
    order = np.argsort(edge_of, kind="stable")
    first = np.cumsum(counts) - counts
    halves = np.stack([order[first], -np.ones_like(first)], axis=1)
    halves[counts == 2, 1] = order[first[counts == 2] + 1]
    edges = np.stack(np.divmod(keys, n_vertices), axis=1)
    return edges, edge_of.reshape(-1, 3), (a < b).reshape(-1, 3), halves


def _next_corner(h):
    """The corner (or half-edge) following h = 3t + le within triangle t."""
    return h - h % 3 + (h + 1) % 3


def _components(n, i, j):
    """Connected components of the undirected graph on n nodes with edges
    (i, j), numbered in the order of their lowest node."""
    graph = sp.csr_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
    n_comp, labels = csgraph.connected_components(graph, directed=False)
    _, lowest = np.unique(labels, return_index=True)
    rank = np.empty(n_comp, dtype=np.int64)
    rank[np.argsort(lowest)] = np.arange(n_comp)
    return n_comp, rank[labels]


def edge_frames(mesh: SurfaceMesh, edge: int):
    """Return (tau, nu1, nu2) for an edge; nu2 is None on boundary edges.

    tau points from the lower to the higher vertex index; nu1/nu2 are the
    outward in-plane conormals of the first/second adjacent triangle, read
    from mesh.conormals at the edge's two half-edges.
    """
    if not 0 <= edge < mesh.n_edges:
        raise IndexOutOfRange(f"edge index {edge} out of range")
    h1, h2 = mesh._edge_halves[edge]
    nu = mesh.conormals.reshape(-1, 3)
    return mesh.edge_tangents[edge], nu[h1], None if h2 < 0 else nu[h2]


def analyze_topology(mesh: SurfaceMesh) -> TopologySummary:
    """Entity counts, Euler characteristic and Betti numbers.

    Betti numbers are computed per connected component from the
    Euler-Poincare formula (b0 = 1, b2 = 1 for closed components, 0
    otherwise, b1 = b0 + b2 - chi) and summed.
    """
    n_c = mesh.n_components
    tri_c = mesh.tri_component.astype(np.int64)
    edge_c = tri_c[mesh.edge_tris[:, 0]]
    # each vertex's triangles form one fan, hence lie in one component;
    # vertices of no triangle belong to none
    vert_c = np.full(mesh.n_vertices, -1, dtype=np.int64)
    vert_c[mesh.triangles] = tri_c[:, None]
    chi = (np.bincount(vert_c[vert_c >= 0], minlength=n_c) - np.bincount(edge_c, minlength=n_c)
           + np.bincount(tri_c, minlength=n_c))
    n_bnd = np.bincount(edge_c, weights=mesh.boundary_edge_mask, minlength=n_c)
    c_b2 = (n_bnd == 0).astype(np.int64)
    c_b1 = 1 + c_b2 - chi
    comp_betti = tuple((1, int(x), int(y)) for x, y in zip(c_b1, c_b2))
    b0, b1, b2 = n_c, int(c_b1.sum()), int(c_b2.sum())

    n_be = int(mesh.boundary_edge_mask.sum())
    n_bv = int(mesh.boundary_vertex_mask.sum())
    return TopologySummary(
        n_vertices=mesh.n_vertices,
        n_edges=mesh.n_edges,
        n_triangles=mesh.n_triangles,
        n_interior_edges=mesh.n_edges - n_be,
        n_boundary_edges=n_be,
        n_interior_vertices=mesh.n_vertices - n_bv,
        n_boundary_vertices=n_bv,
        euler_characteristic=mesh.n_vertices - mesh.n_edges + mesh.n_triangles,
        n_components=mesh.n_components,
        b0=b0,
        b1=b1,
        b2=b2,
        closed=mesh.is_closed,
        component_betti=tuple(comp_betti),
    )


# ---------------------------------------------------------------------- I/O
def load_mesh(path) -> SurfaceMesh:
    """Load an OFF or OBJ triangle mesh, the format given by the file
    extension.  Non-manifold or non-orientable input is rejected;
    inconsistent windings of orientable meshes are repaired."""
    path = str(path)
    parse = {".off": _parse_off, ".obj": _parse_obj}.get(path.lower()[-4:])
    if parse is None:
        raise ParseError(f"cannot infer mesh format from path {path!r}")
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read mesh file {path!r}: {exc}") from exc
    return SurfaceMesh(*parse(text))


def _significant_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def _parse_off(text: str):
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError("empty OFF file")
    header = lines[0]
    body = lines[1:]
    if header.split()[0] != "OFF":
        raise ParseError("missing OFF header")
    if len(header.split()) == 4:  # counts on the header line
        counts = header.split()[1:]
    else:
        if not body:
            raise ParseError("missing OFF counts line")
        counts, body = body[0].split(), body[1:]
    try:
        n_v, n_f = int(counts[0]), int(counts[1])
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad OFF counts line: {counts}") from exc
    if len(body) < n_v + n_f:
        raise ParseError("truncated OFF file")
    try:
        verts = np.array(
            [[float(x) for x in body[i].split()[:3]] for i in range(n_v)]
        ).reshape(n_v, 3)
    except ValueError as exc:
        raise ParseError("bad OFF vertex line") from exc
    tris = []
    for i in range(n_f):
        parts = body[n_v + i].split()
        try:
            cnt = int(parts[0])
        except ValueError as exc:
            raise ParseError("bad OFF face line") from exc
        if cnt != 3:
            raise NonTriangle(f"OFF face with {cnt} vertices")
        tris.append([int(parts[1]), int(parts[2]), int(parts[3])])
    return verts, np.array(tris, dtype=np.int64)


def _parse_obj(text: str):
    verts: list[list[float]] = []
    tris: list[list[int]] = []
    for line in _significant_lines(text):
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            try:
                verts.append([float(x) for x in parts[1:4]])
            except ValueError as exc:
                raise ParseError(f"bad OBJ vertex line: {line!r}") from exc
        elif tag == "f":
            refs = parts[1:]
            if len(refs) != 3:
                raise NonTriangle(f"OBJ face with {len(refs)} vertices")
            idx = []
            for r in refs:
                try:
                    i = int(r.split("/")[0])
                except ValueError as exc:
                    raise ParseError(f"bad OBJ face line: {line!r}") from exc
                if i < 0:
                    i = len(verts) + 1 + i  # relative indexing
                idx.append(i - 1)
            tris.append(idx)
        # all other record types (vn, vt, usemtl, ...) are ignored
    if not verts or not tris:
        raise ParseError("OBJ file without vertices or faces")
    return np.array(verts), np.array(tris, dtype=np.int64)


def save_off(mesh_or_arrays, path):
    """Write an ASCII OFF file."""
    verts, tris = _as_arrays(mesh_or_arrays)
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(verts)} {len(tris)} 0\n")
        for v in verts:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in tris:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")


def save_obj(mesh_or_arrays, path):
    """Write an ASCII OBJ file (1-based indices)."""
    verts, tris = _as_arrays(mesh_or_arrays)
    with open(path, "w") as fh:
        for v in verts:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in tris:
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


def _as_arrays(mesh_or_arrays):
    if isinstance(mesh_or_arrays, SurfaceMesh):
        return mesh_or_arrays.vertices, mesh_or_arrays.triangles
    verts, tris = mesh_or_arrays
    return np.asarray(verts), np.asarray(tris, dtype=np.int64)

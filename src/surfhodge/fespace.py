"""Discrete function spaces on surface triangulations.

Supported kinds:

* ``lagrange``           continuous scalar Lagrange elements (degree 1..5),
* ``bdm``                H(div)-conforming tangential vector elements of
                         degree k >= 1 (full vector polynomials with edge
                         moment + interior moment dofs); k = 0 is admitted
                         as the lowest-order edge-flux space with one
                         constant-flux dof per edge,
* ``dg_pressure``        discontinuous scalar polynomials (orthonormal
                         reference basis),
* ``dg_vector``          discontinuous tangential vector polynomials,
* ``crouzeix_raviart``   nonconforming P1 with edge-midpoint dofs,
* ``facet_tangential``   tangential polynomials on the edge skeleton
                         (dof counting and diagnostics only).

Vector elements are mapped with the Piola transform v = J_T^-1 F vhat which
makes normal edge fluxes mapping-invariant; orientation signs stored in the
dof map glue the per-element coefficients into globally normal-continuous
fields.  Scalar elements are mapped by composition.

Local dof layout (vector elements): for each local edge e in (0,1),(1,2),
(2,0), moments against shifted Legendre polynomials L_0..L_k along the
edge, followed by interior moments.  The global dof of an interior edge is
the outward flux of the triangle that traverses the edge against the global
tangent (lower -> higher vertex index).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import (
    DisconnectedMesh,
    IndexOutOfRange,
    UnsupportedCombination,
)
from .mesh import SurfaceMesh, TopologySummary
from .quadrature import edge_rule, triangle_rule

REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))
REF_EDGE_NORMALS = np.array([[0.0, -1.0], [1.0, 1.0] / np.sqrt(2.0), [-1.0, 0.0]])
REF_EDGE_LENGTHS = np.array([1.0, np.sqrt(2.0), 1.0])

def bary_to_ref(points) -> np.ndarray:
    """Barycentric (l0, l1, l2) -> reference coordinates (x, y)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise ValueError("barycentric points must have 3 components")
    return pts[:, 1:]


def edge_ref_points(local_edge: int, t, flip: bool = False) -> np.ndarray:
    """Reference coordinates of points on a local edge.

    t parametrizes the edge along its local traversal direction; flip
    reverses the parametrization (used when the local direction opposes the
    global edge tangent).
    """
    t = np.asarray(t, dtype=float)
    if flip:
        t = 1.0 - t
    a = REF_VERTS[LOCAL_EDGES[local_edge][0]]
    b = REF_VERTS[LOCAL_EDGES[local_edge][1]]
    return a[None, :] + t[:, None] * (b - a)[None, :]


def shifted_legendre(m: int, t: np.ndarray) -> np.ndarray:
    """Legendre polynomial P_m mapped to [0, 1]; L_m(1-t) = (-1)^m L_m(t)."""
    x = 2.0 * np.asarray(t) - 1.0
    p_prev = np.ones_like(x)
    if m == 0:
        return p_prev
    p = x.copy()
    for n in range(1, m):
        p, p_prev = ((2 * n + 1) * x * p - n * p_prev) / (n + 1), p
    return p


# --------------------------------------------------------------- monomials
def scalar_monomials(p: int) -> list[tuple[int, int]]:
    return [(a, d - a) for d in range(p + 1) for a in range(d, -1, -1)]


def eval_monomials(exps, xy) -> np.ndarray:
    xy = np.atleast_2d(xy)
    out = np.empty((len(exps), len(xy)))
    for i, (a, b) in enumerate(exps):
        out[i] = xy[:, 0] ** a * xy[:, 1] ** b
    return out


def eval_monomial_grads(exps, xy) -> np.ndarray:
    xy = np.atleast_2d(xy)
    out = np.zeros((len(exps), len(xy), 2))
    for i, (a, b) in enumerate(exps):
        if a > 0:
            out[i, :, 0] = a * xy[:, 0] ** (a - 1) * xy[:, 1] ** b
        if b > 0:
            out[i, :, 1] = b * xy[:, 0] ** a * xy[:, 1] ** (b - 1)
    return out


# ------------------------------------------------------- reference elements
class ScalarPolyRef:
    """Common evaluation for scalar elements stored as monomial coefficients.

    Row l of coeffs holds the coefficients of local function l over the
    scalar monomials of self.exps.
    """

    exps: list[tuple[int, int]]
    coeffs: np.ndarray  # (n_local, n_mono)
    n_local: int

    def eval(self, xy) -> np.ndarray:
        return self.coeffs @ eval_monomials(self.exps, xy)

    def grad(self, xy) -> np.ndarray:
        mg = eval_monomial_grads(self.exps, xy)
        return np.einsum("lm,mqd->lqd", self.coeffs, mg)


class LagrangeRef(ScalarPolyRef):
    """Nodal Lagrange basis on equispaced nodes of the reference triangle."""

    def __init__(self, p: int):
        self.p = p
        nodes = [tuple(v) for v in REF_VERTS]
        for a, b in (REF_VERTS[list(e)] for e in LOCAL_EDGES):
            nodes += [tuple(a + (i / p) * (b - a)) for i in range(1, p)]
        nodes += [(i / p, j / p) for j in range(1, p) for i in range(1, p - j)]
        self.nodes = np.array(nodes)
        # node order: the vertices, each local edge's p - 1 nodes, the interior
        self.vertex_nodes = np.arange(3)
        self.edge_nodes = np.arange(3, 3 * p).reshape(3, p - 1)
        self.exps = scalar_monomials(p)
        V = eval_monomials(self.exps, self.nodes).T  # (n_nodes, n_mono)
        self.coeffs = np.linalg.inv(V).T
        self.n_local = len(nodes)


class CrouzeixRaviartRef(ScalarPolyRef):
    """Nonconforming P1 with edge-midpoint dofs: phi_e = 1 - 2*lambda_opp."""

    def __init__(self):
        self.p = 1
        self.exps = scalar_monomials(1)  # [1, x, y]
        self.coeffs = np.array(
            [[1.0, 0.0, -2.0], [-1.0, 2.0, 2.0], [1.0, -2.0, 0.0]])
        self.n_local = 3


class DGScalarRef(ScalarPolyRef):
    """L2-orthonormal polynomial basis on the reference triangle."""

    def __init__(self, p: int):
        from .quadrature import monomial_integral

        self.p = p
        self.exps = scalar_monomials(p)
        n = len(self.exps)
        G = np.empty((n, n))
        for i, (a1, b1) in enumerate(self.exps):
            for j, (a2, b2) in enumerate(self.exps):
                G[i, j] = monomial_integral(a1 + a2, b1 + b2)
        L = np.linalg.cholesky(G)
        self.coeffs = np.linalg.inv(L)
        self.n_local = n


class VectorPolyRef:
    """Common evaluation for vector elements stored as monomial coefficients.

    Each local function is a (n_mono, 2) coefficient matrix over the scalar
    monomials of self.exps.
    """

    exps: list[tuple[int, int]]
    coeffs: np.ndarray  # (n_local, n_mono, 2)
    n_local: int

    def eval(self, xy) -> np.ndarray:
        mono = eval_monomials(self.exps, xy)
        return np.einsum("lmc,mq->lqc", self.coeffs, mono)

    def div(self, xy) -> np.ndarray:
        mg = eval_monomial_grads(self.exps, xy)
        return np.einsum("lmc,mqc->lq", self.coeffs, mg)

    def grad(self, xy) -> np.ndarray:
        """d v_c / d x_d as (n_local, n_pts, 2, 2)."""
        mg = eval_monomial_grads(self.exps, xy)
        return np.einsum("lmc,mqd->lqcd", self.coeffs, mg)


class BdmRef(VectorPolyRef):
    """Vector element with Legendre edge-flux moments and interior moments.

    Degree k >= 1 spans the full [P^k]^2; k = 0 spans constants plus the
    radial field (x, y), i.e. the classical lowest-order edge-flux space
    with one dof per edge.  Interior moments for k >= 2 pair against
    gradients of P^{k-1} (modulo constants) and against rotated gradients of
    bubble * P^{k-2}.
    """

    def __init__(self, k: int):
        self.k = k
        self.edge_dofs = [(le, m) for le in range(3) for m in range(k + 1)]
        self.n_edge_dofs = len(self.edge_dofs)
        if k == 0:
            self.exps = scalar_monomials(1)
            gens = np.zeros((3, len(self.exps), 2))
            gens[0, 0, 0] = 1.0  # (1, 0)
            gens[1, 0, 1] = 1.0  # (0, 1)
            gens[2, self.exps.index((1, 0)), 0] = 1.0  # (x, y)
            gens[2, self.exps.index((0, 1)), 1] = 1.0
        else:
            self.exps = scalar_monomials(k)
            gens = _monomial_components(len(self.exps))
        n_gen = len(gens)
        self._dof_scales = np.ones(n_gen)
        L = self._apply_raw_dofs(gens, self.exps)
        # Normalize the functionals: a fixed reference rescaling that keeps
        # the dual-basis inversion (and hence pointwise evaluation) well
        # conditioned at higher degree.  Edge moments share one scale per
        # moment order so that the two sides of a shared physical edge stay
        # consistently scaled; interior moments are element-private and are
        # normalized individually.
        scales = np.ones(n_gen)
        for m in range(k + 1):
            rows = [i for i, (le, mm) in enumerate(self.edge_dofs) if mm == m]
            s = 1.0 / np.mean([np.linalg.norm(L[i]) for i in rows])
            for i in rows:
                scales[i] = s
        for i in range(self.n_edge_dofs, n_gen):
            scales[i] = 1.0 / np.linalg.norm(L[i])
        self._dof_scales = scales
        A = np.linalg.inv(L * self._dof_scales[:, None])
        self.coeffs = np.einsum("gj,gmc->jmc", A, gens)
        self.n_local = n_gen

    def apply_dofs(self, coeffs: np.ndarray, exps) -> np.ndarray:
        """Evaluate all (normalized) reference dof functionals on vector
        polynomials given as (n_fields, n_mono, 2) coefficient arrays over
        the scalar monomials exps; returns (n_dofs, n_fields).  Used both to
        construct the dual basis and to interpolate exactly representable
        fields (e.g. rotated Lagrange gradients)."""
        return self._apply_raw_dofs(coeffs, exps) * self._dof_scales[:, None]

    def _apply_raw_dofs(self, coeffs: np.ndarray, exps) -> np.ndarray:
        k = self.k
        deg = max(a + b for a, b in exps)
        rows = []
        tq, tw = edge_rule(deg + k + 1)
        for le in range(3):
            pts = edge_ref_points(le, tq)
            mono = eval_monomials(exps, pts)  # (n_mono, n_q)
            vals = np.einsum("gmc,mq->gqc", coeffs, mono)
            flux = vals @ REF_EDGE_NORMALS[le]  # (n_fields, n_q)
            for m in range(k + 1):
                L = shifted_legendre(m, tq)
                rows.append(REF_EDGE_LENGTHS[le] * (flux * (L * tw)).sum(axis=1))
        if k >= 2:
            vol = triangle_rule(deg + k + 2)
            xy, w = vol.xy, vol.weights
            mono = eval_monomials(exps, xy)
            gvals = np.einsum("gmc,mq->gqc", coeffs, mono)
            for gexp in scalar_monomials(k - 1):
                if gexp == (0, 0):
                    continue
                gq = eval_monomial_grads([gexp], xy)[0]  # (n_q, 2)
                rows.append(np.einsum("gqc,qc,q->g", gvals, gq, w))
            for a, b in scalar_monomials(k - 2):
                # J grad(bubble * x^a y^b) with J(u, v) = (-v, u) and
                # bubble = x y (1 - x - y)
                g = eval_monomial_grads([(a + 1, b + 1), (a + 2, b + 1), (a + 1, b + 2)], xy)
                gp = g[0] - g[1] - g[2]  # (n_q, 2)
                jgp = np.stack([-gp[:, 1], gp[:, 0]], axis=1)
                rows.append(np.einsum("gqc,qc,q->g", gvals, jgp, w))
        return np.array(rows)


class VectorDGRef(VectorPolyRef):
    """Discontinuous [P^k]^2 with plain monomial-component basis."""

    def __init__(self, k: int):
        self.k = k
        self.exps = scalar_monomials(k)
        self.coeffs = _monomial_components(len(self.exps))
        self.n_local = len(self.coeffs)


def _monomial_components(n_mono: int) -> np.ndarray:
    """The 2 n_mono fields m e_c (monomial m times unit vector c), in the
    order (m, c), as (2 n_mono, n_mono, 2) coefficient arrays."""
    return np.eye(2 * n_mono).reshape(2 * n_mono, n_mono, 2)


def _index_type(n: int) -> type:
    """scipy's index type for n rows or columns: dofs cast to it before they
    are broadcast are not cast again, entry by entry, by the sparse matrix."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def _signed_rows(n_cols: int, cols: np.ndarray, signs: np.ndarray,
                 values: np.ndarray) -> sp.csr_matrix:
    """CSR matrix of signed entries, row by row.

    values (..., n) holds n entries for each row (the leading axes,
    flattened in C order), such as the traces of n local basis functions on
    an edge side; cols and signs, which broadcast against values, hold
    their global dofs and orientation factors.  Entries whose dof is
    negative (removed by a trace constraint or structurally zero) are
    dropped.  Each row's entries are written in row order, so indptr and
    indices need no sorting.
    """
    data = values * signs
    cols = np.broadcast_to(cols.astype(_index_type(n_cols)), data.shape)
    keep = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=-1).ravel())])
    return sp.csr_matrix((data[keep], cols[keep], indptr), shape=(len(indptr) - 1, n_cols))


# ------------------------------------------------------------------- spaces
@dataclass(eq=False)
class FeSpace:
    """A discrete function space: reference element plus global dof map.

    dof_map[t, i] is the global index of local dof i on triangle t (-1 when
    the dof was removed by a trace constraint); dof_signs carries the
    orientation factors relating local to global coefficients.  zero_mean
    removes no dof: a reported field is shifted to zero mean
    (linalg.zero_mean), and total_dofs reports the unconstrained count.
    """

    kind: str
    degree: int
    constraint: str
    mesh: SurfaceMesh
    ref: object
    dof_map: np.ndarray
    dof_signs: np.ndarray
    total_dofs: int
    value_shape: str  # "scalar" | "vector"

    @property
    def n_local(self) -> int:
        return self.dof_map.shape[1]

    @property
    def zero_mean(self) -> bool:
        return self.constraint == "zero_mean"

    def same_as(self, other: "FeSpace") -> bool:
        """other is this space or one built alike: same kind, degree, mesh
        object and dof count."""
        return other is self or (other.kind == self.kind and other.degree == self.degree
                                 and other.mesh is self.mesh and other.total_dofs == self.total_dofs)

    @cached_property
    def gather(self) -> sp.csr_matrix:
        """The signed gather P (T n_local, n), a CSR built on first use: row
        t n_local + i holds dof_signs[t, i] in column dof_map[t, i] (no
        entry for a dropped dof), so P c is local_coefficients(c)."""
        return _signed_rows(self.total_dofs, self.dof_map[..., None],
                            self.dof_signs[..., None], np.ones(1))

    @cached_property
    def scatter(self) -> sp.csr_matrix:
        """P' as CSR: P' l sums signed local contributions l (T n_local,)
        into the global dofs, each dof's in (T, n_local) order."""
        return self.gather.T.tocsr()

    def local_coefficients(self, coefficients: np.ndarray) -> np.ndarray:
        """Per-triangle signed local coefficient array (T, n_local)."""
        return (self.gather @ coefficients).reshape(self.dof_map.shape)


@dataclass(eq=False)
class FeField:
    """Coefficient vector paired with its space."""

    space: FeSpace
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.space.total_dofs,):
            raise ValueError(
                f"coefficient length {self.coefficients.shape} does not match "
                f"total_dofs {self.space.total_dofs}"
            )

    def eval_cells(self, tri_ids, points_bary) -> np.ndarray:
        """Evaluate on the given triangles at shared barycentric points.

        Returns (n_tris, n_pts, 3) for vector spaces, (n_tris, n_pts) for
        scalar spaces; vector values are physical tangential vectors.
        """
        tri_ids = np.asarray(tri_ids, dtype=int)
        loc = self.space.local_coefficients(self.coefficients)[tri_ids]
        vals = self.space.ref.eval(bary_to_ref(points_bary))
        if self.space.value_shape == "scalar":
            return np.einsum("tl,lq->tq", loc, vals)
        return _piola(self.space.mesh, np.einsum("tl,lqc->tqc", loc, vals), tri_ids)


# ------------------------------------------------------------- space kinds
@dataclass(frozen=True)
class _Kind:
    """What build_space and count_dofs know of one space kind: the
    reference element of a degree, the constraints and degrees it admits,
    its value shape and its dofs per vertex, per edge and per triangle.
    Every local layout is entity-major (the three vertices, the three local
    edges, the interior), and so is the global numbering.  flip_edges
    reverses an edge's dofs on a triangle that runs against the global
    tangent; signs(mesh, degree) gives the factors c_loc = signs * c_glob
    (ones when None)."""

    ref: Callable[[int], object]
    constraints: set
    degrees: range
    value_shape: str
    per_entity: Callable[[int], tuple[int, int, int]]
    flip_edges: bool = False
    signs: Callable | None = None


def _bdm_signs(mesh: SurfaceMesh, k: int) -> np.ndarray:
    """BDM factors: an edge dof's combines the orientation sign (from the
    edge traversal direction and the Legendre parity) with the edge length,
    which makes global basis traces O(1) independently of the mesh size;
    interior dofs carry sqrt(triangle area) for the same reason."""
    e = mesh.tri_edges
    m = np.arange(k + 1)
    sign = np.where(mesh.tri_edge_along[:, :, None],
                    np.where(mesh.boundary_edge_mask[e], 1.0, -1.0)[:, :, None],
                    np.where(m % 2, -1.0, 1.0))
    T = mesh.n_triangles
    n_int = _KINDS["bdm"].per_entity(k)[2]
    return np.concatenate([(sign * mesh.edge_lengths[e][:, :, None]).reshape(T, -1),
                           np.repeat(np.sqrt(mesh.Jdet)[:, None], n_int, axis=1)], axis=1)


_KINDS = {
    "lagrange": _Kind(LagrangeRef, {"none", "zero_boundary_trace", "zero_mean"}, range(1, 6),
                      "scalar", lambda p: (1, p - 1, (p - 1) * (p - 2) // 2), flip_edges=True),
    "bdm": _Kind(BdmRef, {"none", "zero_normal_trace"}, range(5), "vector",
                 lambda k: (0, k + 1, (k + 1) * (k - 1) if k else 0), signs=_bdm_signs),
    "dg_pressure": _Kind(DGScalarRef, {"none", "zero_mean"}, range(5), "scalar",
                         lambda p: (0, 0, (p + 1) * (p + 2) // 2)),
    "dg_vector": _Kind(VectorDGRef, {"none"}, range(5), "vector",
                       lambda k: (0, 0, (k + 1) * (k + 2))),
    "crouzeix_raviart": _Kind(lambda p: CrouzeixRaviartRef(), {"none", "zero_mean"},
                              range(1, 2), "scalar", lambda p: (0, 1, 0)),
    "facet_tangential": _Kind(lambda k: None, {"none"}, range(5), "scalar",
                              lambda k: (0, k + 1, 0)),
}
_TRACE_CONSTRAINTS = ("zero_boundary_trace", "zero_normal_trace")  # drop boundary entities
VALID_CONSTRAINTS = {kind: spec.constraints for kind, spec in _KINDS.items()}


@lru_cache(maxsize=None)
def _reference(kind: str, degree: int):
    """The reference element of (kind, degree), shared by every space built
    alike on any mesh, so made read-only: its arrays are frozen and its
    lists become tuples."""
    ref = _KINDS[kind].ref(degree)
    for name, value in list(vars(ref).items()) if ref else ():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        elif isinstance(value, list):
            setattr(ref, name, tuple(value))
    return ref


def _check_space(kind: str, degree: int, constraint: str, n_components: int):
    """(kind, degree) normalized, for a supported combination on a mesh of
    n_components components; raises UnsupportedCombination or, for
    zero_mean on a disconnected mesh, DisconnectedMesh."""
    kind = kind.lower()
    if kind not in _KINDS:
        raise UnsupportedCombination(f"unknown space kind {kind!r}")
    if constraint not in _KINDS[kind].constraints:
        raise UnsupportedCombination(f"{kind} does not support constraint {constraint!r}")
    degree = int(degree)
    if degree not in _KINDS[kind].degrees:
        raise UnsupportedCombination(f"{kind} degree {degree} unsupported")
    if constraint == "zero_mean" and n_components != 1:
        raise DisconnectedMesh("zero_mean requires a connected mesh")
    return kind, degree


def build_space(mesh: SurfaceMesh, kind: str, degree: int, constraint: str = "none") -> FeSpace:
    """Construct a discrete space with its global dof map.

    Raises UnsupportedCombination for invalid kind/degree/constraint
    combinations and DisconnectedMesh when zero_mean is requested on a
    disconnected mesh.
    """
    kind, degree = _check_space(kind, degree, constraint, mesh.n_components)
    spec = _KINDS[kind]
    dof_map, total = _number(mesh, spec.per_entity(degree),
                             constraint in _TRACE_CONSTRAINTS, spec.flip_edges)
    return FeSpace(
        kind=kind,
        degree=degree,
        constraint=constraint,
        mesh=mesh,
        ref=_reference(kind, degree),
        dof_map=dof_map,
        dof_signs=np.ones(dof_map.shape) if spec.signs is None else spec.signs(mesh, degree),
        total_dofs=total,
        value_shape=spec.value_shape,
    )


def _number(mesh: SurfaceMesh, per_entity, trace: bool, flip_edges: bool):
    """Entity-major dof numbering: the kept vertices, then the kept edges,
    then the triangles, each in index order and each entity's dofs in a
    row.  A trace constraint keeps only the interior vertices and edges;
    a dropped entity's dofs are -1.  Returns the (T, n_local) dof map and
    the dof count."""
    nv, ne, nt = per_entity
    T = mesh.n_triangles
    edge_slot = np.arange(ne)
    if flip_edges:
        edge_slot = np.where(mesh.tri_edge_along[:, :, None], edge_slot, ne - 1 - edge_slot)
    keep_v = ~mesh.boundary_vertex_mask if trace else np.ones(mesh.n_vertices, bool)
    keep_e = ~mesh.boundary_edge_mask if trace else np.ones(mesh.n_edges, bool)
    blocks, total = [], 0
    for ids, keep, n, slot in ((mesh.triangles, keep_v, nv, np.arange(nv)),
                               (mesh.tri_edges, keep_e, ne, edge_slot),
                               (np.arange(T)[:, None], np.ones(T, bool), nt, np.arange(nt))):
        base = np.full(len(keep), -1, dtype=np.int64)
        base[keep] = total + n * np.arange(keep.sum())
        total += n * int(keep.sum())
        b = base[ids][:, :, None]
        blocks.append(np.where(b >= 0, b + slot, -1).reshape(T, -1))
    return np.concatenate(blocks, axis=1), total


# --------------------------------------------------------------- dof counts
def count_dofs(topology: TopologySummary, kind: str, degree: int, constraint: str = "none") -> int:
    """Dof count from entity counts alone: the kind's dofs per vertex, edge
    and triangle times the numbers of vertices, edges and triangles (of
    interior vertices and edges under a trace constraint).

    This counts what build_space numbers, so it matches build_space's
    total_dofs on every mesh, and raises what build_space raises for the
    same arguments.  The zero_mean constraint does not change the count:
    it removes no dof.
    """
    kind, k = _check_space(kind, degree, constraint, topology.n_components)
    nv, ne, nt = _KINDS[kind].per_entity(k)
    t = topology
    if constraint in _TRACE_CONSTRAINTS:
        return nv * t.n_interior_vertices + ne * t.n_interior_edges + nt * t.n_triangles
    return nv * t.n_vertices + ne * t.n_edges + nt * t.n_triangles

# ----------------------------------------------------------- physical eval
def _piola(mesh: SurfaceMesh, uhat: np.ndarray, tris=slice(None)) -> np.ndarray:
    """Tangential vectors F uhat / J of reference vectors uhat (..., 2):
    uhat (T', n, 2) on the triangles tris (T',), or any (..., 2) on one
    triangle tris."""
    return uhat @ (mesh.F[tris] / mesh.Jdet[tris, None, None]).swapaxes(-1, -2)


class BasisValues:
    """Physical basis tabulation on one triangle (local, unsigned)."""

    def __init__(self, values, gradients=None, divergences=None):
        self.values = values
        self.gradients = gradients
        self.divergences = divergences


def eval_basis(space: FeSpace, triangle: int, points_bary) -> BasisValues:
    """Evaluate the local (reference-dual, Piola/composition mapped) basis.

    Vector spaces return tangential values F vhat / J (n_loc, n_q, 3),
    ambient gradients F grad(vhat) G' / J (n_loc, n_q, 3, 3) and
    divergences divhat(vhat) / J (n_loc, n_q); scalar spaces return values
    (n_loc, n_q) and tangential gradients (n_loc, n_q, 3).  Global basis
    functions are these local functions multiplied by the dof_signs of the
    triangle.
    """
    mesh = space.mesh
    if not 0 <= triangle < mesh.n_triangles:
        raise IndexOutOfRange(f"triangle {triangle} out of range")
    if space.kind == "facet_tangential":
        raise UnsupportedCombination("facet_tangential has no volumetric basis")
    xy = bary_to_ref(points_bary)
    if space.value_shape == "scalar":
        grads = space.ref.grad(xy) @ mesh.G[triangle].T
        return BasisValues(values=space.ref.eval(xy), gradients=grads)
    # rows of the mapped gradient: (F X / J) G' with X = grad(vhat)
    mapped = _piola(mesh, space.ref.grad(xy).swapaxes(-1, -2), triangle)
    return BasisValues(values=_piola(mesh, space.ref.eval(xy), triangle),
                       gradients=mapped.swapaxes(-1, -2) @ mesh.G[triangle].T,
                       divergences=space.ref.div(xy) / mesh.Jdet[triangle])

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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

MAX_LAGRANGE_DEGREE = 5
MAX_BDM_DEGREE = 4


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
        self.vertex_nodes = [0, 1, 2]
        self.edge_nodes = []
        for le in range(3):
            ids = []
            a, b = (REF_VERTS[v] for v in LOCAL_EDGES[le])
            for i in range(1, p):
                ids.append(len(nodes))
                nodes.append(tuple(a + (i / p) * (b - a)))
            self.edge_nodes.append(ids)
        self.interior_nodes = []
        for j in range(1, p):
            for i in range(1, p - j):
                self.interior_nodes.append(len(nodes))
                nodes.append((i / p, j / p))
        self.nodes = np.array(nodes)
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
            n_mono = len(self.exps)
            gens = np.zeros((2 * n_mono, n_mono, 2))
            for m in range(n_mono):
                gens[2 * m, m, 0] = 1.0
                gens[2 * m + 1, m, 1] = 1.0
        n_gen = len(gens)
        self._dof_scales = np.ones(n_gen)
        L = self._apply_raw_dofs(gens, self.exps)
        if L.shape != (n_gen, n_gen):
            raise AssertionError("BDM dof count mismatch")
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
                # J grad(bubble * x^a y^b) with J(u, v) = (-v, u)
                prod = _poly_multiply({(a, b): 1.0}, _BUBBLE)
                gp = _poly_grad_eval(prod, xy)  # (n_q, 2)
                jgp = np.stack([-gp[:, 1], gp[:, 0]], axis=1)
                rows.append(np.einsum("gqc,qc,q->g", gvals, jgp, w))
        return np.array(rows)


_BUBBLE = {(1, 1): 1.0, (2, 1): -1.0, (1, 2): -1.0}  # x y (1 - x - y)


def _poly_multiply(p1: dict, p2: dict) -> dict:
    out: dict[tuple[int, int], float] = {}
    for (a1, b1), c1 in p1.items():
        for (a2, b2), c2 in p2.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def _poly_grad_eval(poly: dict, xy: np.ndarray) -> np.ndarray:
    out = np.zeros((len(xy), 2))
    for (a, b), c in poly.items():
        if a > 0:
            out[:, 0] += c * a * xy[:, 0] ** (a - 1) * xy[:, 1] ** b
        if b > 0:
            out[:, 1] += c * b * xy[:, 0] ** a * xy[:, 1] ** (b - 1)
    return out


class VectorDGRef(VectorPolyRef):
    """Discontinuous [P^k]^2 with plain monomial-component basis."""

    def __init__(self, k: int):
        self.k = k
        self.exps = scalar_monomials(k)
        n_mono = len(self.exps)
        self.coeffs = np.zeros((2 * n_mono, n_mono, 2))
        for m in range(n_mono):
            self.coeffs[2 * m, m, 0] = 1.0
            self.coeffs[2 * m + 1, m, 1] = 1.0
        self.n_local = 2 * n_mono


@lru_cache(maxsize=None)
def _reference(kind: str, degree: int):
    if kind == "lagrange":
        return LagrangeRef(degree)
    if kind == "bdm":
        return BdmRef(degree)
    if kind == "dg_pressure":
        return DGScalarRef(degree)
    if kind == "dg_vector":
        return VectorDGRef(degree)
    if kind == "crouzeix_raviart":
        return CrouzeixRaviartRef()
    if kind == "facet_tangential":
        return None
    raise UnsupportedCombination(f"unknown space kind {kind!r}")


# ------------------------------------------------------------------- spaces
VALID_CONSTRAINTS = {
    "lagrange": {"none", "zero_boundary_trace", "zero_mean"},
    "bdm": {"none", "zero_normal_trace"},
    "dg_pressure": {"none", "zero_mean"},
    "dg_vector": {"none"},
    "crouzeix_raviart": {"none", "zero_mean"},
    "facet_tangential": {"none"},
}


@dataclass
class FeSpace:
    """A discrete function space: reference element plus global dof map.

    dof_map[t, i] is the global index of local dof i on triangle t (-1 when
    the dof was removed by a trace constraint); dof_signs carries the
    orientation factors relating local to global coefficients.  zero_mean is
    never realized by removing a dof; it is enforced at solve time through a
    scalar multiplier, and total_dofs reports the unconstrained count.
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

    @property
    def constrained_dim(self) -> int:
        """Dimension after enforcing the zero-mean constraint (if any)."""
        return self.total_dofs - (1 if self.zero_mean else 0)

    def same_as(self, other: "FeSpace") -> bool:
        """other is this space or one built alike: same kind, degree, mesh
        object and dof count."""
        return other is self or (other.kind == self.kind and other.degree == self.degree
                                 and other.mesh is self.mesh and other.total_dofs == self.total_dofs)

    def local_coefficients(self, coefficients: np.ndarray) -> np.ndarray:
        """Per-triangle signed local coefficient array (T, n_local)."""
        gd = self.dof_map
        padded = np.concatenate([np.asarray(coefficients, dtype=float), [0.0]])
        return self.dof_signs * padded[np.where(gd >= 0, gd, len(padded) - 1)]


@dataclass
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

    @classmethod
    def zeros(cls, space: FeSpace) -> "FeField":
        return cls(space, np.zeros(space.total_dofs))

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


def _check_space(kind: str, degree: int, constraint: str, n_components: int):
    """(kind, degree) normalized, for a supported combination on a mesh of
    n_components components; raises UnsupportedCombination or, for
    zero_mean on a disconnected mesh, DisconnectedMesh."""
    kind = kind.lower()
    if kind not in VALID_CONSTRAINTS:
        raise UnsupportedCombination(f"unknown space kind {kind!r}")
    if constraint not in VALID_CONSTRAINTS[kind]:
        raise UnsupportedCombination(f"{kind} does not support constraint {constraint!r}")
    degree = int(degree)
    if kind == "lagrange" and not 1 <= degree <= MAX_LAGRANGE_DEGREE:
        raise UnsupportedCombination(f"lagrange degree {degree} unsupported")
    if kind == "crouzeix_raviart" and degree != 1:
        raise UnsupportedCombination("crouzeix_raviart requires degree 1")
    if kind not in ("lagrange", "crouzeix_raviart") and not 0 <= degree <= MAX_BDM_DEGREE:
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
    builder = {
        "lagrange": _build_lagrange,
        "bdm": _build_bdm,
        "dg_pressure": _build_dg_scalar,
        "dg_vector": _build_dg_vector,
        "crouzeix_raviart": _build_cr,
        "facet_tangential": _build_facet,
    }[kind]
    dof_map, signs, total = builder(mesh, degree, constraint)
    return FeSpace(
        kind=kind,
        degree=degree,
        constraint=constraint,
        mesh=mesh,
        ref=_reference(kind, degree),
        dof_map=dof_map,
        dof_signs=signs,
        total_dofs=total,
        value_shape="vector" if kind in ("bdm", "dg_vector") else "scalar",
    )


def _build_lagrange(mesh, p, constraint):
    ref = _reference("lagrange", p)
    zero_trace = constraint == "zero_boundary_trace"
    v_keep = ~mesh.boundary_vertex_mask if zero_trace else np.ones(mesh.n_vertices, bool)
    e_keep = ~mesh.boundary_edge_mask if zero_trace else np.ones(mesh.n_edges, bool)
    v_ids = -np.ones(mesh.n_vertices, dtype=np.int64)
    v_ids[v_keep] = np.arange(v_keep.sum())
    nxt = int(v_keep.sum())
    e_base = -np.ones(mesh.n_edges, dtype=np.int64)
    per_edge = p - 1
    if per_edge:
        e_base[e_keep] = nxt + per_edge * np.arange(e_keep.sum())
        nxt += per_edge * int(e_keep.sum())
    n_int = len(ref.interior_nodes)
    dof_map = -np.ones((mesh.n_triangles, ref.n_local), dtype=np.int64)
    dof_map[:, ref.vertex_nodes] = v_ids[mesh.triangles]
    # Edge node i (1..p-1) along the local direction sits in slot i of the
    # edge, or in slot p - i when the triangle runs against the edge.
    i = np.arange(1, p)
    slot = np.where(mesh.tri_edge_along[:, :, None], i, p - i)
    base = e_base[mesh.tri_edges][:, :, None]
    edge_nodes = np.array(ref.edge_nodes, dtype=np.int64).reshape(3, per_edge)
    dof_map[:, edge_nodes] = np.where(base >= 0, base + slot - 1, -1)
    dof_map[:, ref.interior_nodes] = nxt + _interior_dofs(mesh.n_triangles, n_int)
    total = nxt + mesh.n_triangles * n_int
    return dof_map, np.ones_like(dof_map, dtype=float), total


def _build_bdm(mesh, k, constraint):
    """BDM dof map with orientation/scaling factors.

    Local coefficients relate to global ones by c_loc = S * c_glob where S
    combines the orientation sign (derived from the edge traversal
    direction and the Legendre parity) with an edge-length normalization
    that makes global basis traces O(1) independently of the mesh size;
    interior dofs are normalized by sqrt(triangle area) for the same
    reason.
    """
    ref = _reference("bdm", k)
    zero_normal = constraint == "zero_normal_trace"
    e_keep = ~mesh.boundary_edge_mask if zero_normal else np.ones(mesh.n_edges, bool)
    per_edge = k + 1
    e_base = -np.ones(mesh.n_edges, dtype=np.int64)
    e_base[e_keep] = per_edge * np.arange(e_keep.sum())
    nxt = per_edge * int(e_keep.sum())
    n_int = ref.n_local - ref.n_edge_dofs
    e = mesh.tri_edges
    m = np.arange(per_edge)
    # Edge dof (le, m) sits at local index le * (k + 1) + m.
    sign = np.where(mesh.tri_edge_along[:, :, None],
                    np.where(mesh.boundary_edge_mask[e], 1.0, -1.0)[:, :, None],
                    np.where(m % 2, -1.0, 1.0))
    base = e_base[e][:, :, None]
    edge_map = np.where(base >= 0, base + m, -1)
    edge_signs = sign * mesh.edge_lengths[e][:, :, None]
    T = mesh.n_triangles
    dof_map = np.concatenate([edge_map.reshape(T, -1), nxt + _interior_dofs(T, n_int)], axis=1)
    signs = np.concatenate([edge_signs.reshape(T, -1),
                            np.repeat(np.sqrt(mesh.Jdet)[:, None], n_int, axis=1)], axis=1)
    total = nxt + T * n_int
    return dof_map, signs, total


def _interior_dofs(n_triangles, n_int):
    """Element-private dof numbers t * n_int + j, as (T, n_int)."""
    return np.arange(n_triangles * n_int, dtype=np.int64).reshape(n_triangles, n_int)


def _build_dg_scalar(mesh, p, constraint):
    n = _reference("dg_pressure", p).n_local
    dof_map = _interior_dofs(mesh.n_triangles, n)
    return dof_map, np.ones_like(dof_map, dtype=float), mesh.n_triangles * n


def _build_dg_vector(mesh, k, constraint):
    n = _reference("dg_vector", k).n_local
    dof_map = _interior_dofs(mesh.n_triangles, n)
    return dof_map, np.ones_like(dof_map, dtype=float), mesh.n_triangles * n


def _build_cr(mesh, p, constraint):
    dof_map = mesh.tri_edges.astype(np.int64).copy()
    return dof_map, np.ones_like(dof_map, dtype=float), mesh.n_edges


def _build_facet(mesh, k, constraint):
    per_edge = k + 1
    dof_map = (per_edge * mesh.tri_edges[:, :, None] + np.arange(per_edge)).reshape(
        mesh.n_triangles, 3 * per_edge)
    return dof_map, np.ones_like(dof_map, dtype=float), per_edge * mesh.n_edges


# --------------------------------------------------------------- dof counts
def count_dofs(topology: TopologySummary, kind: str, degree: int, constraint: str = "none") -> int:
    """Closed-form dof count from entity counts alone.

    Must match build_space's total_dofs on every mesh, and raises what
    build_space raises for the same arguments.  The zero_mean constraint
    does not change the count (it is a solve-time multiplier); use
    FeSpace.constrained_dim for the reduced dimension.
    """
    kind, k = _check_space(kind, degree, constraint, topology.n_components)
    t = topology
    if kind == "lagrange":
        if constraint == "zero_boundary_trace":
            n_v, n_e = t.n_interior_vertices, t.n_interior_edges
        else:
            n_v, n_e = t.n_vertices, t.n_edges
        return n_v + (k - 1) * n_e + (k - 1) * (k - 2) // 2 * t.n_triangles
    if kind == "bdm":
        n_e = t.n_interior_edges if constraint == "zero_normal_trace" else t.n_edges
        if k == 0:
            return n_e
        return (k + 1) * n_e + (k + 1) * (k - 1) * t.n_triangles
    if kind == "dg_pressure":
        return (k + 1) * (k + 2) // 2 * t.n_triangles
    if kind == "dg_vector":
        return (k + 1) * (k + 2) * t.n_triangles
    if kind == "crouzeix_raviart":
        return t.n_edges
    return (k + 1) * t.n_edges  # facet_tangential


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

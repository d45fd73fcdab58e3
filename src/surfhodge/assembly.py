"""Assembly of global sparse operators on surface triangulations.

Every form is evaluated in the reference frame.  On an affine triangle the
Piola map gives v = F vhat / J and grad v = F X G' / J with X = grad(vhat),
g = F'F, G'G = g^-1 and G'F = I, and a scalar gradient is G grad(phihat).
So each form reads the reference values and gradients, shared by all
triangles, and a few numbers per triangle or edge side: (v . w) J =
vhat' g what / J for the vector mass, grad(phi) . grad(psi) J =
grad(phihat)' J g^-1 grad(psihat) for the scalar stiffness (one 2x2-metric
pairing serves both), (f . v) J = (F'f) . vhat for the load, (f .
grad(phi)) J = fhat . grad(phihat) for a Piola-mapped f, eps(u):eps(v) J =
(tr(X' g Y g^-1) + tr(X Y)) / 2J for the SIP volume term and g / J^2 for
convection.  Edge terms read one side-trace tabulation (_side_traces),
which one CSR builder (_side_trace_operator) turns into sparse operators:
the SIP facet terms are products of a jump and a traction operator, and
the convection action upwinds the traces of one operator Psi.

Convection is stepped explicitly, so it exists only as the matrix-free
action C(w) u (convection_action), never as an assembled matrix.

Matrix convention: A[a, b] = form(trial phi_b, test phi_a), so A @ u gives
the residual against the test basis.

Quadrature: triangle rules of exactness 2*degree+3 and edge rules of
exactness 2*degree+2 make every bilinear form exact on affine elements; the
trilinear convection form uses rules of exactness >= 3*degree so that its
discrete energy identity holds to rounding error.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DegreeMismatch, NaNDetected, NonpositiveParameter, NotDivergenceFree
from .fespace import FeField, FeSpace, edge_ref_points, scalar_monomials
from .quadrature import edge_rule, triangle_rule


# ------------------------------------------------------------- tabulations
def volume_rule(space: FeSpace, extra: int = 0):
    return triangle_rule(2 * space.degree + 3 + extra)


def tabulate_field(field: FeField, rule) -> np.ndarray:
    """Field values at the rule's points on every triangle:
    (T, n_q, 3) for vector fields, (T, n_q) for scalar fields."""
    xy = rule.xy
    return field.eval_cells(np.arange(field.space.mesh.n_triangles),
                            np.column_stack([1.0 - xy.sum(axis=1), xy]))


def _gram(F: np.ndarray) -> np.ndarray:
    """F'F of every triangle's (3, 2) matrix as (T, 2, 2), exactly
    symmetric: the metric g from mesh.F, its inverse from mesh.G."""
    return np.einsum("tia,tib->tab", F, F)


def physical_points(mesh, rule) -> np.ndarray:
    """Quadrature point positions (T, n_q, 3)."""
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    return p0[:, None, :] + np.einsum("tid,qd->tqi", mesh.F, rule.xy)


def _scatter(local: np.ndarray, rows_map, rows_signs, cols_map, cols_signs, shape):
    """Accumulate per-element dense blocks into a CSR matrix.

    local is (T, n_rows_loc, n_cols_loc); entries with a constrained-out
    (-1) dof are dropped; duplicates are summed.
    """
    T, nr, nc = local.shape
    vals = local * rows_signs[:, :, None] * cols_signs[:, None, :]
    rows = np.broadcast_to(rows_map[:, :, None], (T, nr, nc)).ravel()
    cols = np.broadcast_to(cols_map[:, None, :], (T, nr, nc)).ravel()
    data = vals.ravel()
    keep = (rows >= 0) & (cols >= 0)
    A = sp.coo_matrix((data[keep], (rows[keep], cols[keep])), shape=shape)
    return A.tocsr()


def _scatter_vec(local: np.ndarray, dof_map, signs, n):
    rows = dof_map.ravel()
    keep = rows >= 0
    return np.bincount(rows[keep], weights=(local * signs).ravel()[keep], minlength=n)


# ------------------------------------------------------------------ volume
def _metric_pairing(metric: np.ndarray, a: np.ndarray, b: np.ndarray, rule) -> np.ndarray:
    """Per-triangle pairings (T, n_a, n_b) sum_q weight_q a_l' metric b_m of
    reference 2-vectors a (n_a, n_q, 2) and b (n_b, n_q, 2): the (T, 2, 2)
    metric times one reference block of component pairs (4, n_a n_b)."""
    block = np.einsum("lqa,mqb,q->ablm", a, b, rule.weights).reshape(4, -1)
    return (metric.reshape(-1, 4) @ block).reshape(-1, len(a), len(b))


def _local_mass(rows: FeSpace, cols: FeSpace, rule) -> np.ndarray:
    """Per-triangle L2 pairings (T, n_r, n_c) of two spaces' local bases:
    a reference Gram block times J for scalar spaces, and for Piola-mapped
    vector spaces the pairing of vhat_a and what_b under g / J."""
    mesh = rows.mesh
    rv, cv = rows.ref.eval(rule.xy), cols.ref.eval(rule.xy)
    if rows.value_shape == "scalar":
        block = np.einsum("lq,mq,q->lm", rv, cv, rule.weights)
        return block[None, :, :] * mesh.Jdet[:, None, None]
    return _metric_pairing(_gram(mesh.F) / mesh.Jdet[:, None, None], rv, cv, rule)


def assemble_mass(space: FeSpace) -> sp.csr_matrix:
    """L2 Gram matrix of the space's global basis (SPD), from the reference
    blocks of _local_mass."""
    local = _local_mass(space, space, volume_rule(space))
    A = _scatter(local, space.dof_map, space.dof_signs, space.dof_map, space.dof_signs,
                 (space.total_dofs, space.total_dofs))
    return (A + A.T) * 0.5


def assemble_cross_mass(rows: FeSpace, cols: FeSpace) -> sp.csr_matrix:
    """Rectangular L2 pairing between two spaces of the same value shape."""
    if rows.value_shape != cols.value_shape:
        raise DegreeMismatch("cross mass requires matching value shapes")
    if rows.mesh is not cols.mesh:
        raise DegreeMismatch("cross mass requires a common mesh")
    local = _local_mass(rows, cols, triangle_rule(rows.degree + cols.degree + 3))
    return _scatter(local, rows.dof_map, rows.dof_signs, cols.dof_map, cols.dof_signs,
                    (rows.total_dofs, cols.total_dofs))


def assemble_broken_stiffness(space: FeSpace) -> sp.csr_matrix:
    """Elementwise grad-grad matrix for scalar spaces (broken for CR/DG):
    the pairing of the reference gradients under J g^-1."""
    rule = volume_rule(space)
    mesh = space.mesh
    X = space.ref.grad(rule.xy)  # (n_loc, n_q, 2)
    local = _metric_pairing(_gram(mesh.G) * mesh.Jdet[:, None, None], X, X, rule)
    A = _scatter(local, space.dof_map, space.dof_signs, space.dof_map, space.dof_signs,
                 (space.total_dofs, space.total_dofs))
    return (A + A.T) * 0.5


def assemble_div(V: FeSpace, Q: FeSpace) -> sp.csr_matrix:
    """Divergence pairing B[i, j] = (div v_j, q_i); exact for affine cells.

    On affine triangles (div v, q) pulls back to a geometry-free reference
    integral, so a single reference block is scattered with the orientation
    factors.
    """
    if V.value_shape != "vector" or Q.value_shape != "scalar":
        raise DegreeMismatch("assemble_div expects (vector, scalar) spaces")
    expected = max(V.degree - 1, 0)
    if Q.degree != expected:
        raise DegreeMismatch(f"pressure degree {Q.degree} does not match BDM degree {V.degree}")
    rule = triangle_rule(2 * V.degree + 2)
    divs = V.ref.div(rule.xy)  # (n_v, n_q), reference
    qv = Q.ref.eval(rule.xy)  # (n_q_loc, n_q)
    block = np.einsum("mq,lq,q->ml", qv, divs, rule.weights)
    local = np.broadcast_to(block, (V.mesh.n_triangles, *block.shape))
    return _scatter(local, Q.dof_map, Q.dof_signs, V.dof_map, V.dof_signs,
                    (Q.total_dofs, V.total_dofs))


def assemble_moment(space: FeSpace) -> np.ndarray:
    """Vector of integrals (phi_i, 1); the zero-mean constraint row."""
    rule = volume_rule(space)
    if space.value_shape != "scalar":
        raise DegreeMismatch("moment vector requires a scalar space")
    block = space.ref.eval(rule.xy) @ rule.weights  # (n_loc,)
    local = block[None, :] * space.mesh.Jdet[:, None]
    return _scatter_vec(local, space.dof_map, space.dof_signs, space.total_dofs)


def load_tabulation(V: FeSpace):
    """Time-independent data of the load vector: the quadrature points
    (T, n_q, 3) and the reference basis values times the weights as
    (n_loc, 2 n_q), shared by all triangles.  Since (f . v) J = (F'f) . vhat
    on an affine triangle, each load maps f to F'f at the points and
    contracts with this table."""
    rule = volume_rule(V, extra=2)
    weighted = V.ref.eval(rule.xy) * rule.weights[:, None]
    return physical_points(V.mesh, rule), weighted.reshape(V.ref.n_local, -1)


def assemble_load(V: FeSpace, f, time: float = 0.0, tab=None) -> np.ndarray:
    """Load vector (f, v_i) of the tangential part of f at the given time.

    f is a vectorized callable f(points, t) mapping positions (n, 3) and
    the time to (n, 3); it is always called with the time.  The
    Piola-mapped basis values F vhat / J lie in each triangle's plane, so
    a normal component of f pairs to zero with them (F'n = 0) and needs no
    projection.  tab, from load_tabulation(V), saves re-tabulating the
    basis on repeated calls.  A load that is not finite (f evaluated
    outside its domain) raises NaNDetected.
    """
    pts, weighted = load_tabulation(V) if tab is None else tab
    flat = pts.reshape(-1, 3)
    fv = np.asarray(f(flat, time), dtype=float).reshape(pts.shape)
    local = np.matmul(fv, V.mesh.F).reshape(len(fv), -1) @ weighted.T
    b = _scatter_vec(local, V.dof_map, V.dof_signs, V.total_dofs)
    if not np.isfinite(b).all():
        raise NaNDetected(f"non-finite load at t = {time:g}")
    return b


def assemble_gradient_load(scalar_space: FeSpace, field: FeField) -> np.ndarray:
    """Load vector (field, grad phi_i) of a Piola-mapped vector field
    against broken gradients.

    Since (f . grad(phi)) J = fhat . grad(phihat) (F'G = I), the load is
    geometry-free: the field's local coefficients times one reference
    block of value-gradient pairs.
    """
    fs = field.space
    rule = triangle_rule(scalar_space.degree + fs.degree + 3)
    block = np.einsum("lqa,mqa,q->lm", fs.ref.eval(rule.xy), scalar_space.ref.grad(rule.xy),
                      rule.weights)
    local = fs.local_coefficients(field.coefficients) @ block
    return _scatter_vec(local, scalar_space.dof_map, scalar_space.dof_signs,
                        scalar_space.total_dofs)


# -------------------------------------------------------------- embeddings
def assemble_rot_embedding(S: FeSpace, V: FeSpace) -> sp.csr_matrix:
    """Matrix whose column j holds the BDM coefficients of rot(phi_j).

    rot of a mapped scalar polynomial transforms with the same Piola map as
    the vector space, so the interpolation is exact: each column represents
    the pointwise-divergence-free, normal-continuous field rot(phi_j).
    Computed from a single reference block (interpolation, not integration:
    shared edge dofs are written once, by the edge-owning triangle).
    """
    if S.value_shape != "scalar" or V.value_shape != "vector":
        raise DegreeMismatch("rot embedding expects (scalar, vector) spaces")
    if S.degree != V.degree + 1:
        raise DegreeMismatch(
            f"rot embedding needs Lagrange degree {V.degree + 1}, got {S.degree}")
    if S.mesh is not V.mesh:
        raise DegreeMismatch("rot embedding requires a common mesh")
    mesh = V.mesh

    # rot-hat of the Lagrange reference basis as vector polynomials of
    # degree k: rot = (d/dy, -d/dx).
    exps_S = S.ref.exps
    exps_k = scalar_monomials(V.degree) if V.degree >= 1 else scalar_monomials(1)
    idx = {e: i for i, e in enumerate(exps_k)}
    n_lag = S.ref.n_local
    rot_coeffs = np.zeros((n_lag, len(exps_k), 2))
    for j in range(n_lag):
        for m, (a, b) in enumerate(exps_S):
            c = S.ref.coeffs[j, m]
            if b > 0:  # d/dy x^a y^b -> b x^a y^(b-1), first component
                rot_coeffs[j, idx[(a, b - 1)], 0] += c * b
            if a > 0:  # -d/dx -> -a x^(a-1) y^b, second component
                rot_coeffs[j, idx[(a - 1, b)], 1] -= c * a
    block = V.ref.apply_dofs(rot_coeffs, exps_k)  # (n_bdm_loc, n_lag)

    # Triangle t writes its edge dofs only on edges it owns (edge_tris[e, 0]).
    T = mesh.n_triangles
    own = np.ones((T, V.ref.n_local), dtype=bool)
    dof_edges = mesh.tri_edges[:, [le for le, _ in V.ref.edge_dofs]]
    own[:, :V.ref.n_edge_dofs] = mesh.edge_tris[dof_edges, 0] == np.arange(T)[:, None]
    rows = np.broadcast_to(V.dof_map[:, :, None], (T, V.ref.n_local, n_lag))
    cols = np.broadcast_to(S.dof_map[:, None, :], rows.shape)
    keep = (own & (V.dof_map >= 0))[:, :, None] & (cols >= 0)
    vals = block[None, :, :] / V.dof_signs[:, :, None]
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(V.total_dofs, S.total_dofs))


# ------------------------------------------------------------- edge traces
def _side_traces(V: FeSpace, edges: np.ndarray, tris: np.ndarray, tq):
    """Traces of V's local basis on the element sides tris (E, S) of
    edges (E,), at the points tq ordered along each global edge tangent.

    With the side's outward conormal nu, the edge tangent tau and X =
    grad(vhat), each trace contracts the reference value and gradient with
    per-side 2-vectors: the normal value vhat . F'nu / J, the tangential
    value vhat . F'tau / J and the co-normal traction tau . eps(v) nu =
    X : (F'tau (x) G'nu + F'nu (x) G'tau) / 2J.  The reference data are
    tabulated once per local edge and orientation.  Returns the local edge
    indices (E, S) and the traces (3, S, n_q, E, n_loc): normal,
    tangential, traction.
    """
    mesh = V.mesh
    le = np.argmax(mesh.tri_edges[tris] == edges[:, None, None], axis=2)
    flip = ~mesh.tri_edge_along[tris, le]
    tau = np.broadcast_to(mesh.edge_tangents[edges][:, None], tris.shape + (3,))
    dirs = np.stack([mesh.conormals[tris, le], tau], axis=2)  # (E, S, nu/tau, 3)
    Fd = np.einsum("esia,esdi->esda", mesh.F[tris], dirs) / mesh.Jdet[tris][..., None, None]
    Gd = np.einsum("esia,esdi->esda", mesh.G[tris], dirs)
    # per-side functionals on (vhat_0, vhat_1, X_00, X_01, X_10, X_11)
    coef = np.zeros(tris.shape + (3, 6))
    coef[:, :, :2, :2] = Fd
    (Fn, Ft), (Gn, Gt) = Fd.transpose(2, 0, 1, 3), Gd.transpose(2, 0, 1, 3)
    traction = Ft[..., :, None] * Gn[..., None, :] + Fn[..., :, None] * Gt[..., None, :]
    coef[:, :, 2, 2:] = 0.5 * traction.reshape(tris.shape + (4,))
    n_loc, n_q = V.ref.n_local, len(tq)
    out = np.empty(tris.shape + (3, n_q * n_loc))
    for i in range(3):
        for f in (False, True):
            xy = edge_ref_points(i, tq, f)
            ref = np.concatenate([V.ref.eval(xy), V.ref.grad(xy).reshape(n_loc, n_q, 4)], axis=2)
            sel = (le == i) & (flip == f)
            out[sel] = coef[sel] @ ref.transpose(2, 1, 0).reshape(6, -1)
    return le, out.reshape(tris.shape + (3, n_q, n_loc)).transpose(2, 1, 3, 0, 4)


def _side_trace_operator(n_cols: int, cols: np.ndarray, signs: np.ndarray,
                         traces: np.ndarray) -> sp.csr_matrix:
    """Sparse map from global coefficients to traces on edge sides.

    traces (..., n) holds, for each row (the leading axes, flattened in C
    order), the traces of n local basis functions; cols and signs, which
    broadcast against traces, hold their global dofs and orientation
    factors.  Entries whose dof is negative (removed by a trace constraint
    or structurally zero) are dropped.  Each row's entries are written in
    row order, so indptr and indices need no sorting.
    """
    data = traces * signs
    cols = np.broadcast_to(cols, data.shape)
    keep = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=-1).ravel())])
    return sp.csr_matrix((data[keep], cols[keep], indptr), shape=(len(indptr) - 1, n_cols))


# ---------------------------------------------------------------- SIP form
_SIDES = np.array([[1.0], [-1.0]])  # side 0 counts +, side 1 - (jumps, fluxes w . nu_0)


def assemble_sip(V: FeSpace, mu: float, alpha: float | None = None,
                 dirichlet: bool = True) -> sp.csr_matrix:
    """Symmetric interior penalty form for the surface viscous operator.

    Element term mu eps(u):eps(v), with eps(u) = (grad u + grad u')/2 the
    tangential symmetric gradient: the weak form of -div(mu eps(u)) in the
    momentum equation u_t + (u . grad) u - div(mu eps(u)) + grad p = f,
    which for div u = 0 on a flat domain is -(mu/2) Lap u, so mu is twice
    the nu of -nu Lap u.  Consistency terms pair the average
    co-normal traction with tangential jumps, and the penalty
    (alpha mu / h_E) <[u]_tau, [v]_tau>.  With dirichlet=True the same terms
    are added on boundary edges (Nitsche enforcement of homogeneous
    tangential Dirichlet data); dirichlet=False leaves boundary edges
    untouched (free slip).

    The element term is the per-triangle row g (x) g^-1 times a reference
    block of gradient pairs, plus a constant block, over 2J.  The facet
    terms read side-trace operators with rows (point, edge) over both
    sides' dofs, the tangential jump P_j and the average co-normal traction
    P_g (the single traction on a boundary edge): with W the edge weights
    times lengths, -P_g' W P_j - (P_g' W P_j)' + (alpha mu / h) P_j' W P_j,
    added as P_j' W ((alpha mu / h) P_j - 2 P_g) since A is symmetrized.

    alpha defaults to 4 (k+1)^2.
    """
    if mu <= 0:
        raise NonpositiveParameter("viscosity mu must be positive")
    if alpha is None:
        alpha = 4.0 * (V.degree + 1) ** 2
    if alpha <= 0:
        raise NonpositiveParameter("penalty alpha must be positive")
    mesh = V.mesh
    k = V.degree
    n_loc = V.ref.n_local

    rule = volume_rule(V)
    X = V.ref.grad(rule.xy)  # (n_loc, n_q, 2, 2)
    pairs = np.einsum("lqab,mqcd,q->abcdlm", X, X, rule.weights).reshape(16, -1)
    trace = np.einsum("lqab,mqba,q->lm", X, X, rule.weights).ravel()
    ggi = np.einsum("tac,tdb->tabcd", _gram(mesh.F), _gram(mesh.G)).reshape(-1, 16)
    local = (mu * 0.5 / mesh.Jdet)[:, None] * (ggi @ pairs + trace)
    A = _scatter(local.reshape(-1, n_loc, n_loc), V.dof_map, V.dof_signs, V.dof_map,
                 V.dof_signs, (V.total_dofs, V.total_dofs))

    edges = np.flatnonzero(~mesh.boundary_edge_mask | dirichlet)
    if len(edges) == 0:
        return (A + A.T) * 0.5
    tq, tw = edge_rule(2 * k + 2)
    n_e = len(edges)
    bnd = mesh.boundary_edge_mask[edges]
    tris = mesh.edge_tris[edges]
    # a boundary edge's second side repeats the first; its dofs are dropped below
    tris[bnd, 1] = tris[bnd, 0]
    _, tr = _side_traces(V, edges, tris, tq)
    cols = V.dof_map[tris].reshape(n_e, -1)
    cols[bnd, n_loc:] = -1
    signs = V.dof_signs[tris].reshape(n_e, -1)
    # jump v0 - v1; average traction (t0 - t1) / 2, or t0 on a boundary edge
    jump = _SIDES[..., None, None] * tr[1]
    trac = (mu * np.where(bnd, 1.0, 0.5)[:, None]) * _SIDES[..., None, None] * tr[2]
    h_e = mesh.edge_lengths[edges]
    w = (tw[:, None] * h_e)[None, :, :, None]
    P_j, WQ = (_side_trace_operator(V.total_dofs, cols, signs,
                                    t.transpose(1, 2, 0, 3).reshape(len(tq), n_e, -1))
               for t in (jump, w * ((alpha * mu / h_e)[:, None] * jump - 2.0 * trac)))
    A = A + P_j.T @ WQ
    return (A + A.T) * 0.5


# -------------------------------------------------------------- convection
def _divergence_tabulation(V: FeSpace):
    """Quadrature rule of divergence_norm and the reference divergences
    (n_loc, n_q) of V's basis at its points."""
    rule = triangle_rule(2 * V.degree + 2)
    return rule, V.ref.div(rule.xy)


def divergence_norm(V: FeSpace, coefficients: np.ndarray) -> float:
    """||div u||_{L2}, evaluated pointwise before squaring.

    Summing the pointwise divergences first keeps the cancellation error at
    eps * scale instead of the sqrt(eps) floor of the Gram quadratic form,
    so machine-zero divergences measure as ~1e-15 relative.
    """
    loc = V.local_coefficients(np.asarray(coefficients, dtype=float))
    return _divergence_norm(V, loc, _divergence_tabulation(V))


def _divergence_norm(V: FeSpace, loc: np.ndarray, tab) -> float:
    rule, ref_div = tab
    # (div u)^2 J = (divhat uhat)^2 / J at each point
    sq = ((loc @ ref_div) ** 2 @ rule.weights) @ (1.0 / V.mesh.Jdet)
    return float(np.sqrt(max(sq, 0.0)))


def convection_tabulation(V: FeSpace) -> dict:
    """State-independent tabulations for the convection form.

    Built once by the Navier-Stokes stepper so that each time step only
    evaluates the fields.  "vol" keeps the volume term in the reference
    frame, with the triangles as the fastest-varying axis of every
    per-point array: the rule, the reference basis values R
    (2 * n_q, n_loc) and the reference gradients of the test functions
    times -weights (n_loc, 4 * n_q), both shared by all triangles, and the
    metric g = F'F / J^2 of each triangle as (2, 2, 1, T).  "edge" holds
    the side-trace operator Psi of the interior edges, its transpose and
    the edge quadrature weights times edge lengths (n_q_e * E,).  Row
    (c, s, q, e) of Psi is the normal (c = 0, on the side's outward
    conormal) or tangential (c = 1, on the edge tangent) trace of side s
    of edge e at point q, from _side_traces; the edges vary fastest, so the
    upwind arithmetic runs over long contiguous rows.  "div" holds the
    reference divergences of the divergence-free check.
    """
    mesh = V.mesh
    k = V.degree
    n_loc = V.ref.n_local
    cache: dict = {"space": V, "div": _divergence_tabulation(V)}
    rule = triangle_rule(max(2 * k + 3, 3 * k))
    vals = V.ref.eval(rule.xy).transpose(2, 1, 0)  # (2, n_q, n_loc)
    grads = np.moveaxis(V.ref.grad(rule.xy) * -rule.weights[:, None, None], 1, -1)
    g = _gram(mesh.F).transpose(1, 2, 0) / mesh.Jdet**2
    cache["vol"] = (rule, vals.reshape(-1, n_loc), grads.reshape(n_loc, -1), g[:, :, None, :])

    tq, tw = edge_rule(max(2 * k + 2, 3 * k))
    interior = np.flatnonzero(~mesh.boundary_edge_mask)
    t_sides = mesh.edge_tris[interior]  # (E, 2)
    le, tr = _side_traces(V, interior, t_sides, tq)
    # A normal trace on an edge is fixed by that edge's k + 1 moments, so a
    # normal row keeps only the side's own edge dofs, at local indices
    # le (k + 1) .. le (k + 1) + k; the other dofs' traces vanish exactly.
    dofs = V.dof_map[t_sides].transpose(1, 0, 2)[:, None]
    own = np.arange(n_loc) // (k + 1) == le.T[:, None, :, None]
    psi = _side_trace_operator(V.total_dofs, np.stack([np.where(own, dofs, -1), dofs]),
                               V.dof_signs[t_sides].transpose(1, 0, 2)[:, None], tr[:2])
    cache["edge"] = (psi, psi.T, (tw[:, None] * mesh.edge_lengths[interior]).ravel())
    return cache


def _reference_values(cache: dict, loc: np.ndarray):
    """Reference values Uhat (2, n_q, T) at the convection rule's points of
    the field with local coefficients loc (T, n_loc), and g Uhat.  The
    physical value is F Uhat / J, so |u|^2 = Uhat . g Uhat."""
    _, R, _, g = cache["vol"]
    uh = (R @ loc.T).reshape(2, -1, len(loc))
    return uh, (g * uh).sum(axis=1)


def convection_action(V: FeSpace, w: FeField, u: np.ndarray, cache: dict | None = None):
    """(C(w) u, max |w|) for the upwind DG convection form c_h(w; u, v),
    without forming C; max |w| is taken over the volume quadrature points
    (the stepper's CFL bound reads it).

    Element term -(u, grad(v) w) plus facet upwind terms (w . nu)(u_up . v)
    over element boundaries, with the tangential trace of u taken from the
    upwind element and the (single-valued) normal trace from the element
    itself.  Boundary edges carry no flux for fields with zero normal trace
    and are skipped.  The quadrature is exact for the trilinear form, which
    makes c_h(w; u, u) >= 0 hold to rounding error for divergence-free w.

    w must live in V and be discretely divergence-free (|div w| <= 1e-8
    |w|, else NotDivergenceFree).  A cache from convection_tabulation(V)
    avoids re-tabulating the basis data; one built for another space
    raises DegreeMismatch.

    The fields are evaluated once, in reference coordinates: on an affine
    triangle the ambient gradient of a Piola-mapped basis function is
    (F / J) grad(vhat) G' with G' F = I, so the volume term is
    sum_q weight_q grad(vhat_a) : (g Uhat) (x) What, one GEMM against the
    shared reference gradients.  The facet term applies the side-trace
    operator Psi, takes the tangential rows of both sides from side 0 where
    the weighted flux w . nu_0 is positive (side 0 is upwind) and from side
    1 elsewhere, weights side 0 by the flux and side 1 by its negative, and
    applies Psi'.  When u is w's coefficient array, the evaluations of w
    serve for u.
    """
    if not V.same_as(w.space):
        raise DegreeMismatch("convecting field must live in the velocity space")
    if cache is None:
        cache = convection_tabulation(V)
    elif cache.get("space") is not V:
        raise DegreeMismatch("convection tabulation was built for another space")
    w_loc = V.local_coefficients(w.coefficients)
    wm = float(np.linalg.norm(w.coefficients))
    if wm > 0 and _divergence_norm(V, w_loc, cache["div"]) > 1e-8 * wm:
        raise NotDivergenceFree("convecting field is not discretely divergence-free")

    grads = cache["vol"][2]
    same = u is w.coefficients
    wh, gw = _reference_values(cache, w_loc)
    gu = gw if same else _reference_values(cache, V.local_coefficients(u))[1]
    wmax = float(np.sqrt(max((wh * gw).sum(axis=0).max(), 0.0)))
    local = grads @ (gu[:, None] * wh[None]).reshape(grads.shape[1], -1)
    out = _scatter_vec(local.T, V.dof_map, V.dof_signs, V.total_dofs)

    psi, psi_t, wq = cache["edge"]
    if psi.shape[0] == 0:
        return out, wmax
    tr_w = psi @ w.coefficients
    tr = (tr_w if same else psi @ u).reshape(2, 2, -1)  # (normal/tangential, side, point)
    wn = tr_w[:len(wq)] * wq
    tr[1] = np.where(wn > 0, tr[1, 0], tr[1, 1])
    return out + psi_t @ (tr * (wn * _SIDES)).ravel(), wmax

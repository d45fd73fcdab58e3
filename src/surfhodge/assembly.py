"""Assembly of global sparse operators on surface triangulations.

All triangles are affine, so volume integrands reduce to reference
tabulations combined with per-element geometry factors; those contractions
are batched over the whole mesh with einsum.  Edge (DG) terms are batched
over edges the same way, from element-side traces tabulated per (local
edge, orientation) on the reference triangle.

The convection form exists both assembled (assemble_convection, for energy
and operator tests) and matrix-free (convection_action, which applies
C(w) u from the same tabulation without forming C; time stepping uses it).

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

from .errors import DegreeMismatch, NonpositiveParameter, NotDivergenceFree
from .fespace import FeField, FeSpace, edge_ref_points, scalar_monomials
from .quadrature import edge_rule, triangle_rule


# ------------------------------------------------------------- tabulations
def volume_rule(space: FeSpace, extra: int = 0):
    return triangle_rule(2 * space.degree + 3 + extra)


def tabulate_scalar(space: FeSpace, rule):
    """Reference values (n_loc, n_q) and physical tangential gradients
    (T, n_loc, n_q, 3)."""
    xy = rule.xy
    vals = space.ref.eval(xy)
    grads = np.einsum("tid,lqd->tlqi", space.mesh.G, space.ref.grad(xy))
    return vals, grads


def tabulate_vector(space: FeSpace, rule, grads: bool = False):
    """Physical values (T, n_loc, n_q, 3), divergences (T, n_loc, n_q) and
    optionally ambient gradients (T, n_loc, n_q, 3, 3)."""
    mesh = space.mesh
    xy = rule.xy
    ref_vals = space.ref.eval(xy)
    piola = mesh.F / mesh.Jdet[:, None, None]
    vals = np.einsum("tic,lqc->tlqi", piola, ref_vals)
    divs = space.ref.div(xy)[None, :, :] / mesh.Jdet[:, None, None]
    if not grads:
        return vals, divs, None
    g = np.einsum("tia,lqab,tjb->tlqij", piola, space.ref.grad(xy), mesh.G, optimize=True)
    return vals, divs, np.ascontiguousarray(g)  # the step loop contracts g per call


def tabulate_field(field: FeField, rule) -> np.ndarray:
    """Field values at the rule's points on every triangle:
    (T, n_q, 3) for vector fields, (T, n_q) for scalar fields."""
    space = field.space
    loc = space.local_coefficients(field.coefficients)
    if space.value_shape == "scalar":
        vals = space.ref.eval(rule.xy)
        return np.einsum("tl,lq->tq", loc, vals)
    vals, _, _ = tabulate_vector(space, rule)
    return np.einsum("tl,tlqi->tqi", loc, vals)


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
def assemble_mass(space: FeSpace) -> sp.csr_matrix:
    """L2 Gram matrix of the space's global basis (SPD)."""
    rule = volume_rule(space)
    mesh = space.mesh
    if space.value_shape == "scalar":
        vals, _ = tabulate_scalar(space, rule)
        block = np.einsum("lq,mq,q->lm", vals, vals, rule.weights)
        local = block[None, :, :] * mesh.Jdet[:, None, None]
    else:
        vals, _, _ = tabulate_vector(space, rule)
        local = np.einsum("tlqi,tmqi,q->tlm", vals, vals, rule.weights) * mesh.Jdet[:, None, None]
    A = _scatter(local, space.dof_map, space.dof_signs, space.dof_map, space.dof_signs,
                 (space.total_dofs, space.total_dofs))
    return (A + A.T) * 0.5


def assemble_cross_mass(rows: FeSpace, cols: FeSpace) -> sp.csr_matrix:
    """Rectangular L2 pairing between two spaces of the same value shape."""
    if rows.value_shape != cols.value_shape:
        raise DegreeMismatch("cross mass requires matching value shapes")
    if rows.mesh is not cols.mesh:
        raise DegreeMismatch("cross mass requires a common mesh")
    rule = triangle_rule(rows.degree + cols.degree + 3)
    mesh = rows.mesh
    if rows.value_shape == "scalar":
        rv, _ = tabulate_scalar(rows, rule)
        cv, _ = tabulate_scalar(cols, rule)
        block = np.einsum("lq,mq,q->lm", rv, cv, rule.weights)
        local = block[None, :, :] * mesh.Jdet[:, None, None]
    else:
        rv, _, _ = tabulate_vector(rows, rule)
        cv, _, _ = tabulate_vector(cols, rule)
        local = np.einsum("tlqi,tmqi,q->tlm", rv, cv, rule.weights) * mesh.Jdet[:, None, None]
    return _scatter(local, rows.dof_map, rows.dof_signs, cols.dof_map, cols.dof_signs,
                    (rows.total_dofs, cols.total_dofs))


def assemble_broken_stiffness(space: FeSpace) -> sp.csr_matrix:
    """Elementwise grad-grad matrix for scalar spaces (broken for CR/DG)."""
    rule = volume_rule(space)
    mesh = space.mesh
    _, grads = tabulate_scalar(space, rule)
    local = np.einsum("tlqi,tmqi,q->tlm", grads, grads, rule.weights) * mesh.Jdet[:, None, None]
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
    vals, _ = tabulate_scalar(space, rule)
    block = vals @ rule.weights  # (n_loc,)
    local = block[None, :] * space.mesh.Jdet[:, None]
    return _scatter_vec(local, space.dof_map, space.dof_signs, space.total_dofs)


def load_tabulation(V: FeSpace):
    """Time-independent data of the load vector: quadrature points
    (T, n_q, 3) and basis values pre-multiplied by weights * Jdet
    (T, n_loc, n_q, 3)."""
    rule = volume_rule(V, extra=2)
    vals, _, _ = tabulate_vector(V, rule)
    weighted = vals * (rule.weights[None, :, None] * V.mesh.Jdet[:, None, None])[:, None]
    return physical_points(V.mesh, rule), weighted


def assemble_load(V: FeSpace, f, time: float | None = None, tab=None) -> np.ndarray:
    """Load vector (f, v_i) with f projected onto each tangent plane.

    f is a vectorized callable mapping positions (n, 3) -> (n, 3) (an
    optional time argument is passed through when given); any normal
    component is removed per triangle before integration.  tab, from
    load_tabulation(V), saves re-tabulating the basis on repeated calls.
    """
    pts, weighted = load_tabulation(V) if tab is None else tab
    normals = V.mesh.tri_normals
    flat = pts.reshape(-1, 3)
    fv = f(flat, time) if time is not None else f(flat)
    fv = np.asarray(fv, dtype=float).reshape(pts.shape)
    fv = fv - np.einsum("tqi,ti->tq", fv, normals)[:, :, None] * normals[:, None, :]
    local = np.einsum("tlqi,tqi->tl", weighted, fv)
    return _scatter_vec(local, V.dof_map, V.dof_signs, V.total_dofs)


def assemble_gradient_load(scalar_space: FeSpace, field: FeField) -> np.ndarray:
    """Load vector (field, grad phi_i) against broken gradients."""
    rule = triangle_rule(scalar_space.degree + field.space.degree + 3)
    mesh = scalar_space.mesh
    fv = tabulate_field(field, rule)  # (T, n_q, 3)
    _, grads = tabulate_scalar(scalar_space, rule)
    local = np.einsum("tlqi,tqi,q->tl", grads, fv, rule.weights) * mesh.Jdet[:, None]
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


# ---------------------------------------------------------------- SIP form
def _edge_sides(V: FeSpace, edges: np.ndarray, tris: np.ndarray, tq, need_grads: bool):
    """Physical tabulation of element sides of edges, ordered along each
    global edge tangent.

    tris (E, S) holds the triangles on the sides of edges (E,).  Returns
    their local edge indices (E, S), values (E, S, n_loc, n_q, 3) and
    optionally ambient gradients (E, S, n_loc, n_q, 3, 3).
    """
    mesh = V.mesh
    le = np.argmax(mesh.tri_edges[tris] == edges[:, None, None], axis=2)
    flip = (~mesh.tri_edge_along[tris, le]).astype(int)
    xy = [[edge_ref_points(i, tq, f) for f in (False, True)] for i in range(3)]
    piola = mesh.F[tris] / mesh.Jdet[tris][:, :, None, None]
    ref_vals = np.array([[V.ref.eval(p) for p in row] for row in xy])[le, flip]
    vals = np.einsum("esic,eslqc->eslqi", piola, ref_vals)
    if not need_grads:
        return le, vals, None
    ref_grads = np.array([[V.ref.grad(p) for p in row] for row in xy])[le, flip]
    grads = np.einsum("esia,eslqab,esjb->eslqij", piola, ref_grads, mesh.G[tris],
                      optimize=True)
    return le, vals, grads


def assemble_sip(V: FeSpace, mu: float, alpha: float | None = None,
                 dirichlet: bool = True) -> sp.csr_matrix:
    """Symmetric interior penalty form for the surface viscous operator.

    Element term mu eps(u):eps(v), consistency terms pairing the average
    co-normal traction with tangential jumps, and the penalty
    (alpha mu / h_E) <[u]_tau, [v]_tau>.  With dirichlet=True the same terms
    are added on boundary edges (Nitsche enforcement of homogeneous
    tangential Dirichlet data); dirichlet=False leaves boundary edges
    untouched (free slip).

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

    rule = volume_rule(V)
    _, _, grads = tabulate_vector(V, rule, grads=True)
    eps = 0.5 * (grads + np.swapaxes(grads, 3, 4))
    local = mu * np.einsum("tlqij,tmqij,q->tlm", eps, eps, rule.weights) * mesh.Jdet[:, None, None]
    A = _scatter(local, V.dof_map, V.dof_signs, V.dof_map, V.dof_signs,
                 (V.total_dofs, V.total_dofs))

    tq, tw = edge_rule(2 * k + 2)
    n_loc = V.ref.n_local
    edges = np.flatnonzero(~mesh.boundary_edge_mask | dirichlet)
    if len(edges) == 0:
        return (A + A.T) * 0.5
    n_e = len(edges)
    bnd = mesh.boundary_edge_mask[edges]
    tris = mesh.edge_tris[edges]
    # a boundary edge's second side repeats the first; its dofs are dropped below
    tris[bnd, 1] = tris[bnd, 0]
    le, vals, grads = _edge_sides(V, edges, tris, tq, need_grads=True)
    tau = mesh.edge_tangents[edges]
    h_e = mesh.edge_lengths[edges]
    eps = 0.5 * (grads + np.swapaxes(grads, 4, 5))
    trac = mu * np.einsum("eslqij,esj,ei->eslq", eps, mesh.conormals[tris, le], tau)
    vt = np.einsum("eslqi,ei->eslq", vals, tau)
    # jump v1 - v2; average of co-normal tractions (sig1 nu1 - sig2 nu2)/2,
    # or the single traction on a boundary edge
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
    A = A + _scatter(block, gd, gs, gd, gs, (V.total_dofs, V.total_dofs))
    return (A + A.T) * 0.5


# -------------------------------------------------------------- convection
def _divergence_tabulation(V: FeSpace):
    """Quadrature rule of divergence_norm and the reference divergences
    (n_loc, n_q) of V's basis at its points."""
    rule = triangle_rule(2 * V.degree + 2)
    return rule, V.ref.div(rule.xy)


def divergence_norm(V: FeSpace, coefficients: np.ndarray, tab=None) -> float:
    """||div u||_{L2}, evaluated pointwise before squaring.

    Summing the pointwise divergences first keeps the cancellation error at
    eps * scale instead of the sqrt(eps) floor of the Gram quadratic form,
    so machine-zero divergences measure as ~1e-15 relative.  tab, the
    "div" entry of convection_tabulation(V), saves re-tabulating the basis
    on repeated calls.
    """
    rule, ref_div = _divergence_tabulation(V) if tab is None else tab
    mesh = V.mesh
    loc = V.local_coefficients(np.asarray(coefficients, dtype=float))
    div_vals = np.einsum("tl,lq->tq", loc, ref_div) / mesh.Jdet[:, None]
    sq = np.einsum("tq,q,t->", div_vals**2, rule.weights, mesh.Jdet)
    return float(np.sqrt(max(sq, 0.0)))


def convection_tabulation(V: FeSpace) -> dict:
    """State-independent tabulations for the convection form.

    Built once by the Navier-Stokes stepper so each time step only computes
    the w-dependent parts: volume basis values/gradients, per-interior-edge
    basis traces decomposed into conormal/tangent components, and their
    dof maps and signs, and the reference divergences of the
    divergence-free check.
    """
    mesh = V.mesh
    k = V.degree
    cache: dict = {"space": V, "div": _divergence_tabulation(V)}
    rule = triangle_rule(max(2 * k + 3, 3 * k))
    vals, _, grads = tabulate_vector(V, rule, grads=True)
    cache["vol"] = (rule, vals, grads)

    tq, tw = edge_rule(max(2 * k + 2, 3 * k))
    interior = np.flatnonzero(~mesh.boundary_edge_mask)
    n_e = len(interior)
    t_sides = mesh.edge_tris[interior]  # (E, 2)
    le, svals, _ = _edge_sides(V, interior, t_sides, tq, need_grads=False)
    bn = np.einsum("eslqi,esi->eslq", svals, mesh.conormals[t_sides, le])
    bt = np.einsum("eslqi,ei->eslq", svals, mesh.edge_tangents[interior])
    gd = V.dof_map[t_sides].reshape(n_e, -1)
    gs = V.dof_signs[t_sides].reshape(n_e, -1)
    cache["edge"] = (interior, tq, tw, bn, bt, gd, gs, t_sides)
    return cache


def _convection_setup(V: FeSpace, w: FeField, check_divfree: bool, div_tol: float,
                      cache: dict | None) -> dict:
    """Input checks shared by the assembled and matrix-free convection
    forms; returns the tabulation, built here when cache is None.  A cache
    tabulated for another space raises DegreeMismatch."""
    ws = w.space
    if ws is not V and (ws.kind != V.kind or ws.degree != V.degree or ws.mesh is not V.mesh
                        or ws.total_dofs != V.total_dofs):
        raise DegreeMismatch("convecting field must live in the velocity space")
    if cache is None:
        cache = convection_tabulation(V)
    elif cache.get("space") is not V:
        raise DegreeMismatch("convection tabulation was built for another space")
    if check_divfree:
        wm = float(np.linalg.norm(w.coefficients))
        if wm > 0 and divergence_norm(V, w.coefficients, tab=cache["div"]) > div_tol * wm:
            raise NotDivergenceFree("convecting field is not discretely divergence-free")
    return cache


def assemble_convection(V: FeSpace, w: FeField, check_divfree: bool = True,
                        div_tol: float = 1e-8, cache: dict | None = None) -> sp.csr_matrix:
    """Upwind DG convection form c_h(w; u, v).

    Element term -(u, grad(v) w) plus facet upwind terms (w . nu)(u_up . v)
    over element boundaries, with the tangential trace of u taken from the
    upwind element and the (single-valued) normal trace from the element
    itself.  Boundary edges carry no flux for fields with zero normal trace
    and are skipped.  The quadrature is exact for the trilinear form, which
    makes c_h(w; u, u) >= 0 hold to rounding error for divergence-free w.

    A cache from convection_tabulation(V) avoids re-tabulating the basis
    data; one built for another space raises DegreeMismatch.
    """
    cache = _convection_setup(V, w, check_divfree, div_tol, cache)
    mesh = V.mesh
    rule, vals, grads = cache["vol"]
    w_loc = V.local_coefficients(w.coefficients)
    wv = np.einsum("tl,tlqi->tqi", w_loc, vals)
    local = -np.einsum("tbqi,taqij,tqj,q->tab", vals, grads, wv,
                       rule.weights) * mesh.Jdet[:, None, None]
    A = _scatter(local, V.dof_map, V.dof_signs, V.dof_map, V.dof_signs,
                 (V.total_dofs, V.total_dofs))

    interior, tq, tw, bn, bt, gd, gs, t_sides = cache["edge"]
    if len(interior) == 0:
        return A
    n_loc = V.ref.n_local
    nn = 2 * n_loc
    wq = tw[None, :] * mesh.edge_lengths[interior][:, None]  # (E, n_q)
    # single-valued normal flux of w seen from side 1; upwind element has
    # w . nu_out > 0 there
    wn1 = np.einsum("el,elq->eq", w_loc[t_sides[:, 0]], bn[:, 0])
    cn = wn1 * wq
    up1 = wn1 > 0
    blocks = np.zeros((len(interior), nn, nn))
    for s_idx in range(2):
        sgn = 1.0 if s_idx == 0 else -1.0
        rows_sl = slice(s_idx * n_loc, (s_idx + 1) * n_loc)
        blocks[:, rows_sl, rows_sl] += np.einsum(
            "eaq,ebq,eq->eab", bn[:, s_idx], bn[:, s_idx], sgn * cn)
        blocks[:, rows_sl, 0:n_loc] += np.einsum(
            "eaq,ebq,eq->eab", bt[:, s_idx], bt[:, 0], np.where(up1, sgn * cn, 0.0))
        blocks[:, rows_sl, n_loc:nn] += np.einsum(
            "eaq,ebq,eq->eab", bt[:, s_idx], bt[:, 1], np.where(up1, 0.0, sgn * cn))
    return A + _scatter(blocks, gd, gs, gd, gs, (V.total_dofs, V.total_dofs))


def convection_action(V: FeSpace, w: FeField, u: np.ndarray, div_tol: float = 1e-8,
                      cache: dict | None = None) -> np.ndarray:
    """C(w) u for the form of assemble_convection, without forming C.

    Takes the same checks (w is always checked to be divergence-free) and
    cache.  The volume term contracts in two
    stages, first outer(u, w * weights * Jdet) per quadrature point, then
    against the basis gradients; the facet term evaluates the upwind flux
    per edge and scatters it.
    """
    cache = _convection_setup(V, w, True, div_tol, cache)
    mesh = V.mesh
    rule, vals, grads = cache["vol"]
    w_loc = V.local_coefficients(w.coefficients)
    u_loc = V.local_coefficients(u)
    wJ = rule.weights[None, :] * mesh.Jdet[:, None]
    wv = np.einsum("tl,tlqi->tqi", w_loc, vals) * wJ[:, :, None]
    uv = np.einsum("tl,tlqi->tqi", u_loc, vals)
    local = -np.einsum("taqij,tqij->ta", grads, np.einsum("tqi,tqj->tqij", uv, wv))
    out = _scatter_vec(local, V.dof_map, V.dof_signs, V.total_dofs)

    interior, tq, tw, bn, bt, gd, gs, t_sides = cache["edge"]
    if len(interior) == 0:
        return out
    wq = tw[None, :] * mesh.edge_lengths[interior][:, None]
    wn1 = np.einsum("el,elq->eq", w_loc[t_sides[:, 0]], bn[:, 0])
    # signed flux weight per side: side 0 sees w . nu_0, side 1 its negative
    cn = (wn1 * wq)[:, None, :] * np.array([1.0, -1.0])[None, :, None]
    u_sides = u_loc[t_sides]  # (E, 2, n_loc)
    un = np.einsum("esl,eslq->esq", u_sides, bn)
    ut = np.einsum("esl,eslq->esq", u_sides, bt)
    ut_up = np.where(wn1 > 0, ut[:, 0], ut[:, 1])
    edge = (np.einsum("eslq,esq->esl", bn, un * cn)
            + np.einsum("eslq,esq->esl", bt, ut_up[:, None, :] * cn))
    return out + _scatter_vec(edge.reshape(len(interior), -1), gd, gs, V.total_dofs)

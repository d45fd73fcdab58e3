"""Invariance of topology, dof counts and the Stokes-block verdict under
vertex/triangle relabelling, re-winding and uniform scaling of a mesh."""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from surfhodge import meshes
from surfhodge.errors import SingularOperator
from surfhodge.fespace import VALID_CONSTRAINTS, build_space
from surfhodge.flow import FlowOperators, ReducedSolver, SimulationConfig
from surfhodge.mesh import SurfaceMesh, analyze_topology

BASES = {
    "torus": lambda: meshes.torus_structured(4, 4),
    "pierced_sphere": lambda: meshes.sphere_with_holes(2, 4),
}


def _invariants(mesh):
    """Topology, total_dofs of every space kind and constraint, and whether
    the Stokes streamfunction block solves with and without its gauge."""
    dofs = {(kind, c): build_space(mesh, kind, 1, c).total_dofs
            for kind, cons in VALID_CONSTRAINTS.items() for c in sorted(cons)}
    ops = FlowOperators(mesh, SimulationConfig(k=1))
    verdicts = []
    for gauges in (ops.gauges, ()):
        try:
            ReducedSolver(ops.emb.reduce_matrix(ops.A_visc, gauges))
            verdicts.append("solved")
        except SingularOperator:
            verdicts.append("singular")
    return analyze_topology(mesh).to_dict(), dofs, verdicts


@lru_cache(maxsize=None)
def _reference(name):
    return _invariants(BASES[name]())


def test_reference_verdicts():
    """The closed torus needs its zero-mean gauge; the pierced sphere's
    block is nonsingular without one."""
    assert _reference("torus")[2] == ["solved", "singular"]
    assert _reference("pierced_sphere")[2] == ["solved", "solved"]


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(BASES)),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       log_scale=st.floats(min_value=-3.0, max_value=3.0))
def test_invariant_under_relabel_rewind_scale(name, seed, log_scale):
    base = BASES[name]()
    rng = np.random.default_rng(seed)
    perm = rng.permutation(base.n_vertices)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    tris = inv[base.triangles][rng.permutation(base.n_triangles)]
    # rotate each triangle's vertices and reverse a random subset; the mesh
    # constructor repairs the windings
    shift = rng.integers(0, 3, size=len(tris))
    tris = np.take_along_axis(tris, (np.arange(3) + shift[:, None]) % 3, axis=1)
    flip = rng.random(len(tris)) < 0.5
    tris[flip] = tris[flip, ::-1]
    mesh = SurfaceMesh(10.0 ** log_scale * base.vertices[perm], tris)
    assert _invariants(mesh) == _reference(name)

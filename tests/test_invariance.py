"""Invariance of topology, dof counts, the Stokes-block verdict and the
streamfunction spectrum under vertex/triangle relabelling, re-winding and
uniform scaling of a mesh, and the exact covariance of the harmonic basis
and decompose under scaling by a power of 2."""

import math
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg as dla
from hypothesis import given, settings, strategies as st

from surfhodge import meshes
from surfhodge.errors import SingularOperator
from surfhodge.fespace import VALID_CONSTRAINTS, FeField, build_space
from surfhodge.flow import FlowOperators, ReducedSolver, SimulationConfig
from surfhodge.hodge import HodgeSolver
from surfhodge.mesh import SurfaceMesh, analyze_topology

BASES = {
    "torus": lambda: meshes.torus_structured(4, 4),
    "pierced_sphere": lambda: meshes.sphere_with_holes(2, 4),
}


def _invariants(mesh):
    """Topology, total_dofs of every space kind and constraint, and whether
    the Stokes streamfunction block solves, with its factor pinned or not."""
    dofs = {(kind, c): build_space(mesh, kind, 1, c).total_dofs
            for kind, cons in VALID_CONSTRAINTS.items() for c in sorted(cons)}
    ops = FlowOperators(mesh, SimulationConfig(k=1))
    try:
        verdict = "pinned" if ReducedSolver(ops.A_red).op.pinned else "solved"
    except SingularOperator:
        verdict = "singular"
    return analyze_topology(mesh).to_dict(), dofs, verdict


@lru_cache(maxsize=None)
def _reference(name):
    return _invariants(BASES[name]())


def test_reference_verdicts():
    """The closed torus's block has the constants as its kernel, so its
    factor pins a dof; the pierced sphere's block is nonsingular."""
    assert _reference("torus")[2] == "pinned"
    assert _reference("pierced_sphere")[2] == "solved"


def _spectrum(mesh):
    """Sorted eigenvalues of the streamfunction pencil (A_ss, L).  On a
    closed surface both have the constants as their kernel, so the pencil
    is restricted to the span of every basis function but the first, a
    complement of the constants."""
    ops = FlowOperators(mesh, SimulationConfig(k=1))
    A, L = ops.A_red.A_ss.toarray(), ops.hodge.L.toarray()
    keep = slice(1, None) if ops.S.zero_mean else slice(None)
    return dla.eigh(A[keep, keep], L[keep, keep], eigvals_only=True)


@lru_cache(maxsize=None)
def _reference_spectrum(name):
    return _spectrum(BASES[name]())


def _transformed(name, seed, log_scale):
    """The base mesh with its vertices and triangles relabelled, each
    triangle's vertices rotated or reversed, and scaled by 10**log_scale."""
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
    return SurfaceMesh(10.0 ** log_scale * base.vertices[perm], tris)


CASES = dict(name=st.sampled_from(sorted(BASES)),
             seed=st.integers(min_value=0, max_value=2**32 - 1),
             log_scale=st.floats(min_value=-3.0, max_value=3.0))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(**CASES)
def test_invariant_under_relabel_rewind_scale(name, seed, log_scale):
    assert _invariants(_transformed(name, seed, log_scale)) == _reference(name)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(**CASES)
def test_spectrum_invariant_under_relabel_rewind_scale(name, seed, log_scale):
    """A_ss scales as 1/s**2 and L not at all under x -> s x, so the
    eigenvalues times s**2 are those of the base mesh."""
    got = _spectrum(_transformed(name, seed, log_scale)) * (10.0 ** log_scale) ** 2
    want = _reference_spectrum(name)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def _basis_and_split(mesh, k):
    solver = HodgeSolver(mesh, k)
    basis = solver.harmonic_basis(seed=0)
    v = np.random.default_rng(1).standard_normal(solver.V.total_dofs)
    return basis.vectors, solver.decompose(FeField(solver.V, v), basis)


@pytest.mark.parametrize("mesh, k", [(lambda: meshes.torus_structured(8, 6), 1),
                                     (lambda: meshes.sphere_with_holes(2, 4), 2)],
                         ids=["torus8x6", "pierced_sphere"])
@pytest.mark.parametrize("j", [-60, 60])
def test_basis_and_decompose_scale_exactly_with_power_of_2(mesh, k, j):
    """Scaling the vertices by 2**j is exact in floating point, and so is
    everything downstream: the drawn basis scales by exactly 2**-j, the rot
    and gradient parts of the same coefficient vector are bitwise equal,
    and h_coeffs, psi, residual_norm and lam scale by exactly 2**j."""
    base = mesh()
    H0, c0 = _basis_and_split(base, k)
    H1, c1 = _basis_and_split(SurfaceMesh(np.ldexp(base.vertices, j), base.triangles), k)
    assert np.array_equal(H1, np.ldexp(H0, -j))
    assert np.array_equal(c1.rot_part, c0.rot_part)
    assert np.array_equal(c1.gradient_part, c0.gradient_part)
    for a, b in [(c0.h_coeffs, c1.h_coeffs), (c0.psi.coefficients, c1.psi.coefficients),
                 (c0.lam.coefficients, c1.lam.coefficients)]:
        assert np.array_equal(b, np.ldexp(a, j))
    assert c1.residual_norm == math.ldexp(c0.residual_norm, j)

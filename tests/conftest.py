"""Shared fixtures: the mesh corpus and cached solvers.

Meshes and Hodge solvers are expensive enough to share session-wide; all
randomness in tests is seeded, so sharing is safe.
"""

import numpy as np
import pytest

from surfhodge import meshes
from surfhodge.hodge import HodgeSolver


@pytest.fixture(scope="session")
def corpus():
    return meshes.corpus()


@pytest.fixture(scope="session")
def torus():
    return meshes.torus_structured(8, 8)


@pytest.fixture(scope="session")
def torus3():
    return meshes.torus_structured(3, 3)


@pytest.fixture(scope="session")
def tetra():
    return meshes.tetrahedron()


@pytest.fixture(scope="session")
def sphere4():
    return meshes.sphere_with_holes(2, 4)


@pytest.fixture(scope="session")
def genus2():
    return meshes.genus2_block()


@pytest.fixture(scope="session")
def solver_cache():
    cache: dict = {}

    def get(mesh, k) -> HodgeSolver:
        key = (id(mesh), k)
        if key not in cache:
            cache[key] = HodgeSolver(mesh, k)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def basis_cache(solver_cache):
    cache: dict = {}

    def get(mesh, k, seed=0):
        key = (id(mesh), k, seed)
        if key not in cache:
            cache[key] = solver_cache(mesh, k).harmonic_basis(seed=seed)
        return cache[key]

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def monolithic_solve():
    """Dense solve of the full gauged block system of a BlockSystem for one
    load, the oracle of the Schur solver; solve(system, b_s, b_h) returns
    (x_s, x_h)."""

    def solve(system, b_s, b_h):
        gauges = [] if system.gauge is None else [system.gauge]
        ns, nh, ng = system.n_stream, system.n_harmonic, len(gauges)
        n = ns + nh + ng
        K = np.zeros((n, n))
        K[:ns, :ns] = system.A_ss.toarray()
        if nh:
            K[:ns, ns:ns + nh] = system.A_sh
            K[ns:ns + nh, :ns] = system.A_sh.T
            K[ns:ns + nh, ns:ns + nh] = system.A_hh
        for i, g in enumerate(gauges):
            K[:ns, ns + nh + i] = g
            K[ns + nh + i, :ns] = g
        sol = np.linalg.solve(K, np.concatenate([b_s, b_h, np.zeros(ng)]))
        return sol[:ns], sol[ns:ns + nh]

    return solve

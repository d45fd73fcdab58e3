"""Shared fixtures: the mesh corpus and cached solvers.

Meshes and Hodge solvers are expensive enough to share session-wide; all
randomness in tests is seeded, so sharing is safe.
"""

import weakref

import numpy as np
import pytest
import scipy.sparse as sp

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


@pytest.fixture
def flow_factors(monkeypatch):
    """The FactorizedOperators that surfhodge.flow builds during the test,
    in order of construction."""
    from surfhodge import flow

    made = []

    class Recording(flow.FactorizedOperator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(flow, "FactorizedOperator", Recording)
    return made


@pytest.fixture
def track_factors(monkeypatch):
    """track_factors(module) makes module build FactorizedOperators that
    are recorded, in order of construction, as (matrix, weak reference,
    the weak references of earlier ones alive when it was built), so that
    a test sees which factors were freed and when."""
    from surfhodge import linalg

    built = []

    class Tracked(linalg.FactorizedOperator):
        def __init__(self, A, *args, **kwargs):
            alive = [r for _, r, _ in built if r() is not None]
            super().__init__(A, *args, **kwargs)
            built.append((A, weakref.ref(self), alive))

    def track(module):
        monkeypatch.setattr(module, "FactorizedOperator", Tracked)
        return built

    return track


class _CountingMass(sp.csr_matrix):
    """A mass matrix that counts its products (M @ x)."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


@pytest.fixture
def counting_mass():
    """counting_mass(M) is M as a csr matrix that counts its products
    (M @ x) in its attribute products."""
    return _CountingMass


@pytest.fixture(scope="session")
def monolithic_solve():
    """Dense solve of the full block system of a BlockSystem for one load,
    bordered by the zero-mean constraint moment' x_s = 0 unless moment is
    None: the oracle of the Schur solver; solve(system, b_s, b_h, moment)
    returns (x_s, x_h)."""

    def solve(system, b_s, b_h, moment):
        rows = [] if moment is None else [moment]
        ns, nh, ng = system.A_ss.shape[0], system.n_harmonic, len(rows)
        n = ns + nh + ng
        K = np.zeros((n, n))
        K[:ns, :ns] = system.A_ss.toarray()
        if nh:
            K[:ns, ns:ns + nh] = system.A_sh
            K[ns:ns + nh, :ns] = system.A_sh.T
            K[ns:ns + nh, ns:ns + nh] = system.A_hh
        for i, g in enumerate(rows):
            K[:ns, ns + nh + i] = g
            K[ns + nh + i, :ns] = g
        sol = np.linalg.solve(K, np.concatenate([b_s, b_h, np.zeros(ng)]))
        return sol[:ns], sol[ns:ns + nh]

    return solve

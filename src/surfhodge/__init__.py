"""surfhodge: discrete Helmholtz-Hodge decompositions and pressure-free
surface Stokes/Navier-Stokes solvers on triangulated surfaces."""

__version__ = "0.1.0"

from .fespace import FeField, FeSpace, build_space, count_dofs, eval_basis
from .flow import (
    FlowOperators,
    FlowState,
    NavierStokesStepper,
    SimulationConfig,
    run_simulation,
)
from .hodge import (
    HarmonicBasis,
    HodgeSolver,
    decompose_p0_incomplete,
    verify_dimension,
)
from .mesh import SurfaceMesh, TopologySummary, analyze_topology, edge_frames, load_mesh

__all__ = [
    "FeField",
    "FeSpace",
    "FlowOperators",
    "FlowState",
    "HarmonicBasis",
    "HodgeSolver",
    "NavierStokesStepper",
    "SimulationConfig",
    "SurfaceMesh",
    "TopologySummary",
    "analyze_topology",
    "build_space",
    "count_dofs",
    "decompose_p0_incomplete",
    "edge_frames",
    "eval_basis",
    "load_mesh",
    "run_simulation",
    "verify_dimension",
    "__version__",
]

"""Exception hierarchy shared by all surfhodge modules.

The CLI maps these onto stable exit codes: input/parse problems -> 2,
algorithmic failures -> 3, linear solver failures -> 4.
"""


class SurfHodgeError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------- mesh input
class MeshInputError(SurfHodgeError):
    """Base class for problems with mesh files or mesh combinatorics."""


class ParseError(MeshInputError):
    """Malformed or unreadable input file: mesh, config or harmonic basis."""


class NonTriangle(MeshInputError):
    """Face record with a vertex count different from 3."""


class NonManifold(MeshInputError):
    """An edge is adjacent to more than two triangles."""


class NonOrientable(MeshInputError):
    """No globally consistent triangle orientation exists."""


class DegenerateTriangle(MeshInputError):
    """Triangle area below the degeneracy threshold; the Piola map is singular."""


class DisconnectedMesh(SurfHodgeError):
    """Operation requires a connected surface."""


class IndexOutOfRange(SurfHodgeError, IndexError):
    """Entity index outside the valid range."""


# ------------------------------------------------------------------- spaces
class UnsupportedCombination(SurfHodgeError):
    """Space kind/degree/constraint combination not supported."""


class DegreeMismatch(SurfHodgeError):
    """Incompatible polynomial degrees between coupled spaces."""


class WrongDegree(SurfHodgeError):
    """Operation restricted to a specific polynomial degree."""


class BasisMismatch(SurfHodgeError):
    """Harmonic basis built for a different mesh or degree."""


class DimensionMismatch(SurfHodgeError):
    """Inconsistent operator/vector dimensions."""


class NonpositiveParameter(SurfHodgeError):
    """Parameter required to be positive is not."""


class NotDivergenceFree(SurfHodgeError):
    """Convecting field fails the discrete divergence-free check."""


# ------------------------------------------------------------------ algebra
class SolverError(SurfHodgeError):
    """Base class for linear algebra failures (CLI exit code 4)."""


class SingularMatrix(SolverError):
    """Factorization detected an (exactly) singular matrix."""


class NotSPD(SolverError):
    """Matrix declared SPD fails a positivity check."""


class SingularSchur(SolverError):
    """Dense Schur complement for the harmonic unknowns is not positive
    definite: indefinite, singular or not finite."""


class SingularOperator(SolverError):
    """Reduced operator is singular beyond the constants (e.g. mu = 0)."""


class SolverFailure(SolverError):
    """Generic linear solve failure."""


# ---------------------------------------------------------------- algorithm
class AlgorithmError(SurfHodgeError):
    """Base class for algorithmic failures (CLI exit code 3)."""


class MaxAttemptsExceeded(AlgorithmError):
    """Randomized harmonic basis search did not terminate; usually signals a
    topology/assembly inconsistency."""


class NaNDetected(AlgorithmError):
    """Blow-up guard: NaN/Inf appeared in a time-stepping state."""

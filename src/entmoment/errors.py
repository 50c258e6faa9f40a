"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Dimension outside what an operation supports."""


class ShapeError(ValueError):
    """Array shape inconsistent with the requested operation."""


class DomainError(ValueError):
    """Scalar parameter outside its admissible range."""


class NormalizationError(ValueError):
    """Trace or weight normalization violated."""


class PositivityError(ValueError):
    """Matrix fails positive semidefiniteness beyond tolerance."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class NonFiniteError(ValueError):
    """Array holds NaN or infinite entries."""


class SymmetryError(ValueError):
    """Matrix fails a required Hermitian symmetry."""


class FormatError(ValueError):
    """File content structurally malformed."""


class ConfigurationError(ValueError):
    """Unknown quantity name or inconsistent grid configuration."""


class ResolutionError(ValueError):
    """Grid too coarse for the requested finite-difference stencil."""


class BasisConsistencyError(RuntimeError):
    """Structure constants do not reproduce the basis products."""


class ConvergenceError(RuntimeError):
    """Iterative solver failed to converge within its sweep budget."""


class CrossCheckError(RuntimeError):
    """Two computations of the same quantity disagree."""

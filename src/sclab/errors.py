"""Exception hierarchy shared by all sclab modules."""


class SclabError(Exception):
    """Base class for all sclab errors."""


class TrajectoryEscape(SclabError):
    """A trajectory exceeded the coordinate overflow guard."""


class StepTooCoarse(SclabError):
    """Step-halving convergence check failed for the requested step size."""


class DegenerateDirection(SclabError):
    """Control potential has vanishing differential at the starting point."""


class TargetOffCurve(SclabError):
    """Requested target does not lie on the gradient curve."""


class WedgeDegenerate(SclabError):
    """Control differentials do not span the cotangent space."""


class LinearSolveFailed(SclabError):
    """Coefficient solve failed despite a nondegenerate wedge."""


class HypothesisViolated(SclabError):
    """A structural hypothesis check (e.g. control-potential constancy) failed."""


class CausticReached(SclabError):
    """Flow Jacobian fell below the caustic guard threshold."""


class MaskViolation(SclabError):
    """Cutoff support extends beyond the valid region of a WKB field."""


class GridTooCoarse(SclabError):
    """Momentum spectrum occupies the top grid modes beyond tolerance."""


class GridMismatch(SclabError):
    """Operation requires both wavefunctions on the same grid."""


class QuadratureDivergence(SclabError):
    """Gaussian exponent too large for quadrature damping."""


class TruncationNotConverged(SclabError):
    """Eigenvalues still move when the truncation dimension is doubled."""


class ParseError(SclabError):
    """Config text could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class ValidationError(SclabError):
    """Config value failed validation; carries the offending key path."""

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(message if key is None else f"{key}: {message}")

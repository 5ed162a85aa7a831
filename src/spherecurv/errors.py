"""Exception types shared across the package."""


class SphereCurvError(Exception):
    """Base class for all package-specific errors."""


class ZeroClass(SphereCurvError):
    """A projective class was represented by the zero vector."""


class SpecMismatch(SphereCurvError):
    """Operands built over different bundle data or grids."""


class InvalidLambda(SphereCurvError):
    """Coupling constant outside the admissible range."""


class NonConvergence(SphereCurvError):
    """Newton/continuation failed; carries the continuation trace."""

    def __init__(self, message, trace=None):
        self.trace = trace if trace is not None else []
        super().__init__(message)


class HypothesisViolation(SphereCurvError):
    """Family parameters violate the inequality they are required to satisfy."""

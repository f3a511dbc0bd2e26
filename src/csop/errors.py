"""Exception hierarchy shared by all csop modules.

Three families map onto the CLI exit codes: configuration errors (exit 1),
numerical precondition violations (exit 2) and convergence failures (exit 3).
"""


class CsopError(Exception):
    """Base class for all csop errors."""


class ConfigError(CsopError):
    """Invalid run configuration (exit code 1)."""


class UnknownKeyError(ConfigError):
    pass


class TypeMismatchError(ConfigError):
    pass


class MissingRequiredError(ConfigError):
    pass


class PreconditionError(CsopError):
    """A numerical precondition was violated (exit code 2)."""


class NotCSymmetricError(PreconditionError):
    """The (matrix, conjugation) pair is inconsistent: conj(P) @ (A - z I)
    deviates from symmetry beyond tolerance."""


class SingularShiftError(PreconditionError):
    """The shift z is numerically in the spectrum (smallest antilinear
    eigenvalue below threshold)."""


class IndexOutOfRangeError(PreconditionError):
    pass


class NegativePotentialError(PreconditionError):
    pass


class ShiftInSpectrumError(PreconditionError):
    pass


class BallOutsideDomainError(PreconditionError):
    pass


class InvalidGapError(PreconditionError):
    pass


class QBeyondCriticalError(PreconditionError):
    pass


class ShiftLeavesGapError(PreconditionError):
    pass


class StripViolationError(PreconditionError):
    pass


class ConvergenceError(CsopError):
    """An iterative procedure failed to converge or bracket (exit code 3)."""


class NoGapFoundError(ConvergenceError):
    pass


class BranchPointNotFoundError(ConvergenceError):
    pass


class PairingAmbiguityError(ConvergenceError):
    pass


class DegenerateClusterWarning(UserWarning):
    """Singular values cluster within tolerance; each cluster's basis is one
    orthonormal basis of many."""

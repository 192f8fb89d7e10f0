"""Exception types shared across the package."""


class CVDistillError(Exception):
    """Base class for every package-specific error."""


class IndexOutOfRange(CVDistillError, IndexError):
    """A mode index does not address a valid mode of the system."""


class EmptySubsystem(CVDistillError, ValueError):
    """A subsystem selection contains no modes."""


class UnphysicalState(CVDistillError, ValueError):
    """A covariance matrix violates the uncertainty bound (thermal occupation below 1)."""


class NumericalFailure(CVDistillError, ArithmeticError):
    """An eigenvalue or matrix factorisation routine broke down."""


class GlobalStateNotPure(CVDistillError, ValueError):
    """Pure-state entanglement was requested for a mixed global state."""


class VacuumModeSubtraction(CVDistillError, ValueError):
    """Photon subtraction attempted on a mode with (numerically) zero mean photon number."""


class SingularCovariance(CVDistillError, ArithmeticError):
    """A reduced covariance matrix is too ill-conditioned to invert reliably."""


class InvalidOccupation(CVDistillError, ValueError):
    """A thermal occupation below the vacuum value of 1 was supplied."""


class InvalidAdjacency(CVDistillError, ValueError):
    """A graph adjacency matrix is not symmetric, not square, or has a nonzero diagonal."""


class TooManyModes(CVDistillError, ValueError):
    """The requested system size exceeds what the operation can enumerate or simulate."""


class CutoffTooSmall(CVDistillError, ArithmeticError):
    """Accumulated Fock-space truncation leakage exceeded the configured tolerance."""


class FockBudgetExceeded(CVDistillError, MemoryError):
    """A Fock tensor, or its cached gates, at the requested cutoff would exceed the oracle's memory budget."""


class ZeroNorm(CVDistillError, ArithmeticError):
    """A ladder operation annihilated the state (e.g. subtraction from vacuum)."""


class ConfigError(CVDistillError, ValueError):
    """An experiment configuration failed validation."""


class BoundViolation(CVDistillError):
    """An emitted entanglement increase exceeded the log 2 cap."""

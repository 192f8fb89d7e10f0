"""Exception types shared across the package, and below them every bound the package checks, each once."""


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
    """Accumulated Fock-space truncation leakage exceeded LEAK_TOL."""


class FockBudgetExceeded(CVDistillError, MemoryError):
    """A Fock tensor at the requested cutoff would exceed the oracle's memory budget."""


class ZeroNorm(CVDistillError, ArithmeticError):
    """A ladder operation annihilated the state (e.g. subtraction from vacuum)."""


class ConfigError(CVDistillError, ValueError):
    """An experiment configuration failed validation."""


class BoundViolation(CVDistillError):
    """An emitted entanglement increase exceeded the log 2 cap."""


# the bounds: each value, what it guards and the error or verdict it triggers
SYMMETRY_TOL = 1e-10  # largest |V - V^T| entry a GaussianState accepts (ValueError)
OCCUPATION_TOL = 1e-9  # round-off below 1 that a williamson_many occupation may carry (UnphysicalState)
PURITY_TOL = 1e-9  # round-off above 1 that a Gaussian purity may carry, clamped to 1 (UnphysicalState)
PURE_GLOBAL_TOL = 1e-6  # how far below 1 the purity of a state taken as pure may lie (GlobalStateNotPure)
ADJACENCY_TOL = 1e-12  # largest |A - A^T| entry a GraphSpec adjacency accepts (InvalidAdjacency)
VACUUM_WEIGHT_TOL = 1e-10  # largest <a^dag a> (add: <a a^dag>) of a vacuum mode g (stacked: NaN; else VacuumModeSubtraction)
CONDITION_LIMIT = 1e12  # largest cond(V_A) the phase-space route inverts (SingularCovariance)
LEAK_TOL = 1e-10  # truncation leakage any Fock state allows (CutoffTooSmall)
ZERO_WEIGHT = 1e-300  # an annihilated Fock state lighter than this is zero (ZeroNorm)
DELTA_E_SLACK = 1e-9  # round-off above log 2 that an emitted delta_e may carry (BoundViolation)
RATIO_SLACK = 1e-12  # round-off below 1/2 that a verify-bounds ratio may carry before it is a violation
REL_ERR_FLOOR = 1e-6  # below this |reference| an oracle-check gap is absolute, not relative
ORACLE_GRID_TOL = 1e-6  # largest gap of the chain grid from the Fock oracle
ORACLE_THERMAL_TOL = 1e-8  # largest gap of the thermal mode's excess ratio - 1/2 from the Fock oracle
ORACLE_TWO_PATH_TOL = 1e-8  # largest gap between the Wigner and closed-form relative purities
ORACLE_TENSOR_BYTES = 1 << 28  # bytes of a grid case's cutoff**m tensor (FockBudgetExceeded)
TRIALS_LIMIT = 10**8  # largest --trials, about 7 minutes of verify-bounds at about 4.1 us a trial (ConfigError)

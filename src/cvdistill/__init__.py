"""Gaussian optical networks, single-photon subtraction/addition, and the
Renyi-2 entanglement bounds they obey.

The package provides three mutually independent computation routes for the
purity change caused by removing or adding one photon in a multimode
Gaussian state: a closed form over the thermal decomposition, a Wigner
phase-space moment calculation, and a brute-force truncated Fock simulator
used as the verification oracle.
"""

from .errors import (
    BoundViolation,
    ConfigError,
    CutoffTooSmall,
    CVDistillError,
    EmptySubsystem,
    FockBudgetExceeded,
    GlobalStateNotPure,
    IndexOutOfRange,
    InvalidAdjacency,
    InvalidOccupation,
    NumericalFailure,
    SingularCovariance,
    TooManyModes,
    UnphysicalState,
    VacuumModeSubtraction,
    ZeroNorm,
)
from .fock import (
    FockArray,
    annihilate,
    apply_gate_fock,
    create,
    gaussian_fock,
    reduced_purity,
    suggested_cutoff,
    thermal_purification,
    vacuum_fock,
)
from .networks import ChainSpec, GraphSpec, build_chain, build_graph, chain_elements, graph_elements, grid_adjacency
from .photon import (
    LOG_2,
    cut_masks,
    entanglement_increase,
    entanglement_increase_cuts,
    relative_purity_closed_form,
    relative_purity_wigner_many,
)
from .states import (
    BogoliubovRow,
    GaussianState,
    WilliamsonDecomposition,
    apply_circuit,
    bogoliubov_row,
    ladder_blocks,
    purity,
    reduce_state,
    renyi2_entanglement_pure,
    to_snapshot,
    vacuum,
    williamson,
)
from .symplectic import (
    CircuitElement,
    beamsplitter,
    compose,
    cz,
    displacement,
    element_to_symplectic,
    single_mode_squeezer,
    two_mode_squeezer,
)

__version__ = "0.1.0"

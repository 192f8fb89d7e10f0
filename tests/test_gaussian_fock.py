"""Tests for fock.gaussian_fock, the oracle's Fock state builder: the Bargmann
recurrence from a pure Gaussian state's covariance and mean."""

import math

import numpy as np
import pytest

from cvdistill import (
    ChainSpec,
    CutoffTooSmall,
    GaussianState,
    GraphSpec,
    TooManyModes,
    apply_circuit,
    apply_gate_fock,
    beamsplitter,
    build_chain,
    build_graph,
    chain_elements,
    cz,
    displacement,
    gaussian_fock,
    graph_elements,
    grid_adjacency,
    single_mode_squeezer,
    two_mode_squeezer,
    vacuum,
    vacuum_fock,
)
from cvdistill.errors import LEAK_TOL
from cvdistill.symplectic import euler_factors, euler_symplectic
from fock_reference import covariance_fock
from test_fock import _printed_at_thread_counts


def _gate_route(elements, m, d, pad=32):
    # the circuit reference: every element applied to the vacuum tensor by its exact exponential, at a
    # cutoff pad levels above d, so that its own truncation error is far below the comparison's, then
    # cut to d
    state = vacuum_fock(m, d + pad)
    for elem in elements:
        state = apply_gate_fock(state, elem)
    return state.data[(slice(0, d),) * m]


def _phase_gap(got, ref):
    # largest amplitude gap once the global phase of ref is matched to got's
    overlap = np.vdot(ref, got)
    return float(np.abs(got - ref * overlap / abs(overlap)).max())


def _random_circuit(m, rng):
    # squeezers, then two-mode squeezers, beamsplitters and CZs in turn at random modes and parameters,
    # then a complex displacement of each mode: CZ couples x to p, so V_xp is nonzero and A complex
    elements = [single_mode_squeezer(i, rng.uniform(-0.3, 0.3)) for i in range(m)]
    for kind in range(6):
        i, j = rng.choice(m, size=2, replace=False)
        elements.append(two_mode_squeezer(i, j, rng.uniform(-0.3, 0.3)) if kind % 3 == 0 else
                        beamsplitter(i, j, rng.uniform(-math.pi, math.pi)) if kind % 3 == 1 else
                        cz(i, j, rng.uniform(-0.4, 0.4)))
    return elements + [displacement(i, complex(*rng.uniform(-0.4, 0.4, 2))) for i in range(m)]


CIRCUITS = {
    "chain-2": (chain_elements(ChainSpec(m=2, r=0.4, alpha_g=0.5 + 0.2j)), 2, 20),
    "chain-3": (chain_elements(ChainSpec(m=3, r=0.8, alpha_g=-0.2 + 0.4j)), 3, 30),
    "cz-path-1x3": (graph_elements(GraphSpec(adjacency=0.4 * grid_adjacency(1, 3), squeezing_db=2.0,
                                             alpha_g=0.3 - 0.2j)), 3, 20),
    **{f"random-{m}-{seed}": (_random_circuit(m, np.random.default_rng(seed)), m, 24)
       for m, seed in ((2, 1), (2, 2), (3, 3), (3, 4))},
}


@pytest.mark.parametrize("name", CIRCUITS)
def test_matches_the_gate_route_up_to_a_global_phase(name):
    # the circuit-to-V check: the tensor read from the Gaussian side's (V, mean) is the one the
    # circuit's gates build from the vacuum, to round-off
    elements, m, d = CIRCUITS[name]
    got = gaussian_fock(apply_circuit(vacuum(m), elements), d)
    assert _phase_gap(got.data, _gate_route(elements, m, d)) <= 1e-14


def test_a_chain_gap_from_the_gate_route_at_its_own_cutoff_is_the_gate_route_truncation():
    # the 3-mode r = 0.8 chain at cutoff 30: the gate route's exponentials, padded to 60 levels and
    # cut back to 30 after each gate, lose 3.3e-10 there; with 32 levels more, it closes on the
    # recurrence to round-off
    spec = ChainSpec(m=3, r=0.8, alpha_g=0.5 + 0.2j)
    got = gaussian_fock(build_chain(spec), 30).data
    assert 1e-10 < _phase_gap(got, _gate_route(chain_elements(spec), 3, 30, pad=0)) < 1e-9
    assert _phase_gap(got, _gate_route(chain_elements(spec), 3, 30)) <= 1e-14


def _random_pure_state(m, seed):
    # S S^T of a random passive x squeeze x passive map, at a complex mean on every mode
    rng = np.random.default_rng(seed)
    unitaries, log_squeeze = euler_factors(rng.standard_normal((2, 2, m, m)), rng.uniform(size=m), 0.35)
    s_mat = euler_symplectic(unitaries, log_squeeze)
    return GaussianState(m=m, mean=rng.uniform(-0.8, 0.8, 2 * m), cov=s_mat @ s_mat.T)


@pytest.mark.parametrize("m, seed", [(1, 5), (2, 6), (2, 7), (3, 8)])
def test_moments_are_the_state_s(m, seed):
    # a random pure state, its passive factors mixing x with p: the tensor's quadrature moments are
    # the (V, mean) it was read from
    state = _random_pure_state(m, seed)
    got = gaussian_fock(state, 28)
    mean, cov = covariance_fock(got)
    assert np.abs(mean - state.mean).max() <= 1e-9 and np.abs(cov - state.cov).max() <= 1e-9


@pytest.mark.parametrize("state", [_random_pure_state(1, 9), build_chain(ChainSpec(m=2, r=0.7, alpha_g=0.4j)),
                                   build_graph(GraphSpec(adjacency=0.4 * grid_adjacency(1, 3), squeezing_db=2.0,
                                                         alpha_g=-0.3 + 0.1j))],
                         ids=["random-1", "chain-2", "cz-path-1x3"])
def test_kept_amplitudes_are_the_same_bits_at_any_cutoff(state):
    # an amplitude's arithmetic does not depend on the cutoff: a larger one only appends amplitudes
    small, large = gaussian_fock(state, 25), gaussian_fock(state, 41)
    assert large.data[(slice(0, 25),) * state.m].tobytes() == small.data.tobytes()


@pytest.mark.parametrize("state", [_random_pure_state(2, 10), build_chain(ChainSpec(m=3, r=0.5, alpha_g=0.6 - 0.2j))],
                         ids=["random-2", "chain-3"])
def test_vacuum_amplitude_and_leakage(state):
    # psi_0 is real and |psi_0|^2 = det((V + I) / 2)^(-1/2) exp(-mu^T (V + I)^-1 mu / 2), the
    # Husimi function at the origin; the leakage is the norm the cutoff drops
    plus = state.cov + np.eye(2 * state.m)
    vacuum_weight = np.linalg.det(plus / 2) ** -0.5 * math.exp(-0.5 * state.mean @ np.linalg.solve(plus, state.mean))
    got = gaussian_fock(state, 30)
    psi_0 = got.data[(0,) * state.m]
    assert psi_0.imag == 0 and psi_0.real > 0
    assert abs(psi_0.real ** 2 - vacuum_weight) <= 1e-14 * vacuum_weight
    assert got.leakage == max(0.0, 1.0 - got.weight()) <= LEAK_TOL


def test_a_cutoff_too_small_raises():
    # the 2-mode r = 0.7 chain keeps 1 - 4.2e-4 of its norm at cutoff 8: far above LEAK_TOL
    state = build_chain(ChainSpec(m=2, r=0.7, alpha_g=0.5))
    with pytest.raises(CutoffTooSmall, match="at cutoff 8"):
        gaussian_fock(state, 8)
    assert gaussian_fock(state, 40).leakage <= LEAK_TOL


def test_too_many_modes_before_any_amplitude():
    with pytest.raises(TooManyModes):
        gaussian_fock(vacuum(5), 3)


_RECURRENCE_SCRIPT = """
import hashlib
from cvdistill import ChainSpec, build_chain, gaussian_fock
from cvdistill.fock import reduced_purity
st = gaussian_fock(build_chain(ChainSpec(m=3, r=0.8, alpha_g=0.5 + 0.3j)), 30)
print(hashlib.sha256(st.data.tobytes()).hexdigest(), repr(st.leakage), repr(reduced_purity(st, [0])))
"""


def test_independent_of_blas_threads():
    # A from a LAPACK solve, then elementwise arithmetic only: the same bits at any thread count
    values = _printed_at_thread_counts(_RECURRENCE_SCRIPT)
    assert values[0] == values[1]

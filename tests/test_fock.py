"""Tests for the truncated Fock-space oracle.

This module is the independent referee for everything analytic, so its own
behaviour is pinned against hand-computable states: number states, coherent
states, two-mode squeezed vacuum and thermal states, the last through their
purifications.
"""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from cvdistill import (
    ChainSpec,
    CutoffTooSmall,
    EmptySubsystem,
    IndexOutOfRange,
    InvalidOccupation,
    TooManyModes,
    ZeroNorm,
    annihilate,
    apply_gate_fock,
    beamsplitter,
    build_chain,
    chain_elements,
    create,
    cz,
    displacement,
    reduced_purity,
    single_mode_squeezer,
    suggested_cutoff,
    thermal_purification,
    two_mode_squeezer,
    vacuum,
    vacuum_fock,
    apply_circuit,
)
from cvdistill import fock
from cvdistill.fock import (
    _WIDTH,
    FockArray,
    _gate_terms,
    _ladder,
    gate_cache_bytes,
    _eigensolve,
    _spectra,
    _unit_blocks,
    _unit_spectrum,
)
from fock_reference import (
    coupling,
    covariance_fock,
    density_purity,
    eigh_propagator,
    expectation,
    mean_photon,
    normal_form,
    number_basis_state,
    reduce_density,
    restricted_propagator,
    thermal_density,
    thermal_product_purification,
    unit_blocks,
    unit_normal_form,
)


def test_vacuum_is_normalised():
    st = vacuum_fock(2, 10)
    assert_allclose(st.weight(), 1.0)
    assert st.leakage == 0.0


def test_mode_limit_enforced():
    with pytest.raises(TooManyModes):
        vacuum_fock(5, 4)


def test_annihilate_number_state():
    st = number_basis_state([2], 10)
    out = annihilate(st, 0)
    expected = np.zeros(10, dtype=complex)
    expected[1] = np.sqrt(2.0)
    assert_allclose(out.data, expected)
    assert_allclose(out.weight(), 2.0)  # success weight tr(a^dag a rho)


def test_annihilate_vacuum_raises():
    with pytest.raises(ZeroNorm):
        annihilate(vacuum_fock(1, 8), 0)


def test_create_acts_as_raising():
    st = create(vacuum_fock(1, 8), 0)
    assert_allclose(st.data[1], 1.0)
    assert_allclose(mean_photon(st, 0), 1.0)


def test_zero_parameter_gate_is_identity():
    st = vacuum_fock(2, 12)
    out = apply_gate_fock(st, two_mode_squeezer(0, 1, 0.0))
    assert_allclose(out.data, st.data, atol=1e-14)
    assert out.leakage < 1e-14


def test_displacement_produces_coherent_state():
    alpha = 0.5 + 0.2j
    st = apply_gate_fock(vacuum_fock(1, 30), displacement(0, alpha))
    a = np.diag(np.sqrt(np.arange(1.0, 30)), 1)
    got = expectation(st, [(a, 0)])
    assert abs(got - alpha) < 1e-9
    assert abs(mean_photon(st, 0) - abs(alpha) ** 2) < 1e-9


def test_tmsv_photon_number():
    st = apply_gate_fock(vacuum_fock(2, 30), two_mode_squeezer(0, 1, 1.0))
    expected = math.sinh(0.5) ** 2
    assert abs(mean_photon(st, 0) - expected) < 1e-10
    assert abs(mean_photon(st, 1) - expected) < 1e-10


def test_tmsv_covariance_matches_gaussian_path():
    # pins every sign convention shared by the two sides
    st = apply_gate_fock(vacuum_fock(2, 30), two_mode_squeezer(0, 1, 1.0))
    mean, cov = covariance_fock(st)
    gauss = apply_circuit(vacuum(2), [two_mode_squeezer(0, 1, 1.0)])
    assert_allclose(mean, gauss.mean, atol=1e-9)
    assert_allclose(cov, gauss.cov, atol=1e-8)
    assert_allclose(cov[0, 0], math.cosh(1.0), atol=1e-9)


@pytest.mark.parametrize("elem", [
    beamsplitter(0, 1, 0.6),
    cz(0, 1, 0.8),
    single_mode_squeezer(0, 0.4),
])
def test_gate_covariances_match_gaussian_path(elem):
    base = [single_mode_squeezer(0, 0.3), single_mode_squeezer(1, -0.2)]
    # cutoff 48: at 40 the squeezers on mode 0 leak 2.8e-10, above LEAK_TOL; at 48, 4.5e-12
    st = vacuum_fock(2, 48)
    for e in base + [elem]:
        st = apply_gate_fock(st, e)
    mean, cov = covariance_fock(st)
    gauss = apply_circuit(vacuum(2), base + [elem])
    assert_allclose(cov, gauss.cov, atol=1e-7)
    assert_allclose(mean, gauss.mean, atol=1e-9)


def test_cutoff_too_small_fails_loud():
    st = vacuum_fock(2, 4)
    with pytest.raises(CutoffTooSmall):
        apply_gate_fock(st, two_mode_squeezer(0, 1, 1.5))


def test_every_state_is_held_to_leak_tol(monkeypatch):
    # one two-mode squeezer r = 0.6 at cutoff 8 leaks tanh(0.3)^16 = 2.7e-9, in (LEAK_TOL, 1e-8]:
    # a library-built state raises with no bound given, as an oracle-check state does
    squeezer, bound = two_mode_squeezer(0, 1, 0.6), fock.LEAK_TOL
    with pytest.raises(CutoffTooSmall):
        apply_gate_fock(vacuum_fock(2, 8), squeezer)
    monkeypatch.setattr(fock, "LEAK_TOL", 1e-8)
    assert bound < apply_gate_fock(vacuum_fock(2, 8), squeezer).leakage <= 1e-8


def test_reduce_density_of_product_state():
    st = number_basis_state([1, 0], 6)
    rho = reduce_density(st, [0])
    expected = np.zeros((6, 6))
    expected[1, 1] = 1.0
    assert_allclose(rho, expected)
    assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)


def test_reduce_density_subset_rule():
    # the subset rule of states.subsystem_modes: sorted, deduplicated, nonempty, in range
    st = number_basis_state([1, 2, 0], 4)
    assert_allclose(reduce_density(st, [1, 0, 1]), reduce_density(st, (0, 1)))
    with pytest.raises(EmptySubsystem):
        reduce_density(st, [])
    for subsystem in ([0, 3], [-1], 3):
        with pytest.raises(IndexOutOfRange):
            reduce_density(st, subsystem)


def test_bell_state_reduction_is_maximally_mixed():
    d = 6
    data = np.zeros((d, d), dtype=complex)
    data[1, 0] = data[0, 1] = 1.0 / math.sqrt(2.0)
    bell = FockArray(m=2, cutoff=d, data=data)
    rho = reduce_density(bell, [0])
    assert_allclose(rho[0, 0], 0.5, atol=1e-12)
    assert_allclose(rho[1, 1], 0.5, atol=1e-12)
    assert_allclose(density_purity(rho), 0.5, atol=1e-12)
    assert_allclose(reduced_purity(bell, [0]), 0.5, atol=1e-12)
    assert_allclose(-math.log(reduced_purity(bell, [0])), math.log(2.0), atol=1e-12)


def test_single_photon_through_beamsplitter_gives_bell_entropy():
    st = create(vacuum_fock(2, 12), 0)
    st = apply_gate_fock(st, beamsplitter(0, 1, math.pi / 4.0))
    assert_allclose(-math.log(reduced_purity(st, [0])), math.log(2.0), atol=1e-9)


def test_tmsv_reduction_is_thermal():
    st = apply_gate_fock(vacuum_fock(2, 30), two_mode_squeezer(0, 1, 1.0))
    rho = reduce_density(st, [0])
    nbar = math.sinh(0.5) ** 2
    assert abs(np.diag(rho).real @ np.arange(30) - nbar) < 1e-10
    # thermal covariance parameter n = 2 nbar + 1 = cosh(1)
    assert_allclose(rho, thermal_density(math.cosh(1.0), 30), atol=1e-9)


def test_purity_of_pure_reduced_state_is_one():
    st = number_basis_state([1, 2], 5)
    assert_allclose(density_purity(reduce_density(st, [0, 1])), 1.0, atol=1e-12)
    assert_allclose(reduced_purity(st, [0]), 1.0, atol=1e-12)


def _printed_at_thread_counts(script):
    values = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        values.append(run.stdout)
    return values


def _pure_states(m):
    # a displaced squeezed vacuum (m = 1) or the r = 0.8 chain at complex alpha
    # (m >= 2), each with its create copy, at d = 30
    if m == 1:
        elems, g = [single_mode_squeezer(0, 0.4), displacement(0, 0.3 + 0.2j)], 0
    else:
        spec = ChainSpec(m=m, r=0.8, alpha_g=0.5 + 0.3j)
        elems, g = chain_elements(spec), spec.resolved_g
    st = vacuum_fock(m, 30)
    for e in elems:
        st = apply_gate_fock(st, e)
    return st, create(st, g)


def _cuts(m):
    for mask in range(1, 2 ** m - 1):
        part = [i for i in range(m) if mask >> i & 1]
        yield part, [i for i in range(m) if not mask >> i & 1]


@pytest.mark.parametrize("m", [2, 3])
def test_reduced_purity_is_the_same_from_either_side(m):
    for st in _pure_states(m):
        for part, rest in _cuts(m):
            p_a, p_b = reduced_purity(st, part), reduced_purity(st, rest)
            if len(part) != len(rest):
                # both calls form the smaller side's Gram matrix
                assert p_a == p_b
            else:
                # equal sides: two Gram matrices, equal in exact arithmetic
                assert abs(p_a - p_b) <= 1e-12 * p_a


@pytest.mark.parametrize("m", [1, 2, 3])
def test_reduced_purity_matches_reduced_density(m):
    for st in _pure_states(m):
        assert reduced_purity(st, range(m)) == 1.0
        for part, _ in _cuts(m):
            expected = density_purity(reduce_density(st, part))
            got = reduced_purity(st, part)
            if len(part) == 1:
                assert got == expected
            else:
                assert abs(got - expected) <= 1e-12 * expected


def test_reduced_purity_subset_rule_and_input_kind():
    st = number_basis_state([1, 2, 0], 4)
    assert reduced_purity(st, [1, 0, 1]) == reduced_purity(st, (0, 1)) == 1.0
    with pytest.raises(EmptySubsystem):
        reduced_purity(st, [])
    for subsystem in ([0, 3], [-1], 3):
        with pytest.raises(IndexOutOfRange):
            reduced_purity(st, subsystem)
    # the oracle holds pure tensors only: a density-shaped array is not a state
    with pytest.raises(ValueError):
        FockArray(m=2, cutoff=4, data=np.eye(16, dtype=complex))


_REDUCED_PURITY_SCRIPT = """
from cvdistill import ChainSpec, apply_gate_fock, chain_elements, create, vacuum_fock
from cvdistill.fock import reduced_purity
spec = ChainSpec(m=3, r=0.8, alpha_g=0.5 + 0.3j)
st = vacuum_fock(3, 30)
for e in chain_elements(spec):
    st = apply_gate_fock(st, e)
for s in (st, create(st, spec.resolved_g)):
    print([repr(reduced_purity(s, part)) for part in ([0], [1], [2], [0, 1], [0, 2], [1, 2])])
"""


def test_reduced_purity_is_independent_of_blas_threads():
    # the Gram matrix goes through BLAS gemm, which splits its work over threads
    values = _printed_at_thread_counts(_REDUCED_PURITY_SCRIPT)
    assert values[0] == values[1]


def test_thermal_density_limits():
    # the test-side density of fock.thermal_purification's mode 0
    rho = thermal_density(1.0, 10)
    assert rho.dtype == np.float64 and rho.shape == (10, 10)
    assert_allclose(rho[0, 0], 1.0)
    st = thermal_purification(1.0, 10)
    assert st.m == 2 and st.data.shape == (10, 10) and st.data.dtype == np.complex128
    with pytest.raises(InvalidOccupation):
        thermal_purification(0.5, 10)


def test_thermal_density_mean_photon_and_purity():
    # the density and its purification
    rho = thermal_density(2.0, 60)
    st = thermal_purification(2.0, 60)
    assert abs(np.diag(rho) @ np.arange(60) - 0.5) < 1e-8  # (n - 1) / 2
    assert abs(mean_photon(st, 0) - 0.5) < 1e-8
    assert_allclose(reduce_density(st, [0]), rho, atol=1e-15)
    assert abs(reduced_purity(st, [0]) - 0.5) < 1e-8       # 1 / n
    assert_allclose(reduce_density(thermal_product_purification([2.0], 60), [0]), rho, atol=1e-15)


@pytest.mark.parametrize("n", [1.0, 1.5, 2.0, 5.0])
def test_thermal_purification_is_the_truncated_geometric_distribution(n):
    # amplitudes sqrt(p_k) on |k, k>, p the geometric distribution of mean (n - 1) / 2 cut
    # to k < d and renormalised, bit for bit; d = 200 holds n = 5 to (2/3)^200 ~ 1e-35
    d, nbar = 200, (n - 1.0) / 2.0
    probs = (nbar / (nbar + 1.0)) ** np.arange(d)
    probs /= probs.sum()
    st = thermal_purification(n, d)
    assert np.array_equal(st.data, np.diag(np.sqrt(probs)).astype(complex))
    assert st.leakage == 0.0
    assert abs(reduced_purity(st, [0]) - 1.0 / n) <= 1e-12


def test_thermal_trace_oracle_values_at_n2():
    d = 60
    rho = thermal_density(2.0, d)
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    sub = a @ rho @ a.T
    add = a.T @ rho @ a
    assert abs(np.trace(sub) - 0.5) < 1e-8                  # tr(a rho a^dag)
    assert abs(np.trace(sub @ sub) - 5.0 / 64.0) < 1e-8     # tr((a rho a^dag)^2)
    assert abs(np.trace(add @ sub) - 9.0 / 64.0) < 1e-8     # cross term


def test_subtraction_preserves_global_purity_schmidt_symmetry():
    spec = ChainSpec(m=3, r=0.5, alpha_g=0.3)
    st = vacuum_fock(3, 16)
    for e in chain_elements(spec):
        st = apply_gate_fock(st, e)
    minus = annihilate(st, spec.resolved_g)
    for part, rest in (([0], [1, 2]), ([1], [0, 2]), ([0, 1], [2])):
        p_a = density_purity(reduce_density(minus, part))
        p_b = density_purity(reduce_density(minus, rest))
        assert abs(p_a - p_b) < 1e-10


def test_suggested_cutoff_floor_and_scaling():
    assert suggested_cutoff(0.0) == 20
    assert suggested_cutoff(0.5) == 20
    assert suggested_cutoff(2.0) == 30
    assert suggested_cutoff(4.3) == 53


def test_comparison_with_analytic_chain_covariance():
    spec = ChainSpec(m=3, r=0.8, alpha_g=0.5)
    st = vacuum_fock(3, 24)
    for e in chain_elements(spec):
        st = apply_gate_fock(st, e)
    assert st.leakage < 1e-10
    mean, cov = covariance_fock(st)
    gauss = build_chain(spec)
    assert_allclose(mean, gauss.mean, atol=1e-8)
    assert_allclose(cov, gauss.cov, atol=1e-7)


# ---------------------------------------------------------------------------
# the gate terms against expm_multiply on the padded sparse generator


def _sparse_generator(kind, params, dim):
    a = sparse.csr_matrix(_ladder(dim)).astype(complex)
    ad = a.conj().T
    if kind == "two_mode_squeezer":
        (r,) = params
        return (r / 2.0) * (sparse.kron(a, a) - sparse.kron(ad, ad))
    if kind == "single_mode_squeezer":
        (r_s,) = params
        return (r_s / 2.0) * (ad @ ad - a @ a)
    if kind == "beamsplitter":
        (theta,) = params
        return theta * (sparse.kron(ad, a) - sparse.kron(a, ad))
    if kind == "cz":
        (weight,) = params
        x = a + ad
        return 1j * (weight / 2.0) * sparse.kron(x, x)
    re, im = params
    return (re + 1j * im) * ad - (re - 1j * im) * a


def _expm_multiply_axes(tensor, axes, gen, d, padded):
    pads = [(0, padded - d) if ax in axes else (0, 0) for ax in range(tensor.ndim)]
    work = np.moveaxis(np.pad(tensor, pads), axes, range(len(axes)))
    lead = work.shape[: len(axes)]
    flat = expm_multiply(gen.tocsc(), work.reshape(int(np.prod(lead)), -1))
    work = np.moveaxis(flat.reshape(work.shape), range(len(axes)), axes)
    return work[tuple(slice(0, d) if ax in axes else slice(None) for ax in range(work.ndim))]


def _reference_gate(data, elem, d, bra=False):
    """Pad to ``2 d``, exp(gen) by expm_multiply, cut back: the route the propagators replaced.

    With ``bra``, ``data`` is a density tensor, ket axes first, and its bra
    axes take the conjugate exponential.
    """
    m = data.ndim // 2 if bra else data.ndim
    padded = 2 * d
    for modes, kind, params in _gate_terms(elem, m):
        gen = _sparse_generator(kind, params, padded)
        data = _expm_multiply_axes(data, list(modes), gen, d, padded)
        if bra:
            data = _expm_multiply_axes(data, [m + ax for ax in modes], gen.conj(), d, padded)
    return data


def _random_state(m, d, rng):
    # weight on every level, the top ones included, so every block is exercised;
    # a gate leaks much of it, so callers lift fock.LEAK_TOL
    psi = rng.normal(size=(d,) * m) + 1j * rng.normal(size=(d,) * m)
    return FockArray(m=m, cutoff=d, data=psi / np.linalg.norm(psi))


GATES = {
    "two_mode_squeezer": lambda m: two_mode_squeezer(m - 1, 0, 0.7),
    "beamsplitter": lambda m: beamsplitter(m - 1, 0, 0.9),
    "cz": lambda m: cz(0, m - 1, -0.6),
    "single_mode_squeezer": lambda m: single_mode_squeezer(m - 1, 0.5),
    "displacement": lambda m: displacement(m - 1, 0.4 - 0.3j),
}


@pytest.mark.parametrize("kind", sorted(GATES))
@pytest.mark.parametrize("start", ["pure", "purified"])
# the ids name the cutoff and the padding, always the default (None)
@pytest.mark.parametrize("cutoff", [5, 8], ids=["5-None", "8-None"])
def test_propagators_match_expm_multiply(monkeypatch, kind, start, cutoff):
    monkeypatch.setattr(fock, "LEAK_TOL", 1.0)
    rng = np.random.default_rng(cutoff + 10 * (start == "purified"))
    state = _random_state(3, cutoff, rng)
    got = apply_gate_fock(state, GATES[kind](3))
    if start == "pure":
        expected = _reference_gate(state.data, GATES[kind](3), cutoff)
        assert np.abs(got.data - expected).max() <= 1e-13
    else:
        # the gate leaves mode 1 alone, so mode 1 purifies the mixed state rho of
        # modes 0 and 2, and the gated purification must hold U rho U^dag there
        rho = reduce_density(state, [0, 2]).reshape((cutoff,) * 4)
        expected = _reference_gate(rho, GATES[kind](2), cutoff, bra=True)
        assert np.abs(reduce_density(got, [0, 2]) - expected.reshape(cutoff ** 2, -1)).max() <= 1e-13


def test_two_mode_displacement_matches_the_reference_propagators(monkeypatch):
    # one displacement per mode, applied in turn, is each mode's eigh_propagator of (Re alpha, Im alpha)
    monkeypatch.setattr(fock, "LEAK_TOL", 1.0)
    d = 6
    state = _random_state(3, d, np.random.default_rng(4))
    got = state
    for elem in (displacement(2, 0.4 - 0.3j), displacement(0, 0.2j)):
        got = apply_gate_fock(got, elem)
    expected = np.einsum("ck,ajk->ajc", eigh_propagator("displacement", (0.4, -0.3), d), state.data)
    expected = np.einsum("ai,ijk->ajk", eigh_propagator("displacement", (0.0, 0.2), d), expected)
    assert np.abs(got.data - expected).max() <= 1e-13


@pytest.mark.parametrize("alpha", [0, 0j, complex(-0.0, -0.0)])
def test_zero_displacement_adds_no_fock_term(monkeypatch, alpha):
    # alpha = 0 applies nothing, so the r = 0 chain keeps the vacuum's bits: no propagator, no cached spectrum
    monkeypatch.setattr(fock, "LEAK_TOL", 1.0)
    state = _random_state(2, 5, np.random.default_rng(7))
    _spectra.cache_clear()
    out = apply_gate_fock(state, displacement(1, alpha))
    assert out.data.tobytes() == state.data.tobytes() and out.leakage == state.leakage
    assert "displacement" not in _spectra(5)
    squeezer = [two_mode_squeezer(0, 1, 0.5)]
    assert gate_cache_bytes([*squeezer, displacement(1, alpha)], 2, 5) == gate_cache_bytes(squeezer, 2, 5)


def _cached_arrays(d):
    # the distinct arrays the spectrum cache holds at cutoff d: (basis, lam) for CZ, (idx, theta, L[rows]) a block
    # for the rest
    return {id(arr): arr for kind, spectrum in _spectra(d).items()
            for arr in (spectrum if kind == "cz" else (arr for entry in spectrum for arr in entry))}


def test_cached_spectra_are_read_only():
    for kind in (*_WIDTH, "cz"):
        _unit_spectrum(kind, 6)
    arrays = _cached_arrays(6).values()
    assert len(arrays) > 5
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0


@pytest.mark.parametrize("start", ["pure", "purified"])
def test_create_counts_top_level_weight(monkeypatch, start):
    d = 6
    if start == "pure":
        data = np.zeros(d, dtype=complex)
        data[0], data[d - 1] = math.sqrt(1.0 - 1e-6), 1e-3  # top-level weight 1e-6
    else:
        # mode 0 mixes |0> and |d - 1> with weights 1 - 1e-6 and 1e-6; mode 1 purifies it
        data = np.zeros((d, d), dtype=complex)
        data[0, 0], data[d - 1, 1] = math.sqrt(1.0 - 1e-6), 1e-3
    st = FockArray(m=data.ndim, cutoff=d, data=data)
    monkeypatch.setattr(fock, "LEAK_TOL", 1.0)
    plus = create(st, 0)
    dropped = d * 1e-6
    assert_allclose(plus.leakage, dropped / (plus.weight() + dropped), rtol=1e-12)
    monkeypatch.setattr(fock, "LEAK_TOL", 1e-6)
    with pytest.raises(CutoffTooSmall):
        create(st, 0)
    with pytest.raises(CutoffTooSmall):
        create(number_basis_state([d - 1] * st.m, d), 0)


def test_create_keeps_leakage_when_top_level_empty(monkeypatch):
    monkeypatch.setattr(fock, "LEAK_TOL", 1.0)
    st = apply_gate_fock(vacuum_fock(2, 8), two_mode_squeezer(0, 1, 0.4))
    st = replace(st, data=st.data.copy(), leakage=3e-9)
    st.data[-1, :] = 0.0  # mode 0 has nothing at level d - 1
    assert create(st, 0).leakage == 3e-9


# ---------------------------------------------------------------------------
# the unit-generator spectra behind the gates


@pytest.mark.parametrize("kind", sorted(_WIDTH))
def test_unit_generator_blocks_are_real_antisymmetric_with_width_w(kind):
    # the precondition of G = [[0, C], [-C^T, 0]] over the colour classes t // w even and odd
    n_modes = 1 if kind in ("single_mode_squeezer", "displacement") else 2
    for d in range(5, 31):
        for levels, gen in unit_blocks(kind, d, 2 * d):
            assert gen.dtype == np.float64
            assert np.array_equal(gen, -gen.T)
            rows, cols = np.nonzero(gen)
            assert np.all(np.abs(rows - cols) == _WIDTH[kind])
            assert np.any(np.logical_and.reduce([lv < d for lv in levels]))
        # the kept flat indices of the blocks cover every level below d once
        flat = np.concatenate([idx for idx, _, _ in _unit_spectrum(kind, d)])  # (idx, theta, L[rows]) a block
        assert np.array_equal(np.sort(flat), np.arange(d ** n_modes))


@pytest.mark.parametrize("kind", sorted(_WIDTH))
def test_band_built_blocks_match_the_generic_construction_byte_for_byte(kind):
    # each coupling C built from its band, its kept rows and flat indices by arithmetic, against
    # the label masks, np.ix_ gathers and colour-class masks of the full generator; then each
    # block's normal form against the one assembled column by column from the same SVD
    for d in range(2, 31):
        got, expected = list(_unit_blocks(kind, d)), list(unit_blocks(kind, d, 2 * d))
        assert len(got) == len(expected)
        for (c_mat, rows, flats), (levels, gen) in zip(got, expected):
            ref = coupling(gen, _WIDTH[kind])
            assert c_mat.dtype == ref.dtype and c_mat.shape == ref.shape and c_mat.tobytes() == ref.tobytes()
            keep = np.flatnonzero(np.logical_and.reduce([lv < d for lv in levels]))
            assert np.array_equal(np.arange(len(gen))[rows], keep)
            assert np.array_equal(flats[0], np.ravel_multi_index(tuple(lv[keep] for lv in levels), (d,) * len(levels)))
        spectra, ref_spectra = _eigensolve(kind, d), unit_normal_form(kind, d, 2 * d)
        assert len(spectra) == len(ref_spectra)
        for arrays, ref_arrays in zip(spectra, ref_spectra):
            for arr, ref in zip(arrays, ref_arrays, strict=True):
                assert arr.dtype == ref.dtype and arr.shape == ref.shape and arr.tobytes() == ref.tobytes()


UNIT_CASES = [
    ("two_mode_squeezer", (0.7,)), ("two_mode_squeezer", (-1.2,)),
    ("beamsplitter", (0.9,)), ("beamsplitter", (-2.5,)),
    ("single_mode_squeezer", (0.5,)), ("single_mode_squeezer", (-1.0,)),
    ("displacement", (0.4, 0.3)), ("displacement", (-0.7, 0.2)),
    ("displacement", (-0.2, -0.5)), ("displacement", (1.1, -0.6)),
    ("displacement", (0.0, -0.8)), ("displacement", (-0.9, 0.0)),
]


@pytest.mark.parametrize("kind, params", UNIT_CASES)
@pytest.mark.parametrize("cutoff, padded", [(5, 10), (7, 14), (12, 24)])
def test_propagator_matches_expm_of_padded_generator(kind, params, cutoff, padded):
    # the ids name the cutoff and the padding, always twice the cutoff
    got = restricted_propagator(kind, params, cutoff)
    if kind in ("single_mode_squeezer", "displacement"):
        below = np.arange(cutoff)
    else:
        below = (np.arange(cutoff)[:, None] * padded + np.arange(cutoff)).reshape(-1)
    expected = expm(_sparse_generator(kind, params, padded).toarray())[np.ix_(below, below)]
    # real for the squeezers and beamsplitters, whose generators are real
    assert kind == "displacement" or not got.imag.any()
    assert np.abs(got - expected).max() <= 1e-13


def test_beamsplitter_block_matches_a_40_digit_exponential():
    # the unit-spectrum route at theta = -2.5, held to 1e-14 of a 40-digit exponential
    # of the block with the most levels below the cutoff (k = 15, all 16 kept; at
    # padding 2 * cutoff the longest block, k = 30, keeps one), a reference that does
    # not share double-precision expm's round-off
    mpmath = pytest.importorskip("mpmath")
    cutoff, theta = 16, -2.5

    def kept(block):
        levels, _ = block
        return (levels[0] < cutoff) & (levels[1] < cutoff)

    levels, gen = max(unit_blocks("beamsplitter", cutoff, 2 * cutoff), key=lambda block: kept(block).sum())
    keep = kept((levels, gen))
    with mpmath.workdps(40):
        ref = mpmath.expm(mpmath.matrix((theta * gen).tolist()))
        expected = np.array(ref.tolist(), dtype=float)[np.ix_(keep, keep)]
    flat = levels[0][keep] * cutoff + levels[1][keep]
    block = restricted_propagator("beamsplitter", (theta,), cutoff)[np.ix_(flat, flat)]
    assert np.abs(block - expected).max() <= 1e-14


def test_parameters_of_one_kind_share_one_unit_spectrum(monkeypatch):
    solved, eigensolve = [], fock._eigensolve
    monkeypatch.setattr(fock, "_eigensolve", lambda kind, d: solved.append((kind, d)) or eigensolve(kind, d))
    _spectra.cache_clear()
    for kind, first, second in (("beamsplitter", (0.3,), (-0.8,)),
                                ("displacement", (0.2, -0.1), (-0.5, 0.4)),
                                ("cz", (0.6,), (-0.2,))):
        restricted_propagator(kind, first, 9)
        restricted_propagator(kind, second, 9)
    assert solved == [("beamsplitter", 9), ("displacement", 9), ("cz", 9)]
    assert set(_spectra(9)) == {"beamsplitter", "displacement", "cz"}
    # the cache holds one cutoff: a new one drops the last, which is then solved anew
    restricted_propagator("beamsplitter", (0.3,), 10)
    restricted_propagator("beamsplitter", (0.3,), 9)
    assert solved[3:] == [("beamsplitter", 10), ("beamsplitter", 9)]
    assert _spectra.cache_info().currsize == 1 and set(_spectra(9)) == {"beamsplitter"}


@pytest.mark.parametrize("d", [2, 5, 8])
def test_gate_cache_bytes_counts_the_cached_arrays(d):
    # the bytes gate_cache_bytes computes from block sizes are those of the
    # distinct arrays the one spectrum cache holds once the gates are applied
    m, adj = 3, np.array([[0, 1, 0], [1, 0, 0.5], [0, 0.5, 0]])
    spec = ChainSpec(m=m, r=0.6, alpha_g=0.4 - 0.3j)
    cases = [chain_elements(spec), chain_elements(replace(spec, alpha_g=0.0)),
             [single_mode_squeezer(0, 0.2), single_mode_squeezer(1, 0.2), single_mode_squeezer(2, -0.1),
              cz(0, 1, adj[0, 1]), cz(1, 2, adj[1, 2]), cz(0, 2, adj[0, 1])],
             [beamsplitter(0, 1, 0.3), beamsplitter(1, 2, 0.7), displacement(1, 0.2 + 0.1j)]]
    for elements in cases:
        _spectra.cache_clear()
        for elem in elements:
            for modes, kind, params in _gate_terms(elem, m):
                fock._apply_term(np.ones((d,) * m, dtype=complex), list(modes), kind, params, d)
        assert gate_cache_bytes(elements, m, d) == sum(arr.nbytes for arr in _cached_arrays(d).values())
        # and each array owns its buffer, so nbytes is all it holds: a view would keep its whole base alive
        assert all(arr.base is None for arr in _cached_arrays(d).values())


def _per_block_spectra(kind, d, padded):
    # reference: every conserved block of the unit generator built on its own and put
    # in normal form by its own SVD, keyed by the bytes of its flat indices below d
    a = _ladder(padded)
    if kind == "single_mode_squeezer":
        blocks = [((np.arange(padded),), 0.5 * (a.T @ a.T - a @ a))]
    elif kind == "displacement":
        blocks = [((np.arange(padded),), a.T - a)]
    else:
        c, x, y, conserved = (0.5, a, a, np.subtract) if kind == "two_mode_squeezer" else (1.0, a.T, a, np.add)
        n_i, n_j = np.divmod(np.arange(padded * padded), padded)
        label = conserved(n_i, n_j)
        blocks = []
        for k in np.unique(label[(n_i < d) & (n_j < d)]):
            bi, bj = n_i[label == k], n_j[label == k]
            half = c * x[np.ix_(bi, bi)] * y[np.ix_(bj, bj)]
            blocks.append(((bi, bj), half - half.T))
    spectra = {}
    for levels, gen in blocks:
        keep = np.logical_and.reduce([lv < d for lv in levels])
        flat = np.ravel_multi_index(tuple(lv[keep] for lv in levels), (d,) * len(levels))
        spectra[flat.tobytes()] = normal_form(gen, _WIDTH[kind], keep)
    return spectra


@pytest.mark.parametrize("kind", list(_WIDTH))
@pytest.mark.parametrize("d, padded", [(20, 40), (30, 60)])
def test_unit_spectrum_matches_per_block_eigh_bit_for_bit(kind, d, padded):
    # the name is older than the normal form: the reference is now each block's own SVD
    expected = _per_block_spectra(kind, d, padded)
    got = _unit_spectrum(kind, d)
    assert len(got) == len(expected)
    for flat, theta, basis in got:
        ref_theta, ref_basis = expected[flat.tobytes()]
        assert theta.tobytes() == ref_theta.tobytes()
        assert basis.tobytes() == ref_basis.tobytes()


@pytest.mark.parametrize("d, padded", [(20, 40), (30, 60)])
def test_two_mode_squeezer_takes_one_eigensolve_per_distinct_block(monkeypatch, d, padded):
    # the blocks n_i - n_j = k and -k, of padded - |k| states each, are one matrix: one SVD of its
    # coupling, of ceil((padded - k) / 2) x floor((padded - k) / 2), and no eigh
    sizes, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda mat: sizes.append(mat.shape) or svd(mat))
    monkeypatch.setattr(np.linalg, "eigh", _no_eigh)
    spectra = _eigensolve("two_mode_squeezer", d)
    assert sorted(sizes) == sorted(((padded - k + 1) // 2, (padded - k) // 2) for k in range(d))
    assert len(spectra) == 2 * d - 1
    assert len({id(theta) for _, theta, _ in spectra}) == d


def _no_eigh(*args, **kwargs):
    raise AssertionError("a banded gate kind called eigh")


@pytest.mark.parametrize("kind", sorted(_WIDTH))
def test_real_normal_form_matches_the_complex_eigh_route(monkeypatch, kind):
    # the gate term of the real normal form against the complex route it replaced, each block
    # U diag(exp(i x lam)) U^dag from one eigh (fock_reference.unit_spectrum), at every cutoff 2 .. 30
    # and parameters on both sides of 0; the banded kinds call no eigh
    eigh = np.linalg.eigh
    for d in range(2, 31):
        for x in (0.1, -0.1, 0.8, 3.0):
            params = (x, -0.3 * x) if kind == "displacement" else (x,)
            monkeypatch.setattr(np.linalg, "eigh", _no_eigh)
            got = restricted_propagator(kind, params, d)
            monkeypatch.setattr(np.linalg, "eigh", eigh)
            assert kind == "displacement" or not got.imag.any()
            assert np.abs(got - eigh_propagator(kind, params, d)).max() <= 1e-13


@pytest.mark.parametrize("kind", sorted(_WIDTH))
def test_whole_block_exponentials_are_orthogonal(monkeypatch, kind):
    # each block's exponential on all its 2d levels, not only those below d: real orthogonal, and a
    # displacement's R exp(|alpha| (a^dag - a)) R^dag, R = diag(e^(i theta n)), unitary, within 1e-13
    blocks = fock._unit_blocks
    monkeypatch.setattr(fock, "_unit_blocks", lambda *args: ((c, slice(None), f) for c, _, f in blocks(*args)))
    for d in (2, 7, 20, 30):
        for _, theta, basis in _eigensolve(kind, d):
            for x in (0.1, -0.1, 0.8, 3.0):
                block = fock._block(theta, basis, x)
                assert block.dtype == np.float64 and block.shape == (len(theta),) * 2
                if kind == "displacement":
                    rotation = np.exp(1j * (0.3 - x) * np.arange(2 * d))
                    block = rotation[:, None] * block * rotation.conj()
                assert np.abs(block @ block.conj().T - np.eye(len(block))).max() <= 1e-13


def test_squeezer_on_vacuum_builds_one_block(monkeypatch):
    # a two-mode squeezer on vacuum reaches only the block n_0 - n_1 = 0, one of 59 at d = 30: the
    # others' rows are zero, so none of their exponentials is built and their entries stay exactly 0
    built, block = [], fock._block
    monkeypatch.setattr(fock, "_block", lambda theta, basis, x: built.append(len(theta)) or block(theta, basis, x))
    out = apply_gate_fock(vacuum_fock(2, 30), two_mode_squeezer(0, 1, 1.0)).data
    assert built == [60]
    assert np.diag(out).all() and not (out - np.diag(np.diag(out))).any()


_PROPAGATOR_SCRIPT = """
import hashlib
from fock_reference import restricted_propagator
for kind, params in (("two_mode_squeezer", (0.7,)), ("beamsplitter", (-0.9,)),
                     ("single_mode_squeezer", (0.5,)), ("displacement", (-0.4, 0.3)), ("cz", (0.6,))):
    print(kind, hashlib.sha256(restricted_propagator(kind, params, 30).tobytes()).hexdigest())
"""


def test_propagators_are_independent_of_blas_threads():
    # eigh and the U diag U^dag products go through LAPACK and BLAS gemm
    values = _printed_at_thread_counts(_PROPAGATOR_SCRIPT)
    assert values[0] == values[1]

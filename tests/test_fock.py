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
    thermal_density,
    two_mode_squeezer,
    vacuum,
    vacuum_fock,
    apply_circuit,
)
from cvdistill.fock import (
    _WIDTH,
    FockArray,
    _gate_terms,
    _ladder,
    _propagator,
    _unit_blocks,
    _unit_spectrum,
)
from fock_reference import (
    covariance_fock,
    density_purity,
    expectation,
    mean_photon,
    number_basis_state,
    reduce_density,
    thermal_purification,
)


def _shift(m, mode, alpha):
    shift = np.zeros(2 * m)
    shift[mode] = 2 * alpha.real
    shift[m + mode] = 2 * alpha.imag
    return shift


def _displace_elem(m, mode, alpha):
    return displacement(_shift(m, mode, alpha))


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
    st = apply_gate_fock(vacuum_fock(1, 30), _displace_elem(1, 0, alpha))
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
    st = vacuum_fock(2, 40)
    for e in base + [elem]:
        st = apply_gate_fock(st, e)
    mean, cov = covariance_fock(st)
    gauss = apply_circuit(vacuum(2), base + [elem])
    assert_allclose(cov, gauss.cov, atol=1e-7)
    assert_allclose(mean, gauss.mean, atol=1e-9)


def test_cutoff_too_small_fails_loud():
    st = vacuum_fock(2, 4, leak_tol=1e-8)
    with pytest.raises(CutoffTooSmall):
        apply_gate_fock(st, two_mode_squeezer(0, 1, 1.5))


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
        elems, g = [single_mode_squeezer(0, 0.4), _displace_elem(1, 0, 0.3 + 0.2j)], 0
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
    rho = thermal_density(1.0, 10)
    assert rho.dtype == np.float64 and rho.shape == (10, 10)
    assert_allclose(rho[0, 0], 1.0)
    with pytest.raises(InvalidOccupation):
        thermal_density(0.5, 10)


def test_thermal_density_mean_photon_and_purity():
    # the density and its purification
    rho = thermal_density(2.0, 60)
    st = thermal_purification([2.0], 60)
    assert abs(np.diag(rho) @ np.arange(60) - 0.5) < 1e-8  # (n - 1) / 2
    assert abs(mean_photon(st, 0) - 0.5) < 1e-8
    assert_allclose(reduce_density(st, [0]), rho, atol=1e-15)
    assert abs(reduced_purity(st, [0]) - 0.5) < 1e-8       # 1 / n


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
# the cached propagators against expm_multiply on the padded sparse generator


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


def _reference_gate(data, elem, d, pad, bra=False):
    """Pad, exp(gen) by expm_multiply, cut back: the route the propagators replaced.

    With ``bra``, ``data`` is a density tensor, ket axes first, and its bra
    axes take the conjugate exponential.
    """
    m = data.ndim // 2 if bra else data.ndim
    padded = d + (d if pad is None else pad)
    for modes, kind, params in _gate_terms(elem, m):
        gen = _sparse_generator(kind, params, padded)
        data = _expm_multiply_axes(data, list(modes), gen, d, padded)
        if bra:
            data = _expm_multiply_axes(data, [m + ax for ax in modes], gen.conj(), d, padded)
    return data


def _random_state(m, d, rng):
    # weight on every level, the top ones included, so every block is exercised
    psi = rng.normal(size=(d,) * m) + 1j * rng.normal(size=(d,) * m)
    return FockArray(m=m, cutoff=d, data=psi / np.linalg.norm(psi), leak_tol=1.0)


GATES = {
    "two_mode_squeezer": lambda m: two_mode_squeezer(m - 1, 0, 0.7),
    "beamsplitter": lambda m: beamsplitter(m - 1, 0, 0.9),
    "cz": lambda m: cz(0, m - 1, -0.6),
    "single_mode_squeezer": lambda m: single_mode_squeezer(m - 1, 0.5),
    "displacement": lambda m: displacement(_shift(m, m - 1, 0.4 - 0.3j) + _shift(m, 0, 0.2j)),
}


@pytest.mark.parametrize("kind", sorted(GATES))
@pytest.mark.parametrize("start", ["pure", "purified"])
@pytest.mark.parametrize("cutoff, pad", [(5, None), (8, None), (7, 3)])
def test_propagators_match_expm_multiply(kind, start, cutoff, pad):
    rng = np.random.default_rng(cutoff + 10 * (start == "purified"))
    state = _random_state(3, cutoff, rng)
    got = apply_gate_fock(state, GATES[kind](3), pad=pad)
    if start == "pure":
        expected = _reference_gate(state.data, GATES[kind](3), cutoff, pad)
        assert np.abs(got.data - expected).max() <= 1e-13
    else:
        # the gate leaves mode 1 alone, so mode 1 purifies the mixed state rho of
        # modes 0 and 2, and the gated purification must hold U rho U^dag there
        rho = reduce_density(state, [0, 2]).reshape((cutoff,) * 4)
        expected = _reference_gate(rho, GATES[kind](2), cutoff, pad, bra=True)
        assert np.abs(reduce_density(got, [0, 2]) - expected.reshape(cutoff ** 2, -1)).max() <= 1e-13


def test_cached_propagators_are_read_only():
    props = [_propagator(kind, params, 6, 12) for kind, params in (
        ("two_mode_squeezer", (0.5,)), ("beamsplitter", (0.3,)), ("cz", (0.4,)),
        ("single_mode_squeezer", (0.2,)), ("displacement", (0.1, -0.2)),
    )]
    arrays = [arr for p in props for block in p.blocks for arr in block]
    arrays += [arr for p in props for arr in (p.basis, p.phases) if arr is not None]
    assert len(arrays) > 5
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0


@pytest.mark.parametrize("start", ["pure", "purified"])
def test_create_counts_top_level_weight(start):
    d = 6
    if start == "pure":
        data = np.zeros(d, dtype=complex)
        data[0], data[d - 1] = math.sqrt(1.0 - 1e-6), 1e-3  # top-level weight 1e-6
    else:
        # mode 0 mixes |0> and |d - 1> with weights 1 - 1e-6 and 1e-6; mode 1 purifies it
        data = np.zeros((d, d), dtype=complex)
        data[0, 0], data[d - 1, 1] = math.sqrt(1.0 - 1e-6), 1e-3
    st = FockArray(m=data.ndim, cutoff=d, data=data, leak_tol=1.0)
    plus = create(st, 0)
    dropped = d * 1e-6
    assert_allclose(plus.leakage, dropped / (plus.weight() + dropped), rtol=1e-12)
    with pytest.raises(CutoffTooSmall):
        create(replace(st, leak_tol=1e-6), 0)
    with pytest.raises(CutoffTooSmall):
        create(number_basis_state([d - 1] * st.m, d), 0)


def test_create_keeps_leakage_when_top_level_empty():
    st = apply_gate_fock(vacuum_fock(2, 8, leak_tol=1.0), two_mode_squeezer(0, 1, 0.4))
    st = replace(st, data=st.data.copy(), leakage=3e-9)
    st.data[-1, :] = 0.0  # mode 0 has nothing at level d - 1
    assert create(st, 0).leakage == 3e-9


# ---------------------------------------------------------------------------
# the unit-generator spectra behind the propagators


@pytest.mark.parametrize("kind", sorted(_WIDTH))
def test_unit_generator_blocks_are_real_antisymmetric_with_width_w(kind):
    # the precondition of -iG = D J D^dag with J real symmetric
    n_modes = 1 if kind in ("single_mode_squeezer", "displacement") else 2
    for d in range(5, 31):
        for levels, gen in _unit_blocks(kind, d, 2 * d):
            assert gen.dtype == np.float64
            assert np.array_equal(gen, -gen.T)
            rows, cols = np.nonzero(gen)
            assert np.all(np.abs(rows - cols) == _WIDTH[kind])
            assert np.any(np.logical_and.reduce([lv < d for lv in levels]))
        # the kept flat indices of the blocks cover every level below d once
        flat = np.concatenate([idx for idx, _, _ in _unit_spectrum(kind, d, 2 * d)])
        assert np.array_equal(np.sort(flat), np.arange(d ** n_modes))


UNIT_CASES = [
    ("two_mode_squeezer", (0.7,)), ("two_mode_squeezer", (-1.2,)),
    ("beamsplitter", (0.9,)), ("beamsplitter", (-2.5,)),
    ("single_mode_squeezer", (0.5,)), ("single_mode_squeezer", (-1.0,)),
    ("displacement", (0.4, 0.3)), ("displacement", (-0.7, 0.2)),
    ("displacement", (-0.2, -0.5)), ("displacement", (1.1, -0.6)),
    ("displacement", (0.0, -0.8)), ("displacement", (-0.9, 0.0)),
]


@pytest.mark.parametrize("kind, params", UNIT_CASES)
@pytest.mark.parametrize("cutoff, padded", [(5, 10), (7, 10), (12, 24)])
def test_propagator_matches_expm_of_padded_generator(kind, params, cutoff, padded):
    prop = _propagator(kind, params, cutoff, padded)
    if kind in ("single_mode_squeezer", "displacement"):
        below = np.arange(cutoff)
    else:
        below = (np.arange(cutoff)[:, None] * padded + np.arange(cutoff)).reshape(-1)
    expected = expm(_sparse_generator(kind, params, padded).toarray())[np.ix_(below, below)]
    got = np.zeros_like(expected)
    for idx, block in prop.blocks:
        # real for the squeezers and beamsplitters, whose generators are real
        assert block.dtype == (np.complex128 if kind == "displacement" else np.float64)
        got[np.ix_(idx, idx)] = block
    assert np.abs(got - expected).max() <= 1e-13


def test_beamsplitter_block_matches_a_40_digit_exponential():
    # at theta = -2.5 with a pad of 4 the expm reference above is itself off by
    # up to 6e-13, so that test stops at a pad it resolves; here the unit-spectrum
    # route is held to 1e-14 of a 40-digit exponential of its largest block
    mpmath = pytest.importorskip("mpmath")
    cutoff, padded, theta = 16, 20, -2.5
    levels, gen = max(_unit_blocks("beamsplitter", cutoff, padded), key=lambda block: len(block[1]))
    keep = (levels[0] < cutoff) & (levels[1] < cutoff)
    with mpmath.workdps(40):
        ref = mpmath.expm(mpmath.matrix((theta * gen).tolist()))
        expected = np.array(ref.tolist(), dtype=float)[np.ix_(keep, keep)]
    flat = levels[0][keep] * cutoff + levels[1][keep]
    blocks = _propagator("beamsplitter", (theta,), cutoff, padded).blocks
    block = next(block for idx, block in blocks if np.array_equal(idx, flat))
    assert np.abs(block - expected).max() <= 1e-14


def test_parameters_of_one_kind_share_one_unit_spectrum():
    _unit_spectrum.cache_clear()
    _propagator.cache_clear()
    for kind, first, second in (("beamsplitter", (0.3,), (-0.8,)),
                                ("displacement", (0.2, -0.1), (-0.5, 0.4))):
        _propagator(kind, first, 9, 13)
        before = _unit_spectrum.cache_info()
        _propagator(kind, second, 9, 13)
        after = _unit_spectrum.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    assert _unit_spectrum.cache_info().currsize == 2


def _per_block_spectra(kind, d, padded):
    # reference: every conserved block of the unit generator built and
    # eigensolved on its own, keyed by the bytes of its flat indices below d
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
        upper = np.triu(gen)
        lam, vecs = np.linalg.eigh(upper + upper.T)
        phase = np.exp(0.5j * np.pi / _WIDTH[kind] * np.arange(len(gen)))
        flat = np.ravel_multi_index(tuple(lv[keep] for lv in levels), (d,) * len(levels))
        spectra[flat.tobytes()] = (lam, phase[keep, None] * vecs[keep])
    return spectra


@pytest.mark.parametrize("kind", list(_WIDTH))
@pytest.mark.parametrize("d, padded", [(20, 40), (30, 60)])
def test_unit_spectrum_matches_per_block_eigh_bit_for_bit(kind, d, padded):
    expected = _per_block_spectra(kind, d, padded)
    got = _unit_spectrum(kind, d, padded)
    assert len(got) == len(expected)
    for flat, lam, vecs in got:
        ref_lam, ref_vecs = expected[flat.tobytes()]
        assert lam.tobytes() == ref_lam.tobytes()
        assert vecs.tobytes() == ref_vecs.tobytes()


@pytest.mark.parametrize("d, padded", [(20, 40), (30, 60)])
def test_two_mode_squeezer_takes_one_eigensolve_per_distinct_block(monkeypatch, d, padded):
    # the blocks n_i - n_j = k and -k, of padded - |k| states each, are one matrix
    sizes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda mat: sizes.append(len(mat)) or eigh(mat))
    _unit_spectrum.cache_clear()
    spectra = _unit_spectrum("two_mode_squeezer", d, padded)
    _unit_spectrum.cache_clear()
    assert sorted(sizes) == sorted(padded - k for k in range(d))
    assert len(spectra) == 2 * d - 1
    assert len({id(lam) for _, lam, _ in spectra}) == d


_PROPAGATOR_SCRIPT = """
import hashlib
from cvdistill.fock import _propagator
for kind, params in (("two_mode_squeezer", (0.7,)), ("beamsplitter", (-0.9,)),
                     ("single_mode_squeezer", (0.5,)), ("displacement", (-0.4, 0.3))):
    digest = hashlib.sha256()
    for idx, block in _propagator(kind, params, 30, 60).blocks:
        digest.update(idx.tobytes() + block.tobytes())
    print(kind, digest.hexdigest())
"""


def test_propagators_are_independent_of_blas_threads():
    # eigh and the U diag U^dag products go through LAPACK and BLAS gemm
    values = _printed_at_thread_counts(_PROPAGATOR_SCRIPT)
    assert values[0] == values[1]

"""Tests for photon subtraction/addition: the Wigner-moment route, the
closed-form relative purity, thermal trace identities, and the entanglement
increase, each cross-checked against the Fock oracle."""

import itertools
import math

import hypothesis.strategies as hs
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose
from scipy.linalg import expm

from cvdistill import (
    ChainSpec,
    GaussianState,
    GlobalStateNotPure,
    IndexOutOfRange,
    InvalidOccupation,
    SingularCovariance,
    VacuumModeSubtraction,
    WilliamsonDecomposition,
    annihilate,
    apply_circuit,
    apply_gate_fock,
    bogoliubov_row,
    build_chain,
    chain_elements,
    create,
    displacement,
    entanglement_increase,
    entanglement_increase_many,
    photon_reduced_wigner,
    purity_fock,
    purity_of_subtracted,
    random_symplectic,
    reduce_density,
    reduce_state,
    relative_purity_closed_form,
    relative_purity_of_subtracted,
    renyi2_entanglement_pure,
    renyi2_fock,
    thermal_density,
    thermal_product_density,
    thermal_traces,
    two_mode_squeezer,
    vacuum,
    williamson,
)
from cvdistill.cli import bounds_ratios
from cvdistill.photon import BATCH_CHUNK, LOG_2, relative_purity_many


def tmsv(r=1.0):
    return apply_circuit(vacuum(2), [two_mode_squeezer(0, 1, r)])


def thermal_state(nu):
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    return GaussianState(
        m=len(nu), mean=np.zeros(2 * len(nu)), cov=np.diag(np.concatenate([nu, nu]))
    )


def single_mode_row(n, alpha=0.0):
    dec = WilliamsonDecomposition(
        S=np.eye(2), nu=np.array([float(n)]),
        mean=np.array([2.0 * complex(alpha).real, 2.0 * complex(alpha).imag]),
    )
    return dec, bogoliubov_row(dec, 0)


# ---------------------------------------------------------------------------
# thermal traces


def test_thermal_traces_vacuum_limit():
    t = thermal_traces(1.0)
    assert t.a_rho_adag == 0.0
    assert t.adag_rho_a == 1.0
    assert t.a_rho_adag_sq == 0.0
    assert t.adag_rho_a_sq == 1.0
    assert t.adag_rho_a_a_rho_adag == 0.0
    assert t.rho2_adag_a == 0.0
    assert t.rho2_a_adag == 1.0
    assert t.rho_adag_rho_a == 0.0


def test_thermal_traces_at_n2():
    t = thermal_traces(2.0)
    assert_allclose(t.a_rho_adag, 0.5)
    assert_allclose(t.a_rho_adag_sq, 5.0 / 64.0)
    assert_allclose(t.adag_rho_a_a_rho_adag, 9.0 / 64.0)
    assert_allclose(t.rho2_adag_a, 1.0 / 16.0)
    assert_allclose(t.rho2_a_adag, 9.0 / 16.0)
    assert_allclose(t.rho_adag_rho_a, 3.0 / 16.0)


@pytest.mark.parametrize("n", [1.0, 1.5, 7.0])
def test_thermal_trace_commutator_identities(n):
    t = thermal_traces(n)
    assert_allclose(t.adag_rho_a - t.a_rho_adag, 1.0, atol=1e-14)
    assert_allclose(t.rho2_a_adag - t.rho2_adag_a, 1.0 / n, atol=1e-14)


@pytest.mark.parametrize("n", [1.5, 2.0, 5.0])
def test_thermal_traces_against_fock_oracle(n):
    nbar = (n - 1.0) / 2.0
    cutoff = max(60, math.ceil(40 * nbar))
    rho = np.ascontiguousarray(thermal_product_density([n], cutoff).data.real)
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    sub, add = a @ rho @ a.T, a.T @ rho @ a
    oracle = {
        "a_rho_adag": np.trace(sub),
        "adag_rho_a": np.trace(add),
        "a_rho_adag_sq": np.trace(sub @ sub),
        "adag_rho_a_sq": np.trace(add @ add),
        "adag_rho_a_a_rho_adag": np.trace(add @ sub),
        "rho2_adag_a": np.trace(rho @ rho @ a.T @ a),
        "rho2_a_adag": np.trace(rho @ rho @ a @ a.T),
        "rho_adag_rho_a": np.trace(rho @ a.T @ rho @ a),
    }
    t = thermal_traces(n)
    for name, reference in oracle.items():
        value = getattr(t, name)
        assert abs(value - reference) / max(abs(reference), 1e-12) < 1e-8, name


def test_thermal_traces_reject_subvacuum():
    with pytest.raises(InvalidOccupation):
        thermal_traces(0.9)


# ---------------------------------------------------------------------------
# Wigner route


def test_subtraction_from_vacuum_rejected():
    with pytest.raises(VacuumModeSubtraction):
        photon_reduced_wigner(vacuum(2), 0, (0, 1))


def test_subtracted_mode_must_be_in_subsystem():
    with pytest.raises(IndexOutOfRange):
        photon_reduced_wigner(tmsv(1.0), 1, (0,))


def test_ill_conditioned_reduction_rejected():
    cov = np.diag([1e13, 1e-13])
    st = GaussianState(m=1, mean=np.zeros(2), cov=cov)
    with pytest.raises(SingularCovariance):
        photon_reduced_wigner(st, 0, (0,))


def test_subtracted_full_pure_state_stays_pure_and_normalised():
    sub = photon_reduced_wigner(tmsv(1.0), 0, (0, 1))
    assert_allclose(sub.normalization_integral(), 1.0, atol=1e-9)
    assert_allclose(purity_of_subtracted(sub), 1.0, atol=1e-9)


def test_subtracted_thermal_mode_closed_values():
    st = thermal_state(2.0)
    sub = photon_reduced_wigner(st, 0, (0,))
    assert_allclose(relative_purity_of_subtracted(sub), 5.0 / 8.0, atol=1e-12)
    assert_allclose(purity_of_subtracted(sub), 5.0 / 16.0, atol=1e-12)
    assert_allclose(sub.norm, 2.0)  # 4 x mean photon number of the mode


def test_subtracted_states_normalise_for_random_inputs():
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        S = random_symplectic(m, rng, squeeze_bound=1.0)
        nu = rng.uniform(1.0, 4.0, m)
        cov = S @ np.diag(np.concatenate([nu, nu])) @ S.T
        st = GaussianState(m=m, mean=rng.normal(size=2 * m), cov=0.5 * (cov + cov.T))
        g = int(rng.integers(m))
        modes = tuple(sorted(set([g] + list(rng.integers(0, m, size=2)))))
        sub = photon_reduced_wigner(st, g, modes)
        assert abs(sub.normalization_integral() - 1.0) < 1e-9
        mu = purity_of_subtracted(sub)
        assert 0.0 < mu <= 1.0 + 1e-9


def test_wigner_purity_against_numerical_quadrature():
    # independent check of the closed-form Gaussian moments at one mode:
    # brute-force integration of (4 pi) * |W|^2 on a grid
    st = GaussianState(m=1, mean=np.array([0.6, -0.4]), cov=np.diag([2.5, 1.7]))
    sub = photon_reduced_wigner(st, 0, (0,))
    lim, steps = 14.0, 1201
    axis = np.linspace(-lim, lim, steps)
    dx = axis[1] - axis[0]
    xs, ps = np.meshgrid(axis, axis, indexing="ij")
    delta = np.stack([xs - st.mean[0], ps - st.mean[1]], axis=-1)
    vinv = np.linalg.inv(st.cov)
    gauss = np.exp(-0.5 * np.einsum("...i,ij,...j", delta, vinv, delta))
    gauss /= 2.0 * np.pi * math.sqrt(np.linalg.det(st.cov))
    poly = (
        np.einsum("...i,ij,...j", delta, sub.poly_Q, delta)
        + delta @ sub.poly_q
        + sub.poly_c
    )
    wigner = poly * gauss / sub.norm
    norm_quad = wigner.sum() * dx * dx
    purity_quad = 4.0 * np.pi * (wigner ** 2).sum() * dx * dx
    assert abs(norm_quad - 1.0) < 1e-7
    assert abs(purity_quad - purity_of_subtracted(sub)) / purity_quad < 1e-6


# ---------------------------------------------------------------------------
# closed-form relative purity


def test_pure_reduced_state_fixpoint_is_exactly_one():
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        S = random_symplectic(m, rng, squeeze_bound=2.0)
        alpha = rng.normal() + 1j * rng.normal()
        mean = np.zeros(2 * m)
        g = int(rng.integers(m))
        mean[g], mean[m + g] = 2 * alpha.real, 2 * alpha.imag
        dec = WilliamsonDecomposition(S=S, nu=np.ones(m), mean=mean)
        row = bogoliubov_row(dec, g)
        for kind in ("subtract", "add"):
            assert abs(relative_purity_closed_form(dec, row, kind) - 1.0) < 1e-10


@pytest.mark.parametrize("n", [2.0, 10.0, 100.0])
def test_thermal_relative_purity_closed_value(n):
    dec, row = single_mode_row(n)
    expected = (n * n + 1.0) / (2.0 * n * n)
    assert abs(relative_purity_closed_form(dec, row, "subtract") - expected) < 1e-12


def test_bound_saturation_at_large_occupation():
    dec, row = single_mode_row(100.0)
    ratio = relative_purity_closed_form(dec, row, "subtract")
    assert_allclose(ratio, 0.50005, atol=1e-12)
    assert ratio - 0.5 <= 1e-4


def test_vacuum_row_rejected():
    dec, row = single_mode_row(1.0)  # pure vacuum: k=0, l=e0, alpha=0
    with pytest.raises(VacuumModeSubtraction):
        relative_purity_closed_form(dec, row, "subtract")


def test_addition_never_has_zero_weight():
    dec, row = single_mode_row(1.0)
    assert_allclose(relative_purity_closed_form(dec, row, "add"), 1.0, atol=1e-12)


def test_array_closed_form_rejects_a_vacuum_row_in_a_batch():
    dec, row = single_mode_row(3.0, alpha=0.2)
    nu = np.array([[3.0], [1.0], [3.0]])
    k = np.array([row.k, [0j], row.k])
    ell = np.array([row.l, [1 + 0j], row.l])  # middle row: vacuum, k = 0, alpha = 0
    alpha = np.array([0.2, 0.0, 0.2])
    with pytest.raises(VacuumModeSubtraction):
        relative_purity_many(nu, k, ell, alpha)
    ratios = relative_purity_many(nu[::2], k[::2], ell[::2], alpha[::2])
    assert np.array_equal(ratios, [relative_purity_closed_form(dec, row, "subtract")] * 2)


def test_unknown_kind_rejected():
    dec, row = single_mode_row(2.0)
    with pytest.raises(ValueError):
        relative_purity_closed_form(dec, row, "remove")


def test_purity_bound_over_random_mixed_states():
    rng = np.random.default_rng(29)
    worst = 1.0
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        nu = np.sort(rng.uniform(1.0, 10.0, m))[::-1]
        S = random_symplectic(m, rng, squeeze_bound=2.0)
        g = int(rng.integers(m))
        alpha = 2.0 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        mean = np.zeros(2 * m)
        mean[g], mean[m + g] = 2 * alpha.real, 2 * alpha.imag
        dec = WilliamsonDecomposition(S=S, nu=nu, mean=mean)
        row = bogoliubov_row(dec, g)
        for kind in ("subtract", "add"):
            worst = min(worst, relative_purity_closed_form(dec, row, kind))
    assert worst >= 0.5 - 1e-12


def _bounds_ratios_per_trial(seed, trials, kind):
    # the per-trial loop verify-bounds ran before it was batched, kept as the reference
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        m = int(rng.integers(1, 6))
        nu = np.sort(rng.uniform(1.0, 10.0, m))[::-1]
        S = random_symplectic(m, rng, squeeze_bound=2.0)
        g = int(rng.integers(m))
        radius = 2.0 * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        alpha = radius * complex(math.cos(angle), math.sin(angle))
        mean = np.zeros(2 * m)
        mean[g], mean[m + g] = 2.0 * alpha.real, 2.0 * alpha.imag
        dec = WilliamsonDecomposition(S=S, nu=nu, mean=mean)
        ratios.append(relative_purity_closed_form(dec, bogoliubov_row(dec, g), kind))
    return np.array(ratios)


@pytest.mark.parametrize("kind", ["subtract", "add"])
def test_batched_bounds_ratios_match_per_trial_loop(kind):
    trials = 2 * BATCH_CHUNK + 1  # crosses two chunk boundaries, every mode-count bucket
    batched = bounds_ratios(17, trials, kind)
    assert batched.shape == (trials,)
    assert_allclose(batched, _bounds_ratios_per_trial(17, trials, kind), rtol=1e-15, atol=0)


def test_batched_bounds_ratios_reject_unknown_kind():
    with pytest.raises(ValueError):
        bounds_ratios(17, 3, "remove")


def test_two_path_agreement_on_random_pure_states():
    rng = np.random.default_rng(31)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        S = random_symplectic(m, rng, squeeze_bound=1.5)
        g = int(rng.integers(m))
        mean = np.zeros(2 * m)
        mean[g], mean[m + g] = rng.normal(), rng.normal()
        st = GaussianState(m=m, mean=mean, cov=S @ S.T)
        extra = [i for i in range(m) if i != g]
        rng.shuffle(extra)
        modes = tuple(sorted([g] + extra[: int(rng.integers(0, m))]))
        dec = williamson(reduce_state(st, modes))
        row = bogoliubov_row(dec, modes.index(g))
        for kind in ("subtract", "add"):
            wigner = relative_purity_of_subtracted(photon_reduced_wigner(st, g, modes, kind))
            closed = relative_purity_closed_form(dec, row, kind)
            assert abs(wigner - closed) / closed < 1e-8, kind


# ---------------------------------------------------------------------------
# entanglement increase


def test_entanglement_increase_tmsv_closed_value():
    # reduced mode of a two-mode squeezed vacuum is thermal with n = cosh(r)
    nu = math.cosh(1.0)
    expected = -math.log((nu * nu + 1.0) / (2.0 * nu * nu))
    got = entanglement_increase(tmsv(1.0), (0,), 0, "subtract")
    assert_allclose(got, expected, atol=1e-12)
    assert 0.0 <= got <= LOG_2


def test_entanglement_increase_matches_fock_oracle():
    spec = ChainSpec(m=2, r=1.0, g=0, alpha_g=0.0)
    state = build_chain(spec)
    from cvdistill import vacuum_fock

    fock = vacuum_fock(2, 30)
    for elem in chain_elements(spec):
        fock = apply_gate_fock(fock, elem)
    for kind, op in (("subtract", annihilate), ("add", create)):
        altered = op(fock, 0)
        de_oracle = renyi2_fock(reduce_density(altered, [0])) - renyi2_fock(
            reduce_density(fock, [0])
        )
        de = entanglement_increase(state, (0,), 0, kind)
        assert abs(de - de_oracle) / abs(de_oracle) < 1e-6


def test_entanglement_increase_from_either_side():
    # mode g may sit in the complement of the named subsystem
    state = build_chain(ChainSpec(m=3, r=0.6, alpha_g=0.2))
    g = 1
    de_in = entanglement_increase(state, (0,), g, "subtract")
    de_out = entanglement_increase(state, (1, 2), g, "subtract")
    assert_allclose(de_in, de_out, atol=1e-10)


def test_entanglement_increase_requires_pure_state():
    with pytest.raises(GlobalStateNotPure):
        entanglement_increase(thermal_state([2.0, 2.0]), (0,), 0)


def test_entanglement_increase_mode_outside_state_rejected():
    for subsystem in ((0,), (0, 1)):
        with pytest.raises(IndexOutOfRange):
            entanglement_increase(tmsv(1.0), subsystem, 2)
    with pytest.raises(IndexOutOfRange):
        entanglement_increase_many(tmsv(1.0), [], 2)


def test_entanglement_increase_vacuum_mode_rejected():
    with pytest.raises(VacuumModeSubtraction):
        entanglement_increase(vacuum(2), (0,), 0, "subtract")


def test_entanglement_increase_capped_by_log2():
    rng = np.random.default_rng(37)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        S = random_symplectic(m, rng, squeeze_bound=1.5)
        g = int(rng.integers(m))
        mean = np.zeros(2 * m)
        mean[g], mean[m + g] = rng.normal(), rng.normal()
        st = GaussianState(m=m, mean=mean, cov=S @ S.T)
        part = tuple(sorted(rng.choice(m, size=int(rng.integers(1, m)), replace=False)))
        for kind in ("subtract", "add"):
            try:
                de = entanglement_increase(st, part, g, kind)
            except VacuumModeSubtraction:
                continue
            assert de <= LOG_2 + 1e-9


# ---------------------------------------------------------------------------
# batched bipartition engine


def _subsets_with(m, g):
    others = [i for i in range(m) if i != g]
    return [(g, *rest) for size in range(m) for rest in itertools.combinations(others, size)]


@settings(max_examples=40, deadline=None)
@given(
    m=hs.integers(1, 5),
    seed=hs.integers(0, 2 ** 32 - 1),
    kind=hs.sampled_from(["subtract", "add"]),
)
def test_batched_increase_matches_scalar_route(m, seed, kind):
    rng = np.random.default_rng(seed)
    S = random_symplectic(m, rng, squeeze_bound=1.5)
    # complex displacement on every mode
    state = GaussianState(m=m, mean=rng.normal(size=2 * m), cov=S @ S.T)
    g = int(rng.integers(m))
    subsets = _subsets_with(m, g)
    e_before, delta = entanglement_increase_many(state, subsets, g, kind)
    assert e_before.shape == delta.shape == (len(subsets),)
    for i, part in enumerate(subsets):
        assert abs(e_before[i] - renyi2_entanglement_pure(state, part)) <= 1e-12
        assert abs(delta[i] - entanglement_increase(state, part, g, kind)) <= 1e-12


def test_batched_increase_keeps_input_order_across_chunks():
    # 12 modes put 462 subsets in the size-6 group, more than one chunk
    spec = ChainSpec(m=12, r=0.8, alpha_g=0.4 + 0.3j)
    state, g = build_chain(spec), spec.resolved_g
    subsets = _subsets_with(12, g)
    order = np.random.default_rng(3).permutation(len(subsets))
    shuffled = [subsets[i] for i in order]
    e_before, delta = entanglement_increase_many(state, subsets, g, "add")
    e_shuffled, delta_shuffled = entanglement_increase_many(state, shuffled, g, "add")
    assert np.array_equal(e_shuffled, e_before[order])
    assert np.array_equal(delta_shuffled, delta[order])
    for i in range(0, len(subsets), 97):
        assert abs(delta[i] - entanglement_increase(state, subsets[i], g, "add")) <= 1e-12
    assert delta.max() <= LOG_2 + 1e-9


def test_batched_increase_vacuum_mode_rejected():
    with pytest.raises(VacuumModeSubtraction):
        entanglement_increase_many(vacuum(3), _subsets_with(3, 0), 0, "subtract")
    _, delta = entanglement_increase_many(vacuum(3), _subsets_with(3, 0), 0, "add")
    assert_allclose(delta, 0.0, atol=1e-12)


def test_batched_increase_nearly_singular_reduction_rejected():
    # pure product of a 70 dB squeezed mode and a vacuum mode: cond(V_A) = 1e14
    state = GaussianState(m=2, mean=np.zeros(4), cov=np.diag([1e7, 1.0, 1e-7, 1.0]))
    with pytest.raises(SingularCovariance):
        entanglement_increase_many(state, [(0, 1), (0,)], 0, "subtract")


def test_batched_increase_subset_without_g_rejected():
    with pytest.raises(IndexOutOfRange):
        entanglement_increase_many(tmsv(1.0), [(0, 1), (1,)], 0, "subtract")
    with pytest.raises(IndexOutOfRange):
        entanglement_increase_many(tmsv(1.0), [(0, 2)], 0, "subtract")


def test_batched_increase_requires_pure_state():
    with pytest.raises(GlobalStateNotPure):
        entanglement_increase_many(thermal_state([2.0, 2.0]), [(0,)], 0)


# ---------------------------------------------------------------------------
# mixed multimode states against the oracle


def test_mixed_state_relative_purity_matches_fock_oracle():
    from cvdistill import covariance_fock

    ns = [2.0, 1.5]
    alpha = 0.3 + 0.2j
    shift = np.array([2 * alpha.real, 0.0, 2 * alpha.imag, 0.0])
    elems = [two_mode_squeezer(0, 1, 0.6), displacement(shift)]

    gauss = apply_circuit(thermal_state(ns), elems)
    fock = thermal_product_density(ns, 24)
    for elem in elems:
        fock = apply_gate_fock(fock, elem, pad=12)
    mean, cov = covariance_fock(fock)
    assert np.abs(cov - gauss.cov).max() < 1e-6

    mu_oracle = purity_fock(fock)
    g = 0
    minus = annihilate(fock, g)
    ratio_oracle = purity_fock(minus) / mu_oracle

    dec = williamson(gauss)
    row = bogoliubov_row(dec, g)
    ratio_closed = relative_purity_closed_form(dec, row, "subtract")
    sub = photon_reduced_wigner(gauss, g, (0, 1))
    ratio_wigner = relative_purity_of_subtracted(sub)

    assert abs(ratio_closed - ratio_oracle) / ratio_oracle < 1e-6
    assert abs(ratio_wigner - ratio_oracle) / ratio_oracle < 1e-6

    plus = create(fock, g)
    ratio_add_oracle = purity_fock(plus) / mu_oracle
    ratio_add = relative_purity_closed_form(dec, row, "add")
    ratio_add_wigner = relative_purity_of_subtracted(photon_reduced_wigner(gauss, g, (0, 1), "add"))
    assert abs(ratio_add - ratio_add_oracle) / ratio_add_oracle < 1e-6
    assert abs(ratio_add_wigner - ratio_add_oracle) / ratio_add_oracle < 1e-6


def test_addition_matches_dense_fock_with_rotated_squeezing_and_complex_alpha():
    # a thermal mode, squeezed along a rotated axis and displaced by a complex
    # amplitude, in a dense single-mode Fock basis; the conjugation of the
    # adjoint Bogoliubov row only shows when both are present
    d = 120
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)
    ad = a.conj().T
    zeta, alpha = 0.4 * np.exp(0.7j), 0.3 + 0.2j
    rho = thermal_density(1.6, d).data
    for gen in (0.5 * (np.conj(zeta) * a @ a - zeta * ad @ ad), alpha * ad - np.conj(alpha) * a):
        u = expm(gen)
        rho = u @ rho @ u.conj().T
    quads = (a + ad, -1j * (a - ad))
    mean = np.array([np.trace(rho @ q).real for q in quads])
    cov = np.array([[np.trace(rho @ (qi @ qj + qj @ qi)).real / 2.0 for qj in quads] for qi in quads])
    state = GaussianState(m=1, mean=mean, cov=cov - np.outer(mean, mean))

    added = ad @ rho @ a
    oracle = np.trace(added @ added).real / np.trace(added).real ** 2 / np.trace(rho @ rho).real
    dec = williamson(state)
    closed = relative_purity_closed_form(dec, bogoliubov_row(dec, 0), "add")
    wigner = relative_purity_of_subtracted(photon_reduced_wigner(state, 0, (0,), "add"))
    assert abs(closed - oracle) < 1e-10
    assert abs(wigner - oracle) < 1e-10

"""Tests for the Gaussian state model: reduction, purity, Williamson
decomposition, Bogoliubov rows and pure-state Renyi-2 entanglement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvdistill import (
    EmptySubsystem,
    GaussianState,
    GlobalStateNotPure,
    IndexOutOfRange,
    NumericalFailure,
    UnphysicalState,
    WilliamsonDecomposition,
    apply_circuit,
    bogoliubov_row,
    displacement,
    ladder_blocks,
    purity,
    reduce_state,
    renyi2_entanglement_pure,
    to_snapshot,
    two_mode_squeezer,
    vacuum,
    williamson,
)
from cvdistill.states import williamson_many
from scalar_reference import ladder_mean, random_symplectic, symplectic_deviation


def tmsv(r=1.0):
    return apply_circuit(vacuum(2), [two_mode_squeezer(0, 1, r)])


def thermal_state(nu):
    nu = np.atleast_1d(nu)
    return GaussianState(
        m=len(nu), mean=np.zeros(2 * len(nu)), cov=np.diag(np.concatenate([nu, nu]))
    )


def _reconstruct(dec):
    # S diag(nu, nu) S^T of a thermal decomposition
    return dec.S @ np.diag(np.concatenate([dec.nu, dec.nu])) @ dec.S.T


# ---------------------------------------------------------------------------
# construction, vacuum, apply


def test_vacuum_state():
    st = vacuum(3)
    assert_allclose(st.cov, np.eye(6))
    assert_allclose(st.mean, np.zeros(6))
    assert purity(st) == 1.0


def test_vacuum_williamson_occupations_are_one():
    dec = williamson(vacuum(2))
    assert_allclose(dec.nu, [1.0, 1.0], atol=1e-12)


def test_asymmetric_covariance_rejected():
    cov = np.eye(2)
    cov[0, 1] = 1e-6
    with pytest.raises(ValueError):
        GaussianState(m=1, mean=np.zeros(2), cov=cov)


def test_apply_displacement_moves_mean_only():
    st = apply_circuit(vacuum(2), [displacement(0, 0.25 - 0.5j), displacement(1, 1j)])
    assert_allclose(st.mean, [0.5, 0.0, -1.0, 2.0])
    assert_allclose(st.cov, np.eye(4))


def test_apply_inverse_squeezer_restores_state():
    st = apply_circuit(vacuum(2), [two_mode_squeezer(0, 1, 1.0), two_mode_squeezer(0, 1, -1.0)])
    assert np.abs(st.cov - np.eye(4)).max() < 1e-12
    assert np.abs(st.mean).max() < 1e-12


def test_symplectic_evolution_preserves_purity():
    st = tmsv(1.0)
    assert abs(np.linalg.det(st.cov) - 1.0) < 1e-10
    assert purity(st) == 1.0


def test_ladder_mean_convention():
    st = apply_circuit(vacuum(2), [displacement(0, 0.5), displacement(1, 1.5j)])
    assert ladder_mean(st, 0) == 0.5
    assert ladder_mean(st, 1) == 1.5j


# ---------------------------------------------------------------------------
# subsystems and reduction


def test_subsystem_validation():
    with pytest.raises(EmptySubsystem):
        reduce_state(vacuum(3), ())
    with pytest.raises(IndexOutOfRange):
        reduce_state(vacuum(3), (0, 3))


def test_reduce_vacuum_subset():
    st = reduce_state(vacuum(3), (0, 2))
    assert st.m == 2
    assert_allclose(st.cov, np.eye(4))


def test_reduce_full_system_is_identity():
    st = tmsv(0.7)
    red = reduce_state(st, (0, 1))
    assert_allclose(red.cov, st.cov)
    assert_allclose(red.mean, st.mean)


def test_reduce_tmsv_single_mode_is_thermal():
    red = reduce_state(tmsv(1.0), (0,))
    assert_allclose(red.cov, np.diag([math.cosh(1.0), math.cosh(1.0)]), atol=1e-12)


def test_reduce_selects_mean_entries():
    st = GaussianState(m=3, mean=np.array([1.0, 2, 3, 4, 5, 6]), cov=np.eye(6))
    red = reduce_state(st, (1,))
    assert_allclose(red.mean, [2.0, 5.0])


# ---------------------------------------------------------------------------
# purity


def test_purity_of_thermal_mode():
    assert_allclose(purity(thermal_state(2.0)), 0.5)


def test_purity_reduced_tmsv_frozen_value():
    # closed form 1 / cosh(1); cross-checked against the Fock oracle elsewhere
    assert_allclose(purity(reduce_state(tmsv(1.0), (0,))), 1.0 / math.cosh(1.0), atol=1e-12)
    assert_allclose(1.0 / math.cosh(1.0), 0.6480542736638855, atol=1e-15)


def test_purity_equals_inverse_occupation_product():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        nu = rng.uniform(1.0, 6.0, m)
        S = random_symplectic(m, rng, squeeze_bound=1.5)
        cov = S @ np.diag(np.concatenate([nu, nu])) @ S.T
        st = GaussianState(m=m, mean=np.zeros(2 * m), cov=0.5 * (cov + cov.T))
        assert abs(purity(st) - 1.0 / np.prod(williamson(st).nu)) < 1e-9


def test_purity_rejects_unphysical_covariance():
    with pytest.raises(UnphysicalState):
        purity(GaussianState(m=1, mean=np.zeros(2), cov=0.25 * np.eye(2)))


def test_purity_symmetry_of_pure_bipartitions():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        S = random_symplectic(m, rng, squeeze_bound=1.5)
        mean = rng.normal(size=2 * m)
        st = GaussianState(m=m, mean=mean, cov=S @ S.T)
        cut = int(rng.integers(1, m))
        part = tuple(range(cut))
        rest = tuple(range(cut, m))
        assert abs(purity(reduce_state(st, part)) - purity(reduce_state(st, rest))) < 1e-9


# ---------------------------------------------------------------------------
# Williamson decomposition


def test_williamson_already_thermal():
    dec = williamson(thermal_state(4.0))
    assert_allclose(dec.nu, [4.0], atol=1e-10)
    assert_allclose(dec.S @ dec.S.T, np.eye(2), atol=1e-10)  # orthogonal symplectic


def test_williamson_pure_squeezed_mode():
    st = GaussianState(m=1, mean=np.zeros(2), cov=np.diag([4.0, 0.25]))
    dec = williamson(st)
    assert_allclose(dec.nu, [1.0], atol=1e-10)
    assert_allclose(_reconstruct(dec), st.cov, atol=1e-10)


def test_williamson_recovers_constructed_occupations():
    rng = np.random.default_rng(3)
    nu = np.array([3.0, 2.0, 1.5])
    S = random_symplectic(3, rng, squeeze_bound=1.0)
    cov = S @ np.diag(np.concatenate([nu, nu])) @ S.T
    dec = williamson(GaussianState(m=3, mean=np.zeros(6), cov=0.5 * (cov + cov.T)))
    assert_allclose(dec.nu, nu, atol=1e-8)  # descending order is canonical


def test_williamson_round_trip_and_symplecticity():
    rng = np.random.default_rng(21)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        nu = np.sort(rng.uniform(1.0, 10.0, m))[::-1]
        S = random_symplectic(m, rng, squeeze_bound=2.0)
        cov = S @ np.diag(np.concatenate([nu, nu])) @ S.T
        st = GaussianState(m=m, mean=np.zeros(2 * m), cov=0.5 * (cov + cov.T))
        dec = williamson(st)
        rel = np.linalg.norm(_reconstruct(dec) - st.cov) / np.linalg.norm(st.cov)
        assert rel <= 1e-8
        assert symplectic_deviation(dec.S) <= 1e-9
        assert dec.nu.min() >= 1.0 - 1e-9


def test_williamson_mean_passthrough():
    mean = np.array([1.0, -2.0])
    dec = williamson(GaussianState(m=1, mean=mean, cov=2.0 * np.eye(2)))
    assert_allclose(dec.mean, mean)


def test_williamson_rejects_unphysical():
    with pytest.raises(UnphysicalState):
        williamson(GaussianState(m=1, mean=np.zeros(2), cov=0.5 * np.eye(2)))


def _degenerate_covariances():
    # vacuum, equal-occupation thermal states (diagonal and squeezed), pure
    # states and a mixed state with a repeated occupation, all on three modes
    rng = np.random.default_rng(7)
    covs = [vacuum(3).cov, thermal_state([2.5, 2.5, 2.5]).cov]
    for nu in ([2.5, 2.5, 2.5], [1.0, 1.0, 1.0], [3.0, 3.0, 1.0]):
        S = random_symplectic(3, rng, squeeze_bound=1.0)
        cov = S @ np.diag(np.concatenate([nu, nu])) @ S.T
        covs.append(0.5 * (cov + cov.T))
    pure = apply_circuit(vacuum(5), [two_mode_squeezer(0, 1, 0.8), two_mode_squeezer(2, 3, 1.2)])
    covs.append(reduce_state(pure, (0, 1, 2)).cov)  # occupations cosh(1.2), 1, 1
    covs.append(reduce_state(pure, (0, 1, 4)).cov)  # a pure reduced state
    return np.array(covs)


def _williamson_residuals(S, nu, cov):
    omega = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(S.shape[-1] // 2))
    rebuilt = S @ (np.concatenate([nu, nu], axis=-1)[..., :, None] * np.swapaxes(S, -1, -2))
    return np.abs(rebuilt - cov).max(), np.abs(S @ omega @ np.swapaxes(S, -1, -2) - omega).max()


def test_williamson_many_degenerate_spectra():
    covs = _degenerate_covariances()
    S, nu = williamson_many(covs)
    assert S.shape == covs.shape and nu.shape == (len(covs), 3)
    assert np.all(np.diff(nu, axis=-1) <= 0)
    assert_allclose(nu[:2], [[1.0] * 3, [2.5] * 3], atol=1e-12)
    assert_allclose(nu[2:5], [[2.5] * 3, [1.0] * 3, [3.0, 3.0, 1.0]], atol=1e-9)
    assert_allclose(nu[5], [math.cosh(1.2), 1.0, 1.0], atol=1e-12)
    assert_allclose(nu[6], [1.0, 1.0, 1.0], atol=1e-12)
    reconstruction, symplecticity = _williamson_residuals(S, nu, covs)
    assert reconstruction <= 1e-12 and symplecticity <= 1e-12
    for i, cov in enumerate(covs):
        dec = williamson(GaussianState(m=3, mean=np.zeros(6), cov=cov))
        assert np.array_equal(dec.S, S[i]) and np.array_equal(dec.nu, nu[i])
        assert max(_williamson_residuals(dec.S, dec.nu, cov)) <= 1e-12


def test_williamson_many_random_stack_matches_one_at_a_time():
    rng = np.random.default_rng(23)
    for m in range(1, 6):
        nu = np.sort(rng.uniform(1.0, 10.0, (40, m)), axis=1)[:, ::-1]
        S = np.array([random_symplectic(m, rng, squeeze_bound=2.0) for _ in range(40)])
        cov = S @ (np.concatenate([nu, nu], axis=1)[:, :, None] * np.swapaxes(S, 1, 2))
        cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
        got_S, got_nu = williamson_many(cov)
        assert_allclose(got_nu, nu, rtol=1e-9)
        reconstruction, symplecticity = _williamson_residuals(got_S, got_nu, cov)
        assert reconstruction <= 1e-8 * np.abs(cov).max() and symplecticity <= 1e-9
        for i in range(len(cov)):
            one_S, one_nu = williamson_many(cov[i])
            assert np.array_equal(one_S, got_S[i]) and np.array_equal(one_nu, got_nu[i])


@pytest.mark.parametrize("bad", [np.diag([1.0, -1.0, 1.0, 1.0]), 0.5 * np.eye(4),
                                 np.diag([4.0, 0.1, 0.25, 0.25])])
def test_williamson_many_rejects_one_unphysical_member(bad):
    # not positive definite, a thermal occupation 0.5, an occupation 0.2
    covs = np.array([np.eye(4), 2.0 * np.eye(4), bad, tmsv(0.7).cov])
    with pytest.raises(UnphysicalState):
        williamson_many(covs)
    with pytest.raises(UnphysicalState):
        williamson_many(bad)
    williamson_many(np.delete(covs, 2, axis=0))


@pytest.mark.parametrize("failing_call", [1, 2])
def test_williamson_lapack_failure_is_a_numerical_failure(monkeypatch, failing_call):
    eigh, calls = np.linalg.eigh, []

    def breaking(a, *args, **kwargs):
        calls.append(None)
        if len(calls) == failing_call:
            raise np.linalg.LinAlgError("did not converge")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", breaking)
    with pytest.raises(NumericalFailure):
        williamson(tmsv(0.7))
    calls.clear()
    with pytest.raises(NumericalFailure):
        williamson_many(np.array([tmsv(0.7).cov, np.eye(4)]))


# ---------------------------------------------------------------------------
# Bogoliubov rows


def test_bogoliubov_identity_transform():
    dec = WilliamsonDecomposition(S=np.eye(4), nu=np.ones(2), mean=np.zeros(4))
    row = bogoliubov_row(dec, 0)
    assert_allclose(row.k, [0.0, 0.0])
    assert_allclose(row.l, [1.0, 0.0])
    assert row.alpha_g == 0.0


def test_bogoliubov_alpha_from_mean():
    mean = np.array([1.0, 0.0])
    dec = WilliamsonDecomposition(S=np.eye(2), nu=np.ones(1), mean=mean)
    assert bogoliubov_row(dec, 0).alpha_g == 0.5


def test_bogoliubov_tmsv_row_norms():
    # the numerical decomposition of a pure state carries a passive gauge,
    # so only the row norms are pinned: |k| = sinh(r/2), |l| = cosh(r/2)
    st = tmsv(1.0)
    dec = williamson(st)
    row = bogoliubov_row(dec, 0)
    assert_allclose(np.linalg.norm(row.k), math.sinh(0.5), atol=1e-8)
    assert_allclose(np.linalg.norm(row.l), math.cosh(0.5), atol=1e-8)
    assert abs(np.sum(np.abs(row.l) ** 2) - np.sum(np.abs(row.k) ** 2) - 1.0) < 1e-8


def test_bogoliubov_tmsv_explicit_decomposition():
    c, s = math.cosh(0.5), math.sinh(0.5)
    S = np.array([
        [c, -s, 0.0, 0.0],
        [-s, c, 0.0, 0.0],
        [0.0, 0.0, c, s],
        [0.0, 0.0, s, c],
    ])
    dec = WilliamsonDecomposition(S=S, nu=np.ones(2), mean=np.zeros(4))
    row = bogoliubov_row(dec, 0)
    assert_allclose(row.l, [c, 0.0], atol=1e-12)
    assert_allclose(row.k, [0.0, -s], atol=1e-12)


def test_bogoliubov_row_constraint_over_random_symplectics():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        S = random_symplectic(m, rng, squeeze_bound=2.0)
        K, L = ladder_blocks(S)
        g = int(rng.integers(m))
        dev = abs(np.sum(np.abs(L[g]) ** 2) - np.sum(np.abs(K[g]) ** 2) - 1.0)
        assert dev < 1e-8


def test_bogoliubov_index_check():
    dec = williamson(vacuum(2))
    with pytest.raises(IndexOutOfRange):
        bogoliubov_row(dec, 2)


# ---------------------------------------------------------------------------
# Renyi-2 entanglement


def test_renyi2_product_state_is_zero():
    assert renyi2_entanglement_pure(vacuum(2), (0,)) == 0.0


def test_renyi2_tmsv_frozen_value():
    got = renyi2_entanglement_pure(tmsv(1.0), (0,))
    assert_allclose(got, math.log(math.cosh(1.0)), atol=1e-12)
    assert_allclose(math.log(math.cosh(1.0)), 0.4337808304830271, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_renyi2_symmetric_under_complement(seed, m):
    rng = np.random.default_rng(seed)
    S = random_symplectic(m, rng, squeeze_bound=1.5)
    state = GaussianState(m=m, mean=rng.normal(size=2 * m), cov=S @ S.T)
    part = tuple(range(1 + seed % (m - 1)))
    rest = tuple(i for i in range(m) if i not in part)
    a = renyi2_entanglement_pure(state, part)
    b = renyi2_entanglement_pure(state, rest)
    assert abs(a - b) < 1e-9


def test_renyi2_rejects_mixed_global_state():
    with pytest.raises(GlobalStateNotPure):
        renyi2_entanglement_pure(thermal_state([2.0, 2.0]), (0,))


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_round_trip():
    st = apply_circuit(tmsv(0.8), [displacement(0, 0.05 + 0.15j), displacement(1, 0.1 + 0.2j)])
    doc = to_snapshot(st)
    assert doc["m"] == 2
    assert len(doc["mean"]) == 4
    assert len(doc["cov"]) == 16
    back = GaussianState(m=doc["m"], mean=doc["mean"], cov=np.reshape(doc["cov"], (4, 4)))
    assert_allclose(back.cov, st.cov)
    assert_allclose(back.mean, st.mean)

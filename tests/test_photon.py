"""Tests for photon subtraction/addition: the Wigner-moment route, the
closed-form relative purity, thermal trace identities, and the entanglement
increase, each cross-checked against the Fock oracle."""

import functools
import hashlib
import itertools
import math
import os
import subprocess
import sys

import hypothesis.strategies as hs
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose
from scipy.linalg import expm, schur

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
    photon_reduced_wigner,
    purity,
    purity_of_subtracted,
    random_symplectic,
    reduce_state,
    reduced_purity,
    relative_purity_closed_form,
    relative_purity_of_subtracted,
    renyi2_entanglement_pure,
    single_mode_squeezer,
    thermal_density,
    thermal_traces,
    two_mode_squeezer,
    vacuum,
    williamson,
)
from cvdistill import cli, photon
from cvdistill.cli import bounds_ratios, two_path_error, two_path_ratios
from cvdistill.photon import BATCH_CHUNK, LOG_2, cut_masks, entanglement_increase_cuts, relative_purity_many
from cvdistill.states import quad_indices
from fock_reference import covariance_fock, thermal_purification


def tmsv(r=1.0):
    return apply_circuit(vacuum(2), [two_mode_squeezer(0, 1, r)])


def thermal_state(nu):
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    return GaussianState(
        m=len(nu), mean=np.zeros(2 * len(nu)), cov=np.diag(np.concatenate([nu, nu]))
    )


def _normalization_integral(sub):
    # total phase-space integral of the subtracted state's Wigner function
    return float((np.trace(sub.poly_Q @ sub.base.cov) + sub.poly_c) / sub.norm)


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
    rho = thermal_density(n, cutoff)
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
    assert_allclose(_normalization_integral(sub), 1.0, atol=1e-9)
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
        assert abs(_normalization_integral(sub) - 1.0) < 1e-9
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
    # the per-trial loop verify-bounds ran before it was batched, kept as the
    # reference: the ratios and the generator state after the last draw
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
    return np.array(ratios), rng.bit_generator.state


@pytest.mark.parametrize("kind", ["subtract", "add"])
def test_batched_bounds_ratios_match_per_trial_loop(kind):
    trials = 2 * BATCH_CHUNK + 1  # crosses two chunk boundaries, every mode-count bucket
    batched = bounds_ratios(17, trials, kind)
    assert batched.shape == (trials,)
    assert_allclose(batched, _bounds_ratios_per_trial(17, trials, kind)[0], rtol=1e-15, atol=0)


# sha256 of the full arrays at 2 * BATCH_CHUNK + 1 trials, recorded before
# each trial became bare generator calls with the arithmetic stacked per
# group; a change to any bit of any trial shows here
BOUNDS_SHA256 = {
    (17, "subtract"): "3d9ce564873e54b3c80c22c3e2564809df8735ae578d89db36e8c8d4dd013869",
    (17, "add"): "2c109789311f27f331b46ba4f6a4d53fa6175fd3d09e7561ef8d83ea11c444ec",
    (20210409, "subtract"): "6ee086a41fadf8532ac148cf0bad1ba9c922519394f5bbd02948509a1d68d1e4",
    (20210409, "add"): "af28fb24afd53d6fd9af4db0c5d0a45b8e14945299c2fff8e2951521844f1fee",
}
TWO_PATH_SHA256 = {  # (wigner, closed) of two_path_ratios(seed, trials, (kind,))
    (1, "subtract"): ("de455f9698f581c1e6571a646c96e11665496f2e35b32f597c13e330ba572fc6",
                      "2ad99ace2fce1b7c5a82d726c67e22006173a76b6bf5202019ca857b4620d333"),
    (1, "add"): ("13979b16a82ff6fad8632c6a71003c9c0e31e92a8371322f8799dfc28855121a",
                 "0769e11b3e29822098c9364b4b6f2f4aa669addb4acd0bf5437d96783badb83a"),
    (941, "subtract"): ("415f61367a2e10d18c3378c1e439ca7a2ef23c5efb9f14e9bae0c48dde95908c",
                        "86827c29f7b99f2f4a8ea7e7b5aa76949ce15aeddf3040a2115d3448eba56858"),
    (941, "add"): ("99b89faf60b983a6dca4cb599d11f6571952fb864aaa723002346f35d267fdf9",
                   "5dedbc623b2822f11426404c5443b5917f02f81345731f4b3a76529ddf20210f"),
}


def _sha256(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


@pytest.mark.parametrize("seed, kind", list(BOUNDS_SHA256))
def test_bounds_ratios_full_array_pins(seed, kind):
    assert _sha256(bounds_ratios(seed, 2 * BATCH_CHUNK + 1, kind)) == BOUNDS_SHA256[seed, kind]


@pytest.mark.parametrize("seed, kind", list(TWO_PATH_SHA256))
def test_two_path_ratios_full_array_pins(seed, kind):
    wigner, closed = two_path_ratios(seed, 2 * BATCH_CHUNK + 1, (kind,))
    assert (_sha256(wigner), _sha256(closed)) == TWO_PATH_SHA256[seed, kind]


def _state_after_draws(monkeypatch, draw_name, run):
    # the generator state after the draw loop of `run`, read off its last trial
    rngs, draw = [], getattr(cli, draw_name)
    monkeypatch.setattr(cli, draw_name, lambda rng: rngs.append(rng) or draw(rng))
    run()
    return rngs[-1].bit_generator.state


@pytest.mark.parametrize("seed", [1, 941])
def test_draw_loops_leave_the_generator_where_the_per_trial_loops_do(monkeypatch, seed):
    # pins how many numbers each trial draws and in what order, not only a summary
    trials = 2 * BATCH_CHUNK + 1
    bounds_state = _state_after_draws(
        monkeypatch, "_draw_bounds_trial", lambda: bounds_ratios(seed, trials, "add"))
    assert bounds_state == _bounds_ratios_per_trial(seed, trials, "add")[1]
    two_path_state = _state_after_draws(
        monkeypatch, "_draw_two_path_trial", lambda: two_path_ratios(seed, trials, ("add",)))
    assert two_path_state == _two_path_per_trial(seed, trials)[3]


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


def _williamson_schur(cov):
    # the real-Schur Williamson decomposition the library used before its two-eigh
    # route, kept as an independent reference: (S, nu) with nu descending
    m = cov.shape[0] // 2
    pi = np.empty(2 * m, dtype=int)
    pi[0::2], pi[1::2] = np.arange(m), np.arange(m) + m
    w, q = np.linalg.eigh(cov[np.ix_(pi, pi)])
    root, inv_root = (q * np.sqrt(w)) @ q.T, (q / np.sqrt(w)) @ q.T
    core = inv_root @ np.kron(np.eye(m), [[0.0, 1.0], [-1.0, 0.0]]) @ inv_root
    t_form, o = schur(0.5 * (core - core.T), output="real")
    t = np.empty(m)
    for i in range(m):  # orient each block so its upper-right entry is positive
        if t_form[2 * i, 2 * i + 1] < 0:
            o[:, [2 * i, 2 * i + 1]] = o[:, [2 * i + 1, 2 * i]]
        t[i] = abs(t_form[2 * i, 2 * i + 1])
    order = np.argsort(t)
    cols = np.stack([2 * order, 2 * order + 1], axis=1).reshape(-1)
    s_int = root @ (o[:, cols] * np.repeat(np.sqrt(t[order]), 2))
    S = np.empty_like(s_int)
    S[np.ix_(pi, pi)] = s_int
    return S, 1.0 / t[order]


@functools.lru_cache(maxsize=None)
def _two_path_per_trial(seed, trials, kinds=("subtract", "add")):
    # the per-trial loop two_path_error ran before it was batched, with the Schur
    # Williamson, kept as the reference: the draws, (wigner, closed) per kind and
    # the generator state after the last draw
    rng = np.random.default_rng(seed)
    draws, wigner, closed = [], np.full((len(kinds), trials), np.nan), np.full((len(kinds), trials), np.nan)
    for trial in range(trials):
        m = int(rng.integers(2, 6))
        s_mat = random_symplectic(m, rng, squeeze_bound=1.5)
        g = int(rng.integers(m))
        mean = np.zeros(2 * m)
        mean[g] = rng.normal()
        mean[m + g] = rng.normal()
        state = GaussianState(m=m, mean=mean, cov=s_mat @ s_mat.T)
        extra = [i for i in range(m) if i != g]
        rng.shuffle(extra)
        part = tuple(sorted([g] + extra[: int(rng.integers(0, m))]))
        draws.append((m, g, part, s_mat))
        S, nu = _williamson_schur(reduce_state(state, part).cov)
        dec = WilliamsonDecomposition(S=S, nu=nu, mean=reduce_state(state, part).mean)
        row = bogoliubov_row(dec, part.index(g))
        for j, kind in enumerate(kinds):
            try:
                sub = photon_reduced_wigner(state, g, part, kind)
            except VacuumModeSubtraction:
                continue
            wigner[j, trial] = relative_purity_of_subtracted(sub)
            closed[j, trial] = relative_purity_closed_form(dec, row, kind)
    return draws, wigner, closed, rng.bit_generator.state


TWO_PATH_GROUPS = {(m, k) for m in range(2, 6) for k in range(1, m + 1)}


@pytest.mark.parametrize("seed", [1, 51, 941])
@pytest.mark.parametrize("kinds", [("subtract",), ("add",), ("subtract", "add")])
def test_batched_two_path_matches_per_trial_loop(monkeypatch, seed, kinds):
    trials = 2 * BATCH_CHUNK + 1  # crosses two chunk boundaries
    draws, wigner_ref, closed_ref, _ = _two_path_per_trial(seed, trials)
    rows = [("subtract", "add").index(kind) for kind in kinds]
    wigner_ref, closed_ref = wigner_ref[rows], closed_ref[rows]
    assert {(m, len(part)) for m, _, part, _ in draws} == TWO_PATH_GROUPS

    seen, stacked = [], []
    draw, euler = cli._draw_two_path_trial, cli.euler_symplectic
    monkeypatch.setattr(cli, "_draw_two_path_trial", lambda rng: seen.append(draw(rng)) or seen[-1])
    monkeypatch.setattr(cli, "euler_symplectic", lambda *a: stacked.append(euler(*a)) or stacked[-1])
    wigner, closed = two_path_ratios(seed, trials, kinds)

    assert [(m, g, part) for m, g, part, _ in draws] == [
        (key[0], g, part) for key, (_, _, g, _, part) in seen]
    assert sorted(s.tobytes() for block in stacked for s in block) == sorted(
        s.tobytes() for *_, s in draws)
    assert np.array_equal(np.isnan(wigner), np.isnan(wigner_ref))
    assert np.array_equal(np.isnan(closed), np.isnan(closed_ref))
    assert not np.isnan(wigner).all()
    assert_allclose(wigner, wigner_ref, rtol=1e-12, atol=0)
    assert_allclose(closed, closed_ref, rtol=1e-12, atol=0)


def test_draw_groups_span_all_two_path_trials_and_one_bounds_chunk(monkeypatch):
    # the two-path block takes one stacked group per (m, |A|) over all of its
    # trials; verify-bounds groups each BATCH_CHUNK of trials on its own
    stacked, euler = [], cli.euler_symplectic
    monkeypatch.setattr(cli, "euler_symplectic", lambda *a: stacked.append(len(a[0])) or euler(*a))
    trials = 2 * BATCH_CHUNK + 1
    two_path_ratios(1, trials, ("add",))
    assert len(stacked) == len(TWO_PATH_GROUPS) and sum(stacked) == trials
    stacked.clear()
    bounds_ratios(1, trials, "add")
    assert len(stacked) > 5 and max(stacked) <= BATCH_CHUNK and sum(stacked) == trials


def test_two_path_skips_a_vacuum_mode_trial(monkeypatch):
    # u = 0.5 maps to log-squeezing -1.5 + 3.0 * 0.5 = 0 exactly, which makes S
    # orthogonal, so V = I and, with zero mean, mode g has no photon to
    # subtract; addition is still defined and compared
    draw = cli._draw_two_path_trial
    count = []

    def vacuum_fifth(rng):
        key, (parts, u_squeeze, g, mean_g, part) = draw(rng)
        count.append(None)
        if len(count) == 5:
            return key, (parts, np.full_like(u_squeeze, 0.5), g, np.zeros(2), part)
        return key, (parts, u_squeeze, g, mean_g, part)

    monkeypatch.setattr(cli, "_draw_two_path_trial", vacuum_fifth)
    wigner, closed = two_path_ratios(3, 20, ("subtract", "add"))
    assert np.isnan(wigner[0, 4]) and np.isnan(closed[0, 4])
    assert np.count_nonzero(np.isnan(wigner)) == 1
    assert_allclose([wigner[1, 4], closed[1, 4]], 1.0, atol=1e-12)
    count.clear()
    assert two_path_error(3, 20, ("subtract",)) <= 1e-12


def test_stacked_wigner_route_guards_each_state():
    # a 70 dB squeezed mode beside a vacuum mode 1: cond(V_A) = 1e14 is rejected
    # as the scalar route rejects it, unless mode g is vacuum for the kind,
    # which is skipped before the conditioning check
    cov = np.array([tmsv(0.7).cov, np.diag([1e7, 1.0, 1e-7, 1.0])])
    mean = np.array([[0.5, 0.0, 0.0, 0.0], np.zeros(4)])
    g, modes = np.array([0, 1]), np.array([[0, 1], [0, 1]])
    ratios = photon.relative_purity_wigner_many(cov, mean, g, modes, "subtract")
    scalar = GaussianState(m=2, mean=mean[0], cov=cov[0])
    assert ratios[0] == relative_purity_of_subtracted(photon_reduced_wigner(scalar, 0, (0, 1)))
    assert np.isnan(ratios[1])
    with pytest.raises(SingularCovariance):
        photon.relative_purity_wigner_many(cov, mean, g, modes, "add")
    with pytest.raises(SingularCovariance):
        photon_reduced_wigner(GaussianState(m=2, mean=mean[1], cov=cov[1]), 1, (0, 1), "add")


_TWO_PATH_SCRIPT = """
from cvdistill.cli import two_path_error
print(repr(two_path_error(941, 1000, ("add",))))
"""


def test_two_path_error_is_independent_of_blas_threads():
    # the stacked solves, eigensolves and matmuls must not round with the thread count
    values = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run([sys.executable, "-c", _TWO_PATH_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        values.append(run.stdout)
    assert values[0] == values[1]


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
        de_oracle = math.log(reduced_purity(fock, [0]) / reduced_purity(altered, [0]))
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
        entanglement_increase_cuts(tmsv(1.0), 2)


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


def _cut_modes(m, g):
    # the modes of each entry of entanglement_increase_cuts, in entry order
    return [tuple(i for i in range(m) if mask >> i & 1) for mask in cut_masks(m, g).tolist()]


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
    subsets = _cut_modes(m, g)
    e_before, delta = entanglement_increase_cuts(state, g, kind)
    assert e_before.shape == delta.shape == (len(subsets),) == (2 ** (m - 1),)
    for i, part in enumerate(subsets):
        assert abs(e_before[i] - renyi2_entanglement_pure(state, part)) <= 1e-12
        assert abs(delta[i] - entanglement_increase(state, part, g, kind)) <= 1e-12


def test_batched_increase_keeps_input_order_across_chunks():
    # 12 modes put 462 subsets in the size-6 group, more than one chunk
    spec = ChainSpec(m=12, r=0.8, alpha_g=0.4 + 0.3j)
    state, g = build_chain(spec), spec.resolved_g
    subsets = _cut_modes(12, g)
    e_before, delta = entanglement_increase_cuts(state, g, "add")
    group = [i for i, part in enumerate(subsets) if len(part) == 6]
    assert len(group) > BATCH_CHUNK
    # both sides of the chunk boundary in the size-6 group, then a stride over all cuts
    checked = group[BATCH_CHUNK - 3:BATCH_CHUNK + 3] + list(range(0, len(subsets), 97))
    for i in checked:
        assert abs(e_before[i] - renyi2_entanglement_pure(state, subsets[i])) <= 1e-12
        assert abs(delta[i] - entanglement_increase(state, subsets[i], g, "add")) <= 1e-12
    assert delta.max() <= LOG_2 + 1e-9


@pytest.mark.parametrize("kind", ["subtract", "add"])
def test_cuts_of_a_slightly_mixed_chain_match_scalar_route(kind):
    # a 12-mode chain on a thermal input of purity 1 - 1e-7, which the 1e-6
    # purity guard admits: the W side of a cut must use W = V^{-1}; the
    # pure-state identity W = Omega V Omega^T puts e_before off by 2e-7 here
    spec = ChainSpec(m=12, r=0.8, alpha_g=0.4 + 0.3j)
    nu = np.ones(12)
    nu[0] = 1.0 / (1.0 - 1e-7)
    state, g = apply_circuit(thermal_state(nu), chain_elements(spec)), spec.resolved_g
    assert abs(purity(state) - (1.0 - 1e-7)) <= 1e-12
    e_before, delta = entanglement_increase_cuts(state, g, kind)
    for i, part in enumerate(_cut_modes(12, g)):
        assert abs(e_before[i] - renyi2_entanglement_pure(state, part)) <= 1e-12
        assert abs(delta[i] - entanglement_increase(state, part, g, kind)) <= 1e-12


def test_batched_increase_vacuum_mode_rejected():
    with pytest.raises(VacuumModeSubtraction):
        entanglement_increase_cuts(vacuum(3), 0, "subtract")
    _, delta = entanglement_increase_cuts(vacuum(3), 0, "add")
    assert_allclose(delta, 0.0, atol=1e-12)


def test_batched_increase_nearly_singular_reduction_rejected():
    # pure product of a 70 dB squeezed mode and a vacuum mode: cond(V_A) = 1e14
    state = GaussianState(m=2, mean=np.zeros(4), cov=np.diag([1e7, 1.0, 1e-7, 1.0]))
    with pytest.raises(SingularCovariance):
        entanglement_increase_cuts(state, 0, "subtract")


def test_batched_increase_requires_pure_state():
    with pytest.raises(GlobalStateNotPure):
        entanglement_increase_cuts(thermal_state([2.0, 2.0]), 0)


def test_interlacing_guard_fails_fast():
    # the 70 dB product state is not cleared by cond(V), and its full cut, whose
    # V_A is V, would fail too: the guard raises before any cut is factored
    state = GaussianState(m=2, mean=np.zeros(4), cov=np.diag([1e7, 1.0, 1e-7, 1.0]))
    with pytest.raises(SingularCovariance):
        photon._batch_guards(state, 0, "subtract")
    with pytest.raises(SingularCovariance):
        entanglement_increase_cuts(state, 0, "subtract")
    # a cleared state gets log det V and W = V^{-1}
    chain = build_chain(ChainSpec(m=8, r=1.0, alpha_g=0.5))
    _, _, (logdet, inverse) = photon._batch_guards(chain, 4, "subtract")
    assert abs(logdet - np.linalg.slogdet(chain.cov)[1]) <= 1e-12
    assert_allclose(inverse @ chain.cov, np.eye(16), rtol=0, atol=1e-12)


UNCLEARED_STATES = [
    # pure product of a 70 dB squeezed mode and a vacuum mode: cond(V) = 1e14
    (GaussianState(m=2, mean=np.array([0.0, 1.0, 0.0, 0.5]), cov=np.diag([1e7, 1.0, 1e-7, 1.0])), 1),
    # det V = 1 passes the purity check, but V is indefinite
    (GaussianState(m=2, mean=np.array([0.0, 1.0, 0.0, 0.5]), cov=np.diag([-1.0, 1.0, -1.0, 1.0])), 1),
]


@pytest.mark.parametrize("kind", ["subtract", "add"])
@pytest.mark.parametrize("state, g", UNCLEARED_STATES)
def test_uncleared_state_fails_before_any_cut_is_factored(monkeypatch, state, g, kind):
    def unreachable(*args):
        raise AssertionError("a cut was factored before the conditioning guard")

    monkeypatch.setattr(photon, "_g_schur", unreachable)
    with pytest.raises(SingularCovariance):
        entanglement_increase_cuts(state, g, kind)


@pytest.mark.parametrize("kind", ["subtract", "add"])
def test_indefinite_covariance_gives_typed_error(kind):
    # det V = 1 passes the purity check; the full V_A is indefinite
    state = GaussianState(m=2, mean=np.array([0.0, 1.0, 0.0, 0.5]), cov=np.diag([-1.0, 1.0, -1.0, 1.0]))
    with pytest.raises(SingularCovariance):
        entanglement_increase_cuts(state, 1, kind)
    # a Cholesky breakdown is typed even when the guard is bypassed, on either side
    with pytest.raises(SingularCovariance):
        photon._g_schur(state, np.array([[0]]), 1, 1.0)
    with pytest.raises(SingularCovariance):
        photon._g_schur(state, np.array([[0]]), 1, 1.0, (0.0, np.linalg.inv(state.cov)))


def test_negative_reduced_determinant_fails_as_in_the_scalar_route():
    state = GaussianState(m=2, mean=np.array([0.0, 1.0, 0.0, 0.5]), cov=np.diag([-1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(SingularCovariance):
        entanglement_increase(state, (1,), 1, "add")
    with pytest.raises(SingularCovariance):
        entanglement_increase_cuts(state, 1, "add")


def test_g_schur_complement_matches_scalar_wigner_moments():
    # the kernel's G = X M = V_g + 2sI + (V_A^{-1})_gg and B = G / 2, against the
    # solve-based definitions and the scalar route's Wick terms, on mixed reduced
    # states; from V_A and from W = V^{-1} on the complement plus g, which hold
    # for any positive-definite V, mixed global states included
    rng = np.random.default_rng(43)
    for _ in range(60):
        m = int(rng.integers(1, 6))
        nu = rng.uniform(1.0, 5.0, m)
        S = random_symplectic(m, rng, squeeze_bound=1.5)
        cov = S @ np.diag(np.concatenate([nu, nu])) @ S.T
        state = GaussianState(m=m, mean=rng.normal(size=2 * m), cov=cov)  # complex alpha on every mode
        g = int(rng.integers(m))
        gi = quad_indices((g,), m)
        alpha = state.mean[gi]
        inverse = photon._inverse(cov)
        for part in _subsets_with(m, g):
            rest = np.array([[mode for mode in part if mode != g]], dtype=int).reshape(1, len(part) - 1)
            complement = np.array([[mode for mode in range(m) if mode not in part]],
                                  dtype=int).reshape(1, m - len(part))
            idx = quad_indices(part, m)
            v_a = cov[np.ix_(idx, idx)]
            at_g = [part.index(g), len(part) + part.index(g)]
            w_gg = np.linalg.inv(v_a)[np.ix_(at_g, at_g)]
            for (kind, s), (side, inv) in itertools.product(
                    (("subtract", -1.0), ("add", 1.0)), ((rest, None), (complement, inverse))):
                logdet, g_mat = photon._g_schur(state, side, g, s, inv)
                g_mat, b = g_mat[0], g_mat[0] / 2.0
                scale = np.abs(g_mat).max()
                assert abs(logdet[0] - np.linalg.slogdet(v_a)[1]) <= 1e-12
                assert_allclose(g_mat, cov[np.ix_(gi, gi)] + 2.0 * s * np.eye(2) + w_gg,
                                rtol=0, atol=1e-12 * scale)
                x_mat = (cov + s * np.eye(2 * m))[np.ix_(gi, idx)]
                mt = np.linalg.solve(v_a, x_mat.T)
                assert_allclose(x_mat @ mt, g_mat, rtol=0, atol=1e-12 * scale)
                assert_allclose(mt.T @ (v_a / 2.0) @ mt, b, rtol=0, atol=1e-12 * scale)
                sub = photon_reduced_wigner(state, g, part, kind)
                qs = sub.poly_Q @ (sub.base.cov / 2.0)
                assert abs(np.trace(qs) - np.trace(b)) <= 1e-12 * scale
                assert abs(np.trace(qs @ qs) - np.trace(b @ b)) <= 1e-12 * scale ** 2
                q_sig_q = sub.poly_q @ (sub.base.cov / 2.0) @ sub.poly_q
                assert abs(q_sig_q - 4.0 * alpha @ b @ alpha) <= 1e-12 * max(1.0, abs(q_sig_q))
                assert abs(sub.poly_c - (sub.norm - np.trace(g_mat))) <= 1e-12 * max(1.0, abs(sub.poly_c))


def test_cut_masks_follow_bit_order():
    # entry j of the cuts holds g and, for each set bit i of j, the i-th mode
    # besides g; those modes ascend, so mask order is entry order
    for m in range(1, 13):
        for g in range(m):
            others = [i for i in range(m) if i != g]
            expected = [
                (1 << g) + sum(1 << others[i] for i in range(m - 1) if bits >> i & 1)
                for bits in range(2 ** (m - 1))
            ]
            masks = cut_masks(m, g)
            assert masks.tolist() == expected
            assert np.all(np.diff(masks) > 0)


def test_cuts_check_the_global_state_before_enumerating(monkeypatch):
    def unreachable(*args):
        raise AssertionError("subsets enumerated before the global checks")

    monkeypatch.setattr(photon, "cut_masks", unreachable)
    monkeypatch.setattr(photon, "_g_schur", unreachable)
    with pytest.raises(GlobalStateNotPure):
        entanglement_increase_cuts(thermal_state([2.0, 1.0, 3.0]), 0)
    with pytest.raises(VacuumModeSubtraction):
        entanglement_increase_cuts(vacuum(3), 1, "subtract")


# ---------------------------------------------------------------------------
# mixed multimode states against the oracle


def test_mixed_state_relative_purity_matches_fock_oracle():
    ns = [2.0, 1.5]
    alpha = 0.3 + 0.2j
    shift = np.array([2 * alpha.real, 0.0, 2 * alpha.imag, 0.0])
    elems = [two_mode_squeezer(0, 1, 0.6), displacement(shift)]

    gauss = apply_circuit(thermal_state(ns), elems)
    # the same gates on the system modes 0 and 1 of a four-mode purification;
    # cutoff 28: at 24, create drops 3.0e-8 of the a^dag weight at the top level,
    # above the default leak_tol; at 28 it drops 1.1e-9
    wide = np.zeros(8)
    wide[[0, 1, 4, 5]] = shift
    fock = thermal_purification(ns, 28)
    for elem in (elems[0], displacement(wide)):
        fock = apply_gate_fock(fock, elem, pad=12)
    mean, cov = covariance_fock(fock, modes=[0, 1])
    assert np.abs(cov - gauss.cov).max() < 1e-6

    system = [0, 1]
    mu_oracle = reduced_purity(fock, system)
    g = 0
    minus = annihilate(fock, g)
    ratio_oracle = reduced_purity(minus, system) / mu_oracle

    dec = williamson(gauss)
    row = bogoliubov_row(dec, g)
    ratio_closed = relative_purity_closed_form(dec, row, "subtract")
    sub = photon_reduced_wigner(gauss, g, (0, 1))
    ratio_wigner = relative_purity_of_subtracted(sub)

    assert abs(ratio_closed - ratio_oracle) / ratio_oracle < 1e-6
    assert abs(ratio_wigner - ratio_oracle) / ratio_oracle < 1e-6

    plus = create(fock, g)
    ratio_add_oracle = reduced_purity(plus, system) / mu_oracle
    ratio_add = relative_purity_closed_form(dec, row, "add")
    ratio_add_wigner = relative_purity_of_subtracted(photon_reduced_wigner(gauss, g, (0, 1), "add"))
    assert abs(ratio_add - ratio_add_oracle) / ratio_add_oracle < 1e-6
    assert abs(ratio_add_wigner - ratio_add_oracle) / ratio_add_oracle < 1e-6


def _tight_elems(label, m):
    # gates on mode 0 of an m-mode state: none, a displacement by 0.4 + 0.3i, or
    # a squeeze by 0.3 followed by that displacement
    shift = np.zeros(2 * m)
    shift[0], shift[m] = 0.8, 0.6
    return {"thermal": [], "displaced": [displacement(shift)],
            "squeezed": [single_mode_squeezer(0, 0.3), displacement(shift)]}[label]


@pytest.mark.parametrize("kind", ["subtract", "add"])
@pytest.mark.parametrize("n", [1.5, 3.0, 10.0])
@pytest.mark.parametrize("label", ["thermal", "displaced", "squeezed"])
def test_tight_regime_three_routes_through_purification(label, n, kind):
    # As n grows a thermal mode's relative purity falls to its floor 1/2 (the
    # log 2 cap), so the routes are compared on the excess ratio - 1/2, relative
    # to itself: 5.0e-3 for the bare mode at n = 10. The oracle holds the mode
    # as its two-mode purification at cutoff 320, which the squeezed n = 10
    # state needs: at 240 its excess is off by 5e-10. At 320 the largest gap
    # over all 18 cases is 1.2e-13, so the bound is 1e-12.
    gauss = apply_circuit(thermal_state(n), _tight_elems(label, 1))
    dec = williamson(gauss)
    closed = relative_purity_closed_form(dec, bogoliubov_row(dec, 0), kind)
    wigner = photon.relative_purity_wigner_many(
        gauss.cov[None], gauss.mean[None], np.array([0]), np.array([[0]]), kind)[0]

    fock = thermal_purification([n], 320)
    for elem in _tight_elems(label, 2):
        fock = apply_gate_fock(fock, elem)
    altered = (annihilate if kind == "subtract" else create)(fock, 0)
    excess = reduced_purity(altered, [0]) / reduced_purity(fock, [0]) - 0.5
    assert excess > 0.0
    for ratio in (closed, wigner):
        assert abs((ratio - 0.5) - excess) <= 1e-12 * excess


def test_addition_matches_dense_fock_with_rotated_squeezing_and_complex_alpha():
    # a thermal mode, squeezed along a rotated axis and displaced by a complex
    # amplitude, in a dense single-mode Fock basis; the conjugation of the
    # adjoint Bogoliubov row only shows when both are present
    d = 120
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)
    ad = a.conj().T
    zeta, alpha = 0.4 * np.exp(0.7j), 0.3 + 0.2j
    rho = thermal_density(1.6, d)
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

"""Tests for photon subtraction/addition: the Wigner-moment route, the
closed-form relative purity and the entanglement increase, each cross-checked
against the Fock oracle; and the thermal trace identities of
``fock_reference.thermal_traces``, which unit-test the thermal density of
``fock.thermal_purification``."""

import functools
import hashlib
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
    GraphSpec,
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
    build_graph,
    chain_elements,
    create,
    displacement,
    entanglement_increase,
    grid_adjacency,
    purity,
    reduce_state,
    reduced_purity,
    relative_purity_closed_form,
    renyi2_entanglement_pure,
    single_mode_squeezer,
    thermal_purification,
    two_mode_squeezer,
    vacuum,
    williamson,
)
from cvdistill import cli, photon, states
from cvdistill.cli import TRIAL_CHUNK, bounds_ratios, two_path_error, two_path_ratios
from cvdistill.photon import LOG_2, cut_masks, entanglement_increase_cuts, relative_purity_many
from cvdistill.states import ladder_blocks, quad_indices, williamson_many
from cvdistill.symplectic import euler_factors, euler_symplectic
from fock_reference import covariance_fock, thermal_density, thermal_product_purification, thermal_traces
from scalar_reference import (
    photon_reduced_wigner,
    purity_of_subtracted,
    random_symplectic,
    relative_purity_of_subtracted,
    scalar_entanglement_increase,
)
from test_fock import _printed_at_thread_counts


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
# thermal traces: closed forms in fock_reference, checked against thermal_density


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


def test_array_closed_form_gives_a_vacuum_row_nan_in_a_batch():
    # the stacked closed form does not raise for a vacuum row: the row is NaN, and the
    # other rows are bit for bit what they are without it
    dec, row = single_mode_row(3.0, alpha=0.2)
    nu = np.array([[3.0], [1.0], [3.0]])
    k = np.array([row.k, [0j], row.k])
    ell = np.array([row.l, [1 + 0j], row.l])  # middle row: vacuum, k = 0, alpha = 0
    alpha = np.array([0.2, 0.0, 0.2])
    ratios = relative_purity_many(nu, k, ell, alpha)
    assert np.isnan(ratios[1])
    alone = relative_purity_many(nu[::2], k[::2], ell[::2], alpha[::2])
    assert ratios[::2].tobytes() == alone.tobytes()
    assert np.array_equal(alone, [relative_purity_closed_form(dec, row, "subtract")] * 2)


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


@functools.lru_cache(maxsize=None)
def _per_trial_draws(seed, trials, chunk=TRIAL_CHUNK):
    # the trials of verify-bounds as the reference: each chunk re-drawn in the documented order
    # (the chunk's mode counts, then per mode count m its k trials' occupations, Ginibre parts,
    # squeezings, g and amplitude), each trial then built on its own. Returns (m, nu, S, g, alpha)
    # per trial and the generator state after the ceil(trials / chunk) chunks
    rng = np.random.default_rng(seed)
    draws = []
    for start in range(0, trials, chunk):
        counts = rng.integers(1, 6, size=chunk)
        chunk_draws = [None] * chunk
        for m in range(1, 6):
            pos = np.flatnonzero(counts == m)
            k = len(pos)
            u_nu, parts, u_squeeze = rng.random((k, m)), rng.standard_normal((k, 2, 2, m, m)), rng.random((k, m))
            g, u_alpha = rng.integers(0, m, size=k), rng.random((k, 2))
            for i, at in enumerate(pos):
                nu = np.sort(1.0 + 9.0 * u_nu[i])[::-1]
                radius, angle = 2.0 * math.sqrt(u_alpha[i, 0]), 2.0 * math.pi * u_alpha[i, 1]
                chunk_draws[at] = (m, nu, euler_symplectic(*euler_factors(parts[i], u_squeeze[i], 2.0)), int(g[i]),
                                   radius * complex(math.cos(angle), math.sin(angle)))
        draws += chunk_draws[:trials - start]
    return draws, rng.bit_generator.state


def _bounds_ratios_per_trial(seed, trials, kind, chunk=TRIAL_CHUNK):
    # verify-bounds one trial at a time through the scalar closed form, kept as the reference
    ratios = []
    for m, nu, S, g, alpha in _per_trial_draws(seed, trials, chunk)[0]:
        mean = np.zeros(2 * m)
        mean[g], mean[m + g] = 2.0 * alpha.real, 2.0 * alpha.imag
        dec = WilliamsonDecomposition(S=S, nu=nu, mean=mean)
        ratios.append(relative_purity_closed_form(dec, bogoliubov_row(dec, g), kind))
    return np.array(ratios)


def _bounds_array(seed, trials, kind):
    # the (positions, ratios) pairs of bounds_ratios as one array in draw order
    ratios, hits = np.full(trials, np.nan), np.zeros(trials, dtype=int)
    for pos, stacked in bounds_ratios(seed, trials, kind):
        ratios[pos] = stacked
        np.add.at(hits, pos, 1)
    assert (hits == 1).all()  # every trial once
    return ratios


# trials per chunk: the default, which fixes the pinned outputs, and one that 513 trials span
# six chunks of, the last one partly taken
CHUNKS = [TRIAL_CHUNK, 100]


@pytest.mark.parametrize("kind", ["subtract", "add"])
def test_batched_bounds_ratios_match_per_trial_loop(monkeypatch, kind):
    for chunk in CHUNKS:
        monkeypatch.setattr(cli, "TRIAL_CHUNK", chunk)
        reference = _bounds_ratios_per_trial(17, 513, kind, chunk)
        assert_allclose(_bounds_array(17, 513, kind), reference, rtol=1e-15, atol=0)


# sha256 of the full arrays at 513 trials; a change to any bit of any trial shows here.
# Re-recorded when the trials moved to bulk draws per chunk of TRIAL_CHUNK trials, a new
# trial stream: at seed 17 subtract 3d9ce564... -> f3f5cd6e..., add 2c109789... -> 83e2b32b...;
# at seed 20210409 subtract 6ee086a4... -> b2550684..., add af28fb24... -> b2efe145...
# Re-recorded when the Haar factors moved from LAPACK QR to two-pass Gram-Schmidt, the same
# draws with round-off moved (at most 5e-15 relative over 100000 trials): at seed 17 subtract
# f3f5cd6e... -> 44b33847..., add 83e2b32b... -> 56f25b21...; at seed 20210409 subtract
# b2550684... -> 630dd9b0..., add b2efe145... -> e76652d9...
# Re-recorded when the closed form's row moved from ladder_blocks of the assembled S to the Euler
# factors (L = U_1 cosh(s) U_2, K = U_1 sinh(s) conj(U_2)), the same draws with round-off moved: at
# seed 17 subtract 44b33847... -> b986de37..., add 56f25b21... -> 1b780818...; at seed 20210409
# subtract 630dd9b0... -> 3c37a265..., add e76652d9... -> f6fe2bdd...
BOUNDS_SHA256 = {
    (17, "subtract"): "b986de37a964ebf4bf212b6ec59c1ef7a42667c5436862e147cde3970fc2cc2d",
    (17, "add"): "1b7808181a0a44d1041e607320330a887c91a54abc4d2806fb8e38177c86bd93",
    (20210409, "subtract"): "3c37a265dfd002710f8089d7b81386a221e9e5ebb4ffd203c4820f3329c592d8",
    (20210409, "add"): "f6fe2bddc71aa7ecad8ad80aa99b3e0a65556d0cf42473f41c3aa736384dc4b9",
}
# (wigner, closed) of two_path_ratios(seed, trials, kind); re-recorded when the trials moved to
# bulk draws per chunk and the Wigner route to the m-mode states: two_path_error(seed, 513, kind)
# moved at seed 1 from 1.56e-13 to 1.41e-13 (subtract) and 8.80e-14 to 1.47e-13 (add), at seed 941 from
# 6.18e-14 to 5.72e-14 (subtract) and 6.09e-14 to 7.95e-14 (add). Re-recorded when the Haar
# factors moved from LAPACK QR to two-pass Gram-Schmidt: two_path_error(seed, 513, kind) moved at
# seed 1 from 1.41e-13 to 6.79e-14 (subtract) and 1.47e-13 to 7.51e-14 (add), at seed 941 from
# 5.72e-14 to 9.80e-14 (subtract) and 7.95e-14 to 1.10e-13 (add); old digests (wigner, closed):
# seed 1 subtract a34d6111..., 62e81801...; add 08b469f8..., e797cf78...; seed 941 subtract
# d61f88b9..., 437dfd5c...; add b6a2e37f..., 2833a456.... Re-recorded, the closed halves only, when
# the closed form's row moved to the Euler factors; every wigner half kept its digest, and
# two_path_error(seed, 513, kind) moved only at seed 1 subtract, from 6.79e-14 to 6.77e-14. Closed
# halves: seed 1 subtract 2ce3ed47... -> d0fe8b25..., add b5fa58f8... -> 695df5fd...; seed 941
# subtract 5bd4ab29... -> 52718d7c..., add 033f1f73... -> 213489a0...
TWO_PATH_SHA256 = {
    (1, "subtract"): ("301cb08a601768684ae7f5aeedf0a9e6b700648b8cf96dc0ac0a6ba6404318e3",
                      "d0fe8b2548e925b63410fbd8891fcf6f19aed2ada0d91b934782e2222785da48"),
    (1, "add"): ("5066e06d622011afc9499c227117da5d160aa468339c34fd6cf44c31265d77f2",
                 "695df5fd6685f7b9a26752fda62567edece24060b296b62687dfe81652aa9dc8"),
    (941, "subtract"): ("e3b3e5e85f9052628db5e673553a6c2060efe15f5c81c1b9521d30ca5287761b",
                        "52718d7caccf6081f0e6b33a65a98bc01c75fbd94805653eac848db6deaee455"),
    (941, "add"): ("005f2953366ef5fa464c09b2b51aafafd862549262307df74c62d23cb9e3e884",
                   "213489a01096d403e198f5ae07b62bb2d92aa3534f6c02fb1c4d7a5fc10b56f6"),
}


def _sha256(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


@pytest.mark.parametrize("seed, kind", list(BOUNDS_SHA256))
def test_bounds_ratios_full_array_pins(seed, kind):
    assert _sha256(_bounds_array(seed, 513, kind)) == BOUNDS_SHA256[seed, kind]


@pytest.mark.parametrize("seed, kind", list(TWO_PATH_SHA256))
def test_two_path_ratios_full_array_pins(seed, kind):
    wigner, closed, _ = two_path_ratios(seed, 513, kind)
    assert (_sha256(wigner), _sha256(closed)) == TWO_PATH_SHA256[seed, kind]


def _state_after_draws(run):
    # the generator state after the chunks that `run` draws, read off the generator of its last chunk
    rngs, draw = [], cli._draw_chunk
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_draw_chunk", lambda rng: rngs.append(rng) or draw(rng))
        run()
    return rngs[-1].bit_generator.state


@pytest.mark.parametrize("seed", [1, 941])
def test_draw_loops_leave_the_generator_where_the_per_trial_loops_do(monkeypatch, seed):
    # pins how many numbers each chunk draws and in what order, not only a summary: after
    # ceil(513 / chunk) whole chunks, drawn in full though the run takes part of the last; the
    # two-path block draws verify-bounds' trials, so it leaves the generator where they do
    for chunk in CHUNKS:
        monkeypatch.setattr(cli, "TRIAL_CHUNK", chunk)
        reference = _per_trial_draws(seed, 513, chunk)[1]
        assert _state_after_draws(lambda: _bounds_array(seed, 513, "add")) == reference
        assert _state_after_draws(lambda: two_path_ratios(seed, 513, "add")) == reference


def test_batched_bounds_ratios_reject_unknown_kind():
    with pytest.raises(ValueError):
        list(bounds_ratios(17, 3, "remove"))


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


def _purification(nu, S):
    # the 2m-mode pure state, xxpp, whose modes 0..m-1 hold S diag(nu, nu) S^T: thermal mode i
    # purified by a two-mode squeezed vacuum with mode m + i, assembled as blocks, then reordered
    m = len(nu)
    c = np.sqrt(nu * nu - 1.0)
    d, cross = np.diag(np.concatenate([nu, nu])), np.diag(np.concatenate([c, -c]))
    blocks = np.block([[S @ d @ S.T, S @ cross], [cross @ S.T, d]])  # system x, p, then ancilla x, p
    order = np.concatenate([np.arange(m), 2 * m + np.arange(m), m + np.arange(m), 3 * m + np.arange(m)])
    return blocks[np.ix_(order, order)]


@functools.lru_cache(maxsize=None)
def _purified_per_trial(seed, trials, kinds=("subtract", "add")):
    # the two-path block one trial at a time, kept as the reference: (wigner, closed) per kind.
    # Each drawn decomposition's purification W is checked pure, and williamson_many of its
    # system block, the third route to the occupations, gives back the drawn nu. The scalar
    # Wigner route runs on W's system modes, a partial trace that the block itself, on the
    # m-mode state, does not take; the closed form runs on the drawn decomposition.
    draws, _ = _per_trial_draws(seed, trials)
    wigner, closed = np.full((2, len(kinds), trials), np.nan)
    for trial, (m, nu, S, g, alpha) in enumerate(draws):
        mean = np.zeros(4 * m)
        mean[g], mean[2 * m + g] = 2.0 * alpha.real, 2.0 * alpha.imag
        state = GaussianState(m=2 * m, mean=mean, cov=_purification(nu, S))
        sign, logdet = np.linalg.slogdet(state.cov)
        assert sign > 0 and abs(logdet) <= 1e-9  # det W = 1: W is pure
        system = tuple(range(m))
        reduced = reduce_state(state, system)
        assert_allclose(williamson_many(reduced.cov)[1], nu, rtol=1e-10, atol=0)
        dec = WilliamsonDecomposition(S=S, nu=nu, mean=reduced.mean)
        row = bogoliubov_row(dec, g)
        for j, kind in enumerate(kinds):
            try:
                wigner[j, trial] = relative_purity_of_subtracted(photon_reduced_wigner(state, g, system, kind))
            except VacuumModeSubtraction:
                continue
            closed[j, trial] = relative_purity_closed_form(dec, row, kind)
    return wigner, closed


def _two_path_by_kind(seed, trials, kinds):
    # two_path_ratios once per kind, stacked: (wigner, closed, vacuum), each (len(kinds), trials)
    return tuple(np.array(arrays) for arrays in zip(*(two_path_ratios(seed, trials, kind) for kind in kinds)))


@pytest.mark.parametrize("seed", [1, 51, 941])
@pytest.mark.parametrize("kinds", [("subtract",), ("add",), ("subtract", "add")])
def test_batched_two_path_matches_per_trial_loop(seed, kinds):
    assert {m for m, *_ in _per_trial_draws(seed, 513)[0]} == set(range(1, 6))
    at = [("subtract", "add").index(kind) for kind in kinds]
    wigner_ref, closed_ref = (ref[at] for ref in _purified_per_trial(seed, 513))
    wigner, closed, _ = _two_path_by_kind(seed, 513, kinds)
    assert np.array_equal(np.isnan(wigner), np.isnan(wigner_ref))
    assert np.array_equal(np.isnan(closed), np.isnan(closed_ref))
    assert not np.isnan(wigner).all()
    assert_allclose(wigner, wigner_ref, rtol=1e-12, atol=0)
    assert_allclose(closed, closed_ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", [1, 941])
@pytest.mark.parametrize("kind", ["subtract", "add"])
def test_two_path_closed_form_ratios_are_verify_bounds_ratios(seed, kind):
    # over three chunks, the last one partly taken
    closed = two_path_ratios(seed, 2 * TRIAL_CHUNK + 1, kind)[1]
    assert closed.tobytes() == _bounds_array(seed, 2 * TRIAL_CHUNK + 1, kind).tobytes()


@pytest.mark.parametrize("squeeze_bound", [0.0, 0.1, 2.0])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_ladder_rows_from_the_factors_are_row_g_of_the_assembled_blocks(m, squeeze_bound):
    # k = U_1[g] sinh(s) conj(U_2) and l = U_1[g] cosh(s) U_2 against row g of ladder_blocks of the
    # assembled S = O(U_1) diag(e^s, e^-s) O(U_2), within 1e-13 of the largest entry of the trial's
    # two rows; largest gap measured: 6.4e-16 of it
    rng = np.random.default_rng(50 + m)
    n = 1000
    factors = euler_factors(rng.standard_normal((n, 2, 2, m, m)), rng.random((n, m)), squeeze_bound)
    g = rng.integers(0, m, size=n)
    k_row, l_row = cli._ladder_rows(*factors, g)
    k_ref, l_ref = (mat[np.arange(n), g] for mat in ladder_blocks(euler_symplectic(*factors)))
    scale = np.maximum(np.abs(k_ref), np.abs(l_ref)).max(axis=1, keepdims=True)
    assert (np.abs(k_row - k_ref) <= 1e-13 * scale).all()
    assert (np.abs(l_row - l_ref) <= 1e-13 * scale).all()
    if squeeze_bound == 0.0:
        # sinh(0) = 0 exactly, so K's row is exactly zero, where the route through S leaves round-off
        assert not k_row.any()


def test_bounds_ratios_assemble_no_symplectic_matrix(monkeypatch):
    # verify-bounds reads row g straight from the Euler factors: no S and no Bogoliubov blocks; the
    # two-path block assembles S for its Wigner route only
    calls = []
    for name in ("euler_symplectic", "ladder_blocks"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    for kind in ("subtract", "add"):
        _bounds_array(1, 2 * TRIAL_CHUNK + 1, kind)
    assert calls == []
    two_path_ratios(1, 10, "add")
    assert "euler_symplectic" in calls and "ladder_blocks" not in calls


def test_two_path_ratios_run_no_williamson_decomposition(monkeypatch):
    # the drawn occupations are exact; the two-path block takes them as they are
    calls = []
    for module in (cli, states):
        fn = module.williamson_many
        monkeypatch.setattr(module, "williamson_many", lambda *args, fn=fn: calls.append(None) or fn(*args))
    _two_path_by_kind(1, 1000, ("subtract", "add"))
    assert calls == []
    cli._oracle_grid(2, [(0.4, 0.5)], "add", None)
    assert len(calls) == 1  # the counter sees the grid's one call


DRAW_LOOPS = {  # the ratios by trial of each loop over the trials
    "bounds": lambda trials: _bounds_array(1, trials, "add"),
    "two_path": lambda trials: two_path_ratios(1, trials, "add")[0],
}


@pytest.mark.parametrize("loop", list(DRAW_LOOPS))
def test_trials_are_a_prefix_of_a_longer_run_at_chunk_edges(monkeypatch, loop):
    # every chunk is drawn in full, so a run's trials are the first trials of any longer run,
    # bit for bit, also where a run ends at or just past a chunk's edge; each trial once
    run, chunk, trials = DRAW_LOOPS[loop], cli.TRIAL_CHUNK, cli._trials
    assert {nu.shape[1] for _, nu, *_ in trials(1, 513)} == set(range(1, 6))
    positions = []

    def recorded(*args):
        for stack in trials(*args):
            positions.append(stack[0])
            yield stack
    monkeypatch.setattr(cli, "_trials", recorded)
    full = run(3 * chunk)
    for count in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        positions.clear()
        part = run(count)
        assert np.sort(np.concatenate(positions)).tolist() == list(range(count))
        assert part.tobytes() == full[:count].tobytes()


@pytest.mark.parametrize("seed", [1, 941])
@pytest.mark.parametrize("kind", ["subtract", "add"])
def test_photon_weight_routes_agree(seed, kind):
    # the Wigner route's weight, from each trial's m-mode state, and the closed form's, from the
    # drawn (nu, K[g], L[g], alpha), are one mean photon number; largest gap measured: 7.5e-16
    trials = 0
    for _, nu, unitaries, log_squeeze, g, alpha in cli._trials(seed, 2 * TRIAL_CHUNK + 1):
        cov, mean = cli._trial_states(nu, unitaries, log_squeeze, g, alpha)
        k_row, l_row = cli._ladder_rows(unitaries, log_squeeze, g)
        assert_allclose(photon.photon_weights(cov, mean, g, kind),
                        photon.closed_form_weights(nu, k_row, l_row, alpha, kind), rtol=1e-13, atol=0)
        trials += len(g)
    assert trials == 2 * TRIAL_CHUNK + 1


@pytest.mark.parametrize("kind", ["subtract", "add"])
def test_stacked_kernels_agree_on_the_excess_near_saturation(kind):
    # the excess ratio - 1/2, relative to itself, of relative_purity_wigner_many on S diag(nu, nu) S^T
    # against relative_purity_many on (nu, K[g], L[g], alpha): occupations log-uniform in [10, 2e4]
    # and frames squeezed at most e^0.1 keep the ratio near 1/2, where a gap in the ratio that the
    # 1e-8 two-path bound allows is a large one in the excess. Largest gap measured here: 2.7e-12,
    # at excesses down to 8.3e-5; over 10000 such states: 1.3e-11
    rng = np.random.default_rng(6)
    for m in range(1, 6):
        n = 64
        nu = np.sort(10.0 * 2e3 ** rng.random((n, m)), axis=1)[:, ::-1]
        factors = euler_factors(rng.standard_normal((n, 2, 2, m, m)), rng.random((n, m)), 0.1)
        g = rng.integers(0, m, size=n)
        alpha = 2.0 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        cov, mean = cli._trial_states(nu, *factors, g, alpha)
        wigner = photon.relative_purity_wigner_many(cov, mean, g, np.broadcast_to(np.arange(m), (n, m)), kind)
        excess = relative_purity_many(nu, *cli._ladder_rows(*factors, g), alpha, kind) - 0.5
        assert excess.min() < 1e-3  # nearer the bound than verify-bounds' worst default draw, 2.7e-3
        assert_allclose(wigner - 0.5, excess, rtol=1e-9, atol=0)


def test_two_path_skips_a_vacuum_mode_trial(monkeypatch):
    # u = 0.5 maps to log-squeezing -2 + 4 * 0.5 = 0 exactly, which makes S
    # orthogonal; with occupations 1 + 9 * 0 = 1 the state is the vacuum
    # V = I and, with amplitude radius 0, mode g has no photon to subtract;
    # addition is still defined and compared
    draw = cli._draw_chunk

    def vacuum_fifth(rng):
        groups = draw(rng)
        for pos, u_nu, _, u_squeeze, _, u_alpha in groups:
            for row in np.flatnonzero(pos == 4):  # the group and row of trial 4
                u_nu[row], u_squeeze[row], u_alpha[row, 0] = 0.0, 0.5, 0.0
        return groups

    monkeypatch.setattr(cli, "_draw_chunk", vacuum_fifth)
    wigner, closed, vacuum = _two_path_by_kind(3, 20, ("subtract", "add"))
    assert np.isnan(wigner[0, 4]) and np.isnan(closed[0, 4])
    assert np.count_nonzero(np.isnan(wigner)) == 1
    assert np.flatnonzero(vacuum.reshape(-1)).tolist() == [4]  # subtraction at trial 4 only
    assert_allclose([wigner[1, 4], closed[1, 4]], 1.0, atol=1e-12)
    assert two_path_error(3, 20, "subtract") <= 1e-12


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
print(repr(two_path_error(941, 1000, "add")))
"""


def test_two_path_error_is_independent_of_blas_threads():
    # the stacked solves, eigensolves and matmuls must not round with the thread count
    one, two = _printed_at_thread_counts(_TWO_PATH_SCRIPT)
    assert one == two


_VERIFY_BOUNDS_SCRIPT = """
from cvdistill.cli import main
for kind in ("subtract", "add"):
    main(["--experiment", "verify-bounds", "--kind", kind, "--trials", "10000", "--seed", "1"])
"""


def test_verify_bounds_bytes_are_independent_of_blas_threads():
    # each chunk's stacks of about 200 trials go through stacked Gram-Schmidt and matmul
    one, two = _printed_at_thread_counts(_VERIFY_BOUNDS_SCRIPT)
    assert one == two and one.count('"violations": 0') == 2


_BOUNDS_RATIOS_SCRIPT = """
import hashlib
import numpy as np
from cvdistill.cli import bounds_ratios
ratios = np.full(4096, np.nan)
for pos, stacked in bounds_ratios(17, 4096, "add"):
    ratios[pos] = stacked
print(hashlib.sha256(ratios.tobytes()).hexdigest())
"""


def test_bounds_ratios_are_independent_of_blas_threads():
    # every bit of four chunks of ratios, not only the summary's 12 digits: the Haar factors'
    # broadcast sums call no BLAS, and the stacked matmuls must not round with the thread count
    one, two = _printed_at_thread_counts(_BOUNDS_RATIOS_SCRIPT)
    assert one == two and len(one) == 65


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


@pytest.mark.parametrize("kind", ["subtract", "add"])
@pytest.mark.parametrize("spec", [
    ChainSpec(m=8, r=0.9, alpha_g=0.4 + 0.3j),
    GraphSpec(adjacency=grid_adjacency(3, 3), squeezing_db=6.0, alpha_g=0.5),
], ids=["chain-8", "graph-3x3"])
def test_one_row_increase_equals_scalar_reference_bitwise(spec, kind):
    # every proper subset, so g sits on either side of each cut: the one-state
    # stacked call rounds as the scalar Wigner route does
    state = build_chain(spec) if isinstance(spec, ChainSpec) else build_graph(spec)
    for bits in range(1, 2 ** spec.m - 1):
        part = tuple(i for i in range(spec.m) if bits >> i & 1)
        assert entanglement_increase(state, part, spec.resolved_g, kind) == scalar_entanglement_increase(
            state, part, spec.resolved_g, kind)


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


def test_batched_increase_keeps_input_order_across_chunks(monkeypatch):
    # the 12-mode chain's 2048 cuts split into descents of 1 to 1024 cuts,
    # 5 of them not powers of two: each split gives the same bits in cut order
    spec = ChainSpec(m=12, r=0.8, alpha_g=0.4 + 0.3j)
    state, g = build_chain(spec), spec.resolved_g
    e_before, delta = entanglement_increase_cuts(state, g, "add")
    for chunk in (1, 3, 64, 100, 1000, 1024):
        monkeypatch.setattr(photon, "TRIE_CHUNK", chunk)
        e_split, d_split = entanglement_increase_cuts(state, g, "add")
        assert np.array_equal(e_split, e_before) and np.array_equal(d_split, delta)
    subsets = _cut_modes(12, g)
    for i in range(0, len(subsets), 97):
        assert abs(e_before[i] - renyi2_entanglement_pure(state, subsets[i])) <= 1e-12
        assert abs(delta[i] - entanglement_increase(state, subsets[i], g, "add")) <= 1e-12
    assert delta.max() <= LOG_2 + 1e-9


@pytest.mark.parametrize("kind", ["subtract", "add"])
def test_cuts_of_a_slightly_mixed_chain_match_scalar_route(kind):
    # a 12-mode chain on a thermal input of purity 1 - 1e-7, which the 1e-6
    # purity guard admits: the trie uses no pure-state identity (taking
    # V^{-1} as Omega V Omega^T would put e_before off by 2e-7 here)
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

    monkeypatch.setattr(photon, "_trie_level", unreachable)
    with pytest.raises(SingularCovariance):
        entanglement_increase_cuts(state, g, kind)


@pytest.mark.parametrize("kind", ["subtract", "add"])
def test_pivot_guard_types_an_uncleared_state(monkeypatch, kind):
    # with the global guards bypassed, the indefinite state reaches the trie,
    # whose pivot check raises before any log
    state, g = UNCLEARED_STATES[1]
    monkeypatch.setattr(photon, "_batch_guards", lambda *args: (photon._kind_sign(kind), 1.0))
    with pytest.raises(SingularCovariance):
        entanglement_increase_cuts(state, g, kind)


@pytest.mark.parametrize("kind", ["subtract", "add"])
def test_indefinite_covariance_gives_typed_error(kind):
    # det V = 1 passes the purity check; the full V_A is indefinite
    state = GaussianState(m=2, mean=np.array([0.0, 1.0, 0.0, 0.5]), cov=np.diag([-1.0, 1.0, -1.0, 1.0]))
    with pytest.raises(SingularCovariance):
        entanglement_increase_cuts(state, 1, kind)
    # a pivot that is not positive definite is typed even when the guard is
    # bypassed: the leading pivot here, and a NaN one
    with pytest.raises(SingularCovariance):
        photon._trie_level(state.cov[None], np.zeros(1))
    with pytest.raises(SingularCovariance):
        photon._trie_level(np.full((1, 4, 4), np.nan), np.zeros(1))


def test_negative_reduced_determinant_fails_as_in_the_scalar_route():
    state = GaussianState(m=2, mean=np.array([0.0, 1.0, 0.0, 0.5]), cov=np.diag([-1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(SingularCovariance):
        entanglement_increase(state, (1,), 1, "add")
    with pytest.raises(SingularCovariance):
        entanglement_increase_cuts(state, 1, "add")


def test_g_schur_complement_matches_scalar_wigner_moments():
    # the trie's per-cut log det V_A and (V_A^{-1})_gg, the inverse of g's Schur
    # complement, against slogdet and inv on mixed reduced states; the kernel's
    # G = X M = V_g + 2sI + (V_A^{-1})_gg and B = G / 2 against the solve-based
    # definitions and the scalar route's Wick terms
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
        order = quad_indices(np.array([i for i in range(m) if i != g] + [g])[:, None], m).ravel()
        logdets, w_ggs = photon._trie_leaves(cov[np.ix_(order, order)][None], np.zeros(1), m - 1)
        for part, logdet, w_gg in zip(_cut_modes(m, g), logdets, w_ggs):
            idx = quad_indices(part, m)
            v_a = cov[np.ix_(idx, idx)]
            at_g = [part.index(g), len(part) + part.index(g)]
            w_ref = np.linalg.inv(v_a)[np.ix_(at_g, at_g)]
            assert abs(logdet - np.linalg.slogdet(v_a)[1]) <= 1e-12
            assert_allclose(w_gg, w_ref, rtol=0, atol=1e-12 * np.abs(w_ref).max())
            for kind, s in (("subtract", -1.0), ("add", 1.0)):
                g_mat = cov[np.ix_(gi, gi)] + 2.0 * s * np.eye(2) + w_gg
                b = g_mat / 2.0
                scale = np.abs(g_mat).max()
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
    monkeypatch.setattr(photon, "_trie_level", unreachable)
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
    # cutoff 32: at 30, create drops 2.1e-10 of the a^dag weight at the top level,
    # above LEAK_TOL; at 32 it drops 4.0e-11
    wide = np.zeros(8)
    wide[[0, 1, 4, 5]] = shift
    fock = thermal_product_purification(ns, 32)
    for elem in (elems[0], displacement(wide)):
        fock = apply_gate_fock(fock, elem)
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

    fock = thermal_purification(n, 320)
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

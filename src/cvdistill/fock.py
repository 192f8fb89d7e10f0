"""Brute-force truncated Fock-space simulator.

Serves as the independent verification oracle for the analytic Gaussian and
photon-operation machinery on small systems (at most four modes). States are
pure dense tensors over a per-mode photon-number cutoff ``d``; a mixed state
enters as a purification over extra modes (a thermal mode as
:func:`thermal_purification`), and its purity is the :func:`reduced_purity`
of the system side. A gate acts through the exact exponential of its
ladder-operator generator at twice the cutoff, restricted back to levels
below ``d``, so that truncation loss shows up as norm leakage that is
tracked and held to the one bound ``LEAK_TOL``; ``create`` counts the weight
its truncated ``a^dag`` drops the same way.

The exponentials are dense and built block by block; only one cutoff's
unit spectra are cached. Two-mode squeezers and beamsplitters conserve
``n_i - n_j`` and ``n_i + n_j``, so they split into blocks of at most
``2 d`` levels; single-mode gates are one block. A block's generator ``G``,
real antisymmetric and linear in the gate parameter, couples state ``t``
only to ``t +- w``, so ``G = [[0, C], [-C^T, 0]]`` over its two colour
classes, and one SVD of the half-size ``C`` (Golub & Kahan, SIAM J. Numer.
Anal. B 2, 205 (1965)) gives its real exponential at every parameter.
Identical blocks share one SVD and one exponential: a two-mode squeezer's
blocks ``n_i - n_j = k`` and ``-k`` are the same matrix, bit for bit. A
displacement is the real one rotated by ``diag(e^(i theta n))``; CZ is
diagonal in the eigenbasis of ``x``. The module needs NumPy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (
    LEAK_TOL, ZERO_WEIGHT,
    CutoffTooSmall,
    IndexOutOfRange,
    InvalidOccupation,
    TooManyModes,
    ZeroNorm,
)
from .states import subsystem_modes
from .symplectic import CircuitElement

MAX_MODES = 4


def suggested_cutoff(mean_photon: float) -> int:
    """Heuristic per-mode cutoff for a target mean photon number."""
    return max(20, math.ceil(10.0 * (mean_photon + 1.0)))


def _ladder(d: int) -> np.ndarray:
    # annihilation matrix: <n-1| a |n> = sqrt(n); O(d^2) per call and not cached, so no cutoff a run meets stays held
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


@dataclass(frozen=True)
class FockArray:
    """Dense truncated Fock tensor of a pure state, of shape ``(cutoff,) * m``.

    ``leakage`` accumulates the fraction of norm lost to truncation by gate
    applications and ``create``, which raise ``CutoffTooSmall`` above
    ``LEAK_TOL``; amplitudes are never renormalised implicitly, so the
    stored norm stays within ``[1 - leakage, 1]`` for states built from
    vacuum.
    """

    m: int
    cutoff: int
    data: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        if self.m > MAX_MODES:
            raise TooManyModes(f"Fock oracle supports at most {MAX_MODES} modes, got {self.m}")
        expected = (self.cutoff,) * self.m
        if self.data.shape != expected:
            raise ValueError(f"data shape {self.data.shape} does not match {expected}")

    def weight(self) -> float:
        """Squared norm; the success weight of ladder ops."""
        return float(np.vdot(self.data, self.data).real)


def vacuum_fock(m: int, cutoff: int) -> FockArray:
    """The ``m``-mode vacuum as a pure Fock tensor."""
    data = np.zeros((cutoff,) * m, dtype=complex)
    data[(0,) * m] = 1.0
    return FockArray(m=m, cutoff=cutoff, data=data)


# ---------------------------------------------------------------------------
# gate spectra and application


def _frozen(*arrays) -> tuple:
    out = tuple(np.ascontiguousarray(arr) for arr in arrays)
    for arr in out:
        arr.flags.writeable = False
    return out


# Per kind, the width w of its unit generator's couplings: a conserved block's state t couples only to t +- w
_WIDTH = {"two_mode_squeezer": 1, "beamsplitter": 1, "single_mode_squeezer": 2, "displacement": 1}


def _unit_blocks(kind: str, d: int):
    """Yield ``(C, rows, flats)`` per distinct conserved block of a unit-parameter generator at ``2 d`` levels.

    ``C`` is the block's :func:`_coupling`, built from the one band of
    couplings its generator has: state ``t`` couples only to ``t + w``. The
    block's states below ``d`` on every mode are its states ``rows``, at the
    flat indices (over ``(d,) * modes``) in ``flats``, one array per block
    that ``C`` serves. Per kind, with ``s_n = sqrt(n)`` from :func:`_ladder`:

    - two-mode squeezer, block ``k = n_i - n_j`` for ``0 <= k < d``: states
      ``(k + t, t)`` for ``t < 2d - k``, coupled by
      ``(0.5 s_(t+k+1)) s_(t+1)``; its rows ``t < d - k`` also serve the block
      ``-k``, the same states with the modes swapped;
    - beamsplitter, block ``k = n_i + n_j`` for ``0 <= k <= 2d - 2``: states
      ``(n, k - n)`` for ``0 <= n <= k``, ``n - 1`` and ``n`` coupled by
      ``-(s_n s_(k-n+1))``;
    - single-mode squeezer, one block of ``2d`` levels: ``n`` and ``n + 2``
      coupled by ``-0.5 (s_(n+1) s_(n+2))``;
    - displacement, one block: ``n`` and ``n + 1`` coupled by ``-s_(n+1)``
      (the generator ``a^dag - a``; the phase of ``alpha`` is a rotation,
      applied by :func:`_apply_term`).

    These are the products the ladder matrices of the generator form, so
    ``C`` holds the same bits as the matrix gathered from the full generator.
    """
    root = np.sqrt(np.arange(2 * d + 1.0))  # root[n] = s_n
    if kind in ("single_mode_squeezer", "displacement"):
        band = -0.5 * (root[1:-2] * root[2:-1]) if kind == "single_mode_squeezer" else -root[1:-1]
        yield _coupling(band, _WIDTH[kind]), slice(0, d), (np.arange(d),)
    elif kind == "two_mode_squeezer":
        for k in range(d):
            t = np.arange(d - k)
            flats = ((k + t) * d + t, t * d + k + t)
            yield _coupling(0.5 * root[k + 1 : -1] * root[1 : 2 * d - k], 1), slice(0, d - k), flats[: 1 + (k > 0)]
    elif kind == "beamsplitter":
        for k in range(2 * d - 1):
            n = np.arange(1, k + 1)  # the block's states are n = 0 .. k, all below 2d
            kept = np.arange(max(0, k - d + 1), min(k, d - 1) + 1)
            yield _coupling(-(root[n] * root[k + 1 - n]), 1), slice(kept[0], kept[-1] + 1), (kept * d + k - kept,)
    else:
        raise ValueError(f"unknown gate kind {kind!r}")


def _coupling(band: np.ndarray, w: int) -> np.ndarray:
    # C = G[E, O] of the antisymmetric G with band on its +w diagonal, E the states t with t // w even, O the rest
    upper, even = np.diag(band, w), np.arange(len(band) + w) // w % 2 == 0
    return (upper - upper.T)[np.ix_(even, ~even)]


def _eigensolve(kind: str, d: int) -> tuple:
    """``(flat indices below d, theta, L[rows])`` per conserved block of the unit generator.

    One real SVD ``C = P diag(sigma) Q^T`` of a block's :func:`_coupling`
    gives ``exp(x G) = (L cos(x theta) + L[:, partner] sin(x theta)) L^T`` at
    every ``x`` (:func:`_block`): ``L = blockdiag(P, Q)`` is orthogonal, its
    rows the block's states in order, its columns pairs ``(P_i, Q_i)`` at
    ``theta = (-sigma_i, sigma_i)``, then any column left over at 0. Blocks
    ``k`` and ``-k`` of a two-mode squeezer share one ``theta`` and ``L``.
    CZ is instead ``(basis, lam)``: the eigendecomposition of ``x`` at ``2 d``
    levels, its basis cut to levels below ``d``. The arrays are frozen, as
    they are cached.
    """
    if kind == "cz":
        a = _ladder(2 * d)
        lam, vecs = np.linalg.eigh(a + a.T)
        return _frozen(vecs[:d].copy(), lam)  # a copy: a view would hold all 2d rows
    spectra = []
    for coupling, rows, flats in _unit_blocks(kind, d):
        left, sigma, right = np.linalg.svd(coupling)
        (p, q), r = coupling.shape, len(sigma)
        even, basis, theta = np.arange(p + q) // _WIDTH[kind] % 2 == 0, np.zeros((p + q, p + q)), np.zeros(p + q)
        basis[np.ix_(even, np.r_[0 : 2 * r : 2, 2 * r : p + r])] = left
        basis[np.ix_(~even, np.r_[1 : 2 * r : 2, 2 * r : q + r])] = right.T
        theta[0 : 2 * r : 2], theta[1 : 2 * r : 2] = -sigma, sigma
        theta, basis = _frozen(theta, basis[rows].copy())  # a copy, as for CZ
        spectra += [(*_frozen(flat), theta, basis) for flat in flats]
    return tuple(spectra)


@lru_cache(maxsize=1)
def _spectra(d: int) -> dict:
    # gate kind -> its _eigensolve at cutoff d: the one gate cache, of one cutoff at a time
    return {}


def _unit_spectrum(kind: str, d: int) -> tuple:
    """:func:`_eigensolve` of ``kind`` at cutoff ``d``, cached with the other kinds at ``d`` only."""
    spectra = _spectra(d)
    if kind not in spectra:
        spectra[kind] = _eigensolve(kind, d)
    return spectra[kind]


def _block(theta: np.ndarray, basis: np.ndarray, x: float) -> np.ndarray:
    # exp(x G) on a block's states below d, from its _eigensolve; partner swaps each column pair
    partner = (np.arange(len(theta)) ^ 1) % len(theta)  # of a column left over, any: its theta is 0
    return (basis * np.cos(x * theta) + basis[:, partner] * np.sin(x * theta)) @ basis.T


def _apply_term(data: np.ndarray, axes: list, kind: str, params: tuple, d: int) -> np.ndarray:
    """Exact propagator of one gate term on the given tensor axes, built block by block.

    Each block of a squeezer or beamsplitter is its real :func:`_block`,
    built, applied to the complex rows through their float64 view and
    dropped; a block with all-zero rows is skipped, and a two-mode squeezer's
    block ``k`` serves ``-k`` too. A displacement by ``|alpha| e^(i theta)``
    is ``R exp(|alpha| (a^dag - a)) R^dag``, ``R = diag(e^(i theta n))``. CZ's
    parity blocks are too large for a dense eigensolve each, so it goes through
    the eigenbasis of ``x`` and the phases ``exp(i w lambda_a lambda_b / 2)``.
    """
    work = np.moveaxis(data, axes, range(len(axes)))
    flat = work.reshape(int(np.prod(work.shape[: len(axes)])), -1)
    if kind == "cz":
        (weight,) = params
        basis, lam = _unit_spectrum(kind, d)
        out = basis.T @ flat.reshape(d, -1)
        out = basis.T @ out.reshape(2 * d, d, -1)
        out *= np.exp(0.5j * weight * np.outer(lam, lam))[:, :, None]
        out = basis @ (basis @ out).reshape(2 * d, -1)
    else:
        x = params[0]
        if kind == "displacement":
            alpha = complex(*params)
            x, rotation = abs(alpha), np.exp(1j * math.atan2(alpha.imag, alpha.real) * np.arange(d))[:, None]
            flat = rotation.conj() * flat
        out, last = np.zeros_like(flat), None
        for idx, theta, basis in _unit_spectrum(kind, d):
            if not (rows := flat[idx]).any():  # zero rows stay zero
                continue
            if basis is not last:  # else block -k of a two-mode squeezer: block k, bit for bit
                last, block = basis, _block(theta, basis, x)
            out[idx] = (block @ rows.view(np.float64)).view(complex)
        out = rotation * out if kind == "displacement" else out
    out = np.moveaxis(out.reshape(work.shape), range(len(axes)), axes)
    return np.ascontiguousarray(out)


def _gate_terms(elem: CircuitElement, m: int) -> list[tuple[tuple, str, tuple]]:
    """Split an element into (modes, kind, params) terms: a displacement's are ``(Re alpha, Im alpha)``, none at 0."""
    for mode in elem.modes:
        if not 0 <= mode < m:
            raise IndexOutOfRange(f"mode {mode} outside [0, {m})")
    if elem.kind == "displacement":
        return [(elem.modes, "displacement", (elem.param.real, elem.param.imag))] if elem.param else []
    return [(elem.modes, elem.kind, (elem.param,))]


def gate_cache_bytes(elements, m: int, d: int) -> int:
    """Bytes that :func:`apply_gate_fock` caches for ``elements`` at cutoff ``d``.

    Counted from the block sizes, before any SVD: per gate kind its
    :func:`_eigensolve` arrays (flat indices, ``theta``, ``L[rows]``), or CZ's
    ``basis`` and ``lam``. That cache holds one cutoff at a time and no
    propagator, so this bounds the gate cache of a whole run, not one case.
    """
    padded, total = 2 * d, 0
    for kind in {kind for elem in elements for _, kind, _ in _gate_terms(elem, m)}:
        if kind == "cz":
            total += 8 * d * padded + 8 * padded
            continue
        # (states, states below d, copies) per distinct block; a two-mode squeezer's k > 0 serves -k too
        blocks = ([(padded - k, d - k, 1 + (k > 0)) for k in range(d)] if kind == "two_mode_squeezer" else
                  [(k + 1, min(k + 1, 2 * d - 1 - k), 1) for k in range(2 * d - 1)] if kind == "beamsplitter"
                  else [(padded, d, 1)])
        total += sum(8 * n + 8 * n * k + 8 * k * c for n, k, c in blocks)
    return total


def apply_gate_fock(state: FockArray, elem: CircuitElement) -> FockArray:
    """Apply one circuit element to a pure Fock state by exponentiating its generator.

    The exponential of the generator is taken at twice the per-mode cutoff
    and restricted to levels below the cutoff, block by block from the cached
    unit spectra, so a gate kind costs one SVD a block while the cutoff stays.
    Whatever amplitude it moves above the cutoff is recorded as leakage. On
    a purification, a gate on the system modes leaves the other modes alone.

    Args:
        state: pure Fock tensor.
        elem: circuit element; same vocabulary as the Gaussian side.

    Raises:
        CutoffTooSmall: if the accumulated leakage exceeds ``LEAK_TOL``.
    """
    d, data = state.cutoff, state.data
    for modes, kind, params in _gate_terms(elem, state.m):
        data = _apply_term(data, list(modes), kind, params, d)
    before = state.weight()
    after = float(np.vdot(data, data).real)
    lost = max(0.0, (before - after) / before) if before > 0 else 0.0
    return replace(state, data=data, leakage=_add_leakage(state, lost))


def _add_leakage(state: FockArray, lost: float) -> float:
    """``state.leakage + lost``, or CutoffTooSmall above ``LEAK_TOL``."""
    leakage = state.leakage + lost
    if leakage > LEAK_TOL:
        raise CutoffTooSmall(
            f"truncation leakage {leakage:.3e} exceeds tolerance {LEAK_TOL:.1e} "
            f"at cutoff {state.cutoff}"
        )
    return leakage


# ---------------------------------------------------------------------------
# ladder operations and purities


def _ladder_op(state: FockArray, g: int, dagger: bool) -> FockArray:
    if not 0 <= g < state.m:
        raise IndexOutOfRange(f"mode {g} outside [0, {state.m})")
    op = _ladder(state.cutoff)
    moved = np.tensordot(op.T if dagger else op, state.data, axes=(1, g))
    return replace(state, data=np.moveaxis(moved, 0, g))


def annihilate(state: FockArray, g: int) -> FockArray:
    """Apply ``a_g``; returned unnormalised.

    The weight of the result is the subtraction success weight, proportional
    to the mean photon number of mode ``g``.

    Raises:
        ZeroNorm: if mode ``g`` is vacuum, so the result vanishes.
    """
    out = _ladder_op(state, g, dagger=False)
    if out.weight() < ZERO_WEIGHT:
        raise ZeroNorm(f"mode {g} is vacuum; photon subtraction undefined")
    return out


def create(state: FockArray, g: int) -> FockArray:
    """Apply ``a_g^dag``; returned unnormalised.

    The truncated creation operator cannot raise the top level ``d - 1`` of
    mode ``g`` to ``d``. The weight it drops, ``d`` times that level's
    weight, is added to ``leakage`` relative to the full ``a_g^dag`` weight
    (kept plus dropped).

    Raises:
        CutoffTooSmall: if the accumulated leakage exceeds ``LEAK_TOL``.
    """
    out = _ladder_op(state, g, dagger=True)
    d = state.cutoff
    top = np.take(state.data, d - 1, axis=g)
    dropped = d * float(np.vdot(top, top).real)
    total = out.weight() + dropped
    return replace(out, leakage=_add_leakage(state, dropped / total if total > 0 else 0.0))


def _hermitian_purity(mat: np.ndarray) -> float:
    # mat is Hermitian, so tr(mat^2) = sum |mat_ij|^2; einsum, not the BLAS
    # vdot, whose threaded sum changes the last bits with the thread count
    parts = mat.reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", parts, parts) / np.trace(mat).real ** 2)


def reduced_purity(state: FockArray, subsystem) -> float:
    """``tr(rho_A^2)`` of a pure Fock tensor, normalised by ``tr(rho_A)^2``.

    The modes follow the subset rule of :func:`~cvdistill.states.subsystem_modes`.
    A pure state's two sides share their Schmidt coefficients, so
    ``tr rho_A^2 = tr rho_B^2``, and ``rho_A`` is never formed. With ``M`` the
    tensor reshaped to ``(d^|S|, d^(m - |S|))``, rows over the smaller side
    ``S`` (``A`` when the sides are equal), this is ``sum |G_ij|^2 / tr(G)^2``
    for the Gram matrix ``G = M M^dag``. A side and its complement of
    unequal size therefore give the same ``G`` and the same bits. For a
    purification, the system side's value is the purity of the mixed state.
    """
    keep = list(subsystem_modes(state.m, subsystem))
    rest = [i for i in range(state.m) if i not in keep]
    side, others = (keep, rest) if len(keep) <= len(rest) else (rest, keep)
    mat = np.transpose(state.data, side + others).reshape(state.cutoff ** len(side), -1)
    return _hermitian_purity(mat @ mat.conj().T)


def thermal_purification(n: float, cutoff: int) -> FockArray:
    """Two-mode purification of the thermal mode with covariance ``diag(n, n)``, truncated and renormalised.

    Amplitudes ``sqrt(p_k)`` on ``|k, k>``, with ``p`` the geometric photon
    distribution of mean ``(n - 1) / 2`` cut to ``k < cutoff`` and
    renormalised; mode 0 holds the thermal state.

    Raises:
        InvalidOccupation: for ``n < 1``.
    """
    if n < 1.0:
        raise InvalidOccupation(f"thermal occupation {n} below the vacuum value 1")
    nbar = (n - 1.0) / 2.0
    probs = (nbar / (nbar + 1.0)) ** np.arange(cutoff)  # at nbar = 0, 0 ** 0 = 1: the vacuum
    probs /= probs.sum()
    return FockArray(m=2, cutoff=cutoff, data=np.diag(np.sqrt(probs)).astype(complex))

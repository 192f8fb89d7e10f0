"""Brute-force truncated Fock-space simulator.

Serves as the independent verification oracle for the analytic Gaussian and
photon-operation machinery on small systems (at most four modes). States are
pure dense tensors over a per-mode photon-number cutoff ``d``; a mixed state
enters as a purification over extra modes, and its purity is the
:func:`reduced_purity` of the system side. A gate acts through the exact
exponential of its ladder-operator generator at a padded cutoff, restricted
back to levels below ``d``, so that truncation loss shows up as norm leakage
that is tracked and bounded; ``create`` counts the weight its truncated
``a^dag`` drops the same way.

The exponentials are dense and cached per gate and cutoff. Two-mode
squeezers and beamsplitters conserve ``n_i - n_j`` and ``n_i + n_j``, so
they split into blocks of at most ``padded`` levels; single-mode gates are
one block. Every block's generator is real antisymmetric and linear in the
gate parameter, so one real symmetric ``eigh`` of the unit-parameter block,
cached per gate kind and cutoff, gives the exponential at every parameter
(unitary diagonalisation; Higham, *Functions of Matrices*, ch. 10).
Identical blocks share one eigensolve: a two-mode squeezer's blocks
``n_i - n_j = k`` and ``-k`` are the same matrix, bit for bit. A
displacement is the real one rotated by ``diag(e^(i theta n))``; CZ is
diagonal in the eigenbasis of ``x``. The module needs NumPy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (
    CutoffTooSmall,
    IndexOutOfRange,
    InvalidOccupation,
    TooManyModes,
    ZeroNorm,
)
from .states import subsystem_modes
from .symplectic import CircuitElement

MAX_MODES = 4
DEFAULT_LEAK_TOL = 1e-8
_ZERO_WEIGHT = 1e-300


def suggested_cutoff(mean_photon: float) -> int:
    """Heuristic per-mode cutoff for a target mean photon number."""
    return max(20, math.ceil(10.0 * (mean_photon + 1.0)))


@lru_cache(maxsize=None)
def _ladder(d: int) -> np.ndarray:
    # annihilation matrix: <n-1| a |n> = sqrt(n); cached, so frozen
    mat = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    mat.flags.writeable = False
    return mat


@dataclass(frozen=True)
class FockArray:
    """Dense truncated Fock tensor of a pure state, of shape ``(cutoff,) * m``.

    ``leakage`` accumulates the fraction of norm lost to truncation by gate
    applications and ``create``; amplitudes are never renormalised
    implicitly, so the stored norm stays within ``[1 - leakage, 1]`` for
    states built from vacuum.
    """

    m: int
    cutoff: int
    data: np.ndarray
    leakage: float = 0.0
    leak_tol: float = DEFAULT_LEAK_TOL

    def __post_init__(self):
        if self.m > MAX_MODES:
            raise TooManyModes(f"Fock oracle supports at most {MAX_MODES} modes, got {self.m}")
        expected = (self.cutoff,) * self.m
        if self.data.shape != expected:
            raise ValueError(f"data shape {self.data.shape} does not match {expected}")

    def weight(self) -> float:
        """Squared norm; the success weight of ladder ops."""
        return float(np.vdot(self.data, self.data).real)


def vacuum_fock(m: int, cutoff: int, leak_tol: float = DEFAULT_LEAK_TOL) -> FockArray:
    """The ``m``-mode vacuum as a pure Fock tensor."""
    data = np.zeros((cutoff,) * m, dtype=complex)
    data[(0,) * m] = 1.0
    return FockArray(m=m, cutoff=cutoff, data=data, leak_tol=leak_tol)


# ---------------------------------------------------------------------------
# gate propagators and application


@dataclass(frozen=True)
class _Propagator:
    """``exp(gen)`` at the padded cutoff, restricted to levels below ``d``.

    ``blocks`` pairs the flat indices (over the gate's modes, below ``d``) of
    one conserved block with that block's propagator. CZ instead keeps the
    eigenbasis of the padded ``x`` cut to levels below ``d`` (``basis``,
    ``d x padded``) and the phases ``exp(i w lambda_a lambda_b / 2)``.
    """

    blocks: tuple = ()
    basis: np.ndarray | None = None
    phases: np.ndarray | None = None

    def apply(self, tensor: np.ndarray, axes: list) -> np.ndarray:
        """The propagator on the given tensor axes."""
        work = np.moveaxis(tensor, axes, range(len(axes)))
        flat = work.reshape(int(np.prod(work.shape[: len(axes)])), -1)
        if self.basis is not None:
            d, padded = self.basis.shape
            out = self.basis.T @ flat.reshape(d, -1)
            out = self.basis.T @ out.reshape(padded, d, -1)
            out *= self.phases[:, :, None]
            out = self.basis @ (self.basis @ out).reshape(padded, -1)
        else:
            out = np.empty_like(flat)
            for idx, block in self.blocks:
                out[idx] = block @ flat[idx]
        out = np.moveaxis(out.reshape(work.shape), range(len(axes)), axes)
        return np.ascontiguousarray(out)


def _frozen(*arrays) -> tuple:
    out = tuple(np.ascontiguousarray(arr) for arr in arrays)
    for arr in out:
        arr.flags.writeable = False
    return out


# Per kind, the width w of its unit generator's couplings: each conserved
# block couples its t-th state only to states t +- w.
_WIDTH = {"two_mode_squeezer": 1, "beamsplitter": 1, "single_mode_squeezer": 2, "displacement": 1}


def _unit_blocks(kind: str, d: int, padded: int):
    """Yield ``(levels, gen)`` per distinct conserved block of a unit-parameter generator.

    ``levels`` holds the per-mode photon numbers of the block's states, in
    order, and ``gen`` is the real antisymmetric generator on them. Only the
    blocks with a state below ``d`` on every mode are yielded. The two-mode
    squeezer's generator is symmetric in its two modes, so its block
    ``n_i - n_j = -k`` is the block ``k`` with the modes swapped: the same
    ``padded - k`` states, coupled by ``0.5 sqrt((t + 1)(t + k + 1))`` bit
    for bit. Only its blocks ``k >= 0`` are yielded. The displacement's unit
    generator is ``a^dag - a``; the phase of ``alpha`` is a rotation, applied
    by :func:`_propagator`.
    """
    a = _ladder(padded)
    if kind == "single_mode_squeezer":
        yield (np.arange(padded),), 0.5 * (a.T @ a.T - a @ a)
        return
    if kind == "displacement":
        yield (np.arange(padded),), a.T - a
        return
    if kind == "two_mode_squeezer":
        c, x, y, conserved = 0.5, a, a, np.subtract
    elif kind == "beamsplitter":
        c, x, y, conserved = 1.0, a.T, a, np.add
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    # generator c (X kron Y - its transpose); conserved(n_i, n_j) labels its blocks
    n_i, n_j = np.divmod(np.arange(padded * padded), padded)
    label = conserved(n_i, n_j)
    low = label[(n_i < d) & (n_j < d)]
    for k in range(0 if kind == "two_mode_squeezer" else low.min(), low.max() + 1):
        bi, bj = n_i[label == k], n_j[label == k]
        half = c * x[np.ix_(bi, bi)] * y[np.ix_(bj, bj)]
        yield (bi, bj), half - half.T


@lru_cache(maxsize=None)
def _unit_spectrum(kind: str, d: int, padded: int) -> tuple:
    """``(flat indices below d, lam, U[keep])`` per conserved block of the unit generator.

    Each block's ``G`` is real antisymmetric and couples state ``t`` only to
    ``t +- w``, so ``-iG = D J D^dag`` with ``J = triu(G) + triu(G)^T`` real
    symmetric and ``D = diag(exp(i pi t / (2w)))``. One real ``eigh(J) = (lam,
    V)`` per distinct block of :func:`_unit_blocks` then gives ``exp(x G) = U
    diag(exp(i x lam)) U^dag`` with ``U = D V`` for every parameter ``x``. A
    two-mode squeezer's blocks ``k`` and ``-k`` share one ``lam`` and ``U``.
    Cached, so its arrays are frozen.
    """
    spectra = []
    for levels, gen in _unit_blocks(kind, d, padded):
        keep = np.logical_and.reduce([lv < d for lv in levels])
        upper = np.triu(gen)
        lam, vecs = np.linalg.eigh(upper + upper.T)
        phase = np.exp(0.5j * np.pi / _WIDTH[kind] * np.arange(len(gen)))
        lam, vecs = _frozen(lam, phase[keep, None] * vecs[keep])
        # a squeezer block k > 0, whose first state is (k, 0), also serves -k: the modes swapped
        mirrored = kind == "two_mode_squeezer" and levels[0][0] > 0
        for lv in (levels, levels[::-1]) if mirrored else (levels,):
            flat = np.ravel_multi_index(tuple(n[keep] for n in lv), (d,) * len(lv))
            spectra.append((*_frozen(flat), lam, vecs))
    return tuple(spectra)


@lru_cache(maxsize=None)
def _propagator(kind: str, params: tuple, d: int, padded: int) -> _Propagator:
    """Exact propagator of one gate term; cached, so its arrays are frozen.

    Squeezers and beamsplitters are linear in their parameter, so each block
    is ``U diag(exp(i x lam)) U^dag`` from :func:`_unit_spectrum`, real like
    its generator. A displacement by ``alpha = |alpha| e^(i theta)`` is
    ``R exp(|alpha| (a^dag - a)) R^dag`` with ``R = diag(e^(i theta n))``. CZ's
    parity blocks are too large for a dense eigensolve each, so it goes
    through the eigendecomposition of the padded ``x``.
    """
    if kind == "cz":
        (weight,) = params
        a = _ladder(padded)
        lam, vecs = np.linalg.eigh(a + a.T)
        basis, phases = _frozen(vecs[:d], np.exp(0.5j * weight * np.outer(lam, lam)))
        return _Propagator(basis=basis, phases=phases)
    if kind == "displacement":
        alpha = complex(*params)
        x, rotation = abs(alpha), np.exp(1j * math.atan2(alpha.imag, alpha.real) * np.arange(d))
    else:
        (x,) = params
    blocks = []
    for idx, lam, vecs in _unit_spectrum(kind, d, padded):
        if kind == "displacement":
            vecs = rotation[idx, None] * vecs
        block = (vecs * np.exp(1j * x * lam)) @ vecs.conj().T
        blocks.append(_frozen(idx, block if kind == "displacement" else block.real))
    return _Propagator(blocks=tuple(blocks))


def _gate_terms(elem: CircuitElement, m: int) -> list[tuple[tuple, str, tuple]]:
    """Split an element into (modes, kind, params) generator applications."""
    for mode in elem.modes:
        if not 0 <= mode < m:
            raise IndexOutOfRange(f"mode {mode} outside [0, {m})")
    if elem.kind == "displacement":
        if elem.shift is None or elem.shift.size != 2 * m:
            raise ValueError(f"displacement shift must have length {2 * m}")
        terms = []
        for mode in range(m):
            re = elem.shift[mode] / 2.0
            im = elem.shift[m + mode] / 2.0
            if re != 0.0 or im != 0.0:
                terms.append(((mode,), "displacement", (re, im)))
        return terms
    return [(elem.modes, elem.kind, (elem.param,))]


def apply_gate_fock(state: FockArray, elem: CircuitElement, pad: int | None = None) -> FockArray:
    """Apply one circuit element to a pure Fock state by exponentiating its generator.

    The exponential of the generator is taken at the padded per-mode cutoff
    ``cutoff + pad`` (default: double the cutoff), restricted to levels below
    the cutoff and cached, so the same gate costs one exponential per run.
    Whatever amplitude it moves above the cutoff is recorded as leakage. On
    a purification, a gate on the system modes leaves the other modes alone.

    Args:
        state: pure Fock tensor.
        elem: circuit element; same vocabulary as the Gaussian side.
        pad: extra per-mode levels during gate application.

    Raises:
        CutoffTooSmall: if the accumulated leakage exceeds ``state.leak_tol``.
    """
    d = state.cutoff
    padded = d + (d if pad is None else pad)
    data = state.data
    for modes, kind, params in _gate_terms(elem, state.m):
        data = _propagator(kind, params, d, padded).apply(data, list(modes))
    before = state.weight()
    after = float(np.vdot(data, data).real)
    lost = max(0.0, (before - after) / before) if before > 0 else 0.0
    return replace(state, data=data, leakage=_add_leakage(state, lost))


def _add_leakage(state: FockArray, lost: float) -> float:
    """``state.leakage + lost``, or CutoffTooSmall above ``state.leak_tol``."""
    leakage = state.leakage + lost
    if leakage > state.leak_tol:
        raise CutoffTooSmall(
            f"truncation leakage {leakage:.3e} exceeds tolerance {state.leak_tol:.1e} "
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
    if out.weight() < _ZERO_WEIGHT:
        raise ZeroNorm(f"mode {g} is vacuum; photon subtraction undefined")
    return out


def create(state: FockArray, g: int) -> FockArray:
    """Apply ``a_g^dag``; returned unnormalised.

    The truncated creation operator cannot raise the top level ``d - 1`` of
    mode ``g`` to ``d``. The weight it drops, ``d`` times that level's
    weight, is added to ``leakage`` relative to the full ``a_g^dag`` weight
    (kept plus dropped).

    Raises:
        CutoffTooSmall: if the accumulated leakage exceeds ``state.leak_tol``.
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


def thermal_density(n: float, cutoff: int) -> np.ndarray:
    """Single-mode thermal state with covariance ``diag(n, n)``, truncated and renormalised.

    Returned as its real ``(cutoff, cutoff)`` density matrix; the mean photon
    number is ``(n - 1) / 2``. Amplitudes ``sqrt(p_k)`` on ``|k, k>``, with
    ``p`` its diagonal, give a two-mode purification.

    Raises:
        InvalidOccupation: for ``n < 1``.
    """
    if n < 1.0:
        raise InvalidOccupation(f"thermal occupation {n} below the vacuum value 1")
    nbar = (n - 1.0) / 2.0
    if nbar == 0.0:
        probs = np.zeros(cutoff)
        probs[0] = 1.0
    else:
        ratio = nbar / (nbar + 1.0)
        probs = ratio ** np.arange(cutoff)
        probs /= probs.sum()
    return np.diag(probs)

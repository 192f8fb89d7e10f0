"""Brute-force truncated Fock-space simulator.

Serves as the independent verification oracle for the analytic Gaussian and
photon-operation machinery on small systems (at most four modes). States are
dense tensors over a per-mode photon-number cutoff ``d``; gates act through
the exponential of their ladder-operator generator, evaluated on a padded
cutoff and projected back, so that truncation loss shows up as norm (or
trace) leakage that is tracked and bounded.

Everything here trades speed for transparency on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

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


def quadrature_ops(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense single-mode ``x = a + a^dag`` and ``p = -i(a - a^dag)`` at cutoff ``d``."""
    a = _ladder(d)
    return a + a.T, -1j * (a - a.T)


@dataclass(frozen=True)
class FockArray:
    """Dense truncated Fock representation of a pure state or density matrix.

    Pure states are complex tensors of shape ``(cutoff,) * m``; densities are
    ``(cutoff**m, cutoff**m)`` matrices. ``leakage`` accumulates the fraction
    of norm (or trace) lost to truncation by gate applications; amplitudes
    are never renormalised implicitly, so the stored norm stays within
    ``[1 - leakage, 1]`` for states built from vacuum.
    """

    m: int
    cutoff: int
    data: np.ndarray
    is_density: bool = False
    leakage: float = 0.0
    leak_tol: float = DEFAULT_LEAK_TOL

    def __post_init__(self):
        if self.m > MAX_MODES:
            raise TooManyModes(f"Fock oracle supports at most {MAX_MODES} modes, got {self.m}")
        dim = self.cutoff ** self.m
        expected = (dim, dim) if self.is_density else (self.cutoff,) * self.m
        if self.data.shape != expected:
            raise ValueError(f"data shape {self.data.shape} does not match {expected}")

    def weight(self) -> float:
        """Squared norm (pure) or trace (density); the success weight of ladder ops."""
        if self.is_density:
            return float(np.trace(self.data).real)
        return float(np.vdot(self.data, self.data).real)

    def normalized(self) -> "FockArray":
        w = self.weight()
        if w < _ZERO_WEIGHT:
            raise ZeroNorm("cannot normalise a zero state")
        scale = w if self.is_density else math.sqrt(w)
        return replace(self, data=self.data / scale)

    def to_density(self) -> "FockArray":
        if self.is_density:
            return self
        vec = self.data.reshape(-1)
        return replace(self, data=np.outer(vec, vec.conj()), is_density=True)

    def _tensor(self) -> np.ndarray:
        # density as a (d,)*2m tensor: ket axes 0..m-1, bra axes m..2m-1
        if self.is_density:
            return self.data.reshape((self.cutoff,) * (2 * self.m))
        return self.data


def vacuum_fock(m: int, cutoff: int, leak_tol: float = DEFAULT_LEAK_TOL) -> FockArray:
    """The ``m``-mode vacuum as a pure Fock tensor."""
    data = np.zeros((cutoff,) * m, dtype=complex)
    data[(0,) * m] = 1.0
    return FockArray(m=m, cutoff=cutoff, data=data, leak_tol=leak_tol)


def number_basis_state(occupations, cutoff: int, leak_tol: float = DEFAULT_LEAK_TOL) -> FockArray:
    """A photon-number basis state ``|n_1 ... n_m>``."""
    occ = tuple(int(n) for n in occupations)
    if any(n < 0 or n >= cutoff for n in occ):
        raise IndexOutOfRange(f"occupations {occ} outside [0, {cutoff})")
    data = np.zeros((cutoff,) * len(occ), dtype=complex)
    data[occ] = 1.0
    return FockArray(m=len(occ), cutoff=cutoff, data=data, leak_tol=leak_tol)


# ---------------------------------------------------------------------------
# gate generators and application


@lru_cache(maxsize=None)
def _sparse_ladder(d: int):
    return sparse.csr_matrix(_ladder(d)).astype(complex)


@lru_cache(maxsize=None)
def _generator(kind: str, params: tuple, dim: int):
    """Sparse anti-Hermitian generator of a gate on its own (padded) mode space."""
    a = _sparse_ladder(dim)
    ad = a.conj().T
    if kind == "two_mode_squeezer":
        (r,) = params
        gen = (r / 2.0) * (sparse.kron(a, a) - sparse.kron(ad, ad))
    elif kind == "single_mode_squeezer":
        (r_s,) = params
        gen = (r_s / 2.0) * (ad @ ad - a @ a)
    elif kind == "beamsplitter":
        (theta,) = params
        gen = theta * (sparse.kron(ad, a) - sparse.kron(a, ad))
    elif kind == "cz":
        (weight,) = params
        x = a + ad
        gen = 1j * (weight / 2.0) * sparse.kron(x, x)
    elif kind == "displacement":
        re, im = params
        alpha = re + 1j * im
        gen = alpha * ad - np.conj(alpha) * a
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    return gen.tocsc()


def _pad_axis(tensor: np.ndarray, axis: int, new_dim: int) -> np.ndarray:
    pads = [(0, 0)] * tensor.ndim
    pads[axis] = (0, new_dim - tensor.shape[axis])
    return np.pad(tensor, pads)


def _apply_generator_axes(tensor, axes, gen, d: int, padded: int) -> np.ndarray:
    """exp(gen) on the given tensor axes, padded to ``padded`` then cut back to ``d``."""
    work = tensor
    for ax in axes:
        work = _pad_axis(work, ax, padded)
    work = np.moveaxis(work, axes, range(len(axes)))
    lead = work.shape[: len(axes)]
    flat = work.reshape(int(np.prod(lead)), -1)
    flat = expm_multiply(gen, flat)
    work = flat.reshape(lead + work.shape[len(axes):])
    work = np.moveaxis(work, range(len(axes)), axes)
    cut = [slice(None)] * work.ndim
    for ax in axes:
        cut[ax] = slice(0, d)
    return np.ascontiguousarray(work[tuple(cut)])


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
    """Apply one circuit element to a Fock state by exponentiating its generator.

    The generator is built at the padded per-mode cutoff ``cutoff + pad``
    (default: double the cutoff), the exponential acts there, and the result
    is projected back. Whatever amplitude stays above the cutoff is recorded
    as leakage.

    Args:
        state: pure or density Fock array.
        elem: circuit element; same vocabulary as the Gaussian side.
        pad: extra per-mode levels during gate application.

    Raises:
        CutoffTooSmall: if the accumulated leakage exceeds ``state.leak_tol``.
    """
    d = state.cutoff
    padded = d + (d if pad is None else pad)
    terms = _gate_terms(elem, state.m)
    data = state._tensor()
    before = state.weight()
    for modes, kind, params in terms:
        gen = _generator(kind, params, padded)
        data = _apply_generator_axes(data, list(modes), gen, d, padded)
        if state.is_density:
            bra_axes = [state.m + ax for ax in modes]
            data = _apply_generator_axes(data, bra_axes, gen.conj(), d, padded)
    if state.is_density:
        dim = d ** state.m
        data = data.reshape(dim, dim)
        after = float(np.trace(data).real)
    else:
        after = float(np.vdot(data, data).real)
    lost = max(0.0, (before - after) / before) if before > 0 else 0.0
    leakage = state.leakage + lost
    if leakage > state.leak_tol:
        raise CutoffTooSmall(
            f"truncation leakage {leakage:.3e} exceeds tolerance {state.leak_tol:.1e} "
            f"at cutoff {d}"
        )
    return replace(state, data=data, leakage=leakage)


# ---------------------------------------------------------------------------
# ladder operations and reductions


def _apply_mode_op(tensor: np.ndarray, op: np.ndarray, axis: int) -> np.ndarray:
    moved = np.tensordot(op, tensor, axes=(1, axis))
    return np.moveaxis(moved, 0, axis)


def _ladder_op(state: FockArray, g: int, dagger: bool) -> FockArray:
    if not 0 <= g < state.m:
        raise IndexOutOfRange(f"mode {g} outside [0, {state.m})")
    op = _ladder(state.cutoff)
    if dagger:
        op = op.T
    data = state._tensor()
    data = _apply_mode_op(data, op, g)
    if state.is_density:
        data = _apply_mode_op(data, op.conj(), state.m + g)
        dim = state.cutoff ** state.m
        data = data.reshape(dim, dim)
    return replace(state, data=data)


def annihilate(state: FockArray, g: int) -> FockArray:
    """Apply ``a_g`` (both sides for densities); returned unnormalised.

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
    """Apply ``a_g^dag`` (both sides for densities); returned unnormalised.

    The truncated creation operator drops the top Fock level; keep enough
    cutoff headroom above the occupied levels.
    """
    return _ladder_op(state, g, dagger=True)


def reduce_density(state: FockArray, subsystem) -> FockArray:
    """Partial trace onto the given modes, returned as a density FockArray.

    The modes follow the subset rule of :func:`~cvdistill.states.subsystem_modes`.
    """
    keep = subsystem_modes(state.m, subsystem)
    d = state.cutoff
    m_a = len(keep)
    if state.is_density:
        tensor = state._tensor()
        drop = [i for i in range(state.m) if i not in keep]
        for i in sorted(drop, reverse=True):
            tensor = np.trace(tensor, axis1=i, axis2=i + tensor.ndim // 2)
        rho = tensor.reshape(d ** m_a, d ** m_a)
    else:
        drop = [i for i in range(state.m) if i not in keep]
        rho = np.tensordot(state.data, state.data.conj(), axes=(drop, drop))
        rho = rho.reshape(d ** m_a, d ** m_a)
    return FockArray(
        m=m_a, cutoff=d, data=rho, is_density=True,
        leakage=state.leakage, leak_tol=state.leak_tol,
    )


def purity_fock(density: FockArray) -> float:
    """``tr(rho^2)`` of a density FockArray, normalised by its trace."""
    if not density.is_density:
        raise ValueError("purity_fock expects a density FockArray")
    rho = density.data / np.trace(density.data)
    return float(np.einsum("ij,ji->", rho, rho).real)


def renyi2_fock(density: FockArray) -> float:
    """Renyi-2 entropy ``-log tr(rho^2)`` in nats."""
    return float(-np.log(purity_fock(density)))


def thermal_density(n: float, cutoff: int) -> FockArray:
    """Single-mode thermal state with covariance ``diag(n, n)``, truncated and renormalised.

    The mean photon number is ``(n - 1) / 2``.

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
    return FockArray(m=1, cutoff=cutoff, data=np.diag(probs).astype(complex), is_density=True)


def thermal_product_density(ns, cutoff: int) -> FockArray:
    """Product of single-mode thermal states, as one multimode density."""
    ns = list(ns)
    rho = thermal_density(ns[0], cutoff).data
    for n in ns[1:]:
        rho = np.kron(rho, thermal_density(n, cutoff).data)
    return FockArray(m=len(ns), cutoff=cutoff, data=rho, is_density=True)


# ---------------------------------------------------------------------------
# expectation values


def expectation(state: FockArray, ops: list[tuple[np.ndarray, int]]) -> complex:
    """Expectation of a product of single-mode operators, normalised by the weight.

    ``ops`` lists ``(matrix, mode)`` pairs in operator order: the last pair
    acts on the state first.
    """
    w = state.weight()
    if w < _ZERO_WEIGHT:
        raise ZeroNorm("expectation of a zero state")
    if state.is_density:
        tensor = state._tensor()
        for op, mode in reversed(ops):
            tensor = _apply_mode_op(tensor, op, mode)
        dim = state.cutoff ** state.m
        return complex(np.trace(tensor.reshape(dim, dim)) / w)
    phi = state.data
    for op, mode in reversed(ops):
        phi = _apply_mode_op(phi, op, mode)
    return complex(np.vdot(state.data, phi) / w)


def mean_photon(state: FockArray, mode: int) -> float:
    """Mean photon number of one mode."""
    num = np.diag(np.arange(state.cutoff, dtype=float))
    return float(expectation(state, [(num, mode)]).real)


def covariance_fock(state: FockArray) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature mean vector and covariance matrix of a Fock state.

    Uses the same xxpp layout and shot-noise units as the Gaussian side, so
    the output is directly comparable to ``GaussianState.mean`` / ``.cov``.
    """
    m, d = state.m, state.cutoff
    x_op, p_op = quadrature_ops(d)
    quads = [(x_op, i) for i in range(m)] + [(p_op, i) for i in range(m)]
    mean = np.array([expectation(state, [q]).real for q in quads])
    cov = np.empty((2 * m, 2 * m))
    for j in range(2 * m):
        for k in range(j, 2 * m):
            jk = expectation(state, [quads[j], quads[k]])
            kj = expectation(state, [quads[k], quads[j]])
            cov[j, k] = cov[k, j] = 0.5 * (jk + kj).real - mean[j] * mean[k]
    return mean, cov

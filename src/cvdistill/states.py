"""Gaussian state data model: covariance/mean representation, reduction,
purity, thermal (Williamson) decomposition, Bogoliubov rows and pure-state
Renyi-2 entanglement.

See :mod:`cvdistill.symplectic` for the layout and unit conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    OCCUPATION_TOL, PURE_GLOBAL_TOL, PURITY_TOL, SYMMETRY_TOL,
    EmptySubsystem,
    GlobalStateNotPure,
    IndexOutOfRange,
    NumericalFailure,
    SingularCovariance,
    UnphysicalState,
)
from .symplectic import compose


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GaussianState:
    """An ``m``-mode Gaussian state: quadrature mean vector and covariance matrix.

    ``mean`` has length ``2m`` and ``cov`` is ``2m x 2m`` symmetric, in xxpp
    layout and shot-noise units (vacuum covariance is the identity). The
    covariance is symmetrised on construction; an asymmetry beyond
    ``SYMMETRY_TOL`` is rejected.
    """

    m: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("mode count must be at least 1")
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (2 * self.m,):
            raise ValueError(f"mean must have shape ({2 * self.m},), got {mean.shape}")
        if cov.shape != (2 * self.m, 2 * self.m):
            raise ValueError(f"cov must have shape {(2 * self.m, 2 * self.m)}, got {cov.shape}")
        if np.abs(cov - cov.T).max() > SYMMETRY_TOL:
            raise ValueError(f"covariance matrix is not symmetric within {SYMMETRY_TOL:g}")
        object.__setattr__(self, "mean", _frozen(mean))
        object.__setattr__(self, "cov", _frozen(0.5 * (cov + cov.T)))


def vacuum(m: int) -> GaussianState:
    """The ``m``-mode vacuum: zero mean, identity covariance."""
    return GaussianState(m=m, mean=np.zeros(2 * m), cov=np.eye(2 * m))


def apply_circuit(state: GaussianState, elements) -> GaussianState:
    """Apply circuit elements in temporal order and return the new state."""
    S, shift = compose(elements, state.m)
    return GaussianState(m=state.m, mean=S @ state.mean + shift, cov=S @ state.cov @ S.T)


def subsystem_modes(m: int, subsystem) -> tuple[int, ...]:
    """The sorted distinct modes of a subsystem of an ``m``-mode system.

    ``subsystem`` is a mode index or a collection of them.

    Raises:
        EmptySubsystem: if no mode is given.
        IndexOutOfRange: if a mode lies outside ``[0, m)``.
    """
    if isinstance(subsystem, (int, np.integer)):
        subsystem = (subsystem,)
    modes = tuple(sorted(set(subsystem)))
    if not modes:
        raise EmptySubsystem("subsystem must contain at least one mode")
    if modes[0] < 0 or modes[-1] >= m:
        raise IndexOutOfRange(f"subsystem modes {modes} outside [0, {m})")
    return modes


def quad_indices(modes, m: int) -> np.ndarray:
    """Quadrature indices (x block then p block) of ``modes`` in an ``m``-mode system.

    ``V_A = V[idx, idx]`` and ``mean_A = mean[idx]``; stacked mode arrays
    (``...`` leading axes) give stacked indices.
    """
    modes = np.asarray(modes, dtype=int)
    return np.concatenate([modes, modes + m], axis=-1)


def reduce_state(state: GaussianState, subsystem) -> GaussianState:
    """Marginal Gaussian state on a subsystem: the rows and columns of its quadratures."""
    modes = subsystem_modes(state.m, subsystem)
    idx = quad_indices(modes, state.m)
    return GaussianState(m=len(modes), mean=state.mean[idx], cov=state.cov[np.ix_(idx, idx)])


def purities_from_logdet(signs, logdet) -> np.ndarray:
    """Gaussian purity ``1 / sqrt(det V)``, stacked, from ``slogdet`` output or a Cholesky log diagonal.

    Values within ``PURITY_TOL`` above one (round-off from long circuit
    compositions) are clamped to one; anything beyond that means a
    covariance is unphysical.

    Raises:
        UnphysicalState: if some ``det V <= 0`` or some purity exceeds ``1 + PURITY_TOL``.
        SingularCovariance: if some log-determinant is not finite, as when the
            covariance overflows; NaN would pass both purity comparisons.
    """
    if np.any(signs <= 0):
        raise UnphysicalState("covariance matrix has non-positive determinant")
    if not np.all(np.isfinite(logdet)):
        raise SingularCovariance("covariance log-determinant is not finite; its entries overflow")
    mu = np.exp(-0.5 * logdet)
    if np.any(mu > 1.0 + PURITY_TOL):
        raise UnphysicalState(f"purity {np.max(mu)} exceeds 1; covariance is unphysical")
    return np.minimum(mu, 1.0)


def purity(state: GaussianState) -> float:
    """Gaussian purity ``1 / sqrt(det V)``, in ``(0, 1]``; see :func:`purities_from_logdet`."""
    return float(purities_from_logdet(*np.linalg.slogdet(state.cov)))


def require_pure(state: GaussianState):
    """Raise :class:`GlobalStateNotPure` unless the state's purity is at least ``1 - PURE_GLOBAL_TOL``."""
    if purity(state) < 1.0 - PURE_GLOBAL_TOL:
        raise GlobalStateNotPure(f"entanglement needs a pure global state (purity below 1 - {PURE_GLOBAL_TOL:g})")


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """Thermal decomposition ``V = S diag(nu, nu) S^T`` with symplectic ``S``.

    ``nu`` holds the thermal occupations (symplectic eigenvalues) in
    shot-noise units; :func:`williamson` returns them sorted descending.
    ``mean`` is carried through unchanged from the decomposed state.
    """

    S: np.ndarray
    nu: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "S", _frozen(self.S))
        object.__setattr__(self, "nu", _frozen(np.atleast_1d(self.nu)))
        object.__setattr__(self, "mean", _frozen(self.mean))

    @property
    def m(self) -> int:
        return len(self.nu)


def williamson_many(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thermal (Williamson) decompositions ``(S, nu)`` of stacked covariances.

    Covariances ``(..., 2m, 2m)`` give symplectic ``S`` of the same shape and
    occupations ``nu`` ``(..., m)``, sorted descending, with
    ``S diag(nu, nu) S^T = V``. Each member takes two Hermitian eigensolves:
    ``eigh`` of ``V`` gives ``V^{+-1/2}``; ``eigh`` of ``i V^{-1/2} Omega V^{-1/2}``
    gives eigenvalues ``+-t``, ``t = 1/nu``, whose positive half comes
    ascending in ``t``. The unit eigenvectors ``u`` of ``+t`` give the
    oriented real Schur basis ``sqrt(2) [Im u | Re u]``, x columns then p
    columns; each ``u`` is orthogonal to the conjugates of the ``-t``
    eigenvectors, so degenerate occupations keep an orthonormal basis. ``S``
    is ``V^{1/2}`` times that basis, scaled by ``sqrt(t)``.

    Raises:
        UnphysicalState: if some covariance is not positive definite or has
            an occupation below ``1 - OCCUPATION_TOL``.
        NumericalFailure: if an eigensolve breaks down or the core's spectrum
            does not split into ``+-t`` pairs.
    """
    m = cov.shape[-1] // 2
    try:
        w, q = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigendecomposition of the covariance failed") from exc
    if np.any(w[..., 0] <= 0):
        raise UnphysicalState("covariance matrix is not positive definite")
    qt = np.swapaxes(q, -1, -2)
    root = (q * np.sqrt(w)[..., None, :]) @ qt
    inv_root = (q / np.sqrt(w)[..., None, :]) @ qt
    core = inv_root @ np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(m)) @ inv_root  # Omega = [[0, I], [-I, 0]]
    try:
        t, u = np.linalg.eigh(0.5j * (core - np.swapaxes(core, -1, -2)))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigendecomposition of the symplectic core failed") from exc
    t, u = t[..., m:], u[..., m:]
    if np.any(t[..., 0] <= 0):
        raise NumericalFailure("symplectic core spectrum does not split into +-t pairs")
    nu = 1.0 / t
    if np.any(nu[..., -1] < 1.0 - OCCUPATION_TOL):
        raise UnphysicalState(f"thermal occupation {nu[..., -1].min()} below the vacuum value 1")

    u = u * np.sqrt(2.0 * t)[..., None, :]
    return root @ np.concatenate([u.imag, u.real], axis=-1), nu


def williamson(state: GaussianState) -> WilliamsonDecomposition:
    """Thermal (Williamson) decomposition of a Gaussian state.

    The one-state case of :func:`williamson_many`: ``eigh`` of the
    covariance, then ``eigh`` of the Hermitian ``i V^{-1/2} Omega V^{-1/2}``,
    whose positive eigenvalues are ``1/nu`` and whose eigenvectors give the
    real Schur basis; no Schur factorisation is run. It raises the errors of
    :func:`williamson_many`.

    Returns:
        WilliamsonDecomposition: with ``nu`` sorted descending and
        ``S diag(nu, nu) S^T`` reproducing the covariance.
    """
    S, nu = williamson_many(state.cov)
    return WilliamsonDecomposition(S=S, nu=nu, mean=state.mean)


@dataclass(frozen=True)
class BogoliubovRow:
    """Ladder-space row of a Gaussian unitary: ``b = k . a^dag + l . a + alpha_g``.

    Satisfies ``sum |l|^2 - sum |k|^2 = 1`` (one row of the Bogoliubov
    constraint ``L L^dag - K K^dag = 1``).
    """

    k: np.ndarray
    l: np.ndarray
    alpha_g: complex

    def __post_init__(self):
        k = np.atleast_1d(np.asarray(self.k, dtype=complex))
        ell = np.atleast_1d(np.asarray(self.l, dtype=complex))
        if k.shape != ell.shape:
            raise ValueError("k and l must have the same length")
        k.flags.writeable = False
        ell.flags.writeable = False
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", ell)
        object.__setattr__(self, "alpha_g", complex(self.alpha_g))


def ladder_blocks(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Bogoliubov blocks ``(K, L)`` of a symplectic quadrature map.

    With ``S`` partitioned into xx, xp, px, pp blocks, the Heisenberg action
    on the annihilation operators reads ``a -> K a^dag + L a`` where
    ``L = ((S_xx + S_pp) + i (S_px - S_xp)) / 2`` and
    ``K = ((S_xx - S_pp) + i (S_px + S_xp)) / 2``. Stacked maps
    (``...`` leading axes) give stacked blocks.
    """
    m = S.shape[-1] // 2
    sxx, sxp = S[..., :m, :m], S[..., :m, m:]
    spx, spp = S[..., m:, :m], S[..., m:, m:]
    L = 0.5 * ((sxx + spp) + 1j * (spx - sxp))
    K = 0.5 * ((sxx - spp) + 1j * (spx + sxp))
    return K, L


def bogoliubov_row(decomp: WilliamsonDecomposition, g: int) -> BogoliubovRow:
    """Row ``g`` of the Bogoliubov transform attached to a thermal decomposition.

    The returned row describes the operator obtained by commuting the
    annihilation operator of mode ``g`` through the decomposition's Gaussian
    unitary and displacement: ``b = k . a^dag + l . a + alpha_g`` with
    ``alpha_g = (mean_x(g) + i mean_p(g)) / 2``.

    Raises:
        IndexOutOfRange: if ``g`` is not a mode of the decomposition.
    """
    m = decomp.m
    if not 0 <= g < m:
        raise IndexOutOfRange(f"mode {g} outside [0, {m})")
    K, L = ladder_blocks(decomp.S)
    alpha = 0.5 * (decomp.mean[g] + 1j * decomp.mean[m + g])
    return BogoliubovRow(k=K[g].copy(), l=L[g].copy(), alpha_g=alpha)


def renyi2_entanglement_pure(global_state: GaussianState, subsystem) -> float:
    """Renyi-2 entanglement ``-log mu_A`` of a bipartition of a pure global state.

    Natural logarithm throughout.

    Raises:
        GlobalStateNotPure: if the global state has purity below ``1 - PURE_GLOBAL_TOL``.
    """
    require_pure(global_state)
    return float(-np.log(purity(reduce_state(global_state, subsystem))))


def to_snapshot(state: GaussianState) -> dict:
    """JSON-serialisable snapshot ``{m, mean, cov}`` with the covariance row-major."""
    return {
        "m": state.m,
        "mean": [float(x) for x in state.mean],
        "cov": [float(x) for x in state.cov.reshape(-1)],
    }

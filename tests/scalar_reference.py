"""Scalar references that only the tests use.

The one-state Wigner-moment route, as the library ran it before every
caller moved to ``relative_purity_wigner_many``: the reduced altered state
in Wigner form, its relative purity and purity, and the entanglement
increase built on them. The tests check the stacked routes against it. Also
the symplectic form, a symplecticity measure, the raw draws of a random
symplectic matrix, a seeded random symplectic matrix, the Haar factor by
LAPACK QR and a mode's ladder amplitude, which no library code calls.
"""

from dataclasses import dataclass

import numpy as np

from cvdistill import GaussianState, IndexOutOfRange, purity, reduce_state
from cvdistill.photon import (
    _check_conditioning,
    _g_side,
    _kind_sign,
    _nonvacuum,
    _second_moment,
    _wigner_polynomial,
    photon_weight,
)
from cvdistill.states import quad_indices, require_pure, subsystem_modes
from cvdistill.symplectic import euler_factors, euler_symplectic


@dataclass(frozen=True)
class SubtractedReducedState:
    """Reduced state of a mode-``g`` photon subtraction or addition, in Wigner form.

    Represents ``W(beta) = [d^T Q d + q . d + c] / norm * W_G(beta)`` with
    ``d = beta - mean_A`` and ``W_G`` the Gaussian Wigner function of
    ``base``. ``norm`` equals ``|alpha_g|^2 + tr(V_g) + 2s`` (``s = -1``
    subtract, ``+1`` add), four times the photon weight ``<a^dag a>``
    (subtract) or ``<a a^dag>`` (add) of mode ``g``.
    """

    base: GaussianState
    poly_Q: np.ndarray
    poly_q: np.ndarray
    poly_c: float
    norm: float


def photon_reduced_wigner(state, g, subsystem, kind="subtract") -> SubtractedReducedState:
    """Wigner-form reduced state after subtracting or adding one photon in mode ``g``.

    With ``X = (V + s I)[g, A]`` and ``M = V_A^{-1} X^T``, the polynomial is
    ``Q = M M^T``, ``q = -2 M alpha_g`` and ``c = norm - tr(X M)``. Raises
    ``VacuumModeSubtraction`` for a vacuum mode ``g``, ``SingularCovariance``
    above condition number 1e12 and ``IndexOutOfRange`` if ``g`` is not in
    ``subsystem``.
    """
    sign = _kind_sign(kind)
    modes = subsystem_modes(state.m, subsystem)
    if g not in modes:
        raise IndexOutOfRange(f"mode {g} is not part of subsystem {modes}")
    norm = 4.0 * _nonvacuum(photon_weight(state, g, kind), f"mode {g}")

    base = reduce_state(state, modes)
    _check_conditioning(base.cov)

    idx = quad_indices(modes, state.m)
    gi = quad_indices((g,), state.m)
    x_mat = (state.cov + sign * np.eye(2 * state.m))[np.ix_(gi, idx)]
    poly_q_mat, poly_q_vec, poly_c = _wigner_polynomial(base.cov, x_mat, state.mean[gi], norm)
    return SubtractedReducedState(
        base=base, poly_Q=poly_q_mat, poly_q=poly_q_vec, poly_c=float(poly_c), norm=norm
    )


def relative_purity_of_subtracted(s: SubtractedReducedState) -> float:
    """Purity of the subtracted reduced state divided by the Gaussian purity."""
    return float(_second_moment(0.5 * s.base.cov, s.poly_Q, s.poly_q, s.poly_c)) / (s.norm * s.norm)


def purity_of_subtracted(s: SubtractedReducedState) -> float:
    """Purity of a reduced photon-subtracted state: the relative purity times ``1 / sqrt(det V_A)``."""
    return relative_purity_of_subtracted(s) * purity(s.base)


def scalar_entanglement_increase(state, subsystem, g, kind="subtract") -> float:
    """``entanglement_increase`` through :func:`photon_reduced_wigner` on the side holding ``g``."""
    require_pure(state)
    side = _g_side(state, subsystem, g)
    return float(-np.log(relative_purity_of_subtracted(photon_reduced_wigner(state, g, side, kind))))


def symplectic_form(m: int) -> np.ndarray:
    """The symplectic form ``Omega = [[0, I], [-I, 0]]`` for ``m`` modes."""
    if m < 1:
        raise ValueError("mode count must be at least 1")
    zero, eye = np.zeros((m, m)), np.eye(m)
    return np.block([[zero, eye], [-eye, zero]])


def symplectic_deviation(S: np.ndarray) -> float:
    """Max-abs deviation of ``S Omega S^T`` from ``Omega``."""
    omega = symplectic_form(S.shape[0] // 2)
    return float(np.abs(S @ omega @ S.T - omega).max())


def random_symplectic_parameters(m: int, rng: np.random.Generator):
    """Draw the raw inputs of one random ``euler_factors`` pair: generator calls only.

    Returns:
        tuple: ``(parts, u)`` in the layout that ``euler_factors`` reads:
        ``parts`` of shape ``(2, 2, m, m)`` and ``u`` of shape ``(m,)``.
    """
    return rng.standard_normal((2, 2, m, m)), rng.random(m)


def random_symplectic(m: int, seed, squeeze_bound: float = 1.0) -> np.ndarray:
    """A random ``2m x 2m`` symplectic matrix, passive x squeeze x passive, for an integer seed or a Generator."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return euler_symplectic(*euler_factors(*random_symplectic_parameters(m, rng), squeeze_bound))


def haar_unitary_qr(z: np.ndarray) -> np.ndarray:
    """Haar factor of complex Ginibre matrices ``z`` (``... x m x m``): LAPACK QR with R's diagonal phases fixed.

    The phase fix makes R's diagonal real and positive, so ``Q`` is unique
    and Haar distributed (Mezzadri, Notices AMS 54, 592 (2007)): the factor
    that ``symplectic._haar_unitary`` computes by Gram-Schmidt.
    """
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def ladder_mean(state, mode: int) -> complex:
    """Complex ladder amplitude ``<a> = (<x> + i <p>) / 2`` of one mode."""
    if not 0 <= mode < state.m:
        raise IndexOutOfRange(f"mode {mode} outside [0, {state.m})")
    return 0.5 * (state.mean[mode] + 1j * state.mean[state.m + mode])

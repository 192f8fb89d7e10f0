"""Single-photon subtraction and addition on Gaussian states.

Two independent computation routes are provided for the purity change caused
by subtracting or adding one photon in mode ``g`` of a (possibly mixed)
Gaussian state:

* a phase-space route: the reduced altered state has a Wigner function of
  the form (quadratic polynomial) x (Gaussian), and its purity is a quartic
  Gaussian moment evaluated in closed form by Wick pairing; subtraction and
  addition differ only in a sign;
* a ladder-space route: the thermal decomposition plus the Bogoliubov row of
  the altered mode feed a closed-form expression for the relative purity
  ``mu_after / mu``; addition swaps the roles of ``k`` and ``l``.

:func:`entanglement_increase_many` evaluates the phase-space route for many
bipartitions of one state at once, in stacked NumPy batches.

The relative purity never drops below one half, so the Renyi-2 entanglement
of a pure global state can grow by at most ``log 2`` under either operation.
Natural logarithms everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidOccupation, SingularCovariance, VacuumModeSubtraction
from .states import (
    BogoliubovRow,
    GaussianState,
    WilliamsonDecomposition,
    purities,
    purity,
    quad_indices,
    reduce_state,
    require_pure,
    subsystem_modes,
)

VACUUM_WEIGHT_TOL = 1e-10
CONDITION_LIMIT = 1e12
# subsets per stacked LAPACK call in entanglement_increase_many; bounds the
# stacked V_A buffers, and so peak memory, at any mode count
BATCH_CHUNK = 256

LOG_2 = float(np.log(2.0))


@dataclass(frozen=True)
class SubtractedReducedState:
    """Reduced state of a mode-``g`` photon subtraction or addition, in Wigner form.

    Represents ``W(beta) = [d^T Q d + q . d + c] / norm * W_G(beta)`` with
    ``d = beta - mean_A`` and ``W_G`` the Gaussian Wigner function of
    ``base``. ``norm`` equals ``|alpha_g|^2 + tr(V_g) + 2s`` in quadrature
    units (``s = -1`` subtract, ``+1`` add), which is four times
    ``<a^dag a>`` (subtract) or ``<a a^dag>`` (add) of mode ``g``.
    """

    base: GaussianState
    poly_Q: np.ndarray
    poly_q: np.ndarray
    poly_c: float
    norm: float

    def normalization_integral(self) -> float:
        """Total phase-space integral of the Wigner function; one for a valid state."""
        return float((np.trace(self.poly_Q @ self.base.cov) + self.poly_c) / self.norm)


def _kind_sign(kind: str) -> float:
    if kind == "subtract":
        return -1.0
    if kind == "add":
        return 1.0
    raise ValueError(f"kind must be 'subtract' or 'add', got {kind!r}")


def photon_weight(state: GaussianState, g: int, kind: str = "subtract") -> float:
    """Photon weight ``|alpha_g|^2 + tr V_g + 2s`` of mode ``g`` in quadrature units.

    With ``s = -1`` (subtract) or ``+1`` (add) this is four times
    ``<a^dag a>`` or ``<a a^dag>`` of the mode. A ``g`` outside the state
    raises :class:`IndexOutOfRange`.
    """
    gi = quad_indices(subsystem_modes(state.m, g), state.m)
    return float(state.mean[gi] @ state.mean[gi] + state.cov[gi, gi].sum() + 2.0 * _kind_sign(kind))


def _nonvacuum_weight(state: GaussianState, g: int, kind: str) -> float:
    weight = photon_weight(state, g, kind)
    if weight <= VACUUM_WEIGHT_TOL:
        raise VacuumModeSubtraction(
            f"mode {g} is vacuum (mean photon weight {weight / 4.0:.3e}); subtraction undefined"
        )
    return weight


def _modes_holding(state: GaussianState, subsystem, g: int) -> tuple[int, ...]:
    modes = subsystem_modes(state.m, subsystem)
    if g not in modes:
        raise IndexOutOfRange(f"mode {g} is not part of subsystem {modes}")
    return modes


def _check_conditioning(v_a: np.ndarray):
    # cond(V_A) = lambda_max / lambda_min for symmetric positive-definite V_A,
    # stacked along leading axes
    lam = np.linalg.eigvalsh(v_a)
    if np.any(lam[..., 0] * CONDITION_LIMIT < lam[..., -1]):
        raise SingularCovariance("reduced covariance condition number exceeds 1e12")


def photon_reduced_wigner(
    state: GaussianState, g: int, subsystem, kind: str = "subtract"
) -> SubtractedReducedState:
    """Wigner-form reduced state after subtracting or adding one photon in mode ``g``.

    With the sign ``s = -1`` (subtract) or ``+1`` (add), ``X = (V + s I)[g, A]``
    and ``M = V_A^{-1} X^T``, the polynomial is ``Q = M M^T``, ``q = -2 M alpha_g``
    and ``c = norm - tr(X M)`` (phase-space moments of Walschaers, Fabre,
    Parigi & Treps, PRL 119, 183601 (2017)).

    Args:
        state: the global Gaussian state.
        g: mode the photon is subtracted from or added to; must belong to ``subsystem``.
        subsystem: the modes kept after the partial trace.
        kind: ``"subtract"`` or ``"add"``.

    Returns:
        SubtractedReducedState: normalised polynomial-times-Gaussian Wigner
        representation of the reduced state.

    Raises:
        VacuumModeSubtraction: if mode ``g`` carries no photons, so the
            subtraction has zero success weight.
        SingularCovariance: if the reduced covariance is too ill-conditioned
            to invert (condition number above 1e12).
        IndexOutOfRange: if ``g`` is not part of ``subsystem``.
        ValueError: for an unknown ``kind``.
    """
    sign = _kind_sign(kind)
    modes = _modes_holding(state, subsystem, g)
    norm = _nonvacuum_weight(state, g, kind)

    base = reduce_state(state, modes)
    _check_conditioning(base.cov)

    idx = quad_indices(modes, state.m)
    gi = quad_indices((g,), state.m)
    alpha_g = state.mean[gi]
    x_mat = (state.cov + sign * np.eye(2 * state.m))[np.ix_(gi, idx)]
    mt = np.linalg.solve(base.cov, x_mat.T)  # V_A^{-1} X^T
    poly_q_mat = mt @ mt.T
    poly_q_vec = -2.0 * (mt @ alpha_g)
    poly_c = float(norm - np.trace(x_mat @ mt))
    return SubtractedReducedState(
        base=base, poly_Q=poly_q_mat, poly_q=poly_q_vec, poly_c=poly_c, norm=norm
    )


def _second_moment(s: SubtractedReducedState) -> float:
    # E[P(d)^2] for d ~ N(0, V_A / 2), by Wick pairing of the quartic part.
    sigma = 0.5 * s.base.cov
    qs = s.poly_Q @ sigma
    t_q = float(np.trace(qs))
    t_qq = float(np.trace(qs @ qs))
    q_sig_q = float(s.poly_q @ sigma @ s.poly_q)
    c = s.poly_c
    return t_q * t_q + 2.0 * t_qq + q_sig_q + 2.0 * c * t_q + c * c


def relative_purity_of_subtracted(s: SubtractedReducedState) -> float:
    """Purity of the subtracted reduced state divided by the Gaussian purity."""
    return _second_moment(s) / (s.norm * s.norm)


def purity_of_subtracted(s: SubtractedReducedState) -> float:
    """Purity of a reduced photon-subtracted state from its Wigner moments.

    Squaring the Wigner function halves the Gaussian covariance, so the
    purity is the quartic polynomial's second moment over ``N(0, V_A / 2)``
    divided by ``sqrt(det V_A)`` and the squared normalisation.
    """
    return relative_purity_of_subtracted(s) * purity(s.base)


@dataclass(frozen=True)
class ThermalTraceSet:
    """The eight single-mode thermal trace moments behind the relative purity.

    All values are for a thermal state with covariance ``diag(n, n)``, i.e.
    mean photon number ``(n - 1) / 2``.
    """

    n: float
    a_rho_adag: float        # tr(a rho a^dag)
    adag_rho_a: float        # tr(a^dag rho a)
    a_rho_adag_sq: float     # tr(a rho a^dag a rho a^dag)
    adag_rho_a_sq: float     # tr(a^dag rho a a^dag rho a)
    adag_rho_a_a_rho_adag: float  # tr(a^dag rho a a rho a^dag)
    rho2_adag_a: float       # tr(rho^2 a^dag a)
    rho2_a_adag: float       # tr(rho^2 a a^dag)
    rho_adag_rho_a: float    # tr(rho a^dag rho a)


def thermal_traces(n: float) -> ThermalTraceSet:
    """Closed forms of the eight thermal trace moments.

    Args:
        n: thermal occupation in shot-noise units (vacuum is 1).

    Raises:
        InvalidOccupation: for ``n < 1``.
    """
    if n < 1.0:
        raise InvalidOccupation(f"thermal occupation {n} below the vacuum value 1")
    n = float(n)
    sub = (n - 1.0) / 2.0
    add = (n + 1.0) / 2.0
    kernel = (1.0 + n * n) / (2.0 * n ** 3)
    return ThermalTraceSet(
        n=n,
        a_rho_adag=sub,
        adag_rho_a=add,
        a_rho_adag_sq=kernel * sub * sub,
        adag_rho_a_sq=kernel * add * add,
        adag_rho_a_a_rho_adag=(n * n - 1.0) ** 2 / (8.0 * n ** 3),
        rho2_adag_a=(n - 1.0) ** 2 / (4.0 * n * n),
        rho2_a_adag=(n + 1.0) ** 2 / (4.0 * n * n),
        rho_adag_rho_a=(n + 1.0) * (n - 1.0) / (4.0 * n * n),
    )


def relative_purity_closed_form(
    decomp: WilliamsonDecomposition, row: BogoliubovRow, kind: str = "subtract"
) -> float:
    """Relative purity ``mu_after / mu`` of single-photon subtraction or addition.

    Evaluates the closed form built from the thermal occupations ``nu`` and
    the Bogoliubov row ``(k, l, alpha_g)`` of the altered mode. For
    ``kind="add"`` the roles of ``k`` and ``l`` are swapped before
    evaluation. The adjoint row ``b^dag = l* . a^dag + k* . a + alpha_g*``
    conjugates ``k``, ``l`` and ``alpha_g`` together, and the expression is
    invariant under that joint conjugation, so none is applied.

    The result is bounded below by one half; when all occupations equal one
    (pure reduced state) it collapses to exactly one.

    Raises:
        VacuumModeSubtraction: if the success weight (mean photon number of
            the altered mode) is numerically zero.
        ValueError: for an unknown ``kind``.
    """
    if row.k.shape != decomp.nu.shape:
        raise ValueError("Bogoliubov row length does not match the decomposition")
    return float(relative_purity_many(decomp.nu, row.k, row.l, row.alpha_g, kind))


def relative_purity_many(n, k, ell, alpha, kind: str = "subtract") -> np.ndarray:
    """:func:`relative_purity_closed_form` over stacked rows, with the same errors.

    Occupations ``n`` and rows ``k``, ``ell`` have shape ``(..., m)``,
    amplitudes ``alpha`` shape ``(...)``; ``kind="add"`` swaps ``k`` and ``ell``.
    """
    if _kind_sign(kind) > 0:
        k, ell = ell, k
    k2 = np.abs(k) ** 2
    l2 = np.abs(ell) ** 2
    big_n = (k2 * (n + 1.0) / 2.0 + l2 * (n - 1.0) / 2.0).sum(axis=-1)
    big_n_tilde = k2 * (n + 1.0) / 2.0 - l2 * (n - 1.0) / 2.0
    a2 = np.abs(alpha) ** 2
    weight = big_n + a2
    if np.any(weight <= VACUUM_WEIGHT_TOL):
        raise VacuumModeSubtraction(
            f"mode carries mean photon weight {np.min(weight):.3e}; operation undefined"
        )

    kl_sum = np.sum(k * ell * (n * n - 1.0) / (2.0 * n), axis=-1)
    numerator = (
        0.5 * np.sum(big_n_tilde / n, axis=-1) ** 2
        + 0.5 * a2 * a2
        + np.abs(kl_sum) ** 2
        + a2 * big_n
        + 2.0 * np.real(np.conj(alpha) ** 2 * kl_sum)
    )
    return 0.5 + numerator / (weight * weight)


def _g_side(state: GaussianState, subsystem, g: int) -> tuple[int, ...]:
    # The analytic machinery lives on the side of the bipartition holding g;
    # for pure global states both reduced purities coincide, so the answer is
    # the same for either side. The complement holds g, so it is never empty.
    modes = subsystem_modes(state.m, subsystem)
    if not 0 <= g < state.m:
        raise IndexOutOfRange(f"mode {g} outside [0, {state.m})")
    return modes if g in modes else tuple(i for i in range(state.m) if i not in modes)


def entanglement_increase(state: GaussianState, subsystem, g: int, kind: str = "subtract") -> float:
    """Renyi-2 entanglement change of a bipartition under photon subtraction/addition.

    ``subsystem`` names one side of the bipartition; the photon is taken
    from (or added to) mode ``g``, which may sit on either side. Both kinds
    are evaluated through the Wigner-moment route. The result never exceeds
    ``log 2``.

    Args:
        state: pure global Gaussian state.
        subsystem: one side of the bipartition.
        g: mode index of the photon operation.
        kind: ``"subtract"`` or ``"add"``.

    Returns:
        float: ``E_after - E_before`` in nats.

    Raises:
        GlobalStateNotPure: if the global state is not pure within 1e-6.
        VacuumModeSubtraction: if mode ``g`` is vacuum and ``kind="subtract"``.
    """
    require_pure(state)
    side = _g_side(state, subsystem, g)
    ratio = relative_purity_of_subtracted(photon_reduced_wigner(state, g, side, kind))
    return float(-np.log(ratio))


def _increase_chunk(state: GaussianState, modes: np.ndarray, g: int, sign: float, norm: float):
    # modes: (n, k) sorted subsets of one size. Returns (e_before, delta) for the n rows.
    m = state.m
    idx = quad_indices(modes, m)  # (n, 2k)
    v_a = state.cov[idx[:, :, None], idx[:, None, :]]
    e_before = -np.log(purities(v_a))
    _check_conditioning(v_a)

    gi = quad_indices((g,), m)
    alpha_g = state.mean[gi]
    x_rows = (state.cov + sign * np.eye(2 * m))[gi]            # (2, 2m)
    x_t = np.moveaxis(x_rows[:, idx], 0, -1)                    # X^T, (n, 2k, 2)
    mt = np.linalg.solve(v_a, x_t)                              # M = V_A^{-1} X^T

    # Q = M M^T has rank two: with B = M^T (V_A / 2) M, tr(Q sigma) = tr B and
    # tr(Q sigma Q sigma) = tr(B^2), so only 2x2 matrices are formed.
    b = 0.5 * (np.swapaxes(mt, 1, 2) @ (v_a @ mt))
    t_q = b[:, 0, 0] + b[:, 1, 1]
    t_qq = np.einsum("nij,nji->n", b, b)
    q_sig_q = 4.0 * np.einsum("i,nij,j->n", alpha_g, b, alpha_g)
    c = norm - np.einsum("nij,nij->n", x_t, mt)                 # norm - tr(X M)
    second = t_q * t_q + 2.0 * t_qq + q_sig_q + 2.0 * c * t_q + c * c
    return e_before, -np.log(second / (norm * norm))


def entanglement_increase_many(
    state: GaussianState, subsets, g: int, kind: str = "subtract"
) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`entanglement_increase` and Gaussian Renyi-2 entropy over many subsystems.

    Every subset must contain mode ``g``. Global purity and the photon
    weight of mode ``g`` are checked once; the subsets are then grouped by
    size and evaluated in stacked chunks of at most ``BATCH_CHUNK``, with the
    same guards as the scalar route.

    Args:
        state: pure global Gaussian state.
        subsets: sequence of mode collections, each containing ``g``.
        g: mode index of the photon operation.
        kind: ``"subtract"`` or ``"add"``.

    Returns:
        tuple[np.ndarray, np.ndarray]: ``(e_before, delta)`` in input order,
        ``e_before = -log mu_A`` and ``delta = E_after - E_before`` in nats.

    Raises:
        GlobalStateNotPure: if the global state is not pure within 1e-6.
        VacuumModeSubtraction: if mode ``g`` is vacuum and ``kind="subtract"``.
        IndexOutOfRange: if ``g`` lies outside the state or a subset lacks it.
        EmptySubsystem: if a subset is empty.
        SingularCovariance: if some reduced covariance has condition number above 1e12.
        UnphysicalState: if some reduced covariance has purity above one.
    """
    sign = _kind_sign(kind)
    require_pure(state)
    norm = _nonvacuum_weight(state, g, kind)
    rows = [_modes_holding(state, subset, g) for subset in subsets]
    sizes = np.array([len(modes) for modes in rows], dtype=int)
    e_before = np.empty(len(rows))
    delta = np.empty(len(rows))
    for size in np.unique(sizes):
        positions = np.flatnonzero(sizes == size)
        for start in range(0, len(positions), BATCH_CHUNK):
            chunk = positions[start:start + BATCH_CHUNK]
            modes = np.array([rows[p] for p in chunk], dtype=int)
            e_before[chunk], delta[chunk] = _increase_chunk(state, modes, g, sign, norm)
    return e_before, delta

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

:func:`entanglement_increase_cuts` batches the phase-space route over every
subsystem ``A`` of one pure state that holds ``g``, in the order of
:func:`cut_masks`. Since ``g`` is in ``A``,
``X M = V_g + 2sI + (V_A^{-1})_gg =: G`` and ``B = G / 2``, so
``log det V_A`` and ``(V_A^{-1})_gg`` give all Wick terms. Each cut takes
them from one Cholesky factor of the smaller side, with g's quadratures last:

* ``V_A`` (``|A|`` modes): ``log det V_A = 2 sum log L_ii``, and
  ``(V_A^{-1})_gg`` is the inverse of g's Schur complement ``L_gg L_gg^T``;
* ``W = V^{-1}`` on the complement ``B`` plus ``g`` (``m - |A| + 1`` modes,
  taken when fewer; ties go to ``V_A``). For any positive-definite ``V``,
  ``log det V_A = log det V + log det W_BB`` and g's Schur complement in
  that block is ``(V_A^{-1})_gg`` itself (Higham, *Accuracy and Stability
  of Numerical Algorithms*, ch. 10). ``W`` and ``log det V`` come once per
  state from a Cholesky factor of ``V``. The pure-state identity
  ``W = Omega V Omega^T`` is not used: it fails on the states mixed up to
  1e-6 that the purity guard admits.

By Cauchy interlacing ``cond(V_A) <= cond(V)`` and ``cond(W_{B+g}) <=
cond(V)`` (Horn & Johnson, *Matrix Analysis*, ch. 4), so one eigenvalue
solve of ``V`` clears every cut when ``cond(V) <= 1e12``. When it does not,
the full cut, whose ``V_A`` is ``V``, fails too, so the scan fails at once
with :class:`SingularCovariance`. Global purity, the weight of mode g and
this conditioning guard are all checked before any subset is enumerated.
:func:`relative_purity_wigner_many` runs the phase-space route over a stack
of states with one solve; :func:`entanglement_increase` is its one-state
case.

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
    purities_from_logdet,
    quad_indices,
    require_pure,
    subsystem_modes,
)

VACUUM_WEIGHT_TOL = 1e-10
CONDITION_LIMIT = 1e12
# subsets per stacked LAPACK call in entanglement_increase_cuts; bounds the
# stacked V_A buffers, and so peak memory, at any mode count
BATCH_CHUNK = 256

LOG_2 = float(np.log(2.0))


def _kind_sign(kind: str) -> float:
    if kind == "subtract":
        return -1.0
    if kind == "add":
        return 1.0
    raise ValueError(f"kind must be 'subtract' or 'add', got {kind!r}")


def photon_weights(cov, mean, g, kind: str = "subtract") -> np.ndarray:
    """Photon weights ``|alpha_g|^2 + tr V_g + 2s`` of mode ``g`` of stacked states, in quadrature units.

    ``cov`` ``(..., 2m, 2m)``, ``mean`` ``(..., 2m)`` and ``g`` ``(...)``
    give weights ``(...)``: four times ``<a^dag a>`` (``s = -1``, subtract)
    or ``<a a^dag>`` (``s = +1``, add) of the mode. Mode ``g`` is vacuum
    when its weight is at most ``VACUUM_WEIGHT_TOL``; a NaN weight is not.
    """
    gi = quad_indices(np.asarray(g)[..., None], cov.shape[-1] // 2)
    alpha_g = np.take_along_axis(mean, gi, axis=-1)
    v_gg = np.take_along_axis(np.diagonal(cov, axis1=-2, axis2=-1), gi, axis=-1)
    return (alpha_g * alpha_g).sum(axis=-1) + v_gg.sum(axis=-1) + 2.0 * _kind_sign(kind)


def photon_weight(state: GaussianState, g: int, kind: str = "subtract") -> float:
    """:func:`photon_weights` of one state; a ``g`` outside it raises :class:`IndexOutOfRange`."""
    subsystem_modes(state.m, g)
    return float(photon_weights(state.cov, state.mean, g, kind))


def _nonvacuum_weight(state: GaussianState, g: int, kind: str) -> float:
    weight = photon_weight(state, g, kind)
    if weight <= VACUUM_WEIGHT_TOL:
        raise VacuumModeSubtraction(
            f"mode {g} is vacuum (mean photon weight {weight / 4.0:.3e}); subtraction undefined"
        )
    return weight


def _check_conditioning(v_a: np.ndarray):
    # cond(V_A) = lambda_max / lambda_min for symmetric positive-definite V_A,
    # stacked along leading axes
    lam = np.linalg.eigvalsh(v_a)
    if np.any(lam[..., 0] * CONDITION_LIMIT < lam[..., -1]):
        raise SingularCovariance("reduced covariance condition number exceeds 1e12")


def _wigner_polynomial(v_a, x_mat, alpha_g, norm):
    # Q = M M^T, q = -2 M alpha_g and c = norm - tr(X M) with M = V_A^{-1} X^T, stacked
    mt = np.linalg.solve(v_a, np.swapaxes(x_mat, -1, -2))
    poly_q_mat = mt @ np.swapaxes(mt, -1, -2)
    poly_q_vec = -2.0 * (mt @ alpha_g[..., None])[..., 0]
    return poly_q_mat, poly_q_vec, norm - np.trace(x_mat @ mt, axis1=-2, axis2=-1)


def _second_moment(sigma, poly_q_mat, poly_q_vec, c):
    # E[P(d)^2] for d ~ N(0, sigma), by Wick pairing of the quartic part; stacked
    qs = poly_q_mat @ sigma
    t_q = np.trace(qs, axis1=-2, axis2=-1)
    t_qq = np.trace(qs @ qs, axis1=-2, axis2=-1)
    q_sig_q = (poly_q_vec[..., None, :] @ sigma @ poly_q_vec[..., :, None])[..., 0, 0]
    return t_q * t_q + 2.0 * t_qq + q_sig_q + 2.0 * c * t_q + c * c


def relative_purity_wigner_many(cov, mean, g, modes, kind: str = "subtract") -> np.ndarray:
    """Relative purity ``mu_after / mu`` of photon subtraction or addition, from Wigner moments, stacked.

    ``cov`` ``(n, 2m, 2m)`` and ``mean`` ``(n, 2m)`` hold ``n`` global
    states, ``g`` ``(n,)`` the altered modes and ``modes`` ``(n, k)`` each
    subsystem ``A``'s sorted modes, which hold ``g``. The altered reduced
    state has the Wigner function ``[d^T Q d + q . d + c] / norm`` times the
    Gaussian one, with ``d = beta - mean_A`` and ``norm`` the photon weight
    of :func:`photon_weights`. With the sign ``s = -1`` (subtract) or ``+1``
    (add), ``X = (V + s I)[g, A]`` and ``M = V_A^{-1} X^T``, the polynomial
    is ``Q = M M^T``, ``q = -2 M alpha_g`` and ``c = norm - tr(X M)``
    (phase-space moments of Walschaers, Fabre, Parigi & Treps, PRL 119,
    183601 (2017)). Squaring the Wigner function halves the covariance, so
    the relative purity is the polynomial's second moment over
    ``N(0, V_A / 2)`` divided by ``norm**2``. A state whose mode ``g`` is
    vacuum for ``kind`` gets NaN.

    Raises:
        SingularCovariance: if a non-vacuum state's reduced covariance has
            condition number above 1e12.
        ValueError: for an unknown ``kind``.
    """
    sign = _kind_sign(kind)
    m = cov.shape[-1] // 2
    gi, idx = quad_indices(np.asarray(g)[:, None], m), quad_indices(modes, m)
    norm = photon_weights(cov, mean, g, kind)
    ratios = np.full(len(norm), np.nan)
    keep = norm > VACUUM_WEIGHT_TOL
    if not keep.any():
        return ratios
    cov, gi, idx, norm = cov[keep], gi[keep], idx[keep], norm[keep]
    rows = np.arange(len(norm))[:, None, None]
    v_a = cov[rows, idx[:, :, None], idx[:, None, :]]
    _check_conditioning(v_a)
    x_mat = cov[rows, gi[:, :, None], idx[:, None, :]] + sign * (gi[:, :, None] == idx[:, None, :])
    alpha_g = np.take_along_axis(mean[keep], gi, axis=-1)
    second = _second_moment(0.5 * v_a, *_wigner_polynomial(v_a, x_mat, alpha_g, norm))
    ratios[keep] = second / (norm * norm)
    return ratios


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
    are evaluated through the Wigner-moment route, as the one-state case of
    :func:`relative_purity_wigner_many` on the side that holds ``g``. The
    result never exceeds ``log 2``.

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
        IndexOutOfRange: if ``g`` lies outside the state.
        SingularCovariance: if the reduced covariance of g's side has
            condition number above 1e12.
        ValueError: for an unknown ``kind``.
    """
    require_pure(state)
    side = _g_side(state, subsystem, g)
    _nonvacuum_weight(state, g, kind)
    ratio = relative_purity_wigner_many(
        state.cov[None], state.mean[None], np.array([g]), np.array([side]), kind)
    return float(-np.log(ratio[0]))


def _cholesky(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("reduced covariance is not numerically positive definite") from exc


def _inverse(cov: np.ndarray) -> tuple[float, np.ndarray]:
    # (log det V, W = V^{-1}) from one Cholesky factor V = L L^T: W is the
    # inverse of L L^T up to the round-off of L^{-1}, so the W side of a cut
    # keeps the accuracy of its V_A side (an eigh or LU inverse of an ill-
    # conditioned V does not)
    chol = _cholesky(cov)
    inv_chol = np.linalg.inv(chol)
    return 2.0 * float(np.log(np.diagonal(chol)).sum()), inv_chol.T @ inv_chol


def _batch_guards(state: GaussianState, g: int, kind: str) -> tuple[float, float, tuple[float, np.ndarray]]:
    # kind, purity and the weight of g, then cond(V) <= 1e12, which clears every
    # cut by interlacing; the full cut's V_A is V, so a state that fails here
    # would fail there. Returns sign, norm and _inverse(V).
    sign = _kind_sign(kind)
    require_pure(state)
    norm = _nonvacuum_weight(state, g, kind)
    lam = np.linalg.eigvalsh(state.cov)
    if lam[0] <= 0:
        raise SingularCovariance("covariance matrix is not numerically positive definite")
    if lam[0] * CONDITION_LIMIT < lam[-1]:
        raise SingularCovariance(f"covariance condition number {lam[-1] / lam[0]:.3e} exceeds 1e12")
    return sign, norm, _inverse(state.cov)


def _g_schur(state: GaussianState, side: np.ndarray, g: int, sign: float, inverse=None):
    # Returns log det V_A and G = X M = V_g + 2sI + (V_A^{-1})_gg of n subsets A
    # holding g, from one Cholesky factor per subset with g's quadratures last.
    # With inverse None, side (n, k) holds the modes of A besides g and V_A is
    # factored: its Schur complement of g is the inverse of (V_A^{-1})_gg. With
    # inverse = (log det V, W = V^{-1}), side holds the complement B and W on
    # B + {g} is factored: log det V_A = log det V + log det W_BB, and the
    # Schur complement of g is (V_A^{-1})_gg itself.
    gi = quad_indices((g,), state.m)
    mat = state.cov if inverse is None else inverse[1]
    idx = np.concatenate([quad_indices(side, state.m), np.broadcast_to(gi, (len(side), 2))], axis=1)
    chol = _cholesky(mat[idx[:, :, None], idx[:, None, :]])
    l_gg = chol[:, -2:, -2:]
    schur = l_gg @ np.swapaxes(l_gg, 1, 2)
    logs = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2))
    if inverse is None:
        logdet, w_gg = logs.sum(axis=1), np.linalg.inv(schur)
    else:
        logdet, w_gg = inverse[0] + logs[:, :-2].sum(axis=1), schur
    return logdet, state.cov[np.ix_(gi, gi)] + 2.0 * sign * np.eye(2) + w_gg


def _increase_chunk(state: GaussianState, side: np.ndarray, g: int, sign: float, norm: float,
                    inverse=None):
    # (e_before, delta) of n subsets holding g, by Wick pairing with B = G / 2;
    # side and inverse as in _g_schur
    logdet, g_mat = _g_schur(state, side, g, sign, inverse)
    alpha_g = state.mean[quad_indices((g,), state.m)]
    b = 0.5 * g_mat
    t_q = b[:, 0, 0] + b[:, 1, 1]
    t_qq = np.einsum("nij,nji->n", b, b)
    q_sig_q = 4.0 * np.einsum("i,nij,j->n", alpha_g, b, alpha_g)
    c = norm - 2.0 * t_q                                        # norm - tr(X M)
    second = t_q * t_q + 2.0 * t_qq + q_sig_q + 2.0 * c * t_q + c * c
    return -np.log(purities_from_logdet(1.0, logdet)), -np.log(second / (norm * norm))


def cut_masks(m: int, g: int) -> np.ndarray:
    """Bitmasks of the ``2**(m-1)`` subsystems of ``m`` modes that hold mode ``g``, ascending.

    Bit ``i`` set means mode ``i`` is in the subsystem. Entry ``j`` has bit
    ``g`` set and the bits of ``j`` from ``g`` up moved one place higher, so
    it holds, for each set bit ``i`` of ``j``, the ``i``-th mode besides ``g``.
    """
    bits, low = np.arange(2 ** (m - 1), dtype=np.int64), (1 << g) - 1
    return (bits & low) | ((bits & ~low) << 1) | (1 << g)


def entanglement_increase_cuts(
    state: GaussianState, g: int, kind: str = "subtract"
) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`entanglement_increase` and Gaussian Renyi-2 entropy over every cut.

    Returns ``(e_before, delta)`` for the subsystems of :func:`cut_masks`, in
    its order: ``e_before = -log mu_A`` and ``delta = E_after - E_before`` in
    nats. The global checks run before any subset is enumerated: purity,
    the weight of g and ``cond(V) <= 1e12``, which clears every cut. The
    subsets are then evaluated by size, one batched Cholesky per chunk of
    ``BATCH_CHUNK``, of ``V_A`` for ``|A| <= (m + 1) / 2`` and otherwise of
    ``W = V^{-1}`` on the complement plus g (see the module docstring);
    built from the mask bits, they need no per-subset checks.

    Raises:
        GlobalStateNotPure: if the global state is not pure within 1e-6.
        VacuumModeSubtraction: if mode ``g`` is vacuum and ``kind="subtract"``.
        IndexOutOfRange: if ``g`` lies outside the state.
        SingularCovariance: if ``V`` has condition number above 1e12 or is not
            numerically positive definite, before any cut is evaluated; if
            some factored block is not numerically positive definite; or if
            ``log det V`` is not finite.
        UnphysicalState: if some reduced covariance has purity above one.
        ValueError: for an unknown ``kind``.
    """
    sign, norm, inverse = _batch_guards(state, g, kind)
    masks = cut_masks(state.m, g)
    others = np.array([mode for mode in range(state.m) if mode != g], dtype=int)
    sizes = np.bitwise_count(masks) - 1
    e_before, delta = np.empty(len(masks)), np.empty(len(masks))
    for size in range(state.m):  # every size from 0 to m - 1 occurs
        # A is g plus `size` others: factor V_A (size + 1 modes) or, when it is
        # smaller, W on the complement plus g (m - size modes)
        on_w = state.m - size < size + 1
        positions = np.flatnonzero(sizes == size)
        for start in range(0, len(positions), BATCH_CHUNK):
            chunk = positions[start:start + BATCH_CHUNK]
            held = (masks[chunk, None] >> others) & 1
            side = others[np.nonzero(held != on_w)[1]].reshape(len(chunk), -1)
            e_before[chunk], delta[chunk] = _increase_chunk(
                state, side, g, sign, norm, inverse if on_w else None)
    return e_before, delta

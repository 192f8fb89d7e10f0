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
``log det V_A`` and ``(V_A^{-1})_gg`` give all Wick terms. Both come from one
binary trie of Schur complements. ``V`` is reordered into per-mode 2x2
blocks, the other modes ascending and g last. Level ``l`` of the trie decides
whether the ``l``-th other mode is in ``A``: each node holds the Schur
complement ``C`` of its chosen modes in ``V`` over the undecided modes and g,
and its leading block is left out (``C[2:, 2:]``) or eliminated
(``C[2:, 2:] - c P^{-1} c^T`` with pivot ``P`` and column ``c``, adding
``log det P``). This is block Cholesky in a fixed pivot order (Higham,
*Accuracy and Stability of Numerical Algorithms*, ch. 10). After ``m - 1``
levels each leaf is g's Schur complement in ``V_A``, so
``log det V_A = sum log det P + log det C`` and ``(V_A^{-1})_gg = C^{-1}``;
"out" before "in" leaves the cuts in :func:`cut_masks` order.

By Cauchy interlacing ``cond(V_A) <= cond(V)`` (Horn & Johnson, *Matrix
Analysis*, ch. 4), so one eigenvalue solve of ``V`` clears every cut when
``cond(V) <= CONDITION_LIMIT``. When it does not, the full cut, whose
``V_A`` is ``V``, fails too, so the scan fails at once with
:class:`SingularCovariance`.
Global purity, the weight of mode g and this conditioning guard are all
checked before any subset is enumerated; a pivot that is not positive
definite still fails typed.
:func:`relative_purity_wigner_many` runs the phase-space route over a stack
of states with one solve; :func:`entanglement_increase` is its one-state
case.

One vacuum rule holds on every route: mode g is vacuum when its mean photon
number (:func:`photon_weights`, :func:`closed_form_weights`) is at most
``VACUUM_WEIGHT_TOL``. The stacked kernels give its row NaN; the one-state
entries raise :class:`VacuumModeSubtraction`.

The relative purity never drops below one half, so the Renyi-2 entanglement
of a pure global state can grow by at most ``log 2`` under either operation.
Natural logarithms everywhere.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CONDITION_LIMIT, VACUUM_WEIGHT_TOL,
    IndexOutOfRange,
    SingularCovariance,
    VacuumModeSubtraction,
)
from .states import (
    BogoliubovRow,
    GaussianState,
    WilliamsonDecomposition,
    purities_from_logdet,
    quad_indices,
    require_pure,
    subsystem_modes,
)

# cuts per descent of the trie in entanglement_increase_cuts (rounded down to
# a power of two); bounds the stacked Schur complements, and so peak memory,
# at any mode count
TRIE_CHUNK = 1 << 12

LOG_2 = float(np.log(2.0))


def _kind_sign(kind: str) -> float:
    if kind == "subtract":
        return -1.0
    if kind == "add":
        return 1.0
    raise ValueError(f"kind must be 'subtract' or 'add', got {kind!r}")


def photon_weights(cov, mean, g, kind: str = "subtract") -> np.ndarray:
    """Photon weights ``(|alpha_g|^2 + tr V_g + 2s) / 4`` of mode ``g`` of stacked states.

    ``cov`` ``(..., 2m, 2m)``, ``mean`` ``(..., 2m)`` and ``g`` ``(...)``
    give weights ``(...)``: the mean photon number ``<a^dag a>``
    (``s = -1``, subtract) or ``<a a^dag>`` (``s = +1``, add) of the mode,
    the unit of :func:`closed_form_weights`. Mode ``g`` is vacuum when its
    weight is at most ``VACUUM_WEIGHT_TOL``; a NaN weight is not.
    """
    gi = quad_indices(np.asarray(g)[..., None], cov.shape[-1] // 2)
    alpha_g = np.take_along_axis(mean, gi, axis=-1)
    v_gg = np.take_along_axis(np.diagonal(cov, axis1=-2, axis2=-1), gi, axis=-1)
    return ((alpha_g * alpha_g).sum(axis=-1) + v_gg.sum(axis=-1) + 2.0 * _kind_sign(kind)) / 4.0


def photon_weight(state: GaussianState, g: int, kind: str = "subtract") -> float:
    """:func:`photon_weights` of one state; a ``g`` outside it raises :class:`IndexOutOfRange`."""
    subsystem_modes(state.m, g)
    return float(photon_weights(state.cov, state.mean, g, kind))


def _nonvacuum(weight: float, mode: str) -> float:
    # the one-state entries' vacuum rule; the stacked kernels give such a row NaN
    if weight <= VACUUM_WEIGHT_TOL:
        raise VacuumModeSubtraction(f"{mode} is vacuum (mean photon number {weight:.3e}); operation undefined")
    return weight


def _check_conditioning(v_a: np.ndarray):
    # cond(V_A) = lambda_max / lambda_min for symmetric positive-definite V_A,
    # stacked along leading axes
    lam = np.linalg.eigvalsh(v_a)
    if np.any(lam[..., 0] * CONDITION_LIMIT < lam[..., -1]):
        raise SingularCovariance(f"reduced covariance condition number exceeds {CONDITION_LIMIT:g}")


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
    Gaussian one, with ``d = beta - mean_A`` and ``norm`` four times the
    weight of :func:`photon_weights`. With the sign ``s = -1`` (subtract) or
    ``+1`` (add), ``X = (V + s I)[g, A]`` and ``M = V_A^{-1} X^T``, the polynomial
    is ``Q = M M^T``, ``q = -2 M alpha_g`` and ``c = norm - tr(X M)``
    (phase-space moments of Walschaers, Fabre, Parigi & Treps, PRL 119,
    183601 (2017)). Squaring the Wigner function halves the covariance, so
    the relative purity is the polynomial's second moment over
    ``N(0, V_A / 2)`` divided by ``norm**2``. A state whose mode ``g`` is
    vacuum for ``kind`` gets NaN.

    Raises:
        SingularCovariance: if a non-vacuum state's reduced covariance has
            condition number above ``CONDITION_LIMIT``.
        ValueError: for an unknown ``kind``.
    """
    sign = _kind_sign(kind)
    m = cov.shape[-1] // 2
    gi, idx = quad_indices(np.asarray(g)[:, None], m), quad_indices(modes, m)
    weight = photon_weights(cov, mean, g, kind)
    ratios = np.full(len(weight), np.nan)
    keep = weight > VACUUM_WEIGHT_TOL
    if not keep.any():
        return ratios
    gi, idx, norm = gi[keep], idx[keep], 4.0 * weight[keep]
    rows = np.flatnonzero(keep)[:, None, None]  # gathers the kept states' blocks; cov itself is not copied
    v_a = cov[rows, idx[:, :, None], idx[:, None, :]]
    _check_conditioning(v_a)
    x_mat = cov[rows, gi[:, :, None], idx[:, None, :]] + sign * (gi[:, :, None] == idx[:, None, :])
    alpha_g = np.take_along_axis(mean[keep], gi, axis=-1)
    second = _second_moment(0.5 * v_a, *_wigner_polynomial(v_a, x_mat, alpha_g, norm))
    ratios[keep] = second / (norm * norm)
    return ratios


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
        VacuumModeSubtraction: if the altered mode's mean photon number
            (:func:`closed_form_weights`) is at most ``VACUUM_WEIGHT_TOL``.
        ValueError: for an unknown ``kind``.
    """
    if row.k.shape != decomp.nu.shape:
        raise ValueError("Bogoliubov row length does not match the decomposition")
    _nonvacuum(float(closed_form_weights(decomp.nu, row.k, row.l, row.alpha_g, kind)), "the altered mode")
    return float(relative_purity_many(decomp.nu, row.k, row.l, row.alpha_g, kind))


def closed_form_weights(n, k, ell, alpha, kind: str = "subtract") -> np.ndarray:
    """Photon weights ``N + |alpha|^2`` of :func:`relative_purity_many`'s rows; ``N`` itself at ``alpha = 0``."""
    if _kind_sign(kind) > 0:
        k, ell = ell, k
    return (np.abs(k) ** 2 * (n + 1.0) / 2.0 + np.abs(ell) ** 2 * (n - 1.0) / 2.0).sum(axis=-1) + np.abs(alpha) ** 2


def relative_purity_many(n, k, ell, alpha, kind: str = "subtract") -> np.ndarray:
    """:func:`relative_purity_closed_form` over stacked rows, but a vacuum row gets NaN; only a bad ``kind`` raises.

    Occupations ``n`` and rows ``k``, ``ell`` have shape ``(..., m)``,
    amplitudes ``alpha`` shape ``(...)``; ``kind="add"`` swaps ``k`` and ``ell``.
    """
    if _kind_sign(kind) > 0:
        k, ell = ell, k
    plus, minus = np.abs(k) ** 2 * (n + 1.0) / 2.0, np.abs(ell) ** 2 * (n - 1.0) / 2.0
    big_n, big_n_tilde = (plus + minus).sum(axis=-1), plus - minus
    a2 = np.abs(alpha) ** 2
    weight = big_n + a2  # closed_form_weights, from the same terms in the same order
    weight = np.where(weight <= VACUUM_WEIGHT_TOL, np.nan, weight)  # a vacuum row's ratio is NaN

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
        GlobalStateNotPure: if the global state is not pure within ``PURE_GLOBAL_TOL``.
        VacuumModeSubtraction: if mode ``g`` is vacuum and ``kind="subtract"``.
        IndexOutOfRange: if ``g`` lies outside the state.
        SingularCovariance: if the reduced covariance of g's side has
            condition number above ``CONDITION_LIMIT``.
        ValueError: for an unknown ``kind``.
    """
    require_pure(state)
    side = _g_side(state, subsystem, g)
    _nonvacuum(photon_weight(state, g, kind), f"mode {g}")
    ratio = relative_purity_wigner_many(
        state.cov[None], state.mean[None], np.array([g]), np.array([side]), kind)
    return float(-np.log(ratio[0]))


def _batch_guards(state: GaussianState, g: int, kind: str) -> tuple[float, float]:
    # kind, purity and the weight of g, then cond(V) <= CONDITION_LIMIT, which clears every
    # cut by interlacing; the full cut's V_A is V, so a state that fails here
    # would fail there. Returns sign and norm, four times the weight of g.
    sign = _kind_sign(kind)
    require_pure(state)
    norm = 4.0 * _nonvacuum(photon_weight(state, g, kind), f"mode {g}")
    lam = np.linalg.eigvalsh(state.cov)
    if lam[0] <= 0:
        raise SingularCovariance("covariance matrix is not numerically positive definite")
    if lam[0] * CONDITION_LIMIT < lam[-1]:
        raise SingularCovariance(f"covariance condition number {lam[-1] / lam[0]:.3e} exceeds {CONDITION_LIMIT:g}")
    return sign, norm


def _pivot(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (log det P, P^{-1}) of stacked 2x2 blocks P, each checked positive definite
    # before any log: P[0, 0] > 0 and det P > 0, which a NaN fails
    a, b, c, d = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1]
    det = a * d - b * c
    if not (np.all(a > 0) and np.all(det > 0)):
        raise SingularCovariance("reduced covariance is not numerically positive definite")
    adjugate = np.stack([d, -b, -c, a], axis=-1).reshape(-1, 2, 2)
    return np.log(det), adjugate / det[:, None, None]


def _trie_level(nodes: np.ndarray, logdet: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # One level of the cut trie: each node's leading mode is left out of A,
    # then taken into it by eliminating its 2x2 pivot P (a rank-2 Schur update
    # of the rest, log det P added); "out" nodes come first.
    logdet_p, inverse = _pivot(nodes[:, :2, :2])
    col, rest = nodes[:, 2:, :2], nodes[:, 2:, 2:]
    schur = rest - col @ inverse @ np.swapaxes(col, 1, 2)
    return np.concatenate([rest, schur]), np.concatenate([logdet, logdet + logdet_p])


def _trie_leaves(nodes: np.ndarray, logdet: np.ndarray, levels: int) -> tuple[np.ndarray, np.ndarray]:
    # log det V_A and (V_A^{-1})_gg of the cuts below the stacked nodes, after
    # `levels` levels; each leaf's last 2x2 block is g's Schur complement in V_A
    for _ in range(levels):
        nodes, logdet = _trie_level(nodes, logdet)
    logdet_g, w_gg = _pivot(nodes)
    return logdet + logdet_g, w_gg


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
    the weight of g and ``cond(V) <= CONDITION_LIMIT``, which clears every cut. The
    cuts then come from the trie of Schur complements of the module
    docstring: the top levels run on every node, then each top node
    descends the rest to at most ``TRIE_CHUNK`` cuts, which bounds memory.

    Raises:
        GlobalStateNotPure: if the global state is not pure within ``PURE_GLOBAL_TOL``.
        VacuumModeSubtraction: if mode ``g`` is vacuum and ``kind="subtract"``.
        IndexOutOfRange: if ``g`` lies outside the state.
        SingularCovariance: if ``V`` has condition number above ``CONDITION_LIMIT`` or is not
            numerically positive definite, before any cut is evaluated; or
            if some 2x2 pivot of the trie is not numerically positive
            definite.
        UnphysicalState: if some reduced covariance has purity above one.
        ValueError: for an unknown ``kind``.
    """
    sign, norm = _batch_guards(state, g, kind)
    m = state.m
    # the other modes ascending, then g, each as its (x, p) block
    order = quad_indices(np.array([i for i in range(m) if i != g] + [g])[:, None], m).ravel()
    nodes, logdet = state.cov[np.ix_(order, order)][None], np.zeros(1)
    below = min(m - 1, TRIE_CHUNK.bit_length() - 1)
    for _ in range(m - 1 - below):
        nodes, logdet = _trie_level(nodes, logdet)
    gi = quad_indices((g,), m)
    alpha_g, v_g = state.mean[gi], state.cov[np.ix_(gi, gi)] + 2.0 * sign * np.eye(2)
    # cut top + len(nodes) * k is leaf k below top node `top`: row k, column top
    e_before, delta = np.empty((2, 2 ** below, len(nodes)))
    for top in range(len(nodes)):
        logdet_a, w_gg = _trie_leaves(nodes[top:top + 1], logdet[top:top + 1], below)
        g_mat = v_g + w_gg                                      # X M = V_g + 2sI + (V_A^{-1})_gg
        second = _second_moment(0.5 * g_mat, np.eye(2), 2.0 * alpha_g,
                                norm - np.trace(g_mat, axis1=1, axis2=2))
        e_before[:, top] = -np.log(purities_from_logdet(1.0, logdet_a))
        delta[:, top] = -np.log(second / (norm * norm))
    return e_before.ravel(), delta.ravel()

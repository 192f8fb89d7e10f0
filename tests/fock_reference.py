"""Pure-state Fock helpers that only the tests use.

Basis states, quadrature moments, the reduced-density reference route that
``fock.reduced_purity`` replaced, the thermal density matrix taken from
``fock.thermal_purification`` and the product of such purifications through
which a mixed state of several modes enters the oracle, the closed-form
thermal trace moments that unit-test that density, and the generic
construction of the unit generators' conserved blocks that
``fock._unit_blocks`` builds from their bands, with each block's coupling
and real normal form by masks and loops, the complex ``eigh`` route that
the normal form replaced, and the matrix of one gate term that
``fock._apply_term`` applies.
"""

from types import SimpleNamespace

import numpy as np

from cvdistill import FockArray, IndexOutOfRange, InvalidOccupation, thermal_purification
# density_purity: tr(rho^2) / tr(rho)^2 by the oracle's own summation, so the bits match
from cvdistill.fock import _WIDTH, _apply_term, _hermitian_purity as density_purity, _ladder  # noqa: F401
from cvdistill.states import subsystem_modes


def number_basis_state(occupations, cutoff):
    """A photon-number basis state ``|n_1 ... n_m>``."""
    occ = tuple(int(n) for n in occupations)
    if any(n < 0 or n >= cutoff for n in occ):
        raise IndexOutOfRange(f"occupations {occ} outside [0, {cutoff})")
    data = np.zeros((cutoff,) * len(occ), dtype=complex)
    data[occ] = 1.0
    return FockArray(m=len(occ), cutoff=cutoff, data=data)


def thermal_density(n, cutoff):
    """Real ``(cutoff, cutoff)`` density matrix ``diag(p)`` of mode 0 of ``thermal_purification(n, cutoff)``."""
    return np.diag(np.diag(thermal_purification(n, cutoff).data).real ** 2)


def thermal_product_purification(ns, cutoff):
    """Pure ``2k``-mode tensor whose modes ``0..k-1`` hold the thermal product of ``ns``.

    Mode ``i`` is paired with ancilla mode ``k + i`` by the amplitudes of
    ``thermal_purification(ns[i], cutoff)``, ``sqrt(p_j)`` on ``|j, j>``.
    """
    k = len(ns)
    data = np.ones(())
    for n in ns:
        data = np.multiply.outer(data, thermal_purification(n, cutoff).data.real)
    # axes come in (system, ancilla) pairs; put the systems first
    data = np.transpose(data, [*range(0, 2 * k, 2), *range(1, 2 * k, 2)])
    return FockArray(m=2 * k, cutoff=cutoff, data=data.astype(complex))


def reduce_density(state, subsystem):
    """Partial trace onto the given modes, as a ``(d^k, d^k)`` density matrix.

    The modes follow the subset rule of :func:`~cvdistill.states.subsystem_modes`.
    """
    keep = subsystem_modes(state.m, subsystem)
    drop = [i for i in range(state.m) if i not in keep]
    rho = np.tensordot(state.data, state.data.conj(), axes=(drop, drop))
    dim = state.cutoff ** len(keep)
    return rho.reshape(dim, dim)


def quadrature_ops(d):
    """Dense single-mode ``x = a + a^dag`` and ``p = -i(a - a^dag)`` at cutoff ``d``."""
    a = _ladder(d)
    return a + a.T, -1j * (a - a.T)


def expectation(state, ops):
    """Expectation of a product of single-mode operators, normalised by the weight.

    ``ops`` lists ``(matrix, mode)`` pairs in operator order: the last pair
    acts on the state first.
    """
    phi = state.data
    for op, mode in reversed(ops):
        phi = np.moveaxis(np.tensordot(op, phi, axes=(1, mode)), 0, mode)
    return complex(np.vdot(state.data, phi) / state.weight())


def mean_photon(state, mode):
    """Mean photon number of one mode."""
    return float(expectation(state, [(np.diag(np.arange(state.cutoff, dtype=float)), mode)]).real)


def covariance_fock(state, modes=None):
    """Quadrature mean and covariance of ``modes`` (default: all) of a pure Fock state.

    The same xxpp layout and shot-noise units as the Gaussian side, so the
    output compares directly with ``GaussianState.mean`` / ``.cov``.
    """
    modes = range(state.m) if modes is None else modes
    x_op, p_op = quadrature_ops(state.cutoff)
    quads = [(x_op, i) for i in modes] + [(p_op, i) for i in modes]
    mean = np.array([expectation(state, [q]).real for q in quads])
    cov = np.empty((len(quads), len(quads)))
    for j in range(len(quads)):
        for k in range(j, len(quads)):
            jk = expectation(state, [quads[j], quads[k]])
            kj = expectation(state, [quads[k], quads[j]])
            cov[j, k] = cov[k, j] = 0.5 * (jk + kj).real - mean[j] * mean[k]
    return mean, cov


def thermal_traces(n):
    """Closed forms of eight trace moments of the thermal state with covariance ``diag(n, n)``.

    ``n`` is in shot-noise units (vacuum is 1), so the mean photon number is
    ``(n - 1) / 2``. The attributes name the traces: ``a_rho_adag`` is
    ``tr(a rho a^dag)``, ``adag_rho_a_a_rho_adag`` is
    ``tr(a^dag rho a a rho a^dag)``, ``rho2_adag_a`` is ``tr(rho^2 a^dag a)``,
    ``rho_adag_rho_a`` is ``tr(rho a^dag rho a)``, and so on.

    Raises:
        InvalidOccupation: for ``n < 1``.
    """
    if n < 1.0:
        raise InvalidOccupation(f"thermal occupation {n} below the vacuum value 1")
    n = float(n)
    sub, add = (n - 1.0) / 2.0, (n + 1.0) / 2.0
    kernel = (1.0 + n * n) / (2.0 * n ** 3)
    return SimpleNamespace(
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


def unit_blocks(kind, d, padded):
    """Yield ``(levels, gen)`` per distinct conserved block of a unit-parameter generator.

    ``levels`` holds the per-mode photon numbers of the block's states, in
    order, and ``gen`` is the real antisymmetric generator on them, gathered
    from the full generator over label masks. Only the blocks with a state
    below ``d`` on every mode are yielded. The two-mode squeezer's generator
    is symmetric in its two modes, so its block ``n_i - n_j = -k`` is the
    block ``k`` with the modes swapped: the same ``padded - k`` states,
    coupled by ``0.5 sqrt((t + 1)(t + k + 1))`` bit for bit. Only its blocks
    ``k >= 0`` are yielded. The displacement's unit generator is
    ``a^dag - a``.
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


def symmetric_part(gen):
    """``triu(gen) + triu(gen)^T``, the real symmetric ``J`` of a block's generator."""
    upper = np.triu(gen)
    return upper + upper.T


def unit_spectrum(kind, d, padded):
    """The complex route that ``fock._eigensolve`` replaced: per block, ``(flat, lam, U[kept])`` from one ``eigh``.

    ``-iG = D J D^dag`` with ``J = triu(G) + triu(G)^T`` real symmetric and
    ``D = diag(exp(i pi t / (2w)))``, so ``eigh(J) = (lam, V)`` gives
    ``exp(x G) = U diag(exp(i x lam)) U^dag`` with ``U = D V``. Kept rows by
    boolean mask, flat indices by ``ravel_multi_index``; a two-mode squeezer
    block ``k > 0``, whose first state is ``(k, 0)``, also serves ``-k``, with
    the modes swapped.
    """
    spectra = []
    for levels, gen in unit_blocks(kind, d, padded):
        keep = np.logical_and.reduce([lv < d for lv in levels])
        lam, vecs = np.linalg.eigh(symmetric_part(gen))
        phase = np.exp(0.5j * np.pi / _WIDTH[kind] * np.arange(len(gen)))
        vecs = np.ascontiguousarray(phase[keep, None] * vecs[keep])
        for flat in _flats(kind, levels, keep, d):
            spectra.append((flat, lam, vecs))
    return tuple(spectra)


def _flats(kind, levels, keep, d):
    mirrored = kind == "two_mode_squeezer" and levels[0][0] > 0
    for lv in (levels, levels[::-1]) if mirrored else (levels,):
        yield np.ravel_multi_index(tuple(n[keep] for n in lv), (d,) * len(lv))


def coupling(gen, w):
    """``gen[E, O]`` of a block's generator coupled to width ``w``: ``E`` its states with ``t // w`` even, by boolean masks."""
    even = np.arange(len(gen)) // w % 2 == 0
    return gen[even][:, ~even]


def normal_form(gen, w, keep):
    """``(theta, L[keep])`` of a block's generator, from one SVD of its coupling, assembled column by column.

    Column ``2 i`` of ``L`` is ``P_i`` on the rows of ``E``, column ``2 i + 1``
    is ``Q_i`` on the rows of ``O``, with angles ``-sigma_i`` and ``sigma_i``;
    the columns of ``P`` or ``Q`` left over follow, at angle 0.
    """
    even = np.arange(len(gen)) // w % 2 == 0
    left, sigma, right = np.linalg.svd(coupling(gen, w))
    e_rows, o_rows = np.flatnonzero(even), np.flatnonzero(~even)
    basis, theta = np.zeros((len(gen), len(gen))), np.zeros(len(gen))
    for i, s in enumerate(sigma):
        basis[e_rows, 2 * i], basis[o_rows, 2 * i + 1] = left[:, i], right[i]
        theta[2 * i], theta[2 * i + 1] = -s, s
    col = 2 * len(sigma)
    for rows, vecs in ((e_rows, left), (o_rows, right.T)):
        for i in range(len(sigma), vecs.shape[1]):
            basis[rows, col] = vecs[:, i]
            col += 1
    return theta, basis[keep]


def unit_normal_form(kind, d, padded):
    """``fock._eigensolve`` from :func:`unit_blocks`, per block ``(flat, theta, L[kept])``."""
    spectra = []
    for levels, gen in unit_blocks(kind, d, padded):
        keep = np.logical_and.reduce([lv < d for lv in levels])
        theta, basis = normal_form(gen, _WIDTH[kind], keep)
        spectra += [(flat, theta, basis) for flat in _flats(kind, levels, keep, d)]
    return tuple(spectra)


def eigh_propagator(kind, params, d):
    """One banded gate term's propagator on the flat levels below ``d``, built from :func:`unit_spectrum`."""
    n = 1 if kind in ("single_mode_squeezer", "displacement") else 2
    x = params[0]
    if kind == "displacement":
        alpha = complex(*params)
        x, rotation = abs(alpha), np.exp(1j * np.angle(alpha) * np.arange(d))
    out = np.zeros((d ** n, d ** n), dtype=complex)
    for flat, lam, vecs in unit_spectrum(kind, d, 2 * d):
        vecs = rotation[flat, None] * vecs if kind == "displacement" else vecs
        block = (vecs * np.exp(1j * x * lam)) @ vecs.conj().T
        out[np.ix_(flat, flat)] = block if kind == "displacement" else block.real
    return out


def restricted_propagator(kind, params, d):
    """One gate term's propagator on the flat levels below ``d``: ``fock._apply_term`` of the identity.

    Column ``j`` is the term applied to basis state ``j``; the levels run over
    the term's one or two modes in row-major order, as ``fock``'s flat indices.
    """
    n = 1 if kind in ("single_mode_squeezer", "displacement") else 2
    eye = np.eye(d ** n, dtype=complex).reshape((d,) * n + (d ** n,))
    return _apply_term(eye, list(range(n)), kind, params, d).reshape(d ** n, d ** n)

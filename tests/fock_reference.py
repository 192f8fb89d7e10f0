"""Pure-state Fock helpers that only the tests use.

Basis states, quadrature moments, the reduced-density reference route that
``fock.reduced_purity`` replaced, and the purification through which a mixed
state enters the oracle.
"""

import numpy as np

from cvdistill import FockArray, IndexOutOfRange, thermal_density
# density_purity: tr(rho^2) / tr(rho)^2 by the oracle's own summation, so the bits match
from cvdistill.fock import DEFAULT_LEAK_TOL, _hermitian_purity as density_purity, _ladder  # noqa: F401
from cvdistill.states import subsystem_modes


def number_basis_state(occupations, cutoff, leak_tol=DEFAULT_LEAK_TOL):
    """A photon-number basis state ``|n_1 ... n_m>``."""
    occ = tuple(int(n) for n in occupations)
    if any(n < 0 or n >= cutoff for n in occ):
        raise IndexOutOfRange(f"occupations {occ} outside [0, {cutoff})")
    data = np.zeros((cutoff,) * len(occ), dtype=complex)
    data[occ] = 1.0
    return FockArray(m=len(occ), cutoff=cutoff, data=data, leak_tol=leak_tol)


def thermal_purification(ns, cutoff, leak_tol=DEFAULT_LEAK_TOL):
    """Pure ``2k``-mode tensor whose modes ``0..k-1`` hold the thermal product of ``ns``.

    Mode ``i`` is paired with ancilla mode ``k + i`` by amplitudes
    ``sqrt(p_j)`` on ``|j, j>``, with ``p`` the diagonal of
    ``thermal_density(ns[i], cutoff)``.
    """
    k = len(ns)
    data = np.ones(())
    for n in ns:
        data = np.multiply.outer(data, np.diag(np.sqrt(np.diag(thermal_density(n, cutoff)))))
    # axes come in (system, ancilla) pairs; put the systems first
    data = np.transpose(data, [*range(0, 2 * k, 2), *range(1, 2 * k, 2)])
    return FockArray(m=2 * k, cutoff=cutoff, data=data.astype(complex), leak_tol=leak_tol)


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

"""Real symplectic linear algebra on quadrature phase space.

Conventions used throughout the package:

* quadratures are ordered ``(x_1, ..., x_m, p_1, ..., p_m)`` (xxpp layout);
* shot-noise units: the vacuum covariance matrix is the identity, and a
  single-mode thermal state has covariance ``diag(n, n)`` with ``n >= 1``;
* ladder correspondence ``x = a + a^dag``, ``p = -i (a - a^dag)``, so that
  ``<a> = (<x> + i <p>) / 2``;
* a Gaussian unitary with Heisenberg action ``U^dag beta U = S beta`` maps a
  state as ``V -> S V S^T``, ``mean -> S mean``.

A two-mode squeezer with gate parameter ``r`` acts with hyperbolic argument
``r / 2``: ``x_i -> x_i cosh(r/2) - x_j sinh(r/2)`` and
``p_i -> p_i cosh(r/2) + p_j sinh(r/2)`` (symmetric in ``i, j``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRange


def symplectic_form(m: int) -> np.ndarray:
    """Return the symplectic form ``Omega = [[0, I], [-I, 0]]`` for ``m`` modes."""
    if m < 1:
        raise ValueError("mode count must be at least 1")
    zero = np.zeros((m, m))
    eye = np.eye(m)
    return np.block([[zero, eye], [-eye, zero]])


def symplectic_deviation(S: np.ndarray) -> float:
    """Max-abs deviation of ``S Omega S^T`` from ``Omega``."""
    m = S.shape[0] // 2
    omega = symplectic_form(m)
    return float(np.abs(S @ omega @ S.T - omega).max())


@dataclass(frozen=True)
class CircuitElement:
    """One Gaussian circuit element acting on the quadratures.

    ``kind`` selects the gate; ``modes`` are the mode indices it touches,
    ``param`` its scalar parameter (squeezing, angle or edge weight) and
    ``shift`` the quadrature displacement vector for displacement elements.
    """

    kind: str
    modes: tuple[int, ...] = ()
    param: float = 0.0
    shift: np.ndarray | None = field(default=None, repr=False)


def two_mode_squeezer(i: int, j: int, r: float) -> CircuitElement:
    """Two-mode squeezer ``exp[r (a_i a_j - a_i^dag a_j^dag) / 2]``."""
    _check_pair(i, j)
    return CircuitElement("two_mode_squeezer", (i, j), float(r))


def single_mode_squeezer(i: int, r_s: float) -> CircuitElement:
    """Single-mode squeezer ``exp[r_s (a_i^dag^2 - a_i^2) / 2]``; antisqueezes x for r_s > 0."""
    _check_mode(i)
    return CircuitElement("single_mode_squeezer", (i,), float(r_s))


def beamsplitter(i: int, j: int, theta: float) -> CircuitElement:
    """Beamsplitter ``exp[theta (a_i^dag a_j - a_i a_j^dag)]``; theta in radians."""
    _check_pair(i, j)
    return CircuitElement("beamsplitter", (i, j), float(theta))


def cz(i: int, j: int, weight: float = 1.0) -> CircuitElement:
    """Controlled-Z gate ``exp[i (weight/2) x_i x_j]``: maps ``p -> p + weight * x`` cross-mode."""
    _check_pair(i, j)
    return CircuitElement("cz", (i, j), float(weight))


def displacement(shift: np.ndarray) -> CircuitElement:
    """Phase-space displacement by the quadrature vector ``shift`` of length 2m."""
    vec = np.asarray(shift, dtype=float).copy()
    if vec.ndim != 1 or vec.size % 2 != 0:
        raise ValueError("displacement shift must be a flat vector of even length")
    vec.flags.writeable = False
    return CircuitElement("displacement", (), 0.0, vec)


def _check_mode(i: int):
    if i < 0:
        raise IndexOutOfRange(f"mode index {i} is negative")


def _check_pair(i: int, j: int):
    _check_mode(i)
    _check_mode(j)
    if i == j:
        raise IndexOutOfRange("two-mode elements need two distinct modes")


def element_to_symplectic(elem: CircuitElement, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the Heisenberg quadrature map ``(S, shift)`` of one element.

    The state transforms as ``V -> S V S^T``, ``mean -> S mean + shift``.

    Args:
        elem: circuit element to realise.
        m: total number of modes of the target system.

    Returns:
        tuple: ``(S, shift)`` with ``S`` a ``2m x 2m`` symplectic matrix and
        ``shift`` a length ``2m`` vector (zero except for displacements).

    Raises:
        IndexOutOfRange: if the element addresses a mode outside ``[0, m)``.
    """
    if m < 1:
        raise ValueError("mode count must be at least 1")
    for mode in elem.modes:
        if not 0 <= mode < m:
            raise IndexOutOfRange(f"mode {mode} outside [0, {m})")

    S = np.eye(2 * m)
    shift = np.zeros(2 * m)
    kind = elem.kind

    if kind == "two_mode_squeezer":
        i, j = elem.modes
        c, s = np.cosh(elem.param / 2.0), np.sinh(elem.param / 2.0)
        S[i, i] = S[j, j] = c
        S[i, j] = S[j, i] = -s
        S[m + i, m + i] = S[m + j, m + j] = c
        S[m + i, m + j] = S[m + j, m + i] = s
    elif kind == "single_mode_squeezer":
        (i,) = elem.modes
        S[i, i] = np.exp(elem.param)
        S[m + i, m + i] = np.exp(-elem.param)
    elif kind == "beamsplitter":
        i, j = elem.modes
        c, s = np.cos(elem.param), np.sin(elem.param)
        for off in (0, m):
            S[off + i, off + i] = S[off + j, off + j] = c
            S[off + i, off + j] = s
            S[off + j, off + i] = -s
    elif kind == "cz":
        i, j = elem.modes
        S[m + i, j] = elem.param
        S[m + j, i] = elem.param
    elif kind == "displacement":
        if elem.shift is None or elem.shift.size != 2 * m:
            raise ValueError(f"displacement shift must have length {2 * m}")
        shift = elem.shift.astype(float).copy()
    else:
        raise ValueError(f"unknown circuit element kind {kind!r}")
    return S, shift


def compose(elements, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Compose circuit elements in temporal order (first list entry acts first).

    Args:
        elements: iterable of :class:`CircuitElement`.
        m: total number of modes.

    Returns:
        tuple: combined ``(S, shift)`` so that the state map is
        ``V -> S V S^T``, ``mean -> S mean + shift``.
    """
    S = np.eye(2 * m)
    shift = np.zeros(2 * m)
    for elem in elements:
        Se, de = element_to_symplectic(elem, m)
        S = Se @ S
        shift = Se @ shift + de
    return S, shift


def _haar_unitary(z: np.ndarray) -> np.ndarray:
    # QR of complex Ginibre matrices (... x m x m) with the phase fix that makes them Haar.
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def orthogonal_symplectic_from_unitary(u: np.ndarray) -> np.ndarray:
    """Map ``m x m`` unitaries on the ladder operators (``...`` leading axes) to their xxpp quadrature action."""
    x, y = u.real, u.imag
    return np.concatenate(
        [np.concatenate([x, -y], axis=-1), np.concatenate([y, x], axis=-1)], axis=-2
    )


def random_symplectic_parameters(m: int, rng: np.random.Generator):
    """Draw the raw inputs of one :func:`random_symplectic` matrix: generator calls only.

    Returns:
        tuple: ``(parts, u)``: ``parts`` of shape ``(2, 2, m, m)`` holds the
        standard normals of the two passive factors' complex Ginibre
        matrices, each drawn as its real part, then its imaginary part;
        ``u`` holds ``m`` uniforms in ``[0, 1)`` for the log-squeezings.
    """
    return rng.standard_normal((2, 2, m, m)), rng.random(m)


def euler_symplectic(parts: np.ndarray, u: np.ndarray, squeeze_bound: float) -> np.ndarray:
    """Assemble passive x squeeze x passive from :func:`random_symplectic_parameters` draws.

    Takes stacked draws: ``parts`` of shape ``(..., 2, 2, m, m)`` and ``u``
    of shape ``(..., m)`` give ``(..., 2m, 2m)`` symplectic matrices, each
    equal bit for bit to the one assembled on its own. All arithmetic on the
    draws happens here, once per stack: the Ginibre matrices are
    ``(real + i imag) / sqrt 2`` and the log-squeezings
    ``-squeeze_bound + 2 squeeze_bound u``, the arithmetic of
    ``Generator.uniform(-squeeze_bound, squeeze_bound)``.
    """
    if squeeze_bound < 0:
        raise ValueError("squeeze_bound must be nonnegative")
    z = (parts[..., 0, :, :] + 1j * parts[..., 1, :, :]) / np.sqrt(2.0)
    log_squeeze = -squeeze_bound + (2.0 * squeeze_bound) * u
    o = orthogonal_symplectic_from_unitary(_haar_unitary(z))
    squeeze = np.concatenate([np.exp(log_squeeze), np.exp(-log_squeeze)], axis=-1)
    return o[..., 0, :, :] @ (squeeze[..., :, None] * o[..., 1, :, :])


def random_symplectic(m: int, seed, squeeze_bound: float = 1.0) -> np.ndarray:
    """Draw a random symplectic matrix, Euler-decomposed as passive x squeeze x passive.

    Args:
        m: number of modes.
        seed: integer seed or a ``numpy.random.Generator``.
        squeeze_bound: per-mode log-squeezing drawn uniformly from
            ``[-squeeze_bound, squeeze_bound]``.

    Returns:
        array: a ``2m x 2m`` symplectic matrix; deterministic for a fixed seed.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return euler_symplectic(*random_symplectic_parameters(m, rng), squeeze_bound)

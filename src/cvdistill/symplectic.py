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
    # Q of complex Ginibre matrices z = QR (... x m x m) with R's diagonal real and positive, which
    # makes Q Haar (Mezzadri 2007): two-pass classical Gram-Schmidt over the columns, the whole stack
    # at once in broadcast sums, so no BLAS call and the same bits at any thread count. Column j has
    # the earlier columns projected out twice, enough for unitarity at working precision (Giraud,
    # Langou and Rozloznik 2005), and is then normalised.
    qt = np.empty((z.shape[-1], *z.shape[:-1]), complex)  # qt[j]: column j of each Q
    for j in range(len(qt)):
        v, q = z[..., j], qt[:j]
        for _ in range(2 if j else 0):  # column 0 has no earlier column to project out
            v = v - (q * (q.conj() * v).sum(axis=-1, keepdims=True)).sum(axis=0)
        qt[j] = v / np.sqrt((v.real ** 2 + v.imag ** 2).sum(axis=-1, keepdims=True))
    return np.moveaxis(qt, 0, -1)


def euler_factors(parts: np.ndarray, u: np.ndarray, squeeze_bound: float) -> tuple[np.ndarray, np.ndarray]:
    """The factors ``(unitaries, log_squeeze)`` of passive x squeeze x passive maps, from raw generator draws.

    ``parts`` ``(..., 2, 2, m, m)`` holds the standard normals of the two
    passive factors' complex Ginibre matrices, each as its real part, then
    its imaginary part, and ``u`` ``(..., m)`` uniforms in ``[0, 1)``; they
    give the Haar unitaries ``(..., 2, m, m)`` and log-squeezings ``(..., m)``,
    equal bit for bit to those of each draw on its own. All arithmetic on the
    draws happens here: the Ginibre matrices are ``(real + i imag) / sqrt 2``,
    the log-squeezings ``-squeeze_bound + 2 squeeze_bound u``, the arithmetic
    of ``Generator.uniform(-squeeze_bound, squeeze_bound)``.
    """
    if squeeze_bound < 0:
        raise ValueError("squeeze_bound must be nonnegative")
    z = (parts[..., 0, :, :] + 1j * parts[..., 1, :, :]) / np.sqrt(2.0)
    return _haar_unitary(z), -squeeze_bound + (2.0 * squeeze_bound) * u


def euler_symplectic(unitaries: np.ndarray, log_squeeze: np.ndarray) -> np.ndarray:
    """The ``(..., 2m, 2m)`` maps ``O(U_1) diag(e^s, e^-s) O(U_2)`` of :func:`euler_factors`' factors."""
    x, y = unitaries.real, unitaries.imag  # each unitary's xxpp quadrature action O(U) = [[X, -Y], [Y, X]]
    o = np.concatenate([np.concatenate([x, -y], axis=-1), np.concatenate([y, x], axis=-1)], axis=-2)
    squeeze = np.concatenate([np.exp(log_squeeze), np.exp(-log_squeeze)], axis=-1)
    return o[..., 0, :, :] @ (squeeze[..., :, None] * o[..., 1, :, :])

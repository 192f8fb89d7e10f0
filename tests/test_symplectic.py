"""Tests for the symplectic phase-space layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvdistill import (
    CircuitElement,
    IndexOutOfRange,
    apply_circuit,
    apply_gate_fock,
    beamsplitter,
    compose,
    cz,
    displacement,
    element_to_symplectic,
    single_mode_squeezer,
    two_mode_squeezer,
    vacuum,
    vacuum_fock,
)
from cvdistill.symplectic import _haar_unitary, euler_factors, euler_symplectic
from scalar_reference import (
    haar_unitary_qr,
    random_symplectic,
    random_symplectic_parameters,
    symplectic_deviation,
    symplectic_form,
)


def _is_symplectic(S, tol=1e-9):
    return S.shape[0] == S.shape[1] and S.shape[0] % 2 == 0 and symplectic_deviation(S) <= tol


def test_symplectic_form_m1():
    assert_allclose(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])


def test_symplectic_form_m2_block_structure():
    omega = symplectic_form(2)
    assert_allclose(omega[:2, 2:], np.eye(2))
    assert_allclose(omega[2:, :2], -np.eye(2))
    assert_allclose(omega[:2, :2], np.zeros((2, 2)))


def test_symplectic_form_squares_to_minus_identity():
    omega = symplectic_form(3)
    assert_allclose(omega @ omega, -np.eye(6), atol=1e-15)


def test_two_mode_squeezer_zero_parameter_is_identity():
    S, shift = element_to_symplectic(two_mode_squeezer(0, 1, 0.0), 2)
    assert_allclose(S, np.eye(4))
    assert_allclose(shift, np.zeros(4))


def test_two_mode_squeezer_uses_half_parameter():
    S, _ = element_to_symplectic(two_mode_squeezer(0, 1, 1.0), 2)
    c, s = np.cosh(0.5), np.sinh(0.5)
    assert_allclose(S[0, 0], c)
    assert_allclose(S[0, 1], -s)
    assert_allclose(S[2, 3], s)


def test_cz_quadrature_action():
    S, _ = element_to_symplectic(cz(0, 1, 1.0), 2)
    expected = np.eye(4)
    expected[2, 1] = 1.0  # p_0 picks up x_1
    expected[3, 0] = 1.0  # p_1 picks up x_0
    assert_allclose(S, expected)


def test_single_mode_squeezer_antisqueezes_x():
    S, _ = element_to_symplectic(single_mode_squeezer(0, 0.3), 1)
    assert_allclose(S, np.diag([np.exp(0.3), np.exp(-0.3)]))


def test_beamsplitter_is_orthogonal_symplectic():
    S, _ = element_to_symplectic(beamsplitter(0, 1, 0.7), 3)
    assert_allclose(S @ S.T, np.eye(6), atol=1e-14)
    assert symplectic_deviation(S) < 1e-12


def test_displacement_returns_identity_plus_shift():
    S, shift = element_to_symplectic(displacement(1, 1.5 + 2.0j), 2)
    assert_allclose(S, np.eye(4))
    assert_allclose(shift, [0.0, 3.0, 0.0, 4.0])


def test_displacement_mode_out_of_range_rejected():
    # a displacement's mode is checked like any gate's, on the Gaussian and the Fock side alike
    with pytest.raises(IndexOutOfRange):
        displacement(-1, 0.5j)
    for elem in (CircuitElement("displacement", (-1,), 0.5j), displacement(2, 0.5j), displacement(5, 0.5j)):
        with pytest.raises(IndexOutOfRange):
            element_to_symplectic(elem, 2)
        with pytest.raises(IndexOutOfRange):
            apply_gate_fock(vacuum_fock(2, 4), elem)


def test_per_mode_displacements_give_the_shift_vector_bit_for_bit():
    # one displacement per mode is the displacement by the 2m vector (2 Re alpha, 2 Im alpha),
    # composed after or before a squeezer
    alphas = np.array([0.3 - 0.7j, -1.1 + 0.0j, 0.25j, 1e-300 - 2.5e3j])
    vec = np.concatenate([2.0 * alphas.real, 2.0 * alphas.imag])
    shifts = [displacement(i, alpha) for i, alpha in enumerate(alphas)]
    squeezer = two_mode_squeezer(3, 1, 0.8)
    assert np.array_equal(compose(shifts, 4)[1], vec)
    assert np.array_equal(compose([*shifts, squeezer], 4)[1], element_to_symplectic(squeezer, 4)[0] @ vec)
    assert np.array_equal(apply_circuit(vacuum(4), [squeezer, *shifts]).mean, vec)


@pytest.mark.parametrize("elem", [
    two_mode_squeezer(0, 5, 1.0),
    beamsplitter(4, 1, 0.2),
    cz(0, 7, 1.0),
    single_mode_squeezer(9, 0.1),
])
def test_out_of_range_modes_rejected(elem):
    with pytest.raises(IndexOutOfRange):
        element_to_symplectic(elem, 4)


def test_equal_modes_rejected_at_construction():
    with pytest.raises(IndexOutOfRange):
        two_mode_squeezer(1, 1, 0.5)
    with pytest.raises(IndexOutOfRange):
        cz(2, 2)


def test_compose_empty_is_identity():
    S, shift = compose([], 3)
    assert_allclose(S, np.eye(6))
    assert_allclose(shift, np.zeros(6))


def test_compose_inverse_pair_cancels():
    elems = [two_mode_squeezer(0, 1, 0.8), two_mode_squeezer(0, 1, -0.8)]
    S, shift = compose(elems, 2)
    assert np.abs(S - np.eye(4)).max() < 1e-12
    assert np.abs(shift).max() < 1e-12


def test_compose_long_chain_is_symplectic():
    elems = [two_mode_squeezer(i, i + 1, 1.0) for i in range(9)]
    S, _ = compose(elems, 10)
    assert S.shape == (20, 20)
    assert symplectic_deviation(S) <= 1e-9


def test_compose_order_matters():
    # squeeze then displace shifts the displaced mean through the squeezer
    s_then_d = compose([two_mode_squeezer(0, 1, 1.0), displacement(0, 0.5)], 2)[1]
    d_then_s = compose([displacement(0, 0.5), two_mode_squeezer(0, 1, 1.0)], 2)[1]
    assert_allclose(s_then_d, [1.0, 0.0, 0.0, 0.0])
    assert_allclose(d_then_s[0], np.cosh(0.5))
    assert_allclose(d_then_s[1], -np.sinh(0.5))


def test_random_symplectic_deterministic_for_seed():
    a = random_symplectic(3, 42, squeeze_bound=1.0)
    b = random_symplectic(3, 42, squeeze_bound=1.0)
    assert_allclose(a, b, rtol=0, atol=0)


def test_random_symplectic_is_symplectic():
    S = random_symplectic(3, 42, squeeze_bound=1.0)
    assert _is_symplectic(S)
    assert abs(np.linalg.det(S) - 1.0) < 1e-9


def test_random_symplectic_zero_bound_is_orthogonal():
    S = random_symplectic(4, 7, squeeze_bound=0.0)
    assert_allclose(S.T @ S, np.eye(8), atol=1e-9)
    assert _is_symplectic(S)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_stacked_euler_assembly_equals_random_symplectic_bitwise(m):
    draws = [random_symplectic_parameters(m, np.random.default_rng(seed)) for seed in range(7)]
    stacked = euler_symplectic(*euler_factors(*(np.array(col) for col in zip(*draws)), 2.0))
    assert stacked.shape == (7, 2 * m, 2 * m)
    for seed, S in enumerate(stacked):
        assert np.array_equal(S, random_symplectic(m, seed, squeeze_bound=2.0))


def _ginibre(shape, m, seed):
    # complex Ginibre matrices as euler_factors forms them: (real + i imag) / sqrt 2
    parts = np.random.default_rng(seed).standard_normal((2, *shape, m, m))
    return (parts[0] + 1j * parts[1]) / np.sqrt(2.0)


def _adjoint(mat):
    return mat.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_haar_factor_is_the_phase_fixed_qr_factor(m):
    # 10**4 matrices in a (5000, 2, m, m) stack, the layout euler_factors passes
    z = _ginibre((5000, 2), m, 100 + m)
    u = _haar_unitary(z)
    assert np.abs(_adjoint(u) @ u - np.eye(m)).max() <= 1e-13
    # U^H Z = R: below the diagonal and in the diagonal's imaginary part only round-off of its column,
    # the diagonal itself real and positive
    r = _adjoint(u) @ z
    column = np.linalg.norm(z, axis=-2, keepdims=True)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    assert (np.abs(np.tril(r, -1)) <= 1e-13 * column).all()
    assert (np.abs(diag.imag) <= 1e-13 * column[..., 0, :]).all() and (diag.real > 0).all()
    assert np.abs(u - haar_unitary_qr(z)).max() <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_haar_factor_of_a_nearly_rank_deficient_input_stays_unitary(m):
    # column 1 parallel to column 0 up to 1e-8: a single Gram-Schmidt pass leaves U^H U up to 5e-5
    # from I on these inputs; the second pass brings it back to round-off
    z = _ginibre((10**4,), m, 200 + m)
    z[..., 1] = z[..., 0] + 1e-8 * _ginibre((10**4,), m, 300 + m)[..., 1]
    u = _haar_unitary(z)
    assert np.abs(_adjoint(u) @ u - np.eye(m)).max() <= 1e-13


def test_cz_and_displacement_preserve_x_marginals():
    rng = np.random.default_rng(5)
    S0 = random_symplectic(3, rng, squeeze_bound=1.0)
    V = S0 @ S0.T
    for elem in (cz(0, 2, 1.3), displacement(1, complex(*rng.normal(size=2)))):
        S, _ = element_to_symplectic(elem, 3)
        V2 = S @ V @ S.T
        assert_allclose(V2[:3, :3], V[:3, :3], atol=1e-12)


_element_st = st.one_of(
    st.tuples(st.sampled_from([(0, 1), (1, 2), (0, 2)]),
              st.floats(-1.5, 1.5)).map(lambda t: two_mode_squeezer(*t[0], t[1])),
    st.tuples(st.sampled_from([(0, 1), (1, 2), (0, 2)]),
              st.floats(-np.pi, np.pi)).map(lambda t: beamsplitter(*t[0], t[1])),
    st.tuples(st.sampled_from([(0, 1), (1, 2), (0, 2)]),
              st.floats(-2.0, 2.0)).map(lambda t: cz(*t[0], t[1])),
    st.tuples(st.integers(0, 2), st.floats(-1.0, 1.0)).map(
        lambda t: single_mode_squeezer(t[0], t[1])),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_element_st, max_size=12))
def test_composition_of_any_elements_is_symplectic(elems):
    S, _ = compose(elems, 3)
    assert symplectic_deviation(S) <= 1e-9

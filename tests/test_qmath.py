"""Vectorization conventions, partial operations, and guard rails."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entweave.qmath import (
    IDENTITY_2,
    LOWERING,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TOL,
    DimensionMismatch,
    Spectral,
    choi_matrices,
    dagger,
    is_hermitian,
    is_unitary,
    maximally_entangled,
    opnorm,
    partial_trace,
    partial_transpose,
    projector,
    sandwich_superop,
    superop_of_choi,
)

from conftest import SINGLET, haar_unitary, random_density, refusal, unvec, vec


complex_entries = st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                     allow_infinity=False)


def matrices(rows, cols):
    return st.lists(st.lists(complex_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(np.array)


def square(n):
    return matrices(n, n)


def test_pauli_algebra():
    assert np.allclose(SIGMA_X @ SIGMA_X, IDENTITY_2)
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    assert np.allclose(LOWERING, np.array([[0, 1], [0, 0]]))
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert is_hermitian(s) and is_unitary(s)
        assert np.isclose(np.trace(s), 0.0)


def test_vec_is_column_stacking():
    m = np.array([[1, 2], [3, 4]])
    assert np.array_equal(vec(m), np.array([1, 3, 2, 4]))
    assert np.array_equal(unvec(vec(m)), m)


@settings(max_examples=60, deadline=None)
@given(square(2), square(2), square(2), matrices(3, 2), matrices(2, 3))
def test_sandwich_identity(a, rho, b, a_rect, b_rect):
    # vec(A rho B) = (B^T (x) A) vec(rho): the convention everything relies
    # on, for a square and a rectangular (3x2) pair; sandwich_superop(A, B^dag)
    # is that matrix, with numpy's kron as the independent reference.  unvec
    # is for 2x2 matrices, so the 3x3 image is unstacked by its own reshape
    for left, right in ((a, b), (a_rect, b_rect)):
        superop = np.kron(right.T, left)
        lhs = (superop @ vec(rho)).reshape((left.shape[0],) * 2, order="F")
        assert np.allclose(lhs, left @ rho @ right)
        np.testing.assert_allclose(sandwich_superop(left, dagger(right)), superop,
                                   rtol=0.0, atol=1e-14)
    # a stack (2, 3) of pairs gives the stack of their superoperators
    stack_a = np.array([[a, b, rho], [b, rho, a]])
    stack_b = np.array([[rho, a, b], [a, a, rho]])
    stacked = sandwich_superop(stack_a, stack_b)
    assert stacked.shape == (2, 3, 4, 4)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(stacked[idx],
                              np.kron(np.conj(stack_b[idx]), stack_a[idx]))


@settings(max_examples=40, deadline=None)
@given(square(2), square(2))
def test_sandwich_superop_applies_conjugation(a, rho):
    s = sandwich_superop(a, a)
    assert np.allclose(unvec(s @ vec(rho)), a @ rho @ dagger(a))


def test_unvec_rejects_bad_length():
    with pytest.raises(DimensionMismatch):
        unvec(np.arange(5))


def test_partial_trace_on_products(rng):
    a = random_density(2, rng)
    b = random_density(2, rng)
    ab = np.kron(a, b)
    assert np.allclose(partial_trace(ab, keep=0), a)
    assert np.allclose(partial_trace(ab, keep=1), b)
    with pytest.raises(DimensionMismatch, match=r"\(6, 6\)"):
        partial_trace(np.kron(a, random_density(3, rng)), keep=0)


def test_shape_refusals_keep_their_class_and_message():
    # a non-square matrix is not Hermitian, and no generator; a pair has
    # qubits 0 and 1; a superoperator sandwiches matrices, not vectors
    assert not is_hermitian(np.zeros((2, 3)))
    assert refusal(Spectral, np.zeros((2, 3))) == (
        DimensionMismatch, "generator must be square")
    assert refusal(partial_trace, np.eye(4) / 4.0, 2) == (
        DimensionMismatch, "keep index 2 is not a qubit of a pair")
    assert refusal(sandwich_superop, np.ones(2), np.ones(2)) == (
        DimensionMismatch, "expected matrices, got shapes (2,) and (2,)")


def test_partial_transpose_involution(rng):
    m = random_density(4, rng)
    pt = partial_transpose(m)
    assert np.allclose(partial_transpose(pt), m)
    # on a product it transposes the second factor only, in every matrix of
    # a stack
    a, b = haar_unitary(2, rng), haar_unitary(2, rng)
    assert np.array_equal(partial_transpose(np.kron(a, b)), np.kron(a, b.T))
    stack = np.array([m, np.kron(a, b)])
    assert np.array_equal(partial_transpose(stack)[1], np.kron(a, b.T))


def test_first_factor_by_choi_reshuffle_matches_kron(rng):
    # (S (x) id)(rho) is the Choi matrix of S composed with the map whose
    # Choi matrix rho is
    a = haar_unitary(2, rng)
    s = sandwich_superop(a, a)
    rho = random_density(4, rng)
    big = sandwich_superop(np.kron(a, IDENTITY_2), np.kron(a, IDENTITY_2))
    assert np.allclose(choi_matrices(s @ superop_of_choi(rho)),
                       (big @ vec(rho)).reshape((4, 4), order="F"))


def test_first_factor_by_choi_reshuffle_general_map(rng):
    # any linear qubit map, not completely positive; the reference sums
    # Phi(|a><b|) (x) rho_ab over the basis |a><b|
    s = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = random_density(4, rng)
    t = rho.reshape(2, 2, 2, 2)
    expect = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[a, b] = 1.0
            expect += np.kron(unvec(s @ vec(e)), t[a, :, b, :])
    got = choi_matrices(s @ superop_of_choi(rho))
    assert np.allclose(got, expect, rtol=0.0, atol=1e-13)


def test_choi_reshuffle_roundtrips_exactly(rng):
    # a batch of linear qubit maps; both directions are pure axis permutations
    s = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    choi = choi_matrices(s)
    assert choi.shape == (5, 4, 4)
    assert np.array_equal(superop_of_choi(choi), s)
    c = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    assert np.array_equal(choi_matrices(superop_of_choi(c)), c)
    # entry [(i, a), (j, b)] of the Choi matrix is the image of |a><b| at |i><j|
    e = np.zeros((2, 2))
    e[1, 0] = 1.0
    assert np.array_equal(choi[2, 1::2, 0::2], unvec(s[2] @ vec(e)))
    with pytest.raises(DimensionMismatch):
        superop_of_choi(rng.normal(size=(5, 6, 6)))


def test_expm_rotation_closed_form():
    t = 0.7
    assert np.allclose(Spectral(1j * t * SIGMA_X).exp([1.0])[0],
                       np.cos(t) * IDENTITY_2 + 1j * np.sin(t) * SIGMA_X)
    assert np.allclose(Spectral(np.zeros((3, 3))).exp([1.0])[0], np.eye(3))


def test_unitary_checks(rng):
    assert is_unitary(haar_unitary(5, rng))
    assert not is_unitary(2.0 * IDENTITY_2)
    # an entry above 1 in modulus, or one not finite, is refused before
    # U^dag U is formed, so nothing overflows or warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (1e200, 1.0 + 2 * TOL.structural, np.inf, -np.inf, np.nan, 1e200j):
            assert not is_unitary(np.array([[bad, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("batch", [(), (7,), (2, 3)])
def test_choi_reshuffles_are_the_einsum_permutations(batch):
    # the axis permutations (j, i, b, a) -> (i, a, j, b) and back, bit for bit
    rng = np.random.default_rng(len(batch))
    m = rng.normal(size=(*batch, 4, 4)) + 1j * rng.normal(size=(*batch, 4, 4))
    t = m.reshape(*batch, 2, 2, 2, 2)
    assert (choi_matrices(m)
            == np.einsum("...jiba->...iajb", t).reshape(*batch, 4, 4)).all()
    assert (superop_of_choi(m)
            == np.einsum("...iajb->...jiba", t).reshape(*batch, 4, 4)).all()


def test_opnorm_is_spectral():
    assert np.isclose(opnorm(SIGMA_X), 1.0)
    assert np.isclose(opnorm(np.diag([3.0, -4.0])), 4.0)


def test_entangled_vectors():
    omega = maximally_entangled()
    assert np.isclose(np.linalg.norm(omega), 1.0)
    assert np.allclose(omega, np.array([1, 0, 0, 1]) / np.sqrt(2))
    p = projector(SINGLET)
    assert np.allclose(p @ p, p)
    assert np.isclose(np.trace(p), 1.0)


def test_tolerance_defaults_are_stable():
    assert TOL.structural == 1e-10
    assert TOL.compare == 1e-9
    # no concurrence floor: breaking is read off the partial transpose
    # against a band (entanglement._ppt_verdicts)
    assert not hasattr(TOL, "eb")
    assert TOL.conflict_band == 1e-4

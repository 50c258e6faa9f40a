"""Basis generation, normalization, and structure constants."""

import itertools

import numpy as np
import pytest

from entmoment.basis import (
    HermitianBasis,
    basis_matrices,
    basis_to_dict,
    generate_basis,
    half_anticommutator,
    half_commutator,
    structure_constants,
)
from entmoment.errors import BasisConsistencyError, DimensionError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_n2_is_pauli_in_xyz_order():
    b = generate_basis(2)
    assert np.allclose(b.sigma[0], np.eye(2))
    assert np.allclose(b.sigma[1], PAULI_X)
    assert np.allclose(b.sigma[2], PAULI_Y)
    assert np.allclose(b.sigma[3], PAULI_Z)


def test_trace_normalization_case():
    b = generate_basis(2)
    assert abs(np.trace(b.sigma[1] @ b.sigma[1]) - 2.0) < 1e-15


@pytest.mark.parametrize("n", [2, 3, 4])
def test_traceless_and_hermitian(n):
    b = generate_basis(n)
    assert b.sigma.shape == (n * n, n, n)
    for j in range(1, n * n):
        assert abs(np.trace(b.sigma[j])) < 1e-15
        assert np.allclose(b.sigma[j], b.sigma[j].conj().T)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pairwise_orthonormalization(n):
    # Direct matrix arithmetic over every traceless pair.
    sigma = generate_basis(n).sigma
    count = n * n - 1
    for j in range(1, count + 1):
        for k in range(1, count + 1):
            tr = np.trace(sigma[j] @ sigma[k])
            expected = 2.0 if j == k else 0.0
            assert abs(tr - expected) < 1e-13


def test_identity_not_orthonormalized():
    for n in (2, 3, 4):
        sigma0 = generate_basis(n).sigma[0]
        assert abs(np.trace(sigma0 @ sigma0) - n) < 1e-15


def test_structure_constants_n2():
    b = generate_basis(2)
    eps = np.zeros((3, 3, 3))
    for p in itertools.permutations(range(3)):
        sign = 1.0
        perm = list(p)
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sign = -sign
        eps[p] = sign
    assert np.allclose(b.c, eps, atol=1e-14)
    assert np.max(np.abs(b.d)) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_c_vanishes_on_repeated_indices(n):
    c = generate_basis(n).c
    for j in range(n * n - 1):
        assert np.max(np.abs(c[j, j, :])) < 1e-14


def test_d118_value_n3():
    # Our ordering puts lambda_1 first and lambda_8 last, so the classic
    # d_{118} entry is d[0, 0, 7].
    d = generate_basis(3).d
    assert abs(d[0, 0, 7] - 1.0 / np.sqrt(3.0)) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4])
def test_product_reconstruction_identity(n):
    sigma = generate_basis(n).sigma
    for j in range(1, n * n):
        for k in range(1, n * n):
            lhs = sigma[j] @ sigma[k]
            rhs = half_anticommutator(sigma[j], sigma[k]) + 1j * half_commutator(
                sigma[j], sigma[k]
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_total_symmetry_of_structure_constants(n):
    b = generate_basis(n)
    for perm in itertools.permutations((0, 1, 2)):
        parity = 1.0
        p = list(perm)
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    parity = -parity
        assert np.allclose(b.c, parity * np.transpose(b.c, perm), atol=1e-13)
        assert np.allclose(b.d, np.transpose(b.d, perm), atol=1e-13)


def test_structure_constants_match_generation():
    b = generate_basis(3)
    c, d = structure_constants(b)
    assert np.allclose(c, b.c, atol=1e-14)
    assert np.allclose(d, b.d, atol=1e-14)


def test_invalid_dimension_rejected():
    for bad in (1, 0, -3):
        with pytest.raises(DimensionError):
            generate_basis(bad)
        with pytest.raises(DimensionError):
            basis_matrices(bad)


def test_sigma_only_callers_skip_the_structure_constants():
    # The cached basis matrices are generate_basis(n).sigma, read-only; decoding,
    # encoding, the Fano round trip and the representations read only them, so
    # they never call generate_basis (its cache counters stay put).
    from entmoment.states import bloch_decode, bloch_encode, random_density
    from entmoment.tensors import defining_representation, fano_compose, fano_decompose

    for n in (2, 3, 5):
        assert basis_matrices(n) is generate_basis(n).sigma
        assert not basis_matrices(n).flags.writeable
    before = generate_basis.cache_info()
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 16):
        rho = random_density(n, rng=rng)
        assert np.allclose(bloch_encode(n, bloch_decode(rho)), rho.matrix, atol=1e-13)
    rho = random_density(9, rng=rng)
    assert np.allclose(fano_compose(fano_decompose(rho)).matrix, rho.matrix, atol=1e-13)
    assert defining_representation(6).ops.shape == (35, 6, 6)
    after = generate_basis.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_residual_check_flags_corrupted_basis():
    good = generate_basis(2)
    sigma = np.array(good.sigma, dtype=complex)
    sigma[3] *= 1.1  # breaks the normalization the constants assume
    broken = HermitianBasis(n=2, sigma=sigma, c=good.c, d=good.d)
    with pytest.raises(BasisConsistencyError):
        structure_constants(broken)


def test_basis_to_dict_shape():
    doc = basis_to_dict(generate_basis(2))
    assert doc["n"] == 2
    assert len(doc["sigma"]) == 4
    assert doc["sigma"][1][0][1] == [1.0, 0.0]
    assert doc["sigma"][2][0][1] == [0.0, -1.0]
    assert np.asarray(doc["c"]).shape == (3, 3, 3)

"""Generator moment tensors: representations, splits, covariance, invariants."""

import numpy as np
import pytest

from entmoment.basis import generate_basis
from entmoment.errors import DomainError, ShapeError
from entmoment.states import (
    DensityOperator,
    bell_state,
    bloch_decode,
    convex_combine,
    maximally_mixed,
    partial_trace,
    purity,
    random_density,
    random_unitary,
    schmidt_mix,
    spin_flip,
    werner,
)
from entmoment.tensors import (
    defining_representation,
    fano_decompose,
    inner_product,
    moments,
    monotone_candidate,
    product_representation,
    quadratic_invariant,
    split_sym_antisym,
    tensor_coefficients,
)


def werner_l_matrix(x):
    l = np.eye(6)
    l[0, 3] = l[3, 0] = x
    l[1, 4] = l[4, 1] = -x
    l[2, 5] = l[5, 2] = x
    return l


# -- representations ----------------------------------------------------------

def test_product_representation_n2_layout():
    rep = product_representation(2)
    sigma = generate_basis(2).sigma
    assert rep.count == 6
    assert np.allclose(rep.ops[0], np.kron(sigma[1], np.eye(2)), atol=1e-14)
    assert np.allclose(rep.ops[3], np.kron(np.eye(2), sigma[1]), atol=1e-14)


def test_product_representation_sides_commute():
    rep = product_representation(2)
    comm = rep.ops[0] @ rep.ops[3] - rep.ops[3] @ rep.ops[0]
    assert np.max(np.abs(comm)) < 1e-15


def test_product_representation_n3():
    rep = product_representation(3)
    sigma = generate_basis(3).sigma
    assert rep.count == 16
    for g in range(16):
        op = rep.ops[g]
        assert abs(np.trace(op)) < 1e-13
        assert np.allclose(op, op.conj().T)
        # Generators 0-7 act on A, 8-15 on B, each over sigma[1:] in order.
        side, idx = divmod(g, 8)
        expected = (
            np.kron(sigma[idx + 1], np.eye(3)) if side == 0 else np.kron(np.eye(3), sigma[idx + 1])
        )
        assert np.allclose(op, expected, atol=1e-14)


def test_defining_representation():
    rep = defining_representation(3)
    assert rep.count == 8
    assert np.allclose(rep.ops[0], generate_basis(3).sigma[1])


# -- coefficients ---------------------------------------------------------------

def test_first_order_vanishes_on_maximally_mixed():
    rep = product_representation(2)
    t = tensor_coefficients(maximally_mixed(4), rep, order=1)
    assert np.max(np.abs(t.values)) < 1e-15


@pytest.mark.parametrize("x", [0.2, 0.7])
def test_werner_symmetric_matrix(x):
    rep = product_representation(2)
    l, omega = split_sym_antisym(tensor_coefficients(werner(x), rep, order=2))
    assert np.allclose(l, werner_l_matrix(x), atol=1e-13)
    assert np.max(np.abs(omega)) < 1e-13


def test_split_reconstruction():
    rng = np.random.default_rng(21)
    rep = product_representation(2)
    rho = random_density(4, rng=rng)
    t = tensor_coefficients(rho, rep, order=2)
    assert np.max(np.abs(t.values.conj() - t.values.T)) < 1e-13
    l, omega = split_sym_antisym(t)
    assert np.allclose(l, l.T) and np.allclose(omega, -omega.T)
    assert np.max(np.abs(t.values - (l + 1j * omega))) < 1e-12


def test_split_requires_order_two():
    rep = product_representation(2)
    t = tensor_coefficients(maximally_mixed(4), rep, order=1)
    with pytest.raises(ShapeError):
        split_sym_antisym(t)


def test_l_diagonal_is_one_for_qubits():
    rng = np.random.default_rng(22)
    rep = product_representation(2)
    rho = random_density(4, rng=rng)
    l, _ = split_sym_antisym(tensor_coefficients(rho, rep, order=2))
    assert np.allclose(np.diagonal(l), 1.0, atol=1e-13)


def test_omega_blocks_from_reduced_bloch_vectors():
    # Halved-commutator traces contract the structure constants with the
    # local Bloch vectors: A block eps_jkl n_l, B block eps_jkl m_l.
    rng = np.random.default_rng(23)
    rep = product_representation(2)
    c = generate_basis(2).c
    for _ in range(10):
        rho = random_density(4, rng=rng)
        f = fano_decompose(rho)
        _, omega = split_sym_antisym(tensor_coefficients(rho, rep, order=2))
        assert np.allclose(omega[:3, :3], np.einsum("jkl,l->jk", c, f.nvec), atol=1e-12)
        assert np.allclose(omega[3:, 3:], np.einsum("jkl,l->jk", c, f.mvec), atol=1e-12)
        assert np.max(np.abs(omega[:3, 3:])) < 1e-13


def test_omega_defining_representation_identity():
    # Omega_jk = (2/n) c_jkl m_l for the single-system generators.
    rng = np.random.default_rng(24)
    for n in (2, 3, 4):
        rep = defining_representation(n)
        c = generate_basis(n).c
        rho = random_density(n, rng=rng)
        m = bloch_decode(rho).m
        _, omega = split_sym_antisym(tensor_coefficients(rho, rep, order=2))
        assert np.allclose(omega, (2.0 / n) * np.einsum("jkl,l->jk", c, m), atol=1e-12)


def test_order_bounds():
    rep = product_representation(2)
    rho = maximally_mixed(4)
    with pytest.raises(DomainError):
        tensor_coefficients(rho, rep, order=0)
    with pytest.raises(DomainError):
        tensor_coefficients(rho, rep, order=5)
    with pytest.raises(DomainError):
        tensor_coefficients(rho, rep, order=True)


def test_dimension_mismatch():
    rep = product_representation(3)
    with pytest.raises(ShapeError, match=r"\(4, 4\) does not match representation dimension 9"):
        tensor_coefficients(maximally_mixed(4), rep, order=2)
    # A stack with two leading axes is not a dimension mismatch.
    with pytest.raises(ShapeError, match=r"stack of matrices, got shape \(2, 2, 4, 4\)"):
        tensor_coefficients(np.zeros((2, 2, 4, 4)), product_representation(2))


@pytest.mark.parametrize("kind", ["product", "defining"])
@pytest.mark.parametrize("n", [2, 3])
def test_order2_matches_brute_force(n, kind):
    rep = product_representation(n) if kind == "product" else defining_representation(n)
    rho = random_density(rep.ops.shape[1], rng=np.random.default_rng(32 + n))
    got = tensor_coefficients(rho, rep, order=2).values
    ref = np.empty((rep.count, rep.count), dtype=complex)
    for j in range(rep.count):
        for k in range(rep.count):
            ref[j, k] = np.trace(rho.matrix @ rep.ops[j] @ rep.ops[k])
    assert np.max(np.abs(got - ref)) < 1e-13


def test_higher_order_consistency():
    # Order-3 coefficients contracted against first moments must agree
    # with a direct trace computation.
    rng = np.random.default_rng(25)
    rep = product_representation(2)
    rho = random_density(4, rng=rng)
    t3 = tensor_coefficients(rho, rep, order=3)
    assert t3.values.shape == (6, 6, 6)
    j, k, l = 1, 4, 2
    direct = np.trace(rho.matrix @ rep.ops[j] @ rep.ops[k] @ rep.ops[l])
    assert t3.values[j, k, l] == pytest.approx(direct, abs=1e-13)
    t4 = tensor_coefficients(rho, rep, order=4)
    direct4 = np.trace(rho.matrix @ rep.ops[0] @ rep.ops[5] @ rep.ops[2] @ rep.ops[2])
    assert t4.values[0, 5, 2, 2] == pytest.approx(direct4, abs=1e-13)


# -- covariance ---------------------------------------------------------------

def test_covariance_equals_linear_on_maximally_mixed():
    rep = product_representation(2)
    rho = maximally_mixed(4)
    t = tensor_coefficients(rho, rep, order=2)
    k = moments(rho).covariance()
    assert np.allclose(k.values, t.values, atol=1e-15)


def test_covariance_bell_cross_block():
    k = moments(bell_state()).covariance()
    cross = k.values[:3, 3:].real
    assert np.allclose(cross, np.diag([1.0, -1.0, 1.0]), atol=1e-13)


def test_covariance_pure_product_norm():
    p00 = np.zeros((4, 4), dtype=complex)
    p00[0, 0] = 1.0
    k = moments(DensityOperator(p00)).covariance()
    assert inner_product(k) == pytest.approx(8.0, abs=1e-12)


def test_covariance_antisymmetric_part_unchanged():
    rng = np.random.default_rng(26)
    rep = product_representation(2)
    for _ in range(10):
        rho = random_density(4, rng=rng)
        _, omega_linear = split_sym_antisym(tensor_coefficients(rho, rep, order=2))
        k = moments(rho).covariance()
        omega_cov = (k.values.imag - k.values.imag.T) / 2
        assert np.allclose(omega_cov, omega_linear, atol=1e-13)


def test_first_moments_match_fano():
    rng = np.random.default_rng(27)
    rho = random_density(4, rng=rng)
    mom = moments(rho).first
    f = fano_decompose(rho)
    assert np.allclose(mom[:3], f.nvec, atol=1e-13)
    assert np.allclose(mom[3:], f.mvec, atol=1e-13)


# -- invariants ---------------------------------------------------------------

def test_inner_product_zero_tensor():
    rep = product_representation(2)
    t = tensor_coefficients(maximally_mixed(4), rep, order=1)
    assert inner_product(t) == 0.0


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
def test_quadratic_invariant_werner(x):
    assert quadratic_invariant(werner(x), "linear") == pytest.approx(
        6 * (x * x + 1), abs=1e-12
    )


def test_quadratic_invariant_covariance_spots():
    assert quadratic_invariant(bell_state(), "covariance") == pytest.approx(12.0, abs=1e-12)
    assert quadratic_invariant(schmidt_mix(1.0, 0.0), "covariance") == pytest.approx(
        8.0, abs=1e-12
    )


def test_monotone_candidate_polynomials():
    rho = werner(0.5)
    assert monotone_candidate(rho, "linear", 2, (3.5,)) == 3.5
    assert monotone_candidate(rho, "linear", 2, (0.0, 1.0)) == pytest.approx(7.5, abs=1e-12)
    ip = quadratic_invariant(rho, "covariance")
    assert monotone_candidate(rho, "covariance", 2, (1.0, 0.0, 2.0)) == pytest.approx(
        1.0 + 2.0 * ip * ip, abs=1e-9
    )
    with pytest.raises(DomainError):
        monotone_candidate(rho, "covariance", 3, (0.0, 1.0))
    with pytest.raises(DomainError):
        monotone_candidate(rho, "nonlinear", 2, (0.0, 1.0))


def test_local_unitary_invariance_subset():
    rng = np.random.default_rng(28)
    worst = 0.0
    for _ in range(20):
        rho = random_density(4, rng=rng)
        u = np.kron(random_unitary(2, rng=rng), random_unitary(2, rng=rng))
        rotated = DensityOperator(u @ rho.matrix @ u.conj().T)
        for mode in ("linear", "covariance"):
            worst = max(
                worst,
                abs(quadratic_invariant(rho, mode) - quadratic_invariant(rotated, mode)),
            )
    assert worst < 1e-9


def test_purity_and_overlap_identities():
    rng = np.random.default_rng(29)
    rep = product_representation(2)
    for _ in range(50):
        rho = random_density(4, rng=rng)
        l, omega = split_sym_antisym(tensor_coefficients(rho, rep, order=2))
        sl = float(np.sum(l * l))
        so = float(np.sum(omega * omega))
        overlap = float(np.trace(rho.matrix @ spin_flip(rho).matrix).real)
        assert (sl + so) / 8 - 0.5 == pytest.approx(purity(rho), abs=1e-12)
        assert (sl - so) / 8 - 0.5 == pytest.approx(overlap, abs=1e-12)


def test_omega_is_convex():
    rng = np.random.default_rng(30)
    rep = product_representation(2)
    parts = [random_density(4, rng=rng) for _ in range(3)]
    weights = (0.5, 0.3, 0.2)
    mixed = convex_combine(list(zip(weights, parts)))
    _, omega_mix = split_sym_antisym(tensor_coefficients(mixed, rep, order=2))
    acc = np.zeros_like(omega_mix)
    for w, part in zip(weights, parts):
        _, om = split_sym_antisym(tensor_coefficients(part, rep, order=2))
        acc += w * om
    assert np.allclose(omega_mix, acc, atol=1e-13)


def test_omega_vanishes_iff_reductions_maximally_mixed():
    rep = product_representation(2)
    for x in (0.0, 0.5, 1.0):
        _, omega = split_sym_antisym(tensor_coefficients(werner(x), rep, order=2))
        assert np.max(np.abs(omega)) < 1e-13
    rng = np.random.default_rng(31)
    rho = random_density(4, rng=rng)
    red = partial_trace(rho, "A")
    assert np.linalg.norm(bloch_decode(red).m) > 1e-3
    _, omega = split_sym_antisym(tensor_coefficients(rho, rep, order=2))
    assert np.max(np.abs(omega)) > 1e-3


def test_stacked_moments_match_single_states():
    rng = np.random.default_rng(12)
    groups = [
        (3, [random_density(9, rng=rng) for _ in range(3)]),
        (2, [werner(0.4), schmidt_mix(0.3, 0.7)]),
        # B = m = 6: a split that transposes the whole stack would mix states silently.
        (2, [random_density(4, rng=rng) for _ in range(6)]),
    ]
    for n, states in groups:
        rep = product_representation(n)
        matrices = np.stack([r.matrix for r in states])
        stack = moments(matrices)
        l_stack, omega_stack = split_sym_antisym(tensor_coefficients(matrices, rep))
        for i, rho in enumerate(states):
            single = moments(rho)
            assert np.array_equal(stack.first[i], single.first)
            assert np.array_equal(stack.second.values[i], single.second.values)
            assert np.array_equal(stack.covariance().values[i], single.covariance().values)
            assert np.array_equal(stack.correlation_block()[i], single.correlation_block())
            l_single, omega_single = split_sym_antisym(single.second)
            assert np.array_equal(l_stack[i], l_single)
            assert np.array_equal(omega_stack[i], omega_single)


def test_inner_product_and_monotone_candidate_take_stacks():
    # A stack of 2 gives per-state values bitwise equal to the single-state calls.
    states = [werner(0.3), random_density(4, rng=np.random.default_rng(8))]
    stack = np.stack([r.matrix for r in states])
    rep = product_representation(2)
    for order in (1, 2, 3):
        values = inner_product(tensor_coefficients(stack, rep, order=order))
        assert values.shape == (2,)
        for rho, value in zip(states, values):
            assert value == inner_product(tensor_coefficients(rho, rep, order=order))
    for mode, order, coefficients in [
        ("linear", 2, (0.0, 1.0)),
        ("linear", 3, (0.5, -1.0, 0.25)),
        ("covariance", 2, (1.0, 0.0, 2.0)),
        ("linear", 2, ()),
    ]:
        values = monotone_candidate(stack, mode, order, coefficients)
        assert values.shape == (2,)
        for rho, value in zip(states, values):
            assert value == monotone_candidate(rho, mode, order, coefficients)


def test_quadratic_invariant_stack_shares_the_report_path():
    # f2 of a stack, of one state and inner_product of one state's moments agree bitwise.
    states = [werner(0.3), schmidt_mix(0.6, 0.4), random_density(4, rng=np.random.default_rng(3))]
    stack = np.stack([r.matrix for r in states])
    for mode in ("linear", "covariance"):
        values = quadratic_invariant(stack, mode)
        for rho, value in zip(states, values):
            mom = moments(rho)
            t = mom.second if mode == "linear" else mom.covariance()
            assert value == quadratic_invariant(rho, mode) == inner_product(t)


@pytest.mark.parametrize("order", [2.5, 2.0, "2", None])
def test_order_must_be_an_integer(order):
    rep = product_representation(2)
    with pytest.raises(DomainError, match="must be an integer from 1 to 4"):
        tensor_coefficients(maximally_mixed(4), rep, order=order)

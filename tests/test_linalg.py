"""Jacobi eigensolver against the LAPACK oracle and its contract checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmoment import linalg
from entmoment.errors import ConvergenceError, DimensionError, NonFiniteError, SymmetryError
from entmoment.linalg import (
    hermitian_eigensystem,
    hermitian_eigenvalues,
    singular_values,
)
from entmoment.states import schmidt_mix, werner


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def test_identity_spectrum():
    w, v = hermitian_eigensystem(np.eye(4, dtype=complex))
    assert np.allclose(w, np.ones(4))
    assert np.allclose(v @ v.conj().T, np.eye(4))


def test_pauli_z_spectrum():
    w, _ = hermitian_eigensystem(np.diag([1.0, -1.0]).astype(complex))
    assert np.allclose(w, [-1.0, 1.0])


@pytest.mark.parametrize("x", [0.0, 0.3, 1.0 / 3.0, 0.85, 1.0])
def test_werner_spectrum_closed_form(x):
    # Bell-basis diagonalization gives (1-x)/4 three times and (1+3x)/4.
    w, _ = hermitian_eigensystem(werner(x).matrix)
    expected = np.sort([(1 - x) / 4] * 3 + [(1 + 3 * x) / 4])
    assert np.allclose(w, expected, atol=1e-12)


def assert_matches_lapack(m, w, v):
    dim = m.shape[-1]
    assert np.all(np.diff(w) >= -1e-14)
    assert np.max(np.abs(w - np.linalg.eigvalsh(m))) < 1e-11
    assert np.max(np.abs(m - (v * w) @ v.conj().T)) < 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4, 6, 9, 12, 16])
def test_against_lapack_oracle(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(10):
        m = random_hermitian(dim, rng)
        w, v = hermitian_eigensystem(m)
        assert_matches_lapack(m, w, v)


@pytest.mark.parametrize("dim", list(range(2, 17)) + [64])
def test_stack_against_lapack_oracle(dim):
    rng = np.random.default_rng(200 + dim)
    stack = np.stack([random_hermitian(dim, rng) for _ in range(1 if dim == 64 else 6)])
    w, v = hermitian_eigensystem(stack)
    assert w.shape == stack.shape[:-1] and v.shape == stack.shape
    for m, wk, vk in zip(stack, w, v):
        assert_matches_lapack(m, wk, vk)


def test_leading_axes_and_companions_accept_stacks():
    rng = np.random.default_rng(9)
    stack = np.stack([random_hermitian(3, rng) for _ in range(6)]).reshape(2, 3, 3, 3)
    w, v = hermitian_eigensystem(stack)
    assert w.shape == (2, 3, 3) and v.shape == (2, 3, 3, 3)
    assert np.array_equal(hermitian_eigenvalues(stack), w)
    x = rng.standard_normal((5, 3, 2))
    assert np.allclose(singular_values(x), np.linalg.svd(x, compute_uv=False), atol=1e-11)


def _mixed_stack(dim, rng):
    """Diagonal (already converged), family and random matrices of one dimension."""
    members = [np.diag(rng.standard_normal(dim)).astype(complex), np.eye(dim, dtype=complex)]
    if dim == 4:
        members += [werner(0.3).matrix, schmidt_mix(0.7, 0.4).matrix, schmidt_mix(1.0, 0.0).matrix]
    members += [random_hermitian(dim, rng) for _ in range(5)]
    return np.stack(members)


@pytest.mark.parametrize("dim", [4, 8])
def test_results_do_not_depend_on_batching(dim):
    stack = _mixed_stack(dim, np.random.default_rng(300 + dim))
    w, v = hermitian_eigensystem(stack)
    w_sub, v_sub = hermitian_eigensystem(stack[2:7])
    assert np.array_equal(w_sub, w[2:7]) and np.array_equal(v_sub, v[2:7])
    for k, m in enumerate(stack):
        w_one, v_one = hermitian_eigensystem(m)
        assert np.array_equal(w_one, w[k]) and np.array_equal(v_one, v[k])
        assert np.array_equal(hermitian_eigenvalues(m), w[k])
    sv = singular_values(stack)
    assert np.array_equal(singular_values(stack[2:7]), sv[2:7])
    for k, m in enumerate(stack):
        assert np.array_equal(singular_values(m), sv[k])


def test_degenerate_and_trivial_inputs():
    for m in (
        np.zeros((4, 4), dtype=complex),
        np.diag([2.0, 2.0, 1.0, 1.0]).astype(complex),
        np.full((3, 3), 1.0, dtype=complex) / 3.0,
    ):
        w, v = hermitian_eigensystem(m)
        assert np.max(np.abs(m - (v * w) @ v.conj().T)) < 1e-12


def test_eigenvalues_only_agrees():
    rng = np.random.default_rng(5)
    m = random_hermitian(6, rng)
    w, _ = hermitian_eigensystem(m)
    assert np.allclose(hermitian_eigenvalues(m), w, atol=1e-13)


def test_non_hermitian_rejected():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(SymmetryError):
        hermitian_eigensystem(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.inf])
def test_non_finite_input_is_rejected_before_the_kernel(bad, monkeypatch):
    # NaN fails every "deviation > tol" test, so unchecked it would reach the kernel,
    # run the whole sweep budget and end in ConvergenceError.
    monkeypatch.setattr(linalg, "_jacobi", lambda *a, **k: pytest.fail("kernel ran"))
    one = np.eye(4, dtype=complex)
    one[1, 2] = bad
    stack = np.stack([np.eye(4, dtype=complex)] * 3)
    stack[1, 3, 3] = bad
    for m in (one, stack):
        for solve in (hermitian_eigensystem, hermitian_eigenvalues, singular_values):
            with pytest.raises(NonFiniteError):
                solve(m)


def test_oversized_rejected():
    with pytest.raises(DimensionError):
        hermitian_eigensystem(np.eye(65, dtype=complex))


@pytest.mark.parametrize("m", range(2, 65, 2))
def test_round_robin_sweep_rotates_each_pair_once(m):
    # The kernel applies the one cached step m - 1 times per sweep: that must pair
    # every two indices exactly once and end on the first layout.
    position, (rows, first), (step_rows, step) = linalg._round_robin(m, m + 3)
    assert np.array_equal(first[position], np.arange(m))
    assert np.array_equal(rows[:, 0], np.concatenate([first, np.arange(m, m + 3)]))
    assert np.array_equal(step_rows[m:, 0], np.arange(m, m + 3))
    layout, seen = first, set()
    for _ in range(m - 1):
        seen.update(frozenset(pair) for pair in zip(layout[: m // 2], layout[m // 2 :]))
        layout = layout[step]
    assert len(seen) == m * (m - 1) // 2
    assert np.array_equal(layout, first)


def test_sweep_budget_enforced(monkeypatch):
    rng = np.random.default_rng(6)
    m = random_hermitian(8, rng)
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError):
        hermitian_eigensystem(m)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_pivoted_cholesky_factors_psd_stacks(rank):
    rng = np.random.default_rng(7 + rank)
    g = rng.standard_normal((6, 4, rank)) + 1j * rng.standard_normal((6, 4, rank))
    a = g @ np.swapaxes(g, -1, -2).conj()
    w = linalg._pivoted_cholesky(a)
    assert w.shape == a.shape
    assert np.max(np.abs(w @ np.swapaxes(w, -1, -2).conj() - a)) < 1e-13 * np.abs(a).max()
    # One column per unit of rank: the rest fall below the pivot floor and are exactly zero.
    assert not np.any(w[..., rank:])
    # Each step pivots on the largest remaining diagonal entry, so column k peaks at
    # sqrt(pivot k) and the peaks never grow.
    peaks = np.abs(w).max(axis=-2)
    assert np.all(peaks[:, :rank] > 0.0)
    assert np.all(np.diff(peaks, axis=-1) <= 1e-14 * peaks[:, :1])
    for k in range(len(a)):
        assert np.array_equal(linalg._pivoted_cholesky(a[k : k + 1])[0], w[k])


def test_pivoted_cholesky_of_projectors_and_zero():
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    # Tied pivots: the first of two equal diagonal entries is taken, and the
    # complement it leaves (0.5 - 0.5) ends the factor after one column.
    w = linalg._pivoted_cholesky(bell[None])[0]
    assert np.max(np.abs(w @ w.conj().T - bell)) < 1e-15
    assert not np.any(w[:, 1:])
    p00 = np.zeros((4, 4), dtype=complex)
    p00[0, 0] = 1.0
    assert np.array_equal(linalg._pivoted_cholesky(p00[None])[0], p00)
    assert not np.any(linalg._pivoted_cholesky(np.zeros((2, 4, 4))))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pivoted_cholesky_rejects_bad_input(bad):
    m = np.stack([np.eye(4, dtype=complex)] * 2)
    m[1, 2, 2] = bad
    with pytest.raises(NonFiniteError):
        linalg._pivoted_cholesky(m)
    with pytest.raises(SymmetryError):
        linalg._pivoted_cholesky(np.triu(np.ones((4, 4)))[None])


def test_singular_values_against_svd_oracle():
    rng = np.random.default_rng(8)

    def cgauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    cases = [cgauss(4, 4), cgauss(3, 5), cgauss(6, 2), cgauss(63, 63)]
    # rank 1: the zero singular values must come out at rounding level, not sqrt(eps)
    cases += [np.outer(cgauss(5), cgauss(4)), np.outer(*rng.standard_normal((2, 8)))]
    # tall and wide stacks
    cases += [cgauss(3, 6, 2), cgauss(3, 2, 5)]
    for m in cases:
        sv = singular_values(m)
        assert sv.shape == m.shape[:-2] + (min(m.shape[-2:]),)
        assert np.max(np.abs(sv - np.linalg.svd(m, compute_uv=False))) < 1e-12 * max(
            1.0, np.abs(m).max()
        )
        # a power-of-two scaling of X scales the result exactly: accuracy is relative to X
        for power in (-40, 40):
            assert np.array_equal(singular_values(m * 2.0**power), sv * 2.0**power)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_eigensystem_property(dim, seed):
    rng = np.random.default_rng(seed)
    m = random_hermitian(dim, rng)
    w, v = hermitian_eigensystem(m)
    assert np.all(np.diff(w) >= -1e-14)
    assert np.max(np.abs(m - (v * w) @ v.conj().T)) < 1e-10


def test_rotation_round_refuses_a_layout_that_needs_a_copy():
    # A round writes the closed-form diagonal and the zeroed (p, q) entries through
    # strided views of its working array; a layout those views cannot alias must raise
    # instead of losing the writes.
    work = np.zeros((3, 4, 4), dtype=complex).transpose(0, 2, 1)
    with pytest.raises(ValueError):
        linalg._rotate_pairs(work, np.zeros((3, 1)))

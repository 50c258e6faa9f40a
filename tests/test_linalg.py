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


@pytest.mark.parametrize("m", [4, 8, 16, 64])
def test_off_diagonal_norm_of_a_matrix_does_not_depend_on_its_stack(m):
    # The stop test of _jacobi: each norm in a stack of five, in the kernel's working
    # layout (m, m, B), must equal the norm of that matrix alone, to the last bit.
    norms = linalg._off_diagonal_norms
    rng = np.random.default_rng(m)
    for _ in range(50):
        stack = rng.standard_normal((5, m, m)) + 1j * rng.standard_normal((5, m, m))
        work = np.ascontiguousarray(stack.transpose(1, 2, 0))
        in_stack = norms(work.transpose(2, 0, 1))
        for k, a in enumerate(stack):
            alone = np.ascontiguousarray(a[:, :, None]).transpose(2, 0, 1)
            assert norms(alone).tobytes() == in_stack[k : k + 1].tobytes()


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
    position, flat_step = linalg._round_robin(m, m + 3)
    first = np.argsort(position)
    # The flat step permutes the rows and the columns of A alike; carried rows stay put.
    step_rows, step = np.divmod(flat_step.reshape(m + 3, m), m)
    assert np.array_equal(step_rows[:m], np.broadcast_to(step[0][:, None], (m, m)))
    assert np.array_equal(step_rows[m:, 0], np.arange(m, m + 3))
    assert (step == step[0]).all()
    step = step[0]
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
    work = np.zeros((4, 4, 3), dtype=complex).transpose(1, 0, 2)
    with pytest.raises(ValueError):
        linalg._rotation_rounds(work, np.zeros(3), np.arange(4))


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_real_input_is_solved_in_real_arithmetic_bit_for_bit(monkeypatch):
    # Real input runs a float64 working array; the same matrices as complex input give
    # the same eigenvalues, singular values (so Ky Fan norms) and carried rows bit for bit.
    # A carried zero may differ in sign only: the real part of a complex product,
    # ac - bd, adds the sign of a zero bd, and nothing downstream reads that sign.
    from entmoment.entanglement import kyfan_norm
    from entmoment.states import random_density
    from entmoment.tensors import moments

    dtypes = []
    rounds = linalg._rotation_rounds

    def recording(work, *args):
        dtypes.append(work.dtype)
        return rounds(work, *args)

    monkeypatch.setattr(linalg, "_rotation_rounds", recording)
    rng = np.random.default_rng(41)
    fano = [moments(random_density(n * n, rng=rng).matrix).fano().C for n in (3, 4, 6, 8)]
    symmetric = []
    for dim in list(range(1, 18)) + [64]:
        g = rng.standard_normal((4, dim, dim))
        g[1] = np.diag(np.round(g[1].diagonal()))  # already diagonal, with ties
        g[2, :, dim // 2 :] = 0.0  # a zero block
        symmetric.append(g + np.swapaxes(g, -1, -2))
    for c in fano + [rng.standard_normal((3, 5, 2)), rng.standard_normal((2, 3, 7))]:
        dtypes.clear()
        sv = singular_values(c)
        assert dtypes and all(d == np.float64 for d in dtypes)
        assert _bitwise(sv, singular_values(c.astype(complex)))
        assert _bitwise(kyfan_norm(c), kyfan_norm(c.astype(complex)))
    for a in symmetric + [c.T @ c for c in fano]:
        dtypes.clear()
        w = hermitian_eigenvalues(a)
        assert all(d == np.float64 for d in dtypes)  # 1x1 matrices need no round
        assert _bitwise(w, hermitian_eigenvalues(a.astype(complex)))
    # Carried rows, and a padded stack that tells the kernel each matrix's own size.
    blocks = rng.standard_normal((5, 3, 3))
    padded, carry = np.zeros((2, 5, 4, 4))
    padded[:, :3, :3] = np.swapaxes(blocks, 1, 2) @ blocks
    carry[:, :3, :3] = blocks
    cases = [(c.T @ c, c, None) for c in fano] + [(padded, carry, 3)]
    cases += [(a, rng.standard_normal(a.shape[:-2] + (3, a.shape[-1])), None) for a in symmetric]
    for a, x, size in cases:
        w, xv = linalg._jacobi(a, x, size)
        wz, xz = linalg._jacobi(a.astype(complex), x.astype(complex), size)
        assert xv.dtype == np.float64 and _bitwise(w, wz)
        assert np.array_equal(xv, xz.real) and not xz.imag.any()
        assert _bitwise(np.abs(xv), np.abs(xz))


def test_ky_fan_solves_of_real_blocks_run_in_float64(monkeypatch):
    # kyfan_norm takes its array as given, so every real correlation block reaches the
    # kernel as float64 through each caller of the Ky Fan norm; a complex block stays
    # complex.  The states are built (and validated, in complex arithmetic) beforehand.
    from entmoment.entanglement import _Evaluation, classify, kyfan_norm, octahedron_check
    from entmoment.states import random_density, werner
    from entmoment.sweep import QUANTITIES

    rng = np.random.default_rng(43)
    qudits = [random_density(n * n, rng=rng).matrix for n in (3, 4)]
    werners = werner(np.linspace(0.0, 1.0, 5))
    block = rng.standard_normal((3, 8, 8))
    dtypes = []
    solve = linalg._jacobi

    def recording(a, carry=None, size=None):
        dtypes.append(a.dtype if carry is None else np.result_type(a, carry))
        return solve(a, carry, size)

    monkeypatch.setattr(linalg, "_jacobi", recording)
    calls = {
        "kyfan_norm": (lambda: kyfan_norm(block), np.float64),
        "kyfan_norm of one matrix": (lambda: kyfan_norm(block[0]), np.float64),
        "kyfan_norm complex": (lambda: kyfan_norm(block.astype(complex)), np.complex128),
        "classify n=3": (lambda: classify(qudits[0]), np.float64),
        "classify n=4": (lambda: classify(qudits[1]), np.float64),
        "kyfan_c": (lambda: QUANTITIES["kyfan_c"](_Evaluation(werners, ("kyfan_c",))), np.float64),
        "octahedron_check": (lambda: octahedron_check([[0.2, -0.3, 0.1], [0.5, 0.5, -0.5]]),
                             np.float64),
    }
    for name, (call, dtype) in calls.items():
        dtypes.clear()
        call()
        assert dtypes == [dtype], name


def _reference_round(work, skip, step):
    """One round written pair by pair from the formulas of ``linalg._rotation_rounds``,
    each product and sum with the operands in the documented order."""
    rows, m, count = work.shape
    k = m // 2
    a = work.copy()
    coefficients = []
    for p in range(k):
        q = p + k
        apq = work[p, q]
        mag = np.abs(apq)
        keep = (mag < skip).astype(float)
        safe = mag + keep
        tau = (work[q, q].real - work[p, p].real) / (safe + safe)
        t = np.copysign((1.0 - keep) / (np.abs(tau) + np.hypot(1.0, tau)), tau)
        c = 1.0 / np.hypot(1.0, t)
        s = ((t * c) / safe) * apq
        coefficients.append((p, q, c, s, np.conj(s), keep, work[p, p].real - t * mag,
                             work[q, q].real + t * mag))
    for p, q, c, s, sbar, *_ in coefficients:
        x, y = a[:, p].copy(), a[:, q].copy()
        a[:, p], a[:, q] = x * c - y * sbar, x * s + y * c
    for p, q, c, s, sbar, *_ in coefficients:
        x, y = a[p].copy(), a[q].copy()
        a[p], a[q] = c * x - s * y, sbar * x + c * y
    for p, q, *_, keep, app, aqq in coefficients:
        a[p, p], a[q, q] = app, aqq
        a[p, q], a[q, p] = a[p, q] * keep, a[q, p] * keep
    return a.reshape(rows * m, count)[step].reshape(rows, m, count)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("m", [4, 8, 16, 64])
@pytest.mark.parametrize("count", [1, 5])
def test_one_rotation_round_equals_the_pair_by_pair_formulas_bit_for_bit(dtype, m, count):
    # Pins the arithmetic of a round (the fused products and the strided views it
    # writes through) to the per-pair formulas, on Hermitian A with three carried rows.
    rng = np.random.default_rng(1000 * m + count)
    rows, k = m + 3, m // 2
    g = rng.standard_normal((count, rows, m))
    if dtype is complex:
        g = g + 1j * rng.standard_normal((count, rows, m))
    a = g[:, :m]
    g[:, :m] = a + np.swapaxes(a, -1, -2).conj()
    skip = np.full(count, 1e-14)
    # Pairs below skip: exact zeros and tiny entries, on a seeded share of the pairs.
    small = rng.random((count, k)) < 0.3
    for b, p in zip(*np.nonzero(small)):
        g[b, p, p + k] = g[b, p + k, p] = 0.0 if p % 2 else 1e-20
    work = np.ascontiguousarray(g.transpose(1, 2, 0)).astype(dtype)
    _, step = linalg._round_robin(m, rows)
    expected = _reference_round(work, skip, step)
    result = linalg._rotation_rounds(work.copy(), skip, step)(1)
    assert result.dtype == expected.dtype and result.tobytes() == expected.tobytes()


_ROTATION_ROUNDS = linalg._rotation_rounds


class _CountingRounds:
    """The kernel's round builder, counting how often it builds the rounds and how many
    rounds each run applies."""

    built = 0
    rounds = []

    @classmethod
    def build(cls, *args):
        cls.built += 1
        run = _ROTATION_ROUNDS(*args)

        def counted(rounds):
            cls.rounds.append(rounds)
            return run(rounds)

        return counted


@pytest.fixture
def counting_rounds(monkeypatch):
    _CountingRounds.built = 0
    _CountingRounds.rounds = []
    monkeypatch.setattr(linalg, "_rotation_rounds", _CountingRounds.build)
    return _CountingRounds


def _mixed_convergence_stack(rng, count, dim):
    """Hermitian matrices that stop after different numbers of sweeps: diagonal ones
    (sweep 0), nearly diagonal ones (about one sweep) and random ones of several scales."""
    a = np.stack([random_hermitian(dim, rng) for _ in range(count)])
    kind = np.arange(count) % 4
    off = ~np.eye(dim, dtype=bool)
    a[kind == 0] *= np.eye(dim)
    a[kind == 1] = np.where(off, 1e-7 * a[kind == 1], a[kind == 1])
    a[kind == 3] *= 2.0 ** rng.integers(-20, 20, size=(np.sum(kind == 3), 1, 1))
    return a


def _solve_one_by_one(a, carry, size=None):
    sizes = np.broadcast_to(a.shape[-1] if size is None else size, a.shape[:-2])
    solves = [linalg._jacobi(a[i : i + 1], carry[i : i + 1], sizes[i]) for i in range(len(a))]
    return np.concatenate([w for w, _ in solves]), np.concatenate([x for _, x in solves])


def test_round_state_is_rebuilt_only_when_the_stack_compacts(counting_rounds):
    # Half of the stack stops at sweep 0, enough entries to be dropped from it: the
    # rest go on in a round state built for them.  A stack of three, whose members
    # stop at different sweeps, is too small for that and keeps its first one.
    rng = np.random.default_rng(90)
    a = _mixed_convergence_stack(rng, 64, 6)
    a[: len(a) // 2] = np.diag(rng.standard_normal(6))
    linalg._jacobi(a, np.eye(6, dtype=complex))
    assert counting_rounds.built >= 2
    counting_rounds.built = 0
    counting_rounds.rounds = []
    linalg._jacobi(_mixed_convergence_stack(rng, 3, 4), np.eye(4, dtype=complex))
    assert counting_rounds.built == 1 and len(counting_rounds.rounds) >= 2


def test_fused_two_qubit_members_equal_their_single_solves(counting_rounds, monkeypatch):
    # The cascade's one kernel call on a pure state: the Gram of C, tau^H tau and the
    # partial transpose, which needs the most sweeps.  Every member's eigenvalues and
    # carried rows equal its solve alone, bit for bit.
    from entmoment import entanglement
    from entmoment.states import random_density

    rng = np.random.default_rng(91)
    calls = []
    solve = entanglement._jacobi

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return solve(*args, **kwargs)

    monkeypatch.setattr(entanglement, "_jacobi", recording)
    for _ in range(5):
        rho = random_density(4, rank=1, rng=rng).matrix[None]
        calls.clear()
        entanglement._Evaluation(rho, ("concurrence_wootters", "verdict")).cascade
        ((a, carry), kwargs), = calls
        a, carry, size = a[:, 0], carry[:, 0], kwargs["size"][:, 0]
        w, xv = solve(a, carry, size=size)
        w_one, xv_one = _solve_one_by_one(a, carry, size)
        assert w.tobytes() == w_one.tobytes() and xv.tobytes() == xv_one.tobytes()
        # Rounds of each member alone: the partial transpose stops last, the members
        # at different sweeps.
        rounds = []
        for i in range(3):
            counting_rounds.rounds = []
            linalg._jacobi(a[i : i + 1], carry[i : i + 1], size[i])
            rounds.append(sum(counting_rounds.rounds))
        assert rounds[2] == max(rounds) > min(rounds)


def test_large_stack_with_mixed_convergence_equals_single_solves(counting_rounds):
    # 1,024 4x4 matrices stopping at different sweeps: the stack is compacted at
    # large B, and every member's eigenvalues and carried rows equal its solve alone.
    rng = np.random.default_rng(92)
    a = _mixed_convergence_stack(rng, 1024, 4)
    carry = rng.standard_normal((1024, 3, 4)) + 1j * rng.standard_normal((1024, 3, 4))
    w, xv = linalg._jacobi(a, carry)
    assert counting_rounds.built > 1
    w_one, xv_one = _solve_one_by_one(a, carry)
    assert w.tobytes() == w_one.tobytes() and xv.tobytes() == xv_one.tobytes()

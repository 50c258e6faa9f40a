"""Concurrences, separability criteria, and the verdict cascade."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmoment.entanglement import (
    ENTANGLED,
    SEPARABLE,
    classify,
    concurrence_variant,
    concurrence_wootters,
    d_measure,
    kyfan_norm,
    octahedron_check,
    ppt_check,
    tr_rho_rhotilde,
    werner_ltilde_signature,
)
from entmoment import entanglement, linalg
from entmoment.errors import (
    CrossCheckError,
    DimensionError,
    DomainError,
    NonFiniteError,
    NormalizationError,
    PositivityError,
    ShapeError,
    SymmetryError,
)
from entmoment.states import (
    DensityOperator,
    bell_state,
    maximally_mixed,
    partial_transpose,
    purity,
    random_density,
    random_pure,
    random_unitary,
    schmidt_mix,
    spin_flip,
    spin_flip_matrix,
    standard_form_state,
    werner,
)
from entmoment.tensors import (
    FanoForm,
    fano_compose,
    fano_decompose,
    inner_product,
    monotone_candidate,
    moments,
    quadratic_invariant,
)

TETRAHEDRON_VERTICES = np.array(
    [[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]]
)


def x_state_concurrence(rho):
    """Independent closed-form oracle for X-shaped two-qubit matrices."""
    m = np.asarray(rho, dtype=complex)
    assert np.max(np.abs(m - np.diag(np.diagonal(m)) - _x_corners(m))) < 1e-12
    inner = abs(m[0, 3]) - np.sqrt(m[1, 1].real * m[2, 2].real)
    outer = abs(m[1, 2]) - np.sqrt(m[0, 0].real * m[3, 3].real)
    return 2.0 * max(0.0, inner, outer)


def _x_corners(m):
    out = np.zeros_like(m)
    out[0, 3], out[3, 0] = m[0, 3], m[3, 0]
    out[1, 2], out[2, 1] = m[1, 2], m[2, 1]
    return out


# -- Ky Fan norm --------------------------------------------------------------

def test_kyfan_diag_x():
    for x in (0.0, 0.25, 1.0):
        assert kyfan_norm(np.diag([x, -x, x])) == pytest.approx(3 * x, abs=1e-12)


def test_kyfan_trivial_cases():
    assert kyfan_norm(np.zeros((3, 3))) == 0.0
    assert kyfan_norm(np.eye(3)) == pytest.approx(3.0, abs=1e-12)


def test_kyfan_matches_svd_oracle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        c = rng.standard_normal((3, 3))
        assert kyfan_norm(c) == pytest.approx(
            np.sum(np.linalg.svd(c, compute_uv=False)), abs=1e-10
        )
    # Product states have rank-1 correlation blocks: every singular value but
    # one is zero, where a square root of Gram eigenvalues loses half the digits.
    for n in (2, 3, 4, 6, 8):
        for _ in range(2):
            a, b = random_density(n, rng=rng), random_density(n, rng=rng)
            c = moments(np.kron(a.matrix, b.matrix)).correlation_block()
            assert kyfan_norm(c) == pytest.approx(
                np.sum(np.linalg.svd(c, compute_uv=False)), abs=1e-12
            )


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
@example(d=[0.0, 0.0, 2.225073858507203e-309])  # subnormal largest entry
def test_kyfan_diagonal_is_l1(d):
    assert kyfan_norm(np.diag(d)) == pytest.approx(np.sum(np.abs(d)), abs=1e-12)


# -- flip overlap ---------------------------------------------------------------

def test_flip_overlap_equals_purity_for_flip_invariant_states():
    for x in (0.0, 0.5, 1.0):
        w = werner(x)
        assert tr_rho_rhotilde(w) == pytest.approx(purity(w), abs=1e-13)


def test_flip_overlap_trivia():
    assert tr_rho_rhotilde(maximally_mixed(4)) == pytest.approx(0.25, abs=1e-14)
    assert tr_rho_rhotilde(bell_state()) == pytest.approx(1.0, abs=1e-13)


def test_flip_overlap_fano_identity():
    rng = np.random.default_rng(42)
    for _ in range(50):
        rho = random_density(4, rng=rng)
        f = fano_decompose(rho)
        rhs = (
            1.0 - f.mvec @ f.mvec - f.nvec @ f.nvec + float(np.sum(f.C * f.C))
        ) / 4.0
        assert tr_rho_rhotilde(rho) == pytest.approx(rhs, abs=1e-12)


# -- concurrences ---------------------------------------------------------------

@pytest.mark.parametrize("x", [0.0, 0.2, 1 / 3, 0.6, 1.0])
def test_wootters_werner_closed_form(x):
    assert concurrence_wootters(werner(x)) == pytest.approx(
        max(0.0, (3 * x - 1) / 2), abs=1e-12
    )


def test_wootters_product_states_vanish():
    rng = np.random.default_rng(43)
    for _ in range(10):
        a = random_pure(2, rng=rng)
        b = random_pure(2, rng=rng)
        rho = DensityOperator(np.kron(a.matrix, b.matrix))
        assert concurrence_wootters(rho) == pytest.approx(0.0, abs=1e-10)


def test_wootters_matches_x_state_oracle():
    for x in np.linspace(0, 1, 9):
        for a in np.linspace(0, np.pi / 2, 9):
            rho = schmidt_mix(float(x), float(a))
            assert concurrence_wootters(rho) == pytest.approx(
                x_state_concurrence(rho.matrix), abs=1e-10
            )
    # nearly product pure states: a tiny concurrence keeps its relative accuracy
    for a in (1e-7, 1e-5, np.pi / 2 - 1e-5, 1.5708):
        rho = schmidt_mix(1.0, a)
        assert concurrence_wootters(rho) == pytest.approx(
            x_state_concurrence(rho.matrix), rel=1e-12
        )


def _wootters_reference(rho):
    """Concurrence from LAPACK: numpy eigh for sqrt(rho), numpy SVD for the l_i."""
    w, v = np.linalg.eigh(rho)
    sq = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    lam = np.linalg.svd(sq @ yy @ sq.conj() @ yy, compute_uv=False)
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_wootters_matches_svd_reference(rank):
    rng = np.random.default_rng(46 + rank)
    for _ in range(25):
        rho = random_density(4, rank=rank, rng=rng)
        assert concurrence_wootters(rho) == pytest.approx(
            _wootters_reference(rho.matrix), abs=1e-13
        )


@pytest.mark.parametrize("x", [0.0, 0.4, 1.0])
def test_variant_werner_closed_form(x):
    # Spec(rho rho~) = {((1+3x)/4)^2, ((1-x)/4)^2 x3} for the Werner family.
    expected = max(0.0, (3 * x * x + 6 * x - 1) / 8)
    assert concurrence_variant(werner(x)) == pytest.approx(expected, abs=1e-12)


def test_variant_bell_is_one():
    assert concurrence_variant(bell_state()) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_dimension_guard():
    # One matrix goes through as a stack of one; the message names the matrix's shape.
    for quantity in (concurrence_wootters, concurrence_variant, tr_rho_rhotilde, d_measure):
        with pytest.raises(DimensionError, match=r"got matrix shape \(9, 9\)$"):
            quantity(np.eye(9) / 9)


def test_ppt_check_of_a_stack_equals_per_matrix_checks():
    rng = np.random.default_rng(49)
    states = [werner(0.2).matrix, bell_state().matrix, werner(1 / 3).matrix]
    states += [random_density(4, rank=r, rng=rng).matrix for r in (1, 2, 4)]
    separable, low = ppt_check(np.stack(states))
    assert separable.shape == low.shape == (len(states),)
    for i, rho in enumerate(states):
        single = ppt_check(rho)
        assert isinstance(single.separable, bool) and isinstance(single.min_eigenvalue, float)
        assert (separable[i], low[i]) == single
    with pytest.raises(ShapeError):
        ppt_check(np.stack(states)[None])


def test_quantities_of_one_matrix_are_floats():
    rho = schmidt_mix(0.6, 0.4)
    quantities = [
        purity,
        tr_rho_rhotilde,
        concurrence_wootters,
        concurrence_variant,
        d_measure,
        lambda r: quadratic_invariant(r, "linear"),
        lambda r: quadratic_invariant(r, "covariance"),
        lambda r: monotone_candidate(r, "linear", 2, (0.0, 1.0)),
        lambda r: inner_product(moments(r).second),
        lambda r: kyfan_norm(moments(r).correlation_block()),
    ]
    for state in (rho, rho.matrix):
        for quantity in quantities:
            assert isinstance(quantity(state), float)
    # A stack has one leading axis: anything else is rejected, not broadcast.
    for quantity in quantities[:5]:
        with pytest.raises(ShapeError):
            quantity(rho.matrix[None, None])


def test_kyfan_norm_of_a_stack_equals_per_matrix_norms():
    rng = np.random.default_rng(12)
    blocks = rng.standard_normal((5, 3, 3))
    blocks[1] = 0.0
    blocks[2] = np.diag([0.5, -0.25, 0.0])
    norms = kyfan_norm(blocks)
    assert norms.shape == (5,)
    for block, norm in zip(blocks, norms):
        assert norm == kyfan_norm(block)
    wide = rng.standard_normal((4, 2, 5))
    assert np.array_equal(kyfan_norm(wide), [kyfan_norm(m) for m in wide])


def test_shared_sqrt_concurrences_match_public_functions():
    states = [werner(x) for x in (0.0, 0.2, 1 / 3, 0.6, 1.0)]
    states += [schmidt_mix(x, a) for x in (0.1, 0.5, 0.9) for a in (0.2, np.pi / 4, 1.3)]
    rng = np.random.default_rng(48)
    states += [random_density(4, rank=r, rng=rng) for r in (1, 2, 3, 4) for _ in range(5)]
    # A stack shares one pivoted Cholesky factor per state and one Gram solve; each
    # value equals the single-state call bit for bit.
    stack = np.stack([rho.matrix for rho in states])
    for quantity in (concurrence_wootters, concurrence_variant):
        assert np.array_equal(quantity(stack), [quantity(rho) for rho in states])


def test_concurrences_make_one_gram_solve(monkeypatch):
    # rho = W W^H by pivoted Cholesky, then one Gram solve of tau = W^T yy W; the
    # variant needs no eigensolve of its own.
    calls = []
    jacobi = linalg._jacobi

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return jacobi(*args, **kwargs)

    monkeypatch.setattr(linalg, "_jacobi", counting)
    for state in (werner(0.6).matrix, np.stack([werner(0.6).matrix, bell_state().matrix])):
        for quantity in (concurrence_wootters, concurrence_variant):
            calls.clear()
            quantity(state)
            assert len(calls) == 1


def _variant_reference(rho):
    """The variant from LAPACK: numpy eigvals of rho rho~."""
    ev = np.linalg.eigvals(rho @ spin_flip_matrix(rho))
    ev = np.sort(np.clip(ev.real, 0.0, None))[::-1]
    return max(0.0, ev[0] - ev[1] - ev[2] - ev[3])


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_variant_matches_eigenvalues_of_m(rank):
    rng = np.random.default_rng(52 + rank)
    for _ in range(25):
        rho = random_density(4, rank=rank, rng=rng).matrix
        assert concurrence_variant(rho) == pytest.approx(_variant_reference(rho), abs=1e-12)


def _rank_deficient_states():
    p00 = np.zeros((4, 4), dtype=complex)
    p00[0, 0] = 1.0
    states = [p00, bell_state().matrix, werner(1 / 3).matrix, schmidt_mix(1.0, 1e-5).matrix]
    # (1 - e) |Phi+><Phi+| + e |Phi-><Phi-|, C = 1 - 2e: a small eigenvalue above the
    # pivot floor must stay in the factor.
    e = 1e-9
    mix = np.zeros((4, 4), dtype=complex)
    mix[np.ix_([0, 3], [0, 3])] = [[0.5, 0.5 - e], [0.5 - e, 0.5]]
    states.append(mix)
    rng = np.random.default_rng(57)
    return states + [random_density(4, rank=r, rng=rng).matrix for r in (2, 3) for _ in range(5)]


@pytest.mark.parametrize("rho", _rank_deficient_states())
def test_rank_deficient_and_tied_pivot_states_match_lapack(rho):
    # |00><00| and the Bell state leave an exactly vanishing Schur complement;
    # the Bell state and werner(1/3) have tied largest diagonal entries.
    assert concurrence_wootters(rho) == pytest.approx(_wootters_reference(rho), abs=1e-13)
    assert concurrence_variant(rho) == pytest.approx(_variant_reference(rho), abs=1e-13)


@pytest.mark.parametrize("a", [1e-5, 1e-4, 1e-3])
def test_variant_keeps_relative_accuracy_near_product_states(a):
    # The Gram solve is scaled, so a tiny sin^2(2a) is not swamped by an absolute
    # stopping tolerance.
    expected = np.sin(2 * a) ** 2
    assert concurrence_variant(schmidt_mix(1.0, a)) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(44)
    for _ in range(20):
        rho = random_density(4, rng=rng)
        u = np.kron(random_unitary(2, rng=rng), random_unitary(2, rng=rng))
        rotated = DensityOperator(u @ rho.matrix @ u.conj().T)
        assert concurrence_wootters(rho) == pytest.approx(
            concurrence_wootters(rotated), abs=1e-9
        )


def test_concurrence_agrees_with_ppt():
    # Both are exact for two qubits: positive concurrence iff NPT.
    rng = np.random.default_rng(45)
    for _ in range(100):
        rho = random_density(4, rank=int(rng.integers(1, 5)), rng=rng)
        conc = concurrence_wootters(rho)
        ppt = ppt_check(rho)
        if conc > 1e-8:
            assert not ppt.separable
        if ppt.min_eigenvalue < -1e-8:
            assert conc > 0.0


# -- D measure ----------------------------------------------------------------

def test_d_measure_spots():
    assert d_measure(bell_state()) == pytest.approx(1.0, abs=1e-12)
    assert d_measure(schmidt_mix(1.0, 0.0)) == pytest.approx(0.5, abs=1e-12)
    for x in (0.0, 0.5, 1.0):
        assert d_measure(werner(x)) == pytest.approx((3 * x * x + 1) / 4, abs=1e-12)


# -- criteria -------------------------------------------------------------------

def test_necessary_criterion_werner():
    verdict = classify(werner(0.5))
    assert verdict.decided_by == "devicente_necessary"
    assert verdict.witnesses["c_kyfan"] == pytest.approx(1.5, abs=1e-12)
    assert verdict.witnesses["necessary_bound"] == 1.0
    mixed = classify(maximally_mixed(4))
    assert mixed.decided_by != "devicente_necessary"
    assert mixed.witnesses["c_kyfan"] <= mixed.witnesses["necessary_bound"]
    bell = classify(bell_state())
    assert bell.witnesses["c_kyfan"] == pytest.approx(3.0, abs=1e-12)
    assert bell.decided_by == "devicente_necessary"


def test_necessary_criterion_qutrit_bound():
    # The Fano C's Ky Fan bound n(n-1)/2 = 3 times 4/n^2, the raw block's scale: 4/3.
    verdict = classify(maximally_mixed(9))
    assert verdict.witnesses["necessary_bound"] == 4.0 / 3.0
    assert verdict.decided_by != "devicente_necessary"
    assert verdict.witnesses["c_kyfan"] == pytest.approx(0.0, abs=1e-12)


def test_sufficient_criterion_values():
    assert classify(maximally_mixed(4)).witnesses["sufficient_value"] == pytest.approx(0.0, abs=1e-12)
    verdict = classify(werner(0.3))
    assert verdict.decided_by == "devicente_sufficient"
    assert verdict.witnesses["sufficient_value"] == pytest.approx(0.9, abs=1e-12)
    p00 = classify(schmidt_mix(1.0, 0.0))
    assert p00.witnesses["sufficient_value"] == pytest.approx(3.0, abs=1e-12)
    assert p00.decided_by == "ppt"


def _omega_criterion(verdict):
    """(applicable, passes) of the Omega criterion, read off a two-qubit verdict's witnesses."""
    w = verdict.witnesses
    applicable = w["omega_max"] < w["tolerance"]
    return applicable, applicable and w["c_kyfan"] <= 1.0 + w["tolerance"]


def test_omega_sufficient_cases():
    assert _omega_criterion(classify(werner(0.25))) == (True, True)
    assert not _omega_criterion(classify(schmidt_mix(0.5, np.pi / 8)))[0]
    assert _omega_criterion(classify(maximally_mixed(4))) == (True, True)


def test_npt_qutrit_state_with_vanishing_omega_is_not_certified_separable():
    # Omega vanishes and the raw Ky Fan norm is 3/5, so the two-qubit Bell-diagonal
    # bound (Horodecki & Horodecki, PRA 54, 1838 (1996)) applied at n = 3 would pass
    # it, yet its partial transpose has a negative eigenvalue.  l4, l5 and l8 are
    # Gell-Mann matrices.
    l4 = np.zeros((3, 3), dtype=complex)
    l4[0, 2] = l4[2, 0] = 1.0
    l5 = np.zeros((3, 3), dtype=complex)
    l5[0, 2], l5[2, 0] = -1j, 1j
    l8 = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)
    rho = np.eye(9) / 9 + (np.kron(l4, l4) + np.kron(l5, l5) - np.kron(l8, l8)) / 20
    assert np.linalg.eigvalsh(partial_transpose(rho))[0] < -0.03
    verdict = classify(rho)
    assert verdict.status != SEPARABLE
    assert verdict.witnesses["omega_max"] < verdict.witnesses["tolerance"]


@pytest.mark.parametrize("n", [2, 3])
def test_states_at_the_sufficient_margin_certified_separable_are_ppt(n):
    # Random states mixed towards 1/n^2 until the sufficient value is 0.98: every one
    # the cascade calls separable has a positive semidefinite partial transpose.
    rng = np.random.default_rng(50 + n)
    d = n * n
    rhos = np.stack([random_density(d, rank=1 + k % d, rng=rng).matrix for k in range(60)])
    value = entanglement._Evaluation(rhos).cascade[1]["sufficient_value"]
    p = (0.98 / value)[:, None, None]
    mixed = p * rhos + (1.0 - p) * np.eye(d) / d
    code, witnesses, _ = entanglement._Evaluation(mixed).cascade
    separable = np.array([entanglement._DECIDERS[c][0] == SEPARABLE for c in code])
    assert np.allclose(witnesses["sufficient_value"], 0.98)
    assert separable.all()
    assert np.all(np.linalg.eigvalsh(partial_transpose(mixed))[:, 0] >= -1e-12)


def test_ppt_werner_threshold():
    assert ppt_check(werner(1 / 3)).separable
    assert ppt_check(werner(0.3)).separable
    assert not ppt_check(werner(0.4)).separable
    assert ppt_check(bell_state()).min_eigenvalue == pytest.approx(-0.5, abs=1e-12)


def test_ppt_product_states():
    rng = np.random.default_rng(46)
    a = random_density(2, rng=rng)
    b = random_density(2, rng=rng)
    rho = DensityOperator(np.kron(a.matrix, b.matrix))
    assert ppt_check(rho).separable


def test_octahedron_cases():
    sep, l1 = octahedron_check((0.0, 0.0, 0.0))
    assert sep and l1 == 0.0
    sep, l1 = octahedron_check((1.0, -1.0, 1.0))
    assert not sep and l1 == pytest.approx(3.0)
    sep, l1 = octahedron_check((1 / 3, -1 / 3, 1 / 3))
    assert sep and l1 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PositivityError):
        octahedron_check((1.0, 1.0, 1.0))
    # Triples (B, 3) give (B,) arrays, bitwise equal to the single checks.
    rng = np.random.default_rng(65)
    d = np.concatenate([
        [[0.0, 0.0, 0.0], [1.0, -1.0, 1.0], [1 / 3, -1 / 3, 1 / 3], [-0.5, 0.0, 0.0]],
        rng.dirichlet((1.0, 1.0, 1.0, 1.0), size=20) @ TETRAHEDRON_VERTICES,
    ])
    separable, l1 = octahedron_check(d)
    assert separable.shape == l1.shape == (len(d),)
    assert np.array_equal(octahedron_check(d[2:9]).l1, l1[2:9])
    for k, triple in enumerate(d):
        single = octahedron_check(triple)
        assert isinstance(single.separable, bool) and isinstance(single.l1, float)
        assert (separable[k], l1[k]) == single
    with pytest.raises(PositivityError, match=r"d=\(1.0, 1.0, 1.0\)"):
        octahedron_check(np.vstack([d[:3], [1.0, 1.0, 1.0]]))
    for bad in ([0.1, 0.2], np.zeros((2, 2)), np.zeros((1, 2, 3))):
        with pytest.raises(ShapeError, match=re.escape(f"got shape {np.shape(bad)}")):
            octahedron_check(bad)


def test_octahedron_check_builds_no_states(monkeypatch):
    # The triples are checked against the tetrahedron; no 4x4 matrix is built or validated.
    def refuse(*args):
        raise AssertionError("octahedron_check built a state")

    monkeypatch.setattr("entmoment.states.validate_densities", refuse)
    monkeypatch.setattr("entmoment.states.DensityOperator", refuse)
    assert octahedron_check((0.1, -0.2, 0.3)) == (True, pytest.approx(0.6))
    assert octahedron_check(np.array([[1.0, -1.0, 1.0]])).l1.tolist() == [3.0]


def test_octahedron_cross_check_raises(monkeypatch):
    # A plain assert would vanish under python -O; the check must raise.
    monkeypatch.setattr(entanglement, "kyfan_norm", lambda c: 0.5)
    with pytest.raises(CrossCheckError):
        octahedron_check((0.1, -0.2, 0.3))
    # In a stack the error names the first triple whose norms disagree: here the
    # norm is right for the first diagonal block and off by 1 for the others.
    def kyfan(c):
        return np.abs(c).sum(axis=(-2, -1)) + (np.arange(len(c)) >= 1)

    monkeypatch.setattr(entanglement, "kyfan_norm", kyfan)
    with pytest.raises(CrossCheckError, match=r"of d=\(0.1, -0.2, 0.3\) differs"):
        octahedron_check(np.array([[0.0, 0.0, 0.0], [0.1, -0.2, 0.3], [0.0, 0.2, 0.0]]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.001, 1.0), min_size=4, max_size=4))
def test_octahedron_matches_ppt(raw):
    w = np.array(raw) / np.sum(raw)
    d = w @ TETRAHEDRON_VERTICES
    octa = octahedron_check(d)
    if abs(octa.l1 - 1.0) < 1e-9:
        return
    assert octa.separable == ppt_check(standard_form_state(d)).separable


def test_ltilde_signature_values():
    sig = werner_ltilde_signature(0.0)
    assert np.allclose(sig.eigenvalues, np.ones(6))
    assert sig.positive_definite and sig.classification == "positive definite"
    sig = werner_ltilde_signature(0.5)
    assert np.allclose(np.sort(sig.eigenvalues), [-0.5] * 3 + [0.5] * 3, atol=1e-12)
    assert not sig.positive_definite and sig.classification == "indefinite"
    sig = werner_ltilde_signature(1 / 3)
    assert np.allclose(np.sort(sig.eigenvalues), [0.0] * 3 + [2 / 3] * 3, atol=1e-12)
    assert not sig.positive_definite
    assert sig.classification == "positive semidefinite"
    for bad in (1.5, np.array([0.5]), [0.2, 0.7], np.array([[0.5]])):
        with pytest.raises(DomainError):
            werner_ltilde_signature(bad)


def test_correlation_block_is_fano_c_for_qubits():
    rng = np.random.default_rng(47)
    rho = random_density(4, rng=rng)
    assert np.allclose(moments(rho).correlation_block(), fano_decompose(rho).C, atol=1e-13)


# -- classify -------------------------------------------------------------------

def test_classify_werner_both_sides():
    verdict = classify(werner(0.8))
    assert verdict.status == ENTANGLED
    assert verdict.decided_by == "devicente_necessary"
    assert verdict.witnesses["c_kyfan"] == pytest.approx(2.4, abs=1e-12)
    verdict = classify(werner(0.2))
    assert verdict.status == SEPARABLE


def test_classify_agrees_with_ppt_on_schmidt_family():
    for x in (0.1, 0.4, 0.7):
        for a in (np.pi / 8, np.pi / 3):
            rho = schmidt_mix(x, a)
            verdict = classify(rho)
            ppt = ppt_check(rho)
            expected = SEPARABLE if ppt.separable else ENTANGLED
            assert verdict.status == expected


def test_classify_never_contradicts_criteria():
    rng = np.random.default_rng(48)
    tol = 1e-9
    for _ in range(1000):
        rho = random_density(4, rank=int(rng.integers(1, 5)), rng=rng)
        verdict = classify(rho, tol=tol)
        w = verdict.witnesses
        if verdict.status == ENTANGLED:
            assert w["sufficient_value"] > 1.0 + tol
            assert not (w["omega_max"] < tol and w["c_kyfan"] <= 1.0 + tol)
        if verdict.status == SEPARABLE:
            assert w["c_kyfan"] <= w["necessary_bound"] + tol


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize(
    "check",
    [
        lambda tol: classify(maximally_mixed(4), tol=tol),
        lambda tol: ppt_check(werner(0.1), tol=tol),
        lambda tol: octahedron_check((0.1, 0.1, 0.1), tol=tol),
    ],
    ids=["classify", "ppt_check", "octahedron_check"],
)
def test_tolerance_must_be_finite_and_nonnegative(check, tol):
    # A NaN tolerance fails every comparison, so it would call any state entangled.
    with pytest.raises(DomainError, match="tolerance must be a finite number >= 0"):
        check(tol)
    check(0.0)


def test_classify_undecided_possible_for_qutrits():
    # A qutrit-pair pure entangled state is caught by the necessary
    # criterion; a slightly mixed one near the boundary may be undecided.
    phi = np.zeros(9, dtype=complex)
    phi[0] = phi[4] = phi[8] = 1 / np.sqrt(3)
    pure = np.outer(phi, phi.conj())
    verdict = classify(DensityOperator(pure))
    assert verdict.status == ENTANGLED
    mixed = DensityOperator(0.5 * pure + 0.5 * np.eye(9) / 9)
    verdict = classify(mixed)
    assert verdict.status in (SEPARABLE, ENTANGLED, "undecided")
    assert "c_kyfan" in verdict.witnesses


def test_classify_monotone_consistency_on_werner():
    for x in np.linspace(0, 1, 21):
        conc = concurrence_wootters(werner(float(x)))
        verdict = classify(werner(float(x)))
        assert (conc == 0.0) == (verdict.status == SEPARABLE)


def _isotropic(n, p):
    """p |phi+><phi+| + (1 - p) 1/n^2 on two n-level systems."""
    phi = np.eye(n).reshape(n * n) / np.sqrt(n)
    return p * np.outer(phi, phi).astype(complex) + (1 - p) * np.eye(n * n) / (n * n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_necessary_criterion_flags_the_isotropic_state_exactly_when_entangled(n):
    # The isotropic state is entangled exactly for p > 1/(n+1) (Horodecki & Horodecki,
    # PRA 59, 4206 (1999)).  Its raw correlation block is 2p/n times a signed identity
    # of size n^2 - 1, so its Ky Fan norm 2p(n^2 - 1)/n meets the raw bound 2(n-1)/n
    # at p = 1/(n+1).  Against the Fano C's bound n(n-1)/2 it would be flagged only
    # above p = n^2/(4(n+1)), which is 1/(n+1) at n = 2 alone.
    edge = 1.0 / (n + 1)
    ps = np.concatenate([np.linspace(0.0, 1.0, 41), edge + np.array([-1e-6, 0.0, 1e-6])])
    code, witnesses, _ = entanglement._Evaluation(np.stack([_isotropic(n, p) for p in ps])).cascade
    assert np.array_equal(code == 0, ps > edge)
    assert np.all(witnesses["necessary_bound"] == 2.0 * (n - 1) / n)


@pytest.mark.parametrize(
    "states, deciders",
    [
        (
            [werner(0.8).matrix, random_density(4, rank=2, rng=np.random.default_rng(4)).matrix,
             werner(0.2).matrix, schmidt_mix(0.4, np.pi / 8).matrix, schmidt_mix(1.0, 0.0).matrix,
             bell_state().matrix, maximally_mixed(4).matrix],
            ["devicente_necessary", "ppt", "devicente_sufficient", "ppt", "ppt",
             "devicente_necessary", "devicente_sufficient"],
        ),
        (
            [_isotropic(3, p) for p in (1.0, 0.0, 0.1, 0.3)],
            ["devicente_necessary", "devicente_sufficient", None, "devicente_necessary"],
        ),
    ],
    ids=["qubits", "qutrits"],
)
def test_every_decider_of_a_stack_equals_classify(states, deciders):
    # Isotropic qutrits: the raw Ky Fan norm is 16p/3, so the necessary bound 4/3 fails
    # above p = 1/4 and the sufficient value 16p passes below 1/16; p = 0.1, separable
    # but between the two, is undecided.
    code, witnesses, _ = entanglement._Evaluation(np.stack(states)).cascade
    assert [entanglement._DECIDERS[c][1] for c in code] == deciders
    for i, rho in enumerate(states):
        verdict = classify(rho)
        assert (verdict.status, verdict.decided_by) == entanglement._DECIDERS[code[i]]
        assert type(verdict.status) is str
        expected = {name: v[i] for name, v in witnesses.items()}
        if verdict.decided_by != "ppt":
            assert np.isnan(expected.pop("pt_min_eigenvalue"))
        assert list(verdict.witnesses) == list(expected)
        for name, value in verdict.witnesses.items():
            assert type(value) is float
            assert np.array(value).tobytes() == np.array(expected[name]).tobytes()


# A Fano correlation block whose Ky Fan Gram meets, in some round, an off-diagonal
# entry between the skip thresholds of a 4x4 and of a 3x3 matrix (tol/16 and tol/12),
# so the solve depends on the size the kernel is told; found by a seeded search over
# diagonal blocks with one tiny and one moderate off-diagonal entry.
SKIP_BAND_CORRELATION = [
    [0.2780976704135643, 0.0, 0.0],
    [0.0, 0.2927117039675818, -3.0826206616409237e-13],
    [-0.08239565390496867, 0.0, -0.15265835085754356],
]


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def test_skip_band_block_depends_on_the_kernel_size():
    # The padded 3x3 Gram solved as a 4x4 (size 4, the old threshold for a caller's
    # padding) differs from the same solve told its size is 3.
    rho = fano_compose(FanoForm(2, np.zeros(3), np.zeros(3), np.array(SKIP_BAND_CORRELATION)))
    x, _ = linalg._gram_factor(moments(rho.matrix[None]).fano().C)
    gram = np.zeros((1, 4, 4), dtype=complex)
    carry = np.zeros_like(gram)
    gram[:, :3, :3] = np.swapaxes(x, -1, -2).conj() @ x
    carry[:, :3, :3] = x
    as_3x3 = linalg._jacobi(gram, carry, size=3)
    as_4x4 = linalg._jacobi(gram, carry)
    assert any(a.tobytes() != b.tobytes() for a, b in zip(as_3x3, as_4x4))


def test_fused_two_qubit_solves_equal_public_functions():
    # One kernel call gives the Ky Fan norm, both concurrences and the partial
    # transpose of each state; each equals its public function bit for bit, and the
    # cascade's verdicts and concurrences equal classify and the two concurrences.
    rng = np.random.default_rng(67)
    states = [
        werner(x).matrix for x in (0.0, 0.2, 1 / 3, 0.5, 1.0)
    ] + [
        bell_state().matrix,
        maximally_mixed(4).matrix,
        schmidt_mix(0.4, np.pi / 8).matrix,
        schmidt_mix(1.0, 0.0).matrix,
        random_density(4, rank=2, rng=np.random.default_rng(4)).matrix,
        standard_form_state((-0.3, 0.2, 0.1)).matrix,
        fano_compose(FanoForm(2, np.zeros(3), np.zeros(3), np.array(SKIP_BAND_CORRELATION))).matrix,
    ] + [
        random_density(4, rank=rank, rng=rng).matrix for rank in (1, 1, 2, 2, 3, 4, 4)
    ]
    rhos = np.stack(states)
    fano_c = moments(rhos).fano().C
    kyfan, tau_values, pt_low = entanglement._two_qubit_solves(rhos, fano_c, True)
    names = ("verdict", "concurrence_wootters", "concurrence_variant")
    ev = entanglement._Evaluation(rhos, names)
    code, witnesses, cascade_tau_values = ev.cascade
    assert [_bits(v) for v in cascade_tau_values] == [_bits(v) for v in tau_values]
    wootters, variant = ev.concurrences
    seen = set()
    for i, rho in enumerate(states):
        assert _bits(kyfan[i]) == _bits(kyfan_norm(fano_c[i]))
        pair = [concurrence_wootters(rho), concurrence_variant(rho)]
        assert _bits([wootters[i], variant[i]]) == _bits(pair)
        assert _bits(pt_low[i]) == _bits(ppt_check(rho).min_eigenvalue)
        verdict = classify(rho)
        seen.add(entanglement._DECIDERS[code[i]])
        assert (verdict.status, verdict.decided_by) == entanglement._DECIDERS[code[i]]
        for name, value in verdict.witnesses.items():
            assert _bits(value) == _bits(witnesses[name][i])
        # The partial transpose runs on every state and is reported only where it decides.
        assert ("pt_min_eigenvalue" in verdict.witnesses) == (verdict.decided_by == "ppt")
    assert seen == {
        (ENTANGLED, "devicente_necessary"),
        (SEPARABLE, "devicente_sufficient"),
        (ENTANGLED, "ppt"),
        (SEPARABLE, "ppt"),
    }


def test_classify_bloch_norms_are_one_vector_norms():
    # The stacked cascade must give each state the 1-D np.linalg.norm of its Bloch
    # vectors to the last bit, or analyze reports would change digits.
    rng = np.random.default_rng(64)
    for n in (2, 3):
        for _ in range(40):
            rho = random_density(n * n, rank=int(rng.integers(1, n * n + 1)), rng=rng)
            f = fano_decompose(rho)
            w = classify(rho).witnesses
            assert w["bloch_norm_a"] == float(np.linalg.norm(f.nvec))
            assert w["bloch_norm_b"] == float(np.linalg.norm(f.mvec))


def test_classify_takes_one_matrix():
    rho = werner(0.2).matrix
    for stack in (rho[None], np.stack([rho, bell_state().matrix])):
        with pytest.raises(ShapeError, match="one matrix"):
            classify(stack)


def _not_a_state(case: str) -> np.ndarray:
    """A 4x4 array that breaks one density-matrix invariant."""
    if case == "trace":
        return np.eye(4)
    if case == "double":
        return 2.0 * bell_state().matrix
    if case == "negative":
        return np.diag([0.7, -0.1, 0.2, 0.2])
    rho = werner(0.5).matrix.copy()
    if case == "hermiticity":
        rho[0, 3] += 1e-11  # above HERMITICITY_TOL (1e-12), below the solvers' 1e-10
    else:
        rho[1, 2] = float(case)
    return rho


@pytest.mark.parametrize(
    "case, error",
    [
        ("trace", NormalizationError),
        ("double", NormalizationError),
        ("negative", PositivityError),
        ("nan", NonFiniteError),
        ("inf", NonFiniteError),
        ("hermiticity", SymmetryError),
    ],
    ids=["trace", "double", "negative", "nan", "inf", "hermiticity"],
)
@pytest.mark.parametrize(
    "check",
    [classify, concurrence_wootters, concurrence_variant, ppt_check],
    ids=["classify", "concurrence_wootters", "concurrence_variant", "ppt_check"],
)
def test_public_two_qubit_functions_reject_non_states(check, case, error):
    # Each validates its input where it enters (states.validate_densities, one matrix as
    # a stack of one): the pivoted Cholesky and the kernel behind it check nothing, and
    # would give classify(I) = separable, a concurrence of 2 for 2|phi+><phi+| and 0 for
    # the indefinite diag(0.7, -0.1, 0.2, 0.2).
    bad = _not_a_state(case)
    with np.errstate(invalid="raise"), pytest.raises(error):
        check(bad)
    # classify takes one matrix; the others take a stack, here with the bad matrix second.
    if check is not classify:
        with np.errstate(invalid="raise"), pytest.raises(error):
            check(np.stack([werner(0.2).matrix, bad]))
    assert not hasattr(entanglement, "_check_hermitian")


def test_classify_rejects_a_non_hermitian_two_qubit_matrix():
    # classify validates its matrix before the cascade, so the check runs even where a
    # criterion would decide.
    rho = werner(0.9).matrix.copy()
    rho[0, 1] += 1e-6
    with pytest.raises(SymmetryError):
        classify(rho)


def test_spin_flip_invariance_of_werner():
    w = werner(0.77)
    assert np.allclose(spin_flip(w).matrix, w.matrix, atol=1e-14)

"""Density operators, Bloch/Fano codecs, partial operations, families."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmoment.errors import (
    DimensionError,
    DomainError,
    FormatError,
    NonFiniteError,
    NormalizationError,
    PositivityError,
    ShapeError,
    SymmetryError,
)
from entmoment.states import (
    DensityOperator,
    bell_state,
    bloch_decode,
    bloch_encode,
    convex_combine,
    load_state,
    maximally_mixed,
    partial_trace,
    partial_transpose,
    purity,
    random_density,
    random_pure,
    save_state,
    schmidt_mix,
    spin_flip,
    spin_flip_matrix,
    standard_form_state,
    state_from_dict,
    validate_densities,
    werner,
)
from entmoment.tensors import FanoForm, fano_compose, fano_decompose
from entmoment.basis import generate_basis


# -- validation ---------------------------------------------------------------

def test_invariant_violations_are_named():
    with pytest.raises(SymmetryError):
        DensityOperator(np.array([[0.5, 0.1], [0.4, 0.5]], dtype=complex))
    with pytest.raises(NormalizationError):
        DensityOperator(np.eye(2, dtype=complex))
    with pytest.raises(PositivityError) as err:
        DensityOperator(np.diag([1.5, -0.5]).astype(complex))
    assert err.value.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
    # NaN passes every tolerance comparison, so it needs its own check.
    for bad in (np.nan, np.inf):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(NonFiniteError):
            DensityOperator(m)


def test_boundary_positivity_accepted():
    DensityOperator(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    DensityOperator(np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0]).astype(complex))


# -- Bloch codec --------------------------------------------------------------

def test_zero_bloch_vector_is_maximally_mixed():
    m = bloch_encode(2, np.zeros(3))
    assert np.allclose(m, np.eye(2) / 2)


def test_ground_state_bloch_vector():
    rho = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
    vec = bloch_decode(rho)
    assert np.allclose(vec.m, [0.0, 0.0, 1.0], atol=1e-14)
    assert abs(np.linalg.norm(vec.m) - 1.0) < 1e-14


def test_random_pure_qutrit_norm():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = bloch_decode(random_pure(3, rng=rng)).m
        assert abs(np.linalg.norm(m) - np.sqrt(3.0)) < 1e-10


def test_purity_from_bloch_norm():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        bound = np.sqrt(n * (n - 1) / 2)
        for _ in range(20):
            rho = random_density(n, rng=rng)
            m = bloch_decode(rho).m
            assert purity(rho) == pytest.approx(
                (n + 2 * float(m @ m)) / n**2, abs=1e-12
            )
            assert np.linalg.norm(m) <= bound + 1e-10


def test_bloch_encode_shape_error():
    with pytest.raises(ShapeError):
        bloch_encode(2, np.zeros(8))


def test_bloch_encode_rejects_non_finite():
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteError):
            bloch_encode(2, [bad, 0.0, 0.0])


def test_bloch_encode_does_not_enforce_positivity():
    m = bloch_encode(2, np.array([2.0, 0.0, 0.0]))  # outside the Bloch ball
    assert abs(np.trace(m) - 1.0) < 1e-15
    assert np.allclose(m, m.conj().T)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-0.57, 0.57), min_size=3, max_size=3))
def test_bloch_round_trip_inside_ball(coords):
    m = np.array(coords)
    rho = DensityOperator(bloch_encode(2, m))
    assert np.allclose(bloch_decode(rho).m, m, atol=1e-12)


# -- Fano codec ---------------------------------------------------------------

def test_bell_fano_coefficients():
    f = fano_decompose(bell_state())
    assert np.allclose(f.nvec, 0.0, atol=1e-14)
    assert np.allclose(f.mvec, 0.0, atol=1e-14)
    assert np.allclose(f.C, np.diag([1.0, -1.0, 1.0]), atol=1e-14)


def test_maximally_mixed_fano_vanishes():
    f = fano_decompose(maximally_mixed(4))
    assert np.max(np.abs(f.nvec)) < 1e-15
    assert np.max(np.abs(f.mvec)) < 1e-15
    assert np.max(np.abs(f.C)) < 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_product_state_correlation_factorizes(n):
    rng = np.random.default_rng(13)
    a = random_density(n, rng=rng)
    b = random_density(n, rng=rng)
    rho = DensityOperator(np.kron(a.matrix, b.matrix))
    f = fano_decompose(rho)
    av = bloch_decode(a).m
    bv = bloch_decode(b).m
    assert np.allclose(f.nvec, av, atol=1e-12)
    assert np.allclose(f.mvec, bv, atol=1e-12)
    assert np.allclose(f.C, np.outer(av, bv), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_fano_round_trip(n):
    # The form of a stack composes to the validated stack, bitwise equal to the
    # DensityOperator of each state's form and to any sub-stack.
    rng = np.random.default_rng(14)
    rhos = np.stack([random_density(n * n, rng=rng).matrix for _ in range(50 if n < 4 else 3)])
    back = fano_compose(fano_decompose(rhos))
    assert isinstance(back, np.ndarray) and back.shape == rhos.shape
    assert np.max(np.abs(back - rhos)) < 1e-12
    assert np.array_equal(fano_compose(fano_decompose(rhos[1:3])), back[1:3])
    for rho, composed in zip(rhos, back):
        single = fano_compose(fano_decompose(rho))
        assert isinstance(single, DensityOperator)
        assert np.array_equal(single.matrix, composed)


def test_fano_compose_rejects_fields_of_different_shapes():
    f = fano_decompose(np.stack([bell_state().matrix, maximally_mixed(4).matrix]))
    one = fano_decompose(bell_state())
    for bad in (
        FanoForm(2, f.nvec, f.mvec[0], f.C),
        FanoForm(2, f.nvec, f.mvec, f.C[0]),
        FanoForm(2, one.nvec, one.mvec, one.C[:2]),
        FanoForm(3, one.nvec, one.mvec, one.C),
        FanoForm(2, f.nvec[None], f.mvec[None], f.C[None]),
    ):
        with pytest.raises(ShapeError, match="Fano coefficients for n=. disagree in shape"):
            fano_compose(bad)


def test_fano_n2_matches_raw_traces():
    # For qubits the expansion coefficients equal the plain traces.
    rng = np.random.default_rng(15)
    rho = random_density(4, rng=rng)
    f = fano_decompose(rho)
    sigma = generate_basis(2).sigma
    for j in range(3):
        raw = np.trace(rho.matrix @ np.kron(sigma[j + 1], np.eye(2))).real
        assert f.nvec[j] == pytest.approx(raw, abs=1e-13)
        for k in range(3):
            raw = np.trace(rho.matrix @ np.kron(sigma[j + 1], sigma[k + 1])).real
            assert f.C[j, k] == pytest.approx(raw, abs=1e-13)


def test_fano_rejects_non_square_dim():
    with pytest.raises(ShapeError):
        fano_decompose(np.eye(6, dtype=complex) / 6)


# -- partial operations -------------------------------------------------------


def test_partial_trace_takes_one_square_matrix():
    # One matrix gives a DensityOperator or a 1-D Bloch vector; a stack gives the
    # validated reductions or (B, n^2 - 1) vectors, bitwise equal to the single calls.
    rng = np.random.default_rng(64)
    to_decode = []
    for n in (2, 3, 4):
        dim = n * n
        states = [random_density(dim, rank=r, rng=rng).matrix for r in (1, 2, dim)]
        stack = np.stack(states + [maximally_mixed(dim).matrix])
        for side in "AB":
            reduced = partial_trace(stack, side)
            assert reduced.shape == (4, n, n)
            assert np.array_equal(partial_trace(stack[1:3], side), reduced[1:3])
            for rho, expected in zip(stack, reduced):
                single = partial_trace(rho, side)
                assert isinstance(single, DensityOperator)
                assert np.array_equal(single.matrix, expected)
            to_decode.append(reduced)
        to_decode.append(stack)
    for stack in to_decode:
        dim = stack.shape[-1]
        m = bloch_decode(stack).m
        assert m.shape == (4, dim * dim - 1)
        assert np.array_equal(bloch_decode(stack[1:3]).m, m[1:3])
        for rho, expected in zip(stack, m):
            vec = bloch_decode(rho)
            assert vec.n == dim and np.array_equal(vec.m, expected)
    for bad in (np.zeros((1, 2, 4, 4)), np.zeros((4, 3))):
        for function in (partial_trace, bloch_decode):
            with pytest.raises(ShapeError, match=re.escape(f"of them, got shape {bad.shape}")):
                function(bad)
    with pytest.raises(ShapeError, match="dimension >= 2"):
        bloch_decode(np.ones((3, 1, 1)))


@pytest.mark.parametrize("subsystem", ["A", "B"])
def test_partial_transpose_of_a_stack_equals_per_matrix_transposes(subsystem):
    rng = np.random.default_rng(63)
    for dim in (4, 9):
        states = [random_density(dim, rank=r, rng=rng).matrix for r in (1, 2, dim)]
        stack = partial_transpose(np.stack(states), subsystem)
        assert stack.shape == (3, dim, dim)
        for pt, rho in zip(stack, states):
            assert np.array_equal(pt, partial_transpose(rho, subsystem))
    with pytest.raises(ShapeError, match=r"stack of them, got shape \(1, 2, 4, 4\)"):
        partial_transpose(np.zeros((1, 2, 4, 4)))
    with pytest.raises(ShapeError, match=r"got shape \(4, 3\)"):
        partial_transpose(np.zeros((4, 3)))


def test_partial_trace_bell():
    for side in ("A", "B"):
        red = partial_trace(bell_state(), side)
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product():
    rng = np.random.default_rng(16)
    a = random_density(2, rng=rng)
    b = random_density(2, rng=rng)
    rho = np.kron(a.matrix, b.matrix)
    assert np.allclose(partial_trace(rho, "A").matrix, a.matrix, atol=1e-14)
    assert np.allclose(partial_trace(rho, "B").matrix, b.matrix, atol=1e-14)


def test_partial_trace_werner_maximally_mixed():
    for x in (0.0, 0.4, 1.0):
        assert np.allclose(partial_trace(werner(x)).matrix, np.eye(2) / 2, atol=1e-14)


def test_spin_flip_fixed_points():
    mm = maximally_mixed(4)
    assert np.allclose(spin_flip(mm).matrix, mm.matrix, atol=1e-15)
    w = werner(0.6)
    assert np.allclose(spin_flip(w).matrix, w.matrix, atol=1e-14)


def test_spin_flip_swaps_computational_extremes():
    p00 = np.zeros((4, 4), dtype=complex)
    p00[0, 0] = 1.0
    p11 = np.zeros((4, 4), dtype=complex)
    p11[3, 3] = 1.0
    assert np.allclose(spin_flip(p00).matrix, p11, atol=1e-15)


def test_spin_flip_matrix_equals_the_dense_products_bit_for_bit():
    # The signed index reversal must give what yy @ conj(M) @ yy gives, down to
    # the sign of every zero, or a report could print -0.0 where it printed 0.0.
    sy = generate_basis(2).sigma[2]
    yy = np.kron(sy, sy)
    p00 = np.zeros((4, 4), dtype=complex)
    p00[0, 0] = 1.0
    rng = np.random.default_rng(61)
    states = [p00, -p00, bell_state().matrix, werner(0.3).matrix, schmidt_mix(0.4, 0.3).matrix]
    states += [standard_form_state([0.1, -0.2, 0.3]).matrix]
    states += [random_density(4, rank=r, rng=rng).matrix for r in (1, 2, 4)]
    for real, imag in ((-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0)):
        zero = np.empty((4, 4), dtype=complex)
        zero.real, zero.imag = real, imag
        states.append(zero)
    stack = np.stack(states)
    for m in [*states, stack]:
        dense, flipped = yy @ m.conj() @ yy, spin_flip_matrix(m)
        for part in ("real", "imag"):
            a, b = getattr(dense, part), getattr(flipped, part)
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))


def test_spin_flip_dimension_guard():
    with pytest.raises(DimensionError):
        spin_flip(maximally_mixed(9))


def test_partial_transpose_of_a_is_the_transpose_of_b():
    rho = random_density(9, rng=np.random.default_rng(62)).matrix
    assert np.array_equal(partial_transpose(rho, "A"), partial_transpose(rho, "B").T)
    for partial in (partial_trace, partial_transpose):
        with pytest.raises(DomainError):
            partial(rho, "C")


def test_partial_transpose_bell_minimum():
    w = np.linalg.eigvalsh(partial_transpose(bell_state()))
    assert w.min() == pytest.approx(-0.5, abs=1e-13)


def test_partial_transpose_product_state_positive():
    rng = np.random.default_rng(17)
    a = random_density(2, rng=rng)
    b = random_density(2, rng=rng)
    w = np.linalg.eigvalsh(partial_transpose(np.kron(a.matrix, b.matrix)))
    assert w.min() > -1e-12


def test_partial_transpose_reflects_standard_form():
    pt = partial_transpose(standard_form_state((1.0, -1.0, 1.0)))
    spec = np.sort(np.linalg.eigvalsh(pt))
    expected = np.sort(
        [(1 - 3) / 4, (1 + 1) / 4, (1 + 1) / 4, (1 + 1) / 4]
    )  # spectrum of d = (1, 1, 1)
    assert np.allclose(spec, expected, atol=1e-13)
    assert spec[0] == pytest.approx(-0.5, abs=1e-13)


def test_partial_transpose_is_hermitian_unit_trace():
    rng = np.random.default_rng(18)
    rho = random_density(9, rng=rng)
    pt = partial_transpose(rho)
    assert np.allclose(pt, pt.conj().T, atol=1e-14)
    assert np.trace(pt).real == pytest.approx(1.0, abs=1e-13)


# -- families -----------------------------------------------------------------

def test_werner_endpoints():
    assert np.allclose(werner(0.0).matrix, np.eye(4) / 4)
    assert np.allclose(werner(1.0).matrix, bell_state().matrix, atol=1e-15)


def test_schmidt_mix_contains_werner_line():
    assert np.allclose(
        schmidt_mix(1.0, np.pi / 4).matrix, werner(1.0).matrix, atol=1e-15
    )
    assert np.allclose(
        schmidt_mix(0.37, np.pi / 4).matrix, werner(0.37).matrix, atol=1e-15
    )


def test_standard_form_bell_vertex():
    rho = standard_form_state((1.0, -1.0, 1.0))
    assert np.allclose(rho.matrix, bell_state().matrix, atol=1e-15)


def test_standard_form_matches_werner_image():
    for x in (0.2, 0.9):
        assert np.allclose(
            standard_form_state((x, -x, x)).matrix, werner(x).matrix, atol=1e-14
        )


def test_family_domain_errors():
    with pytest.raises(DomainError):
        werner(1.2)
    with pytest.raises(DomainError):
        werner(-0.1)
    with pytest.raises(DomainError):
        schmidt_mix(1.5, 0.3)
    with pytest.raises(NonFiniteError):
        schmidt_mix(0.5, float("nan"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_family_parameters_raise_without_warnings():
    for bad in (np.inf, -np.inf):
        with pytest.raises(NonFiniteError):
            schmidt_mix(0.5, bad)
    for bad in ((np.inf, 0.0, 0.0), (np.nan, np.nan, np.inf)):
        with pytest.raises(NonFiniteError):
            standard_form_state(bad)
    # Finite but far outside the tetrahedron: an eigenvalue is -inf.
    with pytest.raises(PositivityError):
        standard_form_state((1e308, 1e308, 0.0))


def test_stack_builders_and_validation():
    # One value gives a DensityOperator whose matrix is bitwise the matching row
    # of the array result; an array of one value gives a stack of one.
    xs, alphas = np.array([0.0, 0.4, 1.0]), np.array([0.3, 0.0, 1.5])
    d = np.array([[0.1, 0.2, -0.3], [1.0, -1.0, 1.0], [0.0, 0.0, 0.0]])
    stacks = werner(xs), schmidt_mix(xs, alphas), standard_form_state(d)
    for k, (x, a) in enumerate(zip(xs, alphas)):
        ones = werner(x), schmidt_mix(x, a), standard_form_state(d[k])
        for one, stack in zip(ones, stacks):
            assert isinstance(one, DensityOperator)
            assert stack.shape == (3, 4, 4)
            assert np.array_equal(one.matrix, stack[k])
    assert werner(np.array([0.5])).shape == (1, 4, 4)
    assert schmidt_mix(0.5, [0.1, 0.2]).shape == (2, 4, 4)
    assert np.array_equal(schmidt_mix(0.5, np.zeros((2, 2))), schmidt_mix(np.full(4, 0.5), 0.0))
    with pytest.raises(ShapeError, match="do not broadcast"):
        schmidt_mix([0.1, 0.2], [0.1, 0.2, 0.3])
    assert standard_form_state(d[:1]).shape == (1, 4, 4)
    for bad in (np.zeros(4), np.zeros((2, 2, 3)), 0.5):
        with pytest.raises(ShapeError):
            standard_form_state(bad)
    with pytest.raises(DomainError, match="got 1.2"):
        werner([0.5, 1.2, -1.0])
    with pytest.raises(PositivityError, match=r"d=\(1.0, 1.0, 1.0\)"):
        standard_form_state([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    good = werner([0.3])
    nan = np.full((1, 4, 4), np.nan)
    trace2 = 2 * good
    negative = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)[None]
    skew = good.copy()
    skew[0, 0, 1] += 1e-3
    # Each check runs over the whole stack before the next one.
    with pytest.raises(NonFiniteError):
        validate_densities(np.concatenate([good, trace2, nan]))
    with pytest.raises(SymmetryError):
        validate_densities(np.concatenate([good, trace2, skew]))
    with pytest.raises(NormalizationError):
        validate_densities(np.concatenate([good, negative, trace2]))
    with pytest.raises(PositivityError) as err:
        validate_densities(np.concatenate([good, negative, good]))
    assert err.value.min_eigenvalue == pytest.approx(-0.25, abs=1e-12)
    assert np.array_equal(validate_densities(good), good)


def test_every_package_export_resolves():
    import entmoment

    missing = [name for name in entmoment.__all__ if not hasattr(entmoment, name)]
    assert not missing
    assert len(set(entmoment.__all__)) == len(entmoment.__all__)


def test_one_value_builders_validate_once(monkeypatch):
    from entmoment import cli, states

    calls = []

    def counted(matrices):
        calls.append(np.shape(matrices))
        return validate_densities(matrices)

    monkeypatch.setattr(states, "validate_densities", counted)
    for build, count in (
        (lambda: standard_form_state((0.1, 0.2, -0.3)), 1),
        (lambda: cli._family_state("standard_form", [0.1, 0.2, -0.3]), 1),
        (lambda: schmidt_mix(0.5, 0.3), 1),
        (lambda: werner(0.5), 2),  # the Bell projector, then the state
    ):
        calls.clear()
        assert isinstance(build(), DensityOperator)
        assert len(calls) == count


def test_standard_form_outside_tetrahedron():
    with pytest.raises(PositivityError) as err:
        standard_form_state((1.0, 1.0, 1.0))
    assert err.value.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)


# -- mixtures -----------------------------------------------------------------

def test_convex_combine_single_term():
    rho = werner(0.5)
    out = convex_combine([(1.0, rho)])
    assert np.allclose(out.matrix, rho.matrix)


def test_convex_combine_recovers_werner():
    out = convex_combine([(0.3, bell_state()), (0.7, maximally_mixed(4))])
    assert np.allclose(out.matrix, werner(0.3).matrix, atol=1e-15)


def test_convex_combine_product_states_correlation():
    rng = np.random.default_rng(19)
    pairs = [(random_pure(2, rng=rng), random_pure(2, rng=rng)) for _ in range(2)]
    rho = convex_combine(
        [(0.5, DensityOperator(np.kron(a.matrix, b.matrix))) for a, b in pairs]
    )
    f = fano_decompose(rho)
    expected = 0.5 * sum(
        np.outer(bloch_decode(a).m, bloch_decode(b).m) for a, b in pairs
    )
    assert np.allclose(f.C, expected, atol=1e-12)


def test_convex_combine_weight_errors():
    rho = maximally_mixed(4)
    with pytest.raises(NormalizationError):
        convex_combine([(0.6, rho), (0.6, rho)])
    with pytest.raises(NormalizationError):
        convex_combine([(-0.2, rho), (1.2, rho)])
    with pytest.raises(ShapeError):
        convex_combine([(0.5, rho), (0.5, maximally_mixed(9))])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_convex_combine_always_valid(raw_weights, seed):
    rng = np.random.default_rng(seed)
    weights = np.array(raw_weights) / np.sum(raw_weights)
    states = [random_density(4, rng=rng) for _ in raw_weights]
    out = convex_combine(list(zip(weights, states)))
    assert out.dim == 4  # construction itself re-validates all invariants


# -- state files --------------------------------------------------------------

def test_state_file_round_trip(tmp_path):
    rho = schmidt_mix(0.4, 0.7)
    path = tmp_path / "state.json"
    save_state(rho, path)
    loaded = load_state(path)
    assert np.array_equal(loaded.matrix, rho.matrix)


def test_state_file_structural_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2}))
    with pytest.raises(FormatError):
        load_state(path)
    with pytest.raises(FormatError):
        state_from_dict({"dim": 2, "matrix": [[1.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(FormatError):
        state_from_dict({"dim": "2", "matrix": []})
    # entries that are not [re, im] pairs of floats
    for entry in ([10**400, 0.0], {"re": 0.0, "im": 0.0}, [0.0, "1"]):
        with pytest.raises(FormatError):
            state_from_dict({"dim": 2, "matrix": [[entry, [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})


def test_state_file_invariant_violation(tmp_path):
    doc = {
        "dim": 2,
        "matrix": [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    }
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NormalizationError):
        load_state(path)


@pytest.mark.parametrize(
    "dim,rank,name",
    [
        (4, 0, "rank"),
        (4, -1, "rank"),
        (4, 1.5, "rank"),
        (4, True, "rank"),
        (0, None, "dim"),
        (True, None, "dim"),
    ],
)
def test_random_density_refuses_a_non_positive_size(dim, rank, name):
    with pytest.raises(DomainError, match=f"{name} must be an integer >= 1"):
        random_density(dim, rank=rank, rng=np.random.default_rng(0))

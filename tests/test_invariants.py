"""Physics invariants of the quantities and of the separability cascade, as seeded property tests.

The batching tests show that stacks equal single matrices and the
acceptance checks pin closed forms; these properties hold off the
closed-form families too, so they catch a numeric rewrite that is
self-consistent but wrong.  Hypothesis runs with a fixed seed and few
examples.
"""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from entmoment.entanglement import (
    SEPARABLE,
    _Evaluation,
    classify,
    concurrence_variant,
    concurrence_wootters,
    d_measure,
    tr_rho_rhotilde,
)
from entmoment.states import (
    partial_transpose,
    purity,
    random_density,
    random_unitary,
    validate_densities,
)
from entmoment.sweep import QUANTITIES

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _random_state(rng):
    return random_density(4, rank=int(rng.integers(1, 5)), rng=rng).matrix


def _random_channel(rng, kraus_count):
    """Kraus operators of a random qubit channel: the 2x2 blocks of a random isometry."""
    g = rng.standard_normal((2 * kraus_count, 2)) + 1j * rng.standard_normal((2 * kraus_count, 2))
    return np.linalg.qr(g)[0].reshape(kraus_count, 2, 2)


def _hermitian(m):
    return (m + np.swapaxes(m, -1, -2).conj()) / 2


@seed(20001)
@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_quantities_are_local_unitary_invariant(state_seed):
    rng = np.random.default_rng(state_seed)
    rho = _random_state(rng)
    u = np.kron(random_unitary(2, rng=rng), random_unitary(2, rng=rng))
    pair = np.stack([rho, _hermitian(u @ rho @ u.conj().T)])
    quantities = (concurrence_wootters, concurrence_variant, tr_rho_rhotilde, d_measure, purity)
    for values in (quantity(pair) for quantity in quantities):
        assert abs(values[0] - values[1]) < 1e-12


@seed(20002)
@settings(max_examples=30, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_concurrence_does_not_increase_under_local_channels(state_seed, count_a, count_b):
    """Local channels are LOCC, and the concurrence is an entanglement monotone
    (Vidal, J. Mod. Opt. 47, 355 (2000)).

    ``d_measure`` is only the paper's candidate, and it is not monotone:
    :func:`test_d_measure_rises_under_a_local_channel` pins a separable state and
    a local channel that raise it by 0.041.  d is 1/2 on pure product states and
    lower on mixed ones.
    """
    rng = np.random.default_rng(state_seed)
    rho = _random_state(rng)
    ops = [
        np.kron(a, b) for a in _random_channel(rng, count_a) for b in _random_channel(rng, count_b)
    ]
    image = _hermitian(sum(k @ rho @ k.conj().T for k in ops))
    assert concurrence_wootters(image) <= concurrence_wootters(rho) + 1e-12


@seed(20006)
@settings(max_examples=30, deadline=None)
@given(SEEDS, st.floats(min_value=0.0, max_value=1.0))
def test_concurrence_is_convex_under_mixing(state_seed, p):
    """C(p rho + (1 - p) sigma) <= p C(rho) + (1 - p) C(sigma) for the Wootters concurrence.

    The no-square-root variant is not convex: a probe of 2,000 pairs built as
    here, with ``default_rng(2026)`` and p uniform, found 281 mixtures above the
    bound, by up to 0.12, so no property asserts it; the largest is pinned in
    :func:`test_concurrence_variant_is_not_convex`.
    """
    rng = np.random.default_rng(state_seed)
    rho, sigma = _random_state(rng), _random_state(rng)
    c = concurrence_wootters(np.stack([_hermitian(p * rho + (1 - p) * sigma), rho, sigma]))
    assert c[0] <= p * c[1] + (1 - p) * c[2] + 1e-12


# -- the paper's monotone candidates: pinned counterexamples -------------------------
#
# Each literal was found once by a seeded search and is checked here as it stands.
#
# A separable, full-rank state and a local channel, two Kraus operators on each qubit,
# under which d_measure rises by 0.041.  Search: default_rng(2027), 2,000 draws, each
# a random_density state of uniform rank 1..4, then both Kraus counts (1..4), then the
# channel of each qubit as in _random_channel; 8 draws raised d, this one the most.
D_STATE = np.array([
    [
        (0.15540188695542576+0j), (0.00806939353078363-0.003989833671906607j),
        (-0.08959544839062612+0.02150071975985031j), (0.005588686761829515+0.13351992636045223j),
    ],
    [
        (0.00806939353078363+0.003989833671906607j), (0.14496485424034672+0j),
        (0.00047015178352812815-0.07899009255699913j), (-0.017732412556214057-0.03119100086631743j),
    ],
    [
        (-0.08959544839062612-0.02150071975985031j), (0.00047015178352812815+0.07899009255699913j),
        (0.26936480977824867+0j), (-0.0037295707373636677-0.0436270891994081j),
    ],
    [
        (0.005588686761829515-0.13351992636045223j), (-0.017732412556214057+0.03119100086631743j),
        (-0.0037295707373636677+0.0436270891994081j), (0.4302684490259788+0j),
    ],
])
D_KRAUS_A = np.array([
    [
        [(-0.42880582199222994-0.07059107522881394j), (0.25417328119789373-0.7852673614836337j)],
        [
            (-0.018132394939437045-0.020331203404760547j),
            (-0.23592142474221556-0.25881364937591617j),
        ],
    ],
    [
        [(-0.8538047313524144+0.06612112557933929j), (-0.07738874827830551+0.36845973863562503j)],
        [(0.018830532813993297+0.2769317859180782j), (0.15072630915644292-0.17786981961679876j)],
    ],
])
D_KRAUS_B = np.array([
    [
        [(-0.41495657445054124+0.5011985297590615j), (0.031661570383211594+0.3187904681824702j)],
        [(0.45080158442186347+0.4136051061032365j), (-0.06407122146705704+0.2416791061089288j)],
    ],
    [
        [(-0.008422149190067132-0.3910618342390205j), (0.40805291034555446+0.3427958646273672j)],
        [(-0.21723427240798135+0.046138951783751034j), (0.4880567113499505+0.5591428571180611j)],
    ],
])

# Two pure states and a weight p whose mixture has a larger no-square-root variant
# than the mixture of their values, by 0.119.  Search: default_rng(2026), 2,000 draws,
# each two random_density states of uniform rank 1..4 and p uniform in [0, 1]; 281
# draws broke convexity, this one the most.  The kets are the states' eigenvectors.
VARIANT_KET_RHO = np.array([
    (0.7956947896787042+0j),
    (-0.3304444465862715+0.49011130733731406j),
    (0.08069880104814289+0.08766211768530772j),
    (0.03905750188591858-0.04177013283813218j),
])
VARIANT_KET_SIGMA = np.array([
    (0.1050962878212787+0j),
    (-0.193610361342322+0.09854577844332409j),
    (0.9135889845636832+0.03212740774469695j),
    (0.10943454651588133-0.3067663684344312j),
])
VARIANT_P = 0.44945513058442277


def test_d_measure_rises_under_a_local_channel():
    rho = validate_densities(D_STATE[None])[0]
    ops = [np.kron(a, b) for a in D_KRAUS_A for b in D_KRAUS_B]
    assert np.abs(sum(k.conj().T @ k for k in ops) - np.eye(4)).max() < 1e-12
    image = validate_densities(_hermitian(sum(k @ rho @ k.conj().T for k in ops))[None])[0]
    assert d_measure(image) - d_measure(rho) > 1e-3


def test_concurrence_variant_is_not_convex():
    p = VARIANT_P
    pure = [np.outer(ket, ket.conj()) for ket in (VARIANT_KET_RHO, VARIANT_KET_SIGMA)]
    rho, sigma = validate_densities(np.stack(pure))
    mix = validate_densities(_hermitian(p * rho + (1 - p) * sigma)[None])[0]
    c = concurrence_variant(np.stack([mix, rho, sigma]))
    assert c[0] - (p * c[1] + (1 - p) * c[2]) > 1e-3


@seed(20003)
@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_verdict_and_quantities_are_local_unitary_invariant(state_seed):
    rng = np.random.default_rng(state_seed)
    rho = _random_state(rng)
    u = np.kron(random_unitary(2, rng=rng), random_unitary(2, rng=rng))
    pair = np.stack([rho, _hermitian(u @ rho @ u.conj().T)])
    names = ("f2_linear", "f2_covariance", "linear_entropy", "kyfan_c", "verdict")
    ev = _Evaluation(pair, names)
    for name in names:
        values = QUANTITIES[name](ev)
        assert abs(values[0] - values[1]) < 1e-12
    code, witnesses, _ = ev.cascade
    assert code[0] == code[1]
    # omega_max, the largest |Omega_jk|, is not invariant: local unitaries rotate Omega.
    for name in ("c_kyfan", "sufficient_value", "bloch_norm_a", "bloch_norm_b", "pt_min_eigenvalue"):
        assert np.allclose(witnesses[name][0], witnesses[name][1], rtol=0.0, atol=1e-12, equal_nan=True)


@seed(20004)
@settings(max_examples=30, deadline=None)
@given(SEEDS, st.sampled_from([2, 3, 4]), st.floats(min_value=0.0, max_value=0.99))
def test_sufficient_separable_verdicts_are_ppt(state_seed, n, fraction):
    # The sufficient value is homogeneous of degree 1 in the mixing weight p of
    # p rho + (1 - p) 1/d, so p = fraction / value(rho) puts it at ``fraction`` <= 0.99
    # and the criterion fires; separability then needs a positive partial transpose.
    rng = np.random.default_rng(state_seed)
    dim = n * n
    rho = random_density(dim, rank=int(rng.integers(1, dim + 1)), rng=rng).matrix
    p = min(1.0, fraction / classify(rho).witnesses["sufficient_value"])
    mixed = p * rho + (1 - p) * np.eye(dim) / dim
    verdict = classify(mixed)
    assert (verdict.status, verdict.decided_by) == (SEPARABLE, "devicente_sufficient")
    assert np.linalg.eigvalsh(partial_transpose(mixed)).min() >= -1e-9


@seed(20005)
@settings(max_examples=30, deadline=None)
@given(SEEDS, st.floats(min_value=0.01, max_value=1.0))
def test_necessary_entangled_verdicts_are_npt(state_seed, fraction):
    # p |psi><psi| + (1 - p) 1/4 has raw Ky Fan norm p K with K = 1 + 2 sin(2a) for a
    # pure psi of Schmidt angle a, so p between 1/K and 1 violates the bound 1.
    rng = np.random.default_rng(state_seed)
    rho = _random_state(rng)
    if classify(rho).decided_by == "devicente_necessary":
        assert np.linalg.eigvalsh(partial_transpose(rho)).min() < 0.0
    psi = random_density(4, rank=1, rng=rng).matrix
    kyfan = classify(psi).witnesses["c_kyfan"]
    if kyfan < 1.001:  # nearly product: no p violates the bound by a resolvable margin
        return
    p = 1.0 / kyfan + fraction * (1.0 - 1.0 / kyfan)
    mixed = p * psi + (1 - p) * np.eye(4) / 4
    assert classify(mixed).decided_by == "devicente_necessary"
    assert np.linalg.eigvalsh(partial_transpose(mixed)).min() < 0.0

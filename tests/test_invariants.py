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
    DEFAULT_TOL,
    SEPARABLE,
    _cascade,
    classify,
    concurrence_wootters,
    concurrences,
    d_measure,
    tr_rho_rhotilde,
)
from entmoment.states import partial_transpose, purity, random_density, random_unitary
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
    for values in (*concurrences(pair), tr_rho_rhotilde(pair), d_measure(pair), purity(pair)):
        assert abs(values[0] - values[1]) < 1e-12


@seed(20002)
@settings(max_examples=30, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_concurrence_does_not_increase_under_local_channels(state_seed, count_a, count_b):
    # Local channels are LOCC, and the concurrence is an entanglement monotone
    # (Vidal, J. Mod. Opt. 47, 355 (2000)).
    rng = np.random.default_rng(state_seed)
    rho = _random_state(rng)
    ops = [
        np.kron(a, b) for a in _random_channel(rng, count_a) for b in _random_channel(rng, count_b)
    ]
    image = _hermitian(sum(k @ rho @ k.conj().T for k in ops))
    assert concurrence_wootters(image) <= concurrence_wootters(rho) + 1e-12


@seed(20003)
@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_verdict_and_quantities_are_local_unitary_invariant(state_seed):
    rng = np.random.default_rng(state_seed)
    rho = _random_state(rng)
    u = np.kron(random_unitary(2, rng=rng), random_unitary(2, rng=rng))
    pair = np.stack([rho, _hermitian(u @ rho @ u.conj().T)])
    for name in ("f2_linear", "f2_covariance", "linear_entropy", "kyfan_c", "verdict"):
        values = QUANTITIES[name](pair)
        assert abs(values[0] - values[1]) < 1e-12
    status, decided_by, witnesses = _cascade(pair, DEFAULT_TOL)
    assert status[0] == status[1] and decided_by[0] == decided_by[1]
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

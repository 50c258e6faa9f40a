"""Acceptance checks: closed-form anchors and statistical property suites.

Each criterion is a standalone function returning (passed, detail); the
CLI ``selftest`` verb and the pytest acceptance module both run this
list.  Random suites use fixed seeds so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import basis_matrices, generate_basis
from .entanglement import (
    ENTANGLED,
    SEPARABLE,
    VERDICT_CODE,
    _DECIDERS,
    _Evaluation,
    concurrence_variant,
    concurrence_wootters,
    octahedron_check,
    ppt_check,
    purity,
    tr_rho_rhotilde,
    werner_ltilde_signature,
)
from .linalg import hermitian_eigenvalues
from .states import (
    _random_matrix,
    bloch_decode,
    maximally_mixed,
    partial_trace,
    partial_transpose,
    random_unitary,
    schmidt_mix,
    standard_form_state,
    validate_densities,
    werner,
)
from .sweep import FAMILIES, AxisSpec, SweepGrid, grid_sweep, wedge_field
from .tensors import (
    defining_representation,
    fano_compose,
    fano_decompose,
    product_representation,
    quadratic_invariant,
    split_sym_antisym,
    tensor_coefficients,
)

SEED = 20260808

TETRAHEDRON_VERTICES = np.array(
    [[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]]
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


# -- frozen closed forms -------------------------------------------------------
# Those in x and a take one value or an array of values.

# The off-diagonal pattern of the Werner coefficient matrix: +x, -x, +x between A and B.
_WERNER_L_PATTERN = np.kron([[0.0, 1.0], [1.0, 0.0]], np.diag([1.0, -1.0, 1.0]))


def werner_l_expected(x) -> np.ndarray:
    """6x6 symmetric coefficient matrix of the Werner family (a stack for an array of x)."""
    return np.eye(6) + np.asarray(x, dtype=float)[..., None, None] * _WERNER_L_PATTERN


def f2_linear_closed(x):
    return 6.0 * (x * x + 1.0)


def f2_covariance_closed(x, a):
    return (
        2.0 * np.cos(4 * a) * x**4
        + 0.5 * np.cos(8 * a) * x**4
        + 1.5 * x**4
        - 2.0 * np.cos(4 * a) * x**3
        - 2.0 * x**3
        - 2.0 * np.cos(4 * a) * x**2
        + 4.0 * x**2
        + 6.0
    )


def concurrence_werner_closed(x):
    return np.maximum(0.0, (3.0 * x - 1.0) / 2.0)


def concurrence_schmidt_closed(x, a):
    return np.maximum(0.0, x * np.sin(2.0 * a) - (1.0 - x) / 2.0)


def concurrence_variant_closed(x, a):
    inner = -(x**2) * (2.0 * np.cos(4 * a) * x**2 + (x - 2.0) * x - 1.0) * np.sin(2 * a) ** 2
    root = 0.5 * np.sqrt(np.maximum(inner, 0.0))
    return np.maximum(-(x**2) / 8.0 + x / 4.0 + root - 1.0 / 8.0, 0.0)


def sl_invariant_rhs(state):
    """(1 - sum m^2 - sum n^2 + sum C^2) / 4 from the Fano coefficients (per state of a stack)."""
    f = fano_decompose(state)
    return (
        1.0 - np.vecdot(f.mvec, f.mvec) - np.vecdot(f.nvec, f.nvec) + np.sum(f.C * f.C, (-2, -1))
    ) / 4.0


# The paper's axes: the mixing parameter x in [0, 1], the Schmidt angle alpha in [0, pi/2].
_AXIS_RANGES = {"x": (0.0, 1.0), "alpha": (0.0, np.pi / 2.0)}


def _random_densities(rng, dim: int, ranks) -> np.ndarray:
    """A loop of ``random_density(dim, rank, rng)`` over ``ranks`` (which may draw each
    rank from ``rng`` just before its matrix), validated as one stack."""
    return validate_densities(np.stack([_random_matrix(dim, rank, rng) for rank in ranks]))


def _sweep_columns(family: str, count: int, *quantities: str) -> np.ndarray:
    """Columns of a sweep of ``family``, ``count`` points per axis: axes, then ``quantities``."""
    axes = tuple(AxisSpec(name, *_AXIS_RANGES[name], count) for name in FAMILIES[family][0])
    return grid_sweep(SweepGrid(family, axes, quantities)).rows.T


def _max_dev(values, expected) -> float:
    return float(np.max(np.abs(values - expected)))


# -- criteria ------------------------------------------------------------------

def check_werner_threshold() -> tuple[bool, str]:
    x, verdict, kyfan = _sweep_columns("werner", 101, "verdict", "kyfan_c")
    ok = np.array_equal(verdict == VERDICT_CODE[SEPARABLE], x <= 1.0 / 3.0 + 1e-9)
    worst_kf = _max_dev(kyfan, 3.0 * x)
    ok &= worst_kf <= 1e-10
    return ok, f"threshold exact on 101 points; max |kyfan - 3x| = {worst_kf:.2e}"


def check_werner_l_matrix() -> tuple[bool, str]:
    xs = np.array([0.2, 0.7])
    coefficients = tensor_coefficients(werner(xs), product_representation(2), order=2)
    l, _ = split_sym_antisym(coefficients)
    worst = _max_dev(l, werner_l_expected(xs))
    return worst <= 1e-12, f"max entrywise deviation {worst:.2e} (tol 1e-12)"


def check_ltilde_spectrum() -> tuple[bool, str]:
    worst = 0.0
    for x in (0.0, 1.0 / 3.0, 0.5, 1.0):
        sig = werner_ltilde_signature(x)
        expected = np.sort(np.array([1.0 - 3.0 * x] * 3 + [1.0 - x] * 3))
        worst = max(worst, _max_dev(sig.eigenvalues, expected))
    return worst <= 1e-10, f"max eigenvalue deviation {worst:.2e} (tol 1e-10)"


def check_f2_linear_closed_form() -> tuple[bool, str]:
    x, f2 = _sweep_columns("werner", 21, "f2_linear")
    xs, _, f2s = _sweep_columns("schmidt", 21, "f2_linear")
    worst = max(_max_dev(f2, f2_linear_closed(x)), _max_dev(f2s, f2_linear_closed(xs)))
    return worst <= 1e-10, f"max deviation from 6(x^2+1): {worst:.2e} (tol 1e-10)"


def check_f2_covariance_closed_form() -> tuple[bool, str]:
    x, a, f2 = _sweep_columns("schmidt", 21, "f2_covariance")
    worst = _max_dev(f2, f2_covariance_closed(x, a))
    # The Bell state (alpha = pi/4) and the product state (alpha = 0).
    spot = quadratic_invariant(schmidt_mix([1.0, 1.0], [np.pi / 4.0, 0.0]), "covariance")
    spots = _max_dev(spot, np.array([12.0, 8.0]))
    ok = worst <= 1e-9 and spots <= 1e-9
    return ok, f"max grid deviation {worst:.2e}; spot deviations {spots:.2e} (tol 1e-9)"


def check_concurrence_wootters() -> tuple[bool, str]:
    x, c = _sweep_columns("werner", 21, "concurrence_wootters")
    xs, a, cs = _sweep_columns("schmidt", 21, "concurrence_wootters")
    worst = max(
        _max_dev(c, concurrence_werner_closed(x)), _max_dev(cs, concurrence_schmidt_closed(xs, a))
    )
    return worst <= 1e-9, f"max deviation from closed forms {worst:.2e} (tol 1e-9)"


def check_concurrence_variant() -> tuple[bool, str]:
    x, a, c = _sweep_columns("schmidt", 21, "concurrence_variant")
    worst = _max_dev(c, concurrence_variant_closed(x, a))
    return worst <= 1e-9, f"max deviation from closed form {worst:.2e} (tol 1e-9)"


def check_identity_suite() -> tuple[bool, str]:
    rng = np.random.default_rng(SEED)
    rhos = _random_densities(rng, 4, [4] * 1000)
    trt = tr_rho_rhotilde(rhos)
    worst_sl = _max_dev(4.0 * trt, 4.0 * sl_invariant_rhs(rhos))
    l, om = split_sym_antisym(tensor_coefficients(rhos, product_representation(2), order=2))
    sl, so = np.sum(l * l, (-2, -1)), np.sum(om * om, (-2, -1))
    worst_tangle = max(
        _max_dev((sl + so) / 8.0 - 0.5, purity(rhos)), _max_dev((sl - so) / 8.0 - 0.5, trt)
    )
    worst_fano = _max_dev(fano_compose(fano_decompose(rhos)), rhos)
    worst = max(worst_sl, worst_tangle, worst_fano)
    return worst <= 1e-10, (
        f"1000 states: flip-overlap id {worst_sl:.2e}, purity/overlap ids "
        f"{worst_tangle:.2e}, Fano round trip {worst_fano:.2e} (tol 1e-10)"
    )


def check_ppt_octahedron_agreement() -> tuple[bool, str]:
    rng = np.random.default_rng(SEED + 9)
    d = np.array([rng.dirichlet((1.0, 1.0, 1.0, 1.0)) @ TETRAHEDRON_VERTICES for _ in range(1000)])
    octa = octahedron_check(d)
    tested = np.abs(octa.l1 - 1.0) >= 1e-9
    ppt = ppt_check(standard_form_state(d))
    bad = np.flatnonzero(tested & (octa.separable != ppt.separable))
    if bad.size:
        return False, f"disagreement at d={tuple(d[bad[0]])}"
    return True, f"exact agreement on {np.count_nonzero(tested)} of 1000 tetrahedron points"


def check_local_unitary_invariance() -> tuple[bool, str]:
    rng = np.random.default_rng(SEED + 10)
    rhos, u = np.empty((2, 100, 4, 4), dtype=complex)
    for i in range(100):
        rhos[i] = _random_matrix(4, 4, rng)
        u[i] = np.kron(random_unitary(2, rng=rng), random_unitary(2, rng=rng))
    rhos = validate_densities(rhos)
    rotated = validate_densities(u @ rhos @ u.conj().swapaxes(-1, -2))
    quantities = (
        lambda r: quadratic_invariant(r, "linear"),
        lambda r: quadratic_invariant(r, "covariance"),
        concurrence_wootters,
        concurrence_variant,
    )
    worst = max(_max_dev(q(rhos), q(rotated)) for q in quantities)
    return worst <= 1e-9, f"max |q(rho) - q(U rho U^H)| = {worst:.2e} (tol 1e-9)"


def _norms(v) -> np.ndarray:
    """|v| over the last axis; sqrt(v . v) is bitwise the 1-D np.linalg.norm(v)."""
    return np.sqrt(np.vecdot(v, v))


def _omega_max(states, rep) -> np.ndarray:
    """Largest |Omega| entry of each state of a stack (a 0-d array for one state)."""
    _, om = split_sym_antisym(tensor_coefficients(states, rep, order=2))
    return np.abs(om).max(axis=(-2, -1))


def check_bloch_norm_and_omega() -> tuple[bool, str]:
    rng = np.random.default_rng(SEED + 11)
    details = []
    ok = True
    for n in (2, 3, 4):
        bound = float(np.sqrt(n * (n - 1) / 2.0))
        rep = defining_representation(n)
        pure = _random_densities(rng, n, [1] * 500)
        worst_pure = _max_dev(_norms(bloch_decode(pure).m), bound)
        mixed = _random_densities(rng, n, (int(rng.integers(2, n + 1)) for _ in range(500)))
        m = bloch_decode(mixed).m
        norms = _norms(m)
        min_margin = float(np.min(bound - norms))
        _, om = split_sym_antisym(tensor_coefficients(mixed, rep, order=2))
        worst_id = _max_dev(om, (2.0 / n) * np.einsum("jkl,...l->...jk", generate_basis(n).c, m))
        omega_matches = np.array_equal(np.abs(om).max(axis=(-2, -1)) > 1e-9, norms > 1e-9)
        ok &= worst_pure <= 1e-10 and float(_omega_max(maximally_mixed(n), rep)) <= 1e-14
        ok &= min_margin > 1e-6 and worst_id <= 1e-10 and omega_matches
        # Bipartite reading: product-representation Omega vanishes exactly
        # when both reductions are maximally mixed.
        prep = product_representation(n)
        phi = np.zeros(n * n, dtype=complex)
        phi[:: n + 1] = 1.0 / np.sqrt(n)
        x = np.array([0.0, 0.3, 0.7, 1.0])[:, None, None]
        iso = x * np.outer(phi, phi.conj()) + (1.0 - x) * np.eye(n * n, dtype=complex) / (n * n)
        ok &= bool(np.all(_omega_max(validate_densities(iso), prep) <= 1e-12))
        rhos = _random_densities(rng, n * n, [n * n] * 500)
        reduced = np.maximum(*(_norms(bloch_decode(partial_trace(rhos, s)).m) for s in "AB"))
        ok &= np.array_equal(_omega_max(rhos, prep) > 1e-9, reduced > 1e-9)
        details.append(
            f"n={n}: pure-norm dev {worst_pure:.2e}, mixed margin {min_margin:.3f}, "
            f"omega id {worst_id:.2e}"
        )
    return ok, "; ".join(details)


def check_wedge_regions() -> tuple[bool, str]:
    count = 101
    grid = SweepGrid(
        family="schmidt",
        axes=(AxisSpec("x", 0.0, 1.0, count), AxisSpec("alpha", 0.0, np.pi / 2.0, count)),
        quantities=("concurrence_variant", "d_measure"),
    )
    table = grid_sweep(grid)
    wedge_table = wedge_field(grid, "concurrence_variant", "d_measure", table=table)
    c = table.rows[:, 2].reshape(count, count)
    wedge = wedge_table.rows[:, 2].reshape(count - 2, count - 2)
    zero_stencil = (
        (c[1:-1, 1:-1] == 0.0)
        & (c[2:, 1:-1] == 0.0)
        & (c[:-2, 1:-1] == 0.0)
        & (c[1:-1, 2:] == 0.0)
        & (c[1:-1, :-2] == 0.0)
    )
    if not zero_stencil.any():
        return False, "no interior region with vanishing concurrence found"
    zero_max = float(np.max(np.abs(wedge[zero_stencil])))
    global_max = float(np.max(np.abs(wedge)))
    ok = zero_max < 1e-6 and global_max > 1e-3
    return ok, (
        f"zero-region max |wedge| = {zero_max:.2e} over {int(zero_stencil.sum())} "
        f"points (tol 1e-6); global max |wedge| = {global_max:.3e} (> 1e-3)"
    )


def _statuses(rhos) -> np.ndarray:
    """The cascade's status of each state of a stack, validated first."""
    code = _Evaluation(validate_densities(rhos)).cascade[0]
    return np.array([_DECIDERS[c][0] for c in code])


def _weyl_bell_projectors(n: int) -> np.ndarray:
    """The n^2 projectors on (X^k Z^l x 1)|phi+>, |phi+> = sum_j |jj> / sqrt(n), with the
    shift X|j> = |j+1 mod n> and the clock Z|j> = w^j |j>, w = exp(2 pi i / n)."""
    j = np.arange(n)
    kets = np.zeros((n, n, n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            kets[k, l, (j + k) % n, j] = np.exp(2j * np.pi * l * j / n) / np.sqrt(n)
    kets = kets.reshape(n * n, n * n)
    return kets[:, :, None] * kets.conj()[:, None, :]


def check_qudit_cascade() -> tuple[bool, str]:
    """n >= 3: on the isotropic line the necessary test flags exactly the entangled
    states and the sufficient test certifies exactly those below its bound, and nothing
    NPT is certified separable.

    The isotropic state p |phi+><phi+| + (1-p) I/n^2 has no local vectors, and its
    Fano block is p (n/2) times a diagonal sign matrix of size n^2 - 1, whose Ky Fan
    norm is p(n+1)n(n-1)/2.  The necessary value (4/n^2) of that exceeds 2(n-1)/n
    exactly for p > 1/(n+1); the sufficient value (2(n-1)/n) times it is
    p(n+1)(n-1)^2, at most 1 exactly for p <= 1/((n+1)(n-1)^2): 1/16 at n = 3,
    1/45 at n = 4.
    """
    rng = np.random.default_rng(SEED + 13)
    ok = True
    details = []
    for n in (3, 4):
        d = n * n
        bell = _weyl_bell_projectors(n)
        necessary, sufficient = 1.0 / (n + 1), 1.0 / ((n + 1) * (n - 1) ** 2)
        # 101 points of [0, 1] and two either side of each threshold.
        edges = np.add.outer([necessary, sufficient], [-1e-6, 1e-6])
        p = np.append(np.linspace(0.0, 1.0, 101), edges)
        status = _statuses(p[:, None, None] * bell[0] + (1.0 - p[:, None, None]) * np.eye(d) / d)
        ok &= np.array_equal(status == ENTANGLED, p > necessary + 1e-9)
        ok &= np.array_equal(status == SEPARABLE, p <= sufficient)
        # Weyl-diagonal states, mixed towards I/d by a uniform amount.
        weights = rng.dirichlet(np.ones(d), size=500)
        x = rng.uniform(size=(500, 1))
        rhos = np.einsum("bk,kij->bij", x * weights + (1.0 - x) / d, bell)
        certified = _statuses(rhos) == SEPARABLE
        npt = hermitian_eigenvalues(partial_transpose(rhos))[:, 0] < -1e-9
        both = np.count_nonzero(certified & npt)
        ok &= both == 0 and certified.any() and npt.any()
        details.append(
            f"n={n}: isotropic entangled exactly for p > 1/{n + 1} and certified up to "
            f"p = {p[status == SEPARABLE].max():.4g} on 105 points; "
            f"500 Weyl mixtures, {np.count_nonzero(certified)} certified separable, "
            f"{np.count_nonzero(npt)} NPT, {both} both"
        )
    # The literal qutrit state with vanishing Omega and an NPT partial transpose
    # (l4, l5, l8 are sigma[2], sigma[5], sigma[8] of this package's basis).
    s = basis_matrices(3)
    qutrit = np.eye(9) / 9 + (np.kron(s[2], s[2]) + np.kron(s[5], s[5]) - np.kron(s[8], s[8])) / 20
    low = hermitian_eigenvalues(partial_transpose(qutrit))[0]
    status = _statuses(qutrit[None])[0]
    ok &= low < -1e-9 and status != SEPARABLE
    details.append(f"qutrit state with partial-transpose eigenvalue {low:.3f}: {status}")
    return bool(ok), "; ".join(details)


CRITERIA = (
    (1, "werner-separability-threshold", check_werner_threshold),
    (2, "werner-symmetric-coefficients", check_werner_l_matrix),
    (3, "werner-signflip-spectrum", check_ltilde_spectrum),
    (4, "quadratic-invariant-linear", check_f2_linear_closed_form),
    (5, "quadratic-invariant-covariance", check_f2_covariance_closed_form),
    (6, "concurrence-wootters", check_concurrence_wootters),
    (7, "concurrence-variant", check_concurrence_variant),
    (8, "two-qubit-identity-suite", check_identity_suite),
    (9, "ppt-octahedron-agreement", check_ppt_octahedron_agreement),
    (10, "local-unitary-invariance", check_local_unitary_invariance),
    (11, "bloch-norm-and-antisymmetric-part", check_bloch_norm_and_omega),
    (12, "wedge-field-regions", check_wedge_regions),
    (13, "qudit-cascade-soundness", check_qudit_cascade),
)


def run_criterion(number: int) -> CriterionResult:
    for num, name, func in CRITERIA:
        if num == number:
            passed, detail = func()
            return CriterionResult(number=num, name=name, passed=passed, detail=detail)
    raise KeyError(f"no acceptance criterion numbered {number}")


def run_all(numbers=None) -> list[CriterionResult]:
    """The selected criteria (all when ``numbers`` is empty), in their numbered order."""
    return [run_criterion(num) for num, _, _ in CRITERIA if not numbers or num in numbers]

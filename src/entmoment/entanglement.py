"""Entanglement monotones and separability criteria for bipartite states.

Necessary criteria flag entanglement when violated, sufficient criteria
certify separability when satisfied; for two qubits the partial-transpose
test decides every state (Peres, PRL 77, 1413 (1996); Horodecki x3, 1996).
Each scalar quantity takes one matrix and returns a float, or a stack
``(B, d, d)`` and returns its ``(B,)`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CrossCheckError, DimensionError, DomainError
from .linalg import _gram, hermitian_eigenvalues, psd_sqrt, singular_values
from .states import (
    _per_state,
    as_matrix,
    bell_state,
    maximally_mixed,
    partial_transpose,
    spin_flip_matrix,
    standard_form_state,
)
from .tensors import (
    FanoForm,
    moments,
    product_representation,
    quadratic_invariant,
    representation_for,
    split_sym_antisym,
    tensor_coefficients,
)

SEPARABLE = "separable"
ENTANGLED = "entangled"
UNDECIDED = "undecided"

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of the criterion cascade.

    ``status`` is separable/entangled/undecided; ``decided_by`` names the
    first criterion that settled it; ``witnesses`` records every scalar
    that was evaluated along the way.
    """

    status: str
    decided_by: str | None
    witnesses: dict


class NecessaryResult(NamedTuple):
    passes: bool
    value: float
    bound: float


class SufficientResult(NamedTuple):
    passes: bool
    value: float


class OmegaResult(NamedTuple):
    applicable: bool
    passes: bool


class PptResult(NamedTuple):
    separable: bool
    min_eigenvalue: float


class OctahedronResult(NamedTuple):
    separable: bool
    l1: float


class _Evaluation(NamedTuple):
    fano: FanoForm
    omega_max: float
    necessary: NecessaryResult
    sufficient: SufficientResult
    omega: OmegaResult


class LtildeSignature(NamedTuple):
    eigenvalues: np.ndarray
    positive_definite: bool
    classification: str


def _require_two_qubits(state) -> np.ndarray:
    """The state's matrix (or stack of matrices), checked to be two-qubit."""
    rho = as_matrix(state)
    if rho.shape[-2:] != (4, 4):
        raise DimensionError(f"operation requires 4x4 matrices, got shape {rho.shape}")
    return rho


@_per_state
def kyfan_norm(c):
    """Ky Fan (trace) norm: the sum of the singular values of a matrix."""
    return singular_values(c).sum(axis=-1)


@_per_state
def tr_rho_rhotilde(rhos):
    """Overlap Tr(rho rho~) with the spin-flipped state."""
    rho = _require_two_qubits(rhos)
    return np.trace(rho @ spin_flip_matrix(rho), axis1=-2, axis2=-1).real


def _largest_minus_rest(v: np.ndarray) -> np.ndarray:
    """max(0, v1 - v2 - v3 - v4) over descending values ``(..., 4)``."""
    return np.maximum(0.0, v[..., 0] - v[..., 1] - v[..., 2] - v[..., 3])


def _flip_product(rhos) -> np.ndarray:
    """X = sqrt(rho) sqrt(rho~) (sqrt commutes with the flip on PSD input)."""
    sq = psd_sqrt(_require_two_qubits(rhos))
    return sq @ spin_flip_matrix(sq)


@_per_state
def concurrence_wootters(rhos):
    """Two-qubit concurrence, Wootters convention (PRL 80, 2245 (1998)).

    max(0, l1 - l2 - l3 - l4) over the descending singular values of
    sqrt(rho) sqrt(rho~), the square roots of the eigenvalues of rho rho~.
    """
    return _largest_minus_rest(singular_values(_flip_product(rhos)))


@_per_state
def concurrence_variant(rhos):
    """No-square-root convention: eigenvalues of rho rho~ used directly.

    Largest-minus-rest of the eigenvalues (clipped at 0) of the Gram matrix
    X^H X of X = sqrt(rho) sqrt(rho~), the spectrum of rho rho~.
    """
    return _largest_minus_rest(np.clip(_gram(_flip_product(rhos), carry=False)[0], 0.0, None))


@_per_state
def concurrences(rhos):
    """(:func:`concurrence_wootters`, :func:`concurrence_variant`) from one Gram solve."""
    ev, lam = _gram(_flip_product(rhos))
    return _largest_minus_rest(lam), _largest_minus_rest(np.clip(ev, 0.0, None))


@_per_state
def d_measure(rhos):
    """Covariance-invariant analogue of the purity: f/8 - 1/2.

    f is the quadratic covariance invariant; the value is 1/2 on pure
    product states and 1 on Bell states.
    """
    return d_from_covariance_invariant(quadratic_invariant(_require_two_qubits(rhos), "covariance"))


def d_from_covariance_invariant(f2_covariance):
    """:func:`d_measure` from an already evaluated two-qubit covariance invariant."""
    return f2_covariance / 8.0 - 0.5


def correlation_block(state) -> np.ndarray:
    """A-B cross block of the order-2 coefficients.

    Entries are the raw traces Tr(rho sigma_j x sigma_k); for n=2 this is
    the Fano correlation matrix.
    """
    return moments(state, representation_for(state)).correlation_block()


def _criteria(state, tol: float) -> _Evaluation:
    """One moment evaluation and one Ky Fan solve feed all three criteria.

    The raw correlation block is (4/n^2) times the Fano C, so its Ky Fan
    norm is (4/n^2) ||C||_KF.
    """
    mom = moments(state, representation_for(state))
    f = mom.fano()
    n = f.n
    fano_kyfan = kyfan_norm(f.C)
    raw_kyfan = (4.0 / (n * n)) * fano_kyfan
    bound = n * (n - 1) / 2.0
    quad = 2.0 * (n - 1) / n
    value = np.sqrt(quad) * (
        float(np.linalg.norm(f.nvec)) + float(np.linalg.norm(f.mvec))
    ) + quad * fano_kyfan
    _, omega = split_sym_antisym(mom.second)
    omega_abs_max = float(np.max(np.abs(omega)))
    applicable = omega_abs_max < tol
    return _Evaluation(
        fano=f,
        omega_max=omega_abs_max,
        necessary=NecessaryResult(bool(raw_kyfan <= bound + tol), raw_kyfan, bound),
        sufficient=SufficientResult(bool(value <= 1.0 + tol), value),
        omega=OmegaResult(applicable, bool(applicable and quad * raw_kyfan <= 1.0 + tol)),
    )


def devicente_necessary(state, tol: float = DEFAULT_TOL) -> NecessaryResult:
    """Necessary criterion ||C||_KF <= n(n-1)/2 (de Vicente, QIC 7, 624 (2007)).

    C here is the raw-trace correlation block.  A violation certifies
    entanglement; passing decides nothing.
    """
    return _criteria(state, tol).necessary


def devicente_sufficient(state, tol: float = DEFAULT_TOL) -> SufficientResult:
    """Sufficient criterion sqrt(2(n-1)/n)(|n|+|m|) + (2(n-1)/n)||C||_KF <= 1.

    Satisfying the inequality certifies separability; failing it decides
    nothing.  Evaluated with the expansion-convention Fano coefficients.
    """
    return _criteria(state, tol).sufficient


def omega_sufficient(state, tol: float = DEFAULT_TOL) -> OmegaResult:
    """Sufficient criterion (2(n-1)/n)||C||_KF <= 1 for vanishing Omega.

    C here is the raw-trace correlation block.  Applicable only when the
    antisymmetric coefficients vanish, which is equivalent to both
    reduced states being maximally mixed.
    """
    return _criteria(state, tol).omega


def ppt_check(state, tol: float = DEFAULT_TOL) -> PptResult:
    """Positivity under partial transposition of one matrix; decisive for two qubits."""
    rho = _require_two_qubits(state)
    if rho.ndim != 2:
        raise DimensionError(f"ppt_check takes one 4x4 matrix, got shape {rho.shape}")
    w = hermitian_eigenvalues(partial_transpose(rho))
    return PptResult(separable=bool(w[0] >= -tol), min_eigenvalue=float(w[0]))


def octahedron_check(d, tol: float = DEFAULT_TOL) -> OctahedronResult:
    """Separability of the standard-form state: |d1| + |d2| + |d3| <= 1.

    The triple must lie inside the state tetrahedron.  The l1 value
    coincides with the Ky Fan norm of diag(d), which the implementation
    cross-checks.
    """
    d = np.asarray(d, dtype=float)
    standard_form_state(d)  # validates tetrahedron membership
    l1 = float(np.sum(np.abs(d)))
    kyfan = kyfan_norm(np.diag(d))
    if not abs(l1 - kyfan) < 1e-12:
        raise CrossCheckError(f"l1 norm {l1!r} differs from the Ky Fan norm {kyfan!r} of diag(d)")
    return OctahedronResult(separable=bool(l1 <= 1.0 + tol), l1=l1)


def werner_ltilde_signature(x: float) -> LtildeSignature:
    """Spectrum of the sign-flipped symmetric tensor for the Werner family.

    Built as -x L(bell) + (1-x) L(maximally mixed); its eigenvalues are
    1-3x (three-fold) and 1-x (three-fold), and positive definiteness of
    the combination is exactly the x < 1/3 separability condition, with
    x = 1/3 the positive-semidefinite boundary.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"parameter must lie in [0, 1], got {x}")
    rep = product_representation(2)
    l_bell, _ = split_sym_antisym(tensor_coefficients(bell_state(), rep, order=2))
    l_mixed, _ = split_sym_antisym(tensor_coefficients(maximally_mixed(4), rep, order=2))
    ltilde = -x * l_bell + (1.0 - x) * l_mixed
    w = hermitian_eigenvalues(ltilde)
    boundary = 1e-12
    if w[0] > boundary:
        cls = "positive definite"
    elif w[0] >= -boundary:
        cls = "positive semidefinite"
    else:
        cls = "indefinite"
    return LtildeSignature(
        eigenvalues=w, positive_definite=bool(w[0] > boundary), classification=cls
    )


def classify(state, tol: float = DEFAULT_TOL) -> SeparabilityVerdict:
    """Run the criterion cascade and return a three-valued verdict.

    Order: necessary criteria first (a violation settles Entangled), then
    sufficient ones (a pass settles Separable), then, for two qubits,
    the decisive partial-transpose test.
    """
    f, omega_abs_max, necessary, sufficient, omega = _criteria(state, tol)
    witnesses = {
        "c_kyfan": necessary.value,
        "necessary_bound": necessary.bound,
        "sufficient_value": sufficient.value,
        "bloch_norm_a": float(np.linalg.norm(f.nvec)),
        "bloch_norm_b": float(np.linalg.norm(f.mvec)),
        "omega_max": omega_abs_max,
        "tolerance": tol,
    }
    if not necessary.passes:
        return SeparabilityVerdict(ENTANGLED, "devicente_necessary", witnesses)
    if sufficient.passes:
        return SeparabilityVerdict(SEPARABLE, "devicente_sufficient", witnesses)
    if omega.applicable and omega.passes:
        return SeparabilityVerdict(SEPARABLE, "omega_sufficient", witnesses)
    if f.n == 2:
        ppt = ppt_check(state, tol)
        witnesses["pt_min_eigenvalue"] = ppt.min_eigenvalue
        status = SEPARABLE if ppt.separable else ENTANGLED
        return SeparabilityVerdict(status, "ppt", witnesses)
    return SeparabilityVerdict(UNDECIDED, None, witnesses)

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

from .errors import CrossCheckError, DimensionError, DomainError, ShapeError
from .linalg import (
    _check_hermitian,
    _gram,
    _gram_factor,
    _gram_values,
    _jacobi,
    _pivoted_cholesky,
    hermitian_eigenvalues,
    singular_values,
)
from .states import (
    _YY_SIGNS,
    _per_state,
    _tetrahedron_triples,
    as_matrix,
    bell_state,
    maximally_mixed,
    partial_transpose,
    spin_flip_matrix,
)
from .tensors import (
    moments,
    product_representation,
    quadratic_invariant,
    split_sym_antisym,
    tensor_coefficients,
)

SEPARABLE = "separable"
ENTANGLED = "entangled"
UNDECIDED = "undecided"

DEFAULT_TOL = 1e-9
# Largest gap allowed between octahedron_check's l1 value and its Ky Fan cross-check.
CROSS_CHECK_TOL = 1e-12
# werner_ltilde_signature calls a smallest eigenvalue within this of 0 semidefinite.
LTILDE_BOUNDARY_TOL = 1e-12

# (status, decided_by) by decider code: 0-2 the criterion that decided, 3 none,
# 4 + separable the partial-transpose test.
_DECIDERS = (
    (ENTANGLED, "devicente_necessary"),
    (SEPARABLE, "devicente_sufficient"),
    (SEPARABLE, "omega_sufficient"),
    (UNDECIDED, None),
    (ENTANGLED, "ppt"),
    (SEPARABLE, "ppt"),
)


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


class PptResult(NamedTuple):
    separable: bool
    min_eigenvalue: float


class OctahedronResult(NamedTuple):
    separable: bool
    l1: float


class LtildeSignature(NamedTuple):
    eigenvalues: np.ndarray
    positive_definite: bool
    classification: str


def _require_two_qubits(state) -> np.ndarray:
    """The state's matrix (or stack of matrices), checked to be two-qubit."""
    rho = as_matrix(state)
    if rho.shape[-2:] != (4, 4):
        raise DimensionError(f"operation requires 4x4 matrices, got matrix shape {rho.shape[-2:]}")
    return rho


def _require_tolerance(tol: float) -> None:
    """Refuse a NaN, infinite or negative ``tol``: every comparison with NaN is False."""
    if not 0.0 <= tol < np.inf:
        raise DomainError(f"tolerance must be a finite number >= 0, got {tol!r}")


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


def _flip_factor(rhos) -> np.ndarray:
    """tau = W^T (sigma_y x sigma_y) W for rho = W W^H: tau^H tau has the spectrum
    of rho rho~ (Uhlmann, PRA 62, 032307 (2000)); sigma_y x sigma_y is a signed row reversal."""
    w = _pivoted_cholesky(_require_two_qubits(rhos))
    return np.swapaxes(w, -1, -2) @ (_YY_SIGNS[:, None] * w[..., ::-1, :])


@_per_state
def concurrence_wootters(rhos):
    """Two-qubit concurrence, Wootters convention (PRL 80, 2245 (1998)).

    max(0, l1 - l2 - l3 - l4) over the descending singular values of
    tau (:func:`_flip_factor`), the square roots of the eigenvalues of rho rho~.
    """
    return _largest_minus_rest(singular_values(_flip_factor(rhos)))


@_per_state
def concurrence_variant(rhos):
    """No-square-root convention: eigenvalues of rho rho~ used directly.

    Largest-minus-rest of the eigenvalues (clipped at 0) of the Gram matrix
    tau^H tau of tau (:func:`_flip_factor`), the spectrum of rho rho~.

    Not convex, so not an entanglement monotone: a mixture of two pure
    states can exceed the mixture of their values (by 0.119 for the pair
    pinned in ``tests/test_invariants.py``).
    """
    return _largest_minus_rest(np.clip(_gram(_flip_factor(rhos), carry=False)[0], 0.0, None))


def _concurrence_pair(ev: np.ndarray, lam: np.ndarray) -> tuple:
    """(Wootters, variant) from tau^H tau's eigenvalues and tau's singular values."""
    return _largest_minus_rest(lam), _largest_minus_rest(np.clip(ev, 0.0, None))


@_per_state
def d_measure(rhos):
    """Covariance-invariant analogue of the purity: f/8 - 1/2.

    f is the quadratic covariance invariant; the value is 1/2 on pure
    product states and 1 on Bell states.  The paper's monotone candidate
    is not an entanglement monotone: a local channel can raise it (by
    0.041 for the separable state and channel pinned in
    ``tests/test_invariants.py``).
    """
    return d_from_covariance_invariant(quadratic_invariant(_require_two_qubits(rhos), "covariance"))


def d_from_covariance_invariant(f2_covariance):
    """:func:`d_measure` from an already evaluated two-qubit covariance invariant."""
    return f2_covariance / 8.0 - 0.5


def ppt_check(state, tol: float = DEFAULT_TOL) -> PptResult:
    """Positivity under partial transposition; decisive for two qubits.

    One matrix gives a bool and a float, a stack ``(B, 4, 4)`` gives ``(B,)`` arrays.
    """
    _require_tolerance(tol)
    rho = _require_two_qubits(state)
    low = hermitian_eigenvalues(partial_transpose(rho))[..., 0]
    if rho.ndim == 2:
        return PptResult(separable=bool(low >= -tol), min_eigenvalue=float(low))
    return PptResult(separable=low >= -tol, min_eigenvalue=low)


def octahedron_check(d, tol: float = DEFAULT_TOL) -> OctahedronResult:
    """Separability of the standard-form state: |d1| + |d2| + |d3| <= 1.

    The triple must lie inside the state tetrahedron, which is checked on
    the triple itself: no state is built.  The l1 value coincides with the
    Ky Fan norm of diag(d), which the implementation cross-checks.  One triple gives a
    bool and a float, triples ``(B, 3)`` give ``(B,)`` arrays.
    """
    _require_tolerance(tol)
    triples = _tetrahedron_triples(d)
    l1 = np.abs(triples).sum(-1)
    diag = np.zeros(triples.shape + (3,))
    diag[:, [0, 1, 2], [0, 1, 2]] = triples
    gap = np.abs(l1 - kyfan_norm(diag))
    bad = np.flatnonzero(~(gap < CROSS_CHECK_TOL))
    if bad.size:
        i = bad[0]
        raise CrossCheckError(
            f"l1 norm {l1[i]!r} of d={tuple(triples[i].tolist())} differs from the "
            f"Ky Fan norm of diag(d) by {gap[i]!r}"
        )
    if np.ndim(d) == 1:
        return OctahedronResult(separable=bool(l1[0] <= 1.0 + tol), l1=float(l1[0]))
    return OctahedronResult(separable=l1 <= 1.0 + tol, l1=l1)


def werner_ltilde_signature(x: float) -> LtildeSignature:
    """Spectrum of the sign-flipped symmetric tensor for the Werner family.

    Built as -x L(bell) + (1-x) L(maximally mixed); its eigenvalues are
    1-3x (three-fold) and 1-x (three-fold), and positive definiteness of
    the combination is exactly the x < 1/3 separability condition, with
    x = 1/3 the positive-semidefinite boundary.
    """
    if np.ndim(x) != 0:
        raise DomainError(f"parameter must be one value, got shape {np.shape(x)}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"parameter must lie in [0, 1], got {x}")
    rep = product_representation(2)
    l_bell, _ = split_sym_antisym(tensor_coefficients(bell_state(), rep, order=2))
    l_mixed, _ = split_sym_antisym(tensor_coefficients(maximally_mixed(4), rep, order=2))
    ltilde = -x * l_bell + (1.0 - x) * l_mixed
    w = hermitian_eigenvalues(ltilde)
    if w[0] > LTILDE_BOUNDARY_TOL:
        cls = "positive definite"
    elif w[0] >= -LTILDE_BOUNDARY_TOL:
        cls = "positive semidefinite"
    else:
        cls = "indefinite"
    return LtildeSignature(
        eigenvalues=w, positive_definite=bool(w[0] > LTILDE_BOUNDARY_TOL), classification=cls
    )


def _two_qubit_solves(rhos: np.ndarray, fano_c: np.ndarray) -> tuple:
    """Ky Fan norm of the Fano C, both concurrences and the lowest eigenvalue of the
    partial transpose, per state of a two-qubit stack ``(B, 4, 4)``, from one Jacobi call.

    Its stack holds three 4x4 matrices per state, each scaled and checked as in
    its own solve: the Gram of C (3x3, padded with a zero row and column, with
    size 3, carrying C; :func:`kyfan_norm`), tau^H tau carrying tau
    (:func:`concurrence_wootters`, :func:`concurrence_variant`) and the partial
    transpose with a zero carry (:func:`ppt_check`).  Each value equals that
    function's bit for bit.
    """
    c, e_c = _gram_factor(fano_c)
    tau, e_tau = _gram_factor(_flip_factor(rhos))
    a = np.zeros((3,) + rhos.shape, dtype=complex)
    carry = np.zeros_like(a)
    a[0, :, :3, :3] = np.swapaxes(c, -1, -2).conj() @ c
    a[1] = np.swapaxes(tau, -1, -2).conj() @ tau
    a[2] = _check_hermitian(partial_transpose(rhos))
    carry[0, :, :3, :3], carry[1] = c, tau
    w, xv = _jacobi(a, carry, size=np.array([[3], [4], [4]]))
    # The padding index's singular value is 0, last in descending order.
    kyfan = _gram_values(w[0], xv[0], e_c)[1][:, :3].sum(axis=-1)
    concurrence = _concurrence_pair(*_gram_values(w[1], xv[1], e_tau))
    return kyfan, concurrence, w[2, :, 0]


def _cascade(rhos: np.ndarray, tol: float, mom=None) -> tuple[np.ndarray, dict, tuple | None]:
    """The criterion cascade over a stack ``(B, d, d)``: decider codes, witnesses, concurrences.

    One moment evaluation (``mom``, if the caller has ``moments(rhos)``
    already) and one Ky Fan solve feed three criteria, each a mask over the
    stack; a state is decided by the first mask that holds for it (de
    Vicente, QIC 7, 624 (2007)):

    - necessary: ||C||_KF <= n(n-1)/2 for the raw-trace correlation block
      C, which is (4/n^2) times the Fano C; a violation is Entangled;
    - sufficient: sqrt(2(n-1)/n)(|n|+|m|) + (2(n-1)/n)||C||_KF <= 1 in the
      expansion-convention Fano coefficients; a pass is Separable;
    - Omega: (2(n-1)/n)||C||_KF <= 1 for the raw block, applicable when
      Omega vanishes (both reduced states maximally mixed).

    The two-qubit states still undecided then take the partial-transpose test.
    For two qubits the Ky Fan norm, the partial transpose of every state and
    both concurrences come from one Jacobi call (:func:`_two_qubit_solves`),
    returned as ``(wootters, variant)`` arrays; otherwise the third value is None.
    Each state's code indexes :data:`_DECIDERS`; each witness is a ``(B,)``
    float array, with ``pt_min_eigenvalue`` NaN where that test did not decide.
    """
    _require_tolerance(tol)
    mom = moments(rhos) if mom is None else mom
    f = mom.fano()
    n, count = f.n, len(rhos)
    if n == 2:
        fano_kyfan, concurrence, pt_low = _two_qubit_solves(rhos, f.C)
    else:
        fano_kyfan, concurrence = kyfan_norm(f.C), None
    raw_kyfan = (4.0 / (n * n)) * fano_kyfan
    bound = n * (n - 1) / 2.0
    quad = 2.0 * (n - 1) / n
    # sqrt(v . v) is bitwise the 1-D np.linalg.norm(v); a norm over axis -1 is not.
    norm_a = np.sqrt(np.vecdot(f.nvec, f.nvec))
    norm_b = np.sqrt(np.vecdot(f.mvec, f.mvec))
    value = np.sqrt(quad) * (norm_a + norm_b) + quad * fano_kyfan
    omega_max = np.abs(split_sym_antisym(mom.second)[1]).max(axis=(-2, -1))
    # argmax picks each state's first criterion that holds; the last row, always
    # true, gives code 3 where none does.
    holds = np.stack([
        ~(raw_kyfan <= bound + tol),
        value <= 1.0 + tol,
        (omega_max < tol) & (quad * raw_kyfan <= 1.0 + tol),
        np.ones(count, dtype=bool),
    ])
    code = holds.argmax(axis=0)
    pt_min = np.full(count, np.nan)
    if n == 2:
        todo = code == 3
        code[todo] = 4 + (pt_low[todo] >= -tol)
        pt_min[todo] = pt_low[todo]
    witnesses = {
        "c_kyfan": raw_kyfan,
        "necessary_bound": np.full(count, bound),
        "sufficient_value": value,
        "bloch_norm_a": norm_a,
        "bloch_norm_b": norm_b,
        "omega_max": omega_max,
        "tolerance": np.full(count, float(tol)),
        "pt_min_eigenvalue": pt_min,
    }
    return code, witnesses, concurrence


def _verdict(code: np.ndarray, witnesses: dict) -> SeparabilityVerdict:
    """The verdict of the first state of a :func:`_cascade` result."""
    status, decided_by = _DECIDERS[code[0]]
    values = {name: float(v[0]) for name, v in witnesses.items()}
    if decided_by != "ppt":
        del values["pt_min_eigenvalue"]
    return SeparabilityVerdict(status, decided_by, values)


def classify(state, tol: float = DEFAULT_TOL) -> SeparabilityVerdict:
    """Run the criterion cascade on one matrix and return a three-valued verdict.

    Order: necessary criteria first (a violation settles Entangled), then
    sufficient ones (a pass settles Separable), then, for two qubits,
    the decisive partial-transpose test.  One matrix goes through
    :func:`_cascade` as a stack of one; a stack raises ``ShapeError``.
    """
    rho = as_matrix(state)
    if rho.ndim != 2:
        raise ShapeError(f"classify takes one matrix, got shape {rho.shape}")
    return _verdict(*_cascade(rho[None], tol)[:2])

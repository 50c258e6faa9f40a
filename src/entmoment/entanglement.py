"""Entanglement monotones and separability criteria for bipartite states.

Necessary criteria flag entanglement when violated, sufficient criteria
certify separability when satisfied; for two qubits the partial-transpose
test decides every state (Peres, PRL 77, 1413 (1996); Horodecki x3, 1996).
Each scalar quantity takes one matrix and returns a float, or a stack
``(B, d, d)`` and returns its ``(B,)`` values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import CrossCheckError, DimensionError, DomainError, ShapeError
from .linalg import (
    _carried_norms,
    _check_hermitian,
    _gram,
    _gram_eigenvalues,
    _gram_factor,
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
    purity,
    spin_flip_matrix,
)
from .tensors import (
    inner_product,
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


@partial(_per_state, convert=np.asarray)
def kyfan_norm(c):
    """Ky Fan (trace) norm: the sum of the singular values of a matrix.

    The array is taken as given, so a real block is solved in real arithmetic.
    """
    return singular_values(c).sum(axis=-1)


@_per_state
def tr_rho_rhotilde(rhos):
    """Overlap Tr(rho rho~) with the spin-flipped state."""
    rho = _require_two_qubits(rhos)
    return np.trace(rho @ spin_flip_matrix(rho), axis1=-2, axis2=-1).real


def _largest_minus_rest(v: np.ndarray) -> np.ndarray:
    """max(0, v1 - v2 - v3 - v4) over descending values ``(..., 4)``."""
    return np.maximum(0.0, v[..., 0] - v[..., 1] - v[..., 2] - v[..., 3])


_YY_COLUMN = _YY_SIGNS[:, None]


def _flip_factor(rhos) -> np.ndarray:
    """tau = W^T (sigma_y x sigma_y) W for rho = W W^H: tau^H tau has the spectrum
    of rho rho~ (Uhlmann, PRA 62, 032307 (2000)); sigma_y x sigma_y is a signed row reversal."""
    w = _pivoted_cholesky(_require_two_qubits(rhos))
    return np.swapaxes(w, -1, -2) @ (_YY_COLUMN * w[..., ::-1, :])


@_per_state
def concurrence_wootters(rhos):
    """Two-qubit concurrence, Wootters convention (PRL 80, 2245 (1998)).

    max(0, l1 - l2 - l3 - l4) over the descending singular values of
    tau (:func:`_flip_factor`), the square roots of the eigenvalues of rho rho~.
    """
    return _Evaluation(rhos, ("concurrence_wootters",)).concurrences[0]


@_per_state
def concurrence_variant(rhos):
    """No-square-root convention: eigenvalues of rho rho~ used directly.

    Largest-minus-rest of the eigenvalues (clipped at 0) of the Gram matrix
    tau^H tau of tau (:func:`_flip_factor`), the spectrum of rho rho~.

    Not convex, so not an entanglement monotone: a mixture of two pure
    states can exceed the mixture of their values (by 0.119 for the pair
    pinned in ``tests/test_invariants.py``).
    """
    return _Evaluation(rhos, ("concurrence_variant",)).concurrences[1]


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


# The kernel size of each solve of :func:`_two_qubit_solves`: the padded Gram of C is 3x3.
_SOLVE_SIZES = np.array([[3], [4], [4]])


def _two_qubit_solves(rhos: np.ndarray, fano_c: np.ndarray, concurrences: bool) -> tuple:
    """Ky Fan norm of the Fano C, the lowest eigenvalue of the partial transpose and,
    with ``concurrences``, tau^H tau's eigenvalues and the singular values of the flip
    factor tau (:func:`_flip_factor`; else None), per state of a two-qubit stack
    ``(B, 4, 4)``, from one Jacobi call.

    Its stack holds two or three 4x4 matrices per state, each scaled and checked
    as in its own solve: the Gram of C (3x3, padded with a zero row and column,
    with size 3, carrying C; :func:`kyfan_norm`), tau^H tau carrying tau
    (:func:`concurrence_wootters`, :func:`concurrence_variant`) and the partial
    transpose with a zero carry (:func:`ppt_check`).  Each value equals that
    function's bit for bit.
    """
    # _flip_factor checks rho, which deviates from Hermiticity by exactly as much as
    # its partial transpose; without it the partial transpose is checked.
    tau = _flip_factor(rhos) if concurrences else None
    solves = 3 if concurrences else 2
    # The matrices (stack[0]) and their carries (stack[1]), written in place, and the
    # power-of-two scale of C and tau.
    stack = np.zeros((2, solves) + rhos.shape, dtype=complex)
    scales = np.empty((2, len(rhos)), dtype=int)
    c, scales[0] = _gram_factor(fano_c)
    stack[0, 0, :, :3, :3] = np.swapaxes(c, -1, -2).conj() @ c
    stack[1, 0, :, :3, :3] = c
    if concurrences:
        tau, scales[1] = _gram_factor(tau)
        stack[0, 1] = np.swapaxes(tau, -1, -2).conj() @ tau
        stack[1, 1] = tau
    stack[0, -1] = pt = partial_transpose(rhos)
    if not concurrences:
        _check_hermitian(pt)
    w, xv = _jacobi(stack[0], stack[1], size=_SOLVE_SIZES[:solves])
    # Singular values of C and tau; C's padding index gives a 0, last in descending order.
    sv = _carried_norms(xv[: solves - 1], scales[: solves - 1])
    kyfan = sv[0, :, :3].sum(axis=-1)
    tau_values = (_gram_eigenvalues(w[1], scales[1]), sv[1]) if concurrences else None
    return kyfan, tau_values, w[-1, :, 0]


class _Evaluation:
    """A state stack ``(B, d, d)`` and the pieces its quantities share, each computed
    on first use and kept: the purity, the moments, their Fano form, (L, Omega), K
    and its quadratic invariant, the cascade and the two concurrences.

    ``names``, the ``sweep.QUANTITIES`` that will be read, decide the Jacobi
    calls.  With ``verdict`` the cascade's call also solves tau^H tau when a
    concurrence is read, and both concurrences come from it; without it they
    come from one solve of tau^H tau, which carries tau only for
    ``concurrence_wootters``.  Each matrix gets the arithmetic of its own
    public function, whichever call it shares.
    """

    def __init__(self, rhos: np.ndarray, names=("verdict",), tol: float = DEFAULT_TOL):
        self.rhos, self.names, self.tol = rhos, frozenset(names), tol

    purity = cached_property(lambda self: purity(self.rhos))
    moments = cached_property(lambda self: moments(self.rhos))
    fano = cached_property(lambda self: self.moments.fano())
    sym_antisym = cached_property(lambda self: split_sym_antisym(self.moments.second))
    covariance = cached_property(lambda self: self.moments.covariance())
    f2_covariance = cached_property(lambda self: inner_product(self.covariance))

    @cached_property
    def concurrences(self) -> tuple:
        """(Wootters, variant) of each two-qubit state; Wootters is None where unread."""
        values = self.cascade[2] if "verdict" in self.names else None
        if values is None:
            values = _gram(_flip_factor(self.rhos), carry="concurrence_wootters" in self.names)
        w, sv = values
        variant = _largest_minus_rest(np.clip(w, 0.0, None))
        return (None if sv is None else _largest_minus_rest(sv)), variant

    @cached_property
    def cascade(self) -> tuple[np.ndarray, dict, tuple | None]:
        """The criterion cascade: decider codes, witnesses, tau^H tau's Gram values.

        One moment evaluation and one Ky Fan solve feed three criteria, each
        a mask over the stack; a state is decided by the first mask that
        holds for it (de Vicente, QIC 7, 624 (2007)):

        - necessary: ||C||_KF <= 2(n-1)/n for the raw-trace correlation block
          C, which is (4/n^2) times the Fano C, whose bound is n(n-1)/2; a
          violation is Entangled.  The isotropic state is flagged exactly for
          p > 1/(n+1), where it is entangled;
        - sufficient: sqrt(2(n-1)/n)(|n|+|m|) + (2(n-1)/n)||C||_KF <= 1 in the
          expansion-convention Fano coefficients; a pass is Separable;
        - Omega: (2(n-1)/n)||C||_KF <= 1 for the raw block, applicable when
          Omega vanishes (both reduced states maximally mixed).

        The two-qubit states still undecided then take the partial-transpose
        test.  For two qubits the Ky Fan norms and partial transposes come
        from one Jacobi call (:func:`_two_qubit_solves`), which also solves
        tau^H tau when a concurrence is read (the third value, else None).
        Codes index :data:`_DECIDERS`; witnesses are ``(B,)`` float arrays,
        ``pt_min_eigenvalue`` NaN where that test did not decide.
        """
        tol = self.tol
        _require_tolerance(tol)
        f = self.fano
        n, count = f.n, len(self.rhos)
        if n == 2:
            read = bool(self.names & {"concurrence_wootters", "concurrence_variant"})
            fano_kyfan, tau_values, pt_low = _two_qubit_solves(self.rhos, f.C, read)
        else:
            fano_kyfan, tau_values = kyfan_norm(f.C), None
        raw_kyfan = (4.0 / (n * n)) * fano_kyfan
        # 2(n-1)/n: the necessary bound on the raw block and the sufficient criteria's factor.
        quad = 2.0 * (n - 1) / n
        # sqrt(v . v) is bitwise the 1-D np.linalg.norm(v); a norm over axis -1 is not.
        norm_a = np.sqrt(np.vecdot(f.nvec, f.nvec))
        norm_b = np.sqrt(np.vecdot(f.mvec, f.mvec))
        value = math.sqrt(quad) * (norm_a + norm_b) + quad * fano_kyfan
        omega_max = np.abs(self.sym_antisym[1]).max(axis=(-2, -1))
        # Each state's first criterion that holds, 3 where none does.
        code = np.where(
            ~(raw_kyfan <= quad + tol),
            0,
            np.where(
                value <= 1.0 + tol,
                1,
                np.where((omega_max < tol) & (quad * raw_kyfan <= 1.0 + tol), 2, 3),
            ),
        )
        if n == 2:
            todo = code == 3
            code = np.where(todo, 4 + (pt_low >= -tol), code)
            pt_min = np.where(todo, pt_low, np.nan)
        else:
            pt_min = np.full(count, np.nan)
        witnesses = {
            "c_kyfan": raw_kyfan,
            "necessary_bound": np.full(count, quad),
            "sufficient_value": value,
            "bloch_norm_a": norm_a,
            "bloch_norm_b": norm_b,
            "omega_max": omega_max,
            "tolerance": np.full(count, float(tol)),
            "pt_min_eigenvalue": pt_min,
        }
        return code, witnesses, tau_values


def _verdict(code: np.ndarray, witnesses: dict) -> SeparabilityVerdict:
    """The verdict of the first state of a cascade's codes and witnesses."""
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
    :attr:`_Evaluation.cascade` as a stack of one; a stack raises ``ShapeError``.
    """
    rho = as_matrix(state)
    if rho.ndim != 2:
        raise ShapeError(f"classify takes one matrix, got shape {rho.shape}")
    return _verdict(*_Evaluation(rho[None], tol=tol).cascade[:2])

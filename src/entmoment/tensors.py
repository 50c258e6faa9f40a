"""Moment tensors of Lie-algebra generators evaluated on quantum states.

The order-k coefficients are ``T_{i1..ik} = Tr(rho R_{i1} ... R_{ik})``
for stacked generator operators R.  For k=2 the real part is the halved
anticommutator expectation (symmetric, L) and the imaginary part the
halved commutator expectation (antisymmetric, Omega), so T = L + i Omega.
The covariance variant subtracts first moments:
``K_jk = T_jk - Tr(rho R_j) Tr(rho R_k)``; its antisymmetric part equals
Omega and its symmetric part is written G.

:func:`moments` evaluates the first and second moments of a state once;
L, Omega, K, the Fano form and the correlation block are all read from
that one evaluation.  Each of these, and each scalar invariant, takes one
state (a float) or a stack ``(B, d, d)`` (an array with a leading axis).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .basis import basis_matrices
from .errors import DomainError, ShapeError
from .states import DensityOperator, _per_state, as_matrix, local_dimension, validate_densities

MAX_ORDER = 4


@dataclass(frozen=True)
class Representation:
    """Stacked Hermitian generator operators.

    With m = n^2 - 1 traceless basis matrices ``sigma[1:]`` of u(n), the
    product representation's generator g < m is ``sigma[g + 1] x 1``
    (subsystem A) and generator m + g is ``1 x sigma[g + 1]`` (B); the
    defining representation's generator g is ``sigma[g + 1]``.
    """

    n: int
    ops: np.ndarray

    @property
    def count(self) -> int:
        return self.ops.shape[0]

    @cached_property
    def dual(self) -> np.ndarray:
        """conj(R_j) flattened row by row, so ``dual @ X.ravel()`` gives Tr(R_j X)."""
        dual = self.ops.reshape(self.count, -1).conj()
        dual.setflags(write=False)
        return dual


@dataclass(frozen=True)
class TensorCoefficients:
    """Complex coefficient array of an order-k generator moment tensor."""

    order: int
    values: np.ndarray


@lru_cache(maxsize=None)
def product_representation(n: int) -> Representation:
    """Traceless generators sigma_j x 1 (subsystem A) then 1 x sigma_j (B)."""
    sigma = basis_matrices(n)
    eye = np.eye(n, dtype=complex)
    gens = sigma[1:]
    ops = np.stack(
        [np.kron(g, eye) for g in gens] + [np.kron(eye, g) for g in gens]
    )
    ops.setflags(write=False)
    return Representation(n=n, ops=ops)


@lru_cache(maxsize=None)
def defining_representation(n: int) -> Representation:
    """Traceless generators sigma_j acting on a single n-level system."""
    sigma = basis_matrices(n)
    ops = np.array(sigma[1:], dtype=complex)
    ops.setflags(write=False)
    return Representation(n=n, ops=ops)


def representation_for(state) -> Representation:
    """Product representation matching a bipartite state's (or stack's) dimension."""
    return product_representation(local_dimension(as_matrix(state).shape[-1]))


def _coefficient_stack(rhos: np.ndarray, rep: Representation, order: int) -> np.ndarray:
    """Tr(rho R_i1 ... R_ik) for each rho of a stack ``(B, d, d)``: shape ``(B, m, ..., m)``."""
    # Tr(rho R_i1 ... R_ik) = Tr(R_i1 (R_i2 ... R_ik rho)): batched products build the
    # right factor and one GEMM per state with the dual closes the trace.  Order 2
    # needs O(m d^2) memory per state and no cached operator products.
    count, d = rhos.shape[0], rhos.shape[-1]
    right = rhos[:, None]
    for _ in range(order - 1):
        right = (rep.ops[None, :, None] @ right[:, None]).reshape(count, -1, d, d)
    values = rep.dual @ right.reshape(count, -1, d * d).swapaxes(1, 2)
    return values.reshape((count,) + (rep.count,) * order)


def _stack_of(state, rep: Representation) -> np.ndarray:
    """``state``'s matrix as a stack ``(B, d, d)``, checked against ``rep``."""
    rho = as_matrix(state)
    if rho.ndim not in (2, 3):
        raise ShapeError(f"expected a matrix or a stack of matrices, got shape {rho.shape}")
    if rho.shape[-2:] != rep.ops.shape[1:]:
        raise ShapeError(
            f"state matrix shape {rho.shape[-2:]} does not match representation "
            f"dimension {rep.ops.shape[1]}"
        )
    return rho[None] if rho.ndim == 2 else rho


def tensor_coefficients(state, rep: Representation, order: int = 2) -> TensorCoefficients:
    """Order-k coefficients Tr(rho R_{i1} ... R_{ik}), products in index order.

    A stack ``(B, d, d)`` of states gives values of shape ``(B, m, ..., m)``.
    """
    integer = isinstance(order, (int, np.integer)) and not isinstance(order, bool)
    if not (integer and 1 <= order <= MAX_ORDER):
        raise DomainError(f"tensor order must be an integer from 1 to {MAX_ORDER}, got {order!r}")
    rho = as_matrix(state)
    values = _coefficient_stack(_stack_of(rho, rep), rep, order)
    return TensorCoefficients(order=order, values=values[0] if rho.ndim == 2 else values)


@dataclass(frozen=True)
class FanoForm:
    """Local Bloch vectors and correlation matrix of a bipartite state.

    Expansion convention: ``rho = (1/n^2)(sigma_0 x sigma_0 + n_j sigma_j
    x sigma_0 + m_k sigma_0 x sigma_k + C_jk sigma_j x sigma_k)``.  For n=2
    the coefficients coincide with the raw traces ``Tr(rho sigma_j x 1)``
    etc.; for n>2 they differ by powers of (2/n).
    """

    n: int
    nvec: np.ndarray
    mvec: np.ndarray
    C: np.ndarray


@dataclass(frozen=True)
class Moments:
    """First and second moments of one state (or a stack) over its product representation.

    ``first[..., j] = Tr(rho R_j)`` (real) and ``second.values[..., j, k] =
    Tr(rho R_j R_k)``; a stack of states adds the leading axis ``...``.
    """

    rep: Representation
    first: np.ndarray
    second: TensorCoefficients

    def covariance(self) -> TensorCoefficients:
        """K_jk = <R_j R_k> - <R_j><R_k>."""
        first = self.first
        values = self.second.values - first[..., :, None] * first[..., None, :]
        return TensorCoefficients(order=2, values=values)

    def correlation_block(self) -> np.ndarray:
        """A-B cross block of T: the raw traces Tr(rho sigma_j x sigma_k).

        The two sides commute, so the block is real (T_AB = L_AB).
        """
        count = self.rep.count // 2
        return self.second.values[..., :count, count:].real

    def fano(self) -> FanoForm:
        """Expansion coefficients: (n/2) first moments and (n^2/4) correlation block."""
        n, count = self.rep.n, self.rep.count // 2
        local = (n / 2.0) * self.first
        return FanoForm(
            n, local[..., :count], local[..., count:], (n * n / 4.0) * self.correlation_block()
        )


def moments(state) -> Moments:
    """Evaluate the first and second moments of ``state`` (or of each state of a stack) once."""
    rep = representation_for(state)
    # Tr(rho R_j) is real for Hermitian generators.
    first = tensor_coefficients(state, rep, order=1).values.real
    return Moments(rep, first, tensor_coefficients(state, rep))


def fano_decompose(state) -> FanoForm:
    """Local Bloch vectors and correlation matrix of a bipartite state."""
    return moments(state).fano()


def fano_compose(f: FanoForm):
    """Rebuild the state from its Fano coefficients in the local basis.

    The form of one state gives a :class:`DensityOperator`; the form of a
    stack (:func:`fano_decompose` of ``(B, d, d)``) gives the validated
    stack ``(B, d, d)``.
    """
    n, count = f.n, f.n * f.n - 1
    nvec, mvec, corr = (np.asarray(v, dtype=float) for v in (f.nvec, f.mvec, f.C))
    lead = corr.shape[:-2]
    vector, matrix = lead + (count,), lead + (count, count)
    if len(lead) > 1 or nvec.shape != vector or mvec.shape != vector or corr.shape != matrix:
        shapes = f"nvec {nvec.shape}, mvec {mvec.shape}, C {corr.shape}"
        raise ShapeError(f"Fano coefficients for n={n} disagree in shape: {shapes}")
    coef = np.ones(lead + (count + 1, count + 1))
    coef[..., 0, 1:] = mvec
    coef[..., 1:, 0] = nvec
    coef[..., 1:, 1:] = corr
    # sum_ab coef_ab sigma_a x sigma_b as two matrix products in a fixed order, so
    # every state of a stack gets the same arithmetic; kron(A, B)[(i,k),(j,l)] = A_ij B_kl.
    sigma = basis_matrices(n).reshape(count + 1, -1)
    m = (sigma.T @ coef @ sigma).reshape(lead + (n,) * 4).swapaxes(-3, -2)
    m = m.reshape(lead + (n * n, n * n)) / (n * n)
    return validate_densities(m) if lead else DensityOperator(m)


def split_sym_antisym(t: TensorCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Real symmetric L and real antisymmetric Omega with T = L + i Omega (per state of a stack)."""
    if t.order != 2:
        raise ShapeError(f"symmetric/antisymmetric split needs order 2, got {t.order}")
    v = t.values
    l_sym = (v.real + np.swapaxes(v.real, -1, -2)) / 2.0
    omega = (v.imag - np.swapaxes(v.imag, -1, -2)) / 2.0
    return l_sym, omega


def inner_product(t: TensorCoefficients):
    """Sum of squared moduli of all coefficients (per state of a stack)."""
    values = t.values
    flat = values.reshape(values.shape[: values.ndim - t.order] + (-1,))
    norms = (np.abs(flat) ** 2).sum(axis=-1)
    return float(norms) if flat.ndim == 1 else norms


@_per_state
def quadratic_invariant(rhos, mode: str = "linear"):
    """Local-unitary invariant sum of squared order-2 coefficients.

    ``mode='linear'`` uses the plain second moments; ``mode='covariance'``
    subtracts first moments first.  Both are invariant under conjugation
    by local unitaries.
    """
    if mode not in ("linear", "covariance"):
        raise DomainError(f"mode must be 'linear' or 'covariance', got {mode!r}")
    mom = moments(rhos)
    return inner_product(mom.second if mode == "linear" else mom.covariance())


@_per_state
def monotone_candidate(rhos, mode: str, order: int, coefficients):
    """Polynomial sum_i a_i * <T,T>^i in the order-k coefficient norm.

    ``coefficients`` is the sequence (a_0, a_1, ...); the plain quadratic
    invariant is recovered with ``mode='linear'``, ``order=2``,
    ``coefficients=(0, 1)``.  A candidate, not a certified monotone:
    local-unitary invariance is all that holds in general, and
    ``d_measure``, the covariance polynomial (-1/2, 1/8), rises under a
    local channel (see :func:`entmoment.entanglement.d_measure`).
    """
    if mode == "linear":
        ip = inner_product(tensor_coefficients(rhos, representation_for(rhos), order=order))
    elif mode == "covariance" and order != 2:
        raise DomainError("covariance coefficients are defined for order 2 only")
    else:
        ip = quadratic_invariant(rhos, mode)  # rejects unknown modes
    return sum((a * ip**i for i, a in enumerate(coefficients)), np.zeros_like(ip))

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
that one evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .basis import generate_basis
from .errors import DomainError, ShapeError
from .states import DensityOperator, as_matrix, local_dimension

MAX_ORDER = 4


@dataclass(frozen=True)
class Representation:
    """Stacked Hermitian generator operators with provenance labels.

    ``labels[g]`` maps generator index g to ``(subsystem, basis_index)``
    where ``basis_index`` indexes the traceless part of the underlying
    u(n) basis (1-based into ``HermitianBasis.sigma``), and subsystem is
    'A'/'B' for the bipartite product representation or 'S' for the
    defining single-system one.
    """

    n: int
    ops: np.ndarray
    labels: tuple
    kind: str

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
    dim_index: int
    values: np.ndarray


@lru_cache(maxsize=None)
def product_representation(n: int) -> Representation:
    """Traceless generators sigma_j x 1 (subsystem A) then 1 x sigma_j (B)."""
    sigma = generate_basis(n).sigma
    eye = np.eye(n, dtype=complex)
    gens = sigma[1:]
    ops = np.stack(
        [np.kron(g, eye) for g in gens] + [np.kron(eye, g) for g in gens]
    )
    ops.setflags(write=False)
    count = n * n - 1
    labels = tuple(("A", j + 1) for j in range(count)) + tuple(
        ("B", j + 1) for j in range(count)
    )
    return Representation(n=n, ops=ops, labels=labels, kind="product")


@lru_cache(maxsize=None)
def defining_representation(n: int) -> Representation:
    """Traceless generators sigma_j acting on a single n-level system."""
    sigma = generate_basis(n).sigma
    ops = np.array(sigma[1:], dtype=complex)
    ops.setflags(write=False)
    labels = tuple(("S", j + 1) for j in range(n * n - 1))
    return Representation(n=n, ops=ops, labels=labels, kind="defining")


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
    if rho.ndim not in (2, 3) or rho.shape[-2:] != rep.ops.shape[1:]:
        raise ShapeError(
            f"state dimension {rho.shape[-1]} does not match representation "
            f"dimension {rep.ops.shape[1]}"
        )
    return rho[None] if rho.ndim == 2 else rho


def tensor_coefficients(state, rep: Representation, order: int = 2) -> TensorCoefficients:
    """Order-k coefficients Tr(rho R_{i1} ... R_{ik}), products in index order.

    A stack ``(B, d, d)`` of states gives values of shape ``(B, m, ..., m)``.
    """
    if not 1 <= order <= MAX_ORDER:
        raise DomainError(f"tensor order must be between 1 and {MAX_ORDER}, got {order}")
    rho = as_matrix(state)
    values = _coefficient_stack(_stack_of(rho, rep), rep, order)
    return TensorCoefficients(
        order=order, dim_index=rep.count, values=values[0] if rho.ndim == 2 else values
    )


def first_moments(state, rep: Representation) -> np.ndarray:
    """Expectation values Tr(rho R_j), real for Hermitian generators: the order-1 coefficients."""
    return tensor_coefficients(state, rep, order=1).values.real


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
    """First and second moments of one state (or a stack) over one representation.

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
        return TensorCoefficients(order=2, dim_index=self.second.dim_index, values=values)

    def correlation_block(self) -> np.ndarray:
        """A-B cross block of T: the raw traces Tr(rho sigma_j x sigma_k).

        The two sides commute, so the block is real (T_AB = L_AB).
        """
        if self.rep.kind != "product":
            raise ShapeError("the correlation block needs the product representation")
        count = self.rep.count // 2
        return self.second.values[..., :count, count:].real

    def fano(self) -> FanoForm:
        """Expansion coefficients: (n/2) first moments and (n^2/4) correlation block."""
        n, count = self.rep.n, self.rep.count // 2
        local = (n / 2.0) * self.first
        return FanoForm(
            n, local[..., :count], local[..., count:], (n * n / 4.0) * self.correlation_block()
        )


def moments(state, rep: Representation) -> Moments:
    """Evaluate the first and second moments of ``state`` (or of each state of a stack) once."""
    return Moments(rep, first_moments(state, rep), tensor_coefficients(state, rep))


def fano_decompose(state) -> FanoForm:
    """Local Bloch vectors and correlation matrix of a bipartite state."""
    return moments(state, representation_for(state)).fano()


def fano_compose(f: FanoForm) -> DensityOperator:
    """Rebuild the state from its Fano coefficients in the local basis."""
    n = f.n
    nvec, mvec, corr = (np.asarray(v, dtype=float) for v in (f.nvec, f.mvec, f.C))
    coef = np.block([[1.0, mvec], [nvec[:, None], corr]])
    sigma = generate_basis(n).sigma
    # sum_ab coef_ab sigma_a x sigma_b, with kron(A, B)[(i,k),(j,l)] = A_ij B_kl.
    m = np.einsum("ab,aij,bkl->ikjl", coef, sigma, sigma, optimize=True)
    return DensityOperator.from_matrix(m.reshape(n * n, n * n) / (n * n))


def split_sym_antisym(t: TensorCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Real symmetric L and real antisymmetric Omega with T = L + i Omega (per state of a stack)."""
    if t.order != 2:
        raise ShapeError(f"symmetric/antisymmetric split needs order 2, got {t.order}")
    v = t.values
    l_sym = (v.real + np.swapaxes(v.real, -1, -2)) / 2.0
    omega = (v.imag - np.swapaxes(v.imag, -1, -2)) / 2.0
    return l_sym, omega


def covariance_coefficients(state, rep: Representation) -> TensorCoefficients:
    """Second moments minus products of first moments, K_jk = <R_j R_k> - <R_j><R_k>."""
    return moments(state, rep).covariance()


def _squared_norms(t: TensorCoefficients) -> np.ndarray:
    """Sum of squared moduli over the coefficient axes (per state for a stack)."""
    values = t.values
    flat = values.reshape(values.shape[: values.ndim - t.order] + (-1,))
    return (np.abs(flat) ** 2).sum(axis=-1)


def inner_product(t: TensorCoefficients) -> float:
    """Sum of squared moduli of all coefficients."""
    return float(_squared_norms(t))


def quadratic_invariant_stack(rhos, mode: str = "linear") -> np.ndarray:
    """:func:`quadratic_invariant` of each matrix of a stack ``(B, d, d)``."""
    if mode not in ("linear", "covariance"):
        raise DomainError(f"mode must be 'linear' or 'covariance', got {mode!r}")
    mom = moments(rhos, representation_for(rhos))
    return _squared_norms(mom.second if mode == "linear" else mom.covariance())


def quadratic_invariant(state, mode: str = "linear") -> float:
    """Local-unitary invariant sum of squared order-2 coefficients.

    ``mode='linear'`` uses the plain second moments; ``mode='covariance'``
    subtracts first moments first.  Both are invariant under conjugation
    by local unitaries.
    """
    return float(quadratic_invariant_stack(as_matrix(state)[None], mode)[0])


def monotone_candidate(state, mode: str, order: int, coefficients) -> float:
    """Polynomial sum_i a_i * <T,T>^i in the order-k coefficient norm.

    ``coefficients`` is the sequence (a_0, a_1, ...); the plain quadratic
    invariant is recovered with ``mode='linear'``, ``order=2``,
    ``coefficients=(0, 1)``.
    """
    if mode == "linear":
        ip = inner_product(tensor_coefficients(state, representation_for(state), order=order))
    elif mode == "covariance" and order != 2:
        raise DomainError("covariance coefficients are defined for order 2 only")
    else:
        ip = quadratic_invariant(state, mode)  # rejects unknown modes
    return float(sum(a * ip**i for i, a in enumerate(coefficients)))

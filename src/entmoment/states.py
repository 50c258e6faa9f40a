"""Density-operator algebra for n-level and n x n bipartite systems.

Bloch coefficients follow the expansion convention
``rho = (1/n)(sigma_0 + m_j sigma_j)``.  For n=2 they coincide with the
raw traces ``Tr(rho sigma_j)``; for n>2 they differ by a factor (2/n) and
the expansion convention is the one used everywhere here (the bipartite
Fano form is in :mod:`entmoment.tensors`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import wraps

import numpy as np

from .basis import basis_matrices, complex_pairs
from .errors import (
    DimensionError,
    DomainError,
    FormatError,
    NonFiniteError,
    NormalizationError,
    PositivityError,
    ShapeError,
    SymmetryError,
)
from .linalg import hermitian_eigenvalues

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])  # entries (i, 3 - i) of sigma_y x sigma_y


def as_matrix(state) -> np.ndarray:
    """Accept a DensityOperator or a plain array; return the matrix."""
    return np.asarray(getattr(state, "matrix", state), dtype=complex)


def _per_state(quantity, convert=as_matrix):
    """Let ``quantity``, written for a stack ``(B, d, d)``, also take one matrix ``(d, d)``.

    One matrix goes through as a stack of one, so it gets exactly the
    arithmetic it would get in any stack; its value (or each value of a
    tuple) comes back as a float.  ``convert`` turns the argument into an
    array: by default the complex matrix of :func:`as_matrix`.
    """

    @wraps(quantity)
    def one_or_stack(state, *args, **kwargs):
        rho = convert(state)
        if rho.ndim not in (2, 3):
            raise ShapeError(f"expected a matrix or a stack of matrices, got shape {rho.shape}")
        if rho.ndim == 3:
            return quantity(rho, *args, **kwargs)
        values = quantity(rho[None], *args, **kwargs)
        return tuple(float(v[0]) for v in values) if isinstance(values, tuple) else float(values[0])

    return one_or_stack


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Validated density operator: Hermitian, unit trace, PSD.

    Construction raises :class:`NonFiniteError`, :class:`SymmetryError`,
    :class:`NormalizationError` or :class:`PositivityError` naming the
    violated invariant, so loaders can report exactly which check failed.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {m.shape}")
        m = validate_densities(m[None])[0].copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def validate_densities(matrices) -> np.ndarray:
    """Check a stack ``(B, d, d)`` of density matrices; return it as a complex array.

    Applies :class:`DensityOperator`'s checks with the same tolerances,
    each over the whole stack: finite entries, Hermiticity, unit trace,
    positivity.  The first check that fails raises its error
    (:class:`NonFiniteError`, :class:`SymmetryError`,
    :class:`NormalizationError` or :class:`PositivityError`) for the first
    matrix that fails it.
    """
    m = np.asarray(matrices, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ShapeError(f"expected a stack of square matrices, got shape {m.shape}")
    # NaN compares False against every tolerance below, so it must be caught first.
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix has NaN or infinite entries")
    dev = np.abs(m - np.swapaxes(m, 1, 2).conj()).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(dev > HERMITICITY_TOL)
    if bad.size:
        raise SymmetryError(f"matrix is not Hermitian (max deviation {dev[bad[0]]:.3e})")
    tr = np.trace(m, axis1=1, axis2=2)
    bad = np.flatnonzero(np.abs(tr - 1.0) > TRACE_TOL)
    if bad.size:
        raise NormalizationError(f"trace is {complex(tr[bad[0]]):.15g}, expected 1")
    _check_positive(m)
    return m


def _check_positive(m: np.ndarray) -> None:
    # Cholesky of the shifted matrices is a cheap sufficient check; only a
    # stack with a near-boundary member pays for a full spectrum.
    shifted = m + POSITIVITY_TOL * np.eye(m.shape[-1])
    try:
        np.linalg.cholesky((shifted + np.swapaxes(shifted, 1, 2).conj()) / 2)
        return
    except np.linalg.LinAlgError:
        pass
    low = hermitian_eigenvalues(m)[:, 0]
    bad = np.flatnonzero(low < -POSITIVITY_TOL)
    if bad.size:
        w = float(low[bad[0]])
        raise PositivityError(f"matrix has negative eigenvalue {w:.3e}", min_eigenvalue=w)


@dataclass(frozen=True)
class BlochVector:
    """Traceless expansion coefficients of a single-system state.

    ``m`` has shape ``(n^2 - 1,)``, or ``(B, n^2 - 1)`` for a stack of states.
    """

    n: int
    m: np.ndarray


def local_dimension(dim: int) -> int:
    """Local dimension n for a bipartite dim = n*n system."""
    n = math.isqrt(dim)
    if n < 2 or n * n != dim:
        raise ShapeError(f"dimension {dim} is not a perfect square n*n with n >= 2")
    return n


def bloch_encode(n: int, m) -> np.ndarray:
    """Matrix (1/n)(sigma_0 + m_j sigma_j).

    Accepts a plain coefficient array or a :class:`BlochVector`.  Returns
    a raw Hermitian unit-trace matrix; positivity is not guaranteed and
    is the caller's concern (wrap in :class:`DensityOperator` to
    validate).
    """
    if isinstance(m, BlochVector):
        if m.n != n:
            raise ShapeError(f"Bloch vector is for n={m.n}, requested n={n}")
        m = m.m
    m = np.asarray(m, dtype=float)
    count = n * n - 1
    if m.shape != (count,):
        raise ShapeError(f"Bloch vector for n={n} must have length {count}, got {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError("Bloch vector has NaN or infinite entries")
    sigma = basis_matrices(n)
    return (sigma[0] + np.einsum("j,jab->ab", m, sigma[1:])) / n


def _square_matrices(state) -> np.ndarray:
    """The matrix ``(d, d)`` or stack ``(B, d, d)`` of ``state``; anything else raises."""
    rho = as_matrix(state)
    if rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2]:
        raise ShapeError(f"expected a square matrix or a stack of them, got shape {rho.shape}")
    return rho


def bloch_decode(state) -> BlochVector:
    """Expansion coefficients m_j = (n/2) Tr(rho sigma_j), per state of a stack ``(B, n, n)``."""
    rho = _square_matrices(state)
    n = rho.shape[-1]
    if n < 2:
        raise ShapeError(f"expected dimension >= 2, got shape {rho.shape}")
    sigma = basis_matrices(n)
    m = (n / 2.0) * np.einsum("...ab,jba->...j", rho, sigma[1:]).real
    return BlochVector(n=n, m=m)


def _by_subsystem(subsystem: str, a, b):
    if subsystem not in ("A", "B"):
        raise DomainError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return a if subsystem == "A" else b


def partial_trace(state, subsystem: str = "A"):
    """Reduced state of the kept subsystem ('A' keeps A, traces out B).

    One matrix gives a :class:`DensityOperator`; a stack ``(B, n*n, n*n)``
    gives the validated stack ``(B, n, n)`` of reduced matrices.
    """
    rho = _square_matrices(state)
    n = local_dimension(rho.shape[-1])
    script = _by_subsystem(subsystem, "...ikjk->...ij", "...kikj->...ij")
    reduced = np.einsum(script, rho.reshape(rho.shape[:-2] + (n,) * 4))
    return DensityOperator(reduced) if rho.ndim == 2 else validate_densities(reduced)


def spin_flip_matrix(m: np.ndarray) -> np.ndarray:
    """Raw two-qubit flip map M -> (sigma_y x sigma_y) conj(M) (sigma_y x sigma_y).

    Also maps each matrix of a stack ``(..., 4, 4)``.  With s = ``_YY_SIGNS``, entry
    (i, j) is s_i s_j conj(M[3-i, 3-j]) + 0j: the 0j turns -0.0 into 0.0, as matmuls do.
    """
    if m.shape[-2:] != (4, 4):
        raise DimensionError(f"spin flip is defined for dimension 4, got {m.shape[-1]}")
    return _YY_SIGNS[:, None] * _YY_SIGNS * m[..., ::-1, ::-1].conj() + 0j


def spin_flip(state) -> DensityOperator:
    """Two-qubit spin flip (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y)."""
    return DensityOperator(spin_flip_matrix(as_matrix(state)))


def partial_transpose(state, subsystem: str = "B") -> np.ndarray:
    """Transpose one tensor factor of a matrix, or of each matrix of a stack ``(B, d, d)``.

    The result is Hermitian but possibly indefinite.
    """
    rho = _square_matrices(state)
    n = local_dimension(rho.shape[-1])
    # rho[(i, k), (j, l)] as axes (i, k, j, l): transposing A swaps i and j, B swaps k and l.
    axes = _by_subsystem(subsystem, (-4, -2), (-3, -1))
    return np.swapaxes(rho.reshape(rho.shape[:-2] + (n,) * 4), *axes).reshape(rho.shape)


def bell_state() -> DensityOperator:
    """Projector on (|00> + |11>)/sqrt(2)."""
    ket = np.zeros(4, dtype=complex)
    ket[0] = ket[3] = 1.0 / np.sqrt(2.0)
    return DensityOperator(np.outer(ket, ket.conj()))


def maximally_mixed(dim: int) -> DensityOperator:
    return DensityOperator(np.eye(dim, dtype=complex) / dim)


def _unit_interval(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    bad = np.flatnonzero(~((0.0 <= x) & (x <= 1.0)))
    if bad.size:
        raise DomainError(f"{what} must lie in [0, 1], got {x[bad[0]]}")
    return x


def werner(x):
    """x |phi+><phi+| + (1-x) 1/4 for x in [0, 1].

    One value gives a :class:`DensityOperator`; an array gives the
    validated stack ``(B, 4, 4)``, one matrix per entry of ``x``.
    """
    one = np.ndim(x) == 0
    x = _unit_interval(x, "werner parameter")
    mixed = (1.0 - x)[:, None, None] * np.eye(4, dtype=complex) / 4.0
    m = x[:, None, None] * bell_state().matrix + mixed
    return DensityOperator(m[0]) if one else validate_densities(m)


def schmidt_mix(x, alpha0):
    """x |a0><a0| + (1-x) 1/4 with |a0> = cos(a0)|00> + sin(a0)|11>.

    Two values give a :class:`DensityOperator`; arrays give the validated
    stack ``(B, 4, 4)``, one matrix per entry of ``x`` and ``alpha0``
    broadcast together.
    """
    x = np.asarray(x, dtype=float)
    try:
        x, alpha0 = np.broadcast_arrays(x, alpha0)
    except ValueError as exc:
        raise ShapeError(f"x and alpha0 do not broadcast: {exc}") from None
    one = x.ndim == 0
    x, alpha0 = _unit_interval(x, "mixing parameter"), alpha0.reshape(-1)
    # cos and sin of an infinite angle warn before validation would reject the NaN.
    if not np.isfinite(alpha0).all():
        raise NonFiniteError("Schmidt angle has NaN or infinite entries")
    ket = np.zeros((x.size, 4), dtype=complex)
    ket[:, 0] = np.cos(alpha0)
    ket[:, 3] = np.sin(alpha0)
    pure = ket[:, :, None] * ket.conj()[:, None, :]
    mixed = (1.0 - x)[:, None, None] * np.eye(4, dtype=complex) / 4.0
    m = x[:, None, None] * pure + mixed
    return DensityOperator(m[0]) if one else validate_densities(m)


def standard_form_eigenvalues(d) -> np.ndarray:
    """Bell-basis spectrum of the standard-form state for triple d (or triples ``(..., 3)``)."""
    d = np.asarray(d, dtype=float)
    d1, d2, d3 = d[..., 0], d[..., 1], d[..., 2]
    return np.stack(
        [
            (1.0 - d1 - d2 - d3) / 4.0,
            (1.0 - d1 + d2 + d3) / 4.0,
            (1.0 + d1 - d2 + d3) / 4.0,
            (1.0 + d1 + d2 - d3) / 4.0,
        ],
        axis=-1,
    )


def _tetrahedron_triples(d) -> np.ndarray:
    """One triple or triples ``(B, 3)`` as float triples ``(B, 3)``, checked to lie
    inside the state tetrahedron, where the standard-form spectrum is nonnegative."""
    d = np.asarray(d, dtype=float)
    if d.ndim not in (1, 2) or d.shape[-1] != 3:
        raise ShapeError(f"expected a triple (d1, d2, d3) or triples (B, 3), got shape {d.shape}")
    d = d.reshape(-1, 3)
    # NaN compares False against the tolerance below, so it must be caught first.
    if not np.isfinite(d).all():
        raise NonFiniteError("standard-form triple has NaN or infinite entries")
    # Far outside the tetrahedron (|d_j| near 1e308) an eigenvalue overflows to
    # -inf, which the check below rejects as it should.
    with np.errstate(over="ignore"):
        low = standard_form_eigenvalues(d).min(axis=1)
    bad = np.flatnonzero(low < -POSITIVITY_TOL)
    if bad.size:
        i = bad[0]
        raise PositivityError(
            f"d={tuple(d[i].tolist())} lies outside the state tetrahedron "
            f"(eigenvalue {low[i]:.6g})",
            min_eigenvalue=float(low[i]),
        )
    return d


def standard_form_state(d):
    """(1/4)(1 x 1 + sum_j d_j sigma_j x sigma_j) for d inside the state tetrahedron.

    One triple gives a :class:`DensityOperator`; triples ``(B, 3)`` give
    the validated stack ``(B, 4, 4)``.
    """
    triples = _tetrahedron_triples(d)
    sigma = basis_matrices(2)
    m = np.eye(4, dtype=complex)
    for j in range(3):
        m = m + triples[:, j, None, None] * np.kron(sigma[j + 1], sigma[j + 1])
    m = m / 4.0
    return DensityOperator(m[0]) if np.ndim(d) == 1 else validate_densities(m)


def convex_combine(terms) -> DensityOperator:
    """Mixture sum_i w_i rho_i; weights must be nonnegative and sum to 1."""
    terms = list(terms)
    if not terms:
        raise NormalizationError("cannot combine an empty sequence of states")
    weights = np.array([float(w) for w, _ in terms])
    if np.any(weights < 0.0):
        raise NormalizationError(f"weights must be nonnegative, got {weights.tolist()}")
    if abs(weights.sum() - 1.0) > TRACE_TOL:
        raise NormalizationError(f"weights sum to {weights.sum():.15g}, expected 1")
    mats = [as_matrix(s) for _, s in terms]
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (dim, dim):
            raise ShapeError("all states in a mixture must share one dimension")
    out = np.zeros((dim, dim), dtype=complex)
    for w, m in zip(weights, mats):
        out += w * m
    return DensityOperator(out)


@_per_state
def purity(rhos):
    """Tr(rho^2): a float for one matrix, shape ``(B,)`` for a stack ``(B, d, d)``."""
    return np.trace(rhos @ rhos, axis1=-2, axis2=-1).real


# -- random ensembles (used by the test and acceptance suites) ---------------

def random_density(dim: int, rank: int | None = None, rng=None) -> DensityOperator:
    """G G^H / Tr(G G^H) with complex standard-normal G of shape (dim, rank)."""
    rng = np.random.default_rng() if rng is None else rng
    rank = dim if rank is None else rank
    for name, value in (("dim", dim), ("rank", rank)):
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not (integer and value >= 1):
            raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
    return DensityOperator(_random_matrix(dim, rank, rng))


def _random_matrix(dim: int, rank: int, rng) -> np.ndarray:
    """The matrix that :func:`random_density` draws from ``rng``, not validated."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure(dim: int, rng=None) -> DensityOperator:
    return random_density(dim, rank=1, rng=rng)


def random_unitary(dim: int, rng=None) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a complex Gaussian."""
    rng = np.random.default_rng() if rng is None else rng
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


# -- state files --------------------------------------------------------------

def state_to_dict(state) -> dict:
    rho = as_matrix(state)
    return {"dim": int(rho.shape[0]), "matrix": complex_pairs(rho)}


def state_from_dict(doc) -> DensityOperator:
    if not isinstance(doc, dict) or "dim" not in doc or "matrix" not in doc:
        raise FormatError("state document must be an object with 'dim' and 'matrix'")
    dim = doc["dim"]
    if not isinstance(dim, int) or dim < 2:
        raise FormatError(f"'dim' must be an integer >= 2, got {dim!r}")
    rows = doc["matrix"]
    try:
        m = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows],
            dtype=complex,
        )
    except (TypeError, ValueError, LookupError, OverflowError) as exc:
        raise FormatError(f"'matrix' must be rows of [re, im] pairs: {exc}") from exc
    if m.shape != (dim, dim):
        raise FormatError(f"'matrix' has shape {m.shape}, expected ({dim}, {dim})")
    return DensityOperator(m)


def save_state(state, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(state_to_dict(state), fh)
        fh.write("\n")


def load_state(path) -> DensityOperator:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return state_from_dict(doc)

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
from functools import lru_cache

import numpy as np

from .basis import generate_basis
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


def as_matrix(state) -> np.ndarray:
    """Accept a DensityOperator or a plain array; return the matrix."""
    return np.asarray(getattr(state, "matrix", state), dtype=complex)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Validated density operator: Hermitian, unit trace, PSD.

    Construction raises :class:`NonFiniteError`, :class:`SymmetryError`,
    :class:`NormalizationError` or :class:`PositivityError` naming the
    violated invariant, so loaders can report exactly which check failed.
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape != (self.dim, self.dim):
            raise ShapeError(f"expected a {self.dim}x{self.dim} matrix, got shape {m.shape}")
        # NaN compares False against every tolerance below, so it must be caught first.
        if not np.all(np.isfinite(m)):
            raise NonFiniteError("matrix has NaN or infinite entries")
        dev = float(np.max(np.abs(m - m.conj().T)))
        if dev > HERMITICITY_TOL:
            raise SymmetryError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise NormalizationError(f"trace is {tr:.15g}, expected 1")
        _check_positive(m)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, matrix) -> "DensityOperator":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {m.shape}")
        return cls(dim=m.shape[0], matrix=m)


def _check_positive(m: np.ndarray) -> None:
    # Cholesky of the shifted matrix is a cheap sufficient check; only
    # near-boundary cases pay for a full spectrum.
    shifted = m + POSITIVITY_TOL * np.eye(m.shape[0])
    try:
        np.linalg.cholesky((shifted + shifted.conj().T) / 2)
        return
    except np.linalg.LinAlgError:
        pass
    w = hermitian_eigenvalues(m)
    if w[0] < -POSITIVITY_TOL:
        raise PositivityError(
            f"matrix has negative eigenvalue {w[0]:.3e}", min_eigenvalue=float(w[0])
        )


@dataclass(frozen=True)
class BlochVector:
    """Traceless expansion coefficients of a single-system state."""

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
    sigma = generate_basis(n).sigma
    return (sigma[0] + np.einsum("j,jab->ab", m, sigma[1:])) / n


def bloch_decode(state) -> BlochVector:
    """Expansion coefficients m_j = (n/2) Tr(rho sigma_j)."""
    rho = as_matrix(state)
    n = rho.shape[0]
    if rho.ndim != 2 or rho.shape != (n, n) or n < 2:
        raise ShapeError(f"expected a square matrix of dimension >= 2, got {rho.shape}")
    sigma = generate_basis(n).sigma
    m = (n / 2.0) * np.einsum("ab,jba->j", rho, sigma[1:]).real
    return BlochVector(n=n, m=m)


def partial_trace(state, subsystem: str = "A") -> DensityOperator:
    """Reduced state of the kept subsystem ('A' keeps A, traces out B)."""
    rho = as_matrix(state)
    n = local_dimension(rho.shape[0])
    four = rho.reshape(n, n, n, n)
    if subsystem == "A":
        red = np.einsum("ikjk->ij", four)
    elif subsystem == "B":
        red = np.einsum("kikj->ij", four)
    else:
        raise DomainError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return DensityOperator.from_matrix(red)


def spin_flip_matrix(m: np.ndarray) -> np.ndarray:
    """Raw two-qubit flip map M -> (sigma_y x sigma_y) conj(M) (sigma_y x sigma_y)."""
    if m.shape != (4, 4):
        raise DimensionError(f"spin flip is defined for dimension 4, got {m.shape[0]}")
    yy = _sigma_yy()
    return yy @ m.conj() @ yy


def spin_flip(state) -> DensityOperator:
    """Two-qubit spin flip (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y)."""
    return DensityOperator.from_matrix(spin_flip_matrix(as_matrix(state)))


@lru_cache(maxsize=1)
def _sigma_yy() -> np.ndarray:
    sy = generate_basis(2).sigma[2]
    m = np.kron(sy, sy)
    m.setflags(write=False)
    return m


def partial_transpose(state, subsystem: str = "B") -> np.ndarray:
    """Transpose one tensor factor; Hermitian but possibly indefinite."""
    rho = as_matrix(state)
    n = local_dimension(rho.shape[0])
    four = rho.reshape(n, n, n, n)
    if subsystem == "B":
        out = np.transpose(four, (0, 3, 2, 1))
    elif subsystem == "A":
        out = np.transpose(four, (2, 1, 0, 3))
    else:
        raise DomainError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return out.reshape(n * n, n * n)


def bell_state() -> DensityOperator:
    """Projector on (|00> + |11>)/sqrt(2)."""
    ket = np.zeros(4, dtype=complex)
    ket[0] = ket[3] = 1.0 / np.sqrt(2.0)
    return DensityOperator.from_matrix(np.outer(ket, ket.conj()))


def maximally_mixed(dim: int) -> DensityOperator:
    return DensityOperator.from_matrix(np.eye(dim, dtype=complex) / dim)


def werner(x: float) -> DensityOperator:
    """x |phi+><phi+| + (1-x) 1/4 for x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"werner parameter must lie in [0, 1], got {x}")
    m = x * bell_state().matrix + (1.0 - x) * np.eye(4, dtype=complex) / 4.0
    return DensityOperator.from_matrix(m)


def schmidt_mix(x: float, alpha0: float) -> DensityOperator:
    """x |a0><a0| + (1-x) 1/4 with |a0> = cos(a0)|00> + sin(a0)|11>."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"mixing parameter must lie in [0, 1], got {x}")
    ket = np.zeros(4, dtype=complex)
    ket[0] = np.cos(alpha0)
    ket[3] = np.sin(alpha0)
    m = x * np.outer(ket, ket.conj()) + (1.0 - x) * np.eye(4, dtype=complex) / 4.0
    return DensityOperator.from_matrix(m)


def standard_form_eigenvalues(d) -> np.ndarray:
    """Bell-basis spectrum of the standard-form state for triple d."""
    d1, d2, d3 = (float(v) for v in d)
    return np.array(
        [
            (1.0 - d1 - d2 - d3) / 4.0,
            (1.0 - d1 + d2 + d3) / 4.0,
            (1.0 + d1 - d2 + d3) / 4.0,
            (1.0 + d1 + d2 - d3) / 4.0,
        ]
    )


def standard_form_state(d) -> DensityOperator:
    """(1/4)(1 x 1 + sum_j d_j sigma_j x sigma_j) for d inside the state tetrahedron."""
    d = np.asarray(d, dtype=float)
    if d.shape != (3,):
        raise ShapeError(f"expected a triple (d1, d2, d3), got shape {d.shape}")
    ev = standard_form_eigenvalues(d)
    if float(ev.min()) < -POSITIVITY_TOL:
        raise PositivityError(
            f"d={tuple(d)} lies outside the state tetrahedron "
            f"(eigenvalue {float(ev.min()):.6g})",
            min_eigenvalue=float(ev.min()),
        )
    sigma = generate_basis(2).sigma
    m = np.eye(4, dtype=complex)
    for j in range(3):
        m += d[j] * np.kron(sigma[j + 1], sigma[j + 1])
    return DensityOperator.from_matrix(m / 4.0)


def convex_combine(terms) -> DensityOperator:
    """Mixture sum_i w_i rho_i; weights must be nonnegative and sum to 1."""
    terms = list(terms)
    if not terms:
        raise NormalizationError("cannot combine an empty sequence of states")
    weights = np.array([float(w) for w, _ in terms])
    if np.any(weights < 0.0):
        raise NormalizationError(f"weights must be nonnegative, got {weights.tolist()}")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise NormalizationError(f"weights sum to {weights.sum():.15g}, expected 1")
    mats = [as_matrix(s) for _, s in terms]
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (dim, dim):
            raise ShapeError("all states in a mixture must share one dimension")
    out = np.zeros((dim, dim), dtype=complex)
    for w, m in zip(weights, mats):
        out += w * m
    return DensityOperator.from_matrix(out)


def purity(state) -> float:
    rho = as_matrix(state)
    return float(np.trace(rho @ rho).real)


# -- random ensembles (used by the test and acceptance suites) ---------------

def random_density(dim: int, rank: int | None = None, rng=None) -> DensityOperator:
    """G G^H / Tr(G G^H) with complex standard-normal G of shape (dim, rank)."""
    rng = np.random.default_rng() if rng is None else rng
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return DensityOperator.from_matrix(m / np.trace(m).real)


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
    return {
        "dim": int(rho.shape[0]),
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho],
    }


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
    except (TypeError, ValueError, IndexError) as exc:
        raise FormatError(f"'matrix' must be rows of [re, im] pairs: {exc}") from exc
    if m.shape != (dim, dim):
        raise FormatError(f"'matrix' has shape {m.shape}, expected ({dim}, {dim})")
    return DensityOperator(dim=dim, matrix=m)


def save_state(state, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(state_to_dict(state), fh)
        fh.write("\n")


def load_state(path) -> DensityOperator:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return state_from_dict(doc)

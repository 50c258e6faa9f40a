"""Generalized Pauli (Gell-Mann type) bases of u(n) with structure constants.

Conventions used throughout the package:

* ``sigma[0]`` is the identity; ``sigma[1:]`` are traceless Hermitian
  matrices normalized to ``Tr(sigma_j sigma_k) = 2 delta_jk``.
* Generator ordering is fixed: symmetric off-diagonal pairs (row-major),
  then antisymmetric off-diagonal pairs (row-major), then the diagonal
  generators.  For n=2 this yields the Pauli matrices in x, y, z order.
* Brackets are halved: ``{A,B} := (AB + BA)/2`` and
  ``[A,B] := (AB - BA)/(2i)``, so that
  ``sigma_j sigma_k = {sigma_j,sigma_k} + i [sigma_j,sigma_k]`` and

  ``{sigma_j,sigma_k} = (2/n) delta_jk sigma_0 + d_jkl sigma_l``,
  ``[sigma_j,sigma_k] = c_jkl sigma_l``

  with ``c`` totally antisymmetric and ``d`` totally symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BasisConsistencyError, DimensionError

RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class HermitianBasis:
    """Hermitian operator basis of u(n) plus its structure constants.

    Attributes
    ----------
    n : int
        Matrix dimension.
    sigma : ndarray, shape (n**2, n, n)
        Stacked basis matrices, identity first.
    c : ndarray, shape (n**2-1,)*3
        Antisymmetric structure constants over the traceless generators
        (index 0 of ``c`` refers to ``sigma[1]``).
    d : ndarray, shape (n**2-1,)*3
        Symmetric structure constants, same indexing.
    """

    n: int
    sigma: np.ndarray
    c: np.ndarray
    d: np.ndarray


def _gell_mann_matrices(n: int) -> np.ndarray:
    mats = [np.eye(n, dtype=complex)]
    sym, antisym = [], []
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            sym.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            antisym.append(m)
    diag = []
    for l in range(1, n):
        m = np.zeros((n, n), dtype=complex)
        for i in range(l):
            m[i, i] = 1.0
        m[l, l] = -float(l)
        m *= np.sqrt(2.0 / (l * (l + 1)))
        diag.append(m)
    return np.stack(mats + sym + antisym + diag)


def _structure_from_sigma(sigma: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    gen = sigma[1:]
    prod = np.einsum("jab,kbc->jkac", gen, gen)
    anti = 0.5 * (prod + np.transpose(prod, (1, 0, 2, 3)))
    comm = (prod - np.transpose(prod, (1, 0, 2, 3))) / 2j
    # Projection: coefficient of sigma_l is Tr(. sigma_l)/2.
    c = 0.5 * np.einsum("jkab,lba->jkl", comm, gen).real
    d = 0.5 * np.einsum("jkab,lba->jkl", anti, gen).real
    m = n * n - 1
    recon = np.einsum("jkl,lab->jkab", d, gen)
    recon += (2.0 / n) * np.eye(m)[:, :, None, None] * np.eye(n)[None, None, :, :]
    residual = np.sqrt(np.sum(np.abs(anti - recon) ** 2, axis=(2, 3)))
    worst = float(np.max(residual))
    if worst > RESIDUAL_TOL:
        raise BasisConsistencyError(
            f"anticommutator reconstruction residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e}"
        )
    return c, d


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def basis_matrices(n: int) -> np.ndarray:
    """The stacked basis matrices of u(n), n >= 2, identity first: ``generate_basis(n).sigma``.

    Read-only and cached.  Callers that need only the matrices use this and
    do not pay for the structure constants, which grow as n^6.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise DimensionError(f"basis dimension must be an integer >= 2, got {n!r}")
    return _freeze(_gell_mann_matrices(int(n)))


@lru_cache(maxsize=None)
def generate_basis(n: int) -> HermitianBasis:
    """Build the generalized Pauli basis of u(n), n >= 2.

    Returns a :class:`HermitianBasis` with structure constants computed
    numerically by trace projection and verified against the halved
    anticommutator identity.
    """
    sigma = basis_matrices(n)
    c, d = _structure_from_sigma(sigma, int(n))
    return HermitianBasis(n=int(n), sigma=sigma, c=_freeze(c), d=_freeze(d))


def basis_to_dict(basis: HermitianBasis) -> dict:
    """JSON-ready view: complex entries become [re, im] pairs."""
    sigma = [
        [[[float(z.real), float(z.imag)] for z in row] for row in mat]
        for mat in basis.sigma
    ]
    return {
        "n": basis.n,
        "sigma": sigma,
        "c": basis.c.tolist(),
        "d": basis.d.tolist(),
    }

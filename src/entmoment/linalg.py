"""Dense Hermitian eigensolver (round-robin Jacobi) and small PSD helpers.

Everything in this package that needs a spectrum goes through
:func:`hermitian_eigensystem`, so results are deterministic and
independent of any vendored LAPACK build.  Every function here takes one
matrix or a stack ``(..., n, n)``; one matrix is solved as a stack of
one.  Each matrix of a stack goes through exactly the arithmetic it
would get alone, so results do not depend on how matrices are batched.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DimensionError, SymmetryError

MAX_DIM = 64
SOLVER_HERMITICITY_TOL = 1e-10
OFF_DIAGONAL_TOL = 1e-12


def _check_hermitian(matrix: np.ndarray, tol: float = SOLVER_HERMITICITY_TOL) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise SymmetryError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    dev = float(np.abs(a - np.swapaxes(a, -1, -2).conj()).max()) if a.size else 0.0
    if dev > tol:
        raise SymmetryError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return a


def _off_diagonal_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix's off-diagonal part, shape ``(B,)``."""
    count, m = a.shape[0], a.shape[-1]
    b = np.abs(a).reshape(count, m * m)
    b[:, :: m + 1] = 0.0
    return np.sqrt((b * b).sum(axis=-1))


@lru_cache(maxsize=None)
def _round_robin(m: int, rows: int) -> tuple:
    """Round-robin pair schedule on ``m`` (even) indices, as position permutations.

    The working matrix is kept permuted so that each round rotates the
    position pairs (j, j + m/2).  Returns the position of each original
    index in the first round's layout, the index pair that permutes a
    ``(rows, m)`` working array into that layout and, per round, the
    index pair that moves it to the next round's layout.  Rows past m
    (eigenvector rows) keep their order.  The last step returns to the
    first layout, so every sweep starts and ends there.  Each sweep
    rotates every index pair exactly once (circle method; Brent & Luk,
    SIAM J. Sci. Stat. Comput. 6, 69 (1985)).
    """
    tail = np.arange(m, rows)

    def index(perm):
        return np.concatenate([perm, tail])[:, None], perm

    if m < 2:
        return np.arange(m), index(np.arange(m)), ()
    layouts = []
    for r in range(m - 1):
        ring = [0] + [1 + (j + r) % (m - 1) for j in range(m - 1)]
        layouts.append(np.array(ring[: m // 2] + ring[: m // 2 - 1 : -1]))
    steps = tuple(
        index(np.argsort(layout)[layouts[(r + 1) % (m - 1)]])
        for r, layout in enumerate(layouts)
    )
    return np.argsort(layouts[0]), index(layouts[0]), steps


def _rotate_pairs(work: np.ndarray, skip: np.ndarray) -> None:
    """Apply one round of m/2 disjoint Jacobi rotations in place.

    ``work`` is ``(B, rows, m)``: A in the first m rows and, when
    eigenvectors are wanted, V below it.  Pair j is (p, q) = (j, j + m/2).
    With J the direct sum of the 2x2 rotations this is ``A <- J^H A J``
    and ``V <- V J``; the rotated (p, q) entries are then set to zero and
    the rotated diagonal entries to their closed forms.  A pair whose
    ``|a_pq|`` is below ``skip`` gets an exact identity rotation.
    """
    count, rows, m = work.shape
    k = m // 2
    # Strided views of the (p, p), (q, q), (p, q) and (q, p) entries of every pair;
    # copy=False (numpy >= 2.1) raises rather than let the writes below land in a copy.
    flat = work.reshape(count, rows * m, copy=False)
    pp, qq = flat[:, : k * (m + 1) : m + 1], flat[:, k * (m + 1) : m * m : m + 1]
    pq, qp = flat[:, k : k * (m + 2) : m + 1], flat[:, k * m : k * (2 * m + 1) : m + 1]
    app, aqq = pp.real, qq.real
    mag = np.abs(pq)
    # keep is 1 on skipped pairs (|a_pq| < skip) and 0 on rotated ones.
    keep = np.heaviside(skip - mag, 0.0)
    # tau = (a_qq - a_pp) / (2 |a_pq|) and t = tan(theta) of the smaller angle.  A
    # skipped pair divides by |a_pq| + 1 (never by 0) and its t is zeroed: c = 1, s = 0.
    safe = mag + keep
    tau = (aqq - app) / (safe + safe)
    t = np.copysign((1.0 - keep) / (np.abs(tau) + np.hypot(1.0, tau)), tau)
    c = 1.0 / np.hypot(1.0, t)
    s = (t * c / safe) * pq
    shift = t * mag
    new_pp, new_qq = app - shift, aqq + shift
    c, sbar = c.astype(complex), s.conj()
    # Columns of A and V: X <- X J.
    cc, sc, sbc = c[:, None, :], s[:, None, :], sbar[:, None, :]
    x, y = work[..., :k], work[..., k:]
    new_x = x * cc - y * sbc
    np.add(x * sc, y * cc, out=y)
    x[...] = new_x
    # Rows of A: A <- J^H A.
    cr, sr, sbr = c[:, :, None], s[:, :, None], sbar[:, :, None]
    x, y = work[:, :k], work[:, k:m]
    new_x = cr * x - sr * y
    np.add(sbr * x, cr * y, out=y)
    x[...] = new_x
    pp[...] = new_pp
    qq[...] = new_qq
    pq *= keep
    qp *= keep


def _jacobi(matrix: np.ndarray, max_sweeps: int, compute_vectors: bool):
    a = _check_hermitian(matrix)
    n = a.shape[-1]
    if n > MAX_DIM:
        raise DimensionError(f"dimension {n} exceeds the supported maximum {MAX_DIM}")
    batch = a.shape[:-2]
    count = math.prod(batch)
    a = a.reshape(count, n, n)
    scale = np.maximum(1.0, np.abs(a.reshape(count, n * n)).max(axis=-1, initial=0.0))
    tol = OFF_DIAGONAL_TOL * scale
    # Rotations below this threshold cannot push the off-norm above tol.
    skip = tol * (0.25 / max(n, 1))
    # Odd sizes get a zero padding index; its rotations are all identities.
    m = n + n % 2
    rows = 2 * m if compute_vectors else m
    position, start, steps = _round_robin(m, rows)
    work = np.zeros((count, rows, m), dtype=complex)
    work[:, :n, :n] = a
    work.reshape(count, rows * m)[:, m * m :: m + 1] = 1.0  # V = I below A
    work = work[:, start[0], start[1]]
    w = np.empty((count, m))
    v = np.empty((count, m, m), dtype=complex) if compute_vectors else None
    live = np.arange(count)
    for sweep in range(max_sweeps + 1):
        # A matrix leaves at the sweep where it would stop if solved alone.
        done = _off_diagonal_norms(work[:, :m]) < tol
        if done.any():
            finished = work[done]
            w[live[done]] = np.diagonal(finished, axis1=1, axis2=2).real
            if compute_vectors:
                v[live[done]] = finished[:, m:]
            live, work, tol, skip = live[~done], work[~done], tol[~done], skip[~done]
        if not live.size:
            break
        if sweep == max_sweeps:
            raise ConvergenceError(f"Jacobi iteration did not converge in {max_sweeps} sweeps")
        for row_index, col_index in steps:
            _rotate_pairs(work, skip[:, None])
            work = work[:, row_index, col_index]
    # Back to the original index order with the padding dropped; a stable
    # sort keeps tied eigenvalues in that order.
    position = position[:n]
    pick = np.arange(count)[:, None]
    order = position[np.argsort(w[:, position], axis=-1, kind="stable")]
    w = w[pick, order].reshape(*batch, n)
    if not compute_vectors:
        return w, None
    v = v[pick[:, None], np.arange(n)[:, None], order[:, None, :]]
    return w, v.reshape(*batch, n, n)


def hermitian_eigensystem(
    matrix: np.ndarray, max_sweeps: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize Hermitian matrices with round-robin Jacobi rotations.

    Parameters
    ----------
    matrix : array_like
        Hermitian matrix, or a stack ``(..., n, n)`` of them, with n at
        most 64.
    max_sweeps : int
        Budget of full sweeps (every index pair rotated once) before
        giving up.

    Returns
    -------
    (w, v) : tuple of ndarray
        Eigenvalues ``w`` (shape ``(..., n)``) sorted ascending and
        unitaries ``v`` whose columns are the matching eigenvectors, so
        that ``matrix ≈ v @ diag(w) @ v.conj().T`` for each matrix.

    Raises
    ------
    SymmetryError
        If an input deviates from Hermiticity by more than 1e-10.
    ConvergenceError
        If some matrix's off-diagonal norm has not dropped below 1e-12
        (relative to its largest entry) after ``max_sweeps`` sweeps.
    """
    return _jacobi(matrix, max_sweeps=max_sweeps, compute_vectors=True)


def hermitian_eigenvalues(matrix: np.ndarray, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues only; same iteration as :func:`hermitian_eigensystem`."""
    w, _ = _jacobi(matrix, max_sweeps=max_sweeps, compute_vectors=False)
    return w


def psd_sqrt(matrix: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix (or of each in a stack).

    Eigenvalues below ``floor`` are treated as exact zeros before the
    square root; this keeps the result rank-exact for nearly singular
    inputs instead of injecting sqrt(machine-noise) components.
    """
    w, v = hermitian_eigensystem(matrix)
    w = np.where(w < floor, 0.0, w)
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values (descending) via the Hermitian block embedding.

    The eigenvalues of ``[[0, X], [X^H, 0]]`` are plus/minus the singular
    values of ``X``, so the Jacobi solver delivers them with absolute
    accuracy proportional to machine epsilon; no square root of a noisy
    Gram matrix is ever taken.  A stack ``(..., r, c)`` gives ``(..., min(r, c))``.
    """
    x = np.asarray(matrix, dtype=complex)
    if x.ndim < 2:
        raise SymmetryError(f"expected a matrix, got shape {x.shape}")
    r, c = x.shape[-2:]
    h = np.zeros((*x.shape[:-2], r + c, r + c), dtype=complex)
    h[..., :r, r:] = x
    h[..., r:, :r] = np.swapaxes(x, -1, -2).conj()
    w = hermitian_eigenvalues(h)
    sv = w[..., ::-1][..., : min(r, c)]
    return np.clip(sv, 0.0, None)

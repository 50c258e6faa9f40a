"""Dense Hermitian eigensolver (round-robin Jacobi) and a PSD factor.

Everything in this package that needs a spectrum or singular values goes
through one Jacobi kernel, so results are deterministic and independent
of any vendored LAPACK build.  Every function here takes one
matrix or a stack ``(..., n, n)``; one matrix is solved as a stack of
one.  Each matrix of a stack goes through exactly the arithmetic it
would get alone, so results do not depend on how matrices are batched.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DimensionError, NonFiniteError, SymmetryError

MAX_DIM = 64
SOLVER_HERMITICITY_TOL = 1e-10
OFF_DIAGONAL_TOL = 1e-12
PIVOT_TOL = 1e-14
# Budget of full Jacobi sweeps (every index pair rotated once) before giving up.
MAX_SWEEPS = 100


def _check_hermitian(matrix: np.ndarray) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise SymmetryError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix has NaN or infinite entries")
    dev = float(np.abs(a - np.swapaxes(a, -1, -2).conj()).max()) if a.size else 0.0
    if dev > SOLVER_HERMITICITY_TOL:
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
    ``(rows, m)`` working array into that layout, and the index pair that
    moves any round's layout to the next round's.  Rows past m (carried
    rows) keep their order.  Every round turns the ring by the same step,
    so a sweep of m - 1 rounds rotates every index pair exactly once and
    ends on the first layout (circle method; Brent & Luk, SIAM J. Sci.
    Stat. Comput. 6, 69 (1985)).
    """
    tail = np.arange(m, rows)

    def index(perm):
        return np.concatenate([perm, tail])[:, None], perm

    def layout(r):
        ring = [0] + [1 + (j + r) % (m - 1) for j in range(m - 1)]
        return np.array(ring[: m // 2] + ring[: m // 2 - 1 : -1], dtype=int)

    first = layout(0)
    position = np.argsort(first)
    return position, index(first), index(position[layout(1)])


def _rotate_pairs(work: np.ndarray, skip: np.ndarray) -> None:
    """Apply one round of m/2 disjoint Jacobi rotations in place.

    ``work`` is ``(B, rows, m)``: A in the first m rows and the carried
    rows X below it.  Pair j is (p, q) = (j, j + m/2).  With J the direct
    sum of the 2x2 rotations this is ``A <- J^H A J`` and ``X <- X J``;
    the rotated (p, q) entries are then set to zero and the rotated
    diagonal entries to their closed forms.  A pair whose
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
    keep = (mag < skip).astype(float)
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
    # Columns of A and of the carried rows: A <- A J, X <- X J.  Every product
    # reads the old x and y before either is overwritten.
    cc, sc, sbc = c[:, None, :], s[:, None, :], sbar[:, None, :]
    x, y = work[..., :k], work[..., k:]
    xs = x * sc
    np.subtract(x * cc, y * sbc, out=x)
    np.add(xs, y * cc, out=y)
    # Rows of A: A <- J^H A.
    cr, sr, sbr = c[:, :, None], s[:, :, None], sbar[:, :, None]
    x, y = work[:, :k], work[:, k:m]
    xs = sbr * x
    np.subtract(cr * x, sr * y, out=x)
    np.add(xs, cr * y, out=y)
    pp[...] = new_pp
    qq[...] = new_qq
    # keep as complex: the same multiplication as the implicit cast, without its cost.
    keep = keep.astype(complex)
    pq *= keep
    qp *= keep


def _jacobi(a: np.ndarray, carry=None, size=None):
    """Ascending eigenvalues of the Hermitian stack ``a`` and ``carry @ V``.

    ``carry`` (rows ``(..., k, n)``, one block for all matrices, or None)
    gets the column rotations of ``a``; its columns follow the eigenvalues.
    ``size`` (broadcast over the stack; default n) is each matrix's own
    size where the caller padded it with zero rows and columns: it sets
    the rotation-skip threshold, so a padded matrix is rotated exactly as
    it would be alone.
    """
    n = a.shape[-1]
    if n > MAX_DIM:
        raise DimensionError(f"dimension {n} exceeds the supported maximum {MAX_DIM}")
    batch = a.shape[:-2]
    count = math.prod(batch)
    a = a.reshape(count, n, n)
    scale = np.maximum(1.0, np.abs(a.reshape(count, n * n)).max(axis=-1, initial=0.0))
    tol = OFF_DIAGONAL_TOL * scale
    # Rotations below this threshold cannot push the off-norm above tol.
    sizes = np.broadcast_to(n if size is None else size, batch).reshape(count)
    skip = tol * (0.25 / np.maximum(sizes, 1))
    # Odd sizes get a zero padding index; its rotations are all identities.
    m = n + n % 2
    k = 0 if carry is None else carry.shape[-2]
    position, start, (row_index, col_index) = _round_robin(m, m + k)
    work = np.zeros((count, m + k, m), dtype=complex)
    work[:, :n, :n] = a
    if k:
        work[:, m:, :n] = carry.reshape(-1, k, n)
    work = work[:, start[0], start[1]]
    w = np.empty((count, m))
    carried = np.empty((count, k, m), dtype=complex)
    live = np.arange(count)
    for sweep in range(MAX_SWEEPS + 1):
        # A matrix leaves at the sweep where it would stop if solved alone.
        done = _off_diagonal_norms(work[:, :m]) < tol
        if done.any():
            finished, rows, going = work[done], live[done], ~done
            w[rows] = np.diagonal(finished, axis1=1, axis2=2).real
            carried[rows] = finished[:, m:]
            live, work, tol, skip = live[going], work[going], tol[going], skip[going]
        if not live.size:
            break
        if sweep == MAX_SWEEPS:
            raise ConvergenceError(f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps")
        for _ in range(m - 1):
            _rotate_pairs(work, skip[:, None])
            work = work[:, row_index, col_index]
    # Back to the original index order with the padding dropped; a stable
    # sort keeps tied eigenvalues in that order.
    position = position[:n]
    pick = np.arange(count)[:, None]
    order = position[np.argsort(w[:, position], axis=-1, kind="stable")]
    w = w[pick, order].reshape(*batch, n)
    carried = carried[pick[:, None], np.arange(k)[:, None], order[:, None, :]]
    return w, carried.reshape(*batch, k, n)


def hermitian_eigensystem(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize Hermitian matrices with round-robin Jacobi rotations.

    Parameters
    ----------
    matrix : array_like
        Hermitian matrix, or a stack ``(..., n, n)`` of them, with n at
        most 64.

    Returns
    -------
    (w, v) : tuple of ndarray
        Eigenvalues ``w`` (shape ``(..., n)``) sorted ascending and
        unitaries ``v`` whose columns are the matching eigenvectors, so
        that ``matrix ≈ v @ diag(w) @ v.conj().T`` for each matrix.

    Raises
    ------
    NonFiniteError
        If an input holds a NaN or infinite entry.
    SymmetryError
        If an input deviates from Hermiticity by more than 1e-10.
    ConvergenceError
        If some matrix's off-diagonal norm has not dropped below
        1e-12 * max(1, largest entry) after ``MAX_SWEEPS`` sweeps.
    """
    a = _check_hermitian(matrix)
    return _jacobi(a, carry=np.eye(a.shape[-1]))


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues only; same iteration as :func:`hermitian_eigensystem`."""
    return _jacobi(_check_hermitian(matrix))[0]


def _pivoted_cholesky(matrix: np.ndarray) -> np.ndarray:
    """W with W W^H = A for each PSD matrix of a stack ``(B, n, n)``, by pivoted Cholesky.

    Step k pivots on each matrix's largest remaining diagonal entry.  As |a_ij| <=
    sqrt(a_ii a_jj) for PSD input, once that entry is at most ``PIVOT_TOL`` times A's
    largest diagonal entry it is replaced by inf, so this and every later column is 0.
    """
    a = _check_hermitian(matrix).copy()
    rows = np.arange(len(a))
    diagonal = np.diagonal(a, axis1=-2, axis2=-1).real
    floor = PIVOT_TOL * np.abs(diagonal).max(axis=-1, initial=0.0)
    w = np.empty_like(a)
    for k in range(a.shape[-1]):
        pivot = diagonal.argmax(axis=-1)
        top = diagonal[rows, pivot]
        root = np.sqrt(np.where(top > floor, top, np.inf))
        w[:, :, k] = column = a[rows, :, pivot] / root[:, None]
        a -= column[:, :, None] * column[:, None, :].conj()
    return w


def _gram_factor(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X (X^H when X is wide) scaled by 2^-e, and e, for :func:`_gram`."""
    x = np.asarray(matrix, dtype=complex)
    if x.ndim < 2:
        raise SymmetryError(f"expected a matrix, got shape {x.shape}")
    if x.shape[-1] > x.shape[-2]:
        x = np.swapaxes(x, -1, -2).conj()
    # G squares the scale of X and Jacobi stops relative to max(1, max |G|):
    # scale X exactly, by a power of two, so that max |x| lies in [0.5, 1).
    mantissa, e = np.frexp(np.abs(x).max(axis=(-2, -1), initial=0.0))
    if not np.isfinite(mantissa).all():
        raise NonFiniteError("matrix has NaN or infinite entries")
    # Scale the entries themselves (real and imaginary parts as one float
    # array): the factor 2^-e alone overflows to inf when max |x| is subnormal.
    return np.ldexp(np.ascontiguousarray(x).view(float), -e[..., None, None]).view(complex), e


def _gram_values(w: np.ndarray, xv, e: np.ndarray):
    """G's eigenvalues and X's singular values (None without ``xv``), both descending
    and rescaled, from the Jacobi output for the factor of :func:`_gram_factor`."""
    w = np.ldexp(w[..., ::-1], 2 * e[..., None])
    if xv is None:
        return w, None
    sv = -np.sort(-np.sqrt((xv.real**2 + xv.imag**2).sum(axis=-2)), axis=-1)
    return w, np.ldexp(sv, e[..., None])


def _gram(matrix: np.ndarray, carry: bool = True):
    """Jacobi on the Gram matrix G = X^H X of X (of X^H when X is wide).

    Returns G's eigenvalues and, if ``carry``, X's singular values (else
    None), both descending, shape ``(..., min(r, c))``.  X carried through
    the rotations ends as X V, whose column norms are the singular values
    (one-sided Jacobi, Hestenes): accurate to about eps ||X||, not sqrt(eps).
    """
    x, e = _gram_factor(matrix)
    w, xv = _jacobi(np.swapaxes(x, -1, -2).conj() @ x, x if carry else None)
    return _gram_values(w, xv if carry else None, e)


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values (descending) of a matrix or a stack ``(..., r, c)``; see :func:`_gram`."""
    return _gram(matrix)[1]

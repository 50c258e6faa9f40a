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
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DimensionError, NonFiniteError, SymmetryError

MAX_DIM = 64
SOLVER_HERMITICITY_TOL = 1e-10
OFF_DIAGONAL_TOL = 1e-12
PIVOT_TOL = 1e-14
# Budget of full Jacobi sweeps (every index pair rotated once) before giving up.
MAX_SWEEPS = 100
# The Jacobi stack drops its finished matrices once they hold this many working
# entries.  A compaction (the round state re-viewed and one take) costs about one
# round's arithmetic on 2,000-5,000 such entries at m = 4 and B = 16-256, and they
# would cost that in each of at least m - 1 rounds, so the stack compacts late rather
# than early: a two-qubit call (at most 96 finished entries) never does.
_COMPACTION_ENTRIES = 2048


def _real_or_complex(matrix) -> np.ndarray:
    """``matrix`` as a float64 array, or complex128 when its entries are complex."""
    a = np.asarray(matrix)
    return a.astype(complex if a.dtype.kind in "cO" else float, copy=False)


def _check_hermitian(matrix: np.ndarray) -> np.ndarray:
    a = _real_or_complex(matrix)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise SymmetryError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix has NaN or infinite entries")
    dev = float(np.abs(a - np.swapaxes(a, -1, -2).conj()).max()) if a.size else 0.0
    if dev > SOLVER_HERMITICITY_TOL:
        raise SymmetryError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return a


def _square_views(squares: np.ndarray, count: int, m: int) -> tuple:
    """Views of ``count * m * m`` floats for :func:`_off_diagonal_norms`: ``(count, m, m)``,
    one row per matrix, and the diagonal entries of those rows."""
    by_row = squares.reshape(count, m * m)
    return squares.reshape(count, m, m), by_row, by_row[:, :: m + 1]


def _off_diagonal_norms(a: np.ndarray, squares: tuple) -> np.ndarray:
    """Frobenius norm of each matrix's off-diagonal part, shape ``(B,)``; each sums one
    C-contiguous row, so a matrix gets the same sum (and stop test) in any stack.
    ``squares`` (:func:`_square_views`) holds the squares."""
    matrices, by_row, diagonal = squares
    np.abs(a, matrices)
    diagonal.fill(0.0)
    np.multiply(by_row, by_row, by_row)
    norms = np.add.reduce(by_row, 1)
    return np.sqrt(norms, norms)


@lru_cache(maxsize=None)
def _round_robin(m: int, rows: int) -> tuple:
    """Round-robin pair schedule on ``m`` (even) indices, as position permutations.

    The working matrix is kept permuted so that each round rotates the
    position pairs (j, j + m/2).  Returns the position of each original
    index in the first round's layout and the flat row indices that move a
    ``(rows * m, B)`` working array from any round's layout to the next
    round's.  Rows past m (carried rows) keep their order.  Every round
    turns the ring by the same step, so a sweep of m - 1 rounds rotates
    every index pair exactly once and ends on the first layout (circle
    method; Brent & Luk, SIAM J. Sci. Stat. Comput. 6, 69 (1985)).
    """

    def layout(r):
        ring = [0] + [1 + (j + r) % (m - 1) for j in range(m - 1)]
        return np.array(ring[: m // 2] + ring[: m // 2 - 1 : -1], dtype=int)

    position = np.argsort(layout(0))
    columns = position[layout(1)]
    step = np.concatenate([columns, np.arange(m, rows)])[:, None] * m + columns
    return position, step.ravel()


def _round_views(work: np.ndarray) -> tuple:
    """Views of a C-contiguous working array ``(rows, m, B)`` that a round reads and writes.

    The flat array ``(rows * m, B)``, the diagonal, the real part of its p and q
    halves, the (p, q) entries of every pair, those and the (q, p) entries as one
    ``(2, m/2, B)`` view, the column halves ``(rows, 2, m/2, B)`` and their p and q
    columns, and the row halves of A ``(2, m/2, m, B)`` and their p and q rows.
    """
    rows, m, count = work.shape
    k = m // 2
    flat = work.reshape(rows * m, count)
    diag = flat[: m * m : m + 1]
    real = diag.real
    # (p, q) = (j, j + k) is flat row k + j (m + 1); (q, p) is k (m - 1) rows further.
    row, item = flat.strides
    strides = (k * (m - 1) * row, (m + 1) * row, item)
    pairs = np.ndarray((2, k, count), flat.dtype, flat, k * row, strides)
    cols = work.reshape(rows, 2, k, count)
    halves = work[:m].reshape(2, k, m, count)
    return (
        flat, diag, real[:k], real[k:], pairs[0], pairs,
        cols, cols[:, 0], cols[:, 1], halves, halves[0], halves[1],
    )


# The temporaries of a round, views of the live prefix of :class:`_RotationRounds`'
# storage: the constant 1; the float temporaries of the pair formulas, c and the new
# diagonal (new_p and new_q); the coefficients, s and conj s, the complex keep and
# the coefficients as the column and row products read them; both products and
# their x and y parts.
_RoundTemps = namedtuple(
    "_RoundTemps",
    "one mag keep safe tau t tmp shift hyp c new_diag new_p new_q cc s sbar keepz "
    "col_coef row_coef col row col_cx col_cy col_sx col_sy row_cx row_cy row_sx row_sy",
)


class _RotationRounds:
    """Round-robin Jacobi rounds on a stack; the round state is allocated once.

    ``work`` is ``(rows, m, B)``, the stack axis last so that every ufunc loops
    over the whole stack: A in the first m rows and the carried rows X below
    it.  Its memory is the first of two round buffers.  ``self(rounds)``
    applies that many rounds to the live matrices (at first all B) and
    returns their state ``(rows, m, live)``; :meth:`keep` narrows the stack to
    the matrices that go on.  The live matrices fill a C-contiguous prefix of
    each round buffer and of each temporary, so narrowing re-views those
    arrays: buffers and temporaries are allocated here, once per solve.

    A round rotates every pair j, (p, q) = (j, j + m/2): with J the direct
    sum of the m/2 2x2 rotations it applies ``A <- J^H A J`` and ``X <- X J``,
    then sets the rotated (p, q) entries to zero and the rotated diagonal
    entries to their closed forms.  A pair whose ``|a_pq|`` is below ``skip``
    (one per matrix) gets an exact identity rotation.  ``step`` (flat row
    indices) then moves the array into the next round's layout, in the other
    buffer.

    Per pair, with x and y the old p and q columns (rows) and every product
    taken in this operand order::

        mag = |a_pq|, keep = 1 if mag < skip else 0, safe = mag + keep
        tau = (a_qq - a_pp) / (safe + safe)
        t = copysign((1 - keep) / (|tau| + hypot(1, tau)), tau)
        c = 1 / hypot(1, t), s = ((t * c) / safe) * a_pq
        columns: x <- x * c - y * conj(s), y <- x * s + y * c
        rows:    x <- c * x - s * y,       y <- conj(s) * x + c * y
        a_pp <- a_pp - t * mag, a_qq <- a_qq + t * mag
        a_pq <- a_pq * keep, a_qp <- a_qp * keep

    On complex work c and keep enter as complex numbers with zero imaginary part.
    Each update is one product of the halves with the coefficient array
    ``[c; s]`` (real) or ``[c, c; s, conj s]`` (complex), then one subtract and
    one add.  Every constant operand is a preallocated array: numpy converts a
    Python float operand anew on every call.

    Real ``work`` is rotated in real arithmetic.  Complex input with zero
    imaginary parts gets the same eigenvalues and carried magnitudes bit for
    bit: each real part is the same product or sum up to the sign of a zero,
    and the diagonal (so every tau and copysign) is set from closed forms.
    """

    def __init__(self, work: np.ndarray, skip: np.ndarray, step: np.ndarray):
        rows, m, count = work.shape
        k = m // 2
        # skip (float64, one per matrix) becomes the rounds' own: keep() compacts it.
        self.shape, self.step, self.skip = (rows, m), step, skip
        self.real = not np.iscomplexobj(work)
        # copy=False (numpy >= 2.1) raises rather than let the rounds work on a copy.
        self.buffers = (work.reshape(-1, copy=False), np.empty(work.size, work.dtype))
        self.current = 0
        # Flat storage of the temporaries, B matrices long, one array per kind: the
        # constant ones (k, B), ten float temporaries (k, B), the stop test's squares
        # (B, m, m), the coefficients (2, 1 or 2, k, B) with, on complex work, the
        # complex keep (k, B), and the column (2, rows, 2, k, B) and row (2, 2, k, m, B)
        # products.
        self.storage = (
            np.ones(k * count),
            np.empty(10 * k * count),
            np.empty(m * m * count),
            np.empty((2 if self.real else 5) * k * count, work.dtype),
            np.empty(4 * rows * k * count, work.dtype),
            np.empty(4 * m * k * count, work.dtype),
        )
        self._narrow(count)

    def _narrow(self, live: int) -> None:
        """View the round state of the first ``live`` matrices of each buffer."""
        rows, m = self.shape
        k = m // 2
        kl = k * live
        ones, floats, squares, coefficients, columns, row_products = self.storage
        self.skip_live = self.skip[:live]
        self.works = [b[: rows * m * live].reshape(rows, m, live) for b in self.buffers]
        self.views = [_round_views(w) for w in self.works]
        # Each buffer's A as (live, m, m), the stack axis first, for the stop test.
        self.matrices = [w[:m].transpose(2, 0, 1) for w in self.works]
        self.squares = _square_views(squares[: m * m * live], live, m)
        mag, keep, safe, tau, t, tmp, shift, hyp, new_p, new_q = floats[: 10 * kl].reshape(
            10, k, live
        )
        # The columns take (c, c) and (s, conj s), the rows the same with the second axis
        # reversed: (c, c) and (conj s, s).  Complex work writes c and keep as complex
        # numbers, the same values as numpy's implicit cast, and reads their real parts.
        if self.real:
            coef, keepz = coefficients[: 2 * kl].reshape(2, 1, k, live), keep
        else:
            coef = coefficients[: 4 * kl].reshape(2, 2, k, live)
            keepz = coefficients[4 * kl : 5 * kl].reshape(k, live)
            keep = keepz.real
        cc = coef[0]
        col = columns[: 4 * rows * kl].reshape(2, rows, 2, k, live)
        row = row_products[: 4 * m * kl].reshape(2, 2, k, m, live)
        # The products of x and y with c, and with s (columns: y with conj s; rows: x).
        (col_cx, col_cy), (col_sx, col_sy) = col.swapaxes(1, 2)
        (row_cx, row_cy), (row_sx, row_sy) = row
        self.temps = _RoundTemps(
            one=ones[:kl].reshape(k, live), mag=mag, keep=keep, safe=safe, tau=tau, t=t,
            tmp=tmp, shift=shift, hyp=hyp, c=cc[0].real,
            new_diag=floats[8 * kl : 10 * kl].reshape(m, live), new_p=new_p, new_q=new_q,
            cc=cc, s=coef[1, 0], sbar=coef[1, -1], keepz=keepz, col_coef=coef[:, None],
            row_coef=coef[:, ::-1, :, None], col=col, row=row, col_cx=col_cx,
            col_cy=col_cy, col_sx=col_sx, col_sy=col_sy, row_cx=row_cx, row_cy=row_cy,
            row_sx=row_sx, row_sy=row_sy,
        )

    def stopped(self, tol: np.ndarray) -> np.ndarray:
        """Where each live matrix's off-diagonal norm is below its ``tol``."""
        return _off_diagonal_norms(self.matrices[self.current], self.squares) < tol

    def values(self, which: np.ndarray) -> np.ndarray:
        """The working arrays ``(rows * m, n)`` of the live matrices where ``which`` holds."""
        return self.views[self.current][0][:, which]

    def keep(self, going: np.ndarray) -> None:
        """Keep the stack's matrices where ``going`` holds, in order, as the first ones."""
        index = np.flatnonzero(going)
        old = self.views[self.current][0]
        self.skip[: index.size] = self.skip_live[index]
        self._narrow(index.size)
        self.current = 1 - self.current
        # mode "clip" lets take write straight into its output; every index is valid.
        old.take(index, 1, self.views[self.current][0], "clip")

    def __call__(self, rounds: int) -> np.ndarray:
        # The temporaries as locals, read by name once per call rather than per round.
        v = self.temps
        one, mag, keep, safe, tau, t, tmp, shift, hyp, c = (
            v.one, v.mag, v.keep, v.safe, v.tau, v.t, v.tmp, v.shift, v.hyp, v.c
        )
        new_diag, new_p, new_q, cc, s, sbar, keepz, col_coef, row_coef = (
            v.new_diag, v.new_p, v.new_q, v.cc, v.s, v.sbar, v.keepz, v.col_coef, v.row_coef
        )
        col, row, col_cx, col_cy, col_sx, col_sy, row_cx, row_cy, row_sx, row_sy = (
            v.col, v.row, v.col_cx, v.col_cy, v.col_sx, v.col_sy,
            v.row_cx, v.row_cy, v.row_sx, v.row_sy,
        )
        skip, complex_work, step, views, current = (
            self.skip_live, not self.real, self.step, self.views, self.current
        )
        # The ufuncs as locals: a round is ~30 calls on small arrays.
        absolute, less, add, subtract, divide, hypot, copysign, multiply, conjugate = (
            np.abs, np.less, np.add, np.subtract, np.divide, np.hypot, np.copysign,
            np.multiply, np.conjugate,
        )
        for _ in range(rounds):
            flat, diag, app, aqq, pq, pairs, cols, x_col, y_col, halves, x_row, y_row = (
                views[current]
            )
            # Each ufunc writes into its last argument: a positional output costs less
            # per call than out=.
            absolute(pq, mag)
            # keep is 1 on skipped pairs (|a_pq| < skip) and 0 on rotated ones.
            less(mag, skip, keepz)
            # tau = (a_qq - a_pp) / (2 |a_pq|) and t = tan(theta) of the smaller angle.  A
            # skipped pair divides by |a_pq| + 1 (never by 0); its t is zeroed: c = 1, s = 0.
            add(mag, keep, safe)
            subtract(aqq, app, tau)
            add(safe, safe, tmp)
            divide(tau, tmp, tau)
            hypot(one, tau, tmp)
            absolute(tau, t)
            add(t, tmp, t)
            subtract(one, keep, tmp)
            divide(tmp, t, t)
            copysign(t, tau, t)
            hypot(one, t, hyp)
            divide(one, hyp, cc)
            multiply(t, c, tmp)
            divide(tmp, safe, tmp)
            multiply(tmp, pq, s)
            multiply(t, mag, shift)
            subtract(app, shift, new_p)
            add(aqq, shift, new_q)
            if complex_work:
                conjugate(s, sbar)
            # Columns of A and of the carried rows: A <- A J, X <- X J, from products of
            # the old x and y.
            multiply(cols, col_coef, col)
            subtract(col_cx, col_sy, x_col)
            add(col_sx, col_cy, y_col)
            # Rows of A: A <- J^H A.
            multiply(row_coef, halves, row)
            subtract(row_cx, row_sy, x_row)
            add(row_sx, row_cy, y_row)
            diag[...] = new_diag
            multiply(pairs, keepz, pairs)
            # mode "clip" lets take write straight into its output; every index is valid.
            flat.take(step, 0, views[1 - current][0], "clip")
            current = 1 - current
        self.current = current
        return self.works[current]


def _jacobi(a: np.ndarray, carry=None, size=None):
    """Ascending eigenvalues of the Hermitian stack ``a`` and ``carry @ V``.

    ``carry`` (rows ``(..., k, n)``, one block for all matrices, or None)
    gets the column rotations of ``a``; its columns follow the eigenvalues.
    ``size`` (broadcast over the stack; default n) is each matrix's own
    size where the caller padded it with zero rows and columns: it sets
    the rotation-skip threshold, so a padded matrix is rotated exactly as
    it would be alone.  Real ``a`` and ``carry`` are solved in real arithmetic.
    """
    n = a.shape[-1]
    if n > MAX_DIM:
        raise DimensionError(f"dimension {n} exceeds the supported maximum {MAX_DIM}")
    batch = a.shape[:-2]
    count = math.prod(batch)
    k = 0 if carry is None else carry.shape[-2]
    dtype = a.dtype if carry is None else np.result_type(a, carry)
    if not count * n:
        return np.zeros(batch + (n,)), np.zeros(batch + (k, n), dtype=dtype)
    a = a.reshape(count, n, n)
    # max(1, largest |entry|) of each matrix.
    tol = OFF_DIAGONAL_TOL * np.abs(a.reshape(count, n * n)).max(axis=-1, initial=1.0)
    # Rotations below this threshold cannot push the off-norm above tol.
    if size is None:
        skip = tol * (0.25 / max(n, 1))
    else:
        skip = (tol.reshape(batch) * (0.25 / np.maximum(size, 1))).reshape(count)
    # Odd sizes get a zero padding index; its rotations are all identities.
    m = n + n % 2
    position, step = _round_robin(m, m + k)
    position = position[:n]
    # The rounds work on (rows, m, B), the stack axis last, built in the first layout.
    work = np.zeros((m + k, m, count), dtype=dtype)
    work[position[:, None], position] = a.transpose(1, 2, 0)
    if k:
        work[m:, position] = carry.reshape(-1, k, n).transpose(1, 2, 0)
    rounds = _RotationRounds(work, skip, step)
    # Each matrix's working array as it finished, in the same layout; allocated
    # only when some matrices stop before the others.
    final = None
    # The matrix in each place of the stack, and how many of them still iterate.
    everyone = np.arange(count)
    held, left = everyone, count
    for sweep in range(MAX_SWEEPS + 1):
        # A matrix leaves at the sweep where it would stop if solved alone.
        done = rounds.stopped(tol)
        finished = held[done]
        if finished.size:
            if finished.size == count:
                # The whole stack stops at this sweep: read it where it is.
                final = rounds.works[rounds.current]
                break
            if final is None:
                final = np.empty_like(work)
            final.reshape((m + k) * m, count)[:, finished] = rounds.values(done)
            left -= finished.size
            if not left:
                break
            # A finished matrix left in the stack never stops again, and what the
            # rounds do to it is never read.  The stack drops the finished ones once
            # they hold enough entries to pay for the compaction.
            tol[done] = -1.0
            if (held.size - left) * (m + k) * m >= _COMPACTION_ENTRIES:
                going = tol >= 0.0
                rounds.keep(going)
                held, tol = held[going], tol[going]
        if sweep == MAX_SWEEPS:
            raise ConvergenceError(f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps")
        rounds(m - 1)
    # Back to the original index order with the padding dropped; a stable
    # sort keeps tied eigenvalues in that order.
    w = np.diagonal(final[:m], axis1=0, axis2=1).real
    pick = everyone[:, None]
    order = position[w[:, position].argsort(axis=-1, kind="stable")]
    w = w[pick, order].reshape(*batch, n)
    carried = final[m:].transpose(2, 0, 1)[pick[:, None], np.arange(k)[:, None], order[:, None, :]]
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
    # Complex carried rows keep real input on the complex path: the eigenvectors
    # are complex, with every sign of zero the complex solve gives them.
    return _jacobi(a, carry=np.eye(a.shape[-1], dtype=complex))


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
    w, outer = np.empty_like(a), np.empty_like(a)
    # Each column of W as (B, n) and as (B, n, 1), and the conjugate of one as (B, 1, n).
    columns = w.transpose(2, 0, 1)
    conj = np.empty_like(a[:, :1])
    last = a.shape[-1] - 1
    for k, (column, as_column) in enumerate(zip(columns, columns[..., None])):
        pivot = diagonal.argmax(axis=-1)
        top = diagonal[rows, pivot]
        np.divide(a[rows, :, pivot], np.sqrt(np.where(top > floor, top, np.inf))[:, None], column)
        if k < last:  # no step reads the last update
            np.conjugate(column, conj[:, 0])
            np.multiply(as_column, conj, outer)
            np.subtract(a, outer, a)
    return w


def _gram_factor(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X (X^H when X is wide) scaled by 2^-e, and e, for :func:`_gram`; real X stays real."""
    x = _real_or_complex(matrix)
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
    scaled = np.ldexp(np.ascontiguousarray(x).view(float), -e[..., None, None])
    return scaled.view(x.dtype), e


def _gram_eigenvalues(w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """G's eigenvalues, descending and rescaled, from the Jacobi output for the factor
    of :func:`_gram_factor`."""
    return np.ldexp(w[..., ::-1], 2 * e[..., None])


def _carried_norms(xv: np.ndarray, e: np.ndarray) -> np.ndarray:
    """X's singular values, descending and rescaled: the column norms of X V."""
    sv = np.sqrt(np.add.reduce(xv.real**2 + xv.imag**2, -2))
    # Norms are never -0.0, so the reversed ascending sort is the descending one.
    sv.sort(axis=-1)
    return np.ldexp(sv[..., ::-1], e[..., None])


def _gram(matrix: np.ndarray, carry: bool = True):
    """Jacobi on the Gram matrix G = X^H X of X (of X^H when X is wide).

    Returns G's eigenvalues and, if ``carry``, X's singular values (else
    None), both descending, shape ``(..., min(r, c))``.  X carried through
    the rotations ends as X V, whose column norms are the singular values
    (one-sided Jacobi, Hestenes): accurate to about eps ||X||, not sqrt(eps).
    Real X is solved in real arithmetic, with the values the complex solve
    would give it bit for bit.
    """
    x, e = _gram_factor(matrix)
    # G as a complex product, also for real X: BLAS sums a real and a complex product in
    # different orders (the 15x15 and 35x35 Fano blocks among others), so a real product
    # would move the last bits of G.  Real X is solved from the real part of this G.
    z = x.astype(complex, copy=False)
    g = np.swapaxes(z, -1, -2).conj() @ z
    w, xv = _jacobi(g if np.iscomplexobj(x) else g.real, x if carry else None)
    return _gram_eigenvalues(w, e), (_carried_norms(xv, e) if carry else None)


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values (descending) of a matrix or a stack ``(..., r, c)``; see :func:`_gram`."""
    return _gram(matrix)[1]

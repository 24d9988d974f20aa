"""Self-contained dense Hermitian linear algebra.

Positivity verdicts and norm lower bounds produced by this package are
meant to be cross-checkable against LAPACK rather than built on top of
it, so the eigensolver and factorization here are hand-rolled.  All
matrices are small (n <= 64); robustness is preferred over speed.

``jacobi_eigh`` takes a stack of same-size matrices, one or more.  It
keeps cyclic Jacobi rotations for their relative accuracy (Demmel &
Veselic, SIAM J. Matrix Anal. Appl. 13, 1992) and runs them in the
round-robin order of Brent & Luk (SIAM J. Sci. Stat. Comput. 6, 1985):
a sweep is n - 1 steps of n/2 disjoint (p, q) planes.  The sweeps run
on a workspace, built once for the matrices active at the first sweep:
two buffers for the stack, with the eigenvectors as rows n..2n-1 of each
matrix when they are computed, the views of each buffer that a step
reads and writes, and the step's temporaries.  When converged matrices
leave, the others are gathered into the front of a buffer and every
view and temporary is cut to their count.  One step gathers the stack
from one buffer into the other in the step's layout, then rotates all of
its planes in every matrix at once, every result written in place: the
column update (of the vector rows too) and the row update each make two
products (by the cosines and by the sine pairs) and two sums.  Each
matrix keeps its own skip threshold and convergence test, so its
eigenvalues are the same, bit for bit, alone or among others, with its
vectors or without.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "ConvergenceError",
    "jacobi_eigh",
    "pivoted_cholesky",
    "solve_lower_triangular",
]


class ConvergenceError(ValueError):
    """Jacobi sweeps ran out before every matrix of the stack converged."""


HERMITIAN_RTOL = 1e-10
JACOBI_TOL = 1e-14
MAX_SWEEPS = 60
CHOLESKY_DROP_TOL = 1e-12


def _hermitian_scale(a: np.ndarray) -> np.ndarray:
    """max|M| of each matrix of the complex stack ``a``; a ValueError
    unless each is Hermitian within ``HERMITIAN_RTOL * max|M|``, entrywise."""
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    defect = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1),
                                                       initial=0.0)
    if np.count_nonzero((scale > 0) & (defect > HERMITIAN_RTOL * scale)):
        raise ValueError("matrix is not Hermitian")
    return scale


def _frobenius(x: np.ndarray, off_diagonal: bool = False) -> np.ndarray:
    """``np.linalg.norm(x, axis=(1, 2))`` of a (k, n, n) stack, by the
    expression numpy evaluates for it, or with ``off_diagonal`` the norm of
    each matrix with its diagonal set to zero."""
    squares = x.conj() * x  # C-contiguous, so the reshape is a view
    if off_diagonal:
        k, n = x.shape[:2]
        squares.reshape(k, n * n)[:, ::n + 1] = 0.0
    return np.sqrt(np.add.reduce(squares.real, axis=(1, 2)))


@lru_cache(maxsize=None)
def _schedule(n: int, rows: int) -> tuple:
    """Index arrays that carry a stack of order-n matrices, each with
    rows - n vector rows below it, through one Brent-Luk sweep: identity
    -> L_0 -> ... -> L_last -> identity, each move as (index permutation,
    its gather of the rows * n entries; vector rows move only columns).

    Layout L_s lists the planes (p, q), p < q, of round-robin step s at
    positions (2i, 2i + 1); the steps together name every plane once.
    Odd n is padded with a dummy index, and the index paired with it goes
    last, outside every plane.  Built on first use for each (n, rows).
    """
    m = n + n % 2
    players = list(range(m))
    layouts = []
    for _ in range(m - 1):
        pairs = sorted((min(i, j), max(i, j)) for i, j in
                       zip(players[:m // 2], reversed(players[m // 2:])))
        order = [i for pair in pairs if pair[1] < n for i in pair]
        order += [pair[0] for pair in pairs if pair[1] == n]
        layouts.append(np.array(order, dtype=np.intp))
        players = [players[0], players[-1], *players[1:-1]]
    moves = []
    current = np.arange(n)
    for layout in layouts + [np.arange(n)]:
        position = np.empty(n, dtype=np.intp)
        position[current] = np.arange(n)
        move = position[layout]
        sources = np.concatenate((move, np.arange(n, rows)))
        moves.append((move, (sources[:, None] * n + move).ravel()))
        current = layout
    return tuple(moves)


def _columns(x: np.ndarray, k: int, n: int, planes: int) -> tuple:
    """The first 2 * ``planes`` columns of a (k, n, m) array, viewed as
    (k, n, planes, 2) pairs: (pairs, p columns, q columns)."""
    x = x[..., :2 * planes].reshape(k, n, planes, 2)
    return x, x[..., 0], x[..., 1]


def _rows(x: np.ndarray, k: int, n: int, planes: int) -> tuple:
    """The first 2 * ``planes`` rows of a (k, m, n) array, viewed as
    (k, planes, 2, n) pairs: (pairs, p rows, q rows)."""
    x = x[:, :2 * planes].reshape(k, planes, 2, n)
    return x, x[:, :, 0], x[:, :, 1]


def _update(x, x0, x1, cosines, sines, xc, xc0, xc1, xs, xs0, xs1) -> None:
    """p' = p c - q s1 and q' = p s0 + q c, in place, on the pairs
    (p, q) = (x0, x1) of x (see :func:`_columns` and :func:`_rows`), where
    (s0, s1) are the pairs of ``sines``; xc and xs, with their pairs, are
    the buffers of x c and x s."""
    np.multiply(x, cosines, xc)
    np.multiply(x, sines, xs)
    np.subtract(xc0, xs1, x0)
    np.add(xs0, xc1, x1)


class _Workspace:
    """The buffers of the Brent-Luk sweeps on k active order-n matrices,
    each with rows - n rows of vectors below it.

    The stack moves between two C-contiguous (k, rows, n) buffers: each
    move gathers the current buffer into the other one.  The views a step
    reads and writes in either buffer, and the temporaries it fills, are
    built here once, so a step allocates nothing: every ufunc gets its
    output array as its third argument.  ``stack``, a C-contiguous array
    that the workspace then owns, is its first buffer.  When matrices
    leave, :meth:`keep` gathers the others into the front of the other
    buffer and cuts every view and temporary to their count.
    """

    def __init__(self, stack: np.ndarray, skip: np.ndarray):
        k, rows, n = stack.shape
        planes = n // 2
        stride = 2 * n + 2
        end = planes * stride
        self.current = 0
        self.skip = skip
        stacks = (stack, np.empty_like(stack))
        flats = tuple(m.reshape(k, rows * n) for m in stacks)
        r, tau, t, c = np.empty((4, k, planes))
        sines = np.empty((k, planes, 2), dtype=complex)
        products = np.empty((2, k * rows * 2 * planes), dtype=complex)
        # The column update broadcasts the cosines and the sine pairs over
        # the rows, the row update over the columns, with the pairs swapped;
        # each fills the buffers of x c and x s, viewed as pairs.
        column_tail = (c[:, None, :, None], sines[:, None], *(
            pair for x in products for pair in _columns(
                x.reshape(k, rows, 2 * planes), k, rows, planes)))
        row_tail = (c[:, :, None, None], sines[:, :, ::-1, None], *(
            pair for x in products for pair in _rows(
                x[:k * 2 * planes * n].reshape(k, 2 * planes, n), k, n,
                planes)))
        # Per buffer: the (p, q) and (q, p) entries of the planes, the real
        # parts of their (p, p) and (q, q) entries, the imaginary parts of
        # the diagonal, the column pairs of the planes in all rows and their
        # row pairs in the matrix rows.
        views = [(f[:, 1:end:stride], f[:, n:n + end:stride],
                  f[:, 0:end:stride].real,
                  f[:, n + 1:n + 1 + end:stride].real,
                  f[:, :n * n:n + 1].imag, *_columns(m, k, rows, planes),
                  *_rows(m, k, n, planes))
                 for m, f in zip(stacks, flats)]
        self.full = [stacks, flats,
                     (r, tau, t, c, *np.empty((2, k, planes), dtype=bool),
                      np.empty((k, planes), dtype=complex), sines[..., 0],
                      sines[..., 1]),
                     column_tail, row_tail, *views]
        self._point(self.full)

    def _point(self, groups: list) -> None:
        """Point the steps at the arrays of ``groups``, laid out as
        ``self.full``: the two buffers, their (k, rows * n) views, the
        temporaries of :meth:`_rotate`, the factors and product buffers of
        the column update and of the row update, and the views of each
        buffer (its five entry views, then its column and row pairs)."""
        stacks, flats, temporaries, column_tail, row_tail, *views = groups
        self.stacks, self.flats = tuple(stacks), tuple(flats)
        self.temporaries = tuple(temporaries)
        self.steps = tuple(
            (tuple(v[:5]), (*v[5:8], *column_tail), (*v[8:], *row_tail))
            for v in views)

    def keep(self, kept: np.ndarray) -> np.ndarray:
        """Keep the matrices at ``kept``, in that order: gather them into
        the front of the other buffer and cut every view and temporary to
        their count.  Returns the stack they now fill."""
        k = kept.size
        source, self.current = self.current, 1 - self.current
        self.flats[source].take(kept, 0, self.full[1][self.current][:k],
                                "clip")
        self.skip = self.skip[kept]
        self._point([[x[:k] for x in group] for group in self.full])
        return self.stacks[self.current]

    def sweep(self, moves: tuple) -> np.ndarray:
        """One sweep: every move of ``moves`` but the last is followed by a
        step.  Returns the stack, in the buffer the next sweep
        overwrites."""
        for _, flat in moves[:-1]:
            self._move(flat)
            self._rotate()
        self._move(moves[-1][1])
        return self.stacks[self.current]

    def _move(self, flat: np.ndarray) -> None:
        # "clip" because the default "raise" gathers into a temporary
        # first; the schedule's indices are all in range.
        source, self.current = self.current, 1 - self.current
        self.flats[source].take(flat, 1, self.flats[self.current], "clip")

    def _rotate(self) -> None:
        """One Brent-Luk step on the current buffer: annihilate entry
        (2i, 2i+1) of every matrix k for every plane i, one 2x2 unitary per
        plane.  Planes whose entry is at most ``skip[k, 0]`` get the
        identity.  The vector rows accumulate the columns."""
        (apq, aqp, app, aqq, diagonal_imag), columns, rows = (
            self.steps[self.current])
        r, tau, t, c, rotate, keep, ratio, sine, sine_conj = self.temporaries
        np.absolute(apq, r)
        np.greater(r, self.skip, rotate)
        if not np.count_nonzero(rotate):
            return
        np.logical_not(rotate, keep)
        np.copyto(r, 1.0, where=keep)
        np.subtract(aqq, app, tau)
        np.multiply(2.0, r, t)  # 2 r, in the buffer of t
        np.divide(tau, t, tau)
        # t = sign(tau) / (|tau| + hypot(1, tau)), the smaller root
        np.hypot(1.0, tau, t)
        np.copysign(t, tau, t)
        np.add(tau, t, t)
        np.divide(1.0, t, t)
        np.copyto(t, 0.0, where=keep)
        np.hypot(1.0, t, c)
        np.divide(1.0, c, c)
        # The unitary on plane i is [[c, s], [-conj(s), c]], with (s, conj(s))
        # in the sine pairs.  Columns transform by u: p' = p c - q conj(s)
        # and q' = p s + q c; rows by u*: p' = p c - q s and
        # q' = p conj(s) + q c.
        np.multiply(t, c, tau)  # t c, in the buffer of tau
        np.divide(apq, r, ratio)
        np.multiply(tau, ratio, sine)
        np.conjugate(sine, sine_conj)
        _update(*columns)
        _update(*rows)
        np.multiply(apq, keep, apq)
        np.multiply(aqp, keep, aqp)
        diagonal_imag[...] = 0.0


def jacobi_eigh(matrix, compute_vectors: bool = True):
    """Eigendecomposition of complex Hermitian matrices by cyclic Jacobi
    rotations in Brent-Luk order.

    ``matrix`` is a (B, n, n) stack, also for one matrix.  Each rotation
    is a 2x2 unitary that annihilates one off-diagonal pair; a matrix
    leaves the sweeps once its off-diagonal Frobenius mass is at most
    ``JACOBI_TOL * ||M||_F``, and ``ConvergenceError`` (a ``ValueError``)
    is raised when ``MAX_SWEEPS`` sweeps leave any matrix above that.
    A matrix with an inf or NaN entry is refused with ``ValueError``; a
    matrix whose ``||M||_F`` leaves the float range is solved all the
    same.
    Eigenvalues are returned in ascending order, shape (B, n);
    the matching unitary eigenvector matrices (columns) are returned when
    ``compute_vectors`` is set, otherwise ``None``.

    Residuals satisfy ``||M v - w v|| <= ~1e-13 ||M||`` for every pair,
    far inside the 1e-10 budget the positivity checks rely on.
    """
    a = np.array(matrix, dtype=complex, order="C")
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"need a (B, n, n) stack of square matrices, "
                         f"not shape {a.shape}")
    batch, n = a.shape[:2]
    if np.count_nonzero(np.isfinite(a)) < a.size:
        raise ValueError("matrix has non-finite entries")
    # Each matrix is scaled by the power of two that brings its largest
    # entry into [0.5, 1), so ||M||_F stays in range.  Both this and the
    # scaling back of the eigenvalues are exact, but for parts below
    # 2**-1022 of the largest entry.
    scale = np.frexp(_hermitian_scale(a))[1]
    a = np.ldexp(a.view(float), -scale[:, None, None]).view(complex)
    a = 0.5 * (a + a.conj().swapaxes(1, 2))
    target = JACOBI_TOL * _frobenius(a)
    # Rotations on entries this small cannot move the off-diagonal mass
    # above the convergence target, so they are skipped.
    skip = target / (2.0 * max(n, 1))
    if compute_vectors:  # rows n..2n-1 of each matrix, rotated as V U
        a = np.concatenate((a, np.broadcast_to(np.eye(n), a.shape)), axis=1)

    active = (target > 0.0).nonzero()[0]
    work, goal = a[active], target[active]
    space = None
    moves = _schedule(n, a.shape[1])
    for sweep in range(MAX_SWEEPS + 1):
        done = _frobenius(work[:, :n], off_diagonal=True) <= goal
        if np.count_nonzero(done):
            a[active[done]] = work[done]
            kept = (~done).nonzero()[0]
            active, goal = active[kept], goal[kept]
            if active.size:
                work = work[kept] if space is None else space.keep(kept)
        if not active.size or sweep == MAX_SWEEPS:
            break
        if space is None:
            space = _Workspace(work, skip[active][:, None])
        work = space.sweep(moves)
    if active.size:
        raise ConvergenceError(f"{active.size} of {batch} matrices did not "
                               f"converge in {MAX_SWEEPS} Jacobi sweeps")

    w = a[:, :n].diagonal(axis1=1, axis2=2).real
    order = w.argsort(axis=1, kind="stable")
    matrices = np.arange(batch)[:, None]
    w = np.ldexp(w[matrices, order], scale[:, None])
    v = (a[matrices[:, None], np.arange(n, 2 * n)[:, None], order[:, None]]
         if compute_vectors else None)
    return w, v


def _subtract_product(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """x -= a * b in place, the product in real parts as Python takes it:
    (ar br - ai bi, ar bi + ai br), each step rounded.  numpy's complex
    multiply fuses them for some CPUs, layouts and lengths only."""
    real, imag = x.real, x.imag  # views, so -= writes into x
    real -= a.real * b.real - a.imag * b.imag
    imag -= a.real * b.imag + a.imag * b.real


def pivoted_cholesky(matrix):
    """Cholesky factorization that takes its pivots in the given order and
    drops the dependent ones.

    Index j is a pivot when its Schur-complement diagonal, after the pivots
    before it, is above ``CHOLESKY_DROP_TOL`` times the largest diagonal of
    M; otherwise it is reported as dropped instead of being regularized,
    which would spoil lower-bound guarantees built on the factor.  Then
    ``M[kept][:, kept] = L L*`` with ``kept`` ascending, and where the
    leading block M[:s, :s] keeps the same pivots below s, its factor is
    the leading block of ``L``, bit for bit.

    Returns ``(kept, L, dropped)`` with ``L`` lower triangular of size
    ``len(kept)``.
    """
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    work = 0.5 * (a + a.conj().T)
    floor = CHOLESKY_DROP_TOL * work.diagonal().real.max(initial=0.0)
    # Column j of ``lower`` is the pivot column j, zero above row j; each
    # pivot updates only the trailing block of the Schur complement.
    lower = np.zeros((n, n), dtype=complex)
    kept, dropped = [], []
    for j in range(n):
        d = work[j, j].real
        if d <= floor:
            dropped.append(j)
            continue
        lower[j:, j] = work[j:, j] / math.sqrt(d)
        _subtract_product(work[j:, j:], lower[j:, j, None],
                          lower[j:, j].conj())
        kept.append(j)
    return kept, lower[np.ix_(kept, kept)], dropped


def solve_lower_triangular(lower, rhs):
    """Forward substitution ``L X = B`` for lower-triangular ``L``.

    ``rhs`` is an (n, k) matrix or a stack (B, n, k) of right-hand sides
    that the one ``lower`` serves.  Row i of X is divided by L[i, i] and
    then taken off the rows below it, entry by entry (see
    :func:`_subtract_product`), so each entry of X goes through the same
    operations whatever the stack or the columns beside it, and no BLAS
    kernel is called.
    """
    l = np.asarray(lower, dtype=complex)
    x = np.array(rhs, dtype=complex)  # a copy in the layout of rhs
    for i in range(l.shape[0]):
        x[..., i, :] /= l[i, i]
        _subtract_product(x[..., i + 1:, :], l[i + 1:, i, None],
                          x[..., i, None, :])
    return x

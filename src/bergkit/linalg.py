"""Self-contained dense Hermitian linear algebra.

Positivity verdicts and norm lower bounds produced by this package are
meant to be cross-checkable against LAPACK rather than built on top of
it, so the eigensolver and factorization here are hand-rolled.  All
matrices are small (n <= 64); robustness is preferred over speed.

``jacobi_eigh`` takes one matrix or a stack of same-size matrices.  It
keeps cyclic Jacobi rotations for their relative accuracy (Demmel &
Veselic, SIAM J. Matrix Anal. Appl. 13, 1992) and runs them in the
round-robin order of Brent & Luk (SIAM J. Sci. Stat. Comput. 6, 1985):
a sweep is n - 1 steps of n/2 disjoint (p, q) planes, and one step
rotates all of its planes in every matrix of the stack with a few array
operations.  Each matrix keeps its own skip threshold and convergence
test, so its eigenvalues are the same whether it is solved alone or in
a stack.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "ConvergenceError",
    "hermitian_defect",
    "jacobi_eigh",
    "pivoted_cholesky",
    "require_hermitian",
    "solve_lower_triangular",
]


class ConvergenceError(ValueError):
    """Jacobi sweeps ran out before every matrix of the stack converged."""


HERMITIAN_RTOL = 1e-10


def hermitian_defect(matrix):
    """Largest entrywise deviation |M - M*| from conjugate symmetry: a
    float for one matrix, an array of one value per matrix for a stack."""
    a = np.asarray(matrix, dtype=complex)
    defect = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1),
                                                       initial=0.0)
    return float(defect) if a.ndim == 2 else defect


def require_hermitian(matrix, message: str):
    """``hermitian_defect(matrix)``, once every matrix of the stack is
    Hermitian within ``HERMITIAN_RTOL * max|M|``; raises
    ``ValueError(message)`` otherwise."""
    a = np.asarray(matrix, dtype=complex)
    defect = hermitian_defect(a)
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    if np.any((scale > 0) & (defect > HERMITIAN_RTOL * scale)):
        raise ValueError(message)
    return defect


@lru_cache(maxsize=None)
def _schedule(n: int) -> tuple:
    """Index arrays that carry a stack of order-n matrices through one
    Brent-Luk sweep: identity -> L_0 -> ... -> L_last -> identity.

    Layout L_s lists the planes (p, q), p < q, of round-robin step s at
    positions (2i, 2i + 1); the steps together name every plane once.
    Odd n is padded with a dummy index, and the index paired with it goes
    last, outside every plane.  Built on first use for each n.
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
        moves.append(position[layout])
        current = layout
    return tuple(moves)


def _rotate(a: np.ndarray, v, skip: np.ndarray, planes: int) -> None:
    """One Brent-Luk step, in place: annihilate entry (2i, 2i+1) of every
    matrix in the C-contiguous stack ``a`` for i < ``planes``, one 2x2
    unitary per plane.  Planes whose entry is at most the matrix's
    ``skip`` get the identity.  ``v`` accumulates the columns."""
    b, n = a.shape[:2]
    flat = a.reshape(b, n * n)
    stride = 2 * n + 2
    end = planes * stride
    apq = flat[:, 1:end:stride]
    r = np.abs(apq)
    rotate = r > skip[:, None]
    if not rotate.any():
        return
    r = np.where(rotate, r, 1.0)
    tau = (flat[:, n + 1:n + 1 + end:stride].real
           - flat[:, 0:end:stride].real) / (2.0 * r)
    # t = sign(tau) / (|tau| + hypot(1, tau)), the smaller root
    t = np.where(rotate, 1.0 / (tau + np.copysign(np.hypot(1.0, tau), tau)),
                 0.0)
    c = 1.0 / np.hypot(1.0, t)
    sp = t * c * (apq / r)
    spc = sp.conj()
    # The unitary on plane i is [[c, sp], [-conj(sp), c]]: columns
    # transform by u, rows by u*.
    even, odd = slice(0, 2 * planes, 2), slice(1, 2 * planes, 2)
    cc, ss, ssc = c[:, None, :], sp[:, None, :], spc[:, None, :]
    for m in (a, v) if v is not None else (a,):
        xp, xq = m[:, :, even], m[:, :, odd]
        new_p = xp * cc - xq * ssc
        m[:, :, odd] = xp * ss + xq * cc
        m[:, :, even] = new_p
    cc, ss, ssc = c[:, :, None], sp[:, :, None], spc[:, :, None]
    xp, xq = a[:, even, :], a[:, odd, :]
    new_p = xp * cc - xq * ss
    a[:, odd, :] = xp * ssc + xq * cc
    a[:, even, :] = new_p
    keep = ~rotate
    flat[:, 1:end:stride] *= keep
    flat[:, n:n + end:stride] *= keep
    flat[:, ::n + 1].imag = 0.0


def jacobi_eigh(matrix, compute_vectors: bool = True, tol: float = 1e-14,
                max_sweeps: int = 60):
    """Eigendecomposition of complex Hermitian matrices by cyclic Jacobi
    rotations in Brent-Luk order.

    ``matrix`` is one (n, n) matrix or a stack (B, n, n).  Each rotation
    is a 2x2 unitary that annihilates one off-diagonal pair; a matrix
    leaves the sweeps once its off-diagonal Frobenius mass is at most
    ``tol * ||M||_F``, and ``ConvergenceError`` (a ``ValueError``) is
    raised when ``max_sweeps`` sweeps leave any matrix above that.
    Eigenvalues are returned in ascending order, shape (n,) or (B, n);
    the matching unitary eigenvector matrices (columns) are returned when
    ``compute_vectors`` is set, otherwise ``None``.

    Residuals satisfy ``||M v - w v|| <= ~1e-13 ||M||`` for every pair,
    far inside the 1e-10 budget the positivity checks rely on.
    """
    a = np.array(matrix, dtype=complex)
    single = a.ndim == 2
    if single:
        a = a[None]
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("matrix must be square")
    batch, n = a.shape[:2]
    scale = np.maximum(np.abs(a).max(axis=(1, 2), initial=0.0), 1e-300)
    defect = np.abs(a - a.conj().swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
    if np.any(defect > 1e-8 * scale):
        raise ValueError("matrix is not Hermitian")
    a = 0.5 * (a + a.conj().swapaxes(1, 2))
    v = (np.broadcast_to(np.eye(n, dtype=complex), a.shape).copy()
         if compute_vectors else None)

    target = tol * np.linalg.norm(a, axis=(1, 2))
    # Rotations on entries this small cannot move the off-diagonal mass
    # above the convergence target, so they are skipped.
    skip = target / (2.0 * max(n, 1))
    active = np.flatnonzero(target > 0.0) if n > 1 else np.empty(0, np.intp)
    work = a[active]
    vectors = v[active] if v is not None else None
    diag = np.arange(n)
    moves = _schedule(n) if n > 1 else ()
    for sweep in range(max_sweeps + 1):
        off = work.copy()
        off[:, diag, diag] = 0.0
        done = np.linalg.norm(off, axis=(1, 2)) <= target[active]
        if done.any():
            a[active[done]] = work[done]
            if v is not None:
                v[active[done]] = vectors[done]
                vectors = vectors[~done]
            active, work = active[~done], work[~done]
        if not active.size or sweep == max_sweeps:
            break
        active_skip = skip[active]
        for step, move in enumerate(moves):
            work = work[:, move[:, None], move]
            if vectors is not None:
                vectors = vectors[:, :, move]
            if step < len(moves) - 1:
                _rotate(work, vectors, active_skip, n // 2)
    if active.size:
        raise ConvergenceError(f"{active.size} of {batch} matrices did not "
                               f"converge in {max_sweeps} Jacobi sweeps")

    w = a.diagonal(axis1=1, axis2=2).real
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    if v is not None:
        v = np.take_along_axis(v, order[:, None, :], axis=2)
    if single:
        return w[0], (None if v is None else v[0])
    return w, v


def pivoted_cholesky(matrix, drop_tol: float = 1e-12):
    """Cholesky factorization with greedy diagonal pivoting.

    Factors the Hermitian PSD matrix as ``M[kept][:, kept] = L L*`` where
    ``kept`` is the pivot order.  Pivoting stops once the largest remaining
    Schur-complement diagonal drops below ``drop_tol`` times the largest
    initial diagonal; the indices left over are reported as dropped instead
    of being regularized, which would spoil lower-bound guarantees built on
    the factor.

    Returns ``(kept, L, dropped)`` with ``L`` lower triangular of size
    ``len(kept)``.
    """
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    a = 0.5 * (a + a.conj().T)

    diag0 = a.diagonal().real
    if n == 0:
        return [], np.empty((0, 0), dtype=complex), []
    ceiling = float(np.max(diag0))
    if ceiling <= 0.0:
        return [], np.empty((0, 0), dtype=complex), list(range(n))
    floor = drop_tol * ceiling

    work = a.copy()
    chosen: list[int] = []
    columns: list[np.ndarray] = []
    available = np.ones(n, dtype=bool)
    for _ in range(n):
        d = np.where(available, work.diagonal().real, -np.inf)
        j = int(np.argmax(d))
        if d[j] <= floor:
            break
        piv = math.sqrt(d[j])
        col = work[:, j] / piv
        col[~available] = 0.0
        chosen.append(j)
        columns.append(col)
        available[j] = False
        work = work - np.outer(col, col.conj())

    k = len(chosen)
    lower = np.zeros((k, k), dtype=complex)
    for cidx, col in enumerate(columns):
        for ridx in range(cidx, k):
            lower[ridx, cidx] = col[chosen[ridx]]
    dropped = [i for i in range(n) if available[i]]
    return chosen, lower, dropped


def solve_lower_triangular(lower, rhs):
    """Forward substitution ``L X = B`` for lower-triangular ``L``."""
    l = np.asarray(lower, dtype=complex)
    b = np.array(rhs, dtype=complex)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    n = l.shape[0]
    x = np.zeros_like(b)
    for i in range(n):
        x[i] = (b[i] - l[i, :i] @ x[:i]) / l[i, i]
    return x[:, 0] if squeeze else x

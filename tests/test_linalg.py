"""The hand-rolled solvers are cross-checked against LAPACK (numpy)."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergkit import linalg
from bergkit.linalg import (HERMITIAN_RTOL, JACOBI_TOL, ConvergenceError,
                            _schedule, jacobi_eigh, pivoted_cholesky,
                            solve_lower_triangular)

RESIDUAL_BUDGET = 1e-10


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.conj().T


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32, 64])
def test_jacobi_matches_lapack(n):
    rng = np.random.default_rng(n)
    a = random_hermitian(rng, n)
    (w,), (v,) = jacobi_eigh(a[None])
    w_ref = np.linalg.eigvalsh(a)
    scale = max(np.abs(w_ref).max(), 1.0)
    assert np.max(np.abs(w - w_ref)) <= 1e-12 * scale
    # eigenvector residual contract
    norm = np.linalg.norm(a, 2)
    for k in range(n):
        res = np.linalg.norm(a @ v[:, k] - w[k] * v[:, k])
        assert res <= RESIDUAL_BUDGET * norm
    assert np.allclose(v.conj().T @ v, np.eye(n), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=10_000))
def test_jacobi_eigenvalues_property(n, seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, n)
    (w,), _ = jacobi_eigh(a[None], compute_vectors=False)
    w_ref = np.linalg.eigvalsh(a)
    scale = max(np.abs(w_ref).max(), 1.0)
    assert np.max(np.abs(w - w_ref)) <= 1e-11 * scale
    assert np.all(np.diff(w) >= 0)


def staggered_stack(rng, kinds, n):
    """Matrices that leave the sweeps at different sweeps, one of each of
    ``kinds``: 0 diagonal (leaves before the first sweep), 1 nearly
    diagonal, 2 near-degenerate (eigenvalues 1e-12 apart), 3 dense."""
    stack = []
    for kind in kinds:
        a = random_hermitian(rng, n)
        diagonal = np.diag(np.diag(a).real)
        if kind == 0:
            a = diagonal
        elif kind == 1:
            a = diagonal + 1e-9 * a
        elif kind == 2:
            q, _ = np.linalg.qr(random_hermitian(rng, n))
            a = (q * (1.0 + 1e-12 * rng.normal(size=n))) @ q.conj().T
        stack.append(a)
    return np.array(stack)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=20),
       st.sampled_from([2, 4]) | st.integers(min_value=1, max_value=16),
       st.integers(min_value=0, max_value=10_000), st.booleans(),
       st.booleans())
def test_jacobi_stack_matches_single_solves(batch, n, seed, vectors,
                                            staggered):
    # A staggered stack has matrices leave at different sweeps, so the
    # workspace is cut to the matrices left several times in one call.
    rng = np.random.default_rng(seed)
    if staggered:
        stack = staggered_stack(rng, rng.integers(0, 4, batch), n)
    else:
        scales = 10.0 ** rng.uniform(-6.0, 0.0, batch)
        stack = np.array([s * random_hermitian(rng, n) for s in scales])
    w, v = jacobi_eigh(stack, compute_vectors=vectors)
    assert w.shape == (batch, n)
    # each entry is, bit for bit, its one-element stack
    for i, a in enumerate(stack):
        w1, v1 = jacobi_eigh(stack[i:i + 1], compute_vectors=vectors)
        assert w[i:i + 1].tobytes() == w1.tobytes()
        if vectors:
            assert v[i:i + 1].tobytes() == v1.tobytes()
        w_ref = np.linalg.eigvalsh(a)
        assert np.max(np.abs(w[i] - w_ref)) <= 1e-12 * np.abs(w_ref).max()


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("vectors", [False, True])
def test_jacobi_cuts_one_workspace_as_matrices_leave(monkeypatch, n, vectors):
    # One workspace serves the call: each time matrices leave, the others
    # move to the front of a buffer and the step runs on fewer matrices.
    builds, kept = [], []
    build, keep = linalg._Workspace.__init__, linalg._Workspace.keep

    def counted_build(self, stack, skip):
        builds.append(len(stack))
        build(self, stack, skip)

    def counted_keep(self, indices):
        kept.append(indices.size)
        return keep(self, indices)

    monkeypatch.setattr(linalg._Workspace, "__init__", counted_build)
    monkeypatch.setattr(linalg._Workspace, "keep", counted_keep)
    stack = staggered_stack(np.random.default_rng(n), [0, 3, 2, 1, 3, 0], n)
    w, v = jacobi_eigh(stack, compute_vectors=vectors)
    # the two diagonal matrices leave before the workspace is built; 2x2
    # matrices all leave after their one sweep, larger ones a few at a time
    assert builds == [4]
    assert kept == sorted(set(kept), reverse=True) and kept[-1:] != [0]
    assert len(kept) >= 2 if n > 2 else kept == []
    for i in range(len(stack)):
        w1, v1 = jacobi_eigh(stack[i:i + 1], compute_vectors=vectors)
        assert w[i:i + 1].tobytes() == w1.tobytes()
        if vectors:
            assert v[i:i + 1].tobytes() == v1.tobytes()


def reference_rotate(a, v, skip, planes):
    """Reference Brent-Luk step: each plane's two columns and two rows
    updated through strided even/odd views, one product at a time."""
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
    t = np.where(rotate, 1.0 / (tau + np.copysign(np.hypot(1.0, tau), tau)),
                 0.0)
    c = 1.0 / np.hypot(1.0, t)
    sp = t * c * (apq / r)
    spc = sp.conj()
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


def reference_eigh(stack, compute_vectors):
    """Reference sweeps of jacobi_eigh, with 2-D fancy indexing for every
    move, for valid (B, n, n) stacks."""
    a = np.array(stack, dtype=complex)
    a = 0.5 * (a + a.conj().swapaxes(1, 2))
    n = a.shape[1]
    v = (np.broadcast_to(np.eye(n, dtype=complex), a.shape).copy()
         if compute_vectors else None)
    target = JACOBI_TOL * np.linalg.norm(a, axis=(1, 2))
    skip = target / (2.0 * max(n, 1))
    active = np.flatnonzero(target > 0.0) if n > 1 else np.empty(0, np.intp)
    work = a[active]
    vectors = v[active] if v is not None else None
    diag = np.arange(n)
    moves = [move for move, _ in _schedule(n, n)] if n > 1 else []
    for sweep in range(61):
        off = work.copy()
        off[:, diag, diag] = 0.0
        done = np.linalg.norm(off, axis=(1, 2)) <= target[active]
        if done.any():
            a[active[done]] = work[done]
            if v is not None:
                v[active[done]] = vectors[done]
                vectors = vectors[~done]
            active, work = active[~done], work[~done]
        if not active.size:
            break
        active_skip = skip[active]
        for step, move in enumerate(moves):
            work = work[:, move[:, None], move]
            if vectors is not None:
                vectors = vectors[:, :, move]
            if step < len(moves) - 1:
                reference_rotate(work, vectors, active_skip, n // 2)
    assert not active.size
    w = a.diagonal(axis1=1, axis2=2).real
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    if v is not None:
        v = np.take_along_axis(v, order[:, None, :], axis=2)
    return w, v


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=17),
       st.integers(min_value=0, max_value=10_000),
       st.sampled_from(["complex", "real", "sparse", "diagonal", "zero",
                        "mixed"]),
       st.sampled_from([1.0, 1e-200, 1e200]), st.booleans(),
       st.sampled_from(["C", "transposed", "fortran"]))
def test_jacobi_matches_reference_bitwise(batch, n, seed, kind, scale,
                                          vectors, layout):
    # The step takes fewer array calls than the reference but puts every
    # entry through the same products and sums in the same order, so the
    # bits agree, signed zeros of skipped planes and real inputs included.
    # Zero and diagonal stacks converge before any step; in a mixed stack
    # the matrices leave at different sweeps, and the step's workspace is
    # cut to the ones left.  The vectors ride in the stack as
    # extra rows that only the column update touches, so the eigenvalues
    # are the same bits with them and without; and a stack whose last
    # axis is not contiguous is solved as its C-ordered copy.
    rng = np.random.default_rng(seed)
    stack = np.array([random_hermitian(rng, n) for _ in range(batch)])
    if kind == "real":
        stack = stack.real.astype(complex)
        stack.imag = np.copysign(0.0, rng.normal(size=stack.shape))
    elif kind == "sparse":  # planes skipped while others rotate
        pairs = np.triu(rng.random(stack.shape) < 0.6, 1)
        stack = stack * ~(pairs | pairs.swapaxes(1, 2))
    elif kind == "diagonal":
        stack = stack * np.eye(n)  # no plane rotates
    elif kind == "zero":
        stack = np.zeros_like(stack)
    elif kind == "mixed":  # diagonal, sparse and dense matrices
        pick = rng.integers(0, 3, batch)
        pairs = np.triu(rng.random(stack.shape) < 0.6, 1)
        stack[pick == 0] *= np.eye(n)
        stack[pick == 1] *= ~(pairs | pairs.swapaxes(1, 2))[pick == 1]
    stack *= scale
    given = {"C": stack,
             "transposed": np.ascontiguousarray(stack.swapaxes(1, 2)
                                                ).swapaxes(1, 2),
             "fortran": np.asfortranarray(stack)}[layout]
    assert np.array_equal(given, stack)
    w, v = jacobi_eigh(given, compute_vectors=vectors)
    w_other, _ = jacobi_eigh(given, compute_vectors=not vectors)
    assert np.array_equal(w.view(np.uint64), w_other.view(np.uint64))
    if scale == 1.0:
        w_ref, v_ref = reference_eigh(stack, vectors)
    else:
        # The reference's Frobenius norm leaves the float range at 1e200
        # and 1e-200, so it is taken on each matrix brought to the scale
        # jacobi_eigh works at: the largest entry in [0.5, 1).
        e = np.frexp(np.abs(stack).max(axis=(1, 2), initial=0.0))[1]
        w_ref, v_ref = reference_eigh(stack * np.ldexp(1.0, -e)[:, None, None],
                                      vectors)
        w_ref = np.ldexp(w_ref, e[:, None])
    assert np.array_equal(w.view(np.uint64), w_ref.view(np.uint64))
    if vectors:
        assert np.array_equal(v.view(np.uint64), v_ref.view(np.uint64))
    else:
        assert v is None and v_ref is None


@pytest.mark.parametrize("scale", [1e160, 1e-170, 1e300])
def test_jacobi_outside_the_frobenius_range(scale):
    # ||M||_F of these matrices overflows or underflows; each matrix is
    # solved at the power-of-two scale of its largest entry instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (w,), (v,) = jacobi_eigh(scale * np.ones((1, 2, 2)))
        stack = scale * np.array([np.ones((2, 2)), np.diag([1.0, -1.0])])
        w_stack, _ = jacobi_eigh(stack, compute_vectors=False)
    # not the diagonal [1, 1], which the unscaled sweeps returned
    np.testing.assert_allclose(w / scale, [0.0, 2.0], rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(np.abs(v), np.sqrt(0.5), rtol=1e-15)
    np.testing.assert_allclose(w_stack / scale, [[0.0, 2.0], [-1.0, 1.0]],
                               rtol=1e-15, atol=0.0)


def test_jacobi_stack_shapes():
    rng = np.random.default_rng(3)
    stack = np.array([random_hermitian(rng, 5) for _ in range(4)])
    w, v = jacobi_eigh(stack)
    assert w.shape == (4, 5) and v.shape == (4, 5, 5)
    for a, wi, vi in zip(stack, w, v):
        assert np.allclose(a @ vi, vi * wi, atol=1e-12 * np.abs(a).max())
    w, v = jacobi_eigh(np.empty((0, 3, 3)))
    assert w.shape == (0, 3) and v.shape == (0, 3, 3)


def test_jacobi_raises_when_sweeps_run_out(monkeypatch):
    rng = np.random.default_rng(16)
    a = random_hermitian(rng, 16)
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match="1 of 1 matrices did not "
                                               "converge in 1 Jacobi sweeps"):
        jacobi_eigh(a[None])
    stack = np.array([a, np.diag(np.arange(16.0)), a])
    with pytest.raises(ValueError, match="2 of 3 matrices"):
        jacobi_eigh(stack, compute_vectors=False)


def test_jacobi_results_are_new_arrays():
    # The sweeps reuse their buffers within a call, never across calls,
    # and leave the input as it was.
    rng = np.random.default_rng(7)
    stack = np.array([random_hermitian(rng, 6) for _ in range(3)])
    stack[1] = np.diag(np.arange(6.0))  # leaves before the first sweep
    before = stack.tobytes()
    w, v = jacobi_eigh(stack)
    w_bits, v_bits = w.tobytes(), v.tobytes()
    jacobi_eigh(stack)
    jacobi_eigh(stack[::-1], compute_vectors=False)
    assert w.tobytes() == w_bits and v.tobytes() == v_bits
    assert stack.tobytes() == before
    assert not np.shares_memory(w, stack) and not np.shares_memory(v, stack)


def test_jacobi_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        jacobi_eigh(np.array([[[0.0, 1.0], [0.0, 0.0]]]))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_jacobi_rejects_non_finite(bad):
    # checked before the Hermitian test, which NaN entries would pass
    with pytest.raises(ValueError, match="non-finite"):
        jacobi_eigh(np.array([[[1.0, bad], [bad, 1.0]]]))
    with pytest.raises(ValueError, match="non-finite"):
        jacobi_eigh(np.array([np.eye(2), [[bad, 0.0], [0.0, 1.0]]]))


def test_jacobi_rejects_non_square():
    # one (n, n) matrix is not taken for a stack of one
    for shape in ((2, 3), (1, 2, 3), (2, 2), (3,)):
        with pytest.raises(ValueError, match=r"need a \(B, n, n\) stack .* "
                           rf"not shape {re.escape(str(shape))}$"):
            jacobi_eigh(np.ones(shape))


def eigenvalues(stack):
    return jacobi_eigh(stack, compute_vectors=False)


def test_hermitian_defect():
    # the defect max|M - M*| may reach HERMITIAN_RTOL * max|M|, no further
    eigenvalues(np.eye(3)[None])
    eigenvalues(np.zeros((1, 2, 2), dtype=complex))
    at_tolerance = np.array([[[2.0, 0.0], [2.0 * HERMITIAN_RTOL, 1.0]]])
    eigenvalues(at_tolerance)
    at_tolerance[0, 1, 0] *= 1.5
    with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
        eigenvalues(at_tolerance)
    with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
        eigenvalues(np.array([[[0, 1j], [0, 0]]]))


def test_jacobi_checks_each_matrix_of_a_stack_is_hermitian():
    rng = np.random.default_rng(3)
    stack = np.array([random_hermitian(rng, 4) for _ in range(3)])
    stack[2] = 0.0  # a zero matrix is Hermitian at any tolerance
    scale = np.abs(stack[1]).max()
    stack[1, 0, 3] += 0.5 * HERMITIAN_RTOL * scale
    eigenvalues(stack)
    stack[1, 0, 3] += HERMITIAN_RTOL * scale
    with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
        eigenvalues(stack)
    with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
        eigenvalues(stack[1:2])
    eigenvalues(stack[[0, 2]])


def test_pivoted_cholesky_reconstructs():
    rng = np.random.default_rng(5)
    b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = b @ b.conj().T + 0.1 * np.eye(6)
    kept, lower, dropped = pivoted_cholesky(a)
    assert not dropped
    sub = a[np.ix_(kept, kept)]
    assert np.allclose(lower @ lower.conj().T, sub, atol=1e-12 * np.abs(a).max())


def test_pivoted_cholesky_drops_dependent_directions():
    v = np.array([1.0, 2.0, 3.0])
    a = np.outer(v, v)  # rank one
    kept, lower, dropped = pivoted_cholesky(a)
    assert len(kept) == 1
    assert len(dropped) == 2
    assert kept[0] == 2  # largest diagonal first


def test_solve_lower_triangular():
    rng = np.random.default_rng(9)
    l = np.tril(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    l += 5 * np.eye(5)
    b = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    x = solve_lower_triangular(l, b)
    assert np.allclose(l @ x, b, atol=1e-12)
    xv = solve_lower_triangular(l, b[:, :1])
    assert np.allclose(l @ xv, b[:, :1], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10_000), st.booleans())
def test_solve_lower_triangular_stack_matches_single_solves(n, m, batch, seed,
                                                            transposed):
    # A stack of right-hand sides, C-ordered or the conjugate transposes
    # of C-ordered matrices (as the Gram pencils pass them), gives each
    # matrix the bits of its own solve.
    rng = np.random.default_rng(seed)
    l = np.tril(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    l += n * np.eye(n)
    shape = (batch, m, n) if transposed else (batch, n, m)
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if transposed:
        stack = stack.conj().swapaxes(1, 2)
    x = solve_lower_triangular(l, stack)
    assert x.shape == (batch, n, m)
    for i in range(batch):
        single = solve_lower_triangular(l, stack[i])
        assert single.strides == x[i].strides
        assert (np.ascontiguousarray(x[i]).tobytes()
                == np.ascontiguousarray(single).tobytes())

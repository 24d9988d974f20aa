"""The hand-rolled solvers are cross-checked against LAPACK (numpy)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergkit.linalg import (HERMITIAN_RTOL, ConvergenceError, hermitian_defect,
                            jacobi_eigh, pivoted_cholesky, require_hermitian,
                            solve_lower_triangular)

RESIDUAL_BUDGET = 1e-10


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.conj().T


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32, 64])
def test_jacobi_matches_lapack(n):
    rng = np.random.default_rng(n)
    a = random_hermitian(rng, n)
    w, v = jacobi_eigh(a)
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
    w, _ = jacobi_eigh(a, compute_vectors=False)
    w_ref = np.linalg.eigvalsh(a)
    scale = max(np.abs(w_ref).max(), 1.0)
    assert np.max(np.abs(w - w_ref)) <= 1e-11 * scale
    assert np.all(np.diff(w) >= 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=1, max_value=16),
       st.integers(min_value=0, max_value=10_000), st.booleans())
def test_jacobi_stack_matches_single_solves(batch, n, seed, vectors):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-6.0, 0.0, batch)
    stack = np.array([s * random_hermitian(rng, n) for s in scales])
    w, v = jacobi_eigh(stack, compute_vectors=vectors)
    assert w.shape == (batch, n)
    for i, a in enumerate(stack):
        w1, v1 = jacobi_eigh(a, compute_vectors=vectors)
        assert np.array_equal(w[i], w1)
        if vectors:
            assert np.array_equal(v[i], v1)
        w_ref = np.linalg.eigvalsh(a)
        assert np.max(np.abs(w[i] - w_ref)) <= 1e-12 * np.abs(w_ref).max()


def test_jacobi_stack_shapes():
    rng = np.random.default_rng(3)
    stack = np.array([random_hermitian(rng, 5) for _ in range(4)])
    w, v = jacobi_eigh(stack)
    assert w.shape == (4, 5) and v.shape == (4, 5, 5)
    for a, wi, vi in zip(stack, w, v):
        assert np.allclose(a @ vi, vi * wi, atol=1e-12 * np.abs(a).max())
    w, v = jacobi_eigh(np.empty((0, 3, 3)))
    assert w.shape == (0, 3) and v.shape == (0, 3, 3)


def test_jacobi_raises_when_sweeps_run_out():
    rng = np.random.default_rng(16)
    a = random_hermitian(rng, 16)
    with pytest.raises(ConvergenceError, match="1 of 1 matrices"):
        jacobi_eigh(a, max_sweeps=1)
    stack = np.array([a, np.diag(np.arange(16.0)), a])
    with pytest.raises(ValueError, match="2 of 3 matrices"):
        jacobi_eigh(stack, compute_vectors=False, max_sweeps=1)


def test_jacobi_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_jacobi_rejects_non_square():
    with pytest.raises(ValueError):
        jacobi_eigh(np.ones((2, 3)))


def test_hermitian_defect():
    assert hermitian_defect(np.eye(3)) == 0.0
    assert hermitian_defect(np.array([[0, 1j], [0, 0]])) == pytest.approx(1.0)


def test_require_hermitian_checks_each_matrix_of_a_stack():
    rng = np.random.default_rng(3)
    stack = np.array([random_hermitian(rng, 4) for _ in range(3)])
    stack[2] = 0.0  # a zero matrix is Hermitian at any tolerance
    scale = np.abs(stack[1]).max()
    stack[1, 0, 3] += 0.5 * HERMITIAN_RTOL * scale
    defects = require_hermitian(stack, "not Hermitian")
    assert list(defects) == [hermitian_defect(m) for m in stack]
    assert defects[1] > 0.0
    stack[1, 0, 3] += HERMITIAN_RTOL * scale
    with pytest.raises(ValueError, match="^not Hermitian$"):
        require_hermitian(stack, "not Hermitian")
    with pytest.raises(ValueError, match="^not Hermitian$"):
        require_hermitian(stack[1], "not Hermitian")


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
    xv = solve_lower_triangular(l, b[:, 0])
    assert np.allclose(l @ xv, b[:, 0], atol=1e-12)

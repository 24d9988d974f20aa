"""Reproducing kernels on the half-plane and positivity certification.

The weighted Bergman space with parameter alpha > -1 has reproducing
kernels

    k_w(z) = 2^alpha (1 + alpha) / (conj(w) + z)^(2 + alpha),

evaluated with the principal power (the base always has positive real
part).  This module builds Hermitian matrices of kernel values at point
configurations, the Nevanlinna kernel (psi(z) + conj psi(w))/(z + conj w),
and the composition-defect kernels

    K^n(w, z) = [ (phi(z) + conj phi(w))^n - lam^{-n} (z + conj w)^n ]
                / (z + conj w)^n,

whose positivity for dyadic n certifies boundedness of the composition
operator with angular derivative lam.  Positivity of a sampled matrix is
decided by a self-contained Hermitian eigensolver (see ``linalg``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .linalg import jacobi_eigh, pivoted_cholesky, require_hermitian
from .symbols import require_half_plane

__all__ = [
    "Weight",
    "KernelMatrix",
    "PsdVerdict",
    "bergman_kernel",
    "kernel_function",
    "gram_matrix",
    "nevanlinna_kernel",
    "defect_kernel",
    "defect_kernel_matrix",
    "factorization_residual",
    "psd_check",
]

CONDITION_WARNING_LIMIT = 1e12
PSD_REL_TOL = 1e-9


@dataclass(frozen=True)
class Weight:
    """Bergman weight parameter alpha > -1 with its derived constants."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        if not self.alpha > -1.0:
            raise ValueError("weight parameter must satisfy alpha > -1")

    @property
    def norm_const(self) -> float:
        """2^alpha (1 + alpha), the kernel normalization."""
        return 2.0 ** self.alpha * (1.0 + self.alpha)

    @property
    def exponent(self) -> float:
        return 2.0 + self.alpha

    @property
    def half_exponent(self) -> float:
        return (2.0 + self.alpha) / 2.0

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "norm_const": self.norm_const,
                "exponent": self.exponent, "half_exponent": self.half_exponent}


def bergman_kernel(weight: Weight, omega, z):
    """Kernel value k_omega(z) = <k_omega, k_z>; scalars or arrays of
    points, broadcast against each other.

    This is the one place the kernel formula is written: Gram matrices
    are ``bergman_kernel(weight, pts[None, :], pts[:, None])``.
    """
    omega = require_half_plane(omega)
    z = require_half_plane(z)
    value = weight.norm_const / (np.conj(omega) + z) ** weight.exponent
    if value.ndim == 0:
        return complex(value)
    return value


def kernel_function(weight: Weight, omega):
    """The function z -> k_omega(z), for quadrature and estimator use."""
    return partial(bergman_kernel, weight, complex(require_half_plane(omega)))


@dataclass(frozen=True)
class KernelMatrix:
    """Hermitian matrix of kernel evaluations with provenance.

    ``entries[i, j] = K(points[j], points[i])``, i.e. column j holds the
    kernel function attached to ``points[j]`` evaluated at every point, so
    for the Bergman kernel ``entries[i, j] = <k_{z_j}, k_{z_i}>``.
    """

    points: tuple
    entries: np.ndarray
    kernel_id: str
    hermitian_defect: float
    condition_estimate: Optional[float] = None

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def conditioning_warning(self) -> bool:
        return (self.condition_estimate is not None
                and self.condition_estimate > CONDITION_WARNING_LIMIT)

    @classmethod
    def build(cls, points, entries, kernel_id: str,
              condition_estimate: Optional[float] = None) -> "KernelMatrix":
        entries = np.asarray(entries, dtype=complex)
        points = tuple(complex(p) for p in points)
        if entries.shape != (len(points), len(points)):
            raise ValueError("entry matrix does not match the point list")
        defect = require_hermitian(
            entries, "kernel matrix is not Hermitian within tolerance")
        return cls(points, entries, kernel_id, defect, condition_estimate)

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel_id,
            "points": [[p.real, p.imag] for p in self.points],
            "entries": [[[v.real, v.imag] for v in row] for row in self.entries],
            "hermitian_defect": self.hermitian_defect,
            "condition_estimate": self.condition_estimate,
        }


def _condition_estimate(entries: np.ndarray) -> float:
    """Spread of the pivoted-Cholesky pivots of the diagonally normalized
    matrix; blows up when two points nearly coincide."""
    d = entries.diagonal().real
    if np.any(d <= 0.0):
        return math.inf
    scale = 1.0 / np.sqrt(d)
    normalized = entries * np.outer(scale, scale)
    kept, lower, dropped = pivoted_cholesky(normalized, drop_tol=0.0)
    if dropped or len(kept) < entries.shape[0]:
        return math.inf
    pivots = np.abs(np.diag(lower)) ** 2
    return float(pivots.max() / pivots.min())


def gram_matrix(weight: Weight, points: Sequence[complex]) -> KernelMatrix:
    """Gram matrix <k_{z_j}, k_{z_i}> of Bergman kernels at distinct points.

    A conditioning estimate accompanies the matrix; it exceeds 1e12 when
    points nearly coincide, which flags downstream solves as unreliable.
    """
    pts = require_half_plane(points)
    if len(set(pts.tolist())) != pts.size:
        raise ValueError("points must be distinct")
    entries = bergman_kernel(weight, pts[None, :], pts[:, None])
    condition = _condition_estimate(entries)
    return KernelMatrix.build(pts, entries, f"gram(alpha={weight.alpha:g})",
                              condition)


def nevanlinna_kernel(psi, points: Sequence[complex]) -> KernelMatrix:
    """Matrix of (psi(z_i) + conj psi(z_j)) / (z_i + conj z_j).

    The kernel is positive exactly when Re psi >= 0 on the half-plane, so
    its sampled matrices certify (or refute) positive real part.  ``psi``
    may be a symbol or any callable; it is called once on the point array,
    and a scalar result stands for a constant function.
    """
    pts = require_half_plane(points)
    values = np.broadcast_to(np.asarray(psi(pts), dtype=complex), pts.shape)
    entries = (values[:, None] + np.conj(values)[None, :]) / (
        pts[:, None] + np.conj(pts)[None, :])
    return KernelMatrix.build(pts, entries, "nevanlinna")


def defect_kernel(phi, lam: float, n: int, omega, z):
    """Composition-defect kernel K^n(omega, z) for candidate derivative lam."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    if n < 1:
        raise ValueError("kernel power must be a positive integer")
    omega = np.asarray(omega, dtype=complex)
    z = np.asarray(z, dtype=complex)
    base = z + np.conj(omega)
    top = np.asarray(phi(z), dtype=complex) + np.conj(np.asarray(phi(omega),
                                                                 dtype=complex))
    value = (top ** n - lam ** (-float(n)) * base ** n) / base ** n
    if value.ndim == 0:
        return complex(value)
    return value


def defect_kernel_matrix(phi, lam: float, n: int,
                         points: Sequence[complex]) -> KernelMatrix:
    """Sampled matrix of K^n at a point configuration."""
    pts = require_half_plane(points)
    entries = defect_kernel(phi, lam, n, pts[None, :], pts[:, None])
    return KernelMatrix.build(pts, entries, f"defect(n={n}, lam={lam:g})")


def factorization_residual(phi, lam: float, level: int, pairs) -> float:
    """Largest relative residual of the doubling identity

        K^{2m} = K^m (K^m + 2 lam^{-m}),   m = 2**level,

    over the supplied (omega, z) pairs.  The identity is exact algebra;
    residuals are normalized by the largest intermediate magnitude, so the
    result sits at the rounding floor for any correct implementation.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    m = 2 ** level
    pair_array = np.asarray(pairs, dtype=complex)
    if pair_array.ndim != 2 or pair_array.shape[1] != 2:
        raise ValueError("pairs must be an iterable of (omega, z)")
    omega = pair_array[:, 0]
    z = pair_array[:, 1]
    km = defect_kernel(phi, lam, m, omega, z)
    k2m = defect_kernel(phi, lam, 2 * m, omega, z)
    product = km * (km + 2.0 * lam ** (-float(m)))
    base = z + np.conj(omega)
    top = np.asarray(phi(z), dtype=complex) + np.conj(np.asarray(phi(omega),
                                                                 dtype=complex))
    # Cancellation scale: the powers entering both sides.
    scale = np.maximum.reduce([
        np.abs(top / base) ** (2 * m),
        np.full(omega.shape, lam ** (-2.0 * float(m))),
        np.abs(k2m),
        np.abs(product),
    ])
    scale = np.maximum(scale, 1e-300)
    return float(np.max(np.abs(k2m - product) / scale))


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a positive-semidefiniteness check.

    ``is_psd`` holds exactly when the smallest eigenvalue of the Hermitian
    part clears ``-threshold``; otherwise ``witness`` is a coefficient
    vector with c* M c < 0.
    """

    min_eigenvalue: float
    threshold: float
    is_psd: bool
    witness: Optional[tuple] = None

    def to_dict(self) -> dict:
        return {
            "min_eigenvalue": self.min_eigenvalue,
            "threshold": self.threshold,
            "is_psd": self.is_psd,
            "witness": None if self.witness is None else
            [[w.real, w.imag] for w in self.witness],
        }


def psd_check(matrix, rel_tol: float = PSD_REL_TOL):
    """Positivity verdict for a Hermitian matrix (or KernelMatrix), or one
    verdict per matrix for a sequence of same-size matrices.

    The smallest eigenvalues come from one batched call of the
    rotation-based solver in ``linalg``; eigenvectors are computed only
    for the matrices that fail, to give their witnesses.  The acceptance
    threshold is ``rel_tol * max(1, trace/n)``, an absolute floor made
    scale-aware so that roundoff on large-magnitude kernels does not
    produce false negatives.
    """
    if isinstance(matrix, (list, tuple)):
        if not matrix:
            return []
        first = matrix[0]
        single = not (isinstance(first, KernelMatrix) or np.ndim(first) == 2)
    else:
        single = isinstance(matrix, KernelMatrix) or np.ndim(matrix) != 3
    stack = [matrix] if single else list(matrix)
    a = np.asarray([m.entries if isinstance(m, KernelMatrix) else m
                    for m in stack], dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("matrix must be square")
    n = a.shape[1]
    require_hermitian(a, "matrix is not Hermitian within the defect tolerance")
    hermitian_part = 0.5 * (a + a.conj().swapaxes(1, 2))
    eigenvalues, _ = jacobi_eigh(hermitian_part, compute_vectors=False)
    min_eigs = eigenvalues[:, 0]
    traces = np.trace(hermitian_part, axis1=1, axis2=2).real
    thresholds = rel_tol * np.maximum(1.0, traces / max(n, 1))
    is_psd = min_eigs >= -thresholds
    witnesses = [None] * len(stack)
    failing = np.flatnonzero(~is_psd)
    if failing.size:
        _, vectors = jacobi_eigh(hermitian_part[failing], compute_vectors=True)
        for index, vector in zip(failing, vectors[:, :, 0]):
            witnesses[index] = tuple(complex(x) for x in vector)
    verdicts = [PsdVerdict(float(min_eigs[i]), float(thresholds[i]),
                           bool(is_psd[i]), witnesses[i])
                for i in range(len(stack))]
    return verdicts[0] if single else verdicts

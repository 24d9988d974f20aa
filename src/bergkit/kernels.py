"""Reproducing kernels on the half-plane and positivity certification.

The weighted Bergman space with parameter alpha > -1 has reproducing
kernels

    k_w(z) = 2^alpha (1 + alpha) / (conj(w) + z)^(2 + alpha),

evaluated with the principal power (the base always has positive real
part).  This module builds kernel matrices, as plain complex arrays, at
point configurations: Gram matrices, the Nevanlinna kernel
(psi(z) + conj psi(w))/(z + conj w), and the composition-defect kernels

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

from .linalg import jacobi_eigh
from .symbols import require_half_plane

__all__ = [
    "Weight",
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

PSD_REL_TOL = 1e-9


@dataclass(frozen=True)
class Weight:
    """Bergman weight parameter alpha > -1 with its derived constants."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        if not math.isfinite(self.alpha):
            raise ValueError(f"weight parameter alpha is not finite: "
                             f"{self.alpha}")
        if not self.alpha > -1.0:
            raise ValueError("weight parameter must satisfy alpha > -1")
        # 2.0 ** alpha raises OverflowError from alpha = 1024 on
        if not (self.alpha < 1024 and self.norm_const < math.inf):
            raise ValueError(f"weight parameter alpha = {self.alpha:g} puts "
                             "2^alpha (1 + alpha) past the float range")

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


def _shifted_power(shift, z, p, out=None) -> np.ndarray:
    """``(shift + z) ** float(p)`` as a new complex array, bit for bit, or
    written into ``out``, a complex array of its shape, when one is given.

    This is the one place a complex base is raised to a real power.  The
    sum is formed once and the power is taken in place on it, so 0-d
    inputs give a 0-d array.  numpy's ``**`` multiplies out an integral
    ``p`` and takes the square root of an array at ``p = 0.5``; those
    cases keep numpy's own ufunc.  Any other ``p`` goes to libm ``cpow``,
    which glibc defines as ``cexp(p * clog(w))``: the same three steps
    here skip its per-element call and a full-size temporary.
    """
    p = float(p)
    w = np.asarray(np.add(shift, z, out=out), dtype=complex)
    if p.is_integer():
        return np.power(w, p, out=w)
    if p == 0.5 and w.ndim:
        return np.sqrt(w, out=w)
    np.log(w, out=w)
    w *= p
    return np.exp(w, out=w)


def bergman_kernel(weight: Weight, omega, z):
    """Kernel value k_omega(z) = <k_omega, k_z>; scalars or arrays of
    points, broadcast against each other.

    This is the one place the kernel formula is written: Gram matrices
    are ``bergman_kernel(weight, pts[None, :], pts[:, None])``.  A power
    past the float range gives k = 0; a value past it is refused.
    """
    omega = require_half_plane(omega)
    z = require_half_plane(z)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        value = _shifted_power(np.conj(omega), z, weight.exponent)
        np.divide(weight.norm_const, value, out=value)
    if not np.isfinite(value).all():
        raise ValueError(f"k_w(z) at alpha = {weight.alpha:g} leaves the "
                         "float range")
    if value.ndim == 0:
        return complex(value)
    return value


def kernel_function(weight: Weight, omega):
    """The function z -> k_omega(z), for quadrature and estimator use."""
    return partial(bergman_kernel, weight, complex(require_half_plane(omega)))


def gram_matrix(weight: Weight, points: Sequence[complex]) -> np.ndarray:
    """Gram matrix <k_{z_j}, k_{z_i}> of Bergman kernels at distinct
    points: entry (i, j) is ``bergman_kernel(weight, z_j, z_i)``."""
    pts = require_half_plane(points)
    if len(set(pts.tolist())) != pts.size:
        raise ValueError("points must be distinct")
    return bergman_kernel(weight, pts[None, :], pts[:, None])


def nevanlinna_kernel(psi, points: Sequence[complex]) -> np.ndarray:
    """Matrix of (psi(z_i) + conj psi(z_j)) / (z_i + conj z_j).

    The kernel is positive exactly when Re psi >= 0 on the half-plane, so
    its sampled matrices certify (or refute) positive real part.  ``psi``
    may be a symbol or any callable; it is called once on the point array,
    and a scalar result stands for a constant function.
    """
    pts = require_half_plane(points)
    values = np.broadcast_to(np.asarray(psi(pts), dtype=complex), pts.shape)
    return (values[:, None] + np.conj(values)[None, :]) / (
        pts[:, None] + np.conj(pts)[None, :])


def _defect_sums(phi, omega, z):
    """base = z + conj(omega) and top = phi(z) + conj(phi(omega)) of K^n."""
    omega = np.asarray(omega, dtype=complex)
    z = np.asarray(z, dtype=complex)
    base = z + np.conj(omega)
    top = np.asarray(phi(z), dtype=complex) + np.conj(np.asarray(phi(omega),
                                                                 dtype=complex))
    return base, top


def defect_kernel(phi, lam: float, n: int, omega, z):
    """Composition-defect kernel K^n(omega, z) for candidate derivative
    lam; a power or value past the float range is refused, naming n."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    if n < 1:
        raise ValueError("kernel power must be a positive integer")
    base, top = _defect_sums(phi, omega, z)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        value = (top ** n - np.power(lam, -float(n)) * base ** n) / base ** n
    if not np.isfinite(value).all():
        raise ValueError(f"K^n with n = {n} leaves the float range")
    if value.ndim == 0:
        return complex(value)
    return value


def defect_kernel_matrix(phi, lam: float, n: int,
                         points: Sequence[complex]) -> np.ndarray:
    """Sampled matrix of K^n at a point configuration: entry (i, j) is
    ``K^n(z_j, z_i)``."""
    pts = require_half_plane(points)
    return defect_kernel(phi, lam, n, pts[None, :], pts[:, None])


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
    base, top = _defect_sums(phi, omega, z)
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


def psd_check(matrices) -> list:
    """One positivity verdict per Hermitian matrix of a stack: a list of
    same-size matrices or a (B, n, n) array.

    The smallest eigenvalues come from one batched call of the
    rotation-based solver in ``linalg``, which also checks the stack's
    shape and takes the Hermitian part; eigenvectors are computed only for
    the matrices that fail, to give their witnesses.  The acceptance
    threshold is ``PSD_REL_TOL * max(1, trace/n)``, an absolute floor made
    scale-aware so that roundoff on large-magnitude kernels does not
    produce false negatives; the trace is that of the Hermitian part,
    whose diagonal is ``Re M_ii``.  A stack of order 0 is refused with
    ``ValueError``: its matrices have no smallest eigenvalue.
    """
    if len(matrices) == 0:
        return []
    a = np.asarray(matrices, dtype=complex)
    if a.shape[1:] == (0, 0):  # no smallest eigenvalue to test
        raise ValueError(f"need a (B, n, n) stack of square matrices with "
                         f"n >= 1, not shape {a.shape}")
    eigenvalues, _ = jacobi_eigh(a, compute_vectors=False)
    min_eigs = eigenvalues[:, 0]
    traces = np.trace(a, axis1=1, axis2=2).real
    thresholds = PSD_REL_TOL * np.maximum(1.0, traces / max(a.shape[1], 1))
    is_psd = min_eigs >= -thresholds
    witnesses = [None] * len(a)
    failing = np.flatnonzero(~is_psd)
    if failing.size:
        _, vectors = jacobi_eigh(a[failing], compute_vectors=True)
        for index, vector in zip(failing, vectors[:, :, 0]):
            witnesses[index] = tuple(complex(x) for x in vector)
    return [PsdVerdict(float(min_eigs[i]), float(thresholds[i]),
                       bool(is_psd[i]), witnesses[i])
            for i in range(len(a))]

"""Norm, spectral radius and essential-norm estimators for composition
operators on the weighted Bergman spaces.

For a self-map phi of the half-plane with finite angular derivative lam,
the composition operator has

    norm = essential norm = spectral radius = lam^((2+alpha)/2).

All numerical estimators here work on the adjoint side through the kernel
identity C* k_z = k_{phi(z)} (the operator and its adjoint share their
norm).  Two certified lower bounds are produced:

* kernel_ratio_bound: ||C* (k_z/||k_z||)|| = (Re z / Re phi(z))^((2+alpha)/2),
  maximized over a non-tangential grid;
* gram_norm_estimate: the largest generalized eigenvalue of the adjoint
  restricted to the span of finitely many kernels, which is monotone in
  the point set.

A positivity certificate for candidate upper bounds samples the kernel
lam^(2+alpha) <k_w, k_z> - <k_phi(w), k_phi(z)>; it is positive exactly
when lam dominates the true angular derivative.  Finite sampling never
proves an upper bound, and reports never claim one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .kernels import Weight, PsdVerdict, bergman_kernel, psd_check
from .linalg import jacobi_eigh, pivoted_cholesky, solve_lower_triangular
from .symbols import (DEFAULT_GRID, AngularDerivativeEstimate, SampleGrid,
                      Symbol, angular_derivative_estimate, compose,
                      require_half_plane)

__all__ = [
    "NormEstimate",
    "SpectralRadiusEstimate",
    "BoundednessReport",
    "norm_theoretical",
    "kernel_ratio_bound",
    "gram_norm_estimate",
    "psd_boundedness_certificate",
    "spectral_radius_estimate",
    "essential_norm_lower_bound",
    "boundedness_verdict",
]


@dataclass(frozen=True)
class NormEstimate:
    """A certified lower bound (or the exact formula value) for the norm."""

    method: str  # kernel_ratio | gram_eig | theoretical
    value: float
    points_used: int
    trace: tuple
    lambda_used: Optional[float] = None

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)

    def to_dict(self) -> dict:
        return {"method": self.method,
                "value": None if not self.finite else self.value,
                "finite": self.finite,
                "points_used": self.points_used,
                "trace": [list(item) for item in self.trace],
                "lambda_used": self.lambda_used}


def norm_theoretical(weight: Weight, lam: float) -> float:
    """Exact operator norm lam^((2+alpha)/2) for angular derivative lam."""
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("need a finite positive angular derivative")
    return lam ** weight.half_exponent


def kernel_ratio_bound(weight: Weight,
                       est: AngularDerivativeEstimate) -> NormEstimate:
    """Lower bound sup_grid (Re z / Re phi(z))^((2+alpha)/2) for the norm,
    read off the angular estimate ``est`` of phi on its grid.

    Each grid point gives the exact value of ||C* k_z|| / ||k_z||, so the
    supremum is always a certified lower bound; it is flagged infinite when
    the ratio trace satisfies the divergence rule (unbounded operator).
    """
    he = weight.half_exponent
    trace = tuple((r, v ** he) for r, v in est.trace)
    value = math.inf if est.verdict == "divergent" else est.sup_ratio ** he
    return NormEstimate("kernel_ratio", value, est.grid.size, trace)


def _gram_pair(weight: Weight, phi: Symbol, points: Sequence[complex]):
    """Points, and the kernel Gram matrices G at the points and H at their
    images: G_ij = <k_{z_j}, k_{z_i}>, H_ij = <k_{phi(z_j)}, k_{phi(z_i)}>."""
    pts = require_half_plane(points)
    images = require_half_plane(phi(pts), pts)
    gram = bergman_kernel(weight, pts[None, :], pts[:, None])
    target = bergman_kernel(weight, images[None, :], images[:, None])
    return pts, gram, target


def _largest_generalized_eig(gram: np.ndarray,
                             target: np.ndarray) -> tuple[float, int]:
    """Largest mu with target v = mu gram v, via pivoted Cholesky on the
    diagonally normalized Gram matrix.  Ill-conditioned directions are
    dropped (never ridge-regularized) to preserve the lower-bound property;
    the unit diagonal always keeps the first pivot."""
    d = gram.diagonal().real
    scale = 1.0 / np.sqrt(d)
    gn = gram * np.outer(scale, scale)
    hn = target * np.outer(scale, scale)
    kept, lower, _ = pivoted_cholesky(gn)
    hk = hn[np.ix_(kept, kept)]
    x = solve_lower_triangular(lower, hk)
    a = solve_lower_triangular(lower, x.conj().T).conj().T
    a = 0.5 * (a + a.conj().T)
    eigenvalues, _ = jacobi_eigh(a, compute_vectors=False)
    return float(eigenvalues[-1]), len(kept)


def gram_norm_estimate(weight: Weight, phi: Symbol,
                       points: Sequence[complex]) -> NormEstimate:
    """Finite-section lower bound for the norm from kernel Gram matrices.

    With G_ij = <k_{z_j}, k_{z_i}> and H_ij = <k_{phi(z_j)}, k_{phi(z_i)}>,
    the largest mu solving H v = mu G v is the squared norm of the adjoint
    restricted to span{k_{z_i}}; its square root never exceeds the operator
    norm and is non-decreasing as points are added.  The trace records the
    estimate on nested prefixes of the point list.
    """
    pts, gram, target = _gram_pair(weight, phi, points)
    if pts.size == 0:
        raise ValueError("need at least one point")
    if len(set(pts.tolist())) != pts.size:
        raise ValueError("points must be distinct")

    sizes = []
    k = 2
    while k < pts.size:
        sizes.append(k)
        k *= 2
    sizes.append(pts.size)
    trace = []
    for size in sizes:
        mu, kept = _largest_generalized_eig(gram[:size, :size],
                                            target[:size, :size])
        value = math.sqrt(max(mu, 0.0))
        trace.append((size, value))
    # the last prefix is the full point set
    return NormEstimate("gram_eig", value, kept, tuple(trace))


def psd_boundedness_certificate(weight: Weight, phi: Symbol, lam: float,
                                points: Sequence[complex]) -> PsdVerdict:
    """Positivity verdict for lam^(2+alpha) G - H at the given points.

    Positivity at every tested configuration is evidence (not proof) for
    norm <= lam^((2+alpha)/2).  The matrix is normalized by the congruence
    D (.) D with D = diag(lam^(2+alpha) G_ii)^(-1/2) before thresholding;
    congruence by a positive diagonal preserves positivity exactly and
    makes the verdict independent of the kernel magnitudes, which decay
    fast at far-field points.
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("lam must be a finite positive number")
    _, gram, target = _gram_pair(weight, phi, points)
    factor = lam ** weight.exponent
    d = factor * gram.diagonal().real
    scale = 1.0 / np.sqrt(d)
    certificate = (factor * gram - target) * np.outer(scale, scale)
    return psd_check(certificate)


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    """Iterated-composition estimate lim_n ||C_{phi^n}||^(1/n)."""

    value: float
    per_iterate: tuple

    def to_dict(self) -> dict:
        return {"value": None if not math.isfinite(self.value) else self.value,
                "finite": math.isfinite(self.value),
                "per_iterate": [[n, None if not math.isfinite(v) else v]
                                for n, v in self.per_iterate]}


def spectral_radius_estimate(weight: Weight, est: AngularDerivativeEstimate,
                             max_iter: int = 8) -> SpectralRadiusEstimate:
    """Estimate the spectral radius through powers C^n = C_{phi o ... o phi}.

    Each iterate applies the kernel-ratio bound to the n-fold composition
    and takes the n-th root.  The angular estimate ``est`` of phi serves
    for n = 1; later iterates are estimated on its grid.  Composition
    stays inside the closed symbol families, with an overflow guard on
    the composed coefficients.  Once phi reads finite no iterate is
    classified again: Julia's lemma gives Re z / Re phi^n(z) <= lam^n, so
    a trace that still rises on the fixed grid is a finite lower bound.
    Else a divergent iterate gives inf.
    """
    if max_iter < 1:
        raise ValueError("need at least one iterate")
    he = weight.half_exponent
    bounded = est.verdict == "finite"
    per_iterate = []
    phi = current = est.phi
    value = math.inf
    for n in range(1, max_iter + 1):
        if n > 1:
            current = compose(phi, current)
            est = angular_derivative_estimate(current, est.grid)
        if est.verdict == "divergent" and not bounded:
            value = math.inf
            per_iterate.append((n, math.inf))
            break
        value = est.sup_ratio ** (he / n)
        per_iterate.append((n, value))
    return SpectralRadiusEstimate(value, tuple(per_iterate))


def essential_norm_lower_bound(weight: Weight,
                               est: AngularDerivativeEstimate) -> float:
    """Far-field lower bound for the essential norm, read off the angular
    estimate ``est`` of phi on its grid.

    Normalized kernels k_z/||k_z|| tend weakly to zero as z -> infinity,
    so the ratio bound restricted to the far half of the grid (radii at
    least sqrt(r_min r_max)) lower-bounds the distance to every compact
    operator.  It stays bounded away from zero, consistent with the
    absence of compact composition operators.
    """
    if est.verdict == "divergent":
        raise ValueError("essential norm applies to bounded operators only")
    cutoff = est.grid.far_field_radius
    far = [v for r, v in est.trace if r >= cutoff]
    return max(far) ** weight.half_exponent


@dataclass(frozen=True)
class BoundednessReport:
    """Combined verdict: BOUNDED (with estimates), UNBOUNDED or INCONCLUSIVE."""

    verdict: str
    angular: AngularDerivativeEstimate
    lambda_used: Optional[float] = None
    lambda_source: Optional[str] = None
    theoretical: Optional[float] = None
    kernel_ratio: Optional[NormEstimate] = None
    gram: Optional[NormEstimate] = None
    spectral_radius: Optional[SpectralRadiusEstimate] = None
    essential_lower_bound: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "angular": self.angular.to_dict(),
            "lambda_used": self.lambda_used,
            "lambda_source": self.lambda_source,
            "theoretical": self.theoretical,
            "kernel_ratio": None if self.kernel_ratio is None else self.kernel_ratio.to_dict(),
            "gram_eig": None if self.gram is None else self.gram.to_dict(),
            "spectral_radius": None if self.spectral_radius is None else self.spectral_radius.to_dict(),
            "essential_lower_bound": self.essential_lower_bound,
        }


def default_gram_points(grid: SampleGrid) -> np.ndarray:
    """Twelve geometric real-axis points for the finite-section bound;
    capped at 1e4 to keep the Gram solve comfortably conditioned."""
    hi = min(grid.r_max, 1e4)
    return np.geomspace(grid.r_min, hi, 12).astype(complex)


def boundedness_verdict(weight: Weight, phi: Symbol,
                        grid: SampleGrid = DEFAULT_GRID) -> BoundednessReport:
    """Full report: boundedness verdict plus every estimator on success.

    The operator is bounded exactly when the angular-derivative trace
    converges; a divergent trace is returned with its witness radii.  The
    theoretical norm uses the analytic angular derivative when the family
    provides one, otherwise the estimated value.  The Gram bound uses
    ``default_gram_points(grid)`` and the spectral estimate six iterates.
    """
    est = angular_derivative_estimate(phi, grid)
    if est.verdict == "divergent":
        return BoundednessReport("UNBOUNDED", est)
    if est.verdict == "inconclusive":
        return BoundednessReport("INCONCLUSIVE", est)

    if phi.known_lambda is not None:
        lam, source = phi.known_lambda, "analytic"
    else:
        lam, source = est.lambda_hat, "estimated"
    return BoundednessReport(
        "BOUNDED", est,
        lambda_used=lam,
        lambda_source=source,
        theoretical=norm_theoretical(weight, lam),
        kernel_ratio=kernel_ratio_bound(weight, est),
        gram=gram_norm_estimate(weight, phi, default_gram_points(grid)),
        spectral_radius=spectral_radius_estimate(weight, est, 6),
        essential_lower_bound=essential_norm_lower_bound(weight, est),
    )

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
from typing import Callable, Optional, Sequence

import numpy as np

from .kernels import Weight, bergman_kernel, gram_matrix, psd_check
from .linalg import jacobi_eigh, pivoted_cholesky, solve_lower_triangular
from .symbols import (DEFAULT_GRID, AngularDerivativeEstimate, SampleGrid,
                      Symbol, angular_derivative_estimate, angular_trace,
                      iterate_images, require_half_plane, require_image)

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
    """The Gram lower bound for the norm, with its trace on nested prefixes
    of the point list and the pivots kept on the full list."""

    value: float
    points_used: int
    trace: tuple


def _power(base: float, exponent: float, weight: Weight,
           source: Callable[[], str]) -> float:
    """``base ** exponent``, or a ValueError naming ``source()`` and alpha
    where the power leaves the float range."""
    try:
        return float(base) ** exponent  # a numpy float would give inf
    except OverflowError:
        raise ValueError(f"{source()} at alpha = {weight.alpha:g} leaves "
                         "the float range") from None


def _gram_diagonal(weight: Weight, gram: np.ndarray,
                   pts: np.ndarray) -> np.ndarray:
    """The diagonal k_z(z) of a Gram matrix, or of a stack of them with
    their points ``pts``, refused where it underflowed to 0."""
    diagonal = gram.diagonal(axis1=-2, axis2=-1).real
    if not (diagonal > 0).all():
        raise ValueError(f"Gram diagonal k_z(z) at alpha = {weight.alpha:g} "
                         f"is not positive at z = {pts[~(diagonal > 0)][0]:g}")
    return diagonal


def norm_theoretical(weight: Weight, lam: float) -> float:
    """Exact operator norm lam^((2+alpha)/2) for angular derivative lam."""
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("need a finite positive angular derivative")
    return _power(lam, weight.half_exponent, weight,
                  lambda: f"the norm lam^((2+alpha)/2) for lam = {lam:g}")


def kernel_ratio_bound(weight: Weight,
                       est: AngularDerivativeEstimate) -> float:
    """Lower bound sup_grid (Re z / Re phi(z))^((2+alpha)/2) for the norm,
    read off the angular estimate ``est`` of phi on its grid.

    Each grid point gives the exact value of ||C* k_z|| / ||k_z||, so the
    supremum is always a certified lower bound; it is inf when the ratio
    trace satisfies the divergence rule (unbounded operator).
    """
    if est.verdict == "divergent":
        return math.inf
    return _power(est.sup_ratio, weight.half_exponent, weight,
                  lambda: f"the kernel-ratio bound for {est.phi!r}")


def _prefix_sizes(count: int) -> list:
    """Sizes 2, 4, 8, ... below ``count``, then ``count``: the nested
    prefixes of the point list that make the Gram trace."""
    sizes = []
    k = 2
    while k < count:
        sizes.append(k)
        k *= 2
    return sizes + [count]


def gram_norm_estimate(weights: Sequence[Weight], phis: Sequence[Symbol],
                       points: Sequence[complex]) -> list:
    """Finite-section lower bounds for the norm from kernel Gram matrices,
    one :class:`NormEstimate` per (symbol, weight) cell, symbol-major.

    With G_ij = <k_{z_j}, k_{z_i}> and H_ij = <k_{phi(z_j)}, k_{phi(z_i)}>,
    the largest mu solving H v = mu G v is the squared norm of the adjoint
    restricted to span{k_{z_i}}; its square root never exceeds the operator
    norm and is non-decreasing as points are added.  The trace records the
    estimate on nested prefixes of the point list.

    Per weight, the Gram matrix G of the points is diagonally normalized
    and each prefix of it factored by pivoted Cholesky once, for every
    symbol; ill-conditioned directions are dropped (never
    ridge-regularized) to keep the lower-bound property, and the unit
    diagonal always keeps the first pivot.  Each symbol's pencil
    L^-1 H L^-* on a prefix comes from two triangular solves with that
    shared L, so the symbols' pencils have one order and go to one Jacobi
    stack.  A stack entry is bitwise its one-matrix solve, so a cell's
    estimate does not depend on the cells beside it.
    """
    pts = require_half_plane(points)
    if pts.ndim != 1:
        raise ValueError(f"points must be a flat list, not shape {pts.shape}")
    if pts.size == 0:
        raise ValueError("need at least one point")
    grams = [gram_matrix(weight, pts) for weight in weights]
    images = np.array([require_image(phi, pts)
                       for phi in phis]).reshape(-1, pts.size)
    symbols = np.arange(len(images))
    sizes = _prefix_sizes(pts.size)
    mu = np.empty((len(images), len(weights), len(sizes)))
    kept_counts = []  # pivots kept on the full point set, per weight
    for j, (weight, gram) in enumerate(zip(weights, grams)):
        scale = 1.0 / np.sqrt(_gram_diagonal(weight, gram, pts))
        gn = gram * np.outer(scale, scale)
        hn = (bergman_kernel(weight, images[:, None, :], images[:, :, None])
              * np.outer(scale, scale))
        for column, size in enumerate(sizes):
            kept, lower, _ = pivoted_cholesky(gn[:size, :size])
            hk = hn[np.ix_(symbols, kept, kept)]
            x = solve_lower_triangular(lower, hk)
            # the pencil's conjugate transpose: the same Hermitian part
            a = solve_lower_triangular(lower, x.conj().swapaxes(1, 2))
            eigenvalues, _ = jacobi_eigh(a, compute_vectors=False)
            mu[:, j, column] = eigenvalues[:, -1]
        kept_counts.append(len(kept))
    estimates = []
    for per_symbol in mu:
        for row, kept in zip(per_symbol, kept_counts):
            trace = tuple((size, math.sqrt(max(float(m), 0.0)))
                          for size, m in zip(sizes, row))
            estimates.append(NormEstimate(trace[-1][1], kept, trace))
    return estimates


def psd_boundedness_certificate(weight: Weight, phi: Symbol, lam: float,
                                point_sets) -> list:
    """Positivity verdicts for lam^(2+alpha) G - H, one per point set of a
    list of same-size sets, checked in one batched :func:`psd_check`.

    Positivity at every tested configuration is evidence (not proof) for
    norm <= lam^((2+alpha)/2).  The matrix is normalized by the congruence
    D (.) D with D = diag(lam^(2+alpha) G_ii)^(-1/2) before thresholding;
    congruence by a positive diagonal preserves positivity exactly and
    makes the verdict independent of the kernel magnitudes, which decay
    fast at far-field points.
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("lam must be a finite positive number")
    pts = require_half_plane(point_sets)
    if pts.ndim != 2:
        raise ValueError(f"need a (B, n) list of same-size point sets, "
                         f"not shape {pts.shape}")
    images = require_image(phi, pts)
    gram = bergman_kernel(weight, pts[:, None, :], pts[:, :, None])
    target = bergman_kernel(weight, images[:, None, :], images[:, :, None])
    factor = _power(lam, weight.exponent, weight,
                    lambda: f"lam^(2+alpha) for lam = {lam:g}")
    scale = 1.0 / np.sqrt(factor * _gram_diagonal(weight, gram, pts))
    return psd_check((factor * gram - target)
                     * (scale[:, :, None] * scale[:, None, :]))


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    """Iterated-composition estimate lim_n ||C_{phi^n}||^(1/n)."""

    value: float
    per_iterate: tuple

    def to_dict(self) -> dict:
        return {"value": None if not math.isfinite(self.value) else self.value,
                "per_iterate": [[n, None if not math.isfinite(v) else v]
                                for n, v in self.per_iterate]}


def spectral_radius_estimate(weights: Sequence[Weight],
                             est: AngularDerivativeEstimate,
                             max_iter: int = 8) -> list:
    """Estimate the spectral radius through powers C^n = C_{phi o ... o phi}.

    Each iterate applies the kernel-ratio bound to the n-fold composition
    and takes the n-th root.  The angular estimate ``est`` of phi serves
    for n = 1; later iterates are estimated on its grid, their images built
    in one pass (see :func:`iterate_images`) and their traces read in one
    reduction.  Composition stays inside the closed symbol families, with
    an overflow guard on the composed coefficients.  Once phi reads finite
    no iterate is classified again: Julia's lemma gives
    Re z / Re phi^n(z) <= lam^n, so a trace that still rises on the fixed
    grid is a finite lower bound.  Else a divergent iterate gives inf and
    is the last; an iterate after it is never built.  The iterates are
    shared by every weight, one estimate each.
    """
    if max_iter < 1:
        raise ValueError("need at least one iterate")
    sups = _iterate_sup_ratios(est, max_iter)
    estimates = []
    for w in weights:
        per_iterate = tuple(
            (n, _power(sup, w.half_exponent / n, w, lambda n=n: (
                f"the spectral estimate of iterate {n} for {est.phi!r}")))
            for n, sup in enumerate(sups, 1))
        estimates.append(SpectralRadiusEstimate(per_iterate[-1][1],
                                                per_iterate))
    return estimates


def _iterate_sup_ratios(est: AngularDerivativeEstimate,
                        max_iter: int) -> list:
    """sup_grid Re z / Re phi^n(z) for n = 1, 2, ..., max_iter, ended by
    inf at the first divergent iterate unless phi reads finite.  An
    iterate refused by :func:`iterate_images`, or whose ratio leaves the
    float range, raises once it is reached.
    """
    if est.verdict == "divergent":
        return [math.inf]
    pts = est.grid.points()
    images, error = iterate_images(est.phi, pts, max_iter)
    shell_max, verdicts = angular_trace(pts, images)
    sups = [est.sup_ratio]
    for sup, verdict in zip(shell_max.max(axis=-1).tolist(), verdicts):
        if verdict == "divergent" and est.verdict != "finite":
            return sups + [math.inf]
        if not math.isfinite(sup):  # of phi^n, n = len(sups) + 1
            raise ValueError(f"Re z / Re phi^{len(sups) + 1}(z) leaves the "
                             "float range on the grid")
        sups.append(sup)
    if error is not None:
        raise error
    return sups


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
    far = [v for r, v in zip(est.grid.radii(), est.trace) if r >= cutoff]
    return _power(max(far), weight.half_exponent, weight,
                  lambda: f"the essential-norm bound for {est.phi!r}")


@dataclass(frozen=True)
class BoundednessReport:
    """Combined verdict: BOUNDED (with estimates), UNBOUNDED or INCONCLUSIVE."""

    verdict: str
    angular: AngularDerivativeEstimate
    lambda_used: Optional[float] = None
    lambda_source: Optional[str] = None
    theoretical: Optional[float] = None
    kernel_ratio: Optional[float] = None
    gram: Optional[NormEstimate] = None
    spectral_radius: Optional[SpectralRadiusEstimate] = None
    essential_lower_bound: Optional[float] = None


def default_gram_points(grid: SampleGrid) -> np.ndarray:
    """Twelve geometric real-axis points for the finite-section bound, from
    r_min to r_max, capped at 1e4 to keep the Gram solve comfortably
    conditioned; at 1e4 r_min from r_min = 1e4 on, or where the cap at 1e4
    leaves fewer than twelve distinct points (r_min just below 1e4)."""
    points = np.geomspace(grid.r_min, min(grid.r_max, 1e4), 12)
    if grid.r_min >= 1e4 or len(set(points.tolist())) < 12:
        points = np.geomspace(grid.r_min, min(grid.r_max, 1e4 * grid.r_min),
                              12)
    return points.astype(complex)


def boundedness_verdict(weights: Sequence[Weight], phis: Sequence[Symbol],
                        grid: SampleGrid = DEFAULT_GRID) -> list:
    """Full reports: boundedness verdict plus every estimator on success,
    one per (symbol, weight) cell, symbol-major (every weight of the first
    symbol, then the next symbol).  The angular estimate and the spectral
    iterates are made once per symbol, and the Gram bounds of the bounded
    symbols in one :func:`gram_norm_estimate` call.

    The operator is bounded exactly when the angular-derivative trace
    converges; a divergent trace is returned with its witness radii.  The
    theoretical norm uses the analytic angular derivative when the family
    provides one, otherwise the estimated value.  The Gram bound uses
    ``default_gram_points(grid)`` and the spectral estimate six iterates.
    A refused Gram pencil (non-finite, or not converged) of any cell
    raises for the whole call.
    """
    ests = [angular_derivative_estimate(sym, grid) for sym in phis]
    bounded = [sym for sym, est in zip(phis, ests) if est.verdict == "finite"]
    grams = iter(gram_norm_estimate(weights, bounded, default_gram_points(grid))
                 if bounded else [])
    reports = []
    for sym, est in zip(phis, ests):
        if est.verdict != "finite":
            verdict = ("UNBOUNDED" if est.verdict == "divergent"
                       else "INCONCLUSIVE")
            reports += [BoundednessReport(verdict, est) for _ in weights]
            continue
        if sym.known_lambda is not None:
            lam, source = sym.known_lambda, "analytic"
        else:
            lam, source = est.lambda_hat, "estimated"
        spectral = spectral_radius_estimate(weights, est, 6)
        reports += [BoundednessReport(
            "BOUNDED", est,
            lambda_used=lam,
            lambda_source=source,
            theoretical=norm_theoretical(w, lam),
            kernel_ratio=kernel_ratio_bound(w, est),
            gram=next(grams),
            spectral_radius=rho,
            essential_lower_bound=essential_norm_lower_bound(w, est),
        ) for w, rho in zip(weights, spectral)]
    return reports

"""Desk-scale acceptance suite.

Each criterion exercises one verifiable claim end to end against an
independent oracle (closed forms, exact algebra, or seeded positivity
sampling) and reports pass/fail with deterministic details, so that two
runs with the same seed serialize identically.  Wall-clock budgets enter
the payload only as booleans to keep the output reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .interp import exponent_identity_check, interp_params, norm_rescaling_check
from .kernels import (Weight, defect_kernel_matrix, factorization_residual,
                      nevanlinna_kernel, psd_check)
from .laplace import HalfLineFunction, isometry_check
from .opnorm import (boundedness_verdict, essential_norm_lower_bound,
                     gram_norm_estimate, kernel_ratio_bound, norm_theoretical,
                     psd_boundedness_certificate, spectral_radius_estimate)
from .space import KernelCombination, reproducing_check
from .symbols import (DEFAULT_GRID, Affine, CoefficientOverflow,
                      HalfPlaneError, PowerMap, SampleGrid,
                      angular_derivative_estimate, identity, validate_self_map)

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all",
           "DEFAULT_SEED"]

DEFAULT_SEED = 0

# (phi, lam): phi(z) = a z + b used throughout the norm-formula checks,
# with its angular derivative lam = 1/a.
AFFINE_CASES = tuple((Affine(a, b), 1.0 / a) for a, b in
                     ((2.0, 1.0), (3.0, 0.0), (0.5, 2.0), (1.0, 5.0)))
ALPHAS = (0.0, 0.5, 1.0, 2.0, 2.7, 6.0)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        return {name: getattr(self, name)
                for name in self.__dataclass_fields__}


def _rng(seed: int, criterion: int) -> np.random.Generator:
    return np.random.default_rng([seed, criterion])


def _criterion_1(seed: int) -> CriterionResult:
    """Norm formula: both lower bounds reach >= 0.99 of lam^((2+alpha)/2)
    and never exceed it beyond 1e-6 relative; under 10 s total."""
    start = time.perf_counter()
    weights = [Weight(alpha) for alpha in ALPHAS]
    # every (symbol, weight) cell in one call, symbol-major
    grams = iter(gram_norm_estimate(weights, [phi for phi, _ in AFFINE_CASES],
                                    np.geomspace(1.0, 1e4, 16)))
    lowest = 1.0
    overshoot = 0.0
    for phi, lam in AFFINE_CASES:
        est = angular_derivative_estimate(phi)
        for w in weights:
            theo = norm_theoretical(w, lam)
            for value in (kernel_ratio_bound(w, est), next(grams).value):
                lowest = min(lowest, value / theo)
                overshoot = max(overshoot, value / theo - 1.0)
    within_budget = (time.perf_counter() - start) < 10.0
    passed = lowest >= 0.99 and overshoot <= 1e-6 and within_budget
    return CriterionResult(1, "norm_formula_tightness", passed, {
        "lowest_ratio_to_theoretical": lowest,
        "max_relative_overshoot": overshoot,
        "within_time_budget": within_budget,
    })


def _criterion_2(seed: int) -> CriterionResult:
    """Dyadic weights: lam^((2+alpha)/2) equals lam^(2^(n-1)) exactly."""
    exact = True
    worst = 0.0
    for n, alpha in ((1, 0.0), (2, 2.0), (3, 6.0)):
        w = Weight(alpha)
        for lam in (1.0 / 3.0, 0.5, 2.0, 4.0):
            got = norm_theoretical(w, lam)
            expected = lam ** float(2 ** (n - 1))
            worst = max(worst, abs(got - expected))
            if got != expected:
                exact = False
    return CriterionResult(2, "dyadic_norm_consistency", exact,
                           {"max_abs_difference": worst})


def _criterion_3(seed: int) -> CriterionResult:
    """Unboundedness: sqrt(z) is flagged UNBOUNDED with a monotone trace
    reaching ratio 1e3 by r = 1e6; constant maps rejected by validation."""
    start = time.perf_counter()
    report, = boundedness_verdict([Weight(0.0)], [PowerMap(0.5)])
    ratios = report.angular.trace
    monotone = all(b > a for a, b in zip(ratios, ratios[1:]))
    reached = ratios[-1] >= 1e3
    try:
        validate_self_map(Affine(0.0, 1.0))
        constant_rejected = False
    except HalfPlaneError:
        constant_rejected = True
    within_budget = (time.perf_counter() - start) < 1.0
    passed = (report.verdict == "UNBOUNDED" and monotone and reached
              and constant_rejected and within_budget)
    return CriterionResult(3, "unbounded_symbol_detection", passed, {
        "verdict": report.verdict,
        "trace_monotone": monotone,
        "final_ratio": ratios[-1],
        "constant_map_rejected": constant_rejected,
        "within_time_budget": within_budget,
    })


def _criterion_4(seed: int) -> CriterionResult:
    """Kernel positivity: Nevanlinna and dyadic defect-kernel matrices are
    PSD on 100 seeded 8-point non-tangential configurations per case."""
    rng = _rng(seed, 4)
    trials = 100
    failures = 0
    checks = 0
    worst_margin = 0.0  # most negative min-eig relative to its threshold
    psis = (identity(), lambda z: np.ones_like(z), lambda z: z + 1.0 / z)
    builders = [partial(nevanlinna_kernel, psi) for psi in psis]
    builders += [partial(defect_kernel_matrix, phi, lam, n)
                 for phi, lam in AFFINE_CASES for n in (1, 2, 4, 8)]
    for build in builders:
        sets = np.array([DEFAULT_GRID.sample_points(8, rng)
                         for _ in range(trials)])
        for verdict in psd_check(build(sets)):
            checks += 1
            if not verdict.is_psd:
                failures += 1
            if verdict.threshold > 0:
                worst_margin = min(worst_margin,
                                   verdict.min_eigenvalue / verdict.threshold)
    return CriterionResult(4, "kernel_positivity", failures == 0, {
        "checks": checks,
        "failures": failures,
        "worst_margin_vs_threshold": worst_margin,
    })


def _criterion_5(seed: int) -> CriterionResult:
    """Factorization identity K^(2m) = K^m (K^m + 2 lam^-m) at 1000 random
    pairs, relative residual <= 1e-10 for m = 2^n, n in {0, 1, 2}."""
    rng = _rng(seed, 5)
    count = 1000
    radii = np.exp(rng.uniform(np.log(DEFAULT_GRID.r_min),
                               np.log(DEFAULT_GRID.r_max), (count, 2)))
    angles = rng.uniform(-DEFAULT_GRID.aperture, DEFAULT_GRID.aperture,
                         (count, 2))
    pairs = radii * np.exp(1j * angles)
    worst = 0.0
    for phi, lam in AFFINE_CASES:
        for level in (0, 1, 2):
            worst = max(worst, factorization_residual(phi, lam, level, pairs))
    return CriterionResult(5, "factorization_identity", worst <= 1e-10,
                           {"pairs": count, "max_relative_residual": worst})


def _criterion_6(seed: int) -> CriterionResult:
    """Certificate sharpness: lam^(2+alpha) G - H is PSD with the true lam
    and fails PSD with 0.8 lam on far-field configurations."""
    rng = _rng(seed, 6)
    true_failures = 0
    missed_detections = 0
    checks = 0
    for phi, lam in AFFINE_CASES:
        for alpha in (0.0, 1.0, 2.5):
            w = Weight(alpha)
            near = [DEFAULT_GRID.sample_points(8, rng) for _ in range(4)]
            far = [DEFAULT_GRID.sample_points(8, rng, far_field=True)
                   for _ in range(3)]
            # one batched call per lam and point-set size
            verdicts = psd_boundedness_certificate(w, phi, lam, near)
            true_failures += sum(not v.is_psd for v in verdicts)
            undersized = psd_boundedness_certificate(w, phi, 0.8 * lam, far)
            undersized += psd_boundedness_certificate(w, phi, 0.8 * lam,
                                                      [[1e3, 1e4]])
            missed_detections += sum(v.is_psd for v in undersized)
            checks += len(verdicts) + len(undersized)
    passed = true_failures == 0 and missed_detections == 0
    return CriterionResult(6, "certificate_sharpness", passed, {
        "checks": checks,
        "true_lambda_failures": true_failures,
        "undersized_lambda_missed": missed_detections,
    })


def _criterion_7(seed: int) -> CriterionResult:
    """Laplace isometry: closed-form gaps <= 1e-10, quadrature gaps <= 1e-3,
    and 20 reproducing-kernel residuals <= 1e-3 ||f||."""
    closed_cases = [
        (0.0, [(1.0, 1.0, 1.0)]),            # t e^-t : both sides 1/4
        (1.0, [(1.0, 2.0, 1.0)]),            # t^2 e^-t : both sides 1/8
        (2.0, [(1.0, 3.0, 2.0), (0.5j, 3.0, 1.0)]),
    ]
    quad_cases = [
        (0.0, [(1.0, 1.0, 2.0), (1.0, 2.0, 2.0)]),   # (t+t^2) e^-2t
        (0.5, [(1.0, 1.45, 1.3)]),
        (1.0, [(1.0, 1.5, 1.0), (0.5, 2.0, 1.0)]),
    ]
    worst_closed = 0.0
    for alpha, terms in closed_cases:
        res, = isometry_check([Weight(alpha)], HalfLineFunction.build(terms))
        worst_closed = max(worst_closed, res.gap)
    worst_quad = 0.0
    for alpha, terms in quad_cases:
        res, = isometry_check([Weight(alpha)], HalfLineFunction.build(terms))
        worst_quad = max(worst_quad, res.quadrature_gap)

    rng = _rng(seed, 7)
    worst_repro = 0.0
    for _ in range(20):
        alpha = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        w = Weight(alpha)
        size = int(rng.integers(1, 4))
        radii = np.exp(rng.uniform(np.log(0.3), np.log(8.0), size))
        angs = rng.uniform(-np.pi / 4, np.pi / 4, size)
        points = radii * np.exp(1j * angs)
        coeffs = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
        combo = KernelCombination.build(w, coeffs, points)
        omega = complex(np.exp(rng.uniform(np.log(0.3), np.log(8.0)))
                        * np.exp(1j * rng.uniform(-np.pi / 4, np.pi / 4)))
        res = reproducing_check(w, combo, omega)
        norm = float(np.sqrt(combo.norm_squared()))
        worst_repro = max(worst_repro, res.residual / max(norm, 1e-300))
    passed = worst_closed <= 1e-10 and worst_quad <= 1e-3 and worst_repro <= 1e-3
    return CriterionResult(7, "laplace_isometry", passed, {
        "max_closed_form_gap": worst_closed,
        "max_quadrature_gap": worst_quad,
        "max_reproducing_residual_vs_norm": worst_repro,
    })


def _criterion_8(seed: int) -> CriterionResult:
    """Interpolation algebra: convex reconstruction and exponent identity
    to 1e-12 over 1000 random alpha in [0, 14]; rescaling to 1e-12."""
    rng = _rng(seed, 8)
    alphas = rng.uniform(0.0, 14.0, 1000)
    worst_convex = 0.0
    worst_exponent = 0.0
    for alpha in alphas:
        data = interp_params(float(alpha))
        recon = (data.endpoint_low * (1.0 - data.theta)
                 + data.endpoint_high * data.theta)
        worst_convex = max(worst_convex,
                           float(abs(recon - alpha)) / max(1.0, float(alpha)))
        lam = float(rng.uniform(0.1, 3.0))
        worst_exponent = max(worst_exponent,
                             exponent_identity_check(data, lam))
    worst_rescale = 0.0
    for alpha in (0.3, 1.0, 2.5, 7.7, 13.2):
        data = interp_params(alpha)
        f = HalfLineFunction.build([
            (1.0, alpha / 2.0 + 1.0, 1.0),
            (1.0 + 0.5j, alpha / 2.0 + 2.0, 1.5),
        ])
        worst_rescale = max(worst_rescale, norm_rescaling_check(data, f))
    passed = (worst_convex <= 1e-12 and worst_exponent <= 1e-12
              and worst_rescale <= 1e-12)
    return CriterionResult(8, "interpolation_algebra", passed, {
        "max_convex_reconstruction_error": worst_convex,
        "max_exponent_identity_residual": worst_exponent,
        "max_rescaling_residual": worst_rescale,
    })


def _criterion_9(seed: int) -> CriterionResult:
    """Spectral radius: iterated estimate within 2% of the norm formula by
    n = 8; the coefficient overflow guard stays quiet."""
    worst = 0.0
    overflowed = False
    weights = [Weight(alpha) for alpha in ALPHAS]
    for phi, lam in AFFINE_CASES:
        est = angular_derivative_estimate(phi)
        try:
            rhos = spectral_radius_estimate(weights, est, max_iter=8)
        except CoefficientOverflow:
            overflowed = True
            continue
        for w, rho in zip(weights, rhos):
            theo = norm_theoretical(w, lam)
            worst = max(worst, abs(rho.value - theo) / theo)
    passed = worst <= 0.02 and not overflowed
    return CriterionResult(9, "spectral_radius_agreement", passed, {
        "max_relative_error": worst,
        "overflow_guard_triggered": overflowed,
    })


def _criterion_10(seed: int) -> CriterionResult:
    """Essential norm: far-field bound reaches 0.98 of the full norm with
    r_max = 1e8 and stays positive (no compact composition operators)."""
    grid = SampleGrid(r_max=1e8)
    lowest = np.inf
    for phi, lam in AFFINE_CASES:
        est = angular_derivative_estimate(phi, grid)
        for alpha in ALPHAS:
            w = Weight(alpha)
            bound = essential_norm_lower_bound(w, est)
            lowest = min(lowest, bound / norm_theoretical(w, lam))
    passed = lowest >= 0.98
    return CriterionResult(10, "essential_norm_lower_bound", passed,
                           {"lowest_ratio_to_norm": float(lowest)})


CRITERIA: tuple = (
    (1, "norm_formula_tightness", _criterion_1),
    (2, "dyadic_norm_consistency", _criterion_2),
    (3, "unbounded_symbol_detection", _criterion_3),
    (4, "kernel_positivity", _criterion_4),
    (5, "factorization_identity", _criterion_5),
    (6, "certificate_sharpness", _criterion_6),
    (7, "laplace_isometry", _criterion_7),
    (8, "interpolation_algebra", _criterion_8),
    (9, "spectral_radius_agreement", _criterion_9),
    (10, "essential_norm_lower_bound", _criterion_10),
)


def run_criterion(number: int, seed: int = DEFAULT_SEED) -> CriterionResult:
    for num, _, fn in CRITERIA:
        if num == number:
            return fn(seed)
    raise ValueError(f"no criterion numbered {number}")


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    return [fn(seed) for _, _, fn in CRITERIA]

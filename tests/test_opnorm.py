import cmath
import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bergkit import linalg, opnorm, symbols
from bergkit.cli import main
from bergkit.kernels import Weight
from bergkit.linalg import ConvergenceError, jacobi_eigh
from bergkit.opnorm import (boundedness_verdict, default_gram_points,
                            essential_norm_lower_bound, gram_norm_estimate,
                            kernel_ratio_bound, norm_theoretical,
                            psd_boundedness_certificate,
                            spectral_radius_estimate, SpectralRadiusEstimate)
from bergkit.symbols import (DEFAULT_GRID, Affine, CoefficientOverflow,
                             Compose, HalfPlaneError, Moebius, PowerMap,
                             SampleGrid, angular_derivative_estimate,
                             cayley_conjugate, compose, identity,
                             iterate_images)

AFFINE_CASES = [(2.0, 1.0), (3.0, 0.0), (0.5, 2.0), (1.0, 5.0)]
# A Gram trace may fall by this much, relative, from one prefix to the next.
# Prefix pencils are leading blocks of one pencil, so their largest
# eigenvalues interlace exactly and only the Jacobi rounding is left.  On 16
# points in [1, 1e4], alpha in (-0.9, 6], the worst fall was 4.5 eps over
# 12,000 random affine and c = 0 Moebius cells (the ends of each range drawn
# one time in five) and 3 eps over 3,000 alphas of power:1.  Factoring each
# prefix on its own, with its own pivots, fell by up to 6.3e-13 (about
# 2,800 eps), most on power:1.
MONOTONE_SLACK = 16 * np.finfo(float).eps
ALPHAS = [0.0, 0.5, 1.0, 2.0, 2.7, 6.0]


class TestTheoretical:
    def test_values(self):
        assert norm_theoretical(Weight(0.0), 2.0) == 2.0
        assert norm_theoretical(Weight(2.0), 4.0) == 16.0
        assert norm_theoretical(Weight(7.3), 1.0) == 1.0

    def test_dyadic_consistency(self):
        for n, alpha in ((1, 0.0), (2, 2.0), (3, 6.0)):
            for lam in (1 / 3, 0.5, 2.0, 4.0):
                assert norm_theoretical(Weight(alpha), lam) == lam ** float(2 ** (n - 1))

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            norm_theoretical(Weight(0.0), 0.0)
        with pytest.raises(ValueError):
            norm_theoretical(Weight(0.0), math.inf)


class TestKernelRatio:
    def test_pure_dilation_exact(self):
        bound = kernel_ratio_bound(Weight(0.0),
                                   angular_derivative_estimate(Affine(2, 0)))
        assert bound == pytest.approx(0.5, abs=1e-15)

    def test_translation_approaches_one(self):
        bound = kernel_ratio_bound(Weight(0.0),
                                   angular_derivative_estimate(Affine(1, 1)))
        assert 0.999 <= bound < 1.0

    def test_sqrt_flagged_unbounded(self):
        bound = kernel_ratio_bound(Weight(0.0),
                                   angular_derivative_estimate(PowerMap(0.5)))
        assert bound == math.inf


class TestGramEstimate:
    def test_single_point_ratio(self):
        est, = gram_norm_estimate([Weight(0.0)], [Affine(2, 0)], [1.0])
        assert est.value == pytest.approx(0.5)

    def test_identity_symbol(self):
        est, = gram_norm_estimate([Weight(3.3)], [identity()], [1.0])
        assert est.value == pytest.approx(1.0)

    def test_sixteen_point_case(self):
        points = np.geomspace(1.0, 1e4, 16)
        est, = gram_norm_estimate([Weight(1.0)], [Affine(2, 1)], points)
        theo = norm_theoretical(Weight(1.0), 0.5)
        assert abs(est.value - theo) / theo <= 0.02

    def test_matches_lapack_generalized_solver(self):
        w = Weight(1.0)
        phi = Affine(2, 1)
        pts = np.geomspace(1.0, 100.0, 6).astype(complex)
        base = pts[:, None] + np.conj(pts)[None, :]
        gram = w.norm_const / base ** w.exponent
        images = phi(pts)
        ib = images[:, None] + np.conj(images)[None, :]
        target = w.norm_const / ib ** w.exponent
        mu = scipy.linalg.eigh(target, gram, eigvals_only=True)[-1]
        est, = gram_norm_estimate([w], [phi], pts)
        assert est.value == pytest.approx(math.sqrt(mu), rel=1e-9)

    def test_monotone_in_nested_point_sets(self):
        w = Weight(0.5)
        phi = Affine(2, 1)
        points = np.geomspace(1.0, 1e4, 16)
        est, = gram_norm_estimate([w], [phi], points)
        values = [v for _, v in est.trace]
        for a, b in zip(values, values[1:]):
            assert b >= a * (1 - MONOTONE_SLACK)

    def test_trace_of_the_benchmark_identity_cells_never_decreases(self):
        # power:1 at the alphas of the seed-7 norm benchmark round whose
        # trace decreased when each prefix was factored on its own, e.g.
        # 1.0000000000000002 on 2 points, then 0.9999999999999999 on 4
        # at alpha 0.72
        alphas = [0.24, 0.72, 1.33, 1.66, 2.32, 2.99, 3.73]
        estimates = gram_norm_estimate([Weight(a) for a in alphas],
                                       [PowerMap(1.0)],
                                       default_gram_points(DEFAULT_GRID))
        for est in estimates:
            values = [v for _, v in est.trace]
            assert values == sorted(values), est.trace

    def test_near_duplicate_point_dropped(self):
        est, = gram_norm_estimate([Weight(0.0)], [Affine(2, 1)],
                                  [1.0, 1.0 + 1e-13, 10.0])
        assert est.points_used == 2

    def test_non_finite_gram_refused(self):
        # the diagonal at 1e160 underflows, so normalization is not finite;
        # the estimate used to come back as NaN, and then read "matrix has
        # non-finite entries"
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match=r"Gram diagonal k_z\(z\) at alpha = 0 is "
                                  r"not positive at z = 1e\+160\+0j"):
            gram_norm_estimate([Weight(0)], [Affine(2, 1)], [1.0, 1e160])

    def test_input_validation(self):
        # the points are checked before any symbol is evaluated, and each
        # symbol's images after
        for phis in ([identity()], []):
            with pytest.raises(ValueError, match="at least one point"):
                gram_norm_estimate([Weight(0.0)], phis, [])
            with pytest.raises(ValueError, match="distinct"):
                gram_norm_estimate([Weight(0.0)], phis, [1.0, 1.0])
            with pytest.raises(HalfPlaneError, match=r"point -1\+0j is not"):
                gram_norm_estimate([Weight(0.0)], phis, [-1.0])
        with np.errstate(over="ignore"), pytest.raises(
                HalfPlaneError, match="symbol leaves the half-plane at z = 1e"):
            gram_norm_estimate([Weight(0.0)], [identity(), Affine(1e300, 0)],
                               [1.0, 1e10])

    def test_points_must_be_one_flat_list(self):
        # a 2-D list read numpy's "operands could not be broadcast together
        # with shapes (2,2,2) (4,4)"
        for points, shape in (([[1.0, 2.0], [3.0, 4.0]], "(2, 2)"),
                              (1.0, "()")):
            with pytest.raises(ValueError) as info:
                gram_norm_estimate([Weight(0)], [Affine(2, 1)], points)
            assert str(info.value) == (
                f"points must be a flat list, not shape {shape}")

    def test_gram_diagonal_past_the_float_range_is_refused(self):
        # (2e4)^72 overflows, so k_z(z) read 0 at z = 1e4 and the diagonal
        # scaling divided by its root
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(gram_norm_estimate([Weight(69.0)], [Affine(2, 1)],
                                          [1.0, 1e4])) == 1
            with pytest.raises(ValueError, match=(
                    r"Gram diagonal k_z\(z\) at alpha = 70 is not positive "
                    r"at z = 10000\+0j")):
                gram_norm_estimate([Weight(69.0), Weight(70.0)],
                                   [Affine(2, 1)], [1.0, 1e4])

    def test_no_symbols_gives_no_cells(self):
        assert gram_norm_estimate([Weight(0.0), Weight(1.0)], [],
                                  [1.0, 2.0]) == []


class TestLowerBoundSoundness:
    def test_bounds_never_exceed_theoretical(self):
        weights = [Weight(alpha) for alpha in ALPHAS]
        grams = iter(gram_norm_estimate(
            weights, [Affine(a, b) for a, b in AFFINE_CASES],
            np.geomspace(1.0, 1e4, 16)))
        for a, b in AFFINE_CASES:
            phi = Affine(a, b)
            lam = 1 / a
            est = angular_derivative_estimate(phi)
            for w in weights:
                theo = norm_theoretical(w, lam)
                kr = kernel_ratio_bound(w, est)
                ge = next(grams).value
                assert kr <= theo + 1e-9
                assert ge <= theo * (1 + 1e-6)
                assert kr >= 0.99 * theo
                assert ge >= 0.99 * theo

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.builds(lambda a, br, bi: (Affine(a, complex(br, bi)), 1 / a),
                      st.floats(0.25, 4.0), st.floats(0.0, 3.0),
                      st.floats(-3.0, 3.0)),
            st.builds(lambda a, br, bi, d: (Moebius(a, complex(br, bi), 0, d),
                                            d / a),
                      st.floats(0.5, 3.0), st.floats(0.0, 2.0),
                      st.floats(-2.0, 2.0), st.floats(0.25, 3.0)),
            st.just((PowerMap(1.0), 1.0))),
        st.floats(-0.9, 6.0, exclude_min=True))
    def test_gram_trace_bounded_and_monotone(self, symbol, alpha):
        # Each prefix value is the norm of the adjoint restricted to the
        # span of more kernels: at most the operator norm, never smaller
        # than the value on the previous prefix.
        phi, lam = symbol
        w = Weight(alpha)
        theo = norm_theoretical(w, lam)
        est, = gram_norm_estimate([w], [phi], np.geomspace(1.0, 1e4, 16))
        values = [v for _, v in est.trace]
        assert all(v <= theo * (1 + 1e-6) for v in values)
        for a, b in zip(values, values[1:]):
            assert b >= a * (1 - MONOTONE_SLACK)


class TestCertificate:
    def test_identity_trivially_psd(self):
        verdict, = psd_boundedness_certificate(Weight(1.7), identity(), 1.0,
                                               [[1.0, 2.0, 5.0]])
        assert verdict.is_psd

    def test_true_lambda_psd(self):
        verdict, = psd_boundedness_certificate(Weight(0.0), Affine(2, 1), 0.5,
                                               [[1.0, 2.0, 4.0]])
        assert verdict.is_psd

    def test_undersized_lambda_fails_far_field(self):
        verdict, = psd_boundedness_certificate(Weight(0.0), Affine(2, 1), 0.4,
                                               [[1e3, 1e4]])
        assert not verdict.is_psd
        # diagonal already goes negative at far-field points
        assert verdict.min_eigenvalue < 0

    def test_sharpness_across_weights(self):
        rng = np.random.default_rng(23)
        for a, b in AFFINE_CASES:
            phi = Affine(a, b)
            lam = 1 / a
            for alpha in (0.0, 1.0, 2.5):
                w = Weight(alpha)
                pts = DEFAULT_GRID.sample_points(6, rng)
                verdict, = psd_boundedness_certificate(w, phi, lam, [pts])
                assert verdict.is_psd
                far = DEFAULT_GRID.sample_points(6, rng, far_field=True)
                verdict, = psd_boundedness_certificate(w, phi, 0.8 * lam,
                                                       [far])
                assert not verdict.is_psd

    def test_point_set_list_matches_single_calls(self):
        rng = np.random.default_rng(5)
        w, phi = Weight(1.3), Affine(2, 1)
        for lam in (0.5, 0.4):
            sets = [DEFAULT_GRID.sample_points(6, rng) for _ in range(4)]
            verdicts = psd_boundedness_certificate(w, phi, lam, sets)
            assert isinstance(verdicts, list) and len(verdicts) == 4
            # each entry is, by repr, its one-element batch
            for pts, verdict in zip(sets, verdicts):
                assert repr([verdict]) == repr(
                    psd_boundedness_certificate(w, phi, lam, [pts]))

    @pytest.mark.parametrize("points", [[1.0, 2.0], [[[1.0, 2.0]]], 1.0],
                             ids=["flat", "nested", "scalar"])
    def test_refuses_what_is_not_a_list_of_point_sets(self, points):
        # one flat point set used to give one verdict, not a list
        with pytest.raises(ValueError, match=r"need a \(B, n\) list of "
                           r"same-size point sets, not shape"):
            psd_boundedness_certificate(Weight(0.0), Affine(2, 1), 0.5,
                                        points)

    def test_refuses_empty_point_sets(self):
        # their matrices have order 0 and no smallest eigenvalue
        with pytest.raises(ValueError, match=r"n >= 1, not shape "
                           r"\(3, 0, 0\)$"):
            psd_boundedness_certificate(Weight(1), Affine(2, 1), 0.5,
                                        np.zeros((3, 0)))

    def test_non_finite_certificate_refused(self):
        # used to give a NaN threshold, then "matrix has non-finite entries":
        # k_z(z) is 0 at z = 1e200, where (2e200)^2 overflows
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=(
                r"^Gram diagonal k_z\(z\) at alpha = 0 is not positive at "
                r"z = 1e\+200\+0j$")):
            psd_boundedness_certificate(Weight(0), Affine(2, 1), 0.5,
                                        [[1.0, 1e200]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gram_diagonal_past_the_float_range_is_refused(self):
        # (2e4)^72 overflows, so k_z(z) reads 0 at z = 1e4; the scaling
        # divided by its root and warned before "matrix has non-finite
        # entries".  The second set of the batch is the one named.
        assert len(psd_boundedness_certificate(
            Weight(69), Affine(2, 1), 0.5, [[1.0, 1e4]])) == 1
        with pytest.raises(ValueError, match=(
                r"^Gram diagonal k_z\(z\) at alpha = 70 is not positive at "
                r"z = 10000\+0j$")):
            psd_boundedness_certificate(Weight(70), Affine(2, 1), 0.5,
                                        [[1.0, 2.0], [1.0, 1e4]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lam_power_past_the_float_range_is_refused(self):
        # (1e10)^32 is past 1.8e308; the kernel values are not
        with pytest.raises(ValueError, match=(
                r"^lam\^\(2\+alpha\) for lam = 1e\+10 at alpha = 30 leaves "
                r"the float range$")):
            psd_boundedness_certificate(Weight(30), Affine(2, 1), 1e10,
                                        [[1.0, 2.0]])

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            psd_boundedness_certificate(Weight(0.0), identity(), math.inf,
                                        [[1.0]])


class TestSpectralRadius:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_power_past_the_float_range_is_refused_by_name(self):
        # the norm 10^351 used to raise Python's unnamed OverflowError
        est = angular_derivative_estimate(Affine(0.1, 0))
        assert spectral_radius_estimate([Weight(600)], est, 2)
        for call, source in [
                (lambda w: spectral_radius_estimate([w], est, 2),
                 "the spectral estimate of iterate 1 for Affine(a=0.1, b=0j)"),
                (lambda w: kernel_ratio_bound(w, est),
                 "the kernel-ratio bound for Affine(a=0.1, b=0j)"),
                (lambda w: essential_norm_lower_bound(w, est),
                 "the essential-norm bound for Affine(a=0.1, b=0j)"),
                (lambda w: norm_theoretical(w, 10.0),
                 "the norm lam^((2+alpha)/2) for lam = 10"),
                # numpy's power would give inf with a RuntimeWarning
                (lambda w: norm_theoretical(w, np.float64(10.0)),
                 "the norm lam^((2+alpha)/2) for lam = 10")]:
            with pytest.raises(ValueError) as info:
                call(Weight(700))
            assert str(info.value) == (
                f"{source} at alpha = 700 leaves the float range")

    def test_affine_matches_norm(self):
        est, = spectral_radius_estimate(
            [Weight(0.0)], angular_derivative_estimate(Affine(2, 1)), 8)
        assert est.value == pytest.approx(0.5, rel=1e-3)
        assert len(est.per_iterate) == 8

    def test_translation(self):
        est, = spectral_radius_estimate(
            [Weight(0.0)], angular_derivative_estimate(Affine(1, 1)), 8)
        assert est.value == pytest.approx(1.0, rel=1e-3)

    def test_identity_exact(self):
        est, = spectral_radius_estimate(
            [Weight(1.5)], angular_derivative_estimate(identity()), 4)
        assert est.value == 1.0

    def test_agreement_with_theory(self):
        for a, b in AFFINE_CASES:
            phi = Affine(a, b)
            lam = 1 / a
            angular = angular_derivative_estimate(phi)
            weights = [Weight(alpha) for alpha in ALPHAS]
            for w, est in zip(weights,
                              spectral_radius_estimate(weights, angular, 8)):
                theo = norm_theoretical(w, lam)
                assert abs(est.value - theo) / theo <= 0.02

    def test_iteration_validation(self):
        with pytest.raises(ValueError):
            spectral_radius_estimate(
                [Weight(0.0)], angular_derivative_estimate(identity()), 0)

    def test_inconclusive_symbol_keeps_divergence_rule(self):
        # z^0.9 reads inconclusive on the default grid, and its third
        # iterate z^0.729 divergent: nothing vouches for the iterates
        phi = PowerMap(0.9)
        angular = angular_derivative_estimate(phi)
        assert angular.verdict == "inconclusive"
        est, = spectral_radius_estimate([Weight(0.0)], angular, 8)
        assert est.value == math.inf
        assert est.per_iterate[-1] == (3, math.inf)
        assert all(math.isfinite(v) for _, v in est.per_iterate[:-1])

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(1 / 8, 8.0),
        st.one_of(
            st.builds(lambda br, bi: lambda lam: Affine(1 / lam,
                                                        complex(br, bi)),
                      st.floats(0.0, 3.0), st.floats(-3.0, 3.0)),
            st.builds(lambda a, br, bi: lambda lam: Moebius(
                          a, complex(br, bi), 0, lam * a),
                      st.floats(0.25, 4.0), st.floats(0.0, 3.0),
                      st.floats(-3.0, 3.0))),
        st.floats(0.0, 6.0))
    def test_bounded_iterates_stay_finite(self, lam, family, alpha):
        # Julia's lemma: Re z / Re phi^n(z) <= lam^n, so once phi reads
        # finite every iterate is a finite lower bound for the norm, also
        # when lam^n is too large for its trace to plateau on the grid
        phi = family(lam)
        est = angular_derivative_estimate(phi)
        assume(est.verdict == "finite")
        w = Weight(alpha)
        theo = norm_theoretical(w, lam)
        rho, = spectral_radius_estimate([w], est, 8)
        assert len(rho.per_iterate) == 8
        for _, value in rho.per_iterate:
            assert math.isfinite(value) and value <= theo * (1 + 1e-6)


class TestEssentialNorm:
    def test_dilation_saturates_full_norm(self):
        est = angular_derivative_estimate(Affine(2, 0))
        assert essential_norm_lower_bound(Weight(0.0), est) == pytest.approx(0.5)

    def test_translation_tends_to_one(self):
        grid = SampleGrid(r_max=1e8)
        est = angular_derivative_estimate(Affine(1, 10), grid)
        bound = essential_norm_lower_bound(Weight(1.0), est)
        assert bound == pytest.approx(1.0, rel=1e-4)

    def test_identity(self):
        est = angular_derivative_estimate(identity())
        assert essential_norm_lower_bound(Weight(2.0), est) == 1.0

    def test_far_field_reaches_norm(self):
        grid = SampleGrid(r_max=1e8)
        for a, b in AFFINE_CASES:
            phi = Affine(a, b)
            lam = 1 / a
            est = angular_derivative_estimate(phi, grid)
            for alpha in ALPHAS:
                w = Weight(alpha)
                bound = essential_norm_lower_bound(w, est)
                assert bound >= 0.98 * norm_theoretical(w, lam)
                assert bound > 0

    def test_rejects_unbounded(self):
        with pytest.raises(ValueError):
            essential_norm_lower_bound(Weight(0.0),
                                       angular_derivative_estimate(PowerMap(0.5)))


class TestBoundednessVerdict:
    def test_bounded_affine(self):
        report, = boundedness_verdict([Weight(0.5)], [Affine(3, 2)])
        assert report.verdict == "BOUNDED"
        assert report.lambda_source == "analytic"
        assert report.theoretical == pytest.approx((1 / 3) ** 1.25)
        assert report.kernel_ratio <= report.theoretical + 1e-9
        assert report.gram.value <= report.theoretical * (1 + 1e-6)
        assert report.essential_lower_bound > 0

    def test_unbounded_sqrt(self):
        report, = boundedness_verdict([Weight(0.0)], [PowerMap(0.5)])
        assert report.verdict == "UNBOUNDED"
        assert report.theoretical is None
        ratios = report.angular.trace
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] >= 1e3

    def test_identity_trivial(self):
        report, = boundedness_verdict([Weight(2.0)], [identity()])
        assert report.verdict == "BOUNDED"
        assert report.theoretical == 1.0

    def test_inconclusive(self):
        report, = boundedness_verdict([Weight(0.0)], [Affine(1, 1e5)])
        assert report.verdict == "INCONCLUSIVE"
        assert report.theoretical is None


    def test_report_serializes(self, capsys):
        # `bergkit norm` writes the report as one row: the Gram value in
        # the row, its pivots and trace under `estimates`
        report, = boundedness_verdict([Weight(0.0)], [Affine(2, 1)])
        assert main(["norm", "--symbol", "affine:2,1", "--alpha", "0"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["verdict"] == report.verdict == "BOUNDED"
        assert row["gram_eig"] == report.gram.value
        assert row["estimates"]["gram_eig"] == {
            "points_used": report.gram.points_used,
            "trace": [list(item) for item in report.gram.trace]}

    @settings(max_examples=30, deadline=None)
    @given(
        st.one_of(
            st.builds(lambda a, br, bi: Affine(a, complex(br, bi)),
                      st.floats(0.25, 4.0), st.floats(0.0, 3.0),
                      st.floats(-3.0, 3.0)),
            st.builds(lambda a, br, bi, d: Moebius(a, complex(br, bi), 0, d),
                      st.floats(0.5, 3.0), st.floats(0.0, 2.0),
                      st.floats(-2.0, 2.0), st.floats(0.25, 3.0))),
        st.floats(0.0, 6.0),
        st.builds(lambda r_max, shells, angles: SampleGrid(
                      r_max=r_max, radial=shells, angular=angles),
                  st.floats(1e4, 1e8), st.integers(20, 60),
                  st.integers(1, 9)))
    def test_angular_estimate_reused(self, phi, alpha, grid):
        # one estimate of phi on the grid feeds every bound derived from it
        w = Weight(alpha)
        with mock.patch.object(opnorm, "angular_derivative_estimate",
                               wraps=angular_derivative_estimate) as counting:
            report, = boundedness_verdict([w], [phi], grid)
        assume(report.verdict == "BOUNDED")
        calls = [call.args[0] for call in counting.call_args_list]
        # once, for the verdict: the estimate serves iterate 1 and the
        # essential-norm bound, and the iterates n = 2..6 are read off
        # their images in one pass, without an estimate of their own
        assert len(calls) == 1
        assert calls[0] is phi
        est = angular_derivative_estimate(phi, grid)
        fresh = (kernel_ratio_bound(w, est),
                 spectral_radius_estimate([w], est, 6)[0],
                 essential_norm_lower_bound(w, est))
        reused = (report.kernel_ratio, report.spectral_radius,
                  report.essential_lower_bound)
        # repr tells every float apart bit for bit, -0.0 included
        assert repr(reused) == repr(fresh)

    def test_default_gram_points_capped(self):
        points = default_gram_points(DEFAULT_GRID)
        assert points.max().real <= 1e4
        assert len(points) == 12

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-3.0, 8.0), st.floats(0.01, 10.0))
    def test_default_gram_points_lie_on_the_grid(self, low, span):
        grid = SampleGrid(r_min=10.0 ** low, r_max=10.0 ** (low + span))
        points = default_gram_points(grid)
        assert points.dtype == complex and np.all(points.imag == 0)
        x = points.real
        assert len(x) == 12 and x[0] == grid.r_min and x[-1] <= grid.r_max
        assert np.all(np.diff(x) >= 0)
        assert x[-1] <= 1e4 * max(grid.r_min, 1.0)
        if grid.r_min <= 1.0:  # capped at 1e4, as before
            old = np.geomspace(grid.r_min, min(grid.r_max, 1e4), 12)
            assert x.tobytes() == old.tobytes()
        # Neighbours are as far apart as the grid allows, up to four
        # decades: at least 1e3 ** (1/11) on every grid that spans the three
        # decades a verdict needs.  The cap at 1e4 for every r_min < 1e4
        # squeezed the points of r_min = 2000 into less than a decade, and
        # their Gram pencil was refused as not Hermitian.
        ratio = min(grid.r_max / grid.r_min, 1e4) ** (1 / 11)
        assert np.all(x[1:] / x[:-1] >= ratio * (1 - 1e-12))


# Symbols of every family `bergkit norm` is benchmarked on: bounded affine,
# c = 0 Moebius, Cayley and compositions, the identity as power:1, and the
# unbounded power:p (p <= 0.7) and finite-limit Moebius maps.
_AFFINE = st.builds(lambda a, br, bi: Affine(a, complex(br, bi)),
                    st.floats(0.5, 4.0), st.floats(0.25, 3.0),
                    st.floats(-2.0, 2.0))
_MOEBIUS = st.builds(lambda a, br, bi, d: Moebius(a, complex(br, bi), 0, d),
                     st.floats(0.5, 3.0), st.floats(0.25, 2.0),
                     st.floats(-2.0, 2.0), st.floats(0.25, 3.0))
_SYMBOLS = st.one_of(
    _AFFINE, _MOEBIUS,
    st.builds(lambda a, b: cayley_conjugate(a, b, 0, a + b),
              st.floats(1.0, 4.0), st.floats(1.0, 4.0)),
    st.builds(compose, st.one_of(_AFFINE, _MOEBIUS),
              st.one_of(_AFFINE, _MOEBIUS)),
    st.just(PowerMap(1.0)),
    st.builds(PowerMap, st.floats(0.1, 0.7)),
    # filtered before Moebius is built, which refuses ad - bc = 0 itself
    st.tuples(st.floats(0.5, 3.0), st.floats(0.0, 3.0), st.floats(0.25, 3.0),
              st.floats(0.25, 3.0)).filter(
        lambda m: m[0] * m[3] != m[1] * m[2]).map(lambda m: Moebius(*m)))


class TestBatchedVerdict:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(_SYMBOLS, min_size=1, max_size=7),
           st.lists(st.floats(0.0, 6.0), min_size=1, max_size=3))
    def test_matches_one_cell_calls(self, phis, alphas):
        # one call over every (symbol, weight) cell, symbol-major, gives
        # each cell the report of its one-cell batch
        weights = [Weight(alpha) for alpha in alphas]
        reports = boundedness_verdict(weights, phis)
        singles = [boundedness_verdict([w], [phi]) for phi in phis
                   for w in weights]
        assert [repr([r]) for r in reports] == [repr(r) for r in singles]

    def test_single_sequence_arguments(self):
        # any sequence of one gives a list of one report; a bare weight or
        # symbol is no longer taken for one
        phi, w = Affine(2, 1), Weight(1.0)
        one = repr(boundedness_verdict([w], [phi]))
        assert one.startswith("[BoundednessReport(")
        for args in (((w,), [phi]), ([w], (phi,)), ((w,), (phi,))):
            assert repr(boundedness_verdict(*args)) == one
        for args in ((w, [phi]), ([w], phi)):
            with pytest.raises(TypeError):
                boundedness_verdict(*args)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.one_of(_AFFINE, _MOEBIUS), min_size=1, max_size=5),
           st.lists(st.floats(-0.9, 6.0, exclude_min=True), min_size=1,
                    max_size=3),
           st.sampled_from([np.geomspace(1.0, 1e4, 16),
                            default_gram_points(DEFAULT_GRID)]))
    def test_gram_cells_match_one_cell_batches(self, phis, alphas, points):
        # every (symbol, weight) cell of one Gram call, symbol-major, is by
        # repr its one-cell batch: criterion 1 takes its 24 cells from one
        # call on the 16 points
        weights = [Weight(alpha) for alpha in alphas]
        estimates = gram_norm_estimate(weights, phis, points)
        assert len(estimates) == len(phis) * len(weights)
        singles = [gram_norm_estimate([w], [phi], points) for phi in phis
                   for w in weights]
        assert [repr([e]) for e in estimates] == [repr(e) for e in singles]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.one_of(_AFFINE, _MOEBIUS, st.just(PowerMap(1.0))),
                    min_size=1, max_size=3),
           st.lists(st.floats(-0.9, 6.0, exclude_min=True), min_size=1,
                    max_size=2),
           st.sampled_from([np.geomspace(1.0, 1e4, 16),
                            default_gram_points(DEFAULT_GRID)]))
    def test_prefix_estimate_is_its_trace_entry(self, phis, alphas, points):
        # A prefix's pencil is a leading block of the whole list's, so the
        # estimate on the first s points is, bit for bit, the trace entry
        # at s of the estimate on all of them.
        weights = [Weight(alpha) for alpha in alphas]
        whole = gram_norm_estimate(weights, phis, points)
        for column, (size, _) in enumerate(whole[0].trace):
            prefix = gram_norm_estimate(weights, phis, points[:size])
            assert ([repr(e.value) for e in prefix]
                    == [repr(e.trace[column][1]) for e in whole])

    def test_gram_factored_once_per_weight(self):
        phis = [Affine(2, 1), Moebius(1, 1j, 0, 2), PowerMap(0.5), identity()]
        weights = [Weight(0.5), Weight(2.0)]
        with mock.patch.object(opnorm, "pivoted_cholesky",
                               wraps=opnorm.pivoted_cholesky) as factor, \
                mock.patch.object(opnorm, "solve_lower_triangular",
                                  wraps=opnorm.solve_lower_triangular
                                  ) as substitute, \
                mock.patch.object(opnorm, "jacobi_eigh",
                                  wraps=jacobi_eigh) as solve:
            reports = boundedness_verdict(weights, phis)
        assert [r.verdict for r in reports[4:6]] == ["UNBOUNDED"] * 2
        # one factor of the 12 Gram points and two solves for the pencils
        # per weight; each of the prefixes 2, 4, 8 and 12 is a leading
        # block of those pencils, one Jacobi stack of the 3 bounded
        # symbols' blocks each
        assert factor.call_count == 2
        assert substitute.call_count == 2 * 2
        stacks = [call.args[0].shape[:2] for call in solve.call_args_list]
        assert stacks == [(3, size) for size in (2, 4, 8, 12)] * 2

    def test_no_gram_stage_without_bounded_symbols(self):
        # The 12 Gram points of this grid coincide; with no BOUNDED symbol
        # the call never reaches the Gram bound and still reports.
        grid = SampleGrid(r_min=1e4, r_max=1e7)
        reports = boundedness_verdict([Weight(0.0), Weight(1.0)],
                                      [PowerMap(0.5)], grid)
        assert [r.verdict for r in reports] == ["UNBOUNDED"] * 2
        report, = boundedness_verdict([Weight(0.0)], [PowerMap(0.5)], grid)
        assert report.verdict == "UNBOUNDED"

    def test_non_finite_cell_refuses_the_call(self):
        # On this grid the alpha = 0 Gram diagonal overflows at the first
        # point, while alpha = -0.5 stays finite: one refused cell makes
        # the whole call raise instead of returning a NaN row.
        grid = SampleGrid(r_min=1e-160, radial=400, angular=3)
        good, bad = Weight(-0.5), Weight(0.0)
        report, = boundedness_verdict([good], [Affine(2, 1)], grid)
        assert report.verdict == "BOUNDED"
        with np.errstate(all="ignore"):
            for weights in ([good, bad], [bad, good]):
                # read "matrix has non-finite entries" before the kernel
                # refused a value past the float range itself
                with pytest.raises(ValueError, match=r"k_w\(z\) at alpha = 0 "
                                                     "leaves the float range"):
                    boundedness_verdict(weights, [Affine(2, 1), PowerMap(0.5)],
                                        grid)

    def test_unconverged_cell_refuses_the_call(self):
        # One Jacobi sweep leaves the larger pencils unconverged.
        with mock.patch.object(linalg, "MAX_SWEEPS", 1):
            with pytest.raises(ConvergenceError,
                               match=r"\d+ of \d+ matrices did not converge"):
                boundedness_verdict([Weight(0.0), Weight(2.0)],
                                    [identity(), Affine(2, 1)])


def reference_spectral(weight, est, max_iter=8):
    """The iterate loop of spectral_radius_estimate before the iterates were
    built in one pass: compose phi^n and estimate it on the grid, in turn.
    It calls compose through its module, so a patch of it is seen."""
    if max_iter < 1:
        raise ValueError("need at least one iterate")
    he = weight.half_exponent
    bounded = est.verdict == "finite"
    per_iterate = []
    phi = current = est.phi
    value = math.inf
    for n in range(1, max_iter + 1):
        if n > 1:
            current = symbols.compose(phi, current)
            est = angular_derivative_estimate(current, est.grid)
        if est.verdict == "divergent" and not bounded:
            value = math.inf
            per_iterate.append((n, math.inf))
            break
        value = est.sup_ratio ** (he / n)
        per_iterate.append((n, value))
    return SpectralRadiusEstimate(value, tuple(per_iterate))


def _outcome(call, overflow_at):
    """repr of ``call()``, or the type and message of what it raises, with
    the ``overflow_at``-th compose call (if any) forced to overflow."""
    calls = []
    compose_ = symbols.compose

    def forced(outer, inner):
        calls.append(None)
        if len(calls) == overflow_at:
            raise CoefficientOverflow(f"forced at compose call {overflow_at}")
        return compose_(outer, inner)

    try:
        with mock.patch.object(symbols, "compose", forced), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")  # overflow in far iterates
            return repr(call())
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


_ITERATED = st.one_of(
    _SYMBOLS,
    # inconclusive, and z^0.729 = phi^3 divergent
    st.just(PowerMap(0.9)), st.builds(PowerMap, st.floats(0.75, 1.0)),
    st.builds(cayley_conjugate, st.floats(1.0, 4.0), st.floats(-0.5, 0.5),
              st.just(0), st.floats(4.5, 6.0)),
    st.builds(Compose, st.builds(PowerMap, st.floats(0.5, 1.0)), _AFFINE),
    # complex coefficients, so the iterates divide by complex numbers; a
    # c far below the grid's scale reads finite, inconclusive or divergent
    st.builds(lambda c, t: Moebius(*(cmath.exp(1j * t) * x
                                     for x in (1.0, 0.5, c, 1.5))),
              st.floats(0.0, 1e-6), st.floats(-3.0, 3.0)),
    # CoefficientOverflow at n = 4
    st.just(Affine(1e100, 1.0)),
    # 1e500 z leaves H at n = 5, after the divergent n = 3
    st.just(Compose(PowerMap(0.9), Affine(1e100, 0.0))),
    # a finite verdict, and 1.25e400 z leaves H at n = 4
    st.just(Compose(Affine(0.5, 1.0), Affine(1e100, 0.0))),
    # leaves H at n = 2 on the 1e300 grid
    st.just(Affine(1e5, 1.0)))
_ITERATE_GRIDS = st.sampled_from([
    DEFAULT_GRID, SampleGrid(r_max=1e300),
    # fewer shells than the divergence window: the spread rule
    SampleGrid(r_max=1e4, radial=5, angular=3)])


class TestSpectralIterates:
    @settings(max_examples=150, deadline=None)
    @given(_ITERATED, _ITERATE_GRIDS, st.integers(1, 8),
           st.lists(st.floats(-0.9, 6.0), min_size=1, max_size=3),
           st.booleans(), st.none() | st.integers(1, 7))
    def test_matches_reference_bit_for_bit(self, phi, grid, max_iter,
                                           alphas, single, overflow_at):
        # the one-pass iterates give the loop's values, repr for repr
        # (-0.0 included), and its errors: type, message and the iterate
        # that raises, never one after a divergent iterate ends the loop
        try:
            est = angular_derivative_estimate(phi, grid)
        except ValueError:
            assume(False)  # phi itself leaves H on this grid
        weights = [Weight(alpha) for alpha in (alphas[:1] if single
                                               else alphas)]
        expected = [_outcome(lambda w=w: reference_spectral(w, est, max_iter),
                             overflow_at) for w in weights]
        got = _outcome(lambda: spectral_radius_estimate(weights, est,
                                                        max_iter), overflow_at)
        if isinstance(expected[0], tuple):
            assert [got] * len(weights) == expected
        else:
            assert got == f"[{', '.join(expected)}]"

    @pytest.mark.parametrize("phi,grid,max_iter,error", [
        (Affine(1e100, 1.0), DEFAULT_GRID, 4, CoefficientOverflow),
        (Affine(1e5, 1.0), SampleGrid(r_max=1e300), 2, HalfPlaneError),
        (Compose(Affine(0.5, 1.0), Affine(1e100, 0.0)), DEFAULT_GRID, 4,
         HalfPlaneError),
    ], ids=["overflow", "leaves-grid", "leaves-compose"])
    def test_errors_at_the_iterate_the_loop_raises_them(self, phi, grid,
                                                        max_iter, error):
        est = angular_derivative_estimate(phi, grid)
        weights = [Weight(0.0), Weight(2.5)]
        assert len(spectral_radius_estimate(weights, est,
                                            max_iter - 1)) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(error) as raised:
                reference_spectral(weights[0], est, max_iter)
            with pytest.raises(error, match=re.escape(str(raised.value))):
                spectral_radius_estimate(weights, est, max_iter)

    @settings(max_examples=100, deadline=None)
    @given(_ITERATED, _ITERATE_GRIDS, st.integers(1, 8))
    def test_images_are_each_iterates_own(self, phi, grid, count):
        # the images of phi^n are the bits phi^n = compose(phi, phi^(n-1))
        # gives when evaluated on its own, as the loop evaluated it
        pts = grid.points()
        with np.errstate(all="ignore"):
            images, _ = iterate_images(phi, pts, count)
            current, own = phi, []
            for _ in images:
                current = compose(phi, current)
                own.append(current(pts))
        own = np.array(own, dtype=complex).reshape(images.shape)
        assert np.array_equal(images.view(np.uint64), own.view(np.uint64))

    def test_images_stop_at_the_first_refused_iterate(self):
        grid = SampleGrid(r_max=1e300)
        images, error = iterate_images(Affine(1e5, 1.0), grid.points(), 8)
        assert images.shape == (0, 40, 9)
        assert isinstance(error, HalfPlaneError)
        # phi^4 = 1.25e400 z: phi^2 and phi^3 are kept
        phi = Compose(Affine(0.5, 1.0), Affine(1e100, 0.0))
        images, error = iterate_images(phi, DEFAULT_GRID.points(), 8)
        assert images.shape == (2, 40, 9)
        assert str(error).startswith("symbol leaves the half-plane at z = ")
        images, error = iterate_images(Affine(1e100, 1.0),
                                       DEFAULT_GRID.points(), 8)
        assert images.shape == (2, 40, 9)
        assert str(error) == "affine coefficients exceeded 1e300"

    def test_no_error_after_a_divergent_iterate(self):
        # phi^3 reads divergent and ends the estimate; phi^5 would leave H
        est = angular_derivative_estimate(Compose(PowerMap(0.9),
                                                  Affine(1e100, 0.0)))
        assert est.verdict == "inconclusive"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho, = spectral_radius_estimate([Weight(1.0)], est, 8)
        assert rho.per_iterate[-1] == (3, math.inf)
        assert repr(rho) == repr(reference_spectral(Weight(1.0), est, 8))

"""Closed-form transforms and norms, cross-checked by direct numerical
integration (scipy.quad), which is independent of the Gamma formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bergkit.kernels import Weight, bergman_kernel
from bergkit.laplace import (ExpMonomial, HalfLineFunction, isometry_check,
                             kernel_preimage, laplace_eval, mu_alpha_density,
                             mu_alpha_norm, weighted_norm_squared)
from bergkit.space import _cached_scheme, default_scheme


def halfline(*terms):
    return HalfLineFunction.build(list(terms))


class TestLaplaceEval:
    def test_pure_exponential(self):
        assert laplace_eval(halfline((1, 0.0, 1.0)), 1.0) == pytest.approx(0.5)

    def test_t_exponential(self):
        assert laplace_eval(halfline((1, 1.0, 1.0)), 1.0) == pytest.approx(0.25)

    def test_gamma_form_vs_numeric_integration(self):
        f = halfline((1, 2.0, 1.0))
        value = laplace_eval(f, 0.5)
        numeric, _ = quad(lambda t: t ** 2 * math.exp(-1.5 * t), 0, 80)
        assert value == pytest.approx(math.gamma(3) / 1.5 ** 3)
        assert value == pytest.approx(numeric, rel=1e-10)

    def test_fractional_power_vs_numeric_integration(self):
        f = halfline((1, 0.5, 2.0))
        value = laplace_eval(f, 1.0)
        numeric, _ = quad(lambda t: math.sqrt(t) * math.exp(-3 * t), 0, 60)
        assert value == pytest.approx(numeric, rel=1e-9)

    def test_divergent_mode_rejected(self):
        with pytest.raises(ValueError, match="diverges"):
            laplace_eval(halfline((1, -1.0, 1.0)), 1.0)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            laplace_eval(halfline((1, 1.0, 1.0)), -1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        terms = [(complex(rng.normal(), rng.normal()),
                  float(rng.uniform(0, 3)),
                  complex(rng.uniform(0.2, 3), rng.normal()))
                 for _ in range(3)]
        z = complex(rng.uniform(0.2, 5), rng.normal())
        whole = laplace_eval(halfline(*terms), z)
        parts = sum(laplace_eval(halfline(term), z) for term in terms)
        assert abs(whole - parts) <= 1e-12 * max(abs(whole), 1e-300)


class TestMuNorm:
    def test_alpha_zero(self):
        assert mu_alpha_norm(Weight(0.0), halfline((1, 1.0, 1.0))) == pytest.approx(0.25)

    def test_alpha_one(self):
        assert mu_alpha_norm(Weight(1.0), halfline((1, 2.0, 1.0))) == pytest.approx(0.125)

    def test_integrability_boundary_rejected(self):
        with pytest.raises(ValueError, match="beta > alpha/2"):
            mu_alpha_norm(Weight(0.0), halfline((1, 0.0, 1.0)))

    def test_against_numeric_integration(self):
        w = Weight(0.5)
        f = halfline((1.5, 1.0, 2.0), (-0.5, 2.0, 1.0))
        value = mu_alpha_norm(w, f)
        density = lambda t: mu_alpha_density(w, t)
        numeric, _ = quad(lambda t: abs(f(t)) ** 2 * density(t), 0, 80)
        assert value == pytest.approx(numeric, rel=1e-9)

    def test_mixed_mode_closed_form(self):
        # (t + t^2) e^{-2t} against dmu_0: Gamma algebra gives 19/128.
        f = halfline((1, 1.0, 2.0), (1, 2.0, 2.0))
        assert mu_alpha_norm(Weight(0.0), f) == pytest.approx(19 / 128)

    def test_density_values(self):
        w = Weight(1.0)
        assert mu_alpha_density(w, 1.0) == pytest.approx(0.5)
        assert mu_alpha_density(w, 2.0) == pytest.approx(0.125)


class TestKernelPreimage:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.7])
    def test_transform_reproduces_kernel(self, alpha):
        rng = np.random.default_rng(int(alpha * 10))
        w = Weight(alpha)
        omega = complex(rng.uniform(0.5, 3), rng.normal())
        f = kernel_preimage(w, omega)
        for _ in range(5):
            z = complex(rng.uniform(0.2, 5), rng.normal())
            lhs = laplace_eval(f, z)
            rhs = bergman_kernel(w, omega, z)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_norm_matches_kernel_norm(self):
        w = Weight(1.0)
        f = kernel_preimage(w, 2.0)
        assert mu_alpha_norm(w, f) == pytest.approx(
            bergman_kernel(w, 2.0, 2.0).real, rel=1e-12)


class TestIsometry:
    def test_kernel_case_alpha_zero(self):
        result = isometry_check(Weight(0.0), halfline((1, 1.0, 1.0)))
        assert result.lhs_closed_form == pytest.approx(0.25)
        assert result.rhs == pytest.approx(0.25)
        assert result.gap <= 1e-10

    def test_kernel_case_alpha_one(self):
        result = isometry_check(Weight(1.0), halfline((1, 2.0, 1.0)))
        assert result.lhs_closed_form == pytest.approx(0.125)
        assert result.gap <= 1e-10

    def test_quadrature_case(self):
        result = isometry_check(Weight(0.0), halfline((1, 1.0, 2.0),
                                                      (1, 2.0, 2.0)))
        assert result.lhs_closed_form is None
        assert result.rhs == pytest.approx(19 / 128)
        assert result.quadrature_gap <= 1e-3

    def test_complex_coefficient_kernel_combination(self):
        result = isometry_check(Weight(2.0), halfline((1, 3.0, 2.0),
                                                      (0.5j, 3.0, 1.0)))
        assert result.lhs_closed_form is not None
        assert result.gap <= 1e-10

    def test_round_trip_dict(self):
        f = halfline((1, 1.0, 1.0), (2 - 1j, 2.5, 0.5 + 0.25j))
        rebuilt = HalfLineFunction.from_dict(f.to_dict())
        assert rebuilt == f


class TestIsometryOverWeights:
    """One call over several weights evaluates L f once; every result must
    be bitwise the one a call for that weight alone gives."""

    @staticmethod
    def assert_matches_single_calls(f, weights, scheme=None):
        results = isometry_check(weights, f, scheme)
        assert len(results) == len(weights)
        for w, result in zip(weights, results):
            # repr tells every float apart bit for bit, -0.0 included
            assert repr(result) == repr(isometry_check(w, f, scheme))
        return results

    def test_weight_list_matches_single_calls(self):
        f = halfline((1, 2.0, 1.0), (0.5j, 2.0, 2.0 + 0.5j))
        weights = [Weight(0.0), Weight(1.0), Weight(2.5)]
        results = self.assert_matches_single_calls(f, weights)
        assert results[1].lhs_closed_form is not None
        assert results[0].lhs_closed_form is None
        assert isometry_check(weights[:1], f) == results[:1]

    # the closed-form side overflows too (a RuntimeWarning), to inf
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_integrand_raises(self):
        f = halfline((1e200, 1.0, 1.0))  # |L f|^2 overflows near z = 0
        for weight in (Weight(0.0), [Weight(0.0), Weight(1.0)]):
            with pytest.raises(ValueError, match="not finite at a quadrature node"):
                isometry_check(weight, f)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from(["default", "coarse"]),
           st.integers(min_value=1, max_value=4), st.booleans())
    def test_property_batch_equals_single_calls(self, seed, scheme_name,
                                                count, closed):
        rng = np.random.default_rng(seed)
        scheme = (default_scheme() if scheme_name == "default"
                  else _cached_scheme(40, 100, 100.0))
        alphas = [float(a) for a in rng.uniform(-0.9, 4.0, count)]
        # closed: every mode has beta = 1 + alphas[0], so L f is a kernel
        # combination for that weight; the other weights need beta > alpha/2
        low = max(alphas) / 2 + 0.6
        betas = ([1.0 + alphas[0]] * 2 if closed
                 else rng.uniform(low, low + 2.0, 2))
        alphas = [a for a in alphas if 2.0 * betas[0] > a]
        f = halfline(*[(complex(rng.normal(), rng.normal()), float(beta),
                        complex(rng.uniform(0.5, 3.0), rng.normal()))
                       for beta in betas])
        weights = [Weight(a) for a in alphas]
        results = self.assert_matches_single_calls(f, weights, scheme)
        for alpha, result in zip(alphas, results):
            if closed and alpha == alphas[0]:
                assert result.lhs_closed_form is not None
                assert result.gap <= 1e-10


class TestMonomialValidation:
    def test_rate_must_decay(self):
        with pytest.raises(ValueError, match="Re s > 0"):
            ExpMonomial(1.0, 1.0, -1.0)

    def test_weighted_norm_requires_pairwise_integrability(self):
        f = halfline((1, 0.3, 1.0))
        with pytest.raises(ValueError):
            weighted_norm_squared(f, 1.0, 1.0)

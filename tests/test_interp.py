import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergkit.interp import (dw_density, exponent_identity_check, interp_params,
                            norm_rescaling_check)
from bergkit.kernels import Weight
from bergkit.laplace import HalfLineFunction, mu_alpha_density


class TestInterpParams:
    def test_alpha_one(self):
        data = interp_params(1.0)
        assert data.n == 1
        assert data.endpoint_low == 0.0
        assert data.endpoint_high == 2.0
        assert data.theta == pytest.approx(0.5)
        assert data.ratio == pytest.approx(math.sqrt(2))
        assert not data.dyadic and not data.hardy_endpoint

    def test_alpha_two_is_dyadic(self):
        data = interp_params(2.0)
        assert data.dyadic
        assert data.theta == 0.0
        assert data.endpoint_low == 2.0

    def test_alpha_two_point_five(self):
        data = interp_params(2.5)
        assert data.n == 2
        assert (data.endpoint_low, data.endpoint_high) == (2.0, 6.0)
        assert data.theta == pytest.approx(0.125)

    def test_hardy_range_flagged(self):
        data = interp_params(-0.5)
        assert data.hardy_endpoint
        assert data.endpoint_low == -1.0
        assert data.weight_const_dw is None
        assert data.ratio is None
        assert data.theta == pytest.approx(0.5)

    def test_rejects_alpha_at_minus_one(self):
        with pytest.raises(ValueError):
            interp_params(-1.0)

    @pytest.mark.parametrize("alpha,gamma", [(126.0, 255), (171.0, 172)])
    def test_gamma_past_the_float_range_names_the_weight(self, alpha, gamma):
        # math.gamma raised "math range error"
        with pytest.raises(OverflowError, match=(
                rf"Gamma\({gamma}\) of the weight alpha = {alpha:g} "
                "overflows")):
            interp_params(alpha)
        assert interp_params(125.0).weight_const_dw > 0

    def test_bracketing_over_range(self):
        rng = np.random.default_rng(1)
        for alpha in rng.uniform(-0.99, 14.0, 1000):
            data = interp_params(float(alpha))
            assert data.endpoint_low <= alpha < data.endpoint_high or data.dyadic
            recon = (data.endpoint_low * (1 - data.theta)
                     + data.endpoint_high * data.theta)
            assert abs(recon - alpha) <= 1e-12 * max(1.0, abs(alpha))


class TestExponentIdentity:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-0.99, max_value=14.0),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_identity_everywhere(self, alpha, lam):
        assert exponent_identity_check(interp_params(alpha), lam) <= 1e-12 * max(
            1.0, lam ** ((2 + alpha) / 2))

    def test_reference_values(self):
        assert exponent_identity_check(interp_params(1.0), 2.0) <= 1e-12
        assert exponent_identity_check(interp_params(2.5), 0.3) <= 1e-12
        assert exponent_identity_check(interp_params(3.0), 1.0) == 0.0

    def test_lam_validation(self):
        with pytest.raises(ValueError):
            exponent_identity_check(interp_params(1.0), 0.0)


class TestDensities:
    def test_proportional_to_mu(self):
        # dw is defined away from the Hardy-endpoint range, i.e. alpha >= 0.
        rng = np.random.default_rng(4)
        alphas = [0.0, 1.0, 1.3, 6.5] + list(rng.uniform(0.0, 14.0, 200))
        for alpha in alphas:
            data = interp_params(float(alpha))
            w = Weight(float(alpha))
            for t in (0.1, 1.0, 7.3, float(rng.uniform(0.05, 20.0))):
                lhs = dw_density(data, t)
                rhs = data.ratio * mu_alpha_density(w, t)
                assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_dyadic_ratio_is_one(self):
        data = interp_params(6.0)
        assert data.ratio == pytest.approx(1.0)

    def test_hardy_range_has_no_dw(self):
        with pytest.raises(ValueError):
            dw_density(interp_params(-0.5), 1.0)


class TestNormRescaling:
    def cases(self, alpha):
        return HalfLineFunction.build([
            (1.0, alpha / 2 + 1.0, 1.0),
            (1.0 + 0.5j, alpha / 2 + 2.0, 1.5),
        ])

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5, 7.7, 13.2])
    def test_residual_at_closed_forms(self, alpha):
        data = interp_params(alpha)
        assert norm_rescaling_check(data, self.cases(alpha)) <= 1e-12

    def test_empty_function(self):
        assert norm_rescaling_check(interp_params(1.0),
                                    HalfLineFunction.build([])) == 0.0

    def test_hardy_range_rejected(self):
        with pytest.raises(ValueError):
            norm_rescaling_check(interp_params(-0.5), self.cases(0.0))

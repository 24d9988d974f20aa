"""Quadrature against closed-form kernel oracles.

All expected values come from the kernel reproducing identity
<k_w, k_v> = k_w(v), which is exact algebra independent of the quadrature
path being tested.
"""

import numpy as np
import pytest

from bergkit.kernels import Weight, bergman_kernel, kernel_function
from bergkit.space import (KernelCombination, QuadratureScheme,
                           default_scheme, inner_product, reproducing_check)

QUAD_RTOL = 1e-3  # default-scheme accuracy contract


class TestInnerProduct:
    @pytest.mark.parametrize("alpha,expected", [(0.0, 0.25), (1.0, 0.5)])
    def test_kernel_self_product(self, alpha, expected):
        w = Weight(alpha)
        k1 = kernel_function(w, 1.0)
        value = inner_product(w, k1, k1)
        assert abs(value - expected) / expected <= QUAD_RTOL
        assert abs(value.imag) <= 1e-12

    def test_cross_product(self):
        w = Weight(0.0)
        value = inner_product(w, kernel_function(w, 1.0), kernel_function(w, 2.0))
        assert abs(value - 1 / 9) * 9 <= QUAD_RTOL

    def test_complex_points(self):
        w = Weight(0.0)
        value = inner_product(w, kernel_function(w, 1 + 1j),
                              kernel_function(w, 2.0))
        exact = bergman_kernel(w, 1 + 1j, 2.0)
        assert abs(value - exact) / abs(exact) <= QUAD_RTOL

    def test_hermitian_symmetry(self):
        w = Weight(0.5)
        f = KernelCombination.build(w, [1.0, -2.0 + 1j], [1.0, 3.0])
        g = kernel_function(w, 2.0 + 0.5j)
        a = inner_product(w, f, g)
        b = inner_product(w, g, f)
        assert abs(a - np.conj(b)) <= 1e-12 * max(abs(a), 1e-300)

    def test_positivity(self):
        rng = np.random.default_rng(3)
        for alpha in (0.0, 1.0, 2.0):
            w = Weight(alpha)
            size = int(rng.integers(1, 4))
            pts = np.exp(rng.uniform(0, 1.5, size)) + 0j
            coeffs = rng.normal(size=size) + 1j * rng.normal(size=size)
            f = KernelCombination.build(w, coeffs, pts)
            value = inner_product(w, f, f)
            assert value.real >= 0
            assert abs(value.imag) <= 1e-12 * max(value.real, 1e-300)

    def test_grid_is_built_once_and_read_only(self):
        scheme = QuadratureScheme.build(8, 16, 10.0)
        assert scheme.z is scheme.z
        assert np.array_equal(scheme.z, scheme.x_nodes[:, None]
                              + 1j * scheme.y_nodes[None, :])
        with pytest.raises(ValueError):
            scheme.z[0, 0] = 1.0

    def test_non_finite_integrand_rejected(self):
        w = Weight(0.0)
        bad = lambda z: np.full_like(z, np.inf)
        with pytest.raises(ValueError, match="finite"):
            inner_product(w, bad, bad)


class TestDoublingConsistency:
    # The |y| > y_max tail contracts by 2^(2+alpha) per doubling; alpha = 0
    # sits exactly on the 4x boundary, so the oracle set starts at 0.5.
    @pytest.mark.parametrize("alpha,omega", [
        (0.5, 1.0), (1.0, 1.0), (2.0, 3.0), (2.7, 1 + 0.5j)])
    def test_error_quarters_until_target(self, alpha, omega):
        w = Weight(alpha)
        k = kernel_function(w, omega)
        exact = bergman_kernel(w, omega, omega).real
        scheme = QuadratureScheme.build(20, 50, 200.0)
        previous = None
        for _ in range(5):
            err = abs(inner_product(w, k, k, scheme).real - exact) / exact
            if previous is not None and previous > 1e-6:
                assert err <= previous / 4
            previous = err
            scheme = scheme.doubled()

    def test_default_scheme_meets_contract_at_alpha_zero(self):
        w = Weight(0.0)
        k = kernel_function(w, 1.0)
        value = inner_product(w, k, k).real
        assert abs(value - 0.25) / 0.25 <= QUAD_RTOL


class TestErrorEstimate:
    def test_estimate_tracks_truth(self):
        w = Weight(0.0)
        k = kernel_function(w, 1.0)
        coarse = inner_product(w, k, k)
        value = inner_product(w, k, k, default_scheme().doubled())
        estimate = abs(value - coarse)
        true_coarse_error = abs(coarse.real - 0.25)
        assert estimate == pytest.approx(true_coarse_error, rel=0.6)
        assert abs(value.real - 0.25) < true_coarse_error


class TestKernelCombination:
    def test_exact_value_and_norm(self):
        w = Weight(0.0)
        f = KernelCombination.build(w, [2.0], [1.0])
        assert f.exact_value(2.0) == pytest.approx(2 / 9)
        assert f.norm_squared() == pytest.approx(4 * 0.25)

    def test_matches_point_by_point_loop(self):
        # The vectorized evaluation keeps the arithmetic of a loop over the
        # points, so report values built on it do not move.
        rng = np.random.default_rng(5)
        w = Weight(1.3)
        f = KernelCombination.build(
            w, rng.normal(size=5) + 1j * rng.normal(size=5),
            rng.uniform(0.3, 5.0, 5) + 1j * rng.uniform(-2.0, 2.0, 5))
        terms = list(zip(f.coeffs, f.points))
        z = np.array([0.7 + 0.2j, 3.0 - 1j, 12.0])
        loop = np.zeros_like(z)
        for c, p in terms:
            loop = loop + c * bergman_kernel(w, p, z)
        assert np.array_equal(f(z), loop)
        omega = 1.5 + 0.5j
        assert f.exact_value(omega) == sum(c * bergman_kernel(w, p, omega)
                                           for c, p in terms)
        gram = 0j
        for ci, pi in terms:
            for cj, pj in terms:
                gram += ci * np.conj(cj) * bergman_kernel(w, pi, pj)
        assert f.norm_squared() == gram.real

    def test_empty_combination(self):
        w = Weight(1.0)
        f = KernelCombination.build(w, [], [])
        assert f.exact_value(1.0) == 0
        assert f.norm_squared() == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            KernelCombination.build(Weight(0.0), [1.0], [])


class TestReproducing:
    def test_single_kernel(self):
        w = Weight(0.0)
        f = KernelCombination.build(w, [1.0], [1.0])
        result = reproducing_check(w, f, 2.0)
        assert result.exact == pytest.approx(1 / 9)
        assert result.residual <= QUAD_RTOL * abs(result.exact)

    def test_empty_combination_zero_residual(self):
        w = Weight(0.0)
        f = KernelCombination.build(w, [], [])
        assert reproducing_check(w, f, 2.0).residual == 0.0

    def test_signed_combination(self):
        w = Weight(1.0)
        f = KernelCombination.build(w, [1.0, -2.0], [1.0, 3.0])
        result = reproducing_check(w, f, 1 + 1j)
        expected = (bergman_kernel(w, 1.0, 1 + 1j)
                    - 2 * bergman_kernel(w, 3.0, 1 + 1j))
        assert result.exact == pytest.approx(expected)
        norm = np.sqrt(f.norm_squared())
        assert result.residual <= QUAD_RTOL * norm

    def test_twenty_random_combinations(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            alpha = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            w = Weight(alpha)
            size = int(rng.integers(1, 4))
            radii = np.exp(rng.uniform(np.log(0.3), np.log(8.0), size))
            angles = rng.uniform(-np.pi / 4, np.pi / 4, size)
            coeffs = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
            f = KernelCombination.build(w, coeffs, radii * np.exp(1j * angles))
            omega = complex(np.exp(rng.uniform(np.log(0.3), np.log(8.0))))
            result = reproducing_check(w, f, omega)
            assert result.residual <= QUAD_RTOL * np.sqrt(f.norm_squared())


class TestSchemeConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            QuadratureScheme.build(1, 400)
        with pytest.raises(ValueError):
            QuadratureScheme.build(160, 400, -1.0)

    def test_nodes_positive_and_weights_positive(self):
        s = default_scheme()
        assert np.all(s.x_nodes > 0)
        assert np.all(s.x_weights > 0)
        assert np.all(s.y_weights > 0)
        assert np.abs(s.y_nodes).max() <= s.y_max

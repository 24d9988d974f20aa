"""Quadrature against closed-form kernel oracles.

All expected values come from the kernel reproducing identity
<k_w, k_v> = k_w(v), which is exact algebra independent of the quadrature
path being tested.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergkit.kernels import Weight, bergman_kernel, kernel_function
from bergkit.space import (DEFAULT_NX, DEFAULT_NY, DEFAULT_YMAX,
                           KernelCombination, QuadratureScheme,
                           default_scheme, inner_product, nested_integrals,
                           reproducing_check)

QUAD_RTOL = 1e-3  # default-scheme accuracy contract
# The accuracy the bergkit.space docstring states for the default rule on
# its domain (alpha in [0, 3], points in |arg z| <= pi/4, 0.3 <= |z| <= 8):
# a pairing of kernel combinations is within KERNEL_RTOL of the product of
# their terms' scales, sum |c_i| ||k_{z_i}||.  The norms of random kernel
# combinations come far closer: within 1.9e-6 of themselves over 3,000.
KERNEL_RTOL = 1e-4
FAMILY_RTOL = 1e-5


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
    # n_x -> 2 n_x - 1 halves the x rule's step h on the same window, and
    # n_y, y_max double.  The double-exponential x rule converges like
    # exp(-c/h), so the error falls by far more than the 4x per doubling an
    # algebraic rule gives, and reaches rounding level within four doublings.
    @pytest.mark.parametrize("alpha,omega", [
        (0.5, 1.0), (1.0, 1.0), (2.0, 3.0), (2.7, 1 + 0.5j)])
    def test_error_quarters_until_target(self, alpha, omega):
        w = Weight(alpha)
        k = kernel_function(w, omega)
        exact = bergman_kernel(w, omega, omega).real
        scheme = QuadratureScheme.build(9, 32, 4.0)
        previous = None
        for _ in range(5):
            err = abs(inner_product(w, k, k, scheme).real - exact) / exact
            if previous is not None and previous > 1e-6:
                assert err <= previous / 4
            previous = err
            scheme = QuadratureScheme.build(2 * scheme.n_x - 1,
                                            2 * scheme.n_y, 2 * scheme.y_max)
        assert previous <= 1e-12

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
        s = default_scheme()
        value = inner_product(w, k, k, QuadratureScheme.build(
            2 * s.n_x, 2 * s.n_y, 2 * s.y_max))
        estimate = abs(value - coarse)
        true_coarse_error = abs(coarse.real - 0.25)
        assert estimate == pytest.approx(true_coarse_error, rel=0.6)
        assert abs(value.real - 0.25) < true_coarse_error

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nested_estimate_bounds_the_error_on_kernel_families(self, seed):
        # ||f||^2 of 30 kernel combinations from the closed Gram form: the
        # h and 2h sums differ by more than the h sum's true error
        rng = np.random.default_rng(seed)
        for _ in range(30):
            f = random_combination(rng)
            values = f(default_scheme().z)
            fine, coarse = nested_integrals(f.weight, values * values.conj(),
                                            default_scheme())
            exact = f.norm_squared()
            assert abs(fine - exact) <= abs(fine - coarse)
            assert abs(fine - exact) <= FAMILY_RTOL * exact

    def test_nested_rule_is_every_other_node(self):
        s = QuadratureScheme.build(9, 16, 4.0)
        coarse = QuadratureScheme.build(5, 16, 4.0)
        assert np.array_equal(s.x_nodes[::2], coarse.x_nodes)
        assert np.allclose(s.x_weights_2h[::2], coarse.x_weights,
                           rtol=1e-15, atol=0)
        assert not s.x_weights_2h[1::2].any()


def random_combination(rng):
    """A kernel combination of 1 to 3 points in the sector the default rule
    is sized for: |arg z| <= pi/4 and 0.3 <= |z| <= 8, alpha in [0, 3]."""
    w = Weight(float(rng.uniform(0.0, 3.0)))
    size = int(rng.integers(1, 4))
    points = (np.exp(rng.uniform(np.log(0.3), np.log(8.0), size))
              * np.exp(1j * rng.uniform(-np.pi / 4, np.pi / 4, size)))
    coeffs = rng.normal(size=size) + 1j * rng.normal(size=size)
    return KernelCombination.build(w, coeffs, points)


def kernel_norm(w, point):
    return math.sqrt(bergman_kernel(w, point, point).real)


def polar(radii, angle):
    """Complex numbers r e^(ia) with r and |a| in the given float ranges."""
    return st.builds(lambda r, a: r * cmath.exp(1j * a), st.floats(*radii),
                     st.floats(-angle, angle))


SECTOR_POINT = polar((0.3, 8.0), math.pi / 4)
COEFF = polar((0.01, 2.0), math.pi)


class TestDefaultRule:
    """The default rule keeps the accuracy the bergkit.space docstring
    states, against the closed-form kernel identities."""

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 3.0), st.lists(st.tuples(COEFF, SECTOR_POINT),
                                         min_size=1, max_size=3),
           SECTOR_POINT)
    def test_property_kernel_combinations_are_reproduced(self, alpha, terms,
                                                         omega):
        w = Weight(alpha)
        coeffs, points = zip(*terms)
        f = KernelCombination.build(w, coeffs, points)
        scale = sum(abs(c) * kernel_norm(w, p) for c, p in terms)
        result = reproducing_check(w, f, omega)
        assert result.residual <= KERNEL_RTOL * scale * kernel_norm(w, omega)
        norm = inner_product(w, f, f)
        assert abs(norm - f.norm_squared()) <= KERNEL_RTOL * scale ** 2


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
        assert np.array_equal(np.sort(s.y_nodes), -np.sort(s.y_nodes)[::-1])
        # nothing is cut off: the tail panels reach far past y_max
        assert np.abs(s.y_nodes).max() >= 100 * s.y_max
        assert (s.n_x, s.n_y, s.y_max) == (DEFAULT_NX, DEFAULT_NY,
                                           DEFAULT_YMAX)
        assert s.x_nodes.size * s.y_nodes.size <= 10_000

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.5])
    def test_factor_rules_against_closed_forms(self, alpha):
        # int_0^inf x^alpha / (1 + x)^(3 + alpha) dx = B(1 + alpha, 2) for
        # the x rule (an algebraic decay, as kernel integrands have), and
        # int_R dy / (1 + y^2)^2 = pi / 2 for the y rule, tail included
        s = default_scheme()
        x_sum = s.x_weights @ (s.x_nodes ** alpha
                               / (1.0 + s.x_nodes) ** (3.0 + alpha))
        assert x_sum == pytest.approx(1.0 / ((1.0 + alpha) * (2.0 + alpha)),
                                      rel=1e-9)
        y_sum = s.y_weights @ (1.0 + s.y_nodes ** 2) ** -2.0
        assert y_sum == pytest.approx(math.pi / 2, rel=1e-12)

    @pytest.mark.parametrize("y_max", [0.5, 10.0])
    def test_y_rule_covers_the_line_for_any_y_max(self, y_max):
        # with y_max < 1 the first panel ran from 1 down to y_max, with
        # negative weights, and the cut-off dropped |y| > y_max
        s = QuadratureScheme.build(9, 64, y_max)
        assert np.all(s.y_weights > 0)
        y_sum = s.y_weights @ (1.0 + s.y_nodes ** 2) ** -2.0
        assert y_sum == pytest.approx(math.pi / 2, rel=1e-6)

    def test_doubled_config_stays_within_its_old_node_count(self):
        s = QuadratureScheme.build(320, 800, 400.0)
        assert s.x_nodes.size * s.y_nodes.size <= 256_000

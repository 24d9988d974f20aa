import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bergkit.symbols import (DEFAULT_GRID, Affine, CayleyMap,
                             CoefficientOverflow, Compose, HalfPlaneError,
                             Moebius, PowerMap, SampleGrid,
                             angular_derivative_estimate, angular_trace,
                             cayley_conjugate,
                             compose, identity, require_half_plane,
                             symbol_from_dict, validate_self_map)

ORACLE_RTOL = 1e-3  # estimator accuracy contract on the default grid


class TestValidation:
    def test_affine_accept_exact(self):
        assert validate_self_map(Affine(2, 1)) is None

    def test_affine_reject_with_witness(self):
        with pytest.raises(HalfPlaneError, match=r"Re b < 0") as info:
            validate_self_map(Affine(1, -1))
        assert info.value.witness == pytest.approx(0.5)
        assert Affine(1, -1)(info.value.witness).real == pytest.approx(-0.5)

    def test_power_accept_exact(self):
        assert validate_self_map(PowerMap(0.5)) is None

    def test_power_out_of_range(self):
        for p in (1.5, -0.5):
            with pytest.raises(HalfPlaneError, match=r"exponent must lie"):
                validate_self_map(PowerMap(p))

    def test_constant_map_excluded(self):
        with pytest.raises(HalfPlaneError, match="constant maps excluded"):
            validate_self_map(Affine(0.0, 1.0))

    def test_negative_slope_witness(self):
        with pytest.raises(HalfPlaneError, match="negative slope") as info:
            validate_self_map(Affine(-1.0, 2.0))
        assert Affine(-1.0, 2.0)(info.value.witness).real <= 0

    def test_moebius_sampled(self):
        assert validate_self_map(Moebius(2, 1, 0, 1)) is None
        with pytest.raises(HalfPlaneError, match="sample point") as info:
            validate_self_map(Moebius(1, 0, 0, -1))  # phi(z) = -z
        assert info.value.witness is not None
        assert Moebius(1, 0, 0, -1)(info.value.witness).real <= 0

    def test_compose_flagged_sampled(self):
        assert validate_self_map(Compose(Affine(2, 0), Affine(1, 1))) is None


class TestEvaluation:
    def test_affine(self):
        assert Affine(2, 1)(1) == 3

    def test_compose(self):
        assert Compose(Affine(2, 0), Affine(1, 1))(1) == 4

    def test_power(self):
        assert PowerMap(0.5)(4) == 2

    def test_rejects_point_outside_domain(self):
        with pytest.raises(HalfPlaneError) as info:
            require_half_plane([1.0, -1.0, 2.0])
        assert info.value.witness == -1.0
        with pytest.raises(HalfPlaneError):
            require_half_plane(complex(np.inf, 0.0))

    def test_flags_image_outside_half_plane(self):
        pts = np.array([2.0, 0.3, 0.2])
        with pytest.raises(HalfPlaneError, match="0.3") as info:
            require_half_plane(Affine(1, -1)(pts), pts)
        assert info.value.witness == 0.3

    def test_vectorized_evaluation(self):
        z = np.array([1.0 + 1j, 2.0, 5.0 - 2j])
        np.testing.assert_allclose(Affine(2, 1)(z), 2 * z + 1)
        np.testing.assert_allclose(PowerMap(0.5)(z), np.sqrt(z))


class TestComposition:
    def test_affine_simplifies(self):
        phi = compose(Affine(2, 1), Affine(3, 0))
        assert isinstance(phi, Affine)
        assert phi.a == 6 and phi.b == 1
        assert compose(identity(), phi) == phi

    def test_power_simplifies(self):
        phi = compose(PowerMap(0.5), PowerMap(0.8))
        assert isinstance(phi, PowerMap) and phi.p == pytest.approx(0.4)

    def test_moebius_matrix_product(self):
        phi = compose(Moebius(2, 1, 0, 1), Affine(1, 1))
        assert isinstance(phi, Moebius)
        for z in (1.0, 2.0 + 1j):
            assert phi(z) == pytest.approx(2 * (z + 1) + 1)
        # psi(zeta) = (zeta + 1/2)/(1 + zeta/2) conjugates to 3z
        phi = compose(cayley_conjugate(1, 0.5, 0.5, 1), Affine(1, 1))
        assert isinstance(phi, Moebius)
        assert phi(2.0 + 1j) == pytest.approx(3 * (3.0 + 1j))
        assert phi.known_lambda == pytest.approx(1 / 3)

    def test_mixed_families_fall_back_to_compose(self):
        phi = compose(PowerMap(0.5), Affine(2, 0))
        assert isinstance(phi, Compose)
        assert phi(2) == pytest.approx(2.0)

    def test_known_lambda_multiplies(self):
        phi = Compose(Affine(2, 1), Affine(3, 0))
        assert phi.known_lambda == pytest.approx(1 / 6)
        # lambda = d/a is read off the matrix, whether or not phi is a
        # self-map (validate_self_map refuses both of these)
        assert Affine(2, -1).known_lambda == 0.5
        assert Moebius(2, -1, 0, 1).known_lambda == 0.5

    def test_overflow_guard(self):
        with pytest.raises(CoefficientOverflow):
            compose(Affine(1e200, 0), Affine(1e200, 0))


class TestFiniteCoefficients:
    # each used to be built, and then refused for a false reason (Re b < 0
    # for affine:2,nan) or after a numpy RuntimeWarning (power:nan)
    @pytest.mark.parametrize("build,message", [
        (lambda: Affine(2, complex(math.nan, 0)),
         "affine coefficient 'b' is not finite: (nan+0j)"),
        (lambda: Affine(math.inf, 0),
         "affine coefficient 'a' is not finite: inf"),
        (lambda: Moebius(1, 0, complex(0, -math.inf), 1),
         "moebius coefficient 'c' is not finite: -infj"),
        (lambda: CayleyMap(1, 0, 0, math.nan),
         "cayley coefficient 'd' is not finite: (nan+0j)"),
        (lambda: cayley_conjugate(math.nan, 0, 0, 1),
         "cayley coefficient 'a' is not finite: (nan+0j)"),
        (lambda: PowerMap(math.nan), "power coefficient 'p' is not finite: nan"),
        (lambda: compose(PowerMap(1e200), PowerMap(1e200)),
         "power coefficient 'p' is not finite: inf"),
    ], ids=["affine-b", "affine-a", "moebius", "cayley", "cayley-conjugate",
            "power", "power-product"])
    def test_refused_at_construction(self, build, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                build()
        assert str(info.value) == message


def _points_of_h():
    """1-20 points of the right half-plane, as a complex array."""
    point = st.builds(complex, st.floats(1e-3, 1e3), st.floats(-1e3, 1e3))
    return st.lists(point, min_size=1, max_size=20).map(np.array)


_slope = st.floats(0.25, 4.0)
_translation = st.builds(complex, st.floats(0.0, 3.0), st.floats(-3.0, 3.0))


class TestLinearFractionalFamily:
    """Affine, Moebius and Cayley maps share one evaluator, one
    ``known_lambda`` and one composition rule; each must still agree with
    its own closed form."""

    @settings(max_examples=60, deadline=None)
    @given(_points_of_h(), _slope, _translation)
    def test_affine_closed_form(self, z, a, b):
        phi = Affine(a, b)
        assert phi(z).tobytes() == (a * z + b).tobytes()
        assert repr(phi(complex(z[0]))) == repr(a * complex(z[0]) + b)
        assert phi.known_lambda == 1 / a

    @settings(max_examples=60, deadline=None)
    @given(_points_of_h(), st.floats(0.5, 3.0), _translation,
           st.one_of(st.just(0.0), st.floats(0.1, 3.0)), st.floats(0.25, 3.0))
    def test_moebius_closed_form(self, z, a, b, c, d):
        assume(a * d != b * c)  # a degenerate map is refused by design
        phi = Moebius(a, b, c, d)
        a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        assert phi(z).tobytes() == ((a * z + b) / (c * z + d)).tobytes()
        assert phi.known_lambda == (d.real / a.real if c == 0 else None)

    @settings(max_examples=60, deadline=None)
    @given(_points_of_h(), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
    def test_cayley_closed_form(self, z, a, b):
        # psi(zeta) = (a zeta + b)/(a + b) fixes 1 with psi'(1) = a/(a+b)
        phi = cayley_conjugate(a, b, 0, a + b)
        tau_inverse = (z - 1) / (z + 1)
        psi = (a * tau_inverse + b) / (a + b)
        np.testing.assert_allclose(phi(z), (1 + psi) / (1 - psi),
                                   rtol=1e-9)
        assert phi.known_lambda == pytest.approx(a / (a + b), rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(_slope, _translation, _slope, _translation)
    def test_affine_composition_is_exact(self, a1, b1, a2, b2):
        phi = compose(Affine(a1, b1), Affine(a2, b2))
        assert repr(phi) == repr(Affine(a1 * a2, a1 * b2 + b1))
        assert phi.known_lambda == pytest.approx(1 / (a1 * a2), rel=1e-15)


class TestSampleGrid:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SampleGrid(aperture=2.0)
        with pytest.raises(ValueError):
            SampleGrid(r_min=2.0, r_max=1.0)

    def test_radii_strictly_increasing_geometric(self):
        r = DEFAULT_GRID.radii()
        assert np.all(np.diff(r) > 0)
        steps = r[1:] / r[:-1]
        assert np.allclose(steps, steps[0])

    def test_arrays_cached_read_only_and_not_part_of_the_value(self):
        grid = SampleGrid(r_max=1e7, radial=30, angular=5)
        twin = SampleGrid(r_max=1e7, radial=30, angular=5)
        before = (hash(grid), grid.to_dict())
        assert grid.radii() is grid.radii()
        assert grid.points() is grid.points()
        with pytest.raises(ValueError):
            grid.radii()[0] = 2.0
        with pytest.raises(ValueError):
            grid.points()[0, 0] = 2.0
        with pytest.raises(ValueError):
            grid.flat_points()[0] = 2.0
        assert (hash(grid), grid.to_dict()) == before
        assert grid == twin and hash(grid) == hash(twin)
        assert np.array_equal(grid.radii(),
                              np.geomspace(1.0, 1e7, 30))
        assert np.array_equal(grid.points(),
                              grid.radii()[:, None]
                              * np.exp(1j * grid.angles())[None, :])

    def test_non_tangential_containment(self):
        pts = DEFAULT_GRID.flat_points()
        bound = math.tan(DEFAULT_GRID.aperture)
        assert np.all(np.abs(pts.imag) <= bound * pts.real * (1 + 1e-12))

    def test_sample_points_distinct_and_far_field(self):
        rng = np.random.default_rng(0)
        pts = DEFAULT_GRID.sample_points(8, rng)
        assert len(set(pts.tolist())) == 8
        far = DEFAULT_GRID.sample_points(8, rng, far_field=True)
        assert np.all(np.abs(far) >= DEFAULT_GRID.far_field_radius)

    def test_round_trip(self):
        grid = SampleGrid(aperture=1.0, r_min=2.0, r_max=1e5,
                          radial=17, angular=5)
        assert SampleGrid.from_dict(grid.to_dict()) == grid


class TestAngularDerivative:
    def test_affine_oracle(self):
        est = angular_derivative_estimate(Affine(3, 2))
        assert est.verdict == "finite"
        assert est.lambda_hat == est.sup_ratio
        assert abs(est.lambda_hat - 1 / 3) * 3 <= ORACLE_RTOL

    def test_translation(self):
        est = angular_derivative_estimate(Affine(1, 5))
        assert est.verdict == "finite"
        assert abs(est.lambda_hat - 1.0) <= ORACLE_RTOL

    def test_sqrt_divergent(self):
        # Along the real axis the ratio is exactly sqrt(r): 10, 100, 1000
        # at r = 1e2, 1e4, 1e6.
        for r in (1e2, 1e4, 1e6):
            assert r / (PowerMap(0.5)(r)).real == pytest.approx(math.sqrt(r))
        est = angular_derivative_estimate(PowerMap(0.5))
        assert est.verdict == "divergent"
        assert math.isinf(est.lambda_hat)
        assert est.trace[-1] == pytest.approx(1000.0)

    def test_moebius_with_finite_limit_point_divergent(self):
        # phi -> 2 at infinity, so Re z / Re phi grows linearly.
        est = angular_derivative_estimate(Moebius(2, 1, 1, 3))
        assert est.verdict == "divergent"
        assert est.known_lambda is None
        # |c| <= 1e-14 max|m| (rounding level) counts as c = 0
        assert Moebius(2, 1, 1e-13, 3).known_lambda is None
        assert Moebius(2, 1, 3e-14, 3).known_lambda == 1.5

    def test_inconclusive_then_resolves(self):
        slow = Affine(1, 1e5)
        assert angular_derivative_estimate(slow).verdict == "inconclusive"
        wide = SampleGrid(r_max=1e9)
        est = angular_derivative_estimate(slow, wide)
        assert est.verdict == "finite"
        assert abs(est.lambda_hat - 1.0) <= ORACLE_RTOL

    def test_grid_span_precondition(self):
        with pytest.raises(ValueError):
            angular_derivative_estimate(identity(), SampleGrid(r_max=10.0))

    def test_multiplicativity(self):
        phi = Compose(Affine(2, 1), Affine(3, 0))
        est = angular_derivative_estimate(phi)
        expected = phi.known_lambda
        assert abs(est.lambda_hat - expected) / expected <= ORACLE_RTOL

    def test_affine_oracle_agreement_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            a = float(rng.uniform(0.2, 10.0))
            b = complex(rng.uniform(0.0, 50.0), rng.uniform(-20.0, 20.0))
            phi = Affine(a, b)
            est = angular_derivative_estimate(phi)
            assert est.verdict == "finite"
            assert abs(est.lambda_hat - 1 / a) * a <= ORACLE_RTOL

    def test_monotone_refinement(self):
        base = SampleGrid(radial=40, angular=9)
        denser = SampleGrid(radial=79, angular=17)
        wider = SampleGrid(r_max=1e8)
        for phi in (Affine(2, 1), Affine(1, 5), Moebius(2, 1, 0, 1)):
            sup = angular_derivative_estimate(phi, base).sup_ratio
            assert angular_derivative_estimate(phi, denser).sup_ratio >= sup * (1 - 1e-12)
            assert angular_derivative_estimate(phi, wider).sup_ratio >= sup * (1 - 1e-12)

    def test_rejects_invalid_symbol(self):
        with pytest.raises(HalfPlaneError):
            angular_derivative_estimate(Moebius(1, 0, 0, -1))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 12), st.integers(1, 3),
           st.data())
    def test_trace_verdicts_follow_the_rule(self, count, shells, angles,
                                            data):
        # every trace of a stack is classified by the one-trace rule,
        # written here as the estimator wrote it before it took stacks
        def reference_verdict(shell_max):
            if len(shell_max) >= 6:
                window = shell_max[-6:]
                growth = float(window[-1] / window[0])
                increasing = bool(np.all(np.diff(window) > 0.0))
                if increasing and growth >= 1.5:
                    return "divergent"
                return "finite" if growth <= 1.05 else "inconclusive"
            spread = float(shell_max.max() / shell_max.min())
            return "finite" if spread <= 1.05 else "inconclusive"

        # traces that step by factors about the 1.05 and 1.5 thresholds,
        # each shell's maximum at its first angle
        steps = st.lists(st.sampled_from([0.9, 1.0, 1.004, 1.01, 1.2, 1.5]),
                         min_size=shells - 1, max_size=shells - 1)
        traces = np.array([np.cumprod([data.draw(st.floats(1e-3, 1e3))]
                                      + data.draw(steps))
                           for _ in range(count)])
        points = np.ones((shells, angles), dtype=complex)
        images = (np.arange(1, angles + 1) / traces[..., None]) + 0j
        shell_max, verdicts = angular_trace(points, images)
        assert np.array_equal(shell_max, (1.0 / images.real).max(axis=-1))
        assert verdicts == [reference_verdict(row) for row in shell_max]
        one, verdict = angular_trace(points, images[0])
        assert np.array_equal(one, shell_max[0]) and verdict == verdicts[0]


class TestCayley:
    def test_identity_conjugates_to_identity(self):
        phi = cayley_conjugate(1, 0, 0, 1)
        assert phi.known_lambda == pytest.approx(1.0)
        for z in (1.0, 2.0 + 1j):
            assert phi(z) == pytest.approx(z)

    def test_disc_derivative_matches_half_plane_estimate(self):
        # psi(zeta) = zeta/(2 - zeta) fixes 1; its derivative along (0, 1)
        # is the angular derivative of the conjugated map.
        phi = cayley_conjugate(1, 0, -1, 2)
        psi = lambda zeta: zeta / (2 - zeta)
        h = 1e-6
        disc_derivative = (psi(1.0) - psi(1.0 - h)) / h
        est = angular_derivative_estimate(phi)
        assert est.verdict == "finite"
        assert abs(est.lambda_hat - disc_derivative) / disc_derivative <= 1e-3

    def test_affine_equivalent_disc_automorphism(self):
        # psi(zeta) = (zeta + 1/2)/(1 + zeta/2): the conjugate is 3z, so the
        # brute-force limit of z/phi(z) at r = 1e6 is 1/3.
        phi = cayley_conjugate(1, 0.5, 0.5, 1)
        brute = (1e6 / phi(1e6)).real
        assert abs(brute - 1 / 3) * 3 <= 1e-3
        est = angular_derivative_estimate(phi)
        assert abs(est.lambda_hat - brute) / brute <= 1e-3

    def test_rejects_non_self_map(self):
        with pytest.raises(ValueError, match="disc self-map"):
            cayley_conjugate(2, 0, 0, 1)  # psi = 2 zeta
        with pytest.raises(ValueError, match="degenerate"):
            cayley_conjugate(0, 0.5, 0, 1)  # psi = 1/2 is constant

    def test_descriptor_must_be_disc_self_map(self):
        # psi = zeta - 1/2 leaves the disc; its conjugate leaves H
        with pytest.raises(ValueError, match="disc self-map"):
            symbol_from_dict(CayleyMap(1, -0.5, 0, 1).to_dict())

    def test_validates_on_half_plane(self):
        phi = cayley_conjugate(1, 0, -1, 2)
        assert validate_self_map(phi) is None


class TestGridRange:
    @pytest.mark.parametrize("r_min,r_max", [(1.0, math.inf), (math.nan, 2.0),
                                             (1.0, math.nan), (2.0, 1.0)])
    def test_radii_must_be_finite_and_ordered(self, r_min, r_max):
        with pytest.raises(ValueError, match=r"need 0 < r_min < r_max < inf"):
            SampleGrid(r_min=r_min, r_max=r_max)


class TestSerialization:
    @pytest.mark.parametrize("phi", [
        Affine(2, 1 + 0.5j),
        Moebius(2, 1, 0, 1),
        PowerMap(0.5),
        CayleyMap(1, 0.5, 0.5, 1),
        Compose(Affine(2, 0), PowerMap(0.5)),
    ])
    def test_round_trip(self, phi):
        rebuilt = symbol_from_dict(phi.to_dict())
        assert rebuilt == phi

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            symbol_from_dict({"kind": "mystery"})

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergkit.kernels import (Weight, _shifted_power, bergman_kernel,
                             defect_kernel, defect_kernel_matrix,
                             factorization_residual, gram_matrix,
                             kernel_function, nevanlinna_kernel, psd_check)
from bergkit.laplace import HalfLineFunction, laplace_eval
from bergkit.linalg import HERMITIAN_RTOL
from bergkit.space import default_scheme
from bergkit.symbols import (DEFAULT_GRID, Affine, Compose, SampleGrid,
                             identity)

SYMMETRY_RTOL = 1e-12


def sector_points(rng, size):
    r = np.exp(rng.uniform(np.log(DEFAULT_GRID.r_min),
                           np.log(DEFAULT_GRID.r_max), size))
    th = rng.uniform(-DEFAULT_GRID.aperture, DEFAULT_GRID.aperture, size)
    return r * np.exp(1j * th)


class TestWeight:
    def test_constants(self):
        w = Weight(1.0)
        assert w.norm_const == 4.0
        assert w.exponent == 3.0
        assert w.half_exponent == 1.5

    def test_rejects_alpha_at_or_below_minus_one(self):
        with pytest.raises(ValueError):
            Weight(-1.0)
        with pytest.raises(ValueError):
            Weight(-2.0)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_alpha(self, alpha):
        # nan and -inf used to fail as "alpha > -1", and inf not at all
        with pytest.raises(ValueError,
                           match=f"weight parameter alpha is not finite: "
                                 f"{alpha}"):
            Weight(alpha)

    @pytest.mark.parametrize("alpha", [1023.5, 1100.0, 1e300])
    def test_rejects_alpha_past_the_norm_const_range(self, alpha):
        # 2.0 ** alpha raised "(34, 'Numerical result out of range')" at
        # 1100 and 1e300, and 2^alpha (1 + alpha) was inf at 1023.5
        with pytest.raises(ValueError, match=re.escape(
                f"alpha = {alpha:g} puts 2^alpha (1 + alpha) past")):
            Weight(alpha)
        assert math.isfinite(Weight(1013.0).norm_const)

    def test_norm_const_positive(self):
        for alpha in (-0.99, -0.5, 0.0, 3.7, 12.0):
            assert Weight(alpha).norm_const > 0


class TestBergmanKernel:
    def test_values(self):
        assert bergman_kernel(Weight(0.0), 1, 1) == pytest.approx(0.25)
        assert bergman_kernel(Weight(1.0), 1, 1) == pytest.approx(0.5)
        assert bergman_kernel(Weight(0.0), 1, 1 + 1j) == pytest.approx((3 - 4j) / 25)

    def test_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            bergman_kernel(Weight(0.0), -1, 1)

    def test_value_past_the_float_range_is_refused(self):
        # (2e-160)^2 underflows to 0: the divide warned and gave inf; a
        # power past the range still gives k = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                    r"k_w\(z\) at alpha = 0 leaves the float range")):
                bergman_kernel(Weight(0.0), [1.0, 1e-160], [1.0, 2e-160])
            assert bergman_kernel(Weight(70.0), 1e4, 1e4) == 0

    def test_kernel_function_matches(self):
        k = kernel_function(Weight(0.5), 2 + 1j)
        z = np.array([1.0, 3.0 + 2j])
        np.testing.assert_allclose(k(z),
                                   bergman_kernel(Weight(0.5), 2 + 1j, z))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        w = Weight(float(rng.uniform(-0.9, 6.0)))
        omega, z = sector_points(rng, 2)
        a = bergman_kernel(w, omega, z)
        b = bergman_kernel(w, z, omega)
        assert abs(a - np.conj(b)) <= SYMMETRY_RTOL * max(abs(a), 1e-300)


def shifted_power_inputs(shape):
    """(shift, z) pairs in the three forms bergkit passes: Python scalars,
    0-d arrays, and a column of shifts against a row of points.  The base
    has positive real part, as every base in bergkit does."""
    shift = st.complex_numbers(max_magnitude=10, allow_nan=False,
                               allow_infinity=False).filter(
                                   lambda s: s.real >= 0)
    point = st.builds(complex, st.floats(1e-3, 100), st.floats(-100, 100))
    if shape == "scalar":
        return st.tuples(shift, point)
    if shape == "0-d":
        return st.tuples(shift, point).map(
            lambda t: tuple(map(np.asarray, t)))
    return st.tuples(
        st.lists(shift, min_size=1, max_size=4),
        st.lists(point, min_size=1, max_size=4)).map(
            lambda t: (np.array(t[0])[:, None], np.array(t[1])[None, :]))


SHAPES = ["scalar", "0-d", "broadcast"]


class TestShiftedPower:
    """``_shifted_power`` against ``(shift + z) ** p`` in numpy's own
    arithmetic: ``np.add`` of the inputs, then ``**``."""

    @staticmethod
    def reference(shift, z, p):
        return np.asarray(np.add(shift, z) ** p)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(SHAPES),
           st.floats(-12, 12).filter(lambda p: not p.is_integer()))
    def test_non_integral_power_within_four_ulp(self, data, shape, p):
        shift, z = data.draw(shifted_power_inputs(shape))
        got = _shifted_power(shift, z, p)
        ref = self.reference(shift, z, p)
        assert got.shape == ref.shape and got.dtype == complex
        ulp = np.spacing(np.abs(ref))
        assert np.all(np.abs(got.real - ref.real) <= 4 * ulp)
        assert np.all(np.abs(got.imag - ref.imag) <= 4 * ulp)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from(SHAPES),
           st.integers(-12, 12).map(float) | st.just(0.5))
    def test_integral_and_square_root_powers_are_bit_equal(self, data, shape,
                                                           p):
        shift, z = data.draw(shifted_power_inputs(shape))
        got = _shifted_power(shift, z, p)
        assert got.tobytes() == self.reference(shift, z, p).tobytes()

    @pytest.mark.parametrize("p", [2.5, 3.0, 0.5])
    def test_result_is_a_fresh_array(self, p):
        shift = np.array([[1.0 + 1j], [2.0]])
        z = np.array([[1.0, 2.0 - 1j]])
        kept = shift.copy(), z.copy()
        result = _shifted_power(shift, z, p)
        assert not np.shares_memory(result, shift)
        assert not np.shares_memory(result, z)
        result[...] = 0
        assert np.array_equal(shift, kept[0]) and np.array_equal(z, kept[1])

    @pytest.mark.parametrize("p", [2.5, 3.0, 0.5])
    def test_out_buffer_takes_the_same_bits(self, p):
        # laplace_eval reuses one buffer for all the modes of a block
        shift = np.array([[1.0 + 1j], [2.0]])
        z = np.array([[1.0, 2.0 - 1j]])
        out = np.full((2, 2), np.nan, dtype=complex)
        result = _shifted_power(shift, z, p, out=out)
        assert result is out
        assert out.tobytes() == _shifted_power(shift, z, p).tobytes()

    def test_laplace_eval_leaves_scheme_nodes_alone(self):
        scheme = default_scheme()
        before = scheme.z.copy()
        f = HalfLineFunction.build([(1.0, 0.5, 1.0), (2j, 3.0, 0.5 + 1j)])
        values = laplace_eval(f, scheme.z)
        assert not np.shares_memory(values, scheme.z)
        assert not scheme.z.flags.writeable
        assert scheme.z.tobytes() == before.tobytes()


class TestGramMatrix:
    def test_single_point(self):
        m = gram_matrix(Weight(0.0), [1.0])
        np.testing.assert_allclose(m, [[0.25]])

    def test_two_points(self):
        m = gram_matrix(Weight(0.0), [1.0, 2.0])
        np.testing.assert_allclose(m, [[0.25, 1 / 9], [1 / 9, 1 / 16]])

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            gram_matrix(Weight(0.0), [1.0, 1.0])

    def test_gram_is_psd_on_random_configurations(self):
        rng = np.random.default_rng(7)
        for alpha in (0.0, 1.0, 2.7):
            verdicts = psd_check([
                gram_matrix(Weight(alpha), DEFAULT_GRID.sample_points(6, rng))
                for _ in range(5)])
            assert all(v.is_psd for v in verdicts)

    def test_psd_check_refuses_non_finite_gram(self):
        # kernels at points near 0 overflow; the verdict used to come back
        # with an inf threshold instead of an error.  gram_matrix refuses
        # them itself, so the matrix is the kernel formula written out.
        grid = SampleGrid(r_min=1e-300, r_max=1, aperture=1)
        pts = grid.sample_points(8, np.random.default_rng(0))
        w = Weight(6)
        with pytest.raises(ValueError, match="k_w.z. at alpha = 6 leaves"):
            gram_matrix(w, pts)
        with np.errstate(all="ignore"):
            gram = w.norm_const / (pts[:, None] + np.conj(pts)) ** w.exponent
            assert not np.all(np.isfinite(gram))
            with pytest.raises(ValueError, match="non-finite"):
                psd_check([gram])

    def test_hermitian_defect_small(self):
        rng = np.random.default_rng(11)
        pts = sector_points(rng, 8)
        m = gram_matrix(Weight(1.3), pts)
        assert np.abs(m - m.conj().T).max() <= 1e-12 * np.abs(m).max()


class TestNevanlinnaKernel:
    def test_identity_gives_all_ones(self):
        m = nevanlinna_kernel(identity(), [1.0, 2.0, 1 + 1j])
        np.testing.assert_allclose(m, 1.0)

    def test_constant_one(self):
        m = nevanlinna_kernel(lambda z: np.ones_like(z), [1.0, 2.0])
        np.testing.assert_allclose(m, [[1.0, 2 / 3], [2 / 3, 0.5]])

    def test_negative_real_part_fails_psd(self):
        m = nevanlinna_kernel(lambda z: -np.ones_like(z), [1.0])
        verdict, = psd_check([m])
        assert not verdict.is_psd
        assert verdict.min_eigenvalue == pytest.approx(-1.0)

    def test_scalar_only_callable_supported(self):
        m = nevanlinna_kernel(lambda z: 1.0, [1.0, 2.0])
        np.testing.assert_allclose(m, [[1.0, 2 / 3], [2 / 3, 0.5]])

    def test_callable_failing_on_arrays_raises(self):
        # psi is called once on the point array; its error is not swallowed
        # by a silent per-point fallback.
        def scalar_only(z):
            if isinstance(z, np.ndarray):
                raise TypeError("scalars only")
            return z

        with pytest.raises(TypeError, match="scalars only"):
            nevanlinna_kernel(scalar_only, [1.0, 2.0])

    @pytest.mark.parametrize("psi", [
        identity(),
        lambda z: np.ones_like(z),
        lambda z: z + 1 / z,
        lambda z: 2 * z + 3,
    ])
    def test_positive_real_part_gives_psd(self, psi):
        rng = np.random.default_rng(13)
        verdicts = psd_check([
            nevanlinna_kernel(psi, DEFAULT_GRID.sample_points(8, rng))
            for _ in range(5)])
        assert all(v.is_psd for v in verdicts)


class TestDefectKernel:
    def test_translation_value(self):
        assert defect_kernel(Affine(1, 1), 1.0, 1, 1, 1) == pytest.approx(1.0)

    def test_identity_vanishes(self):
        assert defect_kernel(identity(), 1.0, 3, 2 + 1j, 1) == pytest.approx(0.0)

    def test_exact_dilation_vanishes(self):
        assert defect_kernel(Affine(2, 0), 0.5, 2, 1, 1) == pytest.approx(0.0)

    def test_matrix_values(self):
        m = defect_kernel_matrix(Affine(1, 1), 1.0, 1, [1.0, 2.0])
        np.testing.assert_allclose(m, [[1.0, 2 / 3], [2 / 3, 0.5]])
        assert np.abs(m - m.conj().T).max() <= 1e-12 * np.abs(m).max()
        verdict, = psd_check([m])
        assert verdict.is_psd  # det = 1/18 > 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            defect_kernel(identity(), -1.0, 1, 1, 1)
        with pytest.raises(ValueError):
            defect_kernel(identity(), 1.0, 0, 1, 1)

    def test_power_past_the_float_range_names_n(self):
        # lam^-n of a Python float raised OverflowError, and the powers of
        # top and base went inf and nan with numpy warnings
        pts = [1.0 + 1j, 2.0, 5.0 - 2j]
        with pytest.raises(ValueError, match=r"^K\^n with n = 700 leaves"):
            defect_kernel_matrix(Affine(0.5, 1.0), 2.0, 700, pts)
        with pytest.raises(ValueError, match=r"^K\^n with n = 1100 leaves"):
            defect_kernel(Affine(2.0, 1.0), 0.5, 1100, 1.0, 1.0)

    @pytest.mark.parametrize("phi", [
        Affine(1, 1),
        Affine(2, 1),
        Compose(Affine(2, 1), Affine(3, 0)),
    ])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_dyadic_powers_psd_at_true_lambda(self, phi, n):
        lam = phi.known_lambda
        rng = np.random.default_rng(17)
        verdicts = psd_check([
            defect_kernel_matrix(phi, lam, n, DEFAULT_GRID.sample_points(8, rng))
            for _ in range(5)])
        assert all(v.is_psd for v in verdicts)


class TestFactorization:
    def pairs(self, count=50, seed=0):
        rng = np.random.default_rng(seed)
        return np.stack([sector_points(rng, count),
                         sector_points(rng, count)], axis=1)

    def test_translation_level0(self):
        assert factorization_residual(Affine(1, 1), 1.0, 0, self.pairs()) <= 1e-12

    def test_affine_level1(self):
        assert factorization_residual(Affine(2, 1), 0.5, 1, self.pairs()) <= 1e-10

    def test_identity_exact_zero(self):
        assert factorization_residual(identity(), 1.0, 2, self.pairs()) == 0.0

    def test_levels_up_to_two(self):
        pairs = self.pairs(200, seed=3)
        for level in (0, 1, 2):
            for phi in (Affine(2, 1), Affine(0.5, 2)):
                residual = factorization_residual(phi, 1 / phi.a, level, pairs)
                assert residual <= 1e-10


class TestMatrixOps:
    def test_schur_product_of_psd_defect_matrices_is_psd(self):
        # Schur product theorem, the step behind K^2m = K^m (K^m + 2 lam^-m)
        m = defect_kernel_matrix(Affine(1, 1), 1.0, 1, [1.0, 2.0, 3.0])
        assert psd_check([m * m])[0].is_psd


class TestPsdCheck:
    def test_identity(self):
        verdict, = psd_check([np.eye(3)])
        assert verdict.is_psd
        assert verdict.min_eigenvalue == pytest.approx(1.0)
        assert verdict.witness is None

    def test_indefinite_with_witness(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        verdict, = psd_check([m])
        assert not verdict.is_psd
        assert verdict.min_eigenvalue == pytest.approx(-1.0)
        c = np.array(verdict.witness)
        assert (c.conj() @ m @ c).real < 0

    def test_threshold_scales_with_trace(self):
        verdict, = psd_check([1e6 * np.eye(4)])
        assert verdict.threshold == pytest.approx(1e-9 * 1e6)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            psd_check([np.array([[1.0, 1.0], [0.0, 1.0]])])

    def test_accepts_kernel_matrix_inputs(self):
        assert psd_check([gram_matrix(Weight(0.0), [1.0, 2.0])])[0].is_psd

    def test_sequence_gives_one_verdict_per_matrix(self):
        rng = np.random.default_rng(4)
        matrices = [gram_matrix(Weight(1.0), DEFAULT_GRID.sample_points(6, rng))
                    for _ in range(3)]
        matrices.insert(1, np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            psd_check(matrices)  # sizes differ
        matrices[1] = np.diag([1.0, 1.0, -2.0, 1.0, 1.0, 1.0])
        verdicts = psd_check(matrices)
        assert [v.is_psd for v in verdicts] == [True, False, True, True]
        assert [v.witness is None for v in verdicts] == [True, False, True, True]
        # each entry is its one-element batch
        for m, v in zip(matrices, verdicts):
            assert repr([v]) == repr(psd_check([m]))
        assert psd_check([]) == []

    @pytest.mark.parametrize("matrices", [
        np.eye(3), [[1.0, 0.0], [0.0, 1.0]], np.ones((2, 3, 4))],
        ids=["matrix", "nested-list", "not-square"])
    def test_refuses_what_is_not_a_stack(self, matrices):
        # one matrix used to give one verdict, not a list
        with pytest.raises(ValueError, match=r"need a \(B, n, n\) stack"):
            psd_check(matrices)

    def test_refuses_a_stack_of_order_zero(self):
        # used to end in an IndexError at the smallest eigenvalue
        with pytest.raises(ValueError, match=r"^need a \(B, n, n\) stack of "
                           r"square matrices with n >= 1, not shape "
                           r"\(2, 0, 0\)$"):
            psd_check(np.zeros((2, 0, 0)))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 16), st.integers(0, 2 ** 32 - 1),
           st.floats(0.0, 1.0))
    def test_asymmetry_within_tolerance_gives_hermitian_part_verdicts(
            self, batch, n, seed, fraction):
        # psd_check leaves the Hermitian check and 0.5 (a + a*) to
        # jacobi_eigh, and takes its threshold from the trace of a itself
        rng = np.random.default_rng(seed)
        stack = []
        for _ in range(batch):
            rank = int(rng.integers(1, n + 1))
            b = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
            shift = rng.choice([0.0, rng.uniform(0.0, 2.0)])
            h = b @ b.conj().T - shift * np.eye(n)
            e = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
            stack.append(h + 0.25 * fraction * HERMITIAN_RTOL
                         * np.abs(h).max() * e)
        a = np.array(stack)
        hermitian_part = 0.5 * (a + a.conj().swapaxes(1, 2))
        expected = repr(psd_check(hermitian_part))
        assert repr(psd_check(a)) == expected
        assert repr(psd_check(stack)) == expected
        assert repr(psd_check(a[:1])) == repr(psd_check(hermitian_part[:1]))

    def test_verdict_round_trips_to_json(self):
        verdict, = psd_check([np.array([[1.0, 2.0], [2.0, 1.0]])])
        data = verdict.to_dict()
        assert data["is_psd"] is False
        assert len(data["witness"]) == 2

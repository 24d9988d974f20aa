"""Closed-form transforms and norms, cross-checked by direct numerical
integration (scipy.quad), which is independent of the Gamma formulas."""

import cmath
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import bergkit
from bergkit import laplace, space
from bergkit.kernels import Weight, _shifted_power, bergman_kernel
from bergkit.laplace import (ExpMonomial, HalfLineFunction, isometry_check,
                             kernel_preimage, laplace_eval, mu_alpha_density,
                             mu_alpha_norm, weighted_norm_squared)
from bergkit.space import (QuadratureScheme, _cached_scheme, default_scheme,
                           inner_product, nested_integrals)
from bergkit.symbols import HalfPlaneError, require_half_plane
from test_space import nodes, usable_cpus, whole_grid_integrals


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

    def test_peak_is_the_result_and_one_mode_buffer(self):
        # the sum and one buffer shared by every mode, each the input's
        # size, on the default scheme's 39 x 256 grid of nodes, which is
        # read-only and left as it was
        scheme = default_scheme()
        z = scheme.x_nodes[:, None] + 1j * scheme.y_nodes[None, :]
        z.flags.writeable = False
        before = z.tobytes()
        f = halfline((1, 1.5, 1.0), (0.5j, 2.25, 2.0 - 1j))
        laplace_eval(f, z)
        tracemalloc.start()
        try:
            value = laplace_eval(f, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * z.nbytes
        assert value.tobytes() == TestRowBlocks.reference(f, z).tobytes()
        assert z.tobytes() == before

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


def doubled_scheme():
    """The scheme of bergbench's doubled config, large enough to be split
    into row blocks."""
    return _cached_scheme(320, 800, 400.0)


def grid_scheme(rng, shape):
    """A scheme on random nodes whose grid has ``shape``, a 0-d or 1-D one
    taken as one row."""
    n_x, n_y = ((1, 1) + shape)[-2:]
    return QuadratureScheme(rng.uniform(1e-3, 50.0, n_x), rng.random(n_x),
                            rng.normal(0.0, 20.0, n_y), rng.random(n_y),
                            n_x, n_y, 1.0)


class TestRowBlocks:
    """The quadrature walk splits a large grid into row blocks, one per
    usable CPU; every entry must come out bitwise as one thread computes
    it on the whole grid, and laplace_eval, which runs on one thread,
    likewise."""

    FLOOR = space._BLOCK_ENTRIES
    # 0-d and 1-D; just below and above two blocks' worth of entries,
    # with an odd row count above; three and five rows of one floor each
    SHAPES = [(), (7,), (2 * FLOOR - 1,), (2 * FLOOR,), (255, 128),
              (257, 128), (3, FLOOR + 1), (5, FLOOR)]

    @staticmethod
    def reference(f, z):
        total = np.zeros(np.shape(z), dtype=complex)
        for term in f.terms:
            total += (term.c * math.gamma(1.0 + term.beta)
                      / _shifted_power(term.s, z, 1.0 + term.beta))
        return total

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from(SHAPES), st.integers(min_value=1, max_value=4),
           st.lists(st.tuples(
               st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                  allow_infinity=False),
               # integral powers multiply out, and 0.5 takes numpy's sqrt
               st.one_of(st.sampled_from([-0.5, 0.0, 1.0, 2.0]),
                         st.floats(-0.9, 4.0)),
               st.builds(complex, st.floats(0.1, 5.0), st.floats(-5.0, 5.0))),
               min_size=1, max_size=3))
    def test_property_blocks_match_one_thread_bitwise(self, seed, shape, cpus,
                                                      terms):
        rng = np.random.default_rng(seed)
        z = rng.uniform(1e-3, 50.0, shape) + 1j * rng.normal(0.0, 20.0, shape)
        f = halfline(*terms)
        value = laplace_eval(f, z)
        assert np.shape(value) == shape
        assert np.asarray(value).tobytes() == self.reference(f, z).tobytes()
        scheme, threads = grid_scheme(rng, shape), []

        def integrand(z, out):
            # the Thread itself: an ident is reused once its thread ends
            threads.append(threading.current_thread())
            out[...] = laplace_eval(f, z)

        with usable_cpus(cpus):
            sums = nested_integrals([Weight(0.0)], integrand, scheme)
        rows = scheme.n_x
        assert len(set(threads)) == max(
            1, min(cpus, rows * scheme.n_y // self.FLOOR, rows))
        assert sums == [whole_grid_integrals(
            Weight(0.0), self.reference(f, nodes(scheme)), scheme)]

    def test_blocks_run_on_threads_that_end_with_the_call(self):
        # the doubled scheme's 253,440 nodes on 3 CPUs: 3 blocks, two of
        # them on other threads (the default scheme is below two blocks)
        f = halfline((1, 1.5, 1.0), (0.5j, 2.25, 2.0))
        scheme, threads, original = doubled_scheme(), [], laplace._sum_modes

        def sum_modes(*args):
            threads.append(threading.current_thread())
            return original(*args)

        before = threading.active_count()
        with usable_cpus(3), mock.patch.object(laplace, "_sum_modes",
                                               sum_modes):
            result, = isometry_check([Weight(1.0)], f, scheme)
        assert threading.active_count() == before
        assert len(set(threads)) == 3
        transform = self.reference(f, nodes(scheme))
        density = np.square(transform.real) + np.square(transform.imag)
        assert result.lhs_quadrature == whole_grid_integrals(
            Weight(1.0), density, scheme)[0].real

    def test_worker_keeps_the_callers_errstate(self):
        # (1 + z)^83.3 overflows only where |1 + z| > 5.1e3: in the last rows,
        # which the worker thread takes, and on the y tail of every row; each
        # block redoes those in log space.  The first mode's |L f|^2
        # overflows near 0, in the first chunk, and isometry_check refuses
        # it.  The doubled scheme is split in two blocks on two CPUs.
        f = halfline((1e150, 1.0, 1e-4), (1e-150, 82.3, 1.0))
        errors, seen, original = [], [], laplace._sum_modes

        def sum_modes(*args):
            seen.append((threading.current_thread(), np.geterr()))
            return original(*args)

        for cpus in (1, 2):
            seen.clear()
            with usable_cpus(cpus), warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as info, mock.patch.object(
                        laplace, "_sum_modes", sum_modes):
                    isometry_check([Weight(0.0)], f, doubled_scheme())
            errors.append(str(info.value))
            # every chunk summed under the walk's state, on each block's
            # thread: the worker's 8 chunks of 20 rows run to the end
            state = dict(np.geterr(), over="ignore", invalid="ignore")
            assert all(error == state for _, error in seen)
            assert len({thread for thread, _ in seen}) == cpus
        assert errors == ["integrand is not finite at a quadrature node"] * 2

    def test_worker_error_is_raised_in_the_caller(self):
        # on two CPUs the worker's block starts at row 160 of 320: past the
        # first bound only the worker raises, past the second both blocks
        # do.  The error raised names the first node past the bound, as on
        # one thread, whatever the number of blocks.
        x = doubled_scheme().x_nodes
        for bound in (x[159], x[139]):
            def f(z):
                if z.real.max() > bound:
                    raise ArithmeticError(f"x = {z.real[z.real > bound][0]}")
                return np.ones_like(z)

            before = threading.active_count()
            for cpus in (1, 2, 3):
                with usable_cpus(cpus), pytest.raises(
                        ArithmeticError, match=re.escape(
                            f"x = {x[x > bound][0]}")):
                    inner_product(Weight(0.0), f, f, doubled_scheme())
            assert threading.active_count() == before

    @pytest.mark.parametrize("terms,alpha,error,message", [
        # the weighted norm refuses the divergent mode before the transform
        ([(1, 1.0, 1.0), (1, -1.0, 1.0)], 0.0, ValueError, "beta > alpha/2"),
        # Gamma(171.4) in the norm is finite, Gamma(171.7) in L f is not
        ([(1e-150, 170.7, 1.0)], 170.0, OverflowError, re.escape(
            "Gamma(171.7) of mode 0 (1e-150+0j)*t^170.7*exp(-(1+0j)*t) "
            "overflows")),
    ], ids=["divergent", "gamma"])
    def test_mode_errors_come_before_any_thread(self, terms, alpha, error,
                                                message):
        start = mock.Mock(side_effect=AssertionError("a thread started"))
        with usable_cpus(4), mock.patch.object(threading.Thread, "start",
                                               start):
            with pytest.raises(error, match=message):
                isometry_check([Weight(alpha)], halfline(*terms),
                               doubled_scheme())
        start.assert_not_called()


class TestChunks:
    """isometry_check sums L f in row chunks of at most 2**14 entries,
    straight into |L f|^2, from nodes the walk builds chunk by chunk: its
    sums must be, bit for bit, those of the squares of L f on the whole
    grid at once."""

    # the doubled scheme (20-row chunks), rows of 16,426 nodes (one row a
    # chunk; 43 panels keep their Gauss-Legendre rules cheap to build) and
    # 150 rows of 256 (64-row chunks, the last ones short)
    CONFIGS = {"doubled": (320, 800, 400.0),
               "long-rows": (5, 16_400, 2.0 ** 40),
               "ragged": (150, 256, 32.0)}
    F = halfline((1, 1.5, 1.0), (0.5j, 2.25, 2.0 - 1j))

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
    def test_density_is_the_full_grid_one(self, config, cpus):
        weights = [Weight(0.0), Weight(1.5)]
        scheme = QuadratureScheme.build(*config)
        with usable_cpus(cpus):
            results = isometry_check(weights, self.F, scheme)
        transform = TestRowBlocks.reference(self.F, nodes(scheme))
        density = np.square(transform.real) + np.square(transform.imag)
        for w, result in zip(weights, results):
            fine, coarse = whole_grid_integrals(w, density, scheme)
            assert (result.lhs_quadrature, result.quadrature_error_estimate
                    ) == (fine.real, abs(fine.real - coarse.real)
                          / result.rhs)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("bad_x,bad_y", [
        # rows 250 and 300: both in the second block on two CPUs
        ({250: math.nan, 300: -1.0}, {}),
        # an infinite y node makes every row's node there nan+infj
        ({3: 0.0}, {7: math.inf}),
    ], ids=["x", "y"])
    def test_node_outside_is_refused_as_on_the_full_grid(self, bad_x, bad_y,
                                                         cpus):
        base = doubled_scheme()
        x, y = base.x_nodes.copy(), base.y_nodes.copy()
        for values, bad in ((x, bad_x), (y, bad_y)):
            values[list(bad)] = list(bad.values())
        scheme = QuadratureScheme(x, base.x_weights, y, base.y_weights,
                                  base.n_x, base.n_y, base.y_max)
        with np.errstate(invalid="ignore"), pytest.raises(
                HalfPlaneError) as full:
            require_half_plane(nodes(scheme))
        with usable_cpus(cpus), pytest.raises(HalfPlaneError) as info:
            isometry_check([Weight(1.0)], halfline((1, 1.5, 1.0)), scheme)
        assert str(info.value) == str(full.value)
        assert repr(info.value.witness) == repr(full.value.witness)

    @staticmethod
    def traced_peak(call):
        """Bytes at the tracemalloc peak of ``call()``."""
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_peak_is_under_two_float_grids(self, cpus):
        # |L f|^2 is the only grid-sized array, whatever the number of
        # weights: x^alpha weights its profile over x; the nodes, the
        # transform and each mode are chunk-sized, and each block has its own
        scheme = doubled_scheme()
        grid_bytes = scheme.x_nodes.size * scheme.y_nodes.size * 8
        for weights in ([Weight(1.0)],
                        [Weight(0.0), Weight(1.0), Weight(2.5)]):
            with usable_cpus(cpus):
                peak = self.traced_peak(
                    lambda: isometry_check(weights, self.F, scheme))
            assert peak <= 2 * grid_bytes

    def test_inner_product_peak_is_under_four_float_grids(self):
        # f * conj(g) is the only grid-sized array, one complex grid; f, g
        # and the nodes are chunk-sized
        scheme = doubled_scheme()
        grid_bytes = scheme.x_nodes.size * scheme.y_nodes.size * 8
        transform = lambda z: laplace_eval(self.F, z)
        with usable_cpus(2):
            inner_product(Weight(1.0), transform, transform, scheme)
            peak = self.traced_peak(lambda: inner_product(
                Weight(1.0), transform, transform, scheme))
        assert peak <= 4 * grid_bytes

    def test_bits_do_not_follow_the_cpu_count(self):
        # each row is summed over y on its own, however the rows were
        # split into blocks
        scheme = doubled_scheme()
        transform = lambda z: laplace_eval(self.F, z)
        seen = set()
        for cpus in (1, 2, 3):
            with usable_cpus(cpus):
                seen.add((inner_product(Weight(1.0), transform, transform,
                                        scheme),
                          repr(isometry_check([Weight(0.5), Weight(2.0)],
                                              self.F, scheme))))
        assert len(seen) == 1


def _blas_cores_skip_reason():
    """Why the OpenBLAS core cannot be switched here, or None."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return f"BLAS {blas.get('name')!r} is not OpenBLAS with DYNAMIC_ARCH"
    simd = config.get("SIMD Extensions", {})
    if not {"X86_V3", "AVX2"} & {*simd.get("baseline", ()),
                                 *simd.get("found", ())}:
        return "the CPU cannot run the Haswell core (AVX2)"
    return None


class TestBlasCores:
    """The quadrature sums are ufunc reductions in a fixed order, and the
    Gram pencils and the 2x2 symbol products are taken in real or Python
    arithmetic, so the bytes of ``bergkit laplace``, of ``bergkit norm`` and
    of criteria 1, 7 and 9 do not follow the kernel OpenBLAS picks for the
    CPU: those with FMA (Haswell) and those without (Sandybridge, Prescott)
    give the same bits as the default."""

    F = ("(1+0.5j)*t^2.7*exp(-(1.2+0.3j)*t)"
         "+(0.5)*t^3.1*exp(-0.8*t)")
    # one symbol of each bounded family of the norm benchmark
    SYMBOLS = ("affine:2.5,1.25,-0.5", "moebius:1.5,0.75+0.5j,0,2.0",
               "cayley:2.0,3.0,0,5.0",
               "compose:(affine:2.0,1.0,0.5;moebius:1.5,0.75-0.25j,0,2.0)",
               "power:1")
    SCRIPT = textwrap.dedent("""\
        import json, sys
        from bergkit.cli import main
        from bergkit.report import run_criterion
        commands, criteria = json.loads(sys.argv[1])
        for argv in commands:
            main(argv)
        for number in criteria:
            print(repr(run_criterion(number, 0)))
    """)

    def outputs(self, tmp_path, commands, criteria) -> list:
        """The lines the commands and the criteria print, ``generated_at``
        left out, the same under the default core and each named one."""
        reason = _blas_cores_skip_reason()
        if reason:
            pytest.skip(reason)
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = str(Path(bergkit.__file__).parents[1])
        outputs = {}
        for core in (None, "Haswell", "Sandybridge", "Prescott"):
            result = subprocess.run(
                [sys.executable, "-c", self.SCRIPT,
                 json.dumps([commands, criteria])],
                capture_output=True, text=True, timeout=120, cwd=tmp_path,
                env=env if core is None else {**env,
                                              "OPENBLAS_CORETYPE": core})
            assert result.returncode == 0, result.stderr
            outputs[core] = [line for line in result.stdout.splitlines()
                             if '"generated_at"' not in line]
        for core, lines in outputs.items():
            assert lines == outputs[None], core
        return outputs[None]

    def test_outputs_do_not_follow_the_openblas_core(self, tmp_path):
        config = tmp_path / "doubled.json"
        config.write_text(json.dumps(
            {"quadrature": {"n_x": 320, "n_y": 800, "y_max": 400.0}}))
        laplace_argv = ["laplace", "--f", self.F, "--alpha", "0.7",
                        "--alpha", "1.9"]
        lines = self.outputs(tmp_path, [
            laplace_argv, laplace_argv + ["--config", str(config)]], [7])
        assert sum('"lhs_quadrature"' in line for line in lines) == 4
        assert lines[-1].startswith("CriterionResult(number=7,")

    def test_norm_outputs_do_not_follow_the_openblas_core(self, tmp_path):
        argv = ["norm", "--alpha", "0.72", "--alpha", "3.37"]
        for symbol in self.SYMBOLS:
            argv += ["--symbol", symbol]
        lines = self.outputs(tmp_path, [argv], [1, 9])
        assert sum('"verdict": "BOUNDED"' in line
                   for line in lines) == 2 * len(self.SYMBOLS)
        assert lines[-2].startswith("CriterionResult(number=1,")
        assert lines[-1].startswith("CriterionResult(number=9,")


class TestOverflowingPower:
    """Where (s + z)^(1 + beta) leaves the float range the transform is
    taken in log space; entries whose sum is finite keep their bits."""

    def test_overflowing_entry_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        # c Gamma(101.5) = 1e308; 1001^101.5 is finite, 1200^101.5 is not
        beta, s = 100.5, 1000.0
        f = halfline((1e308 / math.gamma(1.0 + beta), beta, s))
        z = np.array([1.0 + 0j, 200.0 + 30j])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(_shifted_power(s, z, 1.0 + beta)[1])
            value = laplace_eval(f, z)
        assert value[:1].tobytes() == TestRowBlocks.reference(
            f, z[:1]).tobytes()
        for point, got in zip(z, value):
            with mpmath.workdps(40):
                exact = complex(mpmath.mpf(f.terms[0].c.real)
                                * mpmath.gamma(1 + beta)
                                / (s + mpmath.mpc(point)) ** (1 + beta))
            assert abs(got - exact) <= 1e-12 * abs(exact)


    def test_overflow_that_log_space_mends_is_silent(self):
        # (1e8 + z)^51.5 overflows and Gamma(51.5) / it underflows to 0
        f = halfline((1, 50.5, 1e8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = laplace_eval(f, np.array([1 + 1j, 2]))
        assert value.tobytes() == np.zeros(2, dtype=complex).tobytes()

    def test_value_still_past_the_float_range_warns(self):
        # the redo finds (2e-200)^1.5 finite, and 8.9e9 over it overflows
        f = halfline((1e10, 0.5, 1e-200))
        with pytest.warns(RuntimeWarning, match="overflow"):
            value = laplace_eval(f, np.array([1.0, 1e-200]))
        assert np.isfinite(value[0]) and not np.isfinite(value[1])


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
        result, = isometry_check([Weight(0.0)], halfline((1, 1.0, 1.0)))
        assert result.lhs_closed_form == pytest.approx(0.25)
        assert result.rhs == pytest.approx(0.25)
        assert result.gap <= 1e-10

    def test_kernel_case_alpha_one(self):
        result, = isometry_check([Weight(1.0)], halfline((1, 2.0, 1.0)))
        assert result.lhs_closed_form == pytest.approx(0.125)
        assert result.gap <= 1e-10

    def test_quadrature_case(self):
        result, = isometry_check([Weight(0.0)], halfline((1, 1.0, 2.0),
                                                         (1, 2.0, 2.0)))
        assert result.lhs_closed_form is None
        assert result.rhs == pytest.approx(19 / 128)
        assert result.quadrature_gap <= 1e-3

    def test_complex_coefficient_kernel_combination(self):
        result, = isometry_check([Weight(2.0)], halfline((1, 3.0, 2.0),
                                                         (0.5j, 3.0, 1.0)))
        assert result.lhs_closed_form is not None
        assert result.gap <= 1e-10

    def test_round_trip_dict(self):
        f = halfline((1, 1.0, 1.0), (2 - 1j, 2.5, 0.5 + 0.25j))
        rebuilt = HalfLineFunction.from_dict(f.to_dict())
        assert rebuilt == f


# The accuracy the bergkit.space docstring states for the default rule on
# Laplace modes c t^beta e^(-st) with alpha in [0, 3], beta >= alpha/2 + 1,
# 0.5 <= Re s <= 3 and |Im s| <= 1: ||L f||^2 within LAPLACE_RTOL of the
# scale (sum ||c_i t^beta_i e^(-s_i t)||)^2 of its modes.
LAPLACE_RTOL = 1e-6

MODE = st.tuples(
    st.builds(lambda r, a: r * cmath.exp(1j * a), st.floats(0.01, 2.0),
              st.floats(-math.pi, math.pi)),
    st.floats(1.0, 3.0),  # beta - alpha/2
    st.builds(complex, st.floats(0.5, 3.0), st.floats(-1.0, 1.0)))


def mode_family(seed, count=30):
    """``count`` seeded (alpha, f) cases of one and two modes, alternately,
    on the domain of LAPLACE_RTOL."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        alpha = float(rng.uniform(0.0, 3.0))
        cases.append((alpha, halfline(*[
            (complex(rng.normal(), rng.normal()),
             float(rng.uniform(alpha / 2 + 1.0, alpha / 2 + 3.0)),
             complex(rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0)))
            for _ in range(1 + i % 2)])))
    return cases


def mode_scale(w, f):
    return sum(math.sqrt(mu_alpha_norm(w, halfline(
        (t.c, t.beta, t.s)))) for t in f.terms) ** 2


class TestDefaultRuleOnModes:
    """The default rule against the closed-form half-line norms."""

    def test_seeded_family_gap(self):
        # 9.5e-6 on the Gauss-Legendre rule cut off at |y| = 200
        gaps = [isometry_check([Weight(alpha)], f)[0].quadrature_gap
                for alpha, f in mode_family(1)]
        assert max(gaps) <= 1e-7

    @pytest.mark.parametrize("seed", [1, 2])
    def test_nested_estimate_bounds_the_gap(self, seed):
        for alpha, f in mode_family(seed):
            result, = isometry_check([Weight(alpha)], f)
            assert result.quadrature_gap <= result.quadrature_error_estimate

    @pytest.mark.parametrize("seed", [3, 4])
    def test_nested_estimate_bounds_the_gap_on_kernel_families(self, seed):
        # every mode has beta = 1 + alpha: L f is a kernel combination, and
        # its norm has the Gram closed form as well as the half-line one
        rng = np.random.default_rng(seed)
        for _ in range(30):
            alpha = float(rng.uniform(0.0, 3.0))
            points = (np.exp(rng.uniform(np.log(0.3), np.log(8.0), 2))
                      * np.exp(1j * rng.uniform(-np.pi / 4, np.pi / 4, 2)))
            f = halfline(*[(complex(rng.normal(), rng.normal()), 1.0 + alpha,
                            p.conjugate()) for p in points])
            result, = isometry_check([Weight(alpha)], f)
            assert result.lhs_closed_form is not None
            error = abs(result.lhs_quadrature - result.lhs_closed_form)
            assert error / result.rhs <= result.quadrature_error_estimate

    def test_estimate_is_written_in_each_row(self):
        f = halfline((1, 1.0, 2.0), (1, 2.0, 2.0))
        fine = isometry_check([Weight(0.0)], f)[0]
        assert 0.0 < fine.quadrature_gap <= fine.quadrature_error_estimate
        assert fine.to_dict()["quadrature_error_estimate"] == (
            fine.quadrature_error_estimate)
        # the 20-node rule is the default 39-node one at step 2h
        coarse, = isometry_check([Weight(0.0)], f,
                                 _cached_scheme(20, 256, 32.0))
        assert abs(coarse.lhs_quadrature - fine.lhs_quadrature) / fine.rhs == (
            pytest.approx(fine.quadrature_error_estimate, rel=1e-6))

    @pytest.mark.parametrize("alpha", [20.0, 60.0, 100.0])
    def test_x_power_past_the_float_range_is_taken_in_log_space(self, alpha):
        # x^alpha overflows at the largest x nodes (up to 4e18) while
        # x^alpha |L f|^2 does not, or underflows to 0 with |L f|^2; the
        # Gauss-Legendre rule refused alpha = 100 as "not finite"
        f = halfline((1, alpha / 2 + 2.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, = isometry_check([Weight(alpha)], f)
        assert result.quadrature_gap <= result.quadrature_error_estimate
        assert result.quadrature_gap <= 1e-3

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 3.0), st.lists(MODE, min_size=1, max_size=2))
    def test_property_modes_within_stated_error(self, alpha, modes):
        w = Weight(alpha)
        f = halfline(*[(c, alpha / 2 + offset, s) for c, offset, s in modes])
        result, = isometry_check([w], f)
        error = abs(result.lhs_quadrature - result.rhs)
        assert error <= LAPLACE_RTOL * mode_scale(w, f)

    @settings(max_examples=8, deadline=None)
    @given(st.floats(0.0, 3.0), MODE)
    def test_property_modes_against_mpmath(self, alpha, mode):
        # ||f||^2 by mpmath's own quadrature on the half-line, apart from
        # the Gamma closed forms
        mpmath = pytest.importorskip("mpmath")
        c, offset, s = mode
        beta = alpha / 2 + offset
        w = Weight(alpha)
        f = halfline((c, beta, s))
        with mpmath.workdps(20):
            # |c|^2 outside: quad's tolerance is absolute
            norm = abs(c) ** 2 * mpmath.quad(
                lambda t: t ** (2 * beta - alpha - 1)
                * mpmath.exp(-2 * s.real * t), [0, 1, mpmath.inf])
            norm *= mpmath.gamma(1 + alpha) / 2 ** alpha
        result, = isometry_check([w], f)
        assert abs(result.lhs_quadrature - float(norm)) <= (
            LAPLACE_RTOL * mode_scale(w, f))


class TestIsometryOverWeights:
    """One call over several weights evaluates L f once; every result must
    be bitwise the one-element batch of its weight."""

    @staticmethod
    def assert_matches_single_calls(f, weights, scheme=None):
        results = isometry_check(weights, f, scheme)
        assert len(results) == len(weights)
        for w, result in zip(weights, results):
            # repr tells every float apart bit for bit, -0.0 included
            assert repr([result]) == repr(isometry_check([w], f, scheme))
        return results

    def test_weight_list_matches_single_calls(self):
        f = halfline((1, 2.0, 1.0), (0.5j, 2.0, 2.0 + 0.5j))
        weights = [Weight(0.0), Weight(1.0), Weight(2.5)]
        results = self.assert_matches_single_calls(f, weights)
        assert results[1].lhs_closed_form is not None
        assert results[0].lhs_closed_form is None
        assert isometry_check(weights[:1], f) == results[:1]

    def test_non_finite_integrand_raises(self):
        # |L f|^2 overflows near z = 0, while ||f||^2 stays finite at both
        # alphas (2.5e307 and 2.5e303)
        f = halfline((1e150, 1.0, 1e-4))
        for weights in ([Weight(0.0)], [Weight(0.0), Weight(1.0)]):
            with pytest.raises(ValueError, match="not finite at a quadrature node"):
                isometry_check(weights, f)

    @pytest.mark.parametrize("terms,modes", [
        ([(1e200, 1.0, 1.0)], "mode 0 (1e+200+0j)*t^1*exp(-(1+0j)*t)"),
        ([(1, 1.0, 1e-60), (1e200, 1.0, 1e-100)],
         "modes 0 (1+0j)*t^1*exp(-(1e-60+0j)*t) and "
         "1 (1e+200+0j)*t^1*exp(-(1e-100+0j)*t)"),
    ], ids=["coefficient", "pair"])
    def test_closed_form_overflow_names_its_modes(self, terms, modes):
        # |c|^2 overflows, or the cross term 1e200 / 1e-120 does before
        # the second mode's own term: the first pair whose term leaves the
        # float range is named
        f = halfline(*terms)
        for weights in ([Weight(0.0)], [Weight(0.0), Weight(1.0)]):
            with pytest.raises(OverflowError) as info:
                isometry_check(weights, f)
            assert str(info.value) == f"the norm closed form of {modes} overflows"

    def test_closed_form_overflow_names_the_weight(self):
        # every term is finite; Gamma(11) / 2^10 carries the sum past 1.8e308
        f = halfline((1e153, 5.5, 1.0))
        assert math.isfinite(weighted_norm_squared(f, 10.0, 1.0))
        with pytest.raises(OverflowError, match="^the norm closed form of f "
                           "for the weight alpha = 10 overflows$"):
            mu_alpha_norm(Weight(10.0), f)

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

    @pytest.mark.parametrize("c,beta,s,message", [
        (math.nan, 1.0, 1.0, "mode coefficient 'c' is not finite: (nan+0j)"),
        (1.0, math.inf, 1.0, "mode coefficient 'beta' is not finite: inf"),
        (1.0, 1.0, complex(1, math.nan),
         "mode coefficient 's' is not finite: (1+nanj)"),
        (1.0, 1.0, math.inf, "mode coefficient 's' is not finite: (inf+0j)"),
    ], ids=["nan-c", "inf-beta", "nan-s", "inf-s"])
    def test_non_finite_parameters_are_refused(self, c, beta, s, message):
        # a NaN rate used to pass the Re s > 0 test, and an infinite one
        # reached the closed forms, which reported a false overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                ExpMonomial(c, beta, s)
        assert str(info.value) == message

    def test_weighted_norm_requires_pairwise_integrability(self):
        f = halfline((1, 0.3, 1.0))
        with pytest.raises(ValueError):
            weighted_norm_squared(f, 1.0, 1.0)

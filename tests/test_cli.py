import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bergkit
from bergkit.cli import (CliError, _apply_config, _build_parser,
                         _canonical_json, _flag, main,
                        parse_symbol)
from bergkit.kernels import nevanlinna_kernel, psd_check
from bergkit.laplace import HalfLineFunction
from bergkit.space import _cached_scheme
from bergkit.symbols import (STRING, Affine, CayleyMap, Compose, Moebius,
                             PowerMap, SampleGrid, symbol_from_dict)
from test_opnorm import _SYMBOLS


class TestParseSymbol:
    def test_affine(self):
        assert parse_symbol("affine:2,1") == Affine(2, 1)
        assert parse_symbol("affine:2,1,0.5") == Affine(2, 1 + 0.5j)

    def test_identity(self):
        assert parse_symbol("identity") == Affine(1, 0)

    def test_power(self):
        assert parse_symbol("power:0.5") == PowerMap(0.5)

    def test_moebius_complex_tokens(self):
        sym = parse_symbol("moebius:2,1+1j,0,1")
        assert sym == Moebius(2, 1 + 1j, 0, 1)

    def test_cayley(self):
        assert parse_symbol("cayley:1,0.5,0.5,1") == CayleyMap(1, 0.5, 0.5, 1)

    def test_compose_nested(self):
        sym = parse_symbol("compose:(affine:2,1;power:0.5)")
        assert sym == Compose(Affine(2, 1), PowerMap(0.5))
        nested = parse_symbol("compose:(compose:(affine:2,0;affine:1,1);power:1)")
        assert isinstance(nested.left, Compose)

    @pytest.mark.parametrize("bad", ["bogus:1", "affine:2", "compose:(x)",
                                     "power:a,b", "nonsense"])
    def test_rejects_malformed(self, bad):
        with pytest.raises((CliError, ValueError)):
            parse_symbol(bad)


def parse_halfline(text):
    """The function ``--f`` text names, as ``laplace`` reads the flag."""
    return _build_parser().parse_args(["laplace", "--f", text]).f


class TestParseHalfline:
    def test_basic(self):
        f = parse_halfline("t*exp(-t)")
        assert f == HalfLineFunction.build([(1.0, 1.0, 1.0)])

    def test_power_and_rate(self):
        f = parse_halfline("2.5*t^2*exp(-0.5*t)")
        assert f == HalfLineFunction.build([(2.5, 2.0, 0.5)])

    def test_no_t_prefactor(self):
        f = parse_halfline("exp(-3*t)")
        assert f == HalfLineFunction.build([(1.0, 0.0, 3.0)])

    def test_sum(self):
        f = parse_halfline("t*exp(-t)+2*t^2*exp(-3*t)")
        assert f == HalfLineFunction.build([(1.0, 1.0, 1.0), (2.0, 2.0, 3.0)])

    def test_complex_tokens(self):
        f = parse_halfline("(1+2j)*t*exp(-(2+1j)*t)")
        assert f == HalfLineFunction.build([(1 + 2j, 1.0, 2 + 1j)])

    def test_rejects_garbage(self):
        with pytest.raises(CliError):
            parse_halfline("sin(t)")

    @pytest.mark.parametrize("text,same_as", [
        ("1e+1*t*exp(-t)", "10*t*exp(-t)"),
        ("1E+1*t*exp(-t)", "10*t*exp(-t)"),
        ("2.5e+0*t^2*exp(-t)+1.e+1*exp(-2*t)",
         "2.5*t^2*exp(-t)+10*exp(-2*t)"),
        ("t^1e+1*exp(-t)", "t^10*exp(-t)"),
        ("t^2.5E+0*exp(-t)+t*exp(-t)", "t^2.5*exp(-t)+t*exp(-t)"),
    ], ids=["e+", "E+", "sum", "beta-e+", "beta-E+-sum"])
    def test_exponent_sign_is_not_a_term_break(self, text, same_as):
        # "1e+1*t*exp(-t)" used to split into '1e' and '1*t*exp(-t)'
        assert parse_halfline(text) == parse_halfline(same_as)


NORM_ROW_KEYS = {"symbol", "symbol_text", "alpha", "verdict", "lambda_hat",
                 "theoretical", "kernel_ratio", "gram_eig", "spectral_radius",
                 "essential_lower_bound", "rel_gap_kernel", "rel_gap_gram",
                 "estimates"}


def run_json(tmp_path, args):
    out = tmp_path / "out.json"
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


class TestNormCommand:
    def test_affine_row(self, tmp_path):
        code, data = run_json(tmp_path, ["norm", "--symbol", "affine:2,1",
                                         "--alpha", "0"])
        assert code == 0
        row = data["rows"][0]
        assert row["verdict"] == "BOUNDED"
        assert row["theoretical"] == pytest.approx(0.5)
        assert row["kernel_ratio"] == pytest.approx(0.5, rel=1e-4)

    def test_identity_all_ones(self, tmp_path):
        code, data = run_json(tmp_path, ["norm", "--symbol", "identity",
                                         "--alpha", "1.5"])
        row = data["rows"][0]
        assert row["theoretical"] == 1.0
        assert row["kernel_ratio"] == 1.0
        assert row["lambda_hat"] == 1.0

    def test_unbounded_row(self, tmp_path):
        code, data = run_json(tmp_path, ["norm", "--symbol", "power:0.5",
                                         "--alpha", "0"])
        assert code == 0
        row = data["rows"][0]
        assert row["verdict"] == "UNBOUNDED"
        assert row["theoretical"] is None

    @pytest.mark.parametrize("grid", [
        "1e4,1e8,40,9,1.0", "2e4,1e9,40,9,1.0",
        # 1, 3 and 15 ulps below 1e4: the first is math.nextafter(1e4, 0)
        "9999.999999999998,1e8,40,9,1.0", "9999.999999999995,1e8,40,9,1.0",
        "9999.999999999973,1e8,40,9,1.0"])
    def test_grid_from_1e4_out(self, tmp_path, grid):
        # the Gram points were capped at 1e4 on every grid: twelve equal
        # points at r_min = 1e4 (exit 1, "points must be distinct"), and
        # points below r_min past it; a few ulps below 1e4 the cap left
        # two to five distinct points (exit 1 too)
        code, data = run_json(tmp_path, ["norm", "--symbol", "affine:2,1",
                                         "--alpha", "1", "--grid", grid])
        assert code == 0
        row, = data["rows"]
        assert row["verdict"] == "BOUNDED"
        assert row["gram_eig"] <= row["theoretical"] * (1 + 1e-9)
        assert row["gram_eig"] == pytest.approx(row["theoretical"], rel=1e-6)

    @pytest.mark.parametrize("grid, alpha", [
        ("2000,3e7,40,9,1.0", "1"), ("200,3e7,40,9,1.0", "0"),
        ("500,3e7,40,9,1.0", "0"), ("9000,3e7,40,9,1.0", "0")])
    def test_grid_from_above_one_to_1e4(self, tmp_path, grid, alpha):
        # the cap at 1e4 squeezed the twelve Gram points into [r_min, 1e4],
        # and the pencil of that near-singular Gram matrix was refused
        # (exit 1, "matrix is not Hermitian"); the cap now sits four decades
        # above r_min
        code, data = run_json(tmp_path, ["norm", "--symbol", "affine:2,1",
                                         "--alpha", alpha, "--grid", grid])
        assert code == 0
        row, = data["rows"]
        assert row["verdict"] == "BOUNDED"
        assert row["gram_eig"] <= row["theoretical"] * (1 + 1e-6)

    def test_require_bounded_exit_code(self, tmp_path):
        out = tmp_path / "o.json"
        code = main(["norm", "--symbol", "power:0.5", "--alpha", "0",
                     "--require-bounded", "--out", str(out)])
        assert code == 2

    def test_invalid_symbol_exit_code(self, tmp_path):
        code = main(["norm", "--symbol", "affine:1,-1", "--out",
                     str(tmp_path / "o.json")])
        assert code == 1

    def test_unknown_flag_exit_code(self):
        assert main(["norm", "--bogus"]) == 1

    @pytest.mark.parametrize("command", ["norm", "angular", "spectral"])
    def test_no_symbol_exit_code(self, tmp_path, capsys, command):
        # a run that checks nothing says so instead of writing "rows": []
        out = tmp_path / "o.json"
        assert main([command, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {command} needs")
        assert not out.exists()

    def test_cayley_must_be_disc_self_map(self, tmp_path, capsys):
        # psi(zeta) = zeta - 1/2 leaves the disc: phi(0.05) = -0.168 is
        # outside H, so the map is refused before any estimate runs.
        out = str(tmp_path / "o.json")
        code = main(["norm", "--symbol", "cayley:1,-0.5,0,1", "--alpha", "0",
                     "--out", out])
        assert code == 1
        assert "not a disc self-map" in capsys.readouterr().err
        for symbol in ("cayley:1,-0.5,0,1",
                       {"kind": "cayley", "a": [1, 0], "b": [-0.5, 0],
                        "c": [0, 0], "d": [1, 0]}):
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"symbols": [symbol]}))
            assert main(["norm", "--config", str(config), "--out", out]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "not a disc self-map" in err

    def test_degenerate_cayley_refused(self, tmp_path, capsys):
        # psi = 1/2 is a constant disc self-map; its conjugate is the
        # constant 3, refused like moebius:0,1,0,1 and affine:0,1.
        out = str(tmp_path / "o.json")
        descriptor = {"kind": "cayley", "a": [0, 0], "b": [0.5, 0],
                      "c": [0, 0], "d": [1, 0]}
        for argv in (["--symbol", "cayley:0,0.5,0,1"],
                     ["--symbol", "json:" + json.dumps(descriptor)],
                     ["--symbol", "moebius:0,1,0,1"],
                     ["--symbol", "affine:0,1"]):
            assert main(["norm", *argv, "--alpha", "0", "--out", out]) == 1
            assert capsys.readouterr().err.startswith("error:")

    def test_csv_format(self, tmp_path, capsys):
        code = main(["norm", "--symbol", "affine:2,1", "--alpha", "0",
                     "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("symbol,alpha,verdict,lambda_hat")
        assert '"affine:2,1"' in lines[1]

    def test_round_trip_structures(self, tmp_path):
        _, data = run_json(tmp_path, ["norm", "--symbol", "affine:2,1",
                                      "--symbol", "power:0.5",
                                      "--alpha", "0", "--alpha", "1"])
        grid = SampleGrid.from_dict(data["grid"])
        assert grid == SampleGrid()
        for row in data["rows"]:
            rebuilt = symbol_from_dict(row["symbol"])
            assert rebuilt == parse_symbol(row["symbol_text"])

    def test_large_lambda_spectral_radius_finite(self, tmp_path):
        # lam = 8: the sixth iterate's trace still rises on the default
        # grid; a bounded phi has bounded iterates, so it stays finite
        symbol = ("compose:(moebius:0.75,1.25+0.5j,0,3.0;"
                  "moebius:1.25,1.0+0.25j,0,2.5)")
        code, data = run_json(tmp_path, ["norm", "--symbol", symbol,
                                         "--alpha", "2.52"])
        assert code == 0
        row = data["rows"][0]
        assert row["verdict"] == "BOUNDED"
        theoretical = row["theoretical"]
        assert theoretical == pytest.approx(8.0 ** 2.26)
        assert row["spectral_radius"] is not None
        assert 0.9 * theoretical <= row["spectral_radius"]
        assert row["spectral_radius"] <= theoretical * (1 + 1e-6)
        estimate = row["estimates"]["spectral_radius"]
        assert len(estimate["per_iterate"]) == 6
        for _, value in estimate["per_iterate"]:
            assert value is not None and value <= theoretical * (1 + 1e-6)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_SYMBOLS, min_size=1, max_size=4),
           st.lists(st.floats(0.0, 6.0), min_size=1, max_size=2))
    def test_each_number_once(self, tmp_path, phis, alphas):
        # A row's numbers are not restated under `estimates`, and each one
        # it leaves out comes back bit for bit from the traces kept there
        argv = ["norm"]
        for phi in phis:
            argv += ["--symbol", "json:" + json.dumps(phi.to_dict())]
        for alpha in alphas:
            argv += ["--alpha", repr(alpha)]
        code, data = run_json(tmp_path, argv)
        assert code == 0
        for row in data["rows"]:
            assert row.keys() == NORM_ROW_KEYS
            estimates = row["estimates"]
            assert estimates.keys() == {"angular", "lambda_used",
                                        "lambda_source", "gram_eig",
                                        "spectral_radius"}
            assert estimates["angular"].keys() == {
                "sup_ratio", "verdict", "trace", "known_lambda",
                "rel_error_vs_known"}
            if row["verdict"] != "BOUNDED":
                assert estimates["gram_eig"] is None
                assert estimates["spectral_radius"] is None
                assert row["kernel_ratio"] is None
                continue
            he = (2.0 + row["alpha"]) / 2.0
            ratios = estimates["angular"]["trace"]
            gram = estimates["gram_eig"]
            per_iterate = estimates["spectral_radius"]["per_iterate"]
            assert gram.keys() == {"points_used", "trace"}
            assert estimates["spectral_radius"].keys() == {"per_iterate"}
            assert row["kernel_ratio"] == max(ratios) ** he
            assert row["gram_eig"] == gram["trace"][-1][1]
            assert row["spectral_radius"] == per_iterate[-1][1]

    def test_cells_match_one_cell_runs(self, tmp_path):
        # one run over 3 symbols x 2 alphas gives the rows of the six
        # one-cell runs, in symbol-major order
        symbols = ["affine:2,1", "power:0.5", "cayley:2.0,1.0,0,3.0"]
        alphas = ["0.3", "2.7"]
        argv = ["norm", "--seed", "9"]
        for symbol in symbols:
            argv += ["--symbol", symbol]
        for alpha in alphas:
            argv += ["--alpha", alpha]
        _, data = run_json(tmp_path, argv)
        rows = []
        for symbol in symbols:
            for alpha in alphas:
                _, one = run_json(tmp_path, ["norm", "--seed", "9", "--symbol",
                                             symbol, "--alpha", alpha])
                rows += one["rows"]
        assert [row["verdict"] for row in rows] == ["BOUNDED"] * 2 + [
            "UNBOUNDED"] * 2 + ["BOUNDED"] * 2
        assert (json.dumps(data["rows"], sort_keys=True)
                == json.dumps(rows, sort_keys=True))

    def test_determinism_modulo_timestamp(self, tmp_path):
        _, a = run_json(tmp_path, ["norm", "--symbol", "affine:2,1",
                                   "--alpha", "0", "--seed", "5"])
        _, b = run_json(tmp_path, ["norm", "--symbol", "affine:2,1",
                                   "--alpha", "0", "--seed", "5"])
        a.pop("generated_at")
        b.pop("generated_at")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# a grid and every symbol family of test_opnorm, short grids included
_GRIDS = st.builds(lambda r_max, shells, angles: SampleGrid(
                       r_max=r_max, radial=shells, angular=angles),
                   st.floats(1e3, 1e8), st.integers(2, 60), st.integers(1, 9))


class TestAngularTrace:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_SYMBOLS, min_size=1, max_size=3), _GRIDS,
           st.sampled_from(["angular", "norm"]))
    def test_one_shell_maximum_per_radius(self, tmp_path, phis, grid,
                                          command):
        # Shell i of the trace has radius radii()[i] of the payload's grid
        # and holds the maximum of Re z / Re phi(z) over that shell's points
        argv = [command, "--grid", ",".join(map(repr, (
            grid.r_min, grid.r_max, grid.radial, grid.angular,
            grid.aperture)))]
        for phi in phis:
            argv += ["--symbol", "json:" + json.dumps(phi.to_dict())]
        code, data = run_json(tmp_path, argv)
        assert code == 0
        assert SampleGrid.from_dict(data["grid"]) == grid
        points = grid.points()
        for row, phi in zip(data["rows"], phis):
            angular = row["estimates"]["angular"] if command == "norm" else row
            trace = angular["trace"]
            assert len(trace) == data["grid"]["radial"]
            for value, shell in zip(trace, points):
                assert value == max(shell.real / phi(shell).real)


def _without_timestamp(text: str) -> list:
    return [line for line in text.splitlines() if '"generated_at"' not in line]


class TestGridFlag:
    @pytest.mark.parametrize("command", ["angular", "norm"])
    def test_default_grid_spelled_out(self, tmp_path, command):
        argv = [command, "--symbol", "affine:2,1", "--symbol", "power:0.5"]
        texts = []
        for grid in ([], ["--grid", "1,1000000,40,9,1.0471975511965976"]):
            out = tmp_path / "out.json"
            assert main(argv + grid + ["--out", str(out)]) == 0
            texts.append(out.read_text())
        assert _without_timestamp(texts[0]) == _without_timestamp(texts[1])

    @pytest.mark.parametrize("grid,message", [
        # the refusals of a config grid block, after the flag's name; each
        # read "--grid: need 0 < r_min < r_max < inf", "--grid shells: need
        # an integer, not '40.5'" and so on before --grid was translated
        # into a grid block
        ("1,inf,40,9,1",
         "argument --grid: grid key 'r_max': need a finite JSON number, "
         "not inf"),
        ("1,1e6,40.5,9,1",
         "argument --grid: grid key 'radial': need an integer, not '40.5'"),
        ("1,1e6,40,9,wide",
         "argument --grid: grid key 'aperture': need a number, not 'wide'"),
        ("1,1e6,40,9,2", "argument --grid: aperture must lie in (0, pi/2)"),
        ("1,1e6,40,100000000000000000000000000000,1",
         "argument --grid: grid key 'angular': need a JSON integer in "
         "[0, 2**63), not 100000000000000000000000000000"),
        ("1,1e6,9223372036854775808,9,1",
         "argument --grid: grid key 'radial': need a JSON integer in "
         "[0, 2**63), not 9223372036854775808"),
        ("1,1e6,-3,9,1",
         "argument --grid: grid key 'radial': need a JSON integer in "
         "[0, 2**63), not -3"),
        # 4_0 ran as 40
        ("1,1e6,4_0,9,1",
         "argument --grid: grid key 'radial': need an integer, not '4_0'"),
        ("1,1e6,40,9", "argument --grid: grid takes the fields r_min,r_max,"
                       "radial,angular,aperture, not '1,1e6,40,9'"),
        ("1,1e6,40,,1",
         "argument --grid: grid key 'angular': need an integer, not ''"),
    ], ids=["inf-r_max", "fractional-shells", "word-aperture", "aperture",
            "huge-angles", "2**63-shells", "negative-shells",
            "underscore-shells", "four-fields", "empty-angles"])
    def test_grid_errors_name_the_flag(self, capsys, grid, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["angular", "--symbol", "affine:2,1",
                         "--grid", grid]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", [
        ["norm", "--symbol", "affine:2,1"], ["psd"], ["interp"],
        ["spectral", "--symbol", "affine:2,1"],
        ["laplace", "--f", "t*exp(-t)"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("alpha", ["inf", "nan", "-inf", "1e999",
                                       "-Infinity", "-NaN"])
    def test_non_finite_alpha_names_the_flag(self, capsys, command, alpha):
        # inf used to fail in the estimators (norm and psd: "matrix has
        # non-finite entries", interp: "cannot convert float infinity to
        # integer", spectral: a JSON error) and nan as "alpha must exceed
        # -1"; a separate "-inf" token was taken for an option ("expected
        # one argument"); the refusal, "need a finite number, not 'inf'"
        # before, is now that of a config alphas item
        for flag in ([f"--alpha={alpha}"], ["--alpha", alpha]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(command + flag) == 1
            assert capsys.readouterr() == (
                "", f"error: argument --alpha: need a finite JSON number, "
                    f"not {float(alpha)!r}\n")

    @pytest.mark.parametrize("command,message", [
        (["norm", "--symbol", "affine:2,1"],
         "weight parameter must satisfy alpha > -1"),
        (["spectral", "--symbol", "affine:2,1"],
         "weight parameter must satisfy alpha > -1"),
        # interp checks alpha through Weight; it said "alpha must exceed -1"
        (["interp"], "weight parameter must satisfy alpha > -1"),
    ], ids=["norm", "spectral", "interp"])
    def test_finite_alpha_at_most_minus_one(self, capsys, command, message):
        assert main(command + ["--alpha", "-1"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("symbol,message", [
        # each read "<kind> coefficient '<key>' is not finite: <value>"
        # before the text was read as its descriptor
        ("affine:2,nan", "affine descriptor key 'b': need a finite JSON "
                         "number, not nan"),
        ("affine:inf,0", "affine descriptor key 'a': need a finite JSON "
                         "number, not inf"),
        ("power:nan", "power descriptor key 'p': need a finite JSON number, "
                      "not nan"),
        ("cayley:1,0,0,inf", "cayley descriptor key 'd': need a finite JSON "
                             "number, not inf"),
    ], ids=["affine-nan-b", "affine-inf-a", "power-nan", "cayley-inf-d"])
    def test_non_finite_coefficients_are_refused(self, capsys, symbol,
                                                 message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["angular", "--symbol", symbol]) == 1
        assert capsys.readouterr() == (
            "", f"error: argument --symbol: {message}\n")

    def test_grid_syntax_error(self, capsys):
        # "error: grid syntax is r_min,r_max,shells,angles,aperture" before
        assert main(["angular", "--symbol", "affine:2,1",
                     "--grid", "1,2,3"]) == 1
        assert capsys.readouterr() == (
            "", "error: argument --grid: grid takes the fields r_min,r_max,"
                "radial,angular,aperture, not '1,2,3'\n")

    @pytest.mark.parametrize("symbol, verdict", [("affine:2,0", "finite"),
                                                 ("affine:2,1", "inconclusive")])
    def test_short_grid_reads_the_spread(self, tmp_path, symbol, verdict):
        # fewer shells than the divergence window: the verdict comes from
        # the spread of the whole trace
        code, data = run_json(tmp_path, ["angular", "--symbol", symbol,
                                         "--grid", "1,1e6,4,9,0.5"])
        assert code == 0
        row = data["rows"][0]
        assert len(row["trace"]) == 4
        assert row["verdict"] == verdict


MALFORMED_DESCRIPTORS = [
    ({"kind": "affine"}, "affine descriptor has no 'a' key"),
    ({"kind": "compose", "left": {"kind": "power", "p": 0.5}},
     "compose descriptor has no 'right' key"),
    ([1], "a symbol descriptor is a JSON object, not [1]"),
    ("affine", "a symbol descriptor is a JSON object, not 'affine'"),
    ({"kind": ["affine"], "a": 2.0, "b": 0},
     "unknown symbol kind: ['affine']"),
    ({"kind": "power", "p": None},
     "power descriptor key 'p': need a JSON number, not None"),
    ({"kind": "power", "p": 0.5, "q": 3},
     "power descriptor has unknown keys: ['q']"),
    ({"kind": "affine", "a": 2.0, "b": [1, 0, 5]},
     "affine descriptor key 'b': need [re, im] or a number, not [1, 0, 5]"),
    ({"kind": "moebius", "a": [1, True], "b": 0, "c": 0, "d": 1},
     "moebius descriptor key 'a': need a JSON number, not True"),
    ({"kind": "compose", "left": {"kind": "affine", "a": "2", "b": 0},
      "right": {"kind": "power", "p": 0.5}},
     "compose descriptor key 'left': affine descriptor key 'a': need a JSON "
     "number, not '2'"),
]
_DESCRIPTOR_IDS = ["no-a", "no-right", "list", "string", "list-kind", "null",
                   "unknown-key", "three-entry-pair", "bool", "nested-string"]


class TestMalformedDescriptors:
    # each used to end in a traceback (KeyError, AttributeError,
    # TypeError) or to be accepted with a key ignored
    @pytest.mark.parametrize("descriptor, message", MALFORMED_DESCRIPTORS,
                             ids=_DESCRIPTOR_IDS)
    def test_symbol_flag(self, tmp_path, capsys, descriptor, message):
        # the flag is named before the message since --symbol text is read
        # as its descriptor
        out = tmp_path / "out.json"
        assert main(["angular", "--symbol", "json:" + json.dumps(descriptor),
                     "--out", str(out)]) == 1
        assert (capsys.readouterr().err
                == f"error: argument --symbol: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("descriptor, message", MALFORMED_DESCRIPTORS,
                             ids=_DESCRIPTOR_IDS)
    def test_run_config(self, tmp_path, capsys, descriptor, message):
        # a string entry of a run-config list is mini-syntax, not JSON: it
        # read "unrecognized symbol 'affine'"; the key and item are named
        # since the run-config reads its symbols
        if isinstance(descriptor, str):
            message = "affine descriptor takes the fields a,b, not ''"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"symbols": [descriptor]}))
        out = tmp_path / "out.json"
        assert main(["norm", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: run-config key 'symbols': item 0: {message}\n")
        assert not out.exists()


class TestParserReuse:
    def test_no_state_leaks_into_the_next_call(self, tmp_path, capsys):
        # The parser is built once per process.  Neither the appended
        # --symbol/--alpha values nor config symbols of one call may reach
        # the next: a bare call fails as it does in a fresh process.
        assert _build_parser() is _build_parser()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"symbols": ["affine:3,1"],
                                      "alphas": [0.5]}))
        out = str(tmp_path / "o.json")
        assert main(["norm", "--symbol", "affine:2,1", "--alpha", "0",
                     "--alpha", "1", "--config", str(config),
                     "--out", out]) == 0
        assert main(["norm", "--config", str(config), "--out", out]) == 0
        capsys.readouterr()
        assert main(["norm"]) == 1
        captured = capsys.readouterr()
        env = dict(os.environ,
                   PYTHONPATH=str(Path(bergkit.__file__).parents[1]))
        fresh = subprocess.run([sys.executable, "-m", "bergkit.cli", "norm"],
                               capture_output=True, text=True, env=env,
                               cwd=tmp_path, timeout=60)
        assert fresh.returncode == 1
        assert "needs --symbol" in captured.err
        assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr)


class TestOtherCommands:
    def test_psd_gram(self, tmp_path):
        code, data = run_json(tmp_path, ["psd", "--kernel", "gram",
                                         "--alpha", "1", "--points", "6",
                                         "--trials", "5", "--seed", "2"])
        assert code == 0
        assert data["failures"] == 0
        assert len(data["verdicts"]) == 5

    def test_psd_defect_kernel(self, tmp_path):
        code, data = run_json(tmp_path, ["psd", "--kernel", "K:2",
                                         "--symbol", "affine:2,1",
                                         "--points", "8", "--trials", "5"])
        assert code == 0
        assert data["failures"] == 0

    def test_psd_batch_matches_single_checks(self, tmp_path):
        code, data = run_json(tmp_path, ["psd", "--kernel", "nevanlinna",
                                         "--symbol", "affine:2,1",
                                         "--alpha", "0", "--alpha", "1",
                                         "--points", "6", "--trials", "3"])
        assert code == 0
        assert [(v["alpha"], v["trial"]) for v in data["verdicts"]] == [
            (a, t) for a in (0.0, 1.0) for t in range(3)]
        for v in data["verdicts"]:
            pts = [complex(re, im) for re, im in v["points"]]
            single, = psd_check([nevanlinna_kernel(Affine(2, 1), pts)])
            assert v["min_eigenvalue"] == single.min_eigenvalue
            assert v["threshold"] == single.threshold

    def test_psd_needs_symbol_for_defect(self, tmp_path):
        assert main(["psd", "--kernel", "K:2"]) == 1

    @pytest.mark.parametrize("argv,message", [
        (["--trials", "-3"], "argument --trials: need a JSON integer in "
                             "[0, 2**63), not -3"),
        (["--trials", "0"], "--trials must be at least 1"),
        (["--points", "0"], "--points must be at least 1"),
        # each count read "invalid int value" before it was read as --seed is
        (["--points", "1_0", "--trials", "1"],
         "argument --points: need an integer, not '1_0'"),
        (["--trials", "2.0"], "argument --trials: need an integer, not '2.0'"),
        (["--kernel", "bogus", "--trials", "0"],
         "argument --kernel: unknown kernel 'bogus' "
         "(gram | K:<n> | nevanlinna)"),
        # read "K:<n> kernels need an integer n >= 1, not 'K:0'" after the
        # symbol was checked
        (["--kernel", "K:0", "--symbol", "affine:2,1", "--trials", "0"],
         "argument --kernel: unknown kernel 'K:0'"),
        # read "K:<n> kernels need --symbol"
        (["--kernel", "K:2", "--trials", "0"],
         "--kernel K:2 takes one symbol, not 0"),
        (["--kernel", "nevanlinna"], "--kernel nevanlinna takes one symbol, "
                                     "not 0"),
        # each used the first symbol, or none, and dropped the rest
        (["--kernel", "K:2", "--symbol", "affine:2,1", "--symbol", "power:0.5",
          "--points", "3", "--trials", "1"],
         "--kernel K:2 takes one symbol, not 2"),
        (["--kernel", "gram", "--symbol", "power:0.5"],
         "--kernel gram takes no symbol, not 1"),
        (["--kernel", "K:2", "--symbol", "power:0.5"],
         "symbol has no finite angular derivative"),
        # ran with the inconclusive estimate lambda_hat = 3.98 as lam
        (["--kernel", "K:2", "--symbol", "power:0.9"],
         "symbol has no finite angular derivative"),
        # K:3_0 ran as K:30; n is a count, as --seed is
        (["--kernel", "K:3_0", "--symbol", "affine:2,1", "--trials", "1"],
         "argument --kernel: unknown kernel 'K:3_0'"),
        (["--kernel", "K:1e1", "--symbol", "affine:2,1", "--trials", "1"],
         "argument --kernel: unknown kernel 'K:1e1'"),
        # lam = 0.5 ended in "(34, 'Numerical result out of range')" and
        # lam = 2 in "matrix has non-finite entries", after numpy warnings
        (["--kernel", "K:2000", "--symbol", "affine:2,1", "--points", "3",
          "--trials", "1"], "K^n with n = 2000 leaves the float range"),
        (["--kernel", "K:2000", "--symbol", "affine:0.5,1", "--points", "3",
          "--trials", "1"], "K^n with n = 2000 leaves the float range"),
    ], ids=["negative-trials", "zero-trials", "zero-points", "points-1_0",
            "trials-2.0", "bogus-kernel", "K0", "K2-without-symbol",
            "nevanlinna-without-symbol", "K2-two-symbols", "gram-with-symbol",
            "K2-unbounded-symbol", "K2-inconclusive-symbol", "K3_0", "K1e1",
            "K2000-lam-half", "K2000-lam-2"])
    def test_psd_input_checks(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.json"
        assert main(["psd", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_angular(self, tmp_path):
        code, data = run_json(tmp_path, ["angular", "--symbol", "affine:3,2"])
        assert code == 0
        row = data["rows"][0]
        assert row["verdict"] == "finite"
        assert row["lambda_hat"] == pytest.approx(1 / 3, rel=1e-3)

    def test_laplace_expression(self, tmp_path):
        code, data = run_json(tmp_path, ["laplace", "--f", "t*exp(-t)",
                                         "--alpha", "0"])
        assert code == 0
        row = data["rows"][0]
        assert row["lhs_closed_form"] == pytest.approx(0.25)
        assert row["rhs"] == pytest.approx(0.25)
        rebuilt = HalfLineFunction.from_dict(row["f"])
        assert rebuilt == parse_halfline("t*exp(-t)")

    def test_laplace_json_descriptor(self, tmp_path):
        descr = json.dumps([{"c": [1.0, 0.0], "beta": 2.0, "s": [1.0, 0.0]}])
        code, data = run_json(tmp_path, ["laplace", "--f", "json:" + descr,
                                         "--alpha", "1"])
        assert code == 0
        assert data["rows"][0]["rhs"] == pytest.approx(0.125)

    @pytest.mark.parametrize("descr,message", [
        ('[{"c": [1, 0]}]', "item 0: mode has no 'beta' key"),
        ("[[1, 2, 3]]", "item 0: a mode is a JSON object, not [1, 2, 3]"),
        ('[{"c": true, "beta": 1, "s": [1, 0]}]',
         "item 0: mode key 'c': need a JSON number, not True"),
        ('[{"c": [1, 0], "beta": 1, "s": [1, 0]}, '
         '{"c": [1, 0], "beta": "1", "s": [1, 0]}]',
         "item 1: mode key 'beta': need a JSON number, not '1'"),
        ('[{"c": [1, 0], "beta": NaN, "s": [1, 0]}]',
         "item 0: mode key 'beta': need a finite JSON number, not nan"),
        ('[{"c": [1, 0], "beta": 1, "s": [1, 0], "x": 0}]',
         "item 0: mode has unknown keys: ['x']"),
        ('[{"c": [1, 0], "beta": 1' + "0" * 400 + ', "s": [1, 0]}]',
         "item 0: mode key 'beta': need a finite JSON number, not 1000"),
        ("{}", "need a JSON list, not {}"),
        ("[{", "Expecting property name"),
    ], ids=["missing-keys", "list-mode", "bool-c", "string-beta", "nan-beta",
            "huge-int-beta", "extra-key", "object", "not-json"])
    def test_laplace_malformed_json_descriptor(self, tmp_path, capsys, descr,
                                               message):
        out = tmp_path / "out.json"
        # "error: argument --f-json: ..." before the list was --f json:
        assert main(["laplace", "--f", "json:" + descr,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --f: " + message)
        assert not out.exists()

    @pytest.mark.parametrize("c,s", [(1, [1, 0]), (2, 1.5)],
                             ids=["bare-c", "bare-c-and-s"])
    def test_laplace_json_bare_number_is_a_complex(self, tmp_path, c, s):
        # a complex value is [re, im] or a bare number, in every JSON input
        # ({"c": 1} used to be refused here alone)
        def rows(mode):
            argv = ["laplace", "--f", "json:" + json.dumps([mode])]
            return run_json(tmp_path, argv)[1]["rows"]
        pair = rows({"c": [c, 0], "beta": 1, "s": s if isinstance(s, list)
                     else [s, 0]})
        assert rows({"c": c, "beta": 1, "s": s}) == pair
        assert pair[0]["f"][0]["c"] == [float(c), 0.0]

    def test_laplace_empty_json_descriptor_is_the_zero_function(self,
                                                                tmp_path):
        code, data = run_json(tmp_path, ["laplace", "--f", "json:[]"])
        assert code == 0
        row = data["rows"][0]
        assert row["f"] == [] and row["rhs"] == 0.0 and row["gap"] == 0.0

    def test_laplace_transform_past_the_float_range_is_zero(self, tmp_path,
                                                            capsys):
        # (1e8 + z)^51 overflows at every node, while L f = 3e64 / that
        # underflows to 0, as the closed-form norm does
        code, data = run_json(tmp_path, ["laplace", "--f", "t^50*exp(-1e8*t)"])
        assert code == 0 and capsys.readouterr().err == ""
        row = data["rows"][0]
        assert row["lhs_quadrature"] == row["rhs"] == row["gap"] == 0.0

    @pytest.mark.parametrize("argv,message", [
        (["--f", "t^400*exp(-t)"],
         "Gamma(800) of mode 0 (1+0j)*t^400*exp(-(1+0j)*t) overflows"),
        (["--f", "t*exp(-t)+t^300*exp(-2*t)"],
         "Gamma(301) of modes 0 (1+0j)*t^1*exp(-(1+0j)*t) and "
         "1 (1+0j)*t^300*exp(-(2+0j)*t) overflows"),
        (["--f", "1e-150*t^171*exp(-t)", "--alpha", "170.5"],
         "Gamma(172) of mode 0 (1e-150+0j)*t^171*exp(-(1+0j)*t) overflows"),
        (["--f", "t^172*exp(-t)", "--alpha", "200"],
         "Gamma(201) of the weight alpha = 200 overflows"),
    ], ids=["norm-mode", "norm-pair", "transform-mode", "weight"])
    def test_laplace_gamma_overflow_names_its_source(self, tmp_path, capsys,
                                                     argv, message):
        out = tmp_path / "out.json"
        assert main(["laplace", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        # (2e-8)^100 underflows to 0, so the norm term 1 / 0 is not finite
        (["--f", "t^50*exp(-1e-8*t)"],
         "mode 0 (1+0j)*t^50*exp(-(1e-08+0j)*t)"),
        # ||f||^2 = Gamma(171.5) Gamma(171.5) / 2^342 is past 1.8e308
        (["--f", "t^171*exp(-t)", "--alpha", "170.5"],
         "f for the weight alpha = 170.5"),
    ], ids=["mode", "weight"])
    def test_laplace_norm_overflow_names_its_source(self, tmp_path, capsys,
                                                    argv, message):
        out = tmp_path / "out.json"
        assert main(["laplace", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: the norm closed form of {message} overflows\n")
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["default", "doubled"])
    def test_laplace_alphas_match_separate_runs(self, tmp_path, scheme):
        # One op evaluates L f once for all of its alphas; each row must be
        # the one a run with that alpha alone writes.
        args = ["laplace", "--f",
                "(1+2j)*t^2.3*exp(-(1.5+0.5j)*t)+(0.5)*t^3.1*exp(-2*t)"]
        if scheme == "doubled":
            config = tmp_path / "doubled.json"
            config.write_text(json.dumps(
                {"quadrature": {"n_x": 320, "n_y": 800, "y_max": 400.0}}))
            args += ["--config", str(config)]
        alphas = ["0.7", "1.9"]
        _, together = run_json(tmp_path, args + ["--alpha", alphas[0],
                                                 "--alpha", alphas[1]])
        separate = [run_json(tmp_path, args + ["--alpha", a])[1]["rows"][0]
                    for a in alphas]
        assert json.dumps(together["rows"]) == json.dumps(separate)

    @pytest.mark.parametrize("f,message", [
        ("nan*t*exp(-t)", "item 0: mode key 'c': need a finite JSON number, "
                          "not nan"),
        ("t*exp(-inf*t)", "item 0: mode key 's': need a finite JSON number, "
                          "not inf"),
    ], ids=["nan-c", "inf-s"])
    def test_laplace_non_finite_mode_is_refused(self, tmp_path, capsys, f,
                                                message):
        # each used to end in "the norm closed form of mode 0 ... overflows",
        # and then read "mode coefficient 'c' is not finite: (nan+0j)"
        # before --f was read as its list of modes
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["laplace", "--f", f, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: argument --f: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["-1e-5", "-2.5E-1", "-.5e0", "-3e-1"])
    def test_negative_alpha_in_exponent_form(self, tmp_path, alpha):
        code, data = run_json(tmp_path, ["interp", "--alpha", alpha])
        assert code == 0
        assert data["rows"][0]["alpha"] == float(alpha)

    def test_interp(self, tmp_path):
        code, data = run_json(tmp_path, ["interp", "--alpha", "1"])
        assert code == 0
        row = data["rows"][0]
        assert row["theta"] == pytest.approx(0.5)
        assert row["ratio"] == pytest.approx(2 ** 0.5)

    @pytest.mark.parametrize("argv,message", [
        # each warned and then read "matrix has non-finite entries"
        (["norm", "--symbol", "affine:1e-160,0"],
         "k_w(z) at alpha = 0 leaves the float range"),
        (["psd", "--alpha", "500", "--points", "3", "--trials", "1"],
         "k_w(z) at alpha = 500 leaves the float range"),
        (["norm", "--symbol", "affine:2,1", "--alpha", "70"],
         "Gram diagonal k_z(z) at alpha = 70 is not positive at z = "
         "10000+0j"),
        # warned and exited 0 with "value": null
        (["spectral", "--symbol", "affine:1e-103,0", "--iterations", "3"],
         "Re z / Re phi^3(z) leaves the float range on the grid"),
        # warned and then read "symbol leaves the half-plane at z =
        # 0.5-0.866025j", for phi^3, whose images underflow to 0
        (["spectral", "--symbol", "affine:1e-160,0", "--iterations", "3"],
         "Re z / Re phi^2(z) leaves the float range on the grid"),
        # read "math range error"
        (["interp", "--alpha", "126"],
         "Gamma(255) of the weight alpha = 126 overflows"),
        # read "(34, 'Numerical result out of range')"
        (["norm", "--symbol", "affine:2,1", "--alpha", "1100"],
         "weight parameter alpha = 1100 puts 2^alpha (1 + alpha) past the "
         "float range"),
        # read "(34, 'Numerical result out of range')": the norm is 10^351
        (["spectral", "--symbol", "affine:0.1,0", "--alpha", "700"],
         "the spectral estimate of iterate 1 for Affine(a=0.1, b=0j) at "
         "alpha = 700 leaves the float range"),
    ], ids=["kernel-underflow", "kernel-nan", "gram-diagonal", "iterate-3",
            "iterate-2", "interp-gamma", "weight-const", "spectral-power"])
    def test_float_range_is_refused_by_name(self, tmp_path, capsys, argv,
                                            message):
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 1
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.count("\n") == 1
        assert err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["norm", "--symbol", "affine:2,1", "--alpha", "69"],
        ["interp", "--alpha", "125"],
        ["spectral", "--symbol", "affine:1e-103,0", "--iterations", "2"],
    ], ids=lambda argv: argv[0])
    def test_float_range_edges_run(self, tmp_path, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run_json(tmp_path, argv)
        assert code == 0

    def test_spectral(self, tmp_path):
        code, data = run_json(tmp_path, ["spectral", "--symbol", "affine:2,1",
                                         "--alpha", "0", "--iterations", "4"])
        assert code == 0
        row = data["rows"][0]
        assert row["value"] == pytest.approx(0.5, rel=1e-3)
        assert len(row["per_iterate"]) == 4


def csv_text(value) -> str:
    # a float is written by repr, as in the JSON; null is an empty cell
    if value is None:
        return ""
    return json.dumps(value) if isinstance(value, float) else str(value)


class TestCsvOutput:
    @pytest.mark.parametrize("argv", [
        ["norm", "--symbol", "affine:2,1", "--symbol", "power:0.5",
         "--alpha", "0", "--alpha", "1.5"],
        ["angular", "--symbol", "affine:3,2", "--symbol", "power:0.5"],
        ["spectral", "--symbol", "affine:2,1", "--alpha", "0",
         "--alpha", "1"],
        ["laplace", "--f", "t^2*exp(-t)", "--alpha", "0", "--alpha", "2"],
        ["interp", "--alpha", "1", "--alpha", "2.5"],
    ], ids=lambda argv: argv[0])
    def test_every_scalar_row_field_is_written(self, tmp_path, argv):
        _, data = run_json(tmp_path, argv)
        out = tmp_path / "out.csv"
        assert main(argv + ["--format", "csv", "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            table = list(csv.DictReader(handle))
        assert len(table) == len(data["rows"])
        for row, written in zip(data["rows"], table):
            scalars = {("symbol" if key == "symbol_text" else key): value
                       for key, value in row.items()
                       if not isinstance(value, (dict, list))}
            assert set(written) == set(scalars)
            for key, value in scalars.items():
                assert written[key] == csv_text(value), key

    @pytest.mark.parametrize("command", ["psd", "report"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_json_only_commands_refuse_csv(self, tmp_path, capsys, command,
                                           source):
        # they have no rows, so they take no --format and no format key
        out = tmp_path / "out.csv"
        if source == "flag":
            extra = ["--format", "csv"]
            message = "unrecognized arguments: --format csv"
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"format": "csv"}))
            extra = ["--config", str(config)]
            message = "run-config has unknown keys: ['format']"
        assert main([command, *extra, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()


class TestRunConfig:
    def write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_config_supplies_sweep(self, tmp_path):
        config = self.write_config(tmp_path, {
            "symbols": ["affine:2,1", {"kind": "power", "p": 0.5}],
            "alphas": [0.0, 1.0],
            "grid": {"aperture": 1.0471975511965976, "r_min": 1.0,
                     "r_max": 1e6, "radial": 40, "angular": 9},
            "seed": 3,
        })
        code, data = run_json(tmp_path, ["norm", "--config", config])
        assert code == 0
        assert data["seed"] == 3
        assert len(data["rows"]) == 4
        texts = {row["symbol_text"] for row in data["rows"]}
        assert "affine:2,1" in texts

    def test_flags_override_config(self, tmp_path):
        config = self.write_config(tmp_path, {"alphas": [5.0], "seed": 9})
        code, data = run_json(tmp_path, ["norm", "--symbol", "identity",
                                         "--alpha", "0", "--config", config])
        assert code == 0
        assert data["rows"][0]["alpha"] == 0.0
        assert data["seed"] == 9  # seed not given on the command line

    def test_quadrature_from_config(self, tmp_path):
        config = self.write_config(tmp_path, {
            "quadrature": {"n_x": 40, "n_y": 100, "y_max": 100.0}})
        code, data = run_json(tmp_path, ["laplace", "--f", "t*exp(-t)",
                                         "--alpha", "0", "--config", config])
        assert code == 0
        assert data["rows"][0]["lhs_closed_form"] == pytest.approx(0.25)

    def test_explicit_seed_zero_beats_config(self, tmp_path):
        config = self.write_config(tmp_path, {"seed": 7})
        _, data = run_json(tmp_path, ["angular", "--symbol", "affine:2,1",
                                      "--config", config, "--seed", "0"])
        assert data["seed"] == 0
        _, data = run_json(tmp_path, ["angular", "--symbol", "affine:2,1",
                                      "--config", config])
        assert data["seed"] == 7

    def test_explicit_json_format_beats_config(self, tmp_path, capsys):
        config = self.write_config(tmp_path, {"format": "csv"})
        args = ["norm", "--symbol", "identity", "--config", config]
        assert main(args + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "norm"
        assert main(args) == 0
        assert capsys.readouterr().out.startswith("symbol,alpha,verdict")

    def test_config_schemes_are_shared(self, tmp_path):
        config = self.write_config(tmp_path, {
            "quadrature": {"n_x": 40, "n_y": 100, "y_max": 100.0}})
        schemes = []
        for _ in range(2):
            args = _build_parser().parse_args(
                ["laplace", "--f", "t*exp(-t)", "--config", config])
            _apply_config(args)
            schemes.append(args.quadrature)
        assert schemes[0] is schemes[1]
        assert (schemes[0].n_x, schemes[0].n_y) == (40, 100)

    def test_partial_grid_block_uses_defaults(self, tmp_path):
        config = self.write_config(tmp_path, {
            "grid": {"r_min": 1.0, "r_max": 1e5, "radial": 30,
                     "angular": 7}})
        code, data = run_json(tmp_path, ["angular", "--symbol", "affine:2,1",
                                         "--config", config])
        assert code == 0
        assert data["grid"] == SampleGrid(r_max=1e5, radial=30,
                                          angular=7).to_dict()
        assert data["grid"]["aperture"] == SampleGrid().aperture

    def test_non_numeric_grid_value_is_config_error(self, tmp_path, capsys):
        config = self.write_config(tmp_path, {"grid": {"aperture": "wide"}})
        assert main(["angular", "--symbol", "affine:2,1",
                     "--config", config]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command,payload", [
        (["laplace", "--f", "t*exp(-t)"], {"alphas": [None]}),
        (["angular", "--symbol", "affine:2,1"], {"grid": {"aperture": None}}),
        (["laplace", "--f", "t*exp(-t)"], {"quadrature": {"n_x": None}}),
    ], ids=["alphas", "grid", "quadrature"])
    def test_null_value_is_config_error(self, tmp_path, capsys, command,
                                        payload):
        config = self.write_config(tmp_path, payload)
        assert main(command + ["--config", config]) == 1
        key = next(iter(payload))
        assert capsys.readouterr().err.startswith(
            f"error: run-config key {key!r}: ")

    @pytest.mark.parametrize("fmt", ["xml", None, ["csv"]],
                             ids=["xml", "null", "list"])
    def test_format_must_be_json_or_csv(self, tmp_path, capsys, fmt):
        config = self.write_config(tmp_path, {"format": fmt})
        assert main(["interp", "--alpha", "1", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: run-config key 'format': "
                                       "need one of 'json', 'csv', not ")
        assert captured.out == ""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.fixed_dictionaries({}, optional={
               "seed": st.integers(0, 10**6),
               "format": st.sampled_from(["json", "csv"]),
               "alphas": st.lists(st.floats(-0.9, 10.0), min_size=1,
                                  max_size=3)}),
           st.one_of(st.none(), st.just(0), st.integers(1, 10**6)),
           st.sampled_from([None, "json", "csv"]),
           st.one_of(st.none(), st.lists(st.floats(-0.9, 10.0), min_size=1,
                                         max_size=3)))
    def test_property_explicit_flags_win(self, tmp_path, config, seed, fmt,
                                         alphas):
        argv = ["interp", "--config", self.write_config(tmp_path, config)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        if fmt is not None:
            argv += ["--format", fmt]
        for alpha in alphas or []:
            argv += ["--alpha", repr(alpha)]
        args = _build_parser().parse_args(argv)
        _apply_config(args)
        assert args.seed == (seed if seed is not None
                             else config.get("seed", 0))
        assert args.format == (fmt if fmt is not None
                               else config.get("format", "json"))
        assert args.alphas == (alphas if alphas is not None
                               else config.get("alphas", [1.0]))

    def test_unknown_keys_rejected(self, tmp_path):
        config = self.write_config(tmp_path, {"mystery": 1})
        assert main(["norm", "--symbol", "identity", "--config", config]) == 1

    @pytest.mark.parametrize("payload", [None, [1], 5],
                             ids=["null", "list", "number"])
    def test_config_must_be_an_object(self, tmp_path, capsys, payload):
        # null and a number used to end in a TypeError traceback
        config = self.write_config(tmp_path, payload)
        assert main(["angular", "--symbol", "affine:2,1",
                     "--config", config]) == 1
        assert capsys.readouterr().err == ("error: a run-config is a JSON "
                                           f"object, not {payload!r}\n")

    @pytest.mark.parametrize("command,payload,message", [
        (["angular", "--symbol", "affine:2,1"], {"grid": {"rmax": 1e3}},
         "run-config key 'grid': grid has unknown keys: ['rmax']"),
        (["laplace", "--f", "t*exp(-t)"], {"quadrature": {"nx": 320}},
         "run-config key 'quadrature': quadrature has unknown keys: "
         "['nx']"),
    ], ids=["grid", "quadrature"])
    def test_unknown_block_keys_rejected(self, tmp_path, capsys, command,
                                         payload, message):
        # a mistyped key used to run silently with the default value
        config = self.write_config(tmp_path, payload)
        assert main(command + ["--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("out", [["x.json"], 5, True, None],
                             ids=["list", "number", "true", "null"])
    def test_out_must_be_a_string(self, tmp_path, out):
        # a list ended in a TypeError traceback, 5 opened file descriptor 5
        # and true wrote to fd 1 and closed it, so each runs in its own
        # process
        config = self.write_config(tmp_path, {"out": out})
        env = dict(os.environ,
                   PYTHONPATH=str(Path(bergkit.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "bergkit.cli", "interp", "--alpha", "1",
             "--config", config],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=60)
        assert result.returncode == 1
        assert result.stderr.startswith("error: run-config key 'out': need a "
                                        "JSON string, not ")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""


class TestFileErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["interp", "--config", missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and missing in err
        assert "Traceback" not in err

    def test_out_into_missing_directory(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "out.json")
        assert main(["interp", "--alpha", "1", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and out in err
        assert "Traceback" not in err


# subcommand -> the shared inputs it reads, besides seed and out, which
# every one reads
READS = {
    "norm": {"symbols", "alphas", "grid", "format"},
    "psd": {"symbols", "alphas", "grid"},
    "angular": {"symbols", "grid", "format"},
    "laplace": {"alphas", "quadrature", "format"},
    "interp": {"alphas", "format"},
    "spectral": {"symbols", "alphas", "grid", "format"},
    "report": set(),
}
# shared input -> (its flag with a value, or None, its run-config value,
# the value either gives)
INPUTS = {
    "symbols": (["--symbol", "affine:3,1"], ["affine:3,1"],
                [("affine:3,1", Affine(3.0, 1.0))]),
    "alphas": (["--alpha", "2.5"], [2.5], [2.5]),
    "grid": (["--grid", "1,1e5,20,5,0.5"],
             {"aperture": 0.5, "r_max": 1e5, "radial": 20, "angular": 5},
             SampleGrid(0.5, 1.0, 1e5, 20, 5)),
    "quadrature": (None, {"n_x": 40, "n_y": 100, "y_max": 100.0},
                   _cached_scheme(40, 100, 100.0)),
    "format": (["--format", "csv"], "csv", "csv"),
    "seed": (["--seed", "3"], 3, 3),
    "out": (["--out", "x.json"], "x.json", "x.json"),
}
# flags that are a command's own, not shared inputs
OWN_FLAGS = {"norm": {"--require-bounded"},
             "psd": {"--kernel", "--points", "--trials"},
             "laplace": {"--f"}, "spectral": {"--iterations"}}
# the least each command needs besides the input under test
BASE = {"psd": ["--trials", "1", "--points", "2"],
        "laplace": ["--f", "t*exp(-t)"], "spectral": ["--iterations", "1"]}


def _base(command, key):
    argv = [command, *BASE.get(command, [])]
    if "symbols" in READS[command] and key != "symbols":
        argv += ["--symbol", "affine:2,1"]
    return argv


class TestInputsByCommand:
    """Each subcommand takes the flag and the run-config key of every
    shared input it reads, and refuses those of the inputs it does not."""

    CASES = [(command, key, source) for command in READS for key in INPUTS
             for source in ("flag", "config")
             if source == "config" or INPUTS[key][0]]  # quadrature: no flag

    def test_flag_and_key_counts(self):
        # seven flags that did nothing went: 53 -> 46 settable flags, and
        # 49 -> 33 (command, run-config key) pairs; --f-json, a second flag
        # for --f, went: 46 -> 45
        sub = _build_parser()._subparsers._group_actions[0]
        flags = {name: {flag for action in parser._actions
                        for flag in action.option_strings} - {"-h", "--help"}
                 for name, parser in sub.choices.items()}
        for command, reads in READS.items():
            shared = {INPUTS[key][0][0] for key in reads | {"seed", "out"}
                      if INPUTS[key][0]}
            assert flags[command] == (shared | {"--config"}
                                      | OWN_FLAGS.get(command, set()))
        assert sum(map(len, flags.values())) == 45

    def test_every_value_flag_is_read_by_read_json(self):
        # --kernel, --points, --trials and --iterations were read by
        # argparse's str and int, not as their kind; --config is a path
        reader = _flag(STRING).__qualname__
        sub = _build_parser()._subparsers._group_actions[0]
        unread = [(name, action.option_strings)
                  for name, parser in sub.choices.items()
                  for action in parser._actions
                  if action.nargs != 0 and action.dest != "config"
                  and getattr(action.type, "__qualname__", None) != reader]
        assert unread == []
        assert sum(len(reads) + 2 for reads in READS.values()) == 33

    @pytest.mark.parametrize("command,key,source", CASES,
                             ids=lambda case: case)
    def test_input_is_read_or_refused(self, tmp_path, capsys, command, key,
                                      source):
        flag, config_value, value = INPUTS[key]
        reads = key in READS[command] | {"seed", "out"}
        argv = _base(command, key)
        if source == "flag":
            argv += flag
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: config_value}))
            argv += ["--config", str(config)]
        if reads:
            args = _build_parser().parse_args(argv)
            _apply_config(args)
            assert getattr(args, key) == value
            return
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 1
        message = (f"unrecognized arguments: {' '.join(flag)}"
                   if source == "flag"
                   else f"run-config has unknown keys: [{key!r}]")
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["angular", "--symbol", "affine:2,1", "--alpha", "3"],
        ["laplace", "--f", "t*exp(-t)", "--grid", "1,1e5,20,5,0.5"],
        ["interp", "--grid", "1,1e5,20,5,0.5"],
        ["report", "--alpha", "1"],
        ["report", "--grid", "1,1e5,20,5,0.5"],
        ["psd", "--format", "json"],
        ["report", "--format", "json"],
        # here --f was the flag ignored: --f-json won over it
        ["laplace", "--f", "t*exp(-t)", "--f-json", "[]"],
    ], ids=lambda argv: f"{argv[0]}-{argv[-2]}")
    def test_former_no_op_flags_are_refused(self, tmp_path, capsys, argv):
        # each used to be parsed and then ignored, with exit 0
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")
        assert not out.exists()


def standard_json(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False)


# Strings with escapes, control characters and text outside ASCII (the
# writer escapes it as the standard encoder does: ensure_ascii).
_JSON_TEXT = st.text() | st.sampled_from(
    ["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "caf\u00e9", "\u2028",
     "\U0001f600", "a/b"])
_JSON_SCALARS = (
    st.none() | st.booleans()
    | st.integers(min_value=-2**80, max_value=2**80)  # past 2**63
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e16, 1e22, 1e-7, 2.0**63])
    | _JSON_TEXT)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_JSON_TEXT, children, max_size=4)),
    max_leaves=25)


class TestCanonicalJson:
    """``_canonical_json`` writes the bytes of the standard encoder with
    sort_keys, indent=2 and allow_nan=False, and refuses what it refuses
    with the same error."""

    @settings(max_examples=300, deadline=None)
    @given(_JSON_TREES)
    def test_trees_are_written_as_the_standard_encoder_writes_them(self,
                                                                   tree):
        assert _canonical_json(tree) == standard_json(tree)

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], "", 0, -0.0,
        True, None, 2**64 + 1, -(2**70), 1e16, 1e22, 5e-324,
        # keys that are not strings: written as their own JSON text
        {1: "int", 2.5: "float", -3: [1]}, {True: 1, 0: 2}, {None: 0},
        {2**64: "big"}])
    def test_examples(self, value):
        assert _canonical_json(value) == standard_json(value)

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, {"a": [1.0, math.nan]},
        [{"b": -math.inf}], {math.inf: 1}, np.float64("nan")])
    def test_non_finite_floats_are_refused_by_the_same_value_error(self,
                                                                   value):
        with pytest.raises(ValueError) as standard:
            standard_json(value)
        with pytest.raises(ValueError) as written:
            _canonical_json(value)
        assert str(written.value) == str(standard.value)
        assert "Out of range float values are not JSON compliant" in str(
            written.value)

    @pytest.mark.parametrize("value", [
        np.int64(3), np.float32(1.5), np.bool_(True), 1j, {1, 2},
        np.zeros(2), {"a": [object()]}, {(1, 2): "tuple key"},
        {b"bytes": 1}, {"a": 1, 2: "mixed keys"}])
    def test_other_values_are_refused_by_the_same_type_error(self, value):
        with pytest.raises(TypeError) as standard:
            standard_json(value)
        with pytest.raises(TypeError) as written:
            _canonical_json(value)
        assert str(written.value) == str(standard.value)

    @pytest.mark.parametrize("argv", [
        ["norm", "--symbol", "affine:2,1", "--alpha", "1"],
        ["psd", "--kernel", "gram", "--points", "8", "--trials", "2"],
        ["angular", "--symbol", "moebius:2,1+1j,0,1.5"],
        ["laplace", "--f", "t*exp(-t)", "--alpha", "1"],
        ["interp", "--alpha", "1"],
        ["spectral", "--symbol", "affine:2,1", "--alpha", "1"],
        ["report", "--seed", "0"],
    ], ids=lambda argv: argv[0])
    def test_each_command_prints_the_standard_encoding(self, capsys, argv):
        # a float's repr reads back as the same float, so the printed text
        # parses to the payload the command wrote
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == standard_json(json.loads(out)) + "\n"

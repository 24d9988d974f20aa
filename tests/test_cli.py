import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bergkit.cli import (CliError, _apply_config, _build_parser, main,
                        parse_halfline, parse_symbol)
from bergkit.kernels import nevanlinna_kernel, psd_check
from bergkit.laplace import HalfLineFunction
from bergkit.symbols import (Affine, CayleyMap, Compose, Moebius, PowerMap,
                             SampleGrid, symbol_from_dict)


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

    def test_infinite_spectral_radius_written_as_null(self, tmp_path):
        # lam = 8: the sixth iterate's trace still rises on the default
        # grid, so the spectral estimate reads as divergent
        symbol = ("compose:(moebius:0.75,1.25+0.5j,0,3.0;"
                  "moebius:1.25,1.0+0.25j,0,2.5)")
        code, data = run_json(tmp_path, ["norm", "--symbol", symbol,
                                         "--alpha", "2.52"])
        assert code == 0
        row = data["rows"][0]
        assert row["verdict"] == "BOUNDED"
        assert row["spectral_radius"] is None
        assert row["estimates"]["spectral_radius"]["finite"] is False

    def test_determinism_modulo_timestamp(self, tmp_path):
        _, a = run_json(tmp_path, ["norm", "--symbol", "affine:2,1",
                                   "--alpha", "0", "--seed", "5"])
        _, b = run_json(tmp_path, ["norm", "--symbol", "affine:2,1",
                                   "--alpha", "0", "--seed", "5"])
        a.pop("generated_at")
        b.pop("generated_at")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


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
            single = psd_check(nevanlinna_kernel(Affine(2, 1), pts))
            assert v["min_eigenvalue"] == single.min_eigenvalue
            assert v["threshold"] == single.threshold

    def test_psd_needs_symbol_for_defect(self, tmp_path):
        assert main(["psd", "--kernel", "K:2"]) == 1

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
        code, data = run_json(tmp_path, ["laplace", "--f-json", descr,
                                         "--alpha", "1"])
        assert code == 0
        assert data["rows"][0]["rhs"] == pytest.approx(0.125)

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

    def test_interp(self, tmp_path):
        code, data = run_json(tmp_path, ["interp", "--alpha", "1"])
        assert code == 0
        row = data["rows"][0]
        assert row["theta"] == pytest.approx(0.5)
        assert row["ratio"] == pytest.approx(2 ** 0.5)

    def test_spectral(self, tmp_path):
        code, data = run_json(tmp_path, ["spectral", "--symbol", "affine:2,1",
                                         "--alpha", "0", "--iterations", "4"])
        assert code == 0
        row = data["rows"][0]
        assert row["value"] == pytest.approx(0.5, rel=1e-3)
        assert len(row["per_iterate"]) == 4


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
            schemes.append(args.scheme)
        assert schemes[0] is schemes[1]
        assert (schemes[0].n_x, schemes[0].n_y) == (40, 100)

    def test_partial_grid_block_uses_defaults(self, tmp_path):
        config = self.write_config(tmp_path, {
            "grid": {"r_min": 1.0, "r_max": 1e5, "radial": 30,
                     "angular": 7}})
        code, data = run_json(tmp_path, ["angular", "--symbol", "affine:2,1",
                                         "--config", config])
        assert code == 0
        assert data["grid"] == SampleGrid(r_max=1e5, radial_count=30,
                                          angular_count=7).to_dict()
        assert data["grid"]["aperture"] == SampleGrid().aperture

    def test_non_numeric_grid_value_is_config_error(self, tmp_path, capsys):
        config = self.write_config(tmp_path, {"grid": {"aperture": "wide"}})
        assert main(["angular", "--symbol", "affine:2,1",
                     "--config", config]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command,payload", [
        (["angular", "--symbol", "affine:2,1"], {"alphas": [None]}),
        (["angular", "--symbol", "affine:2,1"], {"grid": {"aperture": None}}),
        (["laplace", "--f", "t*exp(-t)"], {"quadrature": {"n_x": None}}),
    ], ids=["alphas", "grid", "quadrature"])
    def test_null_value_is_config_error(self, tmp_path, capsys, command,
                                        payload):
        config = self.write_config(tmp_path, payload)
        assert main(command + ["--config", config]) == 1
        assert capsys.readouterr().err.startswith("error: run-config")

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
            argv.append(f"--alpha={alpha!r}")  # "-1e-5" alone reads as a flag
        args = _build_parser().parse_args(argv)
        _apply_config(args)
        assert args.seed == (seed if seed is not None
                             else config.get("seed", 0))
        assert args.format == (fmt if fmt is not None
                               else config.get("format", "json"))
        assert args.alpha == (alphas if alphas is not None
                              else config.get("alphas"))

    def test_unknown_keys_rejected(self, tmp_path):
        config = self.write_config(tmp_path, {"mystery": 1})
        assert main(["norm", "--symbol", "identity", "--config", config]) == 1

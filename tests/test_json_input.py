"""Every JSON input goes through ``symbols.read_json``: symbol descriptors,
the run-config and its ``grid`` and ``quadrature`` blocks, and
``--f-json``.  What the program writes reads back to an equal object, and
a value of the wrong kind is refused with an ``error:`` naming its block
and key."""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergkit.cli import main, parse_halfline, parse_symbol
from bergkit.laplace import HalfLineFunction
from bergkit.symbols import (REAL, Affine, CayleyMap, Compose, Moebius,
                             PowerMap, SampleGrid, read_json,
                             symbol_from_dict)


def run(argv, tmp_path):
    """(exit code, stderr, payload or None) of one in-process call."""
    out = tmp_path / "out.json"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, err.getvalue(), payload


def config_file(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# what the program writes reads back

SYMBOL_TEXTS = ["affine:2,1", "affine:3,-0.0,-0.0", "power:0.5",
                "moebius:2,1+1j,0,1", "cayley:1,0.5,0.5,1",
                "compose:(moebius:0.75,1.25+0.5j,0,3.0;"
                "moebius:1.25,1.0+0.25j,0,2.5)",
                "compose:(affine:2,0;power:0.5)"]
F_TEXT = "(1+2j)*t^2.3*exp(-(1.5+0.5j)*t)+(0.5)*t^3.1*exp(-2*t)"


@pytest.mark.parametrize("argv", [
    ["norm", "--alpha", "0", "--alpha", "1.5"],
    ["angular", "--grid", "1,1e5,20,5,.5"],
    ["spectral", "--alpha", "1", "--iterations", "3"],
    ["psd", "--kernel", "K:2", "--points", "4", "--trials", "2"],
    ["laplace", "--f", F_TEXT],
], ids=lambda argv: argv[0])
def test_written_json_reads_back(tmp_path, argv):
    symbols = SYMBOL_TEXTS[:1] if argv[0] == "psd" else SYMBOL_TEXTS
    if argv[0] != "laplace":
        argv = argv + [arg for text in symbols for arg in ("--symbol", text)]
    code, _, data = run(argv + ["--seed", "0"], tmp_path)
    assert code == 0
    if "grid" in data:
        grid = SampleGrid.from_dict(data["grid"])
        expected = (SampleGrid(0.5, 1.0, 1e5, 20, 5) if "--grid" in argv
                    else SampleGrid())
        assert grid == expected and grid.to_dict() == data["grid"]
    for row in data.get("rows", []):
        if "symbol" in row:
            phi = symbol_from_dict(row["symbol"])
            assert phi == parse_symbol(row["symbol_text"])
            assert (json.dumps(phi.to_dict(), sort_keys=True)
                    == json.dumps(row["symbol"], sort_keys=True))
        if "f" in row:
            f = HalfLineFunction.from_dict(row["f"])
            assert f == parse_halfline(F_TEXT)
            assert f.to_dict() == row["f"]


# finite floats, with -0.0, integer-valued floats and ints among them
_REALS = st.one_of(st.floats(-1e6, 1e6), st.just(-0.0),
                   st.integers(-1000, 1000).map(float),
                   st.integers(-1000, 1000))
_COMPLEX = st.builds(complex, _REALS, _REALS)
_SMALL = st.builds(complex, st.floats(-0.3, 0.3), st.floats(-0.3, 0.3))
_LEAVES = st.one_of(
    st.builds(Affine, _REALS, _COMPLEX),
    st.tuples(_COMPLEX, _COMPLEX, _COMPLEX, _COMPLEX).filter(
        lambda m: m[0] * m[3] != m[1] * m[2]).map(lambda m: Moebius(*m)),
    # psi = r zeta + b with |r| + |b| < 1 is a disc self-map
    st.builds(lambda r, b: CayleyMap(r, b, 0, 1),
              _SMALL.filter(lambda r: r != 0), _SMALL),
    st.builds(PowerMap, _REALS))
_SYMBOL_VALUES = st.recursive(
    _LEAVES, lambda inner: st.builds(Compose, inner, inner), max_leaves=4)


@settings(max_examples=150, deadline=None)
@given(_SYMBOL_VALUES)
def test_symbol_descriptor_round_trip(phi):
    assert symbol_from_dict(phi.to_dict()) == phi
    text = json.dumps(phi.to_dict())
    rebuilt = symbol_from_dict(json.loads(text))
    assert rebuilt == phi and json.dumps(rebuilt.to_dict()) == text


@settings(max_examples=150, deadline=None)
@given(st.floats(0.0, math.pi / 2, exclude_min=True, exclude_max=True),
       st.one_of(st.floats(1e-6, 1e3), st.integers(1, 1000).map(float)),
       st.one_of(st.floats(1.001, 1e6), st.integers(2, 10**6).map(float)),
       st.integers(2, 60), st.integers(1, 9))
def test_grid_round_trip(aperture, r_min, ratio, radial, angular):
    grid = SampleGrid(aperture, r_min, r_min * ratio, radial, angular)
    assert SampleGrid.from_dict(grid.to_dict()) == grid
    text = json.dumps(grid.to_dict())
    assert json.dumps(SampleGrid.from_dict(json.loads(text)).to_dict()) == text


# ---------------------------------------------------------------------------
# wrong kinds are refused, naming the block and the key

_WRONG = {  # category -> values of it
    "bool": st.booleans(),
    "null": st.none(),
    "string": st.text(max_size=4),
    "list": st.lists(st.integers(0, 9), max_size=3),
    "object": st.dictionaries(st.sampled_from("xyz"), st.integers(0, 9),
                              max_size=2),
    "integer": st.integers(-10, 10),
    "fraction": st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()),
    "integral float": st.integers(-10, 10).map(float),
    "non-finite": st.sampled_from([math.nan, math.inf, -math.inf]),
    "past the float range": st.just(10**400),  # an integer literal
    "out of range": st.one_of(st.integers(max_value=-1),
                              st.integers(min_value=2**63)),
    "pair-length": st.lists(st.integers(0, 9), max_size=4).filter(
        lambda pair: len(pair) != 2),
}
_NUMBERS = ("integer", "fraction", "integral float", "non-finite")
_NOT = {  # kind of a key -> the categories that are wrong for it
    "real": ("bool", "null", "string", "list", "object", "non-finite",
             "past the float range"),
    "integer": ("bool", "null", "string", "list", "object", "fraction",
                "integral float", "non-finite", "past the float range",
                "out of range"),
    "complex": ("bool", "null", "string", "object", "non-finite",
                "past the float range", "pair-length"),
    "string": ("bool", "null", "list", "object") + _NUMBERS,
    "choice": ("bool", "null", "list", "object", "string") + _NUMBERS,
    "list": ("bool", "null", "string", "object") + _NUMBERS,
    "block": ("bool", "null", "string", "list") + _NUMBERS,
}
# block -> (valid value, kind of each key)
_DESCRIPTORS = {
    "affine": ({"kind": "affine", "a": 2.0, "b": [1.0, 0.0]},
               {"a": "real", "b": "complex"}),
    "moebius": ({"kind": "moebius", "a": 2, "b": 1, "c": 0, "d": 1},
                dict.fromkeys("abcd", "complex")),
    "cayley": ({"kind": "cayley", "a": 1, "b": 0.5, "c": 0.5, "d": 1},
               dict.fromkeys("abcd", "complex")),
    "power": ({"kind": "power", "p": 0.5}, {"p": "real"}),
    "compose": ({"kind": "compose", "left": {"kind": "power", "p": 0.5},
                 "right": {"kind": "affine", "a": 2, "b": 1}},
                {"left": "block", "right": "block"}),
}
_GRID_KEYS = {"aperture": "real", "r_min": "real", "r_max": "real",
              "radial": "integer", "angular": "integer"}
_QUADRATURE_KEYS = {"n_x": "integer", "n_y": "integer", "y_max": "real"}
_MODE_KEYS = {"c": "complex", "beta": "real", "s": "complex"}
_CONFIG_KEYS = {"symbols": "list", "alphas": "list", "grid": "block",
                "quadrature": "block", "seed": "integer", "format": "choice",
                "out": "string"}


def _argv(block, key, value, tmp_path):
    """The command line that feeds ``value`` to ``block`` at ``key``."""
    if block in _DESCRIPTORS:
        descriptor = dict(_DESCRIPTORS[block][0], **{key: value})
        return ["angular", "--symbol", "json:" + json.dumps(descriptor)]
    if block == "mode":
        mode = dict({"c": [1, 0], "beta": 1, "s": [1, 0]}, **{key: value})
        return ["laplace", "--f-json", json.dumps([mode])]
    config = {"grid": {"grid": {key: value}},
              "quadrature": {"quadrature": {key: value}},
              "run-config": {key: value}}[block]
    return _reader(next(iter(config))) + [
        "--config", config_file(tmp_path, json.dumps(config))]


def _reader(key):
    """A command line whose command reads the run-config ``key``."""
    if key in ("symbols", "grid"):
        return ["angular", "--symbol", "affine:2,1"]
    return ["laplace", "--f", "t*exp(-t)"]


_BLOCKS = {**{kind: keys for kind, (_, keys) in _DESCRIPTORS.items()},
           "grid": _GRID_KEYS, "quadrature": _QUADRATURE_KEYS,
           "mode": _MODE_KEYS, "run-config": _CONFIG_KEYS}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_wrong_kind_is_refused_naming_the_key(tmp_path_factory, data):
    block = data.draw(st.sampled_from(sorted(_BLOCKS)), label="block")
    key = data.draw(st.sampled_from(sorted(_BLOCKS[block])), label="key")
    category = data.draw(st.sampled_from(_NOT[_BLOCKS[block][key]]),
                         label="category")
    value = data.draw(_WRONG[category], label="value")
    if category == "string":
        value += "x"  # never json or csv
    tmp_path = tmp_path_factory.mktemp("wrong")
    code, err, payload = run(_argv(block, key, value, tmp_path), tmp_path)
    assert (code, payload) == (1, None)
    assert err.startswith("error: ") and f"key {key!r}: " in err


@pytest.mark.parametrize("config,message", [
    ({"grid": {"radial": 40.9, "angular": True, "r_max": "1e5"}},
     "run-config key 'grid': grid key 'r_max': need a JSON number, "
     "not '1e5'"),
    ({"grid": {"radial": 40.9}},
     "run-config key 'grid': grid key 'radial': need a JSON integer, "
     "not 40.9"),
    ({"grid": {"angular": True}},
     "run-config key 'grid': grid key 'angular': need a JSON integer, "
     "not True"),
    ({"grid": {"r_max": 1e400}},
     "run-config key 'grid': grid key 'r_max': need a finite JSON number, "
     "not inf"),
    ({"quadrature": {"n_x": "64", "n_y": 100.7}},
     "run-config key 'quadrature': quadrature key 'n_x': need a JSON "
     "integer, not '64'"),
    ({"quadrature": {"n_y": 100.7}},
     "run-config key 'quadrature': quadrature key 'n_y': need a JSON "
     "integer, not 100.7"),
    ({"quadrature": []},
     "run-config key 'quadrature': a quadrature is a JSON object, not []"),
    ({"quadrature": 0},
     "run-config key 'quadrature': a quadrature is a JSON object, not 0"),
    ({"quadrature": None},
     "run-config key 'quadrature': a quadrature is a JSON object, not None"),
    ({"alphas": [True]},
     "run-config key 'alphas': item 0: need a JSON number, not True"),
    ({"alphas": ["1.5"]},
     "run-config key 'alphas': item 0: need a JSON number, not '1.5'"),
    ({"seed": 7.9}, "run-config key 'seed': need a JSON integer, not 7.9"),
    ({"seed": "7"}, "run-config key 'seed': need a JSON integer, not '7'"),
    ({"seed": True}, "run-config key 'seed': need a JSON integer, not True"),
    ({"symbols": "affine:2,0"},
     "run-config key 'symbols': need a JSON list, not 'affine:2,0'"),
    ({"symbols": [{"kind": "power", "p": math.nan}]},
     "run-config key 'symbols': item 0: power descriptor key 'p': need a "
     "finite JSON number, not nan"),
    ({"symbols": [{"kind": "affine", "a": 1e400, "b": 0}]},
     "run-config key 'symbols': item 0: affine descriptor key 'a': need a "
     "finite JSON number, not inf"),
    ({"symbols": [{"kind": "moebius", "a": [1, 1e400], "b": 0, "c": 0,
                   "d": 1}]},
     "run-config key 'symbols': item 0: moebius descriptor key 'a': need a "
     "finite JSON number, not inf"),
], ids=["grid", "grid-radial", "grid-angular", "grid-r_max-1e400",
        "quadrature", "quadrature-n_y", "quadrature-list", "quadrature-0",
        "quadrature-null", "alphas-bool", "alphas-string", "seed-fraction",
        "seed-string", "seed-bool", "symbols-string", "descriptor-nan",
        "descriptor-1e400", "descriptor-pair-1e400"])
def test_config_values_once_converted_are_refused(tmp_path, config, message):
    # each of these used to run with a silently converted value, except
    # the descriptors, which ran with a non-finite coefficient
    path = config_file(tmp_path, json.dumps(config))
    command = (_reader("quadrature") if "quadrature" in config
               else ["norm"])
    code, err, _ = run(command + ["--config", path], tmp_path)
    assert (code, err) == (1, f"error: {message}\n")


@pytest.mark.parametrize("argv,config,message", [
    # "expected non-negative integer", from numpy
    (["psd"], {"seed": -1}, "run-config key 'seed': need a JSON integer in "
                            "[0, 2**63), not -1"),
    (["psd"], {"seed": 2**63}, "run-config key 'seed': need a JSON integer "
                               "in [0, 2**63), not 9223372036854775808"),
    # "Maximum allowed size exceeded", from numpy
    (["angular", "--symbol", "affine:2,1"], {"grid": {"angular": 10**29}},
     "run-config key 'grid': grid key 'angular': need a JSON integer in "
     "[0, 2**63), not 100000000000000000000000000000"),
    (["angular", "--symbol", "affine:2,1"], {"grid": {"radial": -3}},
     "run-config key 'grid': grid key 'radial': need a JSON integer in "
     "[0, 2**63), not -3"),
    # "cannot fit 'int' into an index-sized integer", from numpy
    (["laplace", "--f", "t*exp(-t)"], {"quadrature": {"n_x": 10**29}},
     "run-config key 'quadrature': quadrature key 'n_x': need a JSON "
     "integer in [0, 2**63), not 100000000000000000000000000000"),
], ids=["seed-negative", "seed-2**63", "grid-angular-huge",
        "grid-radial-negative", "quadrature-n_x-huge"])
def test_integer_out_of_range_is_refused(tmp_path, argv, config, message):
    path = config_file(tmp_path, json.dumps(config))
    code, err, payload = run(argv + ["--config", path], tmp_path)
    assert (code, err, payload) == (1, f"error: {message}\n", None)


@pytest.mark.parametrize("seed,message", [
    ("-1", "need a JSON integer in [0, 2**63), not -1"),
    (str(2**63), "need a JSON integer in [0, 2**63), not 9223372036854775808"),
    ("7.5", "need an integer, not '7.5'"),
], ids=["-1", str(2**63), "7.5"])
def test_seed_flag_out_of_range_is_refused(tmp_path, seed, message):
    # each read "need an integer in [0, 2**63), not '<seed>'" before --seed
    # was read as a config seed is
    code, err, payload = run(["psd", "--trials", "1", "--seed", seed],
                             tmp_path)
    assert (code, err, payload) == (1, f"error: argument --seed: {message}\n",
                                    None)


def test_largest_seed_is_accepted(tmp_path):
    seed = 2**63 - 1
    path = config_file(tmp_path, json.dumps({"seed": seed}))
    for argv in (["--seed", str(seed)], ["--config", path]):
        code, _, payload = run(["psd", "--trials", "1", "--points", "2"]
                               + argv, tmp_path)
        assert (code, payload["seed"]) == (0, seed)


def test_symbol_items_are_read_as_given(tmp_path):
    # a string is mini-syntax and an object a descriptor; both reach the
    # rows as the same --symbol text they always did
    path = config_file(tmp_path, json.dumps({"symbols": [
        "affine:2,1", {"kind": "power", "p": 0.5}]}))
    code, _, data = run(["angular", "--config", path], tmp_path)
    assert code == 0
    assert [row["symbol_text"] for row in data["rows"]] == [
        "affine:2,1", 'json:{"kind": "power", "p": 0.5}']


def test_doubled_scheme_config_reaches_the_cached_scheme(tmp_path):
    from bergkit import cli
    from bergkit.space import _cached_scheme
    path = config_file(tmp_path, json.dumps(
        {"quadrature": {"n_x": 320, "n_y": 800, "y_max": 400}}))
    args = cli._build_parser().parse_args(
        ["laplace", "--f", "t*exp(-t)", "--config", path])
    cli._apply_config(args)
    assert args.quadrature is _cached_scheme(320, 800, 400.0)


@pytest.mark.parametrize("value,expected", [
    (2, 2.0), (-0.0, -0.0), (1e308, 1e308), (7, 7.0)])
def test_real_reads_finite_numbers_as_floats(value, expected):
    read = read_json(value, REAL)
    assert type(read) is float and math.copysign(1, read) == math.copysign(
        1, expected) and read == expected

"""Each flag is the text form of its run-config key: ``--symbol`` text is
read as the descriptor it spells, ``--grid`` as a ``grid`` block and
``--f`` as the ``--f-json`` list of its modes.  A flag and its config
value give the same result, or the same refusal after the name of the
flag or the key."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergkit.cli import main, parse_symbol
from bergkit.symbols import Affine, symbol_from_dict

DATA = Path(__file__).parent / "data"


def run(argv, tmp_path, config=None):
    """(exit code, stderr, output text without generated_at) of one call."""
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    out = tmp_path / "out.json"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(out)])
    text = out.read_text() if out.exists() else None
    if text is not None:
        text = "".join(line for line in text.splitlines(keepends=True)
                       if '"generated_at"' not in line)
    return code, err.getvalue(), text


def refusal(err: str, prefix: str) -> str:
    """The reason of a one-line ``error:``, after ``prefix`` when it has
    one; a rejected symbol is named by its text, which differs."""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    reason = err[len("error: "):]
    reason = reason[len(prefix):] if reason.startswith(prefix) else reason
    return re.sub(r"^symbol '.*' rejected", "symbol rejected", reason)


# ---------------------------------------------------------------------------
# --symbol text and its descriptor

def _cplx(z: complex) -> str:
    return f"{z.real!r}{z.imag:+}j"


_FLOATS = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(
    [0.0, -0.0, 1.0, 0.5, 1e-300, 1e300, float("inf"), float("nan")]))
_COMPLEXES = st.builds(complex, _FLOATS, _FLOATS)


def _affine(a, b, im):
    text = (f"affine:{a!r},{b.real!r},{b.imag!r}" if im == "pair"
            else f"affine:{a!r},{_cplx(b)}" if im == "token"
            else f"affine:{a!r},{b.real!r}")
    b = b if im else complex(b.real, 0.0)
    return text, {"kind": "affine", "a": a, "b": [b.real, b.imag]}


def _coefficients(kind, coefficients):
    return (f"{kind}:" + ",".join(map(_cplx, coefficients)),
            {"kind": kind, **{key: [z.real, z.imag] for key, z in
                              zip("abcd", coefficients)}})


_LEAVES = st.one_of(
    st.builds(_affine, _FLOATS, _COMPLEXES,
              st.sampled_from([None, "pair", "token"])),
    st.builds(_coefficients, st.sampled_from(["moebius", "cayley"]),
              st.lists(_COMPLEXES, min_size=4, max_size=4)),
    st.builds(lambda p: (f"power:{p!r}", {"kind": "power", "p": p}),
              _FLOATS),
    st.just(("identity", {"kind": "affine", "a": 1.0, "b": [0.0, 0.0]})))
_SYMBOLS = st.recursive(_LEAVES, lambda inner: st.builds(
    lambda left, right: (f"compose:({left[0]};{right[0]})",
                         {"kind": "compose", "left": left[1],
                          "right": right[1]}), inner, inner), max_leaves=3)


@settings(max_examples=150, deadline=None)
@given(_SYMBOLS)
def test_symbol_text_is_its_descriptor(tmp_path_factory, case):
    text, descriptor = case
    try:
        expected = symbol_from_dict(descriptor)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            parse_symbol(text)
    else:
        assert parse_symbol(text) == expected
    tmp_path = tmp_path_factory.mktemp("symbol")
    flag = run(["angular", "--symbol", text], tmp_path)
    config = run(["angular"], tmp_path, {"symbols": [descriptor]})
    assert flag[0] == config[0]
    if flag[0] == 0:
        rows = [json.loads(out)["rows"][0] for *_, out in (flag, config)]
        assert rows[0].pop("symbol_text") == text
        assert rows[1].pop("symbol_text") == (
            "json:" + json.dumps(descriptor, sort_keys=True))
        assert rows[0] == rows[1]
    else:
        assert (refusal(flag[1], "argument --symbol: ")
                == refusal(config[1], "run-config key 'symbols': item 0: "))


@pytest.mark.parametrize("text,message", [
    ("affine:2,,1", "affine descriptor key 'b': need a number, not ''"),
    ("power:0.5,", "power descriptor takes the fields p, not '0.5,'"),
    ("moebius:1,,0,1", "moebius descriptor key 'b': need a complex number, "
                       "not ''"),
    ("affine:2,1,0,3", "affine descriptor takes the fields a,b, "
                       "not '2,1,0,3'"),
    ("affine:2", "affine descriptor takes the fields a,b, not '2'"),
    ("bogus:1", "unknown symbol kind: 'bogus'"),
    ("compose:(affine:2,1)", "compose syntax is compose:(s1;s2)"),
], ids=["empty-b_re", "trailing-comma", "empty-moebius-b", "extra-field",
        "missing-field", "unknown-kind", "compose-one-part"])
def test_malformed_symbol_text_names_the_flag(tmp_path, text, message):
    # the first two ran as affine:2,1 and power:0.5, their empty fields
    # dropped
    code, err, out = run(["angular", "--symbol", text], tmp_path)
    assert (code, err, out) == (1, f"error: argument --symbol: {message}\n",
                                None)


def test_symbol_text_spellings():
    # b as one complex token, or as b_re,b_im; spaces inside a complex
    # token; a nested json: descriptor
    assert parse_symbol("affine:2,1+0.5j") == Affine(2, 1 + 0.5j)
    assert parse_symbol("affine:2,1,0.5") == Affine(2, 1 + 0.5j)
    assert parse_symbol("moebius: 2, 1 + 1j, 0, 1") == parse_symbol(
        "moebius:2,1+1j,0,1")
    assert parse_symbol('compose:(json:{"kind": "power", "p": 0.5};'
                        "identity)") == parse_symbol(
        "compose:(power:0.5;affine:1,0)")


def test_run_config_with_descriptor_symbols_keeps_its_bytes(tmp_path):
    # a descriptor's symbol_text is "json:" and its dump with sorted keys;
    # the file holds the output of this config before flags and config
    # values were read by one path
    config = json.loads((DATA / "descriptor_run_config.json").read_text())
    code, err, out = run(["angular"], tmp_path, config)
    assert (code, err) == (0, "")
    assert out == (DATA / "descriptor_run_config.out").read_text()


# ---------------------------------------------------------------------------
# --grid text and a grid block

_GRID_REALS = st.one_of(st.floats(1e-3, 1e7), st.sampled_from(
    [0.0, -1.0, 1.0, 1e6, 1.0471975511965976, 2.0, float("inf"),
     float("nan")]))
_COUNTS = st.one_of(st.integers(-2, 24), st.sampled_from([2**63, 10**29]))


@settings(max_examples=100, deadline=None)
@given(_GRID_REALS, _GRID_REALS, _COUNTS, _COUNTS,
       st.one_of(st.floats(0.01, 1.56), _GRID_REALS))
def test_grid_text_is_its_block(tmp_path_factory, r_min, r_max, radial,
                                angular, aperture):
    block = {"r_min": r_min, "r_max": r_max, "radial": radial,
             "angular": angular, "aperture": aperture}
    text = f"{r_min!r},{r_max!r},{radial},{angular},{aperture!r}"
    tmp_path = tmp_path_factory.mktemp("grid")
    argv = ["angular", "--symbol", "affine:2,1"]
    flag = run(argv + ["--grid", text], tmp_path)
    config = run(argv, tmp_path, {"grid": block})
    assert flag[0] == config[0]
    if flag[0] == 0:
        assert flag[2] == config[2]
    else:
        assert (refusal(flag[1], "argument --grid: ")
                == refusal(config[1], "run-config key 'grid': "))


# ---------------------------------------------------------------------------
# --f text and its --f-json list

_MODE_FLOATS = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(
    [0.0, -0.0, 1.0, 1e300, float("inf"), float("nan")]))
_MODES = st.lists(st.tuples(
    st.builds(complex, _MODE_FLOATS, _MODE_FLOATS),
    st.one_of(st.floats(-0.5, 4.0), _MODE_FLOATS),
    st.builds(complex, _MODE_FLOATS, _MODE_FLOATS)), min_size=1, max_size=2)
# a coarse rule keeps each run short; flag and list share it
_QUADRATURE = {"quadrature": {"n_x": 8, "n_y": 8, "y_max": 10.0}}


@settings(max_examples=100, deadline=None)
@given(_MODES)
def test_f_text_is_its_f_json(tmp_path_factory, modes):
    text = "+".join(f"({_cplx(c)})*t^{beta!r}*exp(-({_cplx(s)})*t)"
                    for c, beta, s in modes)
    listed = json.dumps([{"c": [c.real, c.imag], "beta": beta,
                          "s": [s.real, s.imag]} for c, beta, s in modes])
    tmp_path = tmp_path_factory.mktemp("f")
    flag = run(["laplace", "--f", text], tmp_path, _QUADRATURE)
    listed = run(["laplace", "--f-json", listed], tmp_path, _QUADRATURE)
    assert flag[0] == listed[0]
    if flag[0] == 0:
        assert flag[2] == listed[2]
    else:
        # "t^nan" is no term of the syntax, and is refused as such
        refusal(flag[1], "argument --f: ")
        refusal(listed[1], "argument --f-json: ")

"""Command-line front end.

Subcommands wrap the library estimators and emit reproducible JSON (the
authoritative format) or CSV tables.  Identical configuration and seed
produce byte-identical JSON, with the generation timestamp kept in its
own top-level field.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import io
import json
import math
import re
import sys

import numpy as np

from . import report as report_mod
from .interp import interp_params
from .kernels import (Weight, defect_kernel_matrix, gram_matrix,
                      nevanlinna_kernel, psd_check)
from .laplace import _MODE, HalfLineFunction, isometry_check
from .opnorm import boundedness_verdict, spectral_radius_estimate
from .space import DEFAULT_NX, DEFAULT_NY, DEFAULT_YMAX, _cached_scheme
from .symbols import (_DESCRIPTORS, _GRID, COMPLEX, DEFAULT_GRID, INTEGER,
                      REAL, STRING, Block, HalfPlaneError, SampleGrid, Symbol,
                      _pair, angular_derivative_estimate, identity, read_json,
                      symbol_from_dict, validate_self_map)

__all__ = ["main", "parse_symbol"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNBOUNDED = 2

FORMATS = ("json", "csv")


class CliError(ValueError):
    pass


# ---------------------------------------------------------------------------
# flag text as the JSON value of its run-config key (--f: of --f-json),
# which read_json then checks as it checks that key's value

_TOKENS = {REAL: (float, "a number"), INTEGER: (int, "an integer"),
           COMPLEX: (complex, "a complex number")}


def _token(token: str, kind):
    """A mini-syntax token as the JSON value of ``kind`` it spells: an
    integer is decimal digits, a complex [re, im]."""
    convert, need = _TOKENS[kind]
    token = token.strip()
    try:
        if kind == INTEGER and not re.fullmatch(r"[-+]?[0-9]+", token):
            raise ValueError(token)
        value = convert(token.replace(" ", "") if kind == COMPLEX else token)
    except ValueError:
        raise CliError(f"need {need}, not {token!r}") from None
    return _pair(value) if kind == COMPLEX else value


def _fields(block: str, tokens: list, keys: dict) -> dict:
    """The ``block`` object whose ``keys`` the ``tokens`` give in order,
    each read by its key's kind; the last key, when complex, may take two
    tokens, re and im."""
    text = ",".join(tokens)
    if len(tokens) == len(keys) + 1 and [*keys.values()][-1] == COMPLEX:
        tokens = tokens[:-2] + [tokens[-2:]]
    if len(tokens) != len(keys):
        raise CliError(f"{block} takes the fields {','.join(keys)}, "
                       f"not {text!r}")
    values = {}
    for (key, kind), token in zip(keys.items(), tokens):
        try:
            values[key] = ([_token(part, REAL) for part in token]
                           if isinstance(token, list) else _token(token, kind))
        except ValueError as exc:
            raise CliError(f"{block} key {key!r}: {exc}") from None
    return values


def _split_top(text: str, sep: str) -> list[str]:
    """``text`` split at each ``sep`` outside parentheses that neither
    opens a chunk nor signs the exponent of a number (``1e+1``)."""
    chunks, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if (ch == sep and depth == 0 and i > start
                and not re.search(r"[\d.][eE]$", text[start:i])):
            chunks.append(text[start:i])
            start = i + 1
    return chunks + [text[start:]]


def _descriptor(text: str):
    """``--symbol`` text as the descriptor it spells.  ``kind:f1,f2,...``
    gives the descriptor keys of its kind (``symbols._DESCRIPTORS``) in
    order; ``json:`` text is the descriptor itself, ``compose:(s1;s2)``
    composes two texts, and ``identity`` is affine:1,0."""
    text = text.strip()
    kind, _, fields = text.partition(":")
    if kind == "json":
        return json.loads(fields)
    if text == "identity":
        return identity().to_dict()
    if kind == "compose":
        body = fields.strip()
        parts = _split_top(body[1:-1], ";")
        if not (body.startswith("(") and body.endswith(")")
                and len(parts) == 2):
            raise CliError("compose syntax is compose:(s1;s2)")
        return {"kind": kind, "left": _descriptor(parts[0]),
                "right": _descriptor(parts[1])}
    if kind not in _DESCRIPTORS:
        return {"kind": kind}  # refused by the descriptor reader
    return {"kind": kind, **_fields(f"{kind} descriptor", fields.split(","),
                                    _DESCRIPTORS[kind][1])}


def parse_symbol(text: str) -> Symbol:
    """The symbol ``--symbol`` text names, read as its descriptor is (see
    the README for the mini-syntax)."""
    return symbol_from_dict(_descriptor(text))


def _symbol(item) -> tuple:
    """A ``symbols`` item as (text, symbol): a string is ``--symbol`` text,
    anything else a descriptor, whose text is ``json:`` and its dump."""
    if isinstance(item, str):
        return item, parse_symbol(item)
    return "json:" + json.dumps(item, sort_keys=True), symbol_from_dict(item)


_TERM_RE = re.compile(
    r"^(?:(?P<coef>[^t]*?)\*)?"
    r"(?:t(?:\^(?P<beta>[-+0-9.eE]+))?\*?)?"
    r"exp\(-(?P<rate>.*?)\*?t\)$")


def _modes(text: str) -> list:
    """``--f`` text, c*t^b*exp(-s*t) terms joined by top-level '+' (a minus
    sign belongs to its coefficient), as the ``--f-json`` list of modes."""
    modes = []
    for chunk in _split_top(text.replace(" ", ""), "+"):
        match = _TERM_RE.match(chunk)
        if not match:
            raise CliError(f"cannot parse half-line term {chunk!r}")
        coef, beta, rate = match.group("coef", "beta", "rate")
        has_t = "t" in chunk.split("exp")[0]
        modes.append(_fields(f"item {len(modes)}: mode", [
            coef.strip("()") if coef else "1", beta or ("1" if has_t else "0"),
            rate.strip("()") if rate else "1"], _MODE.keys))
    return modes


def parse_halfline(text: str) -> HalfLineFunction:
    """The function ``--f`` text names, read as its ``--f-json`` list is."""
    return HalfLineFunction.from_dict(_modes(text))


def _flag(kind, translate=None):
    """An argparse ``type``: a flag's text as the JSON value of ``kind``
    that ``translate`` spells (by default a token of a number kind, else
    the text itself), read as that kind."""
    translate = translate or (functools.partial(_token, kind=kind)
                              if kind in _TOKENS else str)

    def read(text):
        try:
            return read_json(translate(text), kind)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


def _scheme(block):
    """The run-config ``quadrature`` block as the cached scheme it names."""
    quad = read_json(block, Block("quadrature", {
        "n_x": INTEGER, "n_y": INTEGER, "y_max": REAL}))
    return _cached_scheme(quad.get("n_x", DEFAULT_NX),
                          quad.get("n_y", DEFAULT_NY),
                          quad.get("y_max", DEFAULT_YMAX))


# The inputs subcommands share, by run-config key, in the order they are
# settled (the grid before the symbols checked on it): the flag, if any,
# its argparse options (the type reads it by default as one value, or
# item, of the key), the read_json kind of the key and its default.
_INPUTS = {
    "alphas": ("--alpha", dict(action="append", metavar="ALPHA",
               help="weight parameter alpha > -1 (repeatable)"),
               [REAL], [0.0]),
    "grid": ("--grid", dict(help=",".join(_GRID.keys), type=_flag(
        SampleGrid.from_dict,
        lambda text: _fields("grid", text.split(","), _GRID.keys))),
             SampleGrid.from_dict, DEFAULT_GRID),
    "symbols": ("--symbol", dict(
        action="append", metavar="SYMBOL",
        help="affine:a,b | moebius:a,b,c,d | power:p | cayley:a,b,c,d | "
             "compose:(s1;s2) | identity | json:<descriptor>"), [_symbol], []),
    "quadrature": (None, {}, _scheme, None),
    "format": ("--format", dict(help="json | csv"), FORMATS, "json"),
    "seed": ("--seed", {}, INTEGER, 0),
    "out": ("--out", dict(help="output path (default stdout)"), STRING, None),
}


def _apply_config(args) -> None:
    """Settle each input the subcommand reads: its flag wins, then its
    value in the run-config file (read as the command's own block), then
    its default; an empty value counts as none.  The (text, symbol) pairs
    of ``args.symbols`` are checked on the grid; ``psd`` may have none."""
    config = {}
    if args.config:
        with open(args.config) as handle:
            config = read_json(json.load(handle), args.run_config)
    for key, default in args.inputs.items():
        value = getattr(args, key, None)  # None: no flag gave it
        if value is None:
            value = config.get(key) or default
        if key == "symbols":
            if not value and args.command != "psd":
                raise CliError(f"{args.command} needs --symbol or a "
                               "run-config 'symbols' list")
            for text, sym in value:
                try:
                    validate_self_map(sym, args.grid)
                except HalfPlaneError as exc:
                    raise CliError(f"symbol {text!r} rejected: {exc}" + (
                        f" (witness {exc.witness:g})"
                        if exc.witness is not None else "")) from exc
        setattr(args, key, value)


# ---------------------------------------------------------------------------
# output plumbing


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)


def _emit(payload: dict, args, fmt: str = "json") -> None:
    payload = dict(payload, command=args.command, seed=args.seed)
    payload["generated_at"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    text = (_rows_to_csv(payload["rows"]) if fmt == "csv"
            else _canonical_json(payload) + "\n")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(rows: list[dict]) -> str:
    """The rows as a table whose columns are their scalar fields in row
    order.  ``symbol_text`` is written as ``symbol``; dict and list fields
    are left out."""
    if not rows:
        return ""
    columns = [key for key, val in rows[0].items()
               if not isinstance(val, (dict, list))]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["symbol" if key == "symbol_text" else key
                     for key in columns])
    writer.writerows([row.get(key) for key in columns] for row in rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_norm(args) -> int:
    """One row per (symbol, alpha) cell, each number in it once: the
    angular and spectral values sit in the row, and ``estimates`` keeps
    only what the row does not restate (traces, lambda and its source)."""
    reports = iter(boundedness_verdict(
        [Weight(alpha) for alpha in args.alphas],
        [sym for _, sym in args.symbols], args.grid))
    rows = []
    for text, sym in args.symbols:
        for alpha in args.alphas:
            rep = next(reports)
            bounded = rep.verdict == "BOUNDED"
            angular = rep.angular.to_dict()
            lambda_hat = angular.pop("lambda_hat")
            spectral = rep.spectral_radius.to_dict() if bounded else None
            rho = spectral.pop("value") if bounded else None
            gram = rep.gram.value if bounded else None
            rows.append({
                "symbol": sym.to_dict(),
                "symbol_text": text,
                "alpha": alpha,
                "verdict": rep.verdict,
                "lambda_hat": lambda_hat,
                "theoretical": rep.theoretical,
                "kernel_ratio": rep.kernel_ratio,
                "gram_eig": gram,
                "spectral_radius": rho,
                "essential_lower_bound": rep.essential_lower_bound,
                "rel_gap_kernel": _rel_gap(rep.kernel_ratio, rep.theoretical),
                "rel_gap_gram": _rel_gap(gram, rep.theoretical),
                "estimates": {
                    "angular": angular,
                    "lambda_used": rep.lambda_used,
                    "lambda_source": rep.lambda_source,
                    "gram_eig": {
                        "points_used": rep.gram.points_used,
                        "trace": [list(item) for item in rep.gram.trace],
                    } if bounded else None,
                    "spectral_radius": spectral,
                },
            })
    _emit({"grid": args.grid.to_dict(), "rows": rows}, args, args.format)
    if args.require_bounded and any(r["verdict"] != "BOUNDED" for r in rows):
        return EXIT_UNBOUNDED
    return EXIT_OK


def _rel_gap(bound, exact):
    return None if bound is None else abs(bound - exact) / exact


def _kernel_builder(args):
    """``(alpha, points) -> matrix`` for ``--kernel``, settled once per op:
    the kernel syntax, its need for ``--symbol`` and, for K:<n>, the
    angular derivative lam (estimated when the symbol has no closed
    form)."""
    kind = args.kernel
    if kind == "gram":
        return lambda alpha, pts: gram_matrix(Weight(alpha), pts)
    defect = kind.startswith("K:")
    if not (defect or kind == "nevanlinna"):
        raise CliError(f"unknown kernel {kind!r} (gram | K:<n> | nevanlinna)")
    if not args.symbols:
        raise CliError(f"{'K:<n>' if defect else kind} kernels need --symbol")
    _, sym = args.symbols[0]
    if not defect:
        return lambda alpha, pts: nevanlinna_kernel(sym, pts)
    try:  # a count, as --seed is read
        n = read_json(_token(kind[2:], INTEGER), INTEGER)
    except ValueError:
        n = 0
    if n < 1:
        raise CliError(f"K:<n> kernels need an integer n >= 1, not {kind!r}")
    lam = sym.known_lambda
    if lam is None:
        lam = angular_derivative_estimate(sym, args.grid).lambda_hat
    if not math.isfinite(lam):
        raise CliError("symbol has no finite angular derivative")
    return lambda alpha, pts: defect_kernel_matrix(sym, lam, n, pts)


def _cmd_psd(args) -> int:
    build = _kernel_builder(args)
    for flag, count in (("points", args.points), ("trials", args.trials)):
        if count < 1:
            raise CliError(f"--{flag} must be at least 1, not {count}")
    grid = args.grid
    rng = np.random.default_rng(args.seed)
    cells = []
    for alpha in args.alphas:
        for trial in range(args.trials):
            pts = grid.sample_points(args.points, rng)
            cells.append((alpha, trial, pts, build(alpha, pts)))
    checked = psd_check([matrix for *_, matrix in cells])
    verdicts = [{"alpha": alpha, "trial": trial,
                 "points": [[p.real, p.imag] for p in pts],
                 **verdict.to_dict()}
                for (alpha, trial, pts, _), verdict in zip(cells, checked)]
    _emit({"kernel": args.kernel, "grid": grid.to_dict(),
           "trials": args.trials,
           "failures": sum(not verdict.is_psd for verdict in checked),
           "verdicts": verdicts}, args)
    return EXIT_OK


def _cmd_angular(args) -> int:
    rows = []
    for text, sym in args.symbols:
        est = angular_derivative_estimate(sym, args.grid)
        rows.append({"symbol": sym.to_dict(), "symbol_text": text,
                     **est.to_dict()})
    _emit({"grid": args.grid.to_dict(), "rows": rows}, args, args.format)
    return EXIT_OK


def _cmd_laplace(args) -> int:
    func = args.f if args.f_json is None else args.f_json
    if func is None:
        raise CliError("laplace needs --f or --f-json")
    results = isometry_check([Weight(alpha) for alpha in args.alphas], func,
                             args.quadrature)
    rows = [{"alpha": alpha, "f": func.to_dict(), **res.to_dict()}
            for alpha, res in zip(args.alphas, results)]
    _emit({"rows": rows}, args, args.format)
    return EXIT_OK


def _cmd_interp(args) -> int:
    rows = [interp_params(alpha).to_dict() for alpha in args.alphas]
    _emit({"rows": rows}, args, args.format)
    return EXIT_OK


def _cmd_spectral(args) -> int:
    weights = [Weight(alpha) for alpha in args.alphas]
    rows = []
    for text, sym in args.symbols:
        est = angular_derivative_estimate(sym, args.grid)
        rhos = spectral_radius_estimate(weights, est, args.iterations)
        rows += [{"symbol": sym.to_dict(), "symbol_text": text,
                  "alpha": alpha, **rho.to_dict()}
                 for alpha, rho in zip(args.alphas, rhos)]
    _emit({"grid": args.grid.to_dict(), "rows": rows}, args, args.format)
    return EXIT_OK


def _cmd_report(args) -> int:
    results = report_mod.run_all(args.seed)
    criteria = [r.to_dict() for r in results]
    # Determinism is itself a criterion: rerun the suite with the same seed
    # and require an identical canonical serialization.
    rerun = [r.to_dict() for r in report_mod.run_all(args.seed)]
    deterministic = (_canonical_json({"criteria": criteria})
                     == _canonical_json({"criteria": rerun}))
    criteria.append({"number": 11, "name": "report_determinism",
                     "passed": deterministic, "details": {}})
    for item in criteria:
        status = "PASS" if item["passed"] else "FAIL"
        print(f"[{status}] criterion {item['number']:2d}: {item['name']}",
              file=sys.stderr)
    all_passed = all(item["passed"] for item in criteria)
    _emit({"criteria": criteria, "all_passed": all_passed}, args)
    return EXIT_OK if all_passed else EXIT_CONFIG


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value may start with a minus sign: "-1e-5", "-inf", "-1,1e6,..."
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)",
                                                   re.IGNORECASE)

    def error(self, message):
        raise CliError(message)


def _subcommand(sub, name: str, func, help: str, reads: tuple, **defaults):
    """Subcommand ``name``, with the flags and run-config keys of the inputs
    ``reads``, seed and out; ``defaults`` overrides an input's default."""
    parser = sub.add_parser(name, help=help)
    inputs, kinds = {}, {}
    for key, (flag, options, kind, default) in _INPUTS.items():
        if key in reads + ("seed", "out"):
            if flag:
                item = kind[0] if isinstance(kind, list) else kind
                parser.add_argument(flag, dest=key,
                                    **{"type": _flag(item), **options})
            inputs[key], kinds[key] = defaults.get(key, default), kind
    parser.add_argument("--config", help="JSON run-config file; flags win")
    parser.set_defaults(func=func, inputs=inputs,
                        run_config=Block("run-config", kinds))
    return parser


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="bergkit",
                     description="Composition-operator numerics on weighted "
                                 "Bergman spaces of the half-plane")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "norm", _cmd_norm, "norm estimates and verdicts",
                    ("symbols", "alphas", "grid", "format"))
    p.add_argument("--require-bounded", action="store_true",
                   help="exit 2 if any symbol is UNBOUNDED")

    p = _subcommand(sub, "psd", _cmd_psd, "positivity certificates",
                    ("symbols", "alphas", "grid"))
    p.add_argument("--kernel", default="gram",
                   help="gram | K:<n> | nevanlinna")
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--trials", type=int, default=100)

    _subcommand(sub, "angular", _cmd_angular, "angular derivative estimates",
                ("symbols", "grid", "format"))

    p = _subcommand(sub, "laplace", _cmd_laplace, "Laplace isometry checks",
                    ("alphas", "quadrature", "format"))
    p.add_argument("--f", type=_flag(HalfLineFunction.from_dict, _modes),
                   help='e.g. "t*exp(-t)+2*t^2*exp(-3*t)"')
    p.add_argument("--f-json",
                   type=_flag(HalfLineFunction.from_dict, json.loads),
                   help="JSON list of {c, beta, s} terms")

    _subcommand(sub, "interp", _cmd_interp, "dyadic interpolation data",
                ("alphas", "format"), alphas=[1.0])

    p = _subcommand(sub, "spectral", _cmd_spectral,
                    "spectral radius estimates",
                    ("symbols", "alphas", "grid", "format"))
    p.add_argument("--iterations", type=int, default=8)

    _subcommand(sub, "report", _cmd_report, "run the acceptance suite", ())
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _apply_config(args)
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:  # CliError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

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
from .laplace import HalfLineFunction, isometry_check
from .opnorm import boundedness_verdict, spectral_radius_estimate
from .space import DEFAULT_NX, DEFAULT_NY, DEFAULT_YMAX, _cached_scheme
from .symbols import (DEFAULT_GRID, INTEGER, REAL, STRING, Affine, Block,
                      Compose, HalfPlaneError, Moebius, PowerMap, SampleGrid,
                      Symbol, angular_derivative_estimate, cayley_conjugate,
                      identity, read_json, symbol_from_dict,
                      validate_self_map)

__all__ = ["main", "parse_symbol", "parse_halfline"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNBOUNDED = 2

FORMATS = ("json", "csv")


class CliError(ValueError):
    pass


# ---------------------------------------------------------------------------
# mini-syntax parsing


def _complex_token(token: str) -> complex:
    try:
        return complex(token.strip().replace(" ", ""))
    except ValueError as exc:
        raise CliError(f"cannot parse complex number from {token!r}") from exc


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


def parse_symbol(text: str) -> Symbol:
    """Parse the command-line symbol syntax.

    affine:a,b_re[,b_im] | moebius:a,b,c,d | power:p | cayley:a,b,c,d |
    compose:(s1;s2) | identity; cayley coefficients must define a disc
    self-map (see ``cayley_conjugate``).
    """
    text = text.strip()
    if text == "identity":
        return identity()
    if text.startswith("json:"):
        return symbol_from_dict(json.loads(text[len("json:"):]))
    if text.startswith("compose:"):
        body = text[len("compose:"):].strip()
        parts = _split_top(body[1:-1], ";")
        if not (body.startswith("(") and body.endswith(")")
                and len(parts) == 2):
            raise CliError("compose syntax is compose:(s1;s2)")
        return Compose(parse_symbol(parts[0]), parse_symbol(parts[1]))
    if ":" not in text:
        raise CliError(f"unrecognized symbol {text!r}")
    kind, _, args = text.partition(":")
    parts = [p for p in args.split(",") if p.strip()]
    if kind == "affine":
        if len(parts) not in (2, 3):
            raise CliError("affine syntax is affine:a,b_re[,b_im]")
        return Affine(float(parts[0]), complex(*map(float, parts[1:])))
    if kind == "power":
        if len(parts) != 1:
            raise CliError("power syntax is power:p")
        return PowerMap(float(parts[0]))
    if kind in ("moebius", "cayley"):
        if len(parts) != 4:
            raise CliError(f"{kind} syntax is {kind}:a,b,c,d")
        a, b, c, d = (_complex_token(p) for p in parts)
        return (Moebius(a, b, c, d) if kind == "moebius"
                else cayley_conjugate(a, b, c, d))
    raise CliError(f"unrecognized symbol kind {kind!r}")


_TERM_RE = re.compile(
    r"^(?:(?P<coef>[^t]*?)\*)?"
    r"(?:t(?:\^(?P<beta>[-+0-9.eE]+))?\*?)?"
    r"exp\(-(?P<rate>.*?)\*?t\)$")


def parse_halfline(text: str) -> HalfLineFunction:
    """Parse sums of c*t^b*exp(-s*t) terms, e.g. "t*exp(-t)+2*t^2*exp(-3*t)".

    Terms are joined by top-level '+'; negative coefficients belong to the
    coefficient token.  The JSON descriptor remains the full-fidelity input.
    """
    terms = []
    for chunk in _split_top(text.replace(" ", ""), "+"):
        match = _TERM_RE.match(chunk)
        if not match:
            raise CliError(f"cannot parse half-line term {chunk!r}")
        coef_text = match.group("coef")
        coef = _complex_token(coef_text.strip("()")) if coef_text else 1.0
        has_t = "t" in chunk.split("exp")[0]
        beta = float(match.group("beta")) if match.group("beta") else (
            1.0 if has_t else 0.0)
        rate_text = match.group("rate")
        rate = _complex_token(rate_text.strip("()")) if rate_text else 1.0
        terms.append((coef, beta, rate))
    return HalfLineFunction.build(terms)


def _parse_grid(text: str) -> SampleGrid:
    parts = text.split(",")
    if len(parts) != 5:
        raise CliError("grid syntax is r_min,r_max,shells,angles,aperture")
    values, kinds = [], {int: "an integer", float: "a number"}
    for name, part in zip(("r_min", "r_max", "shells", "angles", "aperture"),
                          parts):
        convert = int if name in ("shells", "angles") else float
        try:
            values.append(convert(part))
        except ValueError:
            raise CliError(f"--grid {name}: need {kinds[convert]}, not "
                           f"{part!r}") from None
        if convert is int:
            try:  # a count, as a run-config grid reads it
                read_json(values[-1], INTEGER)
            except ValueError:
                raise CliError(f"--grid {name}: need an integer in "
                               f"[0, 2**63), not {part!r}") from None
    r_min, r_max, shells, angles, aperture = values
    try:
        return SampleGrid(aperture, r_min, r_max, shells, angles)
    except ValueError as exc:
        raise CliError(f"--grid: {exc}") from None


def _symbol_text(item) -> str:
    """A run-config ``symbols`` item as ``--symbol`` text: a string is
    mini-syntax, anything else a descriptor that ``parse_symbol`` reads."""
    try:
        return read_json(item, STRING)
    except ValueError:
        return "json:" + json.dumps(item, sort_keys=True)


def _scheme(block):
    """The run-config ``quadrature`` block as the cached scheme it names."""
    quad = read_json(block, Block("quadrature", {
        "n_x": INTEGER, "n_y": INTEGER, "y_max": REAL}))
    return _cached_scheme(quad.get("n_x", DEFAULT_NX),
                          quad.get("n_y", DEFAULT_NY),
                          quad.get("y_max", DEFAULT_YMAX))


def _alpha(text: str) -> float:
    """``--alpha``, read as a run-config ``alphas`` item is."""
    try:
        return read_json(float(text), REAL)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"need a finite number, not {text!r}") from None


def _seed(text: str) -> int:
    """``--seed``, read as a run-config ``seed`` is."""
    try:
        return read_json(int(text), INTEGER)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"need an integer in [0, 2**63), not {text!r}") from None


# The inputs subcommands share, by run-config key, in the order they are
# settled (the grid before the symbols checked on it): the flag, if any,
# and its argparse options, the read_json kind of the key, the default.
_INPUTS = {
    "alphas": ("--alpha", dict(type=_alpha, action="append", metavar="ALPHA",
               help="weight parameter alpha > -1 (repeatable)"),
               [REAL], [0.0]),
    "grid": ("--grid", dict(help="r_min,r_max,shells,angles,aperture"),
             SampleGrid.from_dict, DEFAULT_GRID),
    "symbols": ("--symbol", dict(
        action="append", metavar="SYMBOL",
        help="affine:a,b | moebius:a,b,c,d | power:p | cayley:a,b,c,d | "
             "compose:(s1;s2) | identity"), [_symbol_text], []),
    "quadrature": (None, {}, _scheme, None),
    "format": ("--format", dict(choices=FORMATS), FORMATS, "json"),
    "seed": ("--seed", dict(type=_seed), INTEGER, 0),
    "out": ("--out", dict(help="output path (default stdout)"), STRING, None),
}


def _apply_config(args) -> None:
    """Settle each input the subcommand reads: its flag wins, then its
    value in the run-config file (read as the command's own block), then
    its default; an empty value counts as none.  ``args.grid`` becomes a
    :class:`SampleGrid` and ``args.symbols`` (text, symbol) pairs valid on
    it, at least one except for ``psd``."""
    config = {}
    if args.config:
        with open(args.config) as handle:
            config = read_json(json.load(handle), args.run_config)
    for key, default in args.inputs.items():
        value = getattr(args, key, None)  # None: no flag gave it
        if value is None:
            value = config.get(key) or default
        elif key == "grid":
            value = _parse_grid(value)
        if key == "symbols":
            value = [(text, _validated_symbol(text, args.grid))
                     for text in value]
            if not value and args.command != "psd":
                raise CliError(f"{args.command} needs --symbol or a "
                               "run-config 'symbols' list")
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


def _validated_symbol(text: str, grid: SampleGrid) -> Symbol:
    """The symbol ``text`` names, once it is seen to map ``grid`` into H."""
    sym = parse_symbol(text)
    try:
        validate_self_map(sym, grid)
    except HalfPlaneError as exc:
        raise CliError(f"symbol {text!r} rejected: {exc}"
                       + (f" (witness {exc.witness:g})"
                          if exc.witness is not None else "")) from exc
    return sym


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
    try:
        n = int(kind[2:])
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
    if args.f_json:
        try:
            func = HalfLineFunction.from_dict(json.loads(args.f_json))
        except ValueError as exc:  # not JSON, or not a list of modes
            raise CliError(f"--f-json: {exc}") from None
    elif args.f:
        func = parse_halfline(args.f)
    else:
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
        # argparse's own pattern reads "-1e-5" and "-inf" as options
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$",
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
                parser.add_argument(flag, dest=key, **options)
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
    p.add_argument("--f", help='e.g. "t*exp(-t)+2*t^2*exp(-3*t)"')
    p.add_argument("--f-json", help="JSON list of {c, beta, s} terms")

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

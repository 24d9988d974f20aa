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
    """``text`` split at each ``sep`` outside parentheses that does not
    open a chunk."""
    chunks, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == sep and depth == 0 and i > start:
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


_RUN_CONFIG = Block("run-config", {
    "symbols": [_symbol_text], "alphas": [REAL], "grid": SampleGrid.from_dict,
    "quadrature": Block("quadrature",
                        {"n_x": INTEGER, "n_y": INTEGER, "y_max": REAL}),
    "seed": INTEGER, "format": FORMATS, "out": STRING})


def _apply_config(args) -> None:
    """Fold a JSON run-config file, read as ``_RUN_CONFIG``, into the
    parsed arguments, then parse the grid and validate the symbols, once
    for every subcommand.

    Explicit command-line flags win over file values.  ``--seed`` and
    ``--format`` default to None so that an explicit ``--seed 0`` or
    ``--format json`` is seen; their defaults (0 and json) are filled in
    here, and csv is refused for ``psd`` and ``report``, which have no
    rows.  Afterwards ``args.grid`` is a :class:`SampleGrid` and, for
    subcommands that take ``--symbol``, ``args.symbols`` holds (text,
    symbol) pairs, at least one except for ``psd``.
    """
    config = {}
    if getattr(args, "config", None):
        with open(args.config) as handle:
            config = read_json(json.load(handle), _RUN_CONFIG)
    if hasattr(args, "symbol") and not args.symbol:
        args.symbol = config.get("symbols", [])
    if args.alpha is None:
        args.alpha = config.get("alphas")
    args.grid = (_parse_grid(args.grid) if args.grid
                 else config.get("grid", DEFAULT_GRID))
    if args.seed is None:
        args.seed = config.get("seed", 0)
    if args.format is None:
        args.format = config.get("format", "json")
    if args.format == "csv" and args.command in ("psd", "report"):
        raise CliError(f"{args.command} writes JSON only: it has no rows "
                       "for --format csv")
    if not args.out:
        args.out = config.get("out")
    if "quadrature" in config:
        quad = config["quadrature"]
        args.scheme = _cached_scheme(quad.get("n_x", DEFAULT_NX),
                                     quad.get("n_y", DEFAULT_NY),
                                     quad.get("y_max", DEFAULT_YMAX))
    if hasattr(args, "symbol"):
        args.symbols = _validated_symbols(args.symbol, args.grid)
        if not args.symbols and args.command != "psd":
            raise CliError(f"{args.command} needs --symbol or a run-config "
                           "'symbols' list")


# ---------------------------------------------------------------------------
# output plumbing


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)


def _emit(payload: dict, args) -> None:
    payload = dict(payload, command=args.command, seed=args.seed)
    payload["generated_at"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    if args.format == "csv":
        text = _rows_to_csv(payload["rows"])
    else:
        text = _canonical_json(payload) + "\n"
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


def _validated_symbols(texts, grid: SampleGrid):
    symbols = []
    for text in texts:
        sym = parse_symbol(text)
        try:
            validate_self_map(sym, grid)
        except HalfPlaneError as exc:
            raise CliError(f"symbol {text!r} rejected: {exc}"
                           + (f" (witness {exc.witness:g})"
                              if exc.witness is not None else "")) from exc
        symbols.append((text, sym))
    return symbols


def _cmd_norm(args) -> int:
    """One row per (symbol, alpha) cell, each number in it once: the
    angular and spectral values sit in the row, and ``estimates`` keeps
    only what the row does not restate (traces, lambda and its source)."""
    alphas = args.alpha or [0.0]
    reports = iter(boundedness_verdict([Weight(alpha) for alpha in alphas],
                                       [sym for _, sym in args.symbols],
                                       args.grid))
    rows = []
    for text, sym in args.symbols:
        for alpha in alphas:
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
    _emit({"grid": args.grid.to_dict(), "rows": rows}, args)
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
    for alpha in (args.alpha or [0.0]):
        for trial in range(args.trials):
            pts = grid.sample_points(args.points, rng)
            cells.append((alpha, trial, pts, build(alpha, pts)))
    verdicts = []
    failures = 0
    checked = psd_check([matrix for *_, matrix in cells])
    for (alpha, trial, pts, _), verdict in zip(cells, checked):
        if not verdict.is_psd:
            failures += 1
        verdicts.append({
            "alpha": alpha,
            "trial": trial,
            "points": [[p.real, p.imag] for p in pts],
            **verdict.to_dict(),
        })
    _emit({"kernel": args.kernel, "grid": grid.to_dict(),
           "trials": args.trials, "failures": failures,
           "verdicts": verdicts}, args)
    return EXIT_OK


def _cmd_angular(args) -> int:
    rows = []
    for text, sym in args.symbols:
        est = angular_derivative_estimate(sym, args.grid)
        rows.append({"symbol": sym.to_dict(), "symbol_text": text,
                     **est.to_dict()})
    _emit({"grid": args.grid.to_dict(), "rows": rows}, args)
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
    alphas = args.alpha or [0.0]
    results = isometry_check([Weight(alpha) for alpha in alphas], func,
                             args.scheme)
    rows = [{"alpha": alpha, "f": func.to_dict(), **res.to_dict()}
            for alpha, res in zip(alphas, results)]
    _emit({"rows": rows}, args)
    return EXIT_OK


def _cmd_interp(args) -> int:
    rows = [interp_params(alpha).to_dict() for alpha in (args.alpha or [1.0])]
    _emit({"rows": rows}, args)
    return EXIT_OK


def _cmd_spectral(args) -> int:
    rows = []
    for text, sym in args.symbols:
        est = angular_derivative_estimate(sym, args.grid)
        for alpha in (args.alpha or [0.0]):
            rho = spectral_radius_estimate(Weight(alpha), est, args.iterations)
            rows.append({"symbol": sym.to_dict(), "symbol_text": text,
                         "alpha": alpha, **rho.to_dict()})
    _emit({"grid": args.grid.to_dict(), "rows": rows}, args)
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
        # argparse's own pattern reads "-1e-5" as an option
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise CliError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="bergkit",
                     description="Composition-operator numerics on weighted "
                                 "Bergman spaces of the half-plane")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, symbols=False):
        p.add_argument("--alpha", type=float, action="append",
                       help="weight parameter alpha > -1 (repeatable)")
        p.add_argument("--grid", help="r_min,r_max,shells,angles,aperture")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=FORMATS)
        p.add_argument("--config", help="JSON run-config file; flags win")
        p.set_defaults(scheme=None)
        if symbols:
            p.add_argument("--symbol", action="append", default=[],
                           help="affine:a,b | moebius:a,b,c,d | power:p | "
                                "cayley:a,b,c,d | compose:(s1;s2) | identity")

    p_norm = sub.add_parser("norm", help="norm estimates and verdicts")
    common(p_norm, symbols=True)
    p_norm.add_argument("--require-bounded", action="store_true",
                        help="exit 2 if any symbol is UNBOUNDED")
    p_norm.set_defaults(func=_cmd_norm)

    p_psd = sub.add_parser("psd", help="positivity certificates")
    common(p_psd, symbols=True)
    p_psd.add_argument("--kernel", default="gram",
                       help="gram | K:<n> | nevanlinna")
    p_psd.add_argument("--points", type=int, default=8)
    p_psd.add_argument("--trials", type=int, default=100)
    p_psd.set_defaults(func=_cmd_psd)

    p_ang = sub.add_parser("angular", help="angular derivative estimates")
    common(p_ang, symbols=True)
    p_ang.set_defaults(func=_cmd_angular)

    p_lap = sub.add_parser("laplace", help="Laplace isometry checks")
    common(p_lap)
    p_lap.add_argument("--f", help='e.g. "t*exp(-t)+2*t^2*exp(-3*t)"')
    p_lap.add_argument("--f-json", help="JSON list of {c, beta, s} terms")
    p_lap.set_defaults(func=_cmd_laplace)

    p_int = sub.add_parser("interp", help="dyadic interpolation data")
    common(p_int)
    p_int.set_defaults(func=_cmd_interp)

    p_spec = sub.add_parser("spectral", help="spectral radius estimates")
    common(p_spec, symbols=True)
    p_spec.add_argument("--iterations", type=int, default=8)
    p_spec.set_defaults(func=_cmd_spectral)

    p_rep = sub.add_parser("report", help="run the acceptance suite")
    common(p_rep)
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:  # CliError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

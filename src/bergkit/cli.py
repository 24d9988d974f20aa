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
from .symbols import (DEFAULT_GRID, Affine, Compose, Moebius, PowerMap,
                      SampleGrid, Symbol, angular_derivative_estimate,
                      cayley_conjugate, identity, symbol_from_dict,
                      validate_self_map)

__all__ = ["main", "parse_symbol", "parse_halfline"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNBOUNDED = 2

CSV_COLUMNS = ["symbol", "alpha", "verdict", "lambda_hat", "theoretical",
               "kernel_ratio", "gram_eig", "spectral_radius",
               "essential_lower_bound", "rel_gap_kernel", "rel_gap_gram"]


class CliError(ValueError):
    pass


# ---------------------------------------------------------------------------
# mini-syntax parsing


def _complex_token(token: str) -> complex:
    try:
        return complex(token.strip().replace(" ", ""))
    except ValueError as exc:
        raise CliError(f"cannot parse complex number from {token!r}") from exc


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
        if not (body.startswith("(") and body.endswith(")")):
            raise CliError("compose syntax is compose:(s1;s2)")
        inner = body[1:-1]
        depth = 0
        split_at = -1
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == ";" and depth == 0:
                split_at = i
                break
        if split_at < 0:
            raise CliError("compose syntax is compose:(s1;s2)")
        return Compose(parse_symbol(inner[:split_at]),
                       parse_symbol(inner[split_at + 1:]))
    if ":" not in text:
        raise CliError(f"unrecognized symbol {text!r}")
    kind, _, args = text.partition(":")
    parts = [p for p in args.split(",") if p.strip()]
    if kind == "affine":
        if len(parts) == 2:
            return Affine(float(parts[0]), complex(float(parts[1])))
        if len(parts) == 3:
            return Affine(float(parts[0]),
                          complex(float(parts[1]), float(parts[2])))
        raise CliError("affine syntax is affine:a,b_re[,b_im]")
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
    stripped = text.replace(" ", "")
    terms = []
    depth = 0
    start = 0
    chunks = []
    for i, ch in enumerate(stripped):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "+" and depth == 0 and i > start:
            chunks.append(stripped[start:i])
            start = i + 1
    chunks.append(stripped[start:])
    for chunk in chunks:
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
    return SampleGrid(r_min=float(parts[0]), r_max=float(parts[1]),
                      radial_count=int(parts[2]), angular_count=int(parts[3]),
                      aperture=float(parts[4]))


def _apply_config(args) -> None:
    """Fold a JSON run-config file into the parsed arguments, then parse
    the grid and validate the symbols, once for every subcommand.

    The file may provide symbols (descriptors or mini-syntax strings),
    alphas, grid, quadrature, seed, format and out; explicit command-line
    flags win over file values.  ``--seed`` and ``--format`` default to
    None so that an explicit ``--seed 0`` or ``--format json`` is seen;
    their defaults (0 and json) are filled in here.  Afterwards
    ``args.grid`` is a :class:`SampleGrid` and, for subcommands that take
    ``--symbol``, ``args.symbols`` holds (text, symbol) pairs.
    """
    config = {}
    if getattr(args, "config", None):
        with open(args.config) as handle:
            config = json.load(handle)
    unknown = set(config) - {"symbols", "alphas", "grid", "quadrature",
                             "seed", "format", "out"}
    if unknown:
        raise CliError(f"unknown run-config keys: {sorted(unknown)}")
    if hasattr(args, "symbol") and not args.symbol:
        args.symbol = _coerce(
            lambda syms: [sym if isinstance(sym, str)
                          else _descriptor_to_text(sym) for sym in syms],
            config, "symbols", [])
    if args.alpha is None and "alphas" in config:
        args.alpha = _coerce(lambda alphas: [float(a) for a in alphas],
                             config, "alphas")
    if args.grid:
        args.grid = _parse_grid(args.grid)
    elif "grid" in config:
        args.grid = _coerce(SampleGrid.from_dict, config, "grid")
    else:
        args.grid = DEFAULT_GRID
    if args.seed is None:
        args.seed = _coerce(int, config, "seed", 0)
    if args.format is None:
        args.format = config.get("format", "json")
    if "out" in config and not args.out:
        args.out = config["out"]
    if config.get("quadrature"):
        n_x, n_y, y_max = _coerce(
            lambda quad: (int(quad.get("n_x", DEFAULT_NX)),
                          int(quad.get("n_y", DEFAULT_NY)),
                          float(quad.get("y_max", DEFAULT_YMAX))),
            config, "quadrature")
        args.scheme = _cached_scheme(n_x, n_y, y_max)
    if hasattr(args, "symbol"):
        args.symbols = _validated_symbols(args.symbol, args.grid)


def _coerce(convert, config: dict, key: str, default=None):
    """``convert`` applied to the run-config value under ``key``.  A JSON
    value of the wrong type (null, a number for a list or a block) makes
    ``convert`` raise TypeError or AttributeError; that becomes a
    CliError."""
    try:
        return convert(config.get(key, default))
    except (TypeError, AttributeError) as exc:
        raise CliError(f"run-config {key!r} has a value of the wrong "
                       f"type: {exc}") from exc


def _descriptor_to_text(descriptor: dict) -> str:
    # Round-trip through the library descriptor so config files may carry
    # the same JSON shape the reports emit.
    symbol_from_dict(descriptor)
    return "json:" + json.dumps(descriptor, sort_keys=True)


# ---------------------------------------------------------------------------
# output plumbing


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)


def _emit(payload: dict, args) -> None:
    payload = dict(payload, command=args.command, seed=args.seed)
    payload["generated_at"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    if args.format == "csv" and "rows" in payload:
        text = _rows_to_csv(payload["rows"])
    else:
        text = _canonical_json(payload) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS,
                            extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        flat = {key: ("inf" if isinstance(val, float) and math.isinf(val)
                      else val)
                for key, val in row.items() if key in CSV_COLUMNS}
        flat["symbol"] = row.get("symbol_text", flat.get("symbol"))
        writer.writerow(flat)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# subcommands


def _validated_symbols(texts, grid: SampleGrid):
    symbols = []
    for text in texts:
        sym = parse_symbol(text)
        result = validate_self_map(sym, grid)
        if not result.accepted:
            raise CliError(f"symbol {text!r} rejected: {result.reason}"
                           + (f" (witness {result.witness:g})"
                              if result.witness is not None else ""))
        symbols.append((text, sym))
    return symbols


def _cmd_norm(args) -> int:
    rows = []
    for text, sym in args.symbols:
        for alpha in (args.alpha or [0.0]):
            rep = boundedness_verdict(Weight(alpha), sym, args.grid)
            row = {
                "symbol": sym.to_dict(),
                "symbol_text": text,
                "alpha": alpha,
                "seed": args.seed,
                "verdict": rep.verdict,
                "lambda_hat": rep.angular.to_dict()["lambda_hat"],
                "theoretical": rep.theoretical,
                "kernel_ratio": None,
                "gram_eig": None,
                "spectral_radius": None,
                "essential_lower_bound": rep.essential_lower_bound,
                "rel_gap_kernel": None,
                "rel_gap_gram": None,
                "estimates": rep.to_dict(),
            }
            if rep.verdict == "BOUNDED":
                kr = rep.kernel_ratio.value
                ge = rep.gram.value
                rho = rep.spectral_radius.value
                row.update({
                    "kernel_ratio": kr,
                    "gram_eig": ge,
                    # JSON has no inf: null, as in the estimate's own to_dict
                    "spectral_radius": rho if math.isfinite(rho) else None,
                    "rel_gap_kernel": abs(kr - rep.theoretical) / rep.theoretical,
                    "rel_gap_gram": abs(ge - rep.theoretical) / rep.theoretical,
                })
            rows.append(row)
    _emit({"grid": args.grid.to_dict(), "rows": rows}, args)
    if args.require_bounded and any(r["verdict"] != "BOUNDED" for r in rows):
        return EXIT_UNBOUNDED
    return EXIT_OK


def _cmd_psd(args) -> int:
    grid = args.grid
    rng = np.random.default_rng(args.seed)
    kernel_kind = args.kernel
    symbols = args.symbols

    def build(alpha, pts):
        w = Weight(alpha)
        if kernel_kind == "gram":
            return gram_matrix(w, pts)
        if kernel_kind.startswith("K:"):
            if not symbols:
                raise CliError("K:<n> kernels need --symbol")
            n = int(kernel_kind.split(":", 1)[1])
            _, sym = symbols[0]
            lam = sym.known_lambda
            if lam is None:
                lam = angular_derivative_estimate(sym, grid).lambda_hat
            if not math.isfinite(lam):
                raise CliError("symbol has no finite angular derivative")
            return defect_kernel_matrix(sym, lam, n, pts)
        if kernel_kind == "nevanlinna":
            if not symbols:
                raise CliError("nevanlinna kernels need --symbol")
            return nevanlinna_kernel(symbols[0][1], pts)
        raise CliError(f"unknown kernel {kernel_kind!r} (gram | K:<n> | nevanlinna)")

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
    _emit({"kernel": kernel_kind, "grid": grid.to_dict(),
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
        func = HalfLineFunction.from_dict(json.loads(args.f_json))
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
        for alpha in (args.alpha or [0.0]):
            est = spectral_radius_estimate(Weight(alpha), sym,
                                           args.iterations, args.grid)
            rows.append({"symbol": sym.to_dict(), "symbol_text": text,
                         "alpha": alpha, **est.to_dict()})
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
    def error(self, message):
        raise CliError(message)


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
        p.add_argument("--format", choices=["json", "csv"])
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
    except (ValueError, OverflowError) as exc:  # CliError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

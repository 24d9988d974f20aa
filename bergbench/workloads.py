"""Seeded operation lists for the three benchmark workloads.

An op is one ``bergkit.cli.main(argv)`` call; its ``items`` count the
units of useful work inside it (cells, verdicts or isometry checks).  A
round is a fixed list of ``ROUND_OPS`` ops; every run repeats whole
rounds of the same ops.  The seed only moves values (coefficients,
alphas, sample seeds); the make-up of a round (families, kernels, sizes,
trial counts, and the slice of the alpha range each op draws from) is
fixed, so op costs stay comparable across seeds.

Every symbol carries its own closed-form map and angular derivative
``lam`` (None when the operator is unbounded), which the checks use in
place of anything bergkit reports.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

# With 15 ops of distinct cost per round, the 50th and 90th percentiles
# of op time fall at positions 7.5 and 13.5: mid-way through one op's
# samples, never on the gap between two ops, so they do not jump with noise.
ROUND_OPS = 15

DOUBLED_SCHEME = {"n_x": 320, "n_y": 800, "y_max": 400.0}


@dataclass(frozen=True)
class Sym:
    """A symbol as the CLI spells it, with its map and angular derivative."""

    text: str
    lam: Optional[float]
    fn: Callable = field(compare=False, repr=False)


@dataclass(frozen=True)
class Op:
    argv: list
    items: int
    spec: dict


def _q(rng: random.Random, lo: float, hi: float, step: float = 0.25) -> float:
    """A value on the grid lo + k*step; quarter steps are exact in binary."""
    return lo + step * rng.randrange(int(round((hi - lo) / step)) + 1)


def _cplx(z: complex) -> str:
    return f"{z.real!r}{z.imag:+}j"


# -- bounded families: infinity is fixed with angular derivative lam ----------
# Each family keeps lam <= 2, as the acceptance criteria do: with larger lam
# the spectral-radius iterates of `bergkit norm` can read as divergent and
# the command then fails (see CHANGES.md).

def affine(rng):
    a, b = _q(rng, 0.5, 4.0), complex(_q(rng, 0.25, 3.0), _q(rng, -2.0, 2.0))
    return Sym(f"affine:{a!r},{b.real!r},{b.imag!r}", 1.0 / a,
               lambda z: a * z + b)


def moebius_fixing_infinity(rng):
    # Re b > 0: with Re b = 0 the map is a dilation plus an imaginary shift,
    # whose Gram pencil is a multiple of the identity, and the cell costs a
    # third of the others; drawn by chance, that made a round's cost hang on
    # the seed.  power:1 stands for that case in every round.
    a = _q(rng, 0.5, 3.0)
    d = _q(rng, 0.25, min(3.0, 2.0 * a))
    b = complex(_q(rng, 0.25, 2.0), _q(rng, -2.0, 2.0))
    return Sym(f"moebius:{a!r},{_cplx(b)},0,{d!r}", d / a,
               lambda z: (a * z + b) / d)


def cayley_fixing_infinity(rng):
    # Disc map psi(zeta) = (a zeta + b) / (a + b) fixes 1, the image of
    # infinity; its half-plane conjugate is ((a + b) z + b) / a.
    a, b = _q(rng, 1.0, 4.0, 1.0), _q(rng, 1.0, 4.0, 1.0)
    return Sym(f"cayley:{a!r},{b!r},0,{a + b!r}", a / (a + b),
               lambda z: ((a + b) * z + b) / a)


def composition(rng):
    outer = rng.choice((affine, moebius_fixing_infinity))(rng)
    inner = rng.choice((affine, moebius_fixing_infinity))(rng)
    return Sym(f"compose:({outer.text};{inner.text})", outer.lam * inner.lam,
               lambda z: outer.fn(inner.fn(z)))


def identity_power(rng):
    return Sym("power:1", 1.0, lambda z: z)


# -- unbounded families: no finite angular derivative -------------------------

def power_below_one(rng):
    # p <= 0.7 keeps the ratio growth over the estimator's five-shell
    # window above its 1.5 divergence threshold.
    p = round(_q(rng, 0.1, 0.7, 0.05), 2)
    return Sym(f"power:{p!r}", None, lambda z: z ** p)


def moebius_finite_limit(rng):
    # Nonnegative coefficients map H into H; c > 0 sends infinity to a/c.
    while True:
        a, b = _q(rng, 0.5, 3.0), _q(rng, 0.0, 3.0)
        c, d = _q(rng, 0.25, 3.0), _q(rng, 0.25, 3.0)
        if a * d != b * c:
            break
    return Sym(f"moebius:{a!r},{b!r},{c!r},{d!r}", None,
               lambda z: (a * z + b) / (c * z + d))


BOUNDED = (affine, moebius_fixing_infinity, cayley_fixing_infinity,
           composition, identity_power)
UNBOUNDED = (power_below_one, moebius_finite_limit)
# K^n needs a nontrivial defect kernel; the identity's is the zero matrix.
DEFECT_SYMBOLS = BOUNDED[:4]


def _draw(rng, lo: float, hi: float) -> float:
    """A value in [lo, hi] to two decimals, never an integer: numpy takes a
    faster path for integral powers, and hitting it by chance (a mode
    t^3.0 ran three times faster than its neighbours) made a round's cost
    hang on the seed."""
    while True:
        value = round(rng.uniform(lo, hi), 2)
        if value != int(value):
            return value


def _alphas(rng, name: str, count: int, hi: float) -> list:
    """``count`` alphas, each drawn from its own slice of [0, hi].  Which
    slice feeds which op is fixed per workload, not per seed, so every seed
    covers [0, hi] alike and gives each op an alpha of the same size."""
    width = hi / count
    slices = random.Random(f"{name} alpha slices").sample(range(count), count)
    return [_draw(rng, k * width, (k + 1) * width) for k in slices]


def norm_sweep(rng, seed):
    # Every op holds one cell of each family, so ops cost alike and the
    # median op is not one at the edge between a cheap and a dear kind.
    ops = []
    for alpha in _alphas(rng, "norm_sweep", ROUND_OPS, 6.0):
        syms = [family(rng) for family in BOUNDED + UNBOUNDED]
        argv = ["norm", "--alpha", repr(alpha), "--seed", str(seed)]
        for sym in syms:
            argv += ["--symbol", sym.text]
        ops.append(Op(argv, len(syms), {"cells": [(s, alpha) for s in syms]}))
    return ops


def psd_trials(rng, seed):
    templates = ([(8, "gram", None), (8, "gram", None)]
                 + [(8, f"K:{n}", DEFECT_SYMBOLS) for n in (1, 2, 4, 8)]
                 + [(8, "nevanlinna", (f,)) for f in UNBOUNDED]
                 + [(8, "nevanlinna", BOUNDED), (16, "gram", None)]
                 + [(16, f"K:{n}", DEFECT_SYMBOLS) for n in (1, 2, 4, 8)]
                 + [(16, "nevanlinna", BOUNDED + UNBOUNDED)])
    assert len(templates) == ROUND_OPS
    pool = _alphas(rng, "psd_trials", 2 * ROUND_OPS, 6.0)
    ops = []
    for i, (points, kernel, families) in enumerate(templates):
        trials = 6 if points == 8 else 2
        alphas = pool[2 * i:2 * i + 2]
        argv = ["psd", "--kernel", kernel, "--points", str(points),
                "--trials", str(trials), "--seed", str(rng.randrange(2 ** 31))]
        # One symbol per template, the same for every seed: the symbol sets
        # the cost of all of an op's solves, so a seeded one would make the
        # cost of a round depend on a handful of draws.
        fixed = random.Random(f"psd_trials symbol {i}")
        sym = fixed.choice(families)(fixed) if families else None
        if sym is not None:
            argv += ["--symbol", sym.text]
        for alpha in alphas:
            argv += ["--alpha", repr(alpha)]
        ops.append(Op(argv, trials * len(alphas),
                      {"kernel": kernel, "symbol": sym, "trials": trials,
                       "alphas": alphas}))
    return ops


def _halfline_text(terms) -> str:
    # Parenthesized coefficients: a text that starts with '-' would be
    # taken by argparse for an option.
    return "+".join(f"({_cplx(c)})*t^{beta!r}*exp(-({_cplx(s)})*t)"
                    for c, beta, s in terms)


def _mode(rng, beta: float):
    c = complex(_q(rng, -2.0, 2.0), _q(rng, -2.0, 2.0)) or 1.0
    return complex(c), beta, complex(_q(rng, 0.5, 3.0), _q(rng, -1.0, 1.0))


def quadrature(rng, seed, config_path: Path):
    # (modes, alphas, closed form, doubled scheme): one plain op first, so
    # the warm-up op fills bergkit's default-scheme cache.
    kinds = ([(2, 2, False, False)] * 6 + [(1, 2, False, False)] * 3
             + [(2, 1, True, False)] * 3 + [(2, 1, False, True)] * 3)
    order = [0, 11, 6, 12, 1, 9, 7, 13, 2, 10, 8, 14, 3, 4, 5]
    pool = iter(_alphas(rng, "quadrature", sum(k[1] for k in kinds), 3.0))
    ops = []
    for modes, n_alpha, closed, doubled in (kinds[i] for i in order):
        alphas = [next(pool) for _ in range(n_alpha)]
        if closed:
            terms = [_mode(rng, 1.0 + alphas[0]) for _ in range(modes)]
        else:
            # beta >= alpha/2 + 1.5 keeps the |y| > y_max tail of the
            # quadrature well under the 1e-3 gap the checks allow.
            low = max(alphas) / 2 + 1.5
            terms = [_mode(rng, _draw(rng, low, low + 2.0))
                     for _ in range(modes)]
        argv = ["laplace", "--f", _halfline_text(terms), "--seed", str(seed)]
        for alpha in alphas:
            argv += ["--alpha", repr(alpha)]
        if doubled:
            argv += ["--config", str(config_path)]
        ops.append(Op(argv, len(alphas), {"terms": terms, "alphas": alphas}))
    return ops


WORKLOADS = ("norm_sweep", "psd_trials", "quadrature")


def generate(name: str, seed: int, out_dir: Path) -> list:
    """The round of ops for a workload; the same seed gives the same ops."""
    rng = random.Random(f"{name}:{seed}")
    if name == "norm_sweep":
        return norm_sweep(rng, seed)
    if name == "psd_trials":
        return psd_trials(rng, seed)
    if name == "quadrature":
        out_dir.mkdir(parents=True, exist_ok=True)
        config_path = out_dir / "doubled_scheme.json"
        config_path.write_text(json.dumps({"quadrature": DOUBLED_SCHEME}))
        return quadrature(rng, seed, config_path)
    raise ValueError(f"unknown workload {name!r} (one of {', '.join(WORKLOADS)})")

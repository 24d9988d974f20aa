"""Numerical inner products on the weighted Bergman space.

The inner product is

    <f, g> = (1/pi) * int_{-inf}^{inf} int_0^{inf} x^alpha f(x+iy)
             conj(g(x+iy)) dx dy.

It is taken on a tensor rule.  The half-line x-integral uses the
double-exponential rule of Takahasi and Mori: x = exp(pi/2 sinh t) with
n_x equispaced t over the fixed window |t| <= 4, so x runs from 2e-19
to 4e18 and the step h shrinks as n_x grows.  The x^alpha factor stays
in the integrand, so one node set serves every alpha > -1, and the
rule converges exponentially in 1/h for the endpoint power x^alpha and
the algebraic decay of kernel integrands alike (Trefethen and Weideman,
SIAM Review 56, 2014).  Every other node carries the same rule at step
2h, which :func:`nested_integrals` sums as well: the two sums differ by
about the coarser sum's error, an estimate of the finer one's that costs
no further evaluation.  x^alpha depends on x alone, so it weights the
integrand's y sums, one per x node, and every sum is a ufunc reduction
in numpy's fixed order, with no BLAS product.

The y-integral uses Gauss-Legendre panels graded dyadically away from
the real axis, where kernel integrands peak, up to |y| = y_max.  Past
y_max one inverted panel y = y_max/s, s in (0, 1), on each side covers
the tail with twice a panel's nodes, so nothing is cut off.

The default rule (39 x nodes, 256 y nodes, y_max = 32: 9,984 nodes) was
sized by its measured error, for alpha in [0, 3] and kernel points in the
sector |arg z| <= pi/4, 0.3 <= |z| <= 8.  There a pairing of kernel
combinations is within 1e-4 of the product of their terms' scales,
sum |c_i| ||k_{z_i}|| (3e-5 at worst, for points on opposite edges of
the sector at |z| = 8, and a few 1e-8 typically), and the norm of a
Laplace transform of modes t^beta e^(-st) with beta >= alpha/2 + 1,
0.5 <= Re s <= 3 and |Im s| <= 1 within 1e-6 of its modes' scale.  The y
rule is sized finer than the x rule, so that the nested estimate bounds
the error: it did so in each of 3,000 random kernel norms and 3,000
random transform norms, by a factor of at least 3.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .kernels import Weight, bergman_kernel, kernel_function
from .symbols import (INTEGER, REAL, Block, read_json, require_half_plane,
                      write_json)

__all__ = [
    "QuadratureScheme",
    "default_scheme",
    "inner_product",
    "nested_integrals",
    "KernelCombination",
    "reproducing_check",
    "ReproducingResult",
]

DEFAULT_NX = 39
DEFAULT_NY = 256
DEFAULT_YMAX = 32.0
_QUADRATURE = Block("quadrature", {"n_x": INTEGER, "n_y": INTEGER,
                                  "y_max": REAL})

# The x rule's nodes are t = -4, ..., 4 in x = exp(pi/2 sinh t).
_DE_WINDOW = 4.0


def _gauss_legendre(n: int, lo: float, hi: float):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def _panel_bounds(y_max: float) -> list[float]:
    bounds, edge = [0.0], min(1.0, y_max)
    while edge < y_max:
        bounds.append(edge)
        edge *= 2.0
    bounds.append(y_max)
    return bounds


@dataclass(frozen=True)
class QuadratureScheme:
    """Fixed tensor quadrature rule for the half-plane integral.  Equality
    and hashing follow ``(n_x, n_y, y_max)``, which build the nodes."""

    x_nodes: np.ndarray = field(compare=False)
    x_weights: np.ndarray = field(compare=False)
    y_nodes: np.ndarray = field(compare=False)
    y_weights: np.ndarray = field(compare=False)
    n_x: int
    n_y: int
    y_max: float

    @classmethod
    def build(cls, n_x: int = DEFAULT_NX, n_y: int = DEFAULT_NY,
              y_max: float = DEFAULT_YMAX) -> "QuadratureScheme":
        if n_x < 2 or n_y < 4:
            raise ValueError("node counts too small")
        if y_max <= 0:
            raise ValueError("y_max must be positive")
        t, h = np.linspace(-_DE_WINDOW, _DE_WINDOW, n_x, retstep=True)
        x = np.exp(0.5 * math.pi * np.sinh(t))
        wx = h * 0.5 * math.pi * np.cosh(t) * x
        bounds = _panel_bounds(y_max)
        # the tail panel counts as two
        per_panel = max(4, int(round(n_y / (2 * (len(bounds) + 1)))))
        panels = [_gauss_legendre(per_panel, lo, hi)
                  for lo, hi in zip(bounds[:-1], bounds[1:])]
        s, ws = _gauss_legendre(2 * per_panel, 0.0, 1.0)
        panels.append((y_max / s, y_max / s ** 2 * ws))
        y = np.concatenate([sign * nodes for nodes, _ in panels
                            for sign in (1.0, -1.0)])
        wy = np.concatenate([weights for _, weights in panels
                             for _ in (1, 2)])
        return cls(x, wx, y, wy, n_x, n_y, y_max)

    @classmethod
    def from_dict(cls, data) -> "QuadratureScheme":
        """The cached scheme a ``quadrature`` block names, read by read_json;
        a missing key keeps its default.  The keys go in positionally, as
        ``default_scheme()`` passes them, so both share one cache entry."""
        given = {"n_x": DEFAULT_NX, "n_y": DEFAULT_NY, "y_max": DEFAULT_YMAX,
                 **read_json(data, _QUADRATURE)}
        return _cached_scheme(*given.values())

    def to_dict(self) -> dict:
        return write_json(self, _QUADRATURE.keys)

    @cached_property
    def x_weights_2h(self) -> np.ndarray:
        """The x rule at step 2h: twice the weight at every other node,
        starting from the first, and 0 at the rest."""
        weights = np.zeros_like(self.x_weights)
        weights[::2] = 2.0 * self.x_weights[::2]
        return weights


@lru_cache(maxsize=8)
def _cached_scheme(n_x: int, n_y: int, y_max: float) -> QuadratureScheme:
    return QuadratureScheme.build(n_x, n_y, y_max)


def default_scheme() -> QuadratureScheme:
    return _cached_scheme(DEFAULT_NX, DEFAULT_NY, DEFAULT_YMAX)


# A grid is split into row blocks, one per usable CPU, of at least this many
# entries each, and each block is walked in row chunks of at most this many.
_BLOCK_ENTRIES = 2 ** 14


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(scheme: QuadratureScheme, fill: Callable) -> None:
    """``fill(rows, z)`` for every row chunk ``rows`` of the scheme's grid,
    with its nodes ``z = x_nodes[rows, None] + 1j*y_nodes``: the one walk
    of a quadrature grid.

    The rows are split into blocks, one per usable CPU while each keeps at
    least 2**14 entries, and each block is walked in chunks of whole rows
    of at most 2**14 entries (one row where a row is longer).  The first
    block runs on the calling thread, each other on a thread of its own
    that runs in a copy of the caller's context, so numpy's ``errstate``
    holds there too.  Every thread is joined before this returns; an
    error a block raised is raised here, the lowest block's first."""
    n_x, n_y = len(scheme.x_nodes), len(scheme.y_nodes)
    step = max(1, _BLOCK_ENTRIES // n_y)
    count = max(1, min(_usable_cpus(), n_x * n_y // _BLOCK_ENTRIES, n_x))
    edges = [n_x * k // count for k in range(count + 1)]
    iy, errors = 1j * scheme.y_nodes, [None] * count

    def block(index):
        try:
            for lo in range(edges[index], edges[index + 1], step):
                rows = slice(lo, min(lo + step, edges[index + 1]))
                fill(rows, scheme.x_nodes[rows, None] + iy)
        except BaseException as exc:  # raised again on the calling thread
            errors[index] = exc

    threads = []
    try:
        for index in range(1, count):
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(block, index))
            thread.start()
            threads.append(thread)
        block(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def nested_integrals(weights: Sequence[Weight], integrand: Callable,
                     scheme: QuadratureScheme, dtype=complex
                     ) -> list[tuple[complex, complex]]:
    """Quadrature approximations of (1/pi) int x^alpha h(z) dx dy, one pair
    per weight: the rule's and the one whose x rule has step 2h, which
    uses every other x node of the same values.

    ``integrand(z, out)`` writes h at the nodes ``z`` of a row chunk into
    ``out``, rows of one grid of ``dtype``; :func:`_run_blocks` calls it,
    under an ``errstate`` that ignores overflow and invalid results.  Each
    chunk is weighted by the y rule in place as it is filled and summed
    along its rows into one profile over x, in numpy's pairwise order, so
    the bits depend neither on how the rows were split nor on the BLAS.
    x^alpha depends on x alone: it weights the profile, once per weight,
    and where x^alpha leaves the float range the product is taken in log
    space."""
    values = np.empty((len(scheme.x_nodes), len(scheme.y_nodes)), dtype)
    profile = np.empty(len(scheme.x_nodes), dtype)

    def fill(rows, z):
        chunk = values[rows]
        integrand(z, chunk)
        chunk *= scheme.y_weights
        np.add.reduce(chunk, axis=1, out=profile[rows])

    sums = []
    with np.errstate(invalid="ignore", over="ignore"):
        _run_blocks(scheme, fill)
        profile /= math.pi
        for weight in weights:
            g = profile * scheme.x_nodes ** weight.alpha
            bad = ~np.isfinite(g)
            if bad.any():
                with np.errstate(all="ignore"):
                    redone = np.exp(np.log(profile[bad].astype(complex))
                                    + weight.alpha
                                    * np.log(scheme.x_nodes[bad]))
                g[bad] = redone if g.dtype.kind == "c" else redone.real
                if not np.all(np.isfinite(g)):
                    raise ValueError(
                        "integrand is not finite at a quadrature node")
            sums.append((complex(np.add.reduce(scheme.x_weights * g)),
                         complex(np.add.reduce(scheme.x_weights_2h * g))))
    return sums


def inner_product(weight: Weight, f: Callable, g: Callable,
                  scheme: QuadratureScheme | None = None) -> complex:
    """Quadrature approximation of <f, g> in the weighted Bergman space.

    ``f`` and ``g`` must evaluate on complex arrays, entry by entry; the
    caller is responsible for integrable decay (kernel combinations always
    qualify).  They are called on the nodes of one row chunk of the grid
    at a time, and may run on worker threads for grids of 2 x 2**14
    entries or more.
    """
    def integrand(z, out):
        np.multiply(np.asarray(f(z), dtype=complex),
                    np.conj(np.asarray(g(z), dtype=complex)), out=out)

    return nested_integrals([weight], integrand,
                            scheme or default_scheme())[0][0]


@dataclass(frozen=True)
class KernelCombination:
    """Finite combination f = sum_i c_i k_{z_i} given by coefficients and points."""

    weight: Weight
    coeffs: tuple
    points: tuple

    @classmethod
    def build(cls, weight: Weight, coeffs: Sequence[complex],
              points: Sequence[complex]) -> "KernelCombination":
        coeffs = tuple(complex(c) for c in coeffs)
        points = tuple(complex(p) for p in points)
        if len(coeffs) != len(points):
            raise ValueError("need one coefficient per kernel point")
        require_half_plane(points)
        return cls(weight, coeffs, points)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        pts = np.reshape(self.points, (-1,) + (1,) * z.ndim)
        coeffs = np.reshape(self.coeffs, pts.shape)
        # The builtin sum adds the rows one point at a time, in point order;
        # numpy's pairwise reductions would round differently.
        total = sum(coeffs * bergman_kernel(self.weight, pts, z),
                    np.zeros_like(z))
        if total.ndim == 0:
            return complex(total)
        return total

    def exact_value(self, omega) -> complex:
        """f(omega) from the closed-form kernel, no quadrature."""
        values = bergman_kernel(self.weight, np.asarray(self.points, complex),
                                omega)
        # Scalar products summed in point order, as the report has always
        # serialized them: numpy's vectorized complex products use fused
        # multiply-adds where the CPU has them, and round differently.
        return complex(sum(c * v for c, v in zip(self.coeffs, values.tolist())))

    def norm_squared(self) -> float:
        """||f||^2 from the kernel Gram identity <k_w, k_v> = k_w(v)."""
        pts = np.asarray(self.points, dtype=complex)
        gram = bergman_kernel(self.weight, pts[:, None], pts[None, :])
        pairs = itertools.product(self.coeffs, repeat=2)
        return float(sum(ci * cj.conjugate() * g for (ci, cj), g
                         in zip(pairs, gram.ravel().tolist())).real)


@dataclass(frozen=True)
class ReproducingResult:
    residual: float
    exact: complex
    quadrature: complex


def reproducing_check(weight: Weight, combination: KernelCombination,
                      omega) -> ReproducingResult:
    """Residual |<f, k_omega> - f(omega)| for a finite kernel combination.

    The inner product side runs through quadrature while f(omega) comes
    from the closed-form kernel, so the residual measures how well the
    numerical pairing reproduces point evaluation on the default scheme.
    """
    omega = complex(omega)
    exact = combination.exact_value(omega)
    if not combination.coeffs:
        return ReproducingResult(0.0, 0j, 0j)
    quad = inner_product(weight, combination, kernel_function(weight, omega))
    return ReproducingResult(abs(quad - exact), exact, quad)

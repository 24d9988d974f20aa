"""Numerical inner products on the weighted Bergman space.

The inner product is

    <f, g> = (1/pi) * int_{-inf}^{inf} int_0^{inf} x^alpha f(x+iy)
             conj(g(x+iy)) dx dy.

The half-line x-integral is mapped to (0, 1) by x = u/(1-u) and handled
with Gauss-Legendre nodes (the x^alpha factor stays in the integrand, so
every alpha > -1 is treated uniformly and nodes never touch x = 0).  The
y-integral is truncated at |y| <= y_max and covered by Gauss-Legendre
panels graded dyadically away from the real axis, where kernel integrands
peak.  Kernel-type integrands decay like |y|^-(4+2*alpha), which keeps the
truncation error below the quadrature targets for alpha >= 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .kernels import Weight, bergman_kernel, kernel_function
from .symbols import require_half_plane

__all__ = [
    "QuadratureScheme",
    "default_scheme",
    "inner_product",
    "weighted_integral",
    "KernelCombination",
    "reproducing_check",
    "ReproducingResult",
]

DEFAULT_NX = 160
DEFAULT_NY = 400
DEFAULT_YMAX = 200.0


def _gauss_legendre(n: int, lo: float, hi: float):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def _panel_bounds(y_max: float) -> list[float]:
    bounds = [0.0, 1.0]
    while bounds[-1] * 2.0 < y_max:
        bounds.append(bounds[-1] * 2.0)
    bounds.append(y_max)
    return bounds


@dataclass(frozen=True)
class QuadratureScheme:
    """Fixed tensor quadrature rule for the half-plane integral."""

    x_nodes: np.ndarray
    x_weights: np.ndarray
    y_nodes: np.ndarray
    y_weights: np.ndarray
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
        u, wu = _gauss_legendre(n_x, 0.0, 1.0)
        x = u / (1.0 - u)
        wx = wu / (1.0 - u) ** 2
        bounds = _panel_bounds(y_max)
        per_panel = max(4, int(round(n_y / (2 * (len(bounds) - 1)))))
        ys, wys = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            nodes, weights = _gauss_legendre(per_panel, lo, hi)
            ys.append(nodes)
            wys.append(weights)
            ys.append(-nodes)
            wys.append(weights)
        y = np.concatenate(ys)
        wy = np.concatenate(wys)
        return cls(x, wx, y, wy, n_x, n_y, y_max)

    def doubled(self) -> "QuadratureScheme":
        """Refinement used for error estimation: twice the nodes in each
        direction and twice the truncation window, so the declared error
        estimate sees the |y| > y_max tail as well (it decays only like
        y_max^-(2+alpha))."""
        return QuadratureScheme.build(2 * self.n_x, 2 * self.n_y,
                                      2.0 * self.y_max)

    @cached_property
    def z(self) -> np.ndarray:
        """The tensor grid of nodes, ``z[i, j] = x_nodes[i] + 1j*y_nodes[j]``,
        built once per scheme and read-only, since every caller shares it."""
        z = self.x_nodes[:, None] + 1j * self.y_nodes[None, :]
        z.flags.writeable = False
        return z

    def to_dict(self) -> dict:
        return {"n_x": self.n_x, "n_y": self.n_y, "y_max": self.y_max}


@lru_cache(maxsize=8)
def _cached_scheme(n_x: int, n_y: int, y_max: float) -> QuadratureScheme:
    return QuadratureScheme.build(n_x, n_y, y_max)


def default_scheme() -> QuadratureScheme:
    return _cached_scheme(DEFAULT_NX, DEFAULT_NY, DEFAULT_YMAX)


def weighted_integral(weight: Weight, values: np.ndarray,
                      scheme: QuadratureScheme) -> complex:
    """Quadrature approximation of (1/pi) int x^alpha h(z) dx dy, where
    ``values`` samples h on ``scheme.z``."""
    with np.errstate(invalid="ignore", over="ignore"):
        values = values * scheme.x_nodes[:, None] ** weight.alpha
    if not np.all(np.isfinite(values)):
        raise ValueError("integrand is not finite at a quadrature node")
    total = scheme.x_weights @ values @ scheme.y_weights
    return complex(total / math.pi)


def inner_product(weight: Weight, f: Callable, g: Callable,
                  scheme: QuadratureScheme | None = None) -> complex:
    """Quadrature approximation of <f, g> in the weighted Bergman space.

    ``f`` and ``g`` must evaluate on complex arrays; the caller is
    responsible for integrable decay (kernel combinations always qualify).
    """
    scheme = scheme or default_scheme()
    with np.errstate(invalid="ignore", over="ignore"):
        values = np.asarray(f(scheme.z), dtype=complex) * np.conj(
            np.asarray(g(scheme.z), dtype=complex))
    return weighted_integral(weight, values, scheme)


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

    def to_dict(self) -> dict:
        return {"residual": self.residual,
                "exact": [self.exact.real, self.exact.imag],
                "quadrature": [self.quadrature.real, self.quadrature.imag]}


def reproducing_check(weight: Weight, combination: KernelCombination,
                      omega, scheme: QuadratureScheme | None = None) -> ReproducingResult:
    """Residual |<f, k_omega> - f(omega)| for a finite kernel combination.

    The inner product side runs through quadrature while f(omega) comes
    from the closed-form kernel, so the residual measures how well the
    numerical pairing reproduces point evaluation.
    """
    omega = complex(omega)
    exact = combination.exact_value(omega)
    if not combination.coeffs:
        return ReproducingResult(0.0, 0j, 0j)
    quad = inner_product(weight, combination,
                         kernel_function(weight, omega), scheme)
    return ReproducingResult(abs(quad - exact), exact, quad)

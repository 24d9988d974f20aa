"""Laplace-transform side of the weighted Paley-Wiener correspondence.

The Bergman space with parameter alpha is the isometric image, under the
Laplace transform L f(z) = int_0^inf f(t) exp(-t z) dt, of
L^2(R_+, dmu_alpha) with

    dmu_alpha = Gamma(1 + alpha) / (2^alpha t^(alpha + 1)) dt.

Functions here are finite sums of monomial modes c * t^beta * exp(-s t)
with Re s > 0.  Every transform and every weighted norm of such a sum is
Gamma-closed-form:

    L[t^beta e^{-st}](z) = Gamma(1 + beta) / (s + z)^(1 + beta),
    int_0^inf t^{k-1} e^{-sigma t} dt = Gamma(k) / sigma^k   (Re sigma > 0),

which provides exact oracles for the isometry without ever forming a
numerical inverse transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .kernels import Weight
from .space import (KernelCombination, QuadratureScheme, default_scheme,
                    weighted_integral)
from .symbols import require_half_plane

__all__ = [
    "ExpMonomial",
    "HalfLineFunction",
    "laplace_eval",
    "mu_alpha_norm",
    "weighted_norm_squared",
    "mu_alpha_density",
    "kernel_preimage",
    "isometry_check",
    "IsometryResult",
]


@dataclass(frozen=True)
class ExpMonomial:
    """One mode c * t^beta * exp(-s t) on the half-line."""

    c: complex
    beta: float
    s: complex

    def __post_init__(self):
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "s", complex(self.s))
        if self.s.real <= 0:
            raise ValueError("decay rate must satisfy Re s > 0")

    def to_dict(self) -> dict:
        return {"c": [self.c.real, self.c.imag], "beta": self.beta,
                "s": [self.s.real, self.s.imag]}


@dataclass(frozen=True)
class HalfLineFunction:
    """Finite sum of exponential monomials, closed under addition."""

    terms: tuple

    @classmethod
    def build(cls, terms: Sequence) -> "HalfLineFunction":
        packed = []
        for term in terms:
            if isinstance(term, ExpMonomial):
                packed.append(term)
            else:
                c, beta, s = term
                packed.append(ExpMonomial(c, beta, s))
        return cls(tuple(packed))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        total = np.zeros(t.shape, dtype=complex)
        for term in self.terms:
            total = total + term.c * t ** term.beta * np.exp(-term.s * t)
        return total

    def min_beta(self) -> float:
        if not self.terms:
            return math.inf
        return min(term.beta for term in self.terms)

    def to_dict(self) -> list:
        return [term.to_dict() for term in self.terms]

    @classmethod
    def from_dict(cls, data) -> "HalfLineFunction":
        return cls.build([(complex(item["c"][0], item["c"][1]),
                           float(item["beta"]),
                           complex(item["s"][0], item["s"][1]))
                          for item in data])


def laplace_eval(f: HalfLineFunction, z) -> complex:
    """Closed-form Laplace transform of f at a half-plane point."""
    z = require_half_plane(z)
    total = np.zeros(z.shape, dtype=complex)
    for term in f.terms:
        if term.beta <= -1.0:
            raise ValueError(
                f"transform of t^{term.beta:g} diverges at the origin")
        total = total + term.c * math.gamma(1.0 + term.beta) / (
            term.s + z) ** (1.0 + term.beta)
    if total.ndim == 0:
        return complex(total)
    return total


def weighted_norm_squared(f: HalfLineFunction, alpha: float,
                          density_const: float) -> float:
    """||f||^2 against the density density_const / (2^alpha t^(alpha+1)) dt.

    Every cross term reduces to Gamma(b_i + b_j - alpha) /
    (s_i + conj s_j)^(b_i + b_j - alpha); integrability at the origin
    requires beta > alpha/2 for each mode.
    """
    for term in f.terms:
        if not 2.0 * term.beta - alpha > 0.0:
            raise ValueError(
                f"t^{term.beta:g} mode is not square-integrable against the "
                f"weight (needs beta > alpha/2 = {alpha / 2:g})")
    total = 0j
    for ti in f.terms:
        for tj in f.terms:
            power = ti.beta + tj.beta - alpha
            sigma = ti.s + np.conj(tj.s)
            total += (ti.c * np.conj(tj.c) * math.gamma(power)
                      / sigma ** power)
    value = complex(total * density_const / 2.0 ** alpha)
    return float(value.real)


def mu_alpha_norm(weight: Weight, f: HalfLineFunction) -> float:
    """||f||^2 in L^2(dmu_alpha), in closed form."""
    return weighted_norm_squared(f, weight.alpha,
                                 math.gamma(1.0 + weight.alpha))


def mu_alpha_density(weight: Weight, t) -> float:
    t = np.asarray(t, dtype=float)
    value = math.gamma(1.0 + weight.alpha) / (
        2.0 ** weight.alpha * t ** (weight.alpha + 1.0))
    if value.ndim == 0:
        return float(value)
    return value


def kernel_preimage(weight: Weight, omega) -> HalfLineFunction:
    """The half-line function whose transform is exactly k_omega."""
    omega = complex(require_half_plane(omega))
    coeff = weight.norm_const / math.gamma(2.0 + weight.alpha)
    return HalfLineFunction.build([(coeff, 1.0 + weight.alpha,
                                    omega.conjugate())])


@dataclass(frozen=True)
class IsometryResult:
    """Both sides of ||L f||_{Bergman} = ||f||_{L^2(dmu)} (squared norms).

    ``lhs_closed_form`` is available when L f is a kernel combination
    (every mode has beta = 1 + alpha); ``gap`` uses the closed form when
    present, else the quadrature value.
    """

    lhs_quadrature: float
    lhs_closed_form: Optional[float]
    rhs: float
    gap: float
    quadrature_gap: float

    def to_dict(self) -> dict:
        return {"lhs_quadrature": self.lhs_quadrature,
                "lhs_closed_form": self.lhs_closed_form,
                "rhs": self.rhs, "gap": self.gap,
                "quadrature_gap": self.quadrature_gap}


def isometry_check(weight: Weight | Sequence[Weight], f: HalfLineFunction,
                   scheme: QuadratureScheme | None = None
                   ) -> IsometryResult | list[IsometryResult]:
    """Compare ||L f||^2 computed on the Bergman side with the closed-form
    half-line norm, for one weight or for each weight of a sequence.

    L f does not depend on alpha, so it is evaluated on the quadrature grid
    once and shared by both sides of the pairing and by every weight.
    Returns one :class:`IsometryResult`, or a list with one per weight.
    """
    single = isinstance(weight, Weight)
    weights = (weight,) if single else tuple(weight)
    rhs_values = [mu_alpha_norm(w, f) for w in weights]
    scheme = scheme or default_scheme()
    with np.errstate(invalid="ignore", over="ignore"):
        transformed = laplace_eval(f, scheme.z)
        density = transformed * np.conj(transformed)

    results = []
    for w, rhs in zip(weights, rhs_values):
        lhs_quad = weighted_integral(w, density, scheme).real
        lhs_closed = None
        if f.terms and all(abs(term.beta - (1.0 + w.alpha)) <= 1e-12
                           for term in f.terms):
            # L f = sum c_i Gamma(2+alpha) / (s_i + z)^(2+alpha) is the kernel
            # combination sum chat_i k_{conj(s_i)}; use the Gram identity.
            gamma_top = math.gamma(2.0 + w.alpha)
            lhs_closed = KernelCombination.build(
                w, [term.c * gamma_top / w.norm_const for term in f.terms],
                [term.s.conjugate() for term in f.terms]).norm_squared()

        denom = max(abs(rhs), 1e-300)
        quadrature_gap = abs(lhs_quad - rhs) / denom
        best = lhs_closed if lhs_closed is not None else lhs_quad
        gap = abs(best - rhs) / denom
        results.append(IsometryResult(lhs_quad, lhs_closed, rhs, gap,
                                      quadrature_gap))
    return results[0] if single else results

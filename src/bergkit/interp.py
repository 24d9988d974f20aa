"""Dyadic bracketing and weight arithmetic for interpolated norm bounds.

Every alpha > -1 sits between consecutive dyadic parameters
A = 2^n - 2 and B = 2^(n+1) - 2, and the convex weight theta with
alpha = A(1-theta) + B*theta interpolates the endpoint densities into

    dw = Gamma(1+A)^(1-theta) Gamma(1+B)^theta / (2^alpha t^(1+alpha)) dt,

which is proportional to dmu_alpha.  The exponent identity

    lam^((2+A)(1-theta)/2) * lam^((2+B) theta/2) = lam^((2+alpha)/2)

transfers the dyadic norm values to every intermediate alpha.  For alpha
in (-1, 0) the lower endpoint is the Hardy-space limit A = -1, where
Gamma(1+A) is undefined; that range is flagged and the dw constant is
skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import Weight
from .laplace import HalfLineFunction, _gamma, weighted_norm_squared

__all__ = [
    "InterpolationData",
    "interp_params",
    "exponent_identity_check",
    "norm_rescaling_check",
    "dw_density",
]


@dataclass(frozen=True)
class InterpolationData:
    alpha: float
    n: int
    endpoint_low: float   # A = 2^n - 2
    endpoint_high: float  # B = 2^(n+1) - 2
    theta: float
    weight_const_mu: float
    weight_const_dw: Optional[float]
    ratio: Optional[float]  # dw / dmu_alpha constant
    dyadic: bool
    hardy_endpoint: bool

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "n": self.n,
                "A": self.endpoint_low, "B": self.endpoint_high,
                "theta": self.theta,
                "weight_const_mu": self.weight_const_mu,
                "weight_const_dw": self.weight_const_dw,
                "ratio": self.ratio, "dyadic": self.dyadic,
                "hardy_endpoint": self.hardy_endpoint}


def interp_params(alpha: float) -> InterpolationData:
    """Bracket alpha between dyadic endpoints and compute the weight data.
    ``alpha`` is checked as a :class:`Weight` parameter is."""
    alpha = Weight(alpha).alpha
    n = int(math.floor(math.log2(alpha + 2.0)))
    low = 2.0 ** n - 2.0
    high = 2.0 ** (n + 1) - 2.0
    dyadic = alpha == low
    theta = 0.0 if dyadic else (alpha - low) / (high - low)
    hardy = n == 0 and not dyadic

    def source():
        return f"the weight alpha = {alpha:g}"
    mu_const = _gamma(1.0 + alpha, source) / 2.0 ** alpha
    if hardy:
        dw_const = None
        ratio = None
    else:
        dw_const = (_gamma(1.0 + low, source) ** (1.0 - theta)
                    * _gamma(1.0 + high, source) ** theta) / 2.0 ** alpha
        ratio = dw_const / mu_const
    return InterpolationData(alpha, n, low, high, theta, mu_const, dw_const,
                             ratio, dyadic, hardy)


def exponent_identity_check(data: InterpolationData, lam: float) -> float:
    """Residual of the interpolated exponent identity for a given lam > 0."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    lhs = (lam ** ((2.0 + data.endpoint_low) * (1.0 - data.theta) / 2.0)
           * lam ** ((2.0 + data.endpoint_high) * data.theta / 2.0))
    rhs = lam ** ((2.0 + data.alpha) / 2.0)
    return abs(lhs - rhs)


def dw_density(data: InterpolationData, t) -> float:
    """Interpolated weight density at t > 0."""
    if data.weight_const_dw is None:
        raise ValueError("dw constant undefined at the Hardy endpoint range")
    t = np.asarray(t, dtype=float)
    value = data.weight_const_dw / t ** (1.0 + data.alpha)
    if value.ndim == 0:
        return float(value)
    return value


def norm_rescaling_check(data: InterpolationData, f: HalfLineFunction) -> float:
    """Relative residual of ||f||_{L^2(dw)} * (dmu/dw)^(1/2) = ||f||_{L^2(dmu)}.

    Both norms are evaluated through the same Gamma closed form but with
    their own density constants, so the check exercises the proportionality
    of the two weights rather than trivial algebra on a shared value.
    """
    if data.weight_const_dw is None:
        raise ValueError("rescaling check unavailable for alpha in (-1, 0)")
    if not f.terms:
        return 0.0
    # weighted_norm_squared folds the 1/2^alpha factor in; pass the bare
    # Gamma constants.
    dw_sq = weighted_norm_squared(f, data.alpha,
                                  data.weight_const_dw * 2.0 ** data.alpha)
    mu_sq = weighted_norm_squared(f, data.alpha,
                                  data.weight_const_mu * 2.0 ** data.alpha)
    lhs = math.sqrt(dw_sq) * math.sqrt(1.0 / data.ratio)
    rhs = math.sqrt(mu_sq)
    return abs(lhs - rhs) / max(rhs, 1e-300)

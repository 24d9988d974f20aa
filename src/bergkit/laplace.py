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

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .kernels import Weight, _shifted_power
from .space import (KernelCombination, QuadratureScheme, default_scheme,
                    nested_integrals)
from .symbols import (COMPLEX, REAL, Block, _set_finite, read_json,
                      require_half_plane)

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
    kind = "mode"  # names it in a refusal; not a field

    def __post_init__(self):
        _set_finite(self, complex, "c", "s")
        _set_finite(self, float, "beta")
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
        """The sum of the modes (c, beta, s) in ``terms``."""
        return cls(tuple(ExpMonomial(c, beta, s) for c, beta, s in terms))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        total = np.zeros(t.shape, dtype=complex)
        for term in self.terms:
            total = total + term.c * t ** term.beta * np.exp(-term.s * t)
        return total

    def to_dict(self) -> list:
        return [term.to_dict() for term in self.terms]

    @classmethod
    def from_dict(cls, data) -> "HalfLineFunction":
        """Inverse of ``to_dict``, read by :func:`read_json` as a list of
        ``{"c", "beta", "s"}`` modes; ``[]`` is the zero function."""
        return cls.build([(mode["c"], mode["beta"], mode["s"])
                          for mode in read_json(data, [_MODE])])


_MODE = Block("mode", {"c": COMPLEX, "beta": REAL, "s": COMPLEX},
              required=True)


def _modes_text(f: HalfLineFunction, *indices: int) -> str:
    """Names the modes of f at ``indices`` in the ``--f`` syntax."""
    named = [f"{i} ({f.terms[i].c:g})*t^{f.terms[i].beta:g}"
             f"*exp(-({f.terms[i].s:g})*t)" for i in dict.fromkeys(indices)]
    return ("mode " if len(named) == 1 else "modes ") + " and ".join(named)


def _gamma(x: float, source: Callable[[], str]) -> float:
    """math.gamma(x), or an OverflowError that names ``source()``, the
    modes or the weight whose closed form needs it."""
    try:
        return math.gamma(x)
    except OverflowError:
        raise OverflowError(f"Gamma({x:g}) of {source()} overflows") from None


# A grid is split into row blocks, one per usable CPU, only while every
# block keeps at least this many entries; smaller arrays start no thread.
_BLOCK_ENTRIES = 2 ** 14


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sum_modes(modes, z, total) -> None:
    """Adds ``coeff / (shift + z) ** p`` of every mode ``(coeff, shift, p)``
    to ``total``, in mode order.

    Entries whose sum is not finite are summed again, mode by mode in the
    same order, with each power that is not finite taken in log space:
    the transform may be representable where ``(shift + z) ** p`` is not.
    The first pass and the powers taken again ignore floating-point
    errors, as their non-finite entries are all redone; a value still
    not finite after the redo reports under the caller's ``errstate``.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mode = None  # one buffer for every mode: fewer fresh pages
        for coeff, shift, p in modes:
            mode = _shifted_power(shift, z, p, out=mode)
            np.divide(coeff, mode, out=mode)
            total += mode
    bad = ~np.isfinite(total)
    if not bad.any():
        return
    z = z[bad]
    redone = np.zeros(z.shape, dtype=complex)
    for coeff, shift, p in modes:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mode = _shifted_power(shift, z, p)
        huge = ~np.isfinite(mode)
        np.divide(coeff, mode, out=mode, where=~huge)
        # a plain 0 is wrong where coeff is near the float limit
        mode[huge] = 0 if coeff == 0 else np.exp(
            np.log(coeff) - p * np.log(shift + z[huge]))
        redone += mode
    total[bad] = redone


def _run_blocks(work: Callable, blocks: list) -> None:
    """``work(*block)`` for every block: the first on the calling thread,
    each other on a thread of its own that runs in a copy of the caller's
    context, so numpy's ``errstate`` holds there too.  Every thread is
    joined before this returns; an error a block raised is raised here,
    the lowest block's first."""
    errors = [None] * len(blocks)

    def guarded(index, *args):
        try:
            work(*args)
        except BaseException as exc:  # raised again on the calling thread
            errors[index] = exc

    threads = []
    try:
        for index, block in enumerate(blocks[1:], start=1):
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(guarded, index, *block))
            thread.start()
            threads.append(thread)
        work(*blocks[0])
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def laplace_eval(f: HalfLineFunction, z):
    """Closed-form Laplace transform of f at half-plane points: a complex
    for a scalar ``z``, else a new array of ``z``'s shape.  ``z`` itself
    is not written to.

    A large ``z`` is split into row blocks, one per usable CPU while each
    block keeps at least 2**14 entries; numpy releases the GIL in the
    per-entry ``log``/``exp`` calls.  Every entry goes through the same
    operations in the same order as on one thread, so the result is the
    same to the bit.  A power ``(s + z) ** (1 + beta)`` past the float
    range is taken in log space.
    """
    z = require_half_plane(z)
    modes = []
    for index, term in enumerate(f.terms):
        if term.beta <= -1.0:
            raise ValueError(
                f"transform of t^{term.beta:g} diverges at the origin")
        gamma = _gamma(1.0 + term.beta, lambda: _modes_text(f, index))
        modes.append((term.c * gamma, term.s, 1.0 + term.beta))
    total = np.zeros(z.shape, dtype=complex)
    count = min(_usable_cpus(), z.size // _BLOCK_ENTRIES,
                len(z) if z.ndim else 1)
    if count > 1:
        blocks = [(modes, rows, out) for rows, out in
                  zip(np.array_split(z, count), np.array_split(total, count))]
    else:
        blocks = [(modes, z, total)]
    _run_blocks(_sum_modes, blocks)
    if total.ndim == 0:
        return complex(total)
    return total


def weighted_norm_squared(f: HalfLineFunction, alpha: float,
                          density_const: float) -> float:
    """||f||^2 against the density density_const / (2^alpha t^(alpha+1)) dt.

    Every cross term reduces to Gamma(b_i + b_j - alpha) /
    (s_i + conj s_j)^(b_i + b_j - alpha); integrability at the origin
    requires beta > alpha/2 for each mode.  A sum that leaves the float
    range raises OverflowError naming the pair of modes, or the weight,
    at which it did.
    """
    for term in f.terms:
        if not 2.0 * term.beta - alpha > 0.0:
            raise ValueError(
                f"t^{term.beta:g} mode is not square-integrable against the "
                f"weight (needs beta > alpha/2 = {alpha / 2:g})")
    total = 0j
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i, ti in enumerate(f.terms):
            for j, tj in enumerate(f.terms):
                power = ti.beta + tj.beta - alpha
                sigma = ti.s + np.conj(tj.s)
                gamma = _gamma(power, lambda: _modes_text(f, i, j))
                total += ti.c * np.conj(tj.c) * gamma / sigma ** power
                if not np.isfinite(total):
                    raise OverflowError("the norm closed form of "
                                        f"{_modes_text(f, i, j)} overflows")
        value = complex(total * density_const / 2.0 ** alpha)
    if not math.isfinite(value.real):
        raise OverflowError("the norm closed form of f for the weight "
                            f"alpha = {alpha:g} overflows")
    return float(value.real)


def mu_alpha_norm(weight: Weight, f: HalfLineFunction) -> float:
    """||f||^2 in L^2(dmu_alpha), in closed form."""
    gamma = _gamma(1.0 + weight.alpha,
                   lambda: f"the weight alpha = {weight.alpha:g}")
    return weighted_norm_squared(f, weight.alpha, gamma)


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
    present, else the quadrature value.  ``quadrature_error_estimate`` is
    |lhs_quadrature - its sum at x step 2h|, relative to ``rhs`` as
    ``quadrature_gap`` is: the error of the coarser sum, which bounds that
    of ``lhs_quadrature`` while the y rule is the finer of the two.
    """

    lhs_quadrature: float
    lhs_closed_form: Optional[float]
    rhs: float
    gap: float
    quadrature_gap: float
    quadrature_error_estimate: float

    def to_dict(self) -> dict:
        return {"lhs_quadrature": self.lhs_quadrature,
                "lhs_closed_form": self.lhs_closed_form,
                "rhs": self.rhs, "gap": self.gap,
                "quadrature_gap": self.quadrature_gap,
                "quadrature_error_estimate": self.quadrature_error_estimate}


def isometry_check(weights: Sequence[Weight], f: HalfLineFunction,
                   scheme: QuadratureScheme | None = None
                   ) -> list[IsometryResult]:
    """Compare ||L f||^2 computed on the Bergman side with the closed-form
    half-line norm, one :class:`IsometryResult` per weight.

    L f does not depend on alpha, so it is evaluated on the quadrature grid
    once and shared by both sides of the pairing, by every weight and by
    the nested sum at step 2h.
    """
    rhs_values = [mu_alpha_norm(w, f) for w in weights]
    scheme = scheme or default_scheme()
    with np.errstate(invalid="ignore", over="ignore"):
        transform = laplace_eval(f, scheme.z)
        # |L f|^2 in place, in the real half of the transform's buffer: a
        # large grid then takes no further grid-sized allocation here
        density = np.square(transform.real, out=transform.real)
        density += np.square(transform.imag, out=transform.imag)

    results = []
    for w, rhs in zip(weights, rhs_values):
        lhs_quad, lhs_2h = (value.real for value in
                            nested_integrals(w, density, scheme))
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
                                      quadrature_gap,
                                      abs(lhs_quad - lhs_2h) / denom))
    return results

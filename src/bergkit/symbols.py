"""Holomorphic self-maps of the right half-plane H = {Re z > 0}.

Provides the closed-form symbol families, self-map validation,
non-tangential sample grids, and the estimator for the angular
derivative at infinity

    lambda = lim z / phi(z)  (non-tangential)  =  sup_{z in H} Re z / Re phi(z).

Affine maps, Moebius maps and Cayley conjugates of disc Moebius maps form
one linear-fractional family: each builds the 2x2 matrix of
phi(z) = (a z + b)/(c z + d), and evaluation, the analytic lambda = d/a
(for c = 0) and composition (a matrix product) are written once for all
three.  Principal power maps and compositions complete the families.

All symbol objects are immutable values; evaluation accepts scalars or
numpy arrays of half-plane points.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Symbol",
    "Affine",
    "Moebius",
    "PowerMap",
    "CayleyMap",
    "Compose",
    "SampleGrid",
    "DEFAULT_GRID",
    "AngularDerivativeEstimate",
    "HalfPlaneError",
    "CoefficientOverflow",
    "identity",
    "compose",
    "iterate_images",
    "cayley_conjugate",
    "require_half_plane",
    "require_image",
    "validate_self_map",
    "angular_derivative_estimate",
    "angular_trace",
    "symbol_from_dict",
    "read_json",
    "write_json",
]

_COEFF_LIMIT = 1e300


class HalfPlaneError(ValueError):
    """A point or symbol image left the open right half-plane, or a symbol
    is not a self-map of it; ``witness`` is the first offending point, or
    None when there is none."""

    def __init__(self, message: str, witness: Optional[complex] = None):
        super().__init__(message)
        self.witness = witness


class CoefficientOverflow(OverflowError):
    """Composed symbol coefficients exceeded the representable range."""


# ---------------------------------------------------------------------------
# JSON input

# The kinds of JSON value that read_json reads, each named by what it needs.
REAL = "a JSON number"           # finite, not a bool; read as a float
INTEGER = "a JSON integer"       # a literal in [0, 2**63): not a bool or 7.0
COMPLEX = "[re, im] or a number"  # of REALs; read as a complex
STRING = "a JSON string"


@dataclass(frozen=True)
class Block:
    """A JSON object: ``keys`` maps each key to its kind, or is a function
    that reads the object.  With ``required`` no key may be missing."""

    name: str
    keys: dict | Callable[[dict], object]
    required: bool = False


def read_json(value, kind):
    """``value``, as ``json`` parsed it, read as ``kind``: REAL, INTEGER,
    COMPLEX, STRING, a tuple of allowed strings, ``[kind]`` for a list, a
    :class:`Block` (read as a dict of the keys present) or a function.
    Null is never a value.  A refusal is a ValueError naming the block,
    the key and the list item: ``<block> has unknown keys: [...]``,
    ``<block> has no 'k' key``, ``<block> key 'k': need <kind>, not <v>``.
    """
    if isinstance(kind, Block):
        if not isinstance(value, dict):
            raise ValueError(f"a {kind.name} is a JSON object, not {value!r}")
        if callable(kind.keys):
            return kind.keys(value)
        unknown = value.keys() - kind.keys.keys()
        if unknown:
            raise ValueError(f"{kind.name} has unknown keys: "
                             f"{sorted(unknown)}")
        missing = [key for key in kind.keys if key not in value]
        if kind.required and missing:
            raise ValueError(f"{kind.name} has no {missing[0]!r} key")
        return {key: _read_at(f"{kind.name} key {key!r}", value[key], item)
                for key, item in kind.keys.items() if key in value}
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ValueError(f"need a JSON list, not {value!r}")
        return [_read_at(f"item {index}", item, kind[0])
                for index, item in enumerate(value)]
    if isinstance(kind, tuple):
        if isinstance(value, str) and value in kind:
            return value
        raise ValueError(f"need one of {', '.join(map(repr, kind))}, "
                         f"not {value!r}")
    if callable(kind):
        return kind(value)
    if kind == COMPLEX:
        pair = value if isinstance(value, list) else [value, 0.0]
        if len(pair) != 2:
            raise ValueError(f"need {COMPLEX}, not {value!r}")
        return complex(read_json(pair[0], REAL), read_json(pair[1], REAL))
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == STRING and isinstance(value, str):
        return value
    if kind == INTEGER and number and isinstance(value, int):
        if 0 <= value < 2**63:  # a count, size or seed numpy can take
            return value
        kind = "a JSON integer in [0, 2**63)"
    elif kind == REAL and number:
        if abs(value) <= sys.float_info.max:  # not NaN, inf or a huge int
            return float(value)
        kind = "a finite JSON number"
    raise ValueError(f"need {kind}, not {value!r}")


def write_json(obj, keys: dict) -> dict:
    """The attributes ``keys`` of ``obj`` as the JSON object that read_json
    reads back: a COMPLEX one as [re, im], a Block one as its to_dict()."""
    values = {}
    for key, kind in keys.items():
        value = getattr(obj, key)
        if kind is COMPLEX:
            value = [value.real, value.imag]
        elif isinstance(kind, Block):
            value = value.to_dict()
        values[key] = value
    return values


def _read_at(where: str, value, kind):
    """read_json, with a refusal prefixed by ``where`` the value sits."""
    try:
        return read_json(value, kind)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _set_finite(obj, convert, *names) -> None:
    """Store each coefficient ``names`` of ``obj`` (a symbol or a mode) as
    ``convert`` makes it, and refuse one that is not finite."""
    for name in names:
        value = convert(getattr(obj, name))
        if not cmath.isfinite(value):
            raise ValueError(f"{obj.kind} coefficient {name!r} is not "
                             f"finite: {value}")
        object.__setattr__(obj, name, value)


class Symbol:
    """Base class for closed-form self-map candidates of the half-plane."""

    kind = "abstract"

    def __call__(self, z):
        raise NotImplementedError

    @property
    def known_lambda(self) -> Optional[float]:
        """Analytic angular derivative at infinity, when the family provides it."""
        return None

    def to_dict(self) -> dict:
        """Its family's keys in ``_DESCRIPTORS``, and ``kind``."""
        descriptor = write_json(self, _DESCRIPTORS[self.kind][1])
        descriptor["kind"] = self.kind
        return descriptor


class _LinearFractional(Symbol):
    """phi(z) = (a z + b) / (c z + d) for the 2x2 ``matrix`` ((a, b), (c, d))
    that each family builds from its own coefficients."""

    def __call__(self, z):
        (a, b), (c, d) = self.matrix
        return (a * z + b) / (c * z + d)

    @property
    def known_lambda(self) -> Optional[float]:
        # z / phi(z) -> d/a when c = 0; with c != 0 the ratio grows without
        # bound, so no finite angular derivative exists.  A negligible c,
        # as a computed matrix carries, counts as zero.
        (a, b), (c, d) = self.matrix
        if a == 0 or abs(c) > 1e-14 * max(abs(a), abs(b), abs(c), abs(d)):
            return None
        mu = d / a
        if mu.real > 0 and abs(mu.imag) <= 1e-14 * abs(mu):
            return float(mu.real)
        return None


@dataclass(frozen=True)
class Affine(_LinearFractional):
    """phi(z) = a z + b with real slope a.

    A genuine self-map of H requires a > 0 and Re b >= 0, and then
    lambda = 1/a.  Construction is permissive; ``validate_self_map``
    enforces the family constraints.
    """

    a: float
    b: complex = 0j

    kind = "affine"

    def __post_init__(self):
        _set_finite(self, float, "a")
        _set_finite(self, complex, "b")

    @property
    def matrix(self) -> tuple:
        return ((complex(self.a), self.b), (0j, 1 + 0j))


@dataclass(frozen=True)
class _Coefficients(_LinearFractional):
    """The four complex coefficients (a z + b)/(c z + d) that define a
    Moebius or Cayley symbol; a coefficient that is not finite, and a
    constant map (ad - bc = 0), are refused."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        _set_finite(self, complex, "a", "b", "c", "d")
        if self.a * self.d - self.b * self.c == 0:
            raise ValueError(f"{self.kind} map is degenerate (ad - bc = 0)")


@dataclass(frozen=True)
class Moebius(_Coefficients):
    """phi(z) = (a z + b) / (c z + d).  Validation is sample-based."""

    kind = "moebius"

    @property
    def matrix(self) -> tuple:
        return ((self.a, self.b), (self.c, self.d))


# Cayley transform tau(zeta) = (1 + zeta)/(1 - zeta) maps the unit disc
# onto H; its inverse is (z - 1)/(z + 1).
_TAU = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex)
_TAU_INV = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex)


@dataclass(frozen=True)
class CayleyMap(_Coefficients):
    """Half-plane conjugate tau o psi o tau^{-1} of the disc Moebius map
    psi(zeta) = (a zeta + b) / (c zeta + d)."""

    kind = "cayley"

    @cached_property
    def matrix(self) -> np.ndarray:
        psi = np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)
        m = _TAU @ psi @ _TAU_INV
        return m / np.max(np.abs(m))


@dataclass(frozen=True)
class PowerMap(Symbol):
    """phi(z) = z**p with the principal branch.

    For 0 < p <= 1 the image of the half-plane lies in the sector
    |arg w| <= p*pi/2, hence in H; the branch cut is never approached.
    """

    p: float

    kind = "power"

    def __post_init__(self):
        _set_finite(self, float, "p")

    def __call__(self, z):
        return z ** self.p

    @property
    def known_lambda(self) -> Optional[float]:
        if self.p == 1.0:
            return 1.0
        return None


@dataclass(frozen=True)
class Compose(Symbol):
    """Compose(f, g)(z) = f(g(z))."""

    left: Symbol
    right: Symbol

    kind = "compose"

    def __call__(self, z):
        return self.left(self.right(z))

    @property
    def known_lambda(self) -> Optional[float]:
        lf = self.left.known_lambda
        lg = self.right.known_lambda
        if lf is not None and lg is not None:
            return lf * lg
        return None


def identity() -> Affine:
    return Affine(1.0, 0j)


def compose(outer: Symbol, inner: Symbol) -> Symbol:
    """Composition outer(inner(z)), simplified within closed families:
    power maps multiply exponents, linear-fractional maps multiply their
    matrices (an unnormalized Affine for two affine maps, a Moebius map
    scaled to max|m| = 1 otherwise)."""
    if isinstance(outer, PowerMap) and isinstance(inner, PowerMap):
        return PowerMap(outer.p * inner.p)
    if not (isinstance(outer, _LinearFractional)
            and isinstance(inner, _LinearFractional)):
        return Compose(outer, inner)
    with np.errstate(over="ignore", invalid="ignore"):  # affine guard below
        m = np.matmul(outer.matrix, inner.matrix)  # the @ product
    if isinstance(outer, Affine) and isinstance(inner, Affine):
        a, b = m[0, 0].real, m[0, 1]
        if not (abs(a) <= _COEFF_LIMIT and abs(b) <= _COEFF_LIMIT):
            raise CoefficientOverflow("affine coefficients exceeded 1e300")
        return Affine(a, b)
    m = m / np.maximum.reduce(np.abs(m), axis=None)
    return Moebius(*m.ravel().tolist())


def iterate_images(phi: Symbol, points: np.ndarray, count: int) -> tuple:
    """The images of ``points`` under phi^2, ..., phi^count, stacked along a
    new first axis, and None; or the images of the iterates before the
    first one that is refused, and the error that refuses it.

    phi^n is ``compose(phi, phi^(n-1))``, and each iterate's images have
    the bits of its own evaluation.  Linear-fractional iterates are the
    matrices of compose's chain, evaluated in one broadcast; power maps
    evaluate z**p^n one by one; any other phi is applied to the images of
    phi^(n-1), as a Compose evaluates them.  An iterate is refused when
    compose raises for it, or with a :class:`HalfPlaneError` naming the
    first point whose image leaves H, as ``require_half_plane`` words it.
    An overflow makes an image inf, nan or 0, so it warns of nothing that
    error does not say; iterates past the one a caller stops at are built
    too, and stay silent.
    """
    iterates, error = [], None
    try:
        for _ in range(count - 1):
            iterates.append(compose(phi, iterates[-1] if iterates else phi))
    except (ValueError, OverflowError) as exc:  # CoefficientOverflow included
        error = exc
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if isinstance(phi, _LinearFractional):
            m = np.array([sym.matrix for sym in iterates], dtype=complex)
            a, b, c, d = m.reshape(len(m), 4, *(1,) * points.ndim
                                   ).swapaxes(0, 1)
            images = (a * points + b) / (c * points + d)
        elif isinstance(phi, PowerMap):
            images = [sym(points) for sym in iterates]
        else:
            image, images = phi(points), []
            for _ in iterates:
                image = phi(image)
                images.append(image)
    images = np.asarray(images, dtype=complex).reshape(len(iterates),
                                                       *points.shape)
    outside = _outside(images).reshape(len(images), points.size).any(axis=1)
    if outside.any():
        k = int(outside.argmax())
        try:
            require_half_plane(images[k], points)
        except HalfPlaneError as exc:
            return images[:k], exc
    return images, error


def cayley_conjugate(a, b, c, d) -> CayleyMap:
    """Build the half-plane conjugate of the disc Moebius map
    psi(zeta) = (a zeta + b) / (c zeta + d).

    The descriptor is rejected as for :class:`CayleyMap` (a coefficient
    that is not finite, or a constant psi), and then unless psi maps a
    fixed sample of the open disc strictly into the open disc.
    """
    phi = CayleyMap(a, b, c, d)
    radii = np.array([0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.9999])
    angles = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    zeta = radii[:, None] * np.exp(1j * angles)[None, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        image = (phi.a * zeta + phi.b) / (phi.c * zeta + phi.d)
    bad = ~np.isfinite(image) | (np.abs(image) >= 1.0)
    if np.any(bad):
        witness = zeta[bad][0]
        raise ValueError(
            f"descriptor is not a disc self-map: |psi({witness:g})| >= 1")
    return phi


# ---------------------------------------------------------------------------
# Sample grids


@dataclass(frozen=True)
class SampleGrid:
    """Non-tangential point configuration in H.

    Points are r * exp(i*theta) on ``radial`` geometrically spaced radii
    in [r_min, r_max] and ``angular`` equally spaced angles with
    |theta| <= aperture, so |Im z| <= tan(aperture) * Re z throughout.
    """

    aperture: float = math.pi / 3
    r_min: float = 1.0
    r_max: float = 1e6
    radial: int = 40
    angular: int = 9

    def __post_init__(self):
        if not 0.0 < self.aperture < math.pi / 2:
            raise ValueError("aperture must lie in (0, pi/2)")
        if not 0.0 < self.r_min < self.r_max < math.inf:
            raise ValueError("need 0 < r_min < r_max < inf")
        if self.radial < 2:
            raise ValueError("need at least two radial shells")
        if self.angular < 1:
            raise ValueError("need at least one angle")

    def radii(self) -> np.ndarray:
        """Shell radii, geometric from r_min to r_max; read-only."""
        return self._arrays[0]

    def angles(self) -> np.ndarray:
        if self.angular == 1:
            return np.array([0.0])
        return np.linspace(-self.aperture, self.aperture, self.angular)

    def points(self) -> np.ndarray:
        """Grid points, shape (radial, angular); read-only."""
        return self._arrays[1]

    @cached_property
    def _arrays(self) -> tuple:
        # Built once per grid and shared by every caller, hence read-only;
        # the cache is not a field, so ==, hash and to_dict ignore it.
        radii = np.geomspace(self.r_min, self.r_max, self.radial)
        points = radii[:, None] * np.exp(1j * self.angles())[None, :]
        radii.flags.writeable = False
        points.flags.writeable = False
        return radii, points

    def flat_points(self) -> np.ndarray:
        return self.points().ravel()

    @property
    def far_field_radius(self) -> float:
        return math.sqrt(self.r_min * self.r_max)

    def sample_points(self, size: int, rng: np.random.Generator,
                      far_field: bool = False) -> np.ndarray:
        """Draw distinct grid points with a seeded generator (reproducible
        configurations for positivity certificates)."""
        pool = self.flat_points()
        if far_field:
            pool = pool[np.abs(pool) >= self.far_field_radius]
        if size > pool.size:
            raise ValueError("not enough grid points to sample from")
        idx = rng.choice(pool.size, size=size, replace=False)
        return pool[np.sort(idx)]

    def to_dict(self) -> dict:
        return write_json(self, _GRID.keys)

    @classmethod
    def from_dict(cls, data) -> "SampleGrid":
        """Inverse of ``to_dict``, through :func:`read_json`: a missing key
        keeps the field default."""
        return cls(**read_json(data, _GRID))


# in the order of the fields of --grid
_GRID = Block("grid", {"r_min": REAL, "r_max": REAL, "radial": INTEGER,
                       "angular": INTEGER, "aperture": REAL})
DEFAULT_GRID = SampleGrid()


# ---------------------------------------------------------------------------
# Validation


def _outside(values: np.ndarray) -> np.ndarray:
    """Where the complex array ``values`` holds no finite point of H."""
    return ~np.isfinite(values) | (values.real <= 0.0)


def require_half_plane(values, points=None) -> np.ndarray:
    """``values`` as a complex array, once every entry is checked to be
    finite with positive real part.

    Without ``points`` the values are points of H and the error names the
    first one outside.  With ``points`` they are symbol images of those
    points, and the error names the first point whose image leaves H.
    Raises :class:`HalfPlaneError` carrying that witness.
    """
    values = np.asarray(values, dtype=complex)
    bad = _outside(values)
    if not np.any(bad):
        return values
    if points is None:
        witness = complex(values[bad][0])
        message = f"point {witness:g} is not in the open right half-plane"
    else:
        witness = complex(np.broadcast_to(points, values.shape)[bad][0])
        message = f"symbol leaves the half-plane at z = {witness:g}"
    raise HalfPlaneError(message, witness)


def require_image(phi: Symbol, points) -> np.ndarray:
    """phi(points), once every image is checked to lie in H, as
    :func:`require_half_plane` checks images.  Floating-point errors of
    the evaluation are ignored: an image they spoil is inf, nan or 0, so
    it is refused with the point it came from."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        image = phi(points)
    return require_half_plane(image, points)


def validate_self_map(phi: Symbol, grid: SampleGrid = DEFAULT_GRID) -> None:
    """Check that phi maps H into H, or raise :class:`HalfPlaneError` with
    the reason and a witness point.

    Affine and power maps are decided exactly from their parameters.
    Moebius maps, Cayley conjugates and compositions are checked at every
    grid point.  The witness has Re phi(z) <= 0 whenever one exists, and
    is None otherwise.
    """
    if isinstance(phi, Affine):
        if phi.a > 0 and phi.b.real >= 0:
            return
        if phi.a > 0:
            # Re phi(x) = a x + Re b < 0 at x = -Re b / (2a).
            witness = complex(-phi.b.real / (2.0 * phi.a), 0.0)
            raise HalfPlaneError(
                "translation leaves the half-plane (Re b < 0)", witness)
        if phi.a == 0:
            witness = None
            if phi.b.real <= 0:
                witness = complex(1.0, 0.0)
            raise HalfPlaneError(
                "slope must be positive (constant maps excluded)", witness)
        witness = complex((1.0 + abs(phi.b.real)) / (-phi.a), 0.0)
        raise HalfPlaneError("negative slope reverses the half-plane", witness)
    if isinstance(phi, PowerMap):
        if 0.0 < phi.p <= 1.0:
            return
        probe = np.exp(1j * (math.pi / 2) * 0.999999)
        try:
            require_image(phi, probe)
            witness = None
        except HalfPlaneError as exc:
            witness = exc.witness
        raise HalfPlaneError("exponent must lie in (0, 1]", witness)
    try:
        require_image(phi, grid.flat_points())
    except HalfPlaneError as exc:
        raise HalfPlaneError("image leaves the half-plane at a sample point",
                             exc.witness) from None


# ---------------------------------------------------------------------------
# Angular derivative at infinity

_DIVERGENCE_WINDOW = 5
_DIVERGENCE_GROWTH = 1.5
_PLATEAU_GROWTH = 1.05


@dataclass(frozen=True)
class AngularDerivativeEstimate:
    """Result of the sup-ratio estimator for the angular derivative.

    ``trace`` holds the maximum of Re z / Re phi(z) on each shell, one
    float per ``grid.radii()`` entry: shell i has radius
    ``grid.radii()[i]``.  ``verdict`` is ``finite`` when the trace has
    plateaued, ``divergent`` when it keeps growing geometrically (then
    ``lambda_hat`` is +inf), and ``inconclusive`` otherwise.  ``phi`` and
    ``grid`` are the symbol and the grid it was computed on.
    """

    lambda_hat: float
    sup_ratio: float
    trace: tuple
    verdict: str
    known_lambda: Optional[float]
    rel_error_vs_known: Optional[float]
    phi: Symbol
    grid: SampleGrid

    def to_dict(self) -> dict:
        return {
            "lambda_hat": None if math.isinf(self.lambda_hat) else self.lambda_hat,
            "sup_ratio": self.sup_ratio,
            "verdict": self.verdict,
            "trace": list(self.trace),
            "known_lambda": self.known_lambda,
            "rel_error_vs_known": self.rel_error_vs_known,
        }


def angular_derivative_estimate(phi: Symbol,
                                grid: SampleGrid = DEFAULT_GRID) -> AngularDerivativeEstimate:
    """Estimate lambda = sup_H Re z / Re phi(z) over a non-tangential grid.

    The per-shell maxima form the convergence trace.  The trace is called
    divergent when it is strictly increasing across the last five shells
    and grows by a factor >= 1.5 over that window (sqrt-type growth clears
    this easily on a three-decade grid, while convergent ratios plateau);
    it is called finite when the window growth stays within 5%.  A ratio
    past the float range is refused with a ValueError.

    Only the sup-ratio criterion is tested; that the point at infinity is
    actually fixed along every non-tangential sequence is not certified
    independently.
    """
    if grid.r_max / grid.r_min < 1e3:
        raise ValueError("grid must span at least a factor 1e3 in radius")
    pts = grid.points()
    shell_max, verdict = angular_trace(pts, require_image(phi, pts))
    sup_ratio = float(shell_max.max())
    if not math.isfinite(sup_ratio):
        raise ValueError("Re z / Re phi(z) leaves the float range on the grid")
    lambda_hat = math.inf if verdict == "divergent" else sup_ratio
    known = phi.known_lambda
    rel_error = None
    if known is not None and not math.isinf(lambda_hat):
        rel_error = abs(lambda_hat - known) / known
    return AngularDerivativeEstimate(lambda_hat, sup_ratio,
                                     tuple(shell_max.tolist()), verdict,
                                     known, rel_error, phi, grid)


def angular_trace(points: np.ndarray, images: np.ndarray) -> tuple:
    """The angular trace of ``images`` of the grid ``points``, and its
    verdict, as :func:`angular_derivative_estimate` reads them.

    ``images`` is one image of the (shells, angles) points, or a stack of
    them along leading axes; each must lie in H.  The trace is the maximum
    of Re z / Re phi(z) on each shell, and its verdict ``divergent``,
    ``finite`` or ``inconclusive`` by the rule of
    :func:`angular_derivative_estimate`: one str, or a list per stack.
    Float errors are ignored: callers refuse a maximum past the range.
    """
    w = _DIVERGENCE_WINDOW
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        shell_max = (points.real / images.real).max(axis=-1)
        if shell_max.shape[-1] >= w + 1:
            window = shell_max[..., -(w + 1):]
            growth = window[..., -1] / window[..., 0]
            divergent = (np.all(np.diff(window) > 0.0, axis=-1)
                         & (growth >= _DIVERGENCE_GROWTH))
            finite = growth <= _PLATEAU_GROWTH
        else:
            spread = shell_max.max(axis=-1) / shell_max.min(axis=-1)
            divergent, finite = False, spread <= _PLATEAU_GROWTH
    verdict = np.where(divergent, "divergent",
                       np.where(finite, "finite", "inconclusive"))
    return shell_max, verdict.tolist()


# ---------------------------------------------------------------------------
# JSON descriptors


def symbol_from_dict(data) -> Symbol:
    """Rebuild a symbol from its JSON descriptor, as ``to_dict`` writes it.

    The descriptor is an object whose keys are ``kind`` and exactly the
    keys of its family, read by :func:`read_json`: a real value is a
    finite JSON number and a complex value is [re, im] or a bare number.
    Anything else raises ValueError naming the kind and the key.  Cayley
    descriptors must define a disc self-map (see :func:`cayley_conjugate`).
    """
    return read_json(data, _SYMBOL)


def _read_descriptor(data: dict) -> Symbol:
    kind = data.get("kind")
    if kind not in tuple(_DESCRIPTORS):  # a list kind is no dict key
        raise ValueError(f"unknown symbol kind: {kind!r}")
    build, keys = _DESCRIPTORS[kind]
    values = read_json({key: value for key, value in data.items()
                        if key != "kind"},
                       Block(f"{kind} descriptor", keys, required=True))
    return build(**values)


_SYMBOL = Block("symbol descriptor", _read_descriptor)
# kind -> (builder, kind of each descriptor key)
_DESCRIPTORS = {
    "affine": (Affine, {"a": REAL, "b": COMPLEX}),
    "moebius": (Moebius, dict.fromkeys("abcd", COMPLEX)),
    "cayley": (cayley_conjugate, dict.fromkeys("abcd", COMPLEX)),
    "power": (PowerMap, {"p": REAL}),
    "compose": (Compose, {"left": _SYMBOL, "right": _SYMBOL}),
}

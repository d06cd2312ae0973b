"""Planar compact sets, open product domains, exhaustions and sample grids.

The compact catalog covers what scenario files may write down: closed disks,
closed axis-aligned rectangles, segments, circular arcs, slit annuli and
finite unions, plus an internal radius-clipped wrapper used by the closure
variant of the exhaustion.  Products of factors sample their distinguished
boundary (the cartesian product of per-factor boundary samples); sups of
polynomials over such grids are what every predicate in this package means
by a sup.

Outer compacts in the complement of a domain factor are realized as slit
annuli.  The slit half-width shrinks like 1/j while the slit direction
rotates through the dyadic angles, so any catalog compact that avoids the
domain ends up inside some member of the family.  For rectangle domains the
annulus starts at the circumradius, so compacts hugging the rectangle edges
are not reachable; disk domains have no such gap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .multiindex import (check_int, check_number, complex_pair, tuple_pair,
                         tuple_unpair)

MAX_GRID_POINTS = 10_000_000
MIN_CURVE_POINTS = 4                 # per curve, at any density
MAX_OUTER_INDEX = 10_000             # slit annuli cofinality_index tries
# a boundary curve of positive length must span at least this many float64
# steps at its largest coordinate, so that rounding moves a sample by less
# than a 2**-21 share of the curve (a disk of radius 0.25 about 1e20 samples
# as a segment)
MIN_CURVE_STEPS = 2 ** 20

# Samples per factor when no density is given, by use and side; entry i is
# for a side of dimension i + 1, the last one for every larger dimension.
DEFAULT_DENSITY = {
    ("fit", "z"): (400, 96, 28, 12), ("fit", "w"): (48, 12, 8),
    ("certificate", "z"): (400, 80, 24, 12), ("certificate", "w"): (32, 10, 6),
    ("predicate", "z"): (128, 16, 8), ("predicate", "w"): (16, 8, 6)}


def grid_density(use: str, side: str, dim: int, override: int = 0) -> int:
    """Samples per factor on one grid side: 0 without coordinates, else a
    non-zero override, else the DEFAULT_DENSITY entry.  An override below
    MIN_CURVE_POINTS would record fewer points than every curve gets."""
    if override < 0 or 0 < override < MIN_CURVE_POINTS:
        raise ValueError("grid density must be 0 (the default) or at least "
                         f"{MIN_CURVE_POINTS}, got {override}")
    if dim <= 0:
        return 0
    counts = DEFAULT_DENSITY[use, side]
    return override or counts[min(dim, len(counts)) - 1]


class GridSizeError(ValueError):
    """Raised when a requested sample grid would exceed MAX_GRID_POINTS."""


# --------------------------------------------------------------- compacts


def _dist(z, c=0.0):
    """|z - c| for an array of points z, rounded as Python's abs of a
    complex rounds it (numpy's complex abs may differ in the last bit,
    which moves points on a boundary across it)."""
    y = np.asarray(z) - c
    return np.hypot(y.real, y.imag)


class PlanarCompact:
    """Base class for nonempty compact subsets of the plane."""

    complement_connected = True

    def contains(self, z, tol: float = 1e-9):
        """Whether each point of z lies in the set grown by tol (shrunk, for
        a negative tol): a bool array of z's shape, so one point gives one
        bool.  A non-finite point is outside, without a RuntimeWarning."""
        raise NotImplementedError

    def _curves(self):
        """List of (arclength, closed, fn) with fn mapping [0, 1] to C."""
        raise NotImplementedError

    def bounding_radius(self) -> float:
        """Max |z| over the set (an upper bound is fine for unions)."""
        raise NotImplementedError

    def sample_boundary(self, n: int) -> np.ndarray:
        """About n boundary samples, shared among the boundary curves by
        arclength, at least MIN_CURVE_POINTS on each curve.

        Sets without interior (segments, arcs) sample the whole set.  A
        boundary whose length overflows a float is refused (OverflowError).
        """
        curves = self._curves()
        pts = []
        total_len = sum(c[0] for c in curves)
        if not math.isfinite(total_len):
            raise OverflowError(f"{self.to_json()['type']} boundary length "
                                "overflows a float")
        for length, closed, fn in curves:
            k = max(MIN_CURVE_POINTS,
                    math.ceil(n * length / max(total_len, 1e-300)))
            if k > MAX_GRID_POINTS:
                raise GridSizeError(
                    f"curve sampling would produce {k} points (cap {MAX_GRID_POINTS})")
            if closed:
                ts = np.arange(k) / k
            else:
                ts = np.linspace(0.0, 1.0, k + 1)
            pts.append(fn(ts))
        out = np.concatenate(pts)
        if len(out) > MAX_GRID_POINTS:
            raise GridSizeError(
                f"boundary grid has {len(out)} points (cap {MAX_GRID_POINTS})")
        return out

    def loses_shape(self) -> bool:
        """Whether float64 rounding collapses a boundary curve: one of
        positive length that spans fewer than MIN_CURVE_STEPS float steps at
        its largest coordinate."""
        for length, _, fn in self._curves():
            pts = fn(np.linspace(0.0, 1.0, MIN_CURVE_POINTS + 1))
            big = max(np.abs(pts.real).max(), np.abs(pts.imag).max())
            if length > 0 and MIN_CURVE_STEPS * np.spacing(big) > length:
                return True
        return False

    def to_json(self) -> dict:
        raise NotImplementedError

    def interior_circle(self, shrink: float = 0.8):
        """(center, radius) of a concentric test circle; needs interior."""
        raise ValueError(f"{type(self).__name__} has no interior circle")


@dataclass(frozen=True)
class Disk(PlanarCompact):
    """Closed disk |z - center| <= radius."""

    center: complex
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("disk radius must be nonnegative")

    def contains(self, z, tol=1e-9):
        return _dist(z, self.center) <= self.radius + tol

    def _curves(self):
        c, R = self.center, self.radius
        return [(2 * math.pi * R, True,
                 lambda ts: c + R * np.exp(2j * math.pi * ts))]

    def bounding_radius(self):
        return abs(self.center) + self.radius

    def interior_circle(self, shrink=0.8):
        return self.center, shrink * self.radius

    def to_json(self):
        return {"type": "disk", "center": [self.center.real, self.center.imag],
                "radius": self.radius}


@dataclass(frozen=True)
class Rectangle(PlanarCompact):
    """Closed axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError("rectangle bounds out of order")
        if not math.isfinite(2 * ((self.x1 - self.x0) + (self.y1 - self.y0))):
            raise ValueError("rectangle perimeter is too large for a float")

    def contains(self, z, tol=1e-9):
        x, y = np.real(z), np.imag(z)
        return ((self.x0 - tol <= x) & (x <= self.x1 + tol)
                & (self.y0 - tol <= y) & (y <= self.y1 + tol))

    def _curves(self):
        corners = [complex(self.x0, self.y0), complex(self.x1, self.y0),
                   complex(self.x1, self.y1), complex(self.x0, self.y1)]
        lengths = [abs(corners[(i + 1) % 4] - corners[i]) for i in range(4)]
        per = sum(lengths)
        if per == 0:
            return [(0.0, False, lambda ts: np.full(len(ts), corners[0]))]

        # edge i spans [starts[i], ends[i]] of arclength, summed in walk
        # order; an edge of length 0 divides by inf, so its fraction is 0
        ends = np.cumsum(lengths)
        starts = np.append(0.0, ends[:3])
        lens = np.where(np.array(lengths) == 0, np.inf, lengths)
        heads = np.array(corners)
        steps = np.array([corners[(i + 1) % 4] - corners[i] for i in range(4)])

        def walk(ts):
            s = np.asarray(ts) * per
            # the first edge whose end reaches s, the last edge past them all
            i = np.searchsorted(ends[:3], s, side="left")
            frac = np.minimum(np.maximum((s - starts[i]) / lens[i], 0.0), 1.0)
            return heads[i] + frac * steps[i]

        return [(per, True, walk)]

    def bounding_radius(self):
        return max(abs(complex(x, y)) for x in (self.x0, self.x1)
                   for y in (self.y0, self.y1))

    def interior_circle(self, shrink=0.8):
        center = complex((self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2)
        return center, shrink * (min(self.x1 - self.x0, self.y1 - self.y0) / 2)

    def to_json(self):
        return {"type": "rect", "x": [self.x0, self.x1], "y": [self.y0, self.y1]}


@dataclass(frozen=True)
class Segment(PlanarCompact):
    """Closed segment from a to b (sampled as a whole, no interior)."""

    a: complex
    b: complex

    def contains(self, z, tol=1e-9):
        a = complex(self.a)
        ab = self.b - a
        L2 = abs(ab) ** 2
        if L2 == 0:
            return _dist(z, a) <= tol
        x, y = np.real(z), np.imag(z)
        # projecting an infinite point multiplies inf by 0: NaN, so False
        with np.errstate(invalid="ignore"):
            t = np.clip(((x - a.real) * ab.real + (y - a.imag) * ab.imag)
                        / L2, 0.0, 1.0)
            return np.hypot(x - (a.real + t * ab.real),
                            y - (a.imag + t * ab.imag)) <= tol

    def _curves(self):
        a, b = self.a, self.b
        return [(abs(b - a), False, lambda ts: a + np.asarray(ts) * (b - a))]

    def bounding_radius(self):
        return max(abs(self.a), abs(self.b))

    def to_json(self):
        return {"type": "segment", "a": [self.a.real, self.a.imag],
                "b": [self.b.real, self.b.imag]}


@dataclass(frozen=True)
class Arc(PlanarCompact):
    """Circular arc, angles in radians, strictly less than a full turn."""

    center: complex
    radius: float
    theta0: float
    theta1: float

    def __post_init__(self):
        if not (self.theta1 > self.theta0):
            raise ValueError("arc needs theta1 > theta0")
        if self.theta1 - self.theta0 >= 2 * math.pi:
            raise ValueError("arc must be shorter than a full circle")

    def contains(self, z, tol=1e-9):
        z = np.asarray(z) - self.center
        ang = np.arctan2(np.imag(z), np.real(z))
        # the angle, or the angle one turn before or after it, in the span
        turns = [(self.theta0 - tol <= ang + shift)
                 & (ang + shift <= self.theta1 + tol)
                 for shift in (-2 * math.pi, 0.0, 2 * math.pi)]
        return ((np.abs(_dist(z) - self.radius) <= tol)
                & np.logical_or.reduce(turns))

    def _curves(self):
        c, R, t0, t1 = self.center, self.radius, self.theta0, self.theta1
        return [(R * (t1 - t0), False,
                 lambda ts: c + R * np.exp(1j * (t0 + np.asarray(ts) * (t1 - t0))))]

    def bounding_radius(self):
        return abs(self.center) + self.radius

    def to_json(self):
        return {"type": "arc", "center": [self.center.real, self.center.imag],
                "radius": self.radius, "angles": [self.theta0, self.theta1]}


@dataclass(frozen=True)
class SlitAnnulus(PlanarCompact):
    """Closed annulus minus an open angular sector (the slit).

    The slit keeps the complement connected: a path can leave the hole
    through the sector and reach infinity.
    """

    center: complex
    inner: float
    outer: float
    slit_angle: float
    half_width: float

    def __post_init__(self):
        if not (0 <= self.inner < self.outer):
            raise ValueError("need 0 <= inner < outer")
        if not (0 < self.half_width < math.pi):
            raise ValueError("slit half-width must be in (0, pi)")

    def contains(self, z, tol=1e-9):
        z = np.asarray(z) - self.center
        rad = _dist(z)
        # the angular distance to the slit direction, in [0, pi]
        turn = np.mod(np.arctan2(np.imag(z), np.real(z)) - self.slit_angle,
                      2 * math.pi)
        return ((self.inner - tol <= rad) & (rad <= self.outer + tol)
                & (np.minimum(turn, 2 * math.pi - turn)
                   >= self.half_width - tol))

    def _curves(self):
        c = self.center
        t0 = self.slit_angle + self.half_width
        span = 2 * math.pi - 2 * self.half_width
        e0 = np.exp(1j * (self.slit_angle + self.half_width))
        e1 = np.exp(1j * (self.slit_angle - self.half_width))
        return [
            (self.outer * span, False,
             lambda ts: c + self.outer * np.exp(1j * (t0 + np.asarray(ts) * span))),
            (self.inner * span, False,
             lambda ts: c + self.inner * np.exp(1j * (t0 + np.asarray(ts) * span))),
            (self.outer - self.inner, False,
             lambda ts: c + (self.inner + np.asarray(ts)
                             * (self.outer - self.inner)) * e0),
            (self.outer - self.inner, False,
             lambda ts: c + (self.inner + np.asarray(ts)
                             * (self.outer - self.inner)) * e1),
        ]

    def bounding_radius(self):
        return abs(self.center) + self.outer

    def to_json(self):
        return {"type": "slit-annulus",
                "center": [self.center.real, self.center.imag],
                "inner": self.inner, "outer": self.outer,
                "slit_angle": self.slit_angle, "half_width": self.half_width}


class UnionCompact(PlanarCompact):
    """Finite union; the connectivity flag is the AND of the parts' flags
    plus pairwise sampled disjointness (catalog shapes only)."""

    def __init__(self, parts: list[PlanarCompact]):
        if not parts:
            raise ValueError("union needs at least one part")
        for i, p in enumerate(parts):
            # a union samples and shape-checks its parts' boundary curves
            if isinstance(p, ClippedCompact):
                raise ValueError(f"union part {i} is a clipped set, which "
                                 "has no boundary curves to sample")
        self.parts = list(parts)
        flag = all(p.complement_connected for p in parts)
        if flag and len(parts) > 1:
            # strict containment of boundary samples catches overlap but
            # tolerates tangency and shared edges
            samples = [p.sample_boundary(n=64) for p in parts]
            flag = not any(parts[j].contains(samples[i], tol=-1e-9).any()
                           for i in range(len(parts))
                           for j in range(len(parts)) if i != j)
        self.complement_connected = flag

    def contains(self, z, tol=1e-9):
        return np.logical_or.reduce([p.contains(z, tol) for p in self.parts])

    def _curves(self):
        return [c for p in self.parts for c in p._curves()]

    def bounding_radius(self):
        return max(p.bounding_radius() for p in self.parts)

    def to_json(self):
        return {"type": "union", "parts": [p.to_json() for p in self.parts]}


class ClippedCompact(PlanarCompact):
    """base intersected with {|z| <= bound}; used by closure exhaustions."""

    def __init__(self, base: PlanarCompact, bound: float):
        self.base = base
        self.bound = float(bound)
        self.complement_connected = base.complement_connected

    def contains(self, z, tol=1e-9):
        return self.base.contains(z, tol) & (_dist(z) <= self.bound + tol)

    def sample_boundary(self, n):
        raw = self.base.sample_boundary(n)
        keep = raw[np.abs(raw) <= self.bound + 1e-12]
        k = max(64, len(raw))
        circle = self.bound * np.exp(2j * math.pi * np.arange(k) / k)
        out = np.concatenate([keep, circle[self.base.contains(circle)]])
        if len(out) == 0:
            raise ValueError("clip removed every sample point (empty set?)")
        return out

    def _curves(self):
        raise NotImplementedError("clipped sets sample via sample_boundary")

    def loses_shape(self):
        return self.base.loses_shape()

    def bounding_radius(self):
        return min(self.base.bounding_radius(), self.bound)

    def interior_circle(self, shrink=0.8):
        """The base's circle, shrunk to fit the clip; radius 0 when the
        base center lies on or outside |z| = bound."""
        c, rho = self.base.interior_circle(shrink)
        room = self.bound - abs(c)
        return c, min(rho, shrink * room) if room > 0 else 0.0

    def to_json(self):
        return {"type": "clipped", "base": self.base.to_json(), "bound": self.bound}


def _point(data: dict, key: str) -> complex:
    return complex_pair(data[key], f"{data['type']} {key}")


def _number(data: dict, key: str) -> float:
    return check_number(data[key], f"{data['type']} {key}")


def _bounds(data: dict, key: str) -> list:
    """data[key] as [lo, hi], two finite numbers."""
    what, pair = f"{data['type']} {key}", data[key]
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ValueError(f"{what} must be a [lo, hi] pair, got {pair!r}")
    return [check_number(v, what) for v in pair]


def check_keys(data: dict, keys, what: str):
    """Refuse the first key of data outside keys by name: read as nothing,
    it would leave a default in place."""
    unknown = sorted(data.keys() - keys)
    if unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r}")


def compact_from_json(data: dict) -> PlanarCompact:
    """The compact a JSON record describes; a field that is not what its
    type needs is refused by name (such as `rect x`), and so is a key
    that its record (to_json) does not hold."""
    if not isinstance(data, dict):
        raise ValueError(f"a compact must be an object, got {data!r}")
    t = data["type"]
    if t == "disk":
        K = Disk(_point(data, "center"), _number(data, "radius"))
    elif t == "rect":
        K = Rectangle(*_bounds(data, "x"), *_bounds(data, "y"))
    elif t == "segment":
        K = Segment(_point(data, "a"), _point(data, "b"))
    elif t == "arc":
        K = Arc(_point(data, "center"), _number(data, "radius"),
                *_bounds(data, "angles"))
    elif t == "slit-annulus":
        K = SlitAnnulus(_point(data, "center"), *(
            _number(data, key)
            for key in ("inner", "outer", "slit_angle", "half_width")))
    elif t == "union":
        K = UnionCompact([compact_from_json(p) for p in data["parts"]])
    elif t == "clipped":
        K = ClippedCompact(compact_from_json(data["base"]),
                           _number(data, "bound"))
    else:
        raise ValueError(f"unknown compact type {t!r}")
    check_keys(data, K.to_json().keys(), t)
    return K


# --------------------------------------------------------------- products


class SampleGrid:
    """The product of per-factor samples.  Its joint points, an (N, k)
    complex array in the order of np.meshgrid(.., indexing="ij"), are built
    on first read; the kernels read the factors and the length."""

    def __init__(self, per_factor: list[np.ndarray]):
        self.per_factor = list(per_factor)

    def __len__(self):
        return math.prod(map(len, self.per_factor))

    @functools.cached_property
    def points(self) -> np.ndarray:
        if not self.per_factor:
            return np.zeros((1, 0), dtype=complex)
        mesh = np.meshgrid(*self.per_factor, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)


class ProductCompact:
    """Product of planar compact factors; samples the distinguished boundary."""

    def __init__(self, factors: list[PlanarCompact],
                 disjoint_factor: int | None = None):
        self.factors = list(factors)
        if disjoint_factor is not None and not (
                0 <= disjoint_factor < len(factors)):
            raise ValueError("disjoint factor index out of range")
        self.disjoint_factor = disjoint_factor

    @property
    def dim(self) -> int:
        return len(self.factors)

    def contains(self, point, tol=1e-9) -> bool:
        point = tuple(point)
        if len(point) != self.dim:
            raise ValueError("point arity does not match the product")
        return all(f.contains(z, tol) for f, z in zip(self.factors, point))

    def sample(self, n_per_factor: int) -> SampleGrid:
        """The distinguished boundary: the product of every factor's
        sample_boundary(n_per_factor); one empty point for no factors."""
        grid = SampleGrid(f.sample_boundary(n_per_factor)
                          for f in self.factors)
        if len(grid) > MAX_GRID_POINTS:
            raise GridSizeError(f"product grid would hold {len(grid)} points "
                                f"(cap {MAX_GRID_POINTS})")
        return grid

    def to_json(self):
        return {"factors": [f.to_json() for f in self.factors],
                "disjoint_factor": self.disjoint_factor}

    @classmethod
    def from_json(cls, data: dict,
                  what: str = "product compact") -> "ProductCompact":
        """The product a JSON object describes; a value that is not an
        object, whose factors are not a list or that holds another key is
        refused naming `what` (the field it was read from)."""
        if not isinstance(data, dict):
            raise ValueError(f"{what} must be an object, got {data!r}")
        check_keys(data, {"factors", "disjoint_factor"}, what)
        if not isinstance(data["factors"], list):
            raise ValueError(f"{what} factors must be a list, got "
                             f"{data['factors']!r}")
        factors = [compact_from_json(f) for f in data["factors"]]
        i0 = data.get("disjoint_factor")
        return cls(factors, None if i0 is None else
                   check_int(i0, "disjoint_factor"))


# --------------------------------------------------------------- domains


def _domain_probes(factor) -> np.ndarray:
    """Points of an open domain factor that no outer compact may contain:
    its center and the boundaries of its exhaustion factors 1, 3 and 6;
    each factor's `probes`, sampled once and read-only."""
    probes = np.concatenate([[factor.center_point()]] + [
        factor.exhaustion_factor(p).sample_boundary(n=64) for p in (1, 3, 6)])
    probes.flags.writeable = False
    return probes


@dataclass(frozen=True)
class OpenDisk:
    center: complex
    radius: float

    probes = functools.cached_property(_domain_probes)

    def closure(self) -> Disk:
        return Disk(self.center, self.radius)

    def exhaustion_factor(self, p: int) -> Disk:
        return Disk(self.center, self.radius * (1 - 0.5 ** p))

    def contains(self, z, tol=0.0):
        """Whether each point of z lies in the disk shrunk by tol, as
        PlanarCompact.contains."""
        return _dist(z, self.center) < self.radius - tol

    def center_point(self) -> complex:
        return self.center

    def to_json(self):
        return {"type": "open-disk",
                "center": [self.center.real, self.center.imag],
                "radius": self.radius}


@dataclass(frozen=True)
class OpenRect:
    x0: float
    x1: float
    y0: float
    y1: float

    probes = functools.cached_property(_domain_probes)

    def closure(self) -> Rectangle:
        return Rectangle(self.x0, self.x1, self.y0, self.y1)

    def exhaustion_factor(self, p: int) -> Rectangle:
        s = 1 - 0.5 ** p
        cx, cy = (self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2
        hx, hy = (self.x1 - self.x0) / 2 * s, (self.y1 - self.y0) / 2 * s
        return Rectangle(cx - hx, cx + hx, cy - hy, cy + hy)

    def contains(self, z, tol=0.0):
        """Whether each point of z lies in the rectangle shrunk by tol, as
        PlanarCompact.contains."""
        x, y = np.real(z), np.imag(z)
        return ((self.x0 + tol < x) & (x < self.x1 - tol)
                & (self.y0 + tol < y) & (y < self.y1 - tol))

    def center_point(self) -> complex:
        return complex((self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2)

    def to_json(self):
        return {"type": "open-rect", "x": [self.x0, self.x1],
                "y": [self.y0, self.y1]}


def domain_from_json(data: dict):
    """The domain factor a JSON record describes, its fields and keys read
    as compact_from_json reads them."""
    t = data["type"]
    if t == "open-disk":
        D = OpenDisk(_point(data, "center"), _number(data, "radius"))
    elif t == "open-rect":
        D = OpenRect(*_bounds(data, "x"), *_bounds(data, "y"))
    else:
        raise ValueError(f"unknown domain type {t!r}")
    check_keys(data, D.to_json().keys(), t)
    return D


class DomainProduct:
    """Product of open planar factor domains (possibly zero factors)."""

    def __init__(self, factors):
        self.factors = list(factors)

    @property
    def dim(self) -> int:
        return len(self.factors)

    def contains(self, point) -> bool:
        point = tuple(point)
        return all(f.contains(z) for f, z in zip(self.factors, point))

    def to_json(self):
        return [f.to_json() for f in self.factors]

    @classmethod
    def from_json(cls, data, what: str = "domain") -> "DomainProduct":
        """The product a JSON list of factor objects describes; a value
        that is not a list, or a factor that is not an object, is refused
        naming `what` (the field it was read from)."""
        if not isinstance(data, list):
            raise ValueError(f"{what} must be a list, got {data!r}")
        for i, f in enumerate(data):
            if not isinstance(f, dict):
                raise ValueError(f"{what} factor {i} must be an object, got "
                                 f"{f!r}")
        return cls([domain_from_json(f) for f in data])


def exhaustion_M(domain: DomainProduct, p: int,
                 closure_variant: bool = False) -> ProductCompact:
    """p-th inner exhaustion compact of the product domain.

    Plain rule per factor: shrink toward the center by (1 - 2^-p).
    Closure rule: the factor closure, clipped at |z| <= p when it pokes out.
    """
    if p < 1:
        raise ValueError("exhaustion index starts at 1")
    out = []
    for f in domain.factors:
        if closure_variant:
            clo = f.closure()
            out.append(clo if clo.bounding_radius() <= p
                       else ClippedCompact(clo, p))
        else:
            out.append(f.exhaustion_factor(p))
    return ProductCompact(out)


def outer_compacts(factor, j: int, closure_variant: bool = False) -> SlitAnnulus:
    """j-th outer compact in the complement of one domain factor.

    Slit annulus centered at the factor center with ring [R, R + j/2]
    (closure variant starts at R + 1/j) and slit half-width 8 pi / (8 + j),
    so early members are narrow annular sectors and late members close up
    into almost-full rings; the slit direction rotates through the dyadic
    angles.  Width shrinking plus dense rotation is what lets the family
    catch compacts in any direction, while the narrow early members keep
    low-index gluing problems inside the reach of moderate-degree fits (a
    ring wrapping the exhaustion compact forces astronomically slow
    polynomial approximation).
    """
    if j < 1:
        raise ValueError("outer compact index starts at 1")
    c = factor.center_point()
    R = factor.closure().bounding_radius() - abs(c)
    if isinstance(factor, OpenRect):
        rect = factor.closure()
        R = max(abs(complex(x, y) - c) for x in (rect.x0, rect.x1)
                for y in (rect.y0, rect.y1))
    inner = R + (1.0 / j if closure_variant else 0.0)
    outer = R + j / 2
    if outer <= inner:
        outer = inner + 0.5
    a = j.bit_length() - 1
    b = j - (1 << a)
    angle = (math.pi + 2 * math.pi * b / (1 << a)) % (2 * math.pi)
    return SlitAnnulus(c, inner, outer, angle, 8 * math.pi / (8 + j))


def enumerate_Tm(domain: DomainProduct, m: int,
                 closure_variant: bool = False) -> ProductCompact:
    """m-th outer product compact.

    Pairing convention: with q = m - 1 and d factors, i0 = q mod d picks the
    domain-disjoint coordinate, and tuple-unpairing q // d into d naturals
    gives (j - 1, n_1 - 1, .., n_{d-1} - 1): the slit-annulus index for
    coordinate i0 and integer radii of origin-centered closed disks for the
    remaining coordinates in increasing coordinate order.  For d = 1 this
    collapses to T_m = (j = m)-th slit annulus.
    """
    if m < 1:
        raise ValueError("outer enumeration starts at 1")
    d = domain.dim
    if d < 1:
        raise ValueError("outer compacts need at least one factor")
    q = m - 1
    i0 = q % d
    tup = tuple_unpair(q // d, d)
    j = tup[0] + 1
    radii = [v + 1 for v in tup[1:]]
    factors: list[PlanarCompact] = []
    ri = iter(radii)
    for i, f in enumerate(domain.factors):
        if i == i0:
            factors.append(outer_compacts(f, j, closure_variant))
        else:
            factors.append(Disk(0.0, float(next(ri))))
    return ProductCompact(factors, disjoint_factor=i0)


def cofinality_index(domain: DomainProduct, K: ProductCompact,
                     closure_variant: bool = False) -> int:
    """Smallest found m with K inside enumerate_Tm(domain, m), by sampled
    containment.  K.disjoint_factor names the coordinate whose factor avoids
    the domain; remaining factors only need big enough disks."""
    if K.disjoint_factor is None:
        raise ValueError("K must flag its domain-disjoint coordinate")
    d = domain.dim
    i0 = K.disjoint_factor
    samples = [f.sample_boundary(n=128) for f in K.factors]
    j_found = None
    for j in range(1, MAX_OUTER_INDEX + 1):
        R = outer_compacts(domain.factors[i0], j, closure_variant)
        if R.contains(samples[i0], tol=1e-9).all():
            j_found = j
            break
    if j_found is None:
        raise ValueError(f"no outer compact up to j = {MAX_OUTER_INDEX} "
                         "contains the flagged factor (slit likely cuts it)")
    radii = []
    for i in range(d):
        if i == i0:
            continue
        radii.append(max(1, math.ceil(np.abs(samples[i]).max() - 1e-12)))
    m = d * tuple_pair((j_found - 1, *[v - 1 for v in radii])) + i0 + 1
    T = enumerate_Tm(domain, m, closure_variant)
    for col, f in zip(samples, T.factors):
        if not f.contains(col, tol=1e-9).all():
            raise AssertionError("pairing inversion produced a non-containing set")
    return m


def _first(mask):
    """The index of the first True in a bool array, None if it has none."""
    k = int(mask.argmax())
    return k if mask[k] else None


def check_gluing(factors, samples, i0: int):
    """Refuse gluing factors (coordinate i0 of each piece) that overlap (one
    of the samples, each factor's 128-point boundary sample, strictly
    inside another factor), touch (a 200-point boundary sample shared) or
    may enclose holes."""
    for a, Ka in enumerate(factors):
        if not Ka.complement_connected:
            raise ValueError(f"piece {a}: gluing factor may enclose holes")
        for b in range(a + 1, len(factors)):
            Kb = factors[b]
            if (Kb.contains(samples[a], tol=-1e-12).any()
                    or Ka.contains(samples[b], tol=-1e-12).any()):
                raise ValueError(
                    f"pieces {a} and {b} overlap on coordinate {i0}")
            on_a = set(Ka.sample_boundary(n=200).tolist())
            if not on_a.isdisjoint(Kb.sample_boundary(n=200).tolist()):
                raise ValueError(
                    f"pieces {a} and {b} touch on coordinate {i0}")


def factor_samples(K: ProductCompact, name: str) -> list:
    """128 boundary samples of each factor of K, refusing a factor whose
    boundary length overflows a float, whose samples are not all finite or
    that loses its shape (float64 rounding collapses its samples); a
    refusal names `{name} factor i`."""
    out = []
    for i, f in enumerate(K.factors):
        try:
            zs = f.sample_boundary(n=128)
        except OverflowError as exc:
            raise OverflowError(f"{name} factor {i}: {exc}") from exc
        if not np.isfinite(zs).all():
            raise ValueError(f"{name} factor {i} is not finite")
        if f.loses_shape():
            raise ValueError(f"{name} factor {i} loses its shape: "
                             "float64 rounding collapses its samples")
        out.append(zs)
    return out


def check_stage_geometry(domain: DomainProduct, outer: ProductCompact,
                         inner: ProductCompact, variant: str, center):
    """Refuse a stage's compacts that break the construction's hypotheses,
    tested on 128 boundary samples of each factor: every factor passes
    factor_samples, the outer compact check_outer and the inner one
    check_inner, and factor i0 of (inner, outer) passes check_gluing, as
    the stage's fit glues them.
    """
    samples = [factor_samples(outer, "outer"), factor_samples(inner, "inner")]
    i0 = check_outer(domain, outer, samples[0], variant, center)
    check_inner(domain, samples[1], variant)
    check_gluing([inner.factors[i0], outer.factors[i0]],
                 [samples[1][i0], samples[0][i0]], i0)


def check_unflagged(K: ProductCompact, what: str):
    """Refuse a flagged factor on a compact that is not an outer one: only
    an outer compact's disjoint_factor is read."""
    if K.disjoint_factor is not None:
        raise ValueError("only an outer compact flags a disjoint factor, got "
                         f"{what} disjoint_factor {K.disjoint_factor!r}")


def check_outer(domain: DomainProduct, outer: ProductCompact, samples,
                variant: str, center) -> int:
    """Refuse an outer compact, given with per-factor boundary samples,
    that flags no factor i0 or whose factor i0 reaches into domain factor
    i0, touches the divisor center center[i0] or contains one of the
    domain factor's probes; return i0.

    The closure variant "infty" (seminorms on closure truncations) keeps
    outer factors off the domain closure.  The plain variant lets an outer
    sample lie 4 float steps (at its own magnitude) inside the domain: that
    is a boundary point, rounded.  A ValueError names the factor and its
    first failing sample, a sample inside the domain before one at the
    divisor center.
    """
    i0 = outer.disjoint_factor
    if i0 is None:
        raise ValueError("the outer compact needs a flagged factor that "
                         "stays off the domain")
    zs, c0 = samples[i0], center[i0]
    margin = -1e-9 if variant == "infty" else 4 * np.spacing(np.abs(zs))
    into = domain.factors[i0].contains(zs, tol=margin)
    k = _first(into | (_dist(zs, c0) <= 1e-9))
    if k is not None:
        if into[k]:
            raise ValueError(f"outer factor {i0} reaches into the domain "
                             f"near {complex(zs[k]):.4g}")
        raise ValueError(f"the divisor center {c0:.4g} touches the outer "
                         "compact; its zero set would poison the fit")
    probes = domain.factors[i0].probes
    if _first(outer.factors[i0].contains(probes)) is not None:
        raise ValueError(
            f"outer factor {i0} overlaps the domain factor interior")
    return i0


def check_inner(domain: DomainProduct, samples, variant: str):
    """Refuse an inner compact, given by per-factor boundary samples, with
    a factor that leaves its open domain factor (the closure variant
    "infty" lets it touch the boundary); a ValueError names the factor and
    its first failing sample."""
    slack = -1e-9 if variant == "infty" else 0.0
    for i, (dom, zs) in enumerate(zip(domain.factors, samples)):
        k = _first(~dom.contains(zs, tol=slack))
        if k is not None:
            raise ValueError(f"inner factor {i} leaves the open domain near "
                             f"{complex(zs[k]):.4g}")


# --------------------------------------------------------------- utilities


def sup_norm(p, zgrid, wgrid=None) -> float:
    """Sampled sup of |p| over (w, z) grids, SampleGrids or point arrays;
    wgrid defaults to the empty parameter point.  The grids go to
    p.eval_product as they are, so a BlockSum sees their per-factor axes;
    a NaN value gives a NaN sup."""
    if len(zgrid) == 0 or (wgrid is not None and len(wgrid) == 0):
        raise ValueError("sup over an empty grid is undefined")
    return float(np.abs(p.eval_product(wgrid, zgrid)).max())


def center_grid(product: ProductCompact):
    """Interior expansion centers for the sampled sup over centers: per
    factor, the center c and radius rho of interior_circle(0.6) give the
    3x3 pattern c + (a + bi) rho, a, b in {-1, 0, 1} (c alone when rho is
    0), and the factors combine as a product."""
    axes = []
    for f in product.factors:
        c, step = f.interior_circle(0.6)
        axes.append(np.array([c]) if step <= 0 else
                    np.array([c + complex(a, b) * step
                              for a in (-1, 0, 1) for b in (-1, 0, 1)]))
    return [tuple(row) for row in SampleGrid(axes).points]


def complement_escape(blockers: list[PlanarCompact], probe: complex) -> bool:
    """Breadth-first march from the probe to the bounding box edge through
    grid cells whose centers avoid every blocker.

    The box reaches 1.5 times past the blockers plus 1, on a grid of 120
    cells a side that halves up to three times.  Cells are blocked with a
    small positive tolerance, so any path found is a genuine escape; a
    failure at one resolution may still be an artifact, hence the
    refinement loop before giving up."""
    box_radius = 1.5 * max(b.bounding_radius() for b in blockers) + 1.0
    step = box_radius / 60

    for level in range(4):
        h = step / 2 ** level
        n = int(math.ceil(2 * box_radius / h))
        if n * n > 4_000_000:
            break
        si = int((probe.real + box_radius) / h)
        sj = int((probe.imag + box_radius) / h)
        if not (0 <= si < n and 0 <= sj < n):
            continue
        # cell (i, j) is centered at xs[i] + 1j * xs[j]
        xs = -box_radius + h * (np.arange(n) + 0.5)
        blocked = np.logical_or.reduce(
            [b.contains(xs[:, None] + 1j * xs, tol=h / 4) for b in blockers])
        if blocked[si, sj]:
            continue
        seen = {(si, sj)}
        queue = [(si, sj)]
        escaped = False
        while queue:
            i, j = queue.pop()
            if i in (0, n - 1) or j in (0, n - 1):
                escaped = True
                break
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < n and 0 <= nj < n and (ni, nj) not in seen:
                    if not blocked[ni, nj]:
                        seen.add((ni, nj))
                        queue.append((ni, nj))
        if escaped:
            return True
    return False

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

import math
from dataclasses import dataclass

import numpy as np

from .multiindex import tuple_pair, tuple_unpair

MAX_GRID_POINTS = 10_000_000
MIN_CURVE_POINTS = 4                 # per curve, at any density
MAX_OUTER_INDEX = 10_000             # slit annuli cofinality_index tries

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


class PlanarCompact:
    """Base class for nonempty compact subsets of the plane."""

    complement_connected = True

    def contains(self, z: complex, tol: float = 1e-9) -> bool:
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

        Sets without interior (segments, arcs) sample the whole set.
        """
        curves = self._curves()
        pts = []
        total_len = sum(c[0] for c in curves)
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
        return abs(complex(z) - self.center) <= self.radius + tol

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

    def contains(self, z, tol=1e-9):
        z = complex(z)
        return (self.x0 - tol <= z.real <= self.x1 + tol
                and self.y0 - tol <= z.imag <= self.y1 + tol)

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
        z, a, b = complex(z), self.a, self.b
        ab = b - a
        L2 = abs(ab) ** 2
        if L2 == 0:
            return abs(z - a) <= tol
        t = ((z - a) * ab.conjugate()).real / L2
        t = min(max(t, 0.0), 1.0)
        return abs(z - (a + t * ab)) <= tol

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
        z = complex(z) - self.center
        if abs(abs(z) - self.radius) > tol:
            return False
        ang = math.atan2(z.imag, z.real)
        for shift in (-2 * math.pi, 0.0, 2 * math.pi):
            if self.theta0 - tol <= ang + shift <= self.theta1 + tol:
                return True
        return False

    def _curves(self):
        c, R, t0, t1 = self.center, self.radius, self.theta0, self.theta1
        return [(R * (t1 - t0), False,
                 lambda ts: c + R * np.exp(1j * (t0 + np.asarray(ts) * (t1 - t0))))]

    def bounding_radius(self):
        return abs(self.center) + self.radius

    def to_json(self):
        return {"type": "arc", "center": [self.center.real, self.center.imag],
                "radius": self.radius, "angles": [self.theta0, self.theta1]}


def _ang_dist(a: float, b: float) -> float:
    d = (a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


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
        z = complex(z) - self.center
        rad = abs(z)
        if rad < self.inner - tol or rad > self.outer + tol:
            return False
        ang = math.atan2(z.imag, z.real)
        return _ang_dist(ang, self.slit_angle) >= self.half_width - tol

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
        self.parts = list(parts)
        flag = all(p.complement_connected for p in parts)
        if flag and len(parts) > 1:
            # strict containment of boundary samples catches overlap but
            # tolerates tangency and shared edges
            samples = [p.sample_boundary(n=64) for p in parts]
            for i in range(len(parts)):
                for j in range(len(parts)):
                    if i != j and any(parts[j].contains(z, tol=-1e-9)
                                      for z in samples[i]):
                        flag = False
        self.complement_connected = flag

    def contains(self, z, tol=1e-9):
        return any(p.contains(z, tol) for p in self.parts)

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
        return self.base.contains(z, tol) and abs(complex(z)) <= self.bound + tol

    def sample_boundary(self, n):
        raw = self.base.sample_boundary(n)
        keep = raw[np.abs(raw) <= self.bound + 1e-12]
        k = max(64, len(raw))
        circle = self.bound * np.exp(2j * math.pi * np.arange(k) / k)
        on_base = np.array([self.base.contains(z) for z in circle])
        out = np.concatenate([keep, circle[on_base]])
        if len(out) == 0:
            raise ValueError("clip removed every sample point (empty set?)")
        return out

    def _curves(self):
        raise NotImplementedError("clipped sets sample via sample_boundary")

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


def compact_from_json(data: dict) -> PlanarCompact:
    t = data["type"]
    if t == "disk":
        return Disk(complex(*data["center"]), float(data["radius"]))
    if t == "rect":
        return Rectangle(data["x"][0], data["x"][1], data["y"][0], data["y"][1])
    if t == "segment":
        return Segment(complex(*data["a"]), complex(*data["b"]))
    if t == "arc":
        return Arc(complex(*data["center"]), float(data["radius"]),
                   data["angles"][0], data["angles"][1])
    if t == "slit-annulus":
        return SlitAnnulus(complex(*data["center"]), float(data["inner"]),
                           float(data["outer"]), float(data["slit_angle"]),
                           float(data["half_width"]))
    if t == "union":
        return UnionCompact([compact_from_json(p) for p in data["parts"]])
    if t == "clipped":
        return ClippedCompact(compact_from_json(data["base"]), data["bound"])
    raise ValueError(f"unknown compact type {t!r}")


# --------------------------------------------------------------- products


@dataclass
class SampleGrid:
    """Joint sample points and the per-factor samples they multiply out."""

    points: np.ndarray               # (N, k) complex
    per_factor: list[np.ndarray]

    def __len__(self):
        return len(self.points)


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
        if self.dim == 0:
            return SampleGrid(np.zeros((1, 0), dtype=complex), [])
        cols = [f.sample_boundary(n_per_factor) for f in self.factors]
        total = math.prod(len(c) for c in cols)
        if total > MAX_GRID_POINTS:
            raise GridSizeError(
                f"product grid would hold {total} points (cap {MAX_GRID_POINTS})")
        mesh = np.meshgrid(*cols, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        return SampleGrid(pts, cols)

    def to_json(self):
        return {"factors": [f.to_json() for f in self.factors],
                "disjoint_factor": self.disjoint_factor}

    @classmethod
    def from_json(cls, data: dict) -> "ProductCompact":
        return cls([compact_from_json(f) for f in data["factors"]],
                   data.get("disjoint_factor"))


# --------------------------------------------------------------- domains


@dataclass(frozen=True)
class OpenDisk:
    center: complex
    radius: float

    def closure(self) -> Disk:
        return Disk(self.center, self.radius)

    def exhaustion_factor(self, p: int) -> Disk:
        return Disk(self.center, self.radius * (1 - 0.5 ** p))

    def contains(self, z, tol=0.0) -> bool:
        return abs(complex(z) - self.center) < self.radius - tol

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

    def closure(self) -> Rectangle:
        return Rectangle(self.x0, self.x1, self.y0, self.y1)

    def exhaustion_factor(self, p: int) -> Rectangle:
        s = 1 - 0.5 ** p
        cx, cy = (self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2
        hx, hy = (self.x1 - self.x0) / 2 * s, (self.y1 - self.y0) / 2 * s
        return Rectangle(cx - hx, cx + hx, cy - hy, cy + hy)

    def contains(self, z, tol=0.0) -> bool:
        z = complex(z)
        return (self.x0 + tol < z.real < self.x1 - tol
                and self.y0 + tol < z.imag < self.y1 - tol)

    def center_point(self) -> complex:
        return complex((self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2)

    def to_json(self):
        return {"type": "open-rect", "x": [self.x0, self.x1],
                "y": [self.y0, self.y1]}


def domain_from_json(data: dict):
    t = data["type"]
    if t == "open-disk":
        return OpenDisk(complex(*data["center"]), float(data["radius"]))
    if t == "open-rect":
        return OpenRect(data["x"][0], data["x"][1], data["y"][0], data["y"][1])
    raise ValueError(f"unknown domain type {t!r}")


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
    def from_json(cls, data) -> "DomainProduct":
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
        if all(R.contains(z, tol=1e-9) for z in samples[i0]):
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
        if not all(f.contains(z, tol=1e-9) for z in col):
            raise AssertionError("pairing inversion produced a non-containing set")
    return m


# --------------------------------------------------------------- utilities


def sup_norm(p, zgrid, wgrid=None) -> float:
    """Sampled sup of |p| over (w, z) grids; wgrid defaults to the empty
    parameter point."""
    Z = zgrid.points if isinstance(zgrid, SampleGrid) else zgrid
    W = wgrid.points if isinstance(wgrid, SampleGrid) else wgrid
    if W is None:
        W = np.zeros((1, 0))
    if len(Z) == 0 or len(W) == 0:
        raise ValueError("sup over an empty grid is undefined")
    return float(np.abs(p.eval_product(W, Z)).max())


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
    if not axes:
        return [()]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return [tuple(row) for row in pts]


def sampled_min_distance(A: PlanarCompact, B: PlanarCompact, n: int = 200) -> float:
    a = A.sample_boundary(n=n)
    b = B.sample_boundary(n=n)
    return float(np.abs(a[:, None] - b[None, :]).min())


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
        xs = -box_radius + h * (np.arange(n) + 0.5)

        def blocked(x, y):
            z = complex(x, y)
            return any(b.contains(z, tol=h / 4) for b in blockers)

        si = int((probe.real + box_radius) / h)
        sj = int((probe.imag + box_radius) / h)
        if not (0 <= si < n and 0 <= sj < n) or blocked(xs[si], xs[sj]):
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
                    if not blocked(xs[ni], xs[nj]):
                        seen.add((ni, nj))
                        queue.append((ni, nj))
        if escaped:
            return True
    return False

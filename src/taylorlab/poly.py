"""Sparse complex polynomials in parameters w (r coordinates) and variables
z (d coordinates), plus Taylor re-centering, truncated partial sums and the
append-only coefficient stream that staged constructions write into.

Coefficient conventions: a term maps an exponent pair (w_exp, z_exp) to one
complex coefficient; zero coefficients are never stored.  Binomial and
falling-factorial factors come from math.comb / math.perm, never from
raw factorial quotients, so re-centering stays exact in integer arithmetic
up to the final complex multiply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multiindex import DiffOp, Enumeration, check_multiindex


# dense coefficients one evaluation or re-centering may span
MAX_DENSE = 1_000_000
# multiply-adds one re-centering may take: the dense size times the length
# of each moved axis, added up
MAX_SHIFT_WORK = 100_000_000


def _as_grid(arr, ncols: int) -> np.ndarray:
    """Coerce to an (n, ncols) complex array; ncols = 0 yields one empty row
    per input row (a single row when the input is empty)."""
    arr = np.asarray(arr, dtype=complex)
    if ncols == 0:
        n = arr.shape[0] if arr.ndim >= 1 and arr.shape[0] > 0 else 1
        return np.zeros((n, 0), dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1) if ncols == 1 else arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != ncols:
        raise ValueError(f"grid must be (n, {ncols}), got shape {arr.shape}")
    return arr


def _as_exp(t, n, what):
    t = tuple(int(v) for v in t)
    if len(t) != n:
        raise ValueError(f"{what} exponent {t} has length {len(t)}, expected {n}")
    if any(v < 0 for v in t):
        raise ValueError(f"{what} exponent {t} has a negative entry")
    return t


def _accumulate(pairs, out=None) -> dict:
    """Sum (key, coefficient) pairs into `out` in order; a sum that is
    exactly zero removes its key."""
    out = {} if out is None else out
    for key, c in pairs:
        s = out.get(key, 0j) + c
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    return out


def _dense(terms: dict) -> np.ndarray:
    """The coefficients {exponent tuple: c} as a dense complex array whose
    axis i runs through exponents 0..max of coordinate i.

    The kernels spend time on every entry, so a huge but sparse exponent
    (say z ** 10 ** 9) is refused here rather than run.
    """
    keys = list(terms)
    shape = tuple(max(col) + 1 for col in zip(*keys))
    if math.prod(shape) > MAX_DENSE:
        raise ValueError(
            f"exponents up to {[v - 1 for v in shape]} span "
            f"{math.prod(shape)} dense coefficients, more than the "
            f"{MAX_DENSE} the polynomial kernels take")
    index = np.array(keys, dtype=np.intp).reshape(len(keys), len(shape))
    out = np.zeros(shape, dtype=complex)
    steps = [math.prod(shape[i + 1:]) for i in range(len(shape))]
    out.reshape(-1)[index @ np.array(steps, dtype=np.intp)] = list(
        terms.values())
    return out


def _horner(C, cols, n: int):
    """Nested Horner value of the dense coefficients C (nested lists, one
    level per column in cols, the first outermost) at the n points whose
    coordinates are the columns; None when every coefficient is 0."""
    if not cols:
        return np.full(n, C, dtype=complex) if C != 0 else None
    z, rest = cols[0], cols[1:]
    acc = None
    for c in reversed(C):
        if acc is not None:
            acc *= z
        if rest:
            c = _horner(c, rest, n)
            if c is None:
                continue
        elif c == 0:
            continue
        if acc is None:
            acc = c if rest else np.full(n, c, dtype=complex)
        else:
            acc += c
    return acc


def _recenter(A, Z, first: int) -> np.ndarray:
    """Re-center dense coefficients in z, one center per lane.

    A's axis 0 holds the lanes and its axes first, first + 1, .. the z
    exponents; Z holds one center per lane, shape (lanes, d).  Each z-axis
    on which some lane's offset is nonzero runs one Ruffini-Horner shift
    over all lanes, with each lane's own offset; an axis is skipped only
    when every offset on it is 0.  A single center's work (its dense size
    times the length of each axis it moves) may not pass MAX_SHIFT_WORK.
    """
    moving = Z != 0
    lengths = np.array(A.shape[first:first + Z.shape[1]], dtype=np.int64)
    work = math.prod(A.shape[1:]) * int((moving @ lengths).max(initial=0))
    if work > MAX_SHIFT_WORK:
        raise ValueError(
            f"re-centering exponents up to {[v - 1 for v in A.shape[1:]]} "
            f"takes {work} multiply-adds, more than the {MAX_SHIFT_WORK} "
            "the re-centering kernel takes")
    for i in np.flatnonzero(moving.any(axis=0)):
        ax = first + int(i)
        C = np.moveaxis(A, ax, -1)
        off = Z[:, i].reshape((-1,) + (1,) * (C.ndim - 1))
        n = C.shape[-1] - 1
        # Horner in (y + off): q <- (y + off) q + c_m for m = n-1..0, one
        # anti-diagonal of Ruffini's table per step.  Entry 0 of the last
        # axis holds c_m and entries 1.. hold q with a zero past its top,
        # so a step is q_i <- q_{i-1} + off * q_i for i = 0..deg q + 1: the
        # multiply-adds of the scalar Ruffini-Horner loop, vectorised over
        # the lanes.
        src = np.zeros(C.shape[:-1] + (n + 2,), dtype=complex)
        dst = np.zeros_like(src)
        src[..., 1] = C[..., n]
        for k in range(1, n + 1):
            src[..., 0] = C[..., n - k]
            np.multiply(src[..., 1:k + 2], off, out=dst[..., 1:k + 2])
            dst[..., 1:k + 2] += src[..., :k + 1]
            src, dst = dst, src
        A = np.moveaxis(src[..., 1:], -1, ax)
    return A


def _sparse(A: np.ndarray, r: int, d: int) -> "Poly":
    """The Poly whose joint (w, z) dense coefficients are A."""
    index = np.nonzero(A)
    p = Poly(r, d)
    p.terms = {(e[:r], e[r:]): c for e, c in zip(
        zip(*(i.tolist() for i in index)), A[index].tolist())}
    return p


class Poly:
    """Sparse polynomial over C in w_1..w_r (parameters) and z_1..z_d."""

    __slots__ = ("r", "d", "terms")

    def __init__(self, r: int, d: int, terms=None):
        if r < 0 or d < 0:
            raise ValueError("coordinate counts must be natural numbers")
        self.r = r
        self.d = d
        items = terms.items() if hasattr(terms, "items") else terms or ()
        self.terms = _accumulate(
            ((_as_exp(we, r, "w"), _as_exp(ze, d, "z")), c)
            for (we, ze), c in ((k, complex(v)) for k, v in items) if c != 0)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, r: int, d: int) -> "Poly":
        return cls(r, d)

    @classmethod
    def constant(cls, value, r: int, d: int) -> "Poly":
        return cls(r, d, {((0,) * r, (0,) * d): complex(value)})

    @classmethod
    def monomial(cls, r: int, d: int, w_exp, z_exp, coeff=1.0) -> "Poly":
        return cls(r, d, {(tuple(w_exp), tuple(z_exp)): complex(coeff)})

    @classmethod
    def z_var(cls, i: int, r: int, d: int) -> "Poly":
        e = [0] * d
        e[i] = 1
        return cls.monomial(r, d, (0,) * r, e)

    @classmethod
    def w_var(cls, i: int, r: int, d: int) -> "Poly":
        e = [0] * r
        e[i] = 1
        return cls.monomial(r, d, e, (0,) * d)

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.r == other.r
                and self.d == other.d and self.terms == other.terms)

    def isclose(self, other: "Poly", tol: float = 1e-10) -> bool:
        if self.r != other.r or self.d != other.d:
            return False
        keys = set(self.terms) | set(other.terms)
        return all(abs(self.terms.get(k, 0j) - other.terms.get(k, 0j)) <= tol
                   for k in keys)

    def z_degrees(self):
        """Per-coordinate max z-exponent over the support; None for zero."""
        if self.is_zero:
            return None
        degs = [0] * self.d
        for (_, ze) in self.terms:
            for i, e in enumerate(ze):
                degs[i] = max(degs[i], e)
        return tuple(degs)

    def total_z_degree(self) -> int:
        """Max total z-degree over the support; -1 for the zero polynomial."""
        return max((sum(ze) for (_, ze) in self.terms), default=-1)

    def coeff_norm(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __repr__(self):
        return f"Poly(r={self.r}, d={self.d}, nterms={len(self.terms)})"

    # -- ring operations ---------------------------------------------------

    def _check_shape(self, other: "Poly"):
        if self.r != other.r or self.d != other.d:
            raise ValueError(
                f"shape mismatch: ({self.r},{self.d}) vs ({other.r},{other.d})")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Poly.constant(other, self.r, self.d)
        self._check_shape(other)
        p = Poly(self.r, self.d)
        p.terms = _accumulate(other.terms.items(), dict(self.terms))
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Poly(self.r, self.d)
        p.terms = {k: -c for k, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Poly.constant(other, self.r, self.d)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            other = complex(other)
            if other == 0:
                return Poly.zero(self.r, self.d)
            p = Poly(self.r, self.d)
            p.terms = {k: c * other for k, c in self.terms.items()}
            return p
        self._check_shape(other)
        p = Poly(self.r, self.d)
        p.terms = _accumulate(
            ((tuple(x + y for x, y in zip(wa, wb)),
              tuple(x + y for x, y in zip(za, zb))), ca * cb)
            for (wa, za), ca in self.terms.items()
            for (wb, zb), cb in other.terms.items())
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        out = Poly.constant(1.0, self.r, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- evaluation ---------------------------------------------------------

    def eval(self, w, z) -> complex:
        """Value at one point; w and z are sequences of complex scalars."""
        w, z = tuple(w), tuple(z)
        if len(w) != self.r or len(z) != self.d:
            raise ValueError("evaluation point has wrong arity")
        return complex(self.eval_product([w], [z])[0, 0])

    def eval_product(self, W: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Values on the product grid: result[i, j] = p(W[i], Z[j]).

        W is (nw, r), Z is (nz, d).  Terms are grouped by w-exponent, in
        ascending order, so the product grid is never materialized; each
        group's z-part is densified and evaluated by nested Horner (first
        coordinate outermost), which keeps a few length-nz columns per
        level.  The rounding depends on the coefficients alone, not on how
        the polynomial was assembled, so recomputed sups do not drift.
        """
        W = _as_grid(W, self.r)
        Z = _as_grid(Z, self.d)
        nw, nz = W.shape[0], Z.shape[0]
        out = np.zeros((nw, nz), dtype=complex)
        groups: dict[tuple[int, ...], dict] = {}
        for (we, ze), c in self.terms.items():
            groups.setdefault(we, {})[ze] = c
        cols = [np.ascontiguousarray(Z[:, i]) for i in range(self.d)]
        for we in sorted(groups):
            zs = _horner(_dense(groups[we]).tolist(), cols, nz)
            wa = np.ones(nw, dtype=complex)
            for i, e in enumerate(we):
                if e:
                    wa = wa * W[:, i] ** e
            out += wa[:, None] * zs[None, :]
        return out

    # -- calculus ----------------------------------------------------------

    def diff(self, op: DiffOp) -> "Poly":
        """Apply a mixed partial over the joint (w, z) coordinates."""
        if len(op.orders) != self.r + self.d:
            raise ValueError(
                f"derivative arity {len(op.orders)} != {self.r + self.d}")
        if op.is_identity:
            return self
        wo, zo = op.orders[:self.r], op.orders[self.r:]
        # math.perm(e, o) is the falling factorial; it is 0 when o > e
        p = Poly(self.r, self.d)
        p.terms = _accumulate(
            ((tuple(e - o for e, o in zip(we, wo)),
              tuple(e - o for e, o in zip(ze, zo))), c * fac)
            for (we, ze), c in self.terms.items()
            if (fac := math.prod(map(math.perm, we + ze, op.orders))))
        return p

    def shift_center(self, zeta) -> "Poly":
        """Re-center in z: returns q with q(y) = p(y + zeta), i.e. the
        coefficients of p in powers of (z - zeta).

        The one-lane case of _recenter: the terms are densified once over
        the joint (w, z) exponents and each z-axis with a nonzero offset
        runs one Ruffini-Horner shift.  The zero polynomial and an all-zero
        center return self, bit for bit.
        """
        zeta = tuple(complex(v) for v in zeta)
        if len(zeta) != self.d:
            raise ValueError(f"center has length {len(zeta)}, expected {self.d}")
        if self.is_zero or not any(zeta):
            return self
        A = _dense({we + ze: c for (we, ze), c in self.terms.items()})
        return _sparse(_recenter(A[None], np.array([zeta]), 1 + self.r)[0],
                       self.r, self.d)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        items = sorted(self.terms.items())
        return {
            "r": self.r,
            "d": self.d,
            "terms": [{"w_exp": list(we), "z_exp": list(ze),
                       "re": c.real, "im": c.imag}
                      for (we, ze), c in items],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Poly":
        terms = {}
        for t in data["terms"]:
            key = (tuple(t["w_exp"]), tuple(t["z_exp"]))
            terms[key] = complex(t["re"], t["im"])
        return cls(int(data["r"]), int(data["d"]), terms)


# -- Taylor data ------------------------------------------------------------


def gamma(f: Poly, w, zeta, m) -> complex:
    """Taylor coefficient of z -> f(w, z) at center zeta for multi-index m.

    Equals (1 / prod m_i!) times the m-th z-partial of f at (w, zeta),
    read off the re-centered polynomial f.shift_center(zeta).
    """
    gp = gamma_poly(f, zeta, m)
    return gp.eval(w, ())


def gamma_poly(f: Poly, zeta, m) -> Poly:
    """Same coefficient kept symbolic in w: the z^m coefficients of f
    re-centered at zeta, as a Poly with d = 0."""
    m = check_multiindex(m, f.d)
    p = Poly(f.r, 0)
    shifted = f.shift_center(zeta)
    p.terms = {(we, ()): c for (we, ze), c in shifted.terms.items() if ze == m}
    return p


def _rank_mask(shape, n: int, enum: Enumeration) -> np.ndarray:
    """Which z-exponents of the box with the given dense shape have rank
    <= n; the order is graded, so only exponents of the cut's own total
    degree are ranked."""
    t = sum(enum.unrank(n))
    degree = sum(np.indices(shape))
    keep = degree < t
    for e in zip(*np.nonzero(degree == t)):
        keep[e] = enum.rank(tuple(int(v) for v in e)) <= n
    return keep


def partial_sum(f: Poly, centers, n: int, enum: Enumeration) -> list:
    """Partial sums through rank n of f expanded about each center, one
    Poly per center.

    Keeps the terms whose re-centered z-exponent has rank <= n under the
    enumeration, then re-expands about the origin.  All centers are
    re-centered in one pass: f is densified once and broadcast over a lane
    axis of centers, every lane is shifted to its center, the rank mask is
    applied once, and the kept terms are shifted back.  The lanes are cut
    into chunks of at most MAX_DENSE dense coefficients.  A center for
    which no term would be dropped gets the input object itself (capture:
    the partial sum IS the polynomial); so does every center when the
    degree box lies within rank n.
    """
    if enum.d != f.d:
        raise ValueError("enumeration dimension does not match the polynomial")
    if n < 0:
        raise ValueError("partial-sum index must be a natural number")
    Z = [tuple(complex(v) for v in zeta) for zeta in centers]
    for zeta in Z:
        if len(zeta) != f.d:
            raise ValueError(
                f"center has length {len(zeta)}, expected {f.d}")
    if f.is_zero or n >= enum.capture_index(f.z_degrees()):
        return [f] * len(Z)
    A = _dense({we + ze: c for (we, ze), c in f.terms.items()})
    drop = np.broadcast_to(~_rank_mask(A.shape[f.r:], n, enum), A.shape)
    first = 1 + f.r
    out = []
    step = max(1, MAX_DENSE // A.size)
    for lo in range(0, len(Z), step):
        Zc = np.array(Z[lo:lo + step], dtype=complex)
        B = _recenter(np.broadcast_to(A, (len(Zc),) + A.shape), Zc, first)
        # a lane where every re-centered term survives the cut (though the
        # box bound did not prove it) returns f itself
        cut = B[:, drop].any(axis=1)
        kept = np.where(drop, 0, B[cut])
        back = iter(_recenter(kept, -Zc[cut], first))
        out += [_sparse(next(back), f.r, f.d) if c else f for c in cut]
    return out


# -- coefficient stream -------------------------------------------------------


@dataclass
class StreamBlock:
    """One appended stage: a polynomial in powers of (z - center) whose
    z-exponents rank in (previous frontier, n_max]."""

    stage_id: str
    poly: Poly
    n_max: int


class CoefficientStream:
    """Append-only Taylor coefficients about one center, ordered by rank.

    Every rank at or below the frontier is frozen: it either holds a stored
    coefficient or is zero forever.  Blocks may only claim ranks strictly
    beyond the current frontier, which is what keeps earlier partial sums
    bit-identical as stages accumulate.
    """

    def __init__(self, enum: Enumeration, center, r: int):
        self.enum = enum
        self.center = tuple(complex(v) for v in center)
        if len(self.center) != enum.d:
            raise ValueError("stream center must have one entry per z-coordinate")
        self.r = int(r)
        self.d = enum.d
        self.blocks: list[StreamBlock] = []
        self._poly_cache: Poly | None = None

    @property
    def frontier(self) -> int:
        return self.blocks[-1].n_max if self.blocks else -1

    def append_block(self, stage_id: str, block: Poly, n_max: int):
        """Append `block`, a Poly in powers of (z - center), as the ranks
        (frontier, n_max]."""
        if (block.r, block.d) != (self.r, self.d):
            raise ValueError(f"a block must have r = {self.r}, d = {self.d}")
        # n_max is a rank the block claims too, so it must pass the frontier
        ranks = {self.enum.rank(ze) for _, ze in block.terms} | {n_max}
        if min(ranks) <= self.frontier:
            raise ValueError(
                f"block would touch frozen rank {min(ranks)} "
                f"(frontier is {self.frontier})")
        if max(ranks) > n_max:
            raise ValueError("n_max must cover every rank in the block")
        self.blocks.append(StreamBlock(str(stage_id), block, int(n_max)))
        self._poly_cache = None

    def partial_sum(self, n: int) -> Poly:
        """Materialize sum of a_k(w) (z - center)^{N_k} over ranks k <= n."""
        if n > self.frontier or (n < 0 and self.blocks):
            raise IndexError(f"rank {n} beyond materialized frontier {self.frontier}")
        # append_block keeps ranks disjoint across blocks, so no two terms
        # share an exponent; blocks up to n merge whole, and only the block
        # the cut falls inside is ranked term by term
        p = Poly(self.r, self.d)
        for b in self.blocks:
            terms = b.poly.terms
            if n < b.n_max:
                terms = {(we, ze): c for (we, ze), c in terms.items()
                         if self.enum.rank(ze) <= n}
            p.terms.update(terms)
            if n <= b.n_max:
                break
        return p.shift_center(tuple(-v for v in self.center))

    def poly(self) -> Poly:
        """The full materialized polynomial."""
        if self._poly_cache is None:
            self._poly_cache = self.partial_sum(self.frontier)
        return self._poly_cache

    def to_json(self) -> dict:
        return {
            "enumeration": self.enum.tag,
            "d": self.d,
            "r": self.r,
            "center": [[v.real, v.imag] for v in self.center],
            "blocks": [{"stage": b.stage_id, "n_max": b.n_max,
                        "poly": b.poly.to_json()} for b in self.blocks],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoefficientStream":
        enum = Enumeration.from_tag(data["enumeration"], int(data["d"]))
        center = [complex(re, im) for re, im in data["center"]]
        stream = cls(enum, center, int(data["r"]))
        for b in data["blocks"]:
            if "coeffs" in b:
                raise ValueError("per-rank stream blocks are no longer read; "
                                 "re-run construct on the scenario")
            stream.append_block(b["stage"], Poly.from_json(b["poly"]),
                                int(b["n_max"]))
        return stream

"""Sparse complex polynomials in parameters w (r coordinates) and variables
z (d coordinates), plus Taylor re-centering, truncated partial sums, stage
blocks in per-axis Arnoldi bases and the append-only coefficient stream
that staged constructions write into.

Coefficient conventions: a term maps an exponent pair (w_exp, z_exp) to one
complex coefficient; zero coefficients are never stored.  Binomial and
falling-factorial factors come from math.comb / math.perm, never from
raw factorial quotients, so re-centering and differentiation stay exact in
integer arithmetic up to the final complex multiply.

Evaluation, derivatives and re-centering each have one kernel on lanes
of dense coefficients over the joint (w, z) exponent box (eval_lanes,
diff_lanes, _recenter); a Poly's own methods are their one-lane cases.

A stream block is not stored as Taylor coefficients: at the degrees a deep
schedule reaches, float64 Taylor coefficients of a block are far larger
than its values, and summing them loses every digit.  A Block keeps the
Hessenberg matrices of its per-axis Arnoldi bases and its coefficients in
them, and is evaluated, with derivatives, by the Arnoldi recurrence on each
axis of a product grid (BlockSum).  Its Taylor coefficients are a derived
float view for reading a stream as a Poly.
"""

from __future__ import annotations

import base64
import copy
import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import SampleGrid
from .multiindex import (DiffOp, Enumeration, check_int, check_multiindex,
                         check_number, complex_pairs)


# dense coefficients one evaluation or re-centering may span
MAX_DENSE = 1_000_000
# multiply-adds one re-centering may take: the dense size times the length
# of each moved axis, added up
MAX_SHIFT_WORK = 100_000_000
# the keys of a term of a polynomial object (Poly.from_json)
TERM_KEYS = {"w_exp", "z_exp", "re", "im"}


def _as_grid(arr, ncols: int) -> np.ndarray:
    """Coerce a SampleGrid or points to an (n, ncols) complex array; ncols = 0
    yields one empty row per input row (a single row when the input is
    empty or None)."""
    if isinstance(arr, SampleGrid):
        arr = arr.points
    arr = np.asarray(np.zeros((1, 0)) if arr is None else arr, dtype=complex)
    if ncols == 0:
        n = arr.shape[0] if arr.ndim >= 1 and arr.shape[0] > 0 else 1
        return np.zeros((n, 0), dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1) if ncols == 1 else arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != ncols:
        raise ValueError(f"grid must be (n, {ncols}), got shape {arr.shape}")
    return arr


def _count(Z, d: int) -> int:
    """How many points Z holds, refused as _as_grid refuses it; the points
    of a SampleGrid with d factors are counted, not built."""
    if isinstance(Z, SampleGrid) and len(Z.per_factor) == d:
        return len(Z)
    return len(_as_grid(Z, d))


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


def _nonzero(mask) -> bool:
    """Whether a bool, or nested lists of them, holds a True."""
    return any(map(_nonzero, mask)) if isinstance(mask, list) else mask


def _horner(C, cols, shapes, live):
    """Nested Horner values of dense coefficients held in lanes: C has shape
    (lanes, *box), one box axis per coordinate array in cols (the first
    outermost), and the coordinate arrays, each given once per lane on
    axis 0, broadcast against each other (_coordinates).  Level i's
    values have shape shapes[i], the broadcast shape of cols[i:], so a
    level's inner polynomials are evaluated once per distinct point of the
    coordinates inside it: on a product grid's factors, each on an axis of
    its own, each inner level runs on its factors' own points.  Each entry
    of the result is its lane's polynomial at the point whose coordinates
    broadcast to it; None when C is 0 in every lane.  `live` is
    C.any(axis=0) as nested lists.  A slab of coefficients is skipped only
    where it is 0 in every lane; with finite points the other lanes then
    add exact zeros, so each lane gets the values it would get on its
    own."""
    if not cols:
        return C[:, None] if live else None
    z, rest, shape = cols[0], cols[1:], shapes[0]
    # the slabs along the first box axis, as lane columns on the last axes
    slabs = C if rest else C.T[(...,) + (None,) * (len(shape) - 1)]
    acc = None
    for k in reversed(range(C.shape[1])):
        if acc is not None:
            acc *= z
        if not _nonzero(live[k]):
            continue
        c = _horner(C[:, k], rest, shapes[1:], live[k]) if rest else slabs[k]
        if acc is None:
            # a copy in this level's shape, updated in place from here on
            acc = (c.repeat(shape[-1], axis=-1) if not rest
                   else c if c.shape == shape
                   else np.broadcast_to(c, shape).copy())
        else:
            acc += c
    return acc


def _coordinates(Z, d: int, lanes: int):
    """(cols, shapes, mesh) for _horner: Z's d coordinates as arrays that
    broadcast against each other, each repeated once per lane on axis 0,
    the shape shapes[i] that cols[i:] broadcast to, and the shape `mesh`
    of the points.  The per-factor samples of a SampleGrid each lie on an
    axis of their own, so the mesh is the grid in its point order and its
    points are never built; the coordinates of plain points all lie on one
    shared axis."""
    if isinstance(Z, SampleGrid) and len(Z.per_factor) == d > 0:
        mesh = tuple(map(len, Z.per_factor))
        cols = [np.asarray(a, dtype=complex).reshape(
            (1,) * (i + 1) + (-1,) + (1,) * (d - 1 - i))
            for i, a in enumerate(Z.per_factor)]
        return ([c.repeat(lanes, axis=0) for c in cols],
                [(lanes,) + (1,) * i + mesh[i:] for i in range(d)], mesh)
    Z = _as_grid(Z, d)
    return (list(Z.T[:, None].repeat(lanes, axis=1)),
            [(lanes, len(Z))] * d, (len(Z),))


def eval_lanes(D: np.ndarray, r: int, W, Z) -> np.ndarray:
    """Values of every lane of dense joint (w, z) coefficients on the product
    grid: D has shape (lanes, *w-box, *z-box) with r w-axes, and
    result[l, i, j] is lane l at (W[i], Z[j]).  Each w-exponent's z-part
    is evaluated for all lanes by the Horner kernel, times its w-monomial,
    in ascending order (one that is 0 in every lane is skipped), so the
    product grid is never built and the rounding depends on the
    coefficients alone.  A SampleGrid Z is evaluated factor by factor
    (_coordinates), with the values of its points bit for bit."""
    W = _as_grid(W, r)
    lanes, d = D.shape[0], D.ndim - 1 - r
    live = D.any(axis=0)
    if not live.any():
        return np.zeros((lanes, len(W), _count(Z, d)), dtype=complex)
    cols, shapes, mesh = _coordinates(Z, d, lanes)
    out = np.zeros((lanes, len(W)) + mesh, dtype=complex)
    for we in itertools.product(*map(range, live.shape[:r])):
        zs = _horner(D[(slice(None),) + we], cols, shapes, live[we].tolist())
        if zs is None:
            continue
        wa = np.ones(W.shape[0], dtype=complex)
        for i, e in enumerate(we):
            if e:
                wa = wa * W[:, i] ** e
        out += wa.reshape((1, -1) + (1,) * len(mesh)) * zs[:, None]
    return out.reshape(lanes, len(W), -1)


def diff_lanes(D: np.ndarray, orders) -> np.ndarray:
    """The mixed partial of every lane of dense joint (w, z) coefficients
    (lanes on axis 0, orders over the joint coordinates): entry k becomes
    entry k + orders times the falling factorials math.perm(k_i + o_i, o_i),
    multiplied out as integers over the differentiated axes and rounded
    once to a float."""
    out = D[(slice(None),) + tuple(slice(o, None) for o in orders)]
    if not (any(orders) and out.size):
        return out
    fac, shape = [1], []
    for o, m in zip(orders, out.shape[1:]):
        if o:
            fac = [f * math.perm(k + o, o) for f in fac for k in range(m)]
        shape.append(m if o else 1)
    return out * np.array(fac, dtype=float).reshape(shape)


def _recenter(A, Z, first: int) -> np.ndarray:
    """Re-center dense coefficients in z, one center per lane.

    A's axis 0 holds the lanes and its axes first, first + 1, .. the z
    exponents; Z holds one center per lane, shape (lanes, d).  Each z-axis
    on which some lane's offset is nonzero runs one Ruffini-Horner shift
    over all lanes, with each lane's own offset; an axis is skipped only
    when every offset on it is 0.  A single center's work (its dense size
    times the length of each axis it moves) may not pass MAX_SHIFT_WORK.
    The shifts share buffers allocated once per call.
    """
    moving = Z != 0
    lengths = np.array(A.shape[first:first + Z.shape[1]], dtype=np.int64)
    work = math.prod(A.shape[1:]) * int((moving @ lengths).max(initial=0))
    if work > MAX_SHIFT_WORK:
        raise ValueError(
            f"re-centering exponents up to {[v - 1 for v in A.shape[1:]]} "
            f"takes {work} multiply-adds, more than the {MAX_SHIFT_WORK} "
            "the re-centering kernel takes")
    moved = [first + int(i) for i in np.flatnonzero(moving.any(axis=0))]
    # two buffers for an axis's shift and one holding the previous axis's
    # result, which the shift reads; each fits the largest shift
    size = max([A.size // A.shape[ax] * (A.shape[ax] + 1) for ax in moved],
               default=0)
    buffers = np.empty((min(len(moved) + 1, 3), size), dtype=complex)
    held = None
    for ax in moved:
        # the moved axis leads, so each step's slab src[1:k + 2] is one
        # contiguous run over the lanes and the other axes
        C = np.moveaxis(A, ax, 0)
        off = Z[:, ax - first].reshape((-1,) + (1,) * (C.ndim - 2))
        n = C.shape[0] - 1
        shape = (n + 2,) + C.shape[1:]
        a, b = [i for i in range(len(buffers)) if i != held][:2]
        src, dst = (buffers[i, :math.prod(shape)].reshape(shape)
                    for i in (a, b))
        src.fill(0)
        dst.fill(0)
        # Horner in (y + off): q <- (y + off) q + c_m for m = n-1..0, one
        # anti-diagonal of Ruffini's table per step.  Entry 0 of the leading
        # axis holds c_m and entries 1.. hold q with a zero past its top,
        # so a step is q_i <- q_{i-1} + off * q_i for i = 0..deg q + 1: the
        # multiply-adds of the scalar Ruffini-Horner loop, vectorised over
        # the lanes.
        src[1] = C[n]
        for k in range(1, n + 1):
            src[0] = C[n - k]
            np.multiply(src[1:k + 2], off, out=dst[1:k + 2])
            dst[1:k + 2] += src[:k + 1]
            src, dst = dst, src
        A = np.moveaxis(src[1:], 0, ax)
        held = b if n % 2 else a
    return A


def _sparse(A: np.ndarray, r: int, d: int) -> "Poly":
    """The Poly whose joint (w, z) dense coefficients are A."""
    index = np.nonzero(A)
    p = Poly(r, d)
    p.terms = {(e[:r], e[r:]): c for e, c in zip(
        zip(*(i.tolist() for i in index)), A[index].tolist())}
    return p


def joint_dense(p: "Poly") -> np.ndarray:
    """p's coefficients as a dense complex array whose axis i runs through
    exponents 0..max of joint (w, z) coordinate i; the zero polynomial is
    one zero entry.  The kernels spend time on every entry, so a huge but
    sparse box (say z ** 10 ** 9, or w ** 2000 + z ** 500) is refused."""
    if p.is_zero:
        return np.zeros((1,) * (p.r + p.d), dtype=complex)
    keys = [we + ze for we, ze in p.terms]
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
        p.terms.values())
    return out


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
            ((check_multiindex(we, r), check_multiindex(ze, d)), c)
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

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.r == other.r
                and self.d == other.d and self.terms == other.terms)

    def z_degrees(self):
        """Per-coordinate max z-exponent over the support; None for zero."""
        if self.is_zero:
            return None
        degs = [0] * self.d
        for (_, ze) in self.terms:
            for i, e in enumerate(ze):
                degs[i] = max(degs[i], e)
        return tuple(degs)

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
        """Values on the product grid: result[i, j] = p(W[i], Z[j]), W
        (nw, r) and Z (nz, d); the one-lane case of eval_lanes on the joint
        dense coefficients."""
        return eval_lanes(joint_dense(self)[None], self.r, W, Z)[0]

    # -- calculus ----------------------------------------------------------

    def diff(self, op: DiffOp) -> "Poly":
        """Apply a mixed partial over the joint (w, z) coordinates; the
        one-lane case of diff_lanes."""
        if len(op.orders) != self.r + self.d:
            raise ValueError(
                f"derivative arity {len(op.orders)} != {self.r + self.d}")
        if op.is_identity:
            return self
        return _sparse(diff_lanes(joint_dense(self)[None], op.orders)[0],
                       self.r, self.d)

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
        A = joint_dense(self)
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
        """The polynomial of a JSON object: integers r and d, and terms,
        each with exactly the keys w_exp and z_exp (lists of r and d JSON
        integers, none negative) and re and im (finite numbers), no two
        with one exponent pair.  Each rule is tested over all terms in one
        pass, and a refusal names the first term that breaks it.  Zero
        terms are dropped; order is kept."""
        terms = data["terms"]
        p = cls(check_int(data["r"], "r"), check_int(data["d"], "d"))
        if not isinstance(terms, list):
            raise ValueError(f"terms must be a list, not {type(terms).__name__}")
        ok = [type(t) is dict and t.keys() == TERM_KEYS for t in terms]
        if not all(ok):
            raise ValueError(f"terms[{ok.index(False)}] must be an object with "
                             "exactly the keys w_exp, z_exp, re, im")
        for key, n in (("w_exp", p.r), ("z_exp", p.d)):
            exps = [t[key] for t in terms]
            ok = [type(e) is list and len(e) == n and {*map(type, e)} <= {int}
                  and min(e, default=0) >= 0 for e in exps]
            if not all(ok):
                i = ok.index(False)
                raise ValueError(f"terms[{i}].{key} must be a list of {n} "
                                 f"natural number(s), got {exps[i]!r}")
        nums = [(t["re"], t["im"]) for t in terms]
        ok = [{*map(type, c)} <= {int, float}
              and abs(c[0]) <= sys.float_info.max >= abs(c[1]) for c in nums]
        if not all(ok):
            i = ok.index(False)
            check_number(nums[i][0], f"terms[{i}].re")
            check_number(nums[i][1], f"terms[{i}].im")
        keys = [(tuple(t["w_exp"]), tuple(t["z_exp"])) for t in terms]
        first = {}
        ok = [first.setdefault(k, i) == i for i, k in enumerate(keys)]
        if not all(ok):
            i = ok.index(False)
            raise ValueError(f"terms[{i}] repeats the exponents of "
                             f"terms[{first[keys[i]]}]")
        p.terms = {k: c for k, c in zip(keys, itertools.starmap(complex, nums))
                   if c}
        return p


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


def partial_sum_lanes(f: Poly, centers, n: int, enum: Enumeration):
    """Partial sums through rank n of f expanded about each center, as lanes
    of dense joint (w, z) coefficients in f's box (joint_dense).

    Keeps the terms whose re-centered z-exponent has rank <= n under the
    enumeration, then re-expands about the origin.  Re-centering keeps f's
    top-degree terms and adds only lower ones, so in a graded order the cut
    drops a term at every center or at none, as it does for f: it is
    decided once.  Yields (B, cut), B[i] one center's partial sum.  Uncut,
    every lane is f: one chunk of read-only lanes.  Cut, f is broadcast
    over a lane axis of centers in chunks of at most MAX_DENSE dense
    coefficients, and every lane is shifted to its center, masked and
    shifted back.
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
    A = joint_dense(f)
    drop = np.broadcast_to(~_rank_mask(A.shape[f.r:], n, enum), A.shape)
    if not A[drop].any():
        yield np.broadcast_to(A, (len(Z),) + A.shape), False
        return
    first = 1 + f.r
    step = max(1, MAX_DENSE // A.size)
    for lo in range(0, len(Z), step):
        Zc = np.array(Z[lo:lo + step], dtype=complex)
        B = _recenter(np.broadcast_to(A, (len(Zc),) + A.shape), Zc, first)
        yield _recenter(np.where(drop, 0, B), -Zc, first), True


def partial_sum(f: Poly, centers, n: int, enum: Enumeration) -> list:
    """Partial sums through rank n of f expanded about each center, one
    Poly per center (partial_sum_lanes).  When the cut drops nothing every
    center gets the input object itself (the partial sum IS the
    polynomial).
    """
    out = []
    for lanes, cut in partial_sum_lanes(f, centers, n, enum):
        out += ([_sparse(B, f.r, f.d) for B in lanes] if cut
                else [f] * len(lanes))
    return out


# -- blocks in an Arnoldi basis ---------------------------------------------


def start_rows(R, t, scale: float, start: int, norm: float, first: int = 0):
    """Row 0 of each R[o], o >= first: the o-th y-derivative of q_0 =
    t^start / norm at the points t = y / scale (R[o], t as in recur_rows)."""
    for o in range(first, len(R)):
        R[o][0] = (math.perm(start, o) / (norm * scale ** o)
                   * t ** (start - o) if o <= start else 0)


def recur_rows(R, t, scale: float, H, k0: int, k1: int, first: int = 0):
    """Rows k0 + 1 .. k1 of each (rows, points) array R[o], o >= first, at
    the points t, from the rows before them, by the Arnoldi relation
    t q_k = sum_{i <= k + 1} H[i, k] q_i differentiated o times in
    y = scale * t:

        H[k + 1, k] q_{k+1}^(o) = t q_k^(o) + (o / scale) q_k^(o-1)
                                  - sum_{i <= k} H[i, k] q_i^(o)
    """
    for k in range(k0, k1):
        inv = 1 / H[k + 1, k]
        h = H[:k + 1, k] * -inv
        for o in range(first, len(R)):
            out = R[o][k + 1]
            np.multiply(t, R[o][k], out=out)
            out *= inv
            out += h @ R[o][:k + 1]
            if o:
                out += (o * inv / scale) * R[o - 1][k]


def graded_columns(degrees, budget: int) -> np.ndarray:
    """Joint exponents g with total degree <= budget and g_j <= degrees[j],
    in graded-lex order (family_Fl's), as the rows of a read-only integer
    array, built once per argument; the columns of a smaller budget are a
    prefix of those of a larger one."""
    return _graded_columns(tuple(map(int, degrees)), int(budget))


@functools.lru_cache(maxsize=256)
def _graded_columns(degrees: tuple, budget: int) -> np.ndarray:
    # lexicographic, one axis at a time, each prefix extended only as far
    # as its room under the budget: the work is the output's, never the
    # box's; then a stable sort by total degree
    out = np.zeros((1, 0), dtype=np.intp)
    for m in degrees:
        reps = np.minimum(budget - out.sum(axis=1), m) + 1
        tail = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        out = np.column_stack([np.repeat(out, reps, axis=0), tail])
    return _read_only(out[np.argsort(out.sum(axis=1), kind="stable")])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# stream arrays are stored as base64 of these bytes
PACKED = np.dtype("<c16")


def _pack(values) -> str:
    """A complex array as base64 of its little-endian complex128 bytes."""
    return base64.b64encode(np.asarray(values, PACKED).tobytes()).decode()


def _unpack(blob, what: str) -> np.ndarray:
    """The complex entries a _pack string holds, read-only; ValueError on
    anything but a base64 string of whole complex128 values."""
    try:
        raw = base64.b64decode(blob, validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} is not a base64 string: {exc}") from None
    if len(raw) % PACKED.itemsize:
        raise ValueError(f"{what} holds {len(raw)} bytes, not a multiple of "
                         f"{PACKED.itemsize}")
    return np.frombuffer(raw, PACKED)


@functools.lru_cache(maxsize=256)
def _packed_hessenberg(n: int):
    """Row and column indices of the entries H[0..k+1, k], k = 0..n-1, of
    an (n + 1, n) Hessenberg matrix, column by column: the order in which
    a stream packs them; read-only, built once per n."""
    cols, rows = np.tril_indices(n, 1, n + 1)
    return _read_only(rows), _read_only(cols)


def _positive(value, what: str) -> float:
    value = check_number(value, what)
    if not value > 0:
        raise ValueError(f"{what} must be positive, got {value!r}")
    return value


AXIS_KEYS = frozenset(("scale", "norm", "hessenberg"))


@dataclass
class Axis:
    """One coordinate's basis polynomials q_0, q_1, .. in t = y / scale:
    q_0 = t^start / norm, and t q_k = H[0, k] q_0 + .. + H[k + 1, k] q_{k+1}
    (the Hessenberg matrix of an Arnoldi run, shape (degree + 1, degree))."""

    scale: float
    norm: float
    H: np.ndarray

    def __post_init__(self):
        self.scale = _positive(self.scale, "an axis scale")
        self.norm = _positive(self.norm, "an axis start normaliser")
        self.H = np.asarray(self.H, dtype=complex)
        n = self.H.shape[1] if self.H.ndim == 2 else -1
        if self.H.shape != (n + 1, n):
            raise ValueError("a Hessenberg matrix must have shape (n + 1, n)")
        if not (np.isfinite(self.H).all() and np.diagonal(self.H, -1).all()):
            raise ValueError("a Hessenberg matrix must be finite with a "
                             "non-zero subdiagonal")

    @property
    def degree(self) -> int:
        return self.H.shape[1]

    def to_json(self) -> dict:
        return {"scale": self.scale, "norm": self.norm,
                "hessenberg": _pack(self.H[_packed_hessenberg(self.degree)])}

    @classmethod
    def from_json(cls, data: dict) -> "Axis":
        if not isinstance(data, dict) or data.keys() != AXIS_KEYS:
            raise ValueError("an axis holds exactly the keys "
                             + ", ".join(sorted(AXIS_KEYS)))
        packed = _unpack(data["hessenberg"], "a Hessenberg matrix")
        # degree n packs n (n + 3) / 2 entries
        n = (math.isqrt(9 + 8 * len(packed)) - 3) // 2
        if n * (n + 3) // 2 != len(packed):
            raise ValueError(f"a Hessenberg matrix holds {len(packed)} "
                             "entries, which is n (n + 3) / 2 for no degree n")
        H = np.zeros((n + 1, n), dtype=complex)
        H[_packed_hessenberg(n)] = packed
        return cls(data["scale"], data["norm"], H)


# point sets a block keeps rows for (Block.rows)
ROWS_KEPT = 16


class Block:
    """One stage's correction, in per-axis Arnoldi bases about a center.

    Axes are the w coordinates, then the z coordinates; axis j runs in
    y_j = x_j - center_j (w axes are not shifted) and has the basis of its
    Axis with start e on the divisor axis z_i0 and 0 on every other.  The
    block is the sum over the graded columns g (total degree <= budget,
    g_j <= axis j's degree) of coefs[g] * prod_j q_{g_j}(y_j), so every
    term is a multiple of y_i0^e.  Values come from the recurrence
    (recur_rows), never from Taylor coefficients; `taylor` is a derived
    view.
    """

    def __init__(self, r: int, center, divisor, budget: int, axes, coefs):
        self.r = int(r)
        self.center = tuple(complex(v) for v in center)
        self.d = len(self.center)
        if not (isinstance(divisor, (list, tuple)) and len(divisor) == 2):
            raise ValueError("divisor must be a list of two integers, got "
                             f"{divisor!r}")
        self.i0, self.e = (check_int(v, "divisor") for v in divisor)
        self.budget = check_int(budget, "budget")
        self.axes = list(axes)
        if len(self.axes) != self.r + self.d:
            raise ValueError(f"a block needs {self.r + self.d} axes, got "
                             f"{len(self.axes)}")
        if not (0 <= self.i0 < self.d) or self.e < 0:
            raise ValueError(f"divisor ({self.i0}, {self.e}) is out of range")
        if any(ax.degree > self.budget for ax in self.axes):
            raise ValueError("an axis degree passes the block's budget")
        self.starts = [self.e if j == self.r + self.i0 else 0
                       for j in range(len(self.axes))]
        self.columns = graded_columns([ax.degree for ax in self.axes],
                                      self.budget)
        self.coefs = np.asarray(coefs, dtype=complex).reshape(-1)
        if len(self.coefs) != len(self.columns):
            raise ValueError(f"a block of budget {self.budget} needs "
                             f"{len(self.columns)} coefficients, got "
                             f"{len(self.coefs)}")
        self.tensor = np.zeros([ax.degree + 1 for ax in self.axes],
                               dtype=complex)
        self.tensor[tuple(self.columns.T)] = self.coefs
        # the rows of the ROWS_KEPT newest point sets by axis and points: a
        # stage's fit and the certificate evaluate earlier blocks on one
        # outer compact again and again
        self._rows = {}

    def rows(self, j: int, x, order: int) -> list:
        """Axis j's q_0..q_degree and their y-derivatives through `order`
        at the coordinate values x: one (degree + 1, len(x)) array per
        order, read-only.  The set moves to the newest end of the cache; a
        cached set keeps its arrays and gains the orders it lacks from one
        recurrence (recur_rows: order o reads only orders <= o), and only
        the ROWS_KEPT newest sets stay."""
        x = np.ascontiguousarray(x, dtype=complex)
        key = (j, x.tobytes())
        R = self._rows.pop(key, [])
        if not R and len(self._rows) >= ROWS_KEPT:
            # a new set: evict first, so its rows can take the freed memory
            self._rows.pop(next(iter(self._rows)))
        if len(R) <= order:
            ax, first = self.axes[j], len(R)
            c = self.center[j - self.r] if j >= self.r else 0
            t = (x - c) / ax.scale
            R = R + [np.empty((ax.degree + 1, len(t)), dtype=complex)
                     for _ in range(first, order + 1)]
            start_rows(R, t, ax.scale, self.starts[j], ax.norm, first)
            recur_rows(R, t, ax.scale, ax.H, 0, ax.degree, first)
            for M in R[first:]:
                M.flags.writeable = False
        self._rows[key] = R
        return R

    def contract(self, mats) -> np.ndarray:
        """The coefficient tensor contracted with one (degree + 1, n_j)
        matrix of basis values per axis: shape (n_0, .., n_{k-1})."""
        T = self.tensor
        for M in mats:
            T = np.tensordot(T, M, axes=(0, 0))
        return T

    def values(self, axes_points, orders) -> np.ndarray:
        """The mixed partial `orders` of the block on the product of the
        per-axis points (w axes, then z axes)."""
        return self.contract([self.rows(j, x, o)[o] for j, (x, o) in
                              enumerate(zip(axes_points, orders))])

    # -- structure: read off the non-zero coefficients ---------------------

    @functools.cached_property
    def _box(self) -> tuple:
        """(z_degrees, total_z_degree), read off the coefficients once."""
        index = np.nonzero(self.tensor)
        if not len(index[0]):
            return None, -1
        return (tuple(int(index[j].max()) + self.starts[j]
                      for j in range(self.r, self.r + self.d)),
                int(sum(index[self.r:]).max()) + self.e)

    def z_degrees(self):
        """Per-coordinate max z-exponent of the block; None when it is 0."""
        return self._box[0]

    def total_z_degree(self) -> int:
        """Max total z-degree of the block; -1 when it is 0.  Each q_k has
        exact degree start + k, so distinct columns of top degree cannot
        cancel."""
        return self._box[1]

    def term_count(self) -> int:
        """Monomials the block can hold: y^(start + m) for every m at or
        below some column with a non-zero coefficient."""
        covered = self.tensor != 0
        for ax in range(covered.ndim):
            covered = np.flip(np.logical_or.accumulate(
                np.flip(covered, ax), axis=ax), ax)
        return int(covered.sum())

    # -- the derived Taylor view ---------------------------------------------

    def _monomials(self, j: int) -> np.ndarray:
        """Row k: the coefficients of axis j's q_k in powers of y_j, by the
        recurrence on coefficient vectors (multiplying by t shifts and
        divides by the scale); entries below the start are exactly 0."""
        ax, s = self.axes[j], self.starts[j]
        n = ax.degree
        C = np.zeros((n + 1, s + n + 1), dtype=complex)
        C[0, s] = 1.0 / ax.norm / np.float64(ax.scale) ** s
        for k in range(n):
            v = np.zeros(s + n + 1, dtype=complex)
            v[1:] = C[k, :-1] / ax.scale
            v -= ax.H[:k + 1, k] @ C[:k + 1]
            C[k + 1] = v / ax.H[k + 1, k]
        return C

    def taylor(self) -> Poly:
        """The block's float Taylor coefficients in powers of
        (w, z - center); every one below y_i0^e is exactly 0."""
        with np.errstate(over="ignore", invalid="ignore"):
            T = self.contract([self._monomials(j)
                               for j in range(len(self.axes))])
        if not np.isfinite(T).all():
            raise ValueError("the block's Taylor coefficients overflow "
                             "a float")
        return _sparse(T, self.r, self.d)

    def to_json(self) -> dict:
        return {"divisor": [self.i0, self.e], "budget": self.budget,
                "axes": [ax.to_json() for ax in self.axes],
                "coefs": _pack(self.coefs)}

    @classmethod
    def from_json(cls, data: dict, r: int, center) -> "Block":
        return cls(r, center, data["divisor"], data["budget"],
                   [Axis.from_json(a) for a in data["axes"]],
                   _unpack(data["coefs"], "a block's coefs"))


class BlockSum:
    """`poly` minus a sum of whole blocks, under one mixed partial: what a
    stage's fit aims at and what a certificate measures.

    eval_product takes sample grids (the w grid None without parameters),
    evaluates `poly` under the partial with the lane kernels (diff_lanes,
    eval_lanes) and each block through its recurrence on the grids'
    per-factor axes; a NaN anywhere stays in the values.
    """

    def __init__(self, poly: Poly, blocks):
        self.poly = poly
        self.blocks = list(blocks)
        self.r, self.d = poly.r, poly.d
        self.op = DiffOp.identity(self.r + self.d)
        if any((b.r, b.d) != (self.r, self.d) for b in self.blocks):
            raise ValueError(f"blocks must have r = {self.r}, d = {self.d}")
        # poly's coefficients as one lane, densified once for every partial
        self.dense = joint_dense(poly)[None]

    def diff(self, op: DiffOp) -> "BlockSum":
        out = copy.copy(self)
        out.op = DiffOp(tuple(a + b for a, b in zip(self.op.orders, op.orders)))
        return out

    def eval_product(self, W, Z) -> np.ndarray:
        out = eval_lanes(diff_lanes(self.dense, self.op.orders), self.r, W,
                         Z)[0]
        axes = (W.per_factor if W is not None else []) + Z.per_factor
        for b in self.blocks:
            out -= b.values(axes, self.op.orders).reshape(out.shape)
        return out


# -- coefficient stream -------------------------------------------------------

# streams of another format (v4 wrote block arrays as decimal [re, im]
# pairs, v3 blocks held one Taylor polynomial each) are refused with a
# message to re-run construct
STREAM_FORMAT = "taylorlab-stream-v5"
BLOCK_KEYS = frozenset("stage n_max divisor budget axes coefs".split())


@dataclass(frozen=True)
class Ledger:
    """What blocks 1..s of a stream fix: the degree box of their
    z-exponents (None while every block is 0), its capture index (0 then),
    lambda's floor (the larger of that and one past block s - 1's n_max),
    their largest total z-degree (-1 while every block is 0) and the
    monomials they can hold (no two blocks share one)."""

    box: tuple | None
    capture: int
    floor: int
    degree: int
    terms: int


@dataclass
class StreamBlock:
    """One appended stage: a block whose z-exponents rank in
    (previous frontier, n_max], and the ledger of blocks 1..s."""

    stage_id: str
    block: Block
    n_max: int
    ledger: Ledger


class CoefficientStream:
    """Append-only Taylor series about one center, built block by block.

    Each block is a multiple of (z_i0 - center_i0)^e with e past the total
    degree at the frontier rank, so in a graded enumeration every term it
    adds ranks past the frontier: every rank at or below the frontier is
    frozen, and each stage's cut falls between whole blocks.  Construct
    and verify read the stage schedule from the blocks' ledgers.  Blocks
    stay in their Arnoldi bases; their Taylor coefficients (partial_sum,
    poly) are a derived float view that construction and replay never
    build.
    """

    def __init__(self, enum: Enumeration, center, r: int):
        self.enum = enum
        self.center = tuple(complex(v) for v in center)
        if len(self.center) != enum.d:
            raise ValueError("stream center must have one entry per z-coordinate")
        self.r = int(r)
        self.d = enum.d
        self.blocks: list[StreamBlock] = []

    @property
    def frontier(self) -> int:
        return self.blocks[-1].n_max if self.blocks else -1

    @property
    def ledger(self) -> Ledger:
        """The ledger of every block so far (of none: no box, degree -1)."""
        return self.blocks[-1].ledger if self.blocks else Ledger(
            None, 0, 0, -1, 0)

    @property
    def next_exponent(self) -> int:
        """The least divisor exponent of the next block: one past the total
        degree at the frontier rank, 0 for the first block."""
        return sum(self.enum.unrank(self.frontier)) + 1 if self.blocks else 0

    def ledger_with(self, block: Block) -> Ledger:
        """The ledger the stream would have with `block` appended next."""
        last, g = self.ledger, block.z_degrees()
        box = (last.box if g is None else g if last.box is None
               else tuple(map(max, last.box, g)))
        capture = 0 if box is None else self.enum.capture_index(box)
        return Ledger(box, capture, max(capture, self.frontier + 1),
                      max(last.degree, block.total_z_degree()),
                      last.terms + block.term_count())

    def append_block(self, stage_id: str, block: Block, n_max: int):
        """Append `block` as the ranks (frontier, n_max]; n_max must reach
        lambda's floor."""
        if (block.r, block.d, block.center) != (self.r, self.d, self.center):
            raise ValueError(f"a block must have r = {self.r}, d = {self.d} "
                             "and the stream's center")
        if block.e < self.next_exponent:
            raise ValueError(
                f"block divisor exponent {block.e} does not pass the total "
                f"degree {self.next_exponent - 1} at the frontier "
                f"{self.frontier}")
        ledger = self.ledger_with(block)
        if n_max < ledger.floor:
            raise ValueError(f"n_max {n_max} is below lambda's floor "
                             f"{ledger.floor}")
        self.blocks.append(StreamBlock(stage_id, block, int(n_max), ledger))

    def partial_sum(self, n: int) -> Poly:
        """The float Taylor view of the sum of a_k(w) (z - center)^{N_k}
        over ranks k <= n, expanded about the origin."""
        if n > self.frontier or (n < 0 and self.blocks):
            raise IndexError(f"rank {n} beyond materialized frontier {self.frontier}")
        # blocks up to n merge whole; only the block the cut falls inside
        # is ranked term by term
        p = Poly(self.r, self.d)
        for b in self.blocks:
            terms = b.block.taylor().terms
            if n < b.n_max:
                terms = {(we, ze): c for (we, ze), c in terms.items()
                         if self.enum.rank(ze) <= n}
            p.terms.update(terms)
            if n <= b.n_max:
                break
        return p.shift_center(tuple(-v for v in self.center))

    def poly(self) -> Poly:
        """The full Taylor view."""
        return self.partial_sum(self.frontier)

    def to_json(self) -> dict:
        return {
            "format": STREAM_FORMAT,
            "enumeration": self.enum.scheme,
            "d": self.d,
            "r": self.r,
            "center": [[v.real, v.imag] for v in self.center],
            "blocks": [dict(b.block.to_json(), stage=b.stage_id,
                            n_max=b.n_max) for b in self.blocks],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoefficientStream":
        if data.get("format") != STREAM_FORMAT:
            raise ValueError(f"stream format {data.get('format')!r} is not "
                             f"{STREAM_FORMAT!r}; re-run construct on the "
                             "scenario")
        enum = Enumeration(check_int(data["d"], "d"), data["enumeration"])
        center = complex_pairs(data["center"], "the stream center")
        stream = cls(enum, center, check_int(data["r"], "r"))
        if not isinstance(data["blocks"], list):
            raise ValueError(f"stream blocks must be a list, got "
                             f"{data['blocks']!r}")
        for b in data["blocks"]:
            if not isinstance(b, dict) or b.keys() != BLOCK_KEYS:
                raise ValueError("a stream block holds exactly the keys "
                                 + ", ".join(sorted(BLOCK_KEYS)))
            if not isinstance(b["stage"], str):
                raise ValueError("a block's stage must be a string, got "
                                 f"{b['stage']!r}")
            stream.append_block(b["stage"], Block.from_json(
                b, stream.r, stream.center), check_int(b["n_max"], "n_max"))
        return stream

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

        W is (nw, r), Z is (nz, d).  Terms are grouped by w-exponent so the
        product grid is never materialized.
        """
        W = _as_grid(W, self.r)
        Z = _as_grid(Z, self.d)
        nw, nz = W.shape[0], Z.shape[0]
        out = np.zeros((nw, nz), dtype=complex)
        # canonical term order: the sum must not depend on how the poly
        # was assembled, or recomputed sups drift at the last bit
        groups: dict[tuple[int, ...], list] = {}
        for (we, ze), c in sorted(self.terms.items()):
            groups.setdefault(we, []).append((ze, c))
        wcache: dict[tuple[int, int], np.ndarray] = {}
        zcache: dict[tuple[int, int], np.ndarray] = {}

        def powcol(arr, cache, ci, e):
            key = (ci, e)
            got = cache.get(key)
            if got is None:
                got = arr[:, ci] ** e
                cache[key] = got
            return got

        for we, zterms in groups.items():
            wa = np.ones(nw, dtype=complex)
            for i, e in enumerate(we):
                if e:
                    wa = wa * powcol(W, wcache, i, e)
            zs = np.zeros(nz, dtype=complex)
            for ze, c in zterms:
                acc = np.full(nz, c, dtype=complex)
                for i, e in enumerate(ze):
                    if e:
                        acc = acc * powcol(Z, zcache, i, e)
                zs += acc
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

        Runs one univariate Ruffini-Horner shift per z-coordinate with a
        nonzero offset; coordinates with offset 0 are untouched bit for bit.
        """
        zeta = tuple(complex(v) for v in zeta)
        if len(zeta) != self.d:
            raise ValueError(f"center has length {len(zeta)}, expected {self.d}")
        p = self
        for i, off in enumerate(zeta):
            if off == 0:
                continue
            p = p._shift_one(i, off)
        return p

    def _shift_one(self, coord: int, off: complex) -> "Poly":
        groups: dict[tuple, np.ndarray] = {}
        for (we, ze), c in self.terms.items():
            rest = (we, ze[:coord], ze[coord + 1:])
            e = ze[coord]
            arr = groups.get(rest)
            if arr is None or len(arr) <= e:
                new = np.zeros(max(e + 1, 0 if arr is None else len(arr)),
                               dtype=complex)
                if arr is not None:
                    new[:len(arr)] = arr
                groups[rest] = arr = new
            arr[e] += c
        out: dict = {}
        for (we, zpre, zpost), arr in groups.items():
            n = len(arr) - 1
            c = arr.copy()
            for j in range(n):
                for k in range(n - 1, j - 1, -1):
                    c[k] += off * c[k + 1]
            for e in range(n + 1):
                if c[e] != 0:
                    out[(we, zpre + (e,) + zpost)] = out.get(
                        (we, zpre + (e,) + zpost), 0j) + c[e]
        p = Poly(self.r, self.d)
        p.terms = {k: v for k, v in out.items() if v != 0}
        return p

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


def partial_sum(f: Poly, zeta, n: int, enum: Enumeration) -> Poly:
    """Partial sum through rank n of f expanded about zeta.

    Keeps the terms whose re-centered z-exponent has rank <= n under the
    enumeration, then re-expands about the origin.  If no term would be
    dropped the input object is returned unchanged (capture: the partial
    sum IS the polynomial, for any center).
    """
    if enum.d != f.d:
        raise ValueError("enumeration dimension does not match the polynomial")
    if n < 0:
        raise ValueError("partial-sum index must be a natural number")
    if f.is_zero:
        return f
    if n >= enum.capture_index(f.z_degrees()):
        return f
    zeta = tuple(complex(v) for v in zeta)
    shifted = f.shift_center(zeta)
    kept = {k: c for k, c in shifted.terms.items() if enum.rank(k[1]) <= n}
    if len(kept) == len(shifted.terms):
        # every re-centered term survives the cut even though the box bound
        # did not prove it; the truncation is the whole polynomial
        return f
    g = Poly(f.r, f.d)
    g.terms = kept
    return g.shift_center(tuple(-v for v in zeta))


# -- coefficient stream -------------------------------------------------------


@dataclass
class StreamBlock:
    """One appended stage: coefficients for ranks in (previous frontier, n_max]."""

    stage_id: str
    coeffs: dict[int, Poly]
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
        self.blocks: list[StreamBlock] = []
        self._poly_cache: Poly | None = None

    @property
    def d(self) -> int:
        return self.enum.d

    @property
    def frontier(self) -> int:
        return self.blocks[-1].n_max if self.blocks else -1

    def append_block(self, stage_id: str, coeffs: dict[int, Poly], n_max: int):
        clean: dict[int, Poly] = {}
        for k, c in coeffs.items():
            k = int(k)
            if k < 0:
                raise ValueError("coefficient ranks must be natural numbers")
            if not isinstance(c, Poly) or c.r != self.r or c.d != 0:
                raise ValueError("coefficients must be w-polynomials (d = 0)")
            if not c.is_zero:
                clean[k] = c
        if clean and min(clean) <= self.frontier:
            raise ValueError(
                f"block would touch frozen rank {min(clean)} "
                f"(frontier is {self.frontier})")
        if clean and n_max < max(clean):
            raise ValueError("n_max must cover every rank in the block")
        if n_max <= self.frontier:
            raise ValueError("n_max must advance the frontier")
        self.blocks.append(StreamBlock(str(stage_id), clean, int(n_max)))
        self._poly_cache = None

    def coeff(self, k: int) -> Poly:
        if k < 0 or k > self.frontier:
            raise IndexError(f"rank {k} beyond materialized frontier {self.frontier}")
        for b in self.blocks:
            if k in b.coeffs:
                return b.coeffs[k]
        return Poly.zero(self.r, 0)

    def partial_sum(self, n: int) -> Poly:
        """Materialize sum of a_k(w) (z - center)^{N_k} over ranks k <= n."""
        if not self.blocks:
            return Poly.zero(self.r, self.d)
        if n < 0 or n > self.frontier:
            raise IndexError(f"rank {n} beyond materialized frontier {self.frontier}")
        acc: dict = {}
        for b in self.blocks:
            for k, cp in b.coeffs.items():
                if k > n:
                    continue
                ze = self.enum.unrank(k)
                for (we, _), c in cp.terms.items():
                    acc[(we, ze)] = acc.get((we, ze), 0j) + c
        p = Poly(self.r, self.d)
        p.terms = {k: v for k, v in acc.items() if v != 0}
        if any(v != 0 for v in self.center):
            p = p.shift_center(tuple(-v for v in self.center))
        return p

    def poly(self) -> Poly:
        """The full materialized polynomial."""
        if self._poly_cache is None:
            self._poly_cache = (self.partial_sum(self.frontier)
                                if self.blocks else Poly.zero(self.r, self.d))
        return self._poly_cache

    def to_json(self) -> dict:
        return {
            "enumeration": self.enum.tag,
            "d": self.d,
            "r": self.r,
            "center": [[v.real, v.imag] for v in self.center],
            "blocks": [{
                "stage": b.stage_id,
                "n_max": b.n_max,
                "coeffs": {str(k): c.to_json() for k, c in sorted(b.coeffs.items())},
            } for b in self.blocks],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoefficientStream":
        enum = Enumeration.from_tag(data["enumeration"], int(data["d"]))
        center = [complex(re, im) for re, im in data["center"]]
        stream = cls(enum, center, int(data["r"]))
        for b in data["blocks"]:
            if not isinstance(b["coeffs"], dict):
                raise ValueError("stream block coefficients must be an object")
            coeffs = {int(k): Poly.from_json(c) for k, c in b["coeffs"].items()}
            stream.append_block(b["stage"], coeffs, int(b["n_max"]))
        return stream

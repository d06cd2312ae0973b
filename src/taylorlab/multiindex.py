"""Multi-index enumerations, capture indices, derivative families, index sets.

Everything downstream (partial sums, coefficient streams, certificates) is
parameterized by a bijection k -> N^d fixing the order in which monomial
slots are filled.  The graded schemes are the ones the stage constructor
accepts, because appending a block of strictly higher total degree then
never disturbs already-frozen positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _cartesian

SCHEMES = ("graded-lex", "graded-revlex", "diagonal-cantor", "explicit-table")


class SparseIndexError(ValueError):
    """Raised when an index set cannot supply a member at or beyond a floor."""


def cantor_pair(x: int, y: int) -> int:
    """Classic diagonal pairing, bijective N^2 -> N."""
    s = x + y
    return s * (s + 1) // 2 + y


def cantor_unpair(n: int) -> tuple[int, int]:
    s = (math.isqrt(8 * n + 1) - 1) // 2
    y = n - s * (s + 1) // 2
    return s - y, y


def tuple_pair(values: tuple[int, ...]) -> int:
    """Fold a tuple of naturals into one natural (right-nested cantor_pair)."""
    if not values:
        return 0
    acc = values[-1]
    for v in reversed(values[:-1]):
        acc = cantor_pair(v, acc)
    return acc


def tuple_unpair(n: int, k: int) -> tuple[int, ...]:
    """Inverse of tuple_pair for tuples of known length k."""
    if k <= 0:
        return ()
    out = []
    for _ in range(k - 1):
        v, n = cantor_unpair(n)
        out.append(v)
    out.append(n)
    return tuple(out)


def _block_size(t: int, d: int) -> int:
    # number of d-tuples of naturals with total exactly t
    return math.comb(t + d - 1, d - 1)


def _offset(t: int, d: int) -> int:
    # number of d-tuples with total degree strictly below t
    return math.comb(t + d - 1, d)


def _lex_rank_in_block(m: tuple[int, ...]) -> int:
    d = len(m)
    rem = sum(m)
    rank = 0
    for i in range(d - 1):
        parts = d - i - 1
        for v in range(m[i]):
            rank += math.comb(rem - v + parts - 1, parts - 1)
        rem -= m[i]
    return rank


def _lex_unrank_in_block(t: int, rem: int, d: int) -> tuple[int, ...]:
    out = []
    left = t
    for i in range(d - 1):
        parts = d - i - 1
        v = 0
        while True:
            cnt = math.comb(left - v + parts - 1, parts - 1)
            if rem < cnt:
                break
            rem -= cnt
            v += 1
        out.append(v)
        left -= v
    out.append(left)
    return tuple(out)


def check_multiindex(m, d: int) -> tuple[int, ...]:
    """Validate and normalize one multi-index to a tuple of naturals."""
    m = tuple(int(v) for v in m)
    if len(m) != d:
        raise ValueError(f"multi-index {m} has length {len(m)}, expected {d}")
    if any(v < 0 for v in m):
        raise ValueError(f"multi-index {m} has a negative entry")
    return m


class Enumeration:
    """Bijection k -> N^d ordering the monomial slots of a d-variable series.

    Parameters
    ----------
    d : int
        Number of z-coordinates.
    scheme : str
        One of SCHEMES.  Conventions:

        * graded-lex: ascending total degree; plain tuple-lex order inside
          each degree block ((0,0),(0,1),(1,0),(0,2),(1,1),(2,0) for d=2).
        * graded-revlex: ascending total degree; lex order on reversed
          tuples inside each block.
        * diagonal-cantor: right-nested Cantor pairing.  Bijective, but not
          degree-monotone for d >= 3; verifier-only.
        * explicit-table: a finite table of indices, optionally extended by
          `extend_with` (a base scheme walked while skipping table entries).
          Without an extension, ranks beyond the table raise IndexError.
    """

    def __init__(self, d: int, scheme: str = "graded-lex",
                 table: list[tuple[int, ...]] | None = None,
                 extend_with: str | None = None):
        if d < 1:
            raise ValueError("need at least one z-coordinate")
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
        self.d = d
        self.scheme = scheme
        self._table: list[tuple[int, ...]] = []
        self._table_pos: dict[tuple[int, ...], int] = {}
        self._ext: Enumeration | None = None
        if scheme == "explicit-table":
            if not table:
                raise ValueError("explicit-table scheme needs a nonempty table")
            for m in table:
                m = check_multiindex(m, d)
                if m in self._table_pos:
                    raise ValueError(f"duplicate table entry {m}")
                self._table_pos[m] = len(self._table)
                self._table.append(m)
            if extend_with is not None:
                if extend_with == "explicit-table":
                    raise ValueError("cannot extend a table with another table")
                self._ext = Enumeration(d, extend_with)
        elif table is not None:
            raise ValueError("table only makes sense with the explicit-table scheme")

    @property
    def is_graded(self) -> bool:
        """True when total degree of unrank(k) is non-decreasing in k."""
        return self.scheme in ("graded-lex", "graded-revlex")

    @property
    def tag(self) -> str:
        if self.scheme == "explicit-table":
            body = ";".join(",".join(map(str, m)) for m in self._table)
            suffix = f":{self._ext.scheme}" if self._ext is not None else ""
            return f"explicit-table:{body}{suffix}"
        return self.scheme

    @classmethod
    def from_tag(cls, tag: str, d: int) -> "Enumeration":
        if not isinstance(tag, str):
            raise ValueError(f"enumeration tag must be a string, got {tag!r}")
        if tag.startswith("explicit-table:"):
            rest = tag.split(":", 1)[1]
            ext = None
            if ":" in rest:
                rest, ext = rest.split(":", 1)
            table = [tuple(int(x) for x in part.split(","))
                     for part in rest.split(";") if part]
            return cls(d, "explicit-table", table=table, extend_with=ext)
        return cls(d, tag)

    def __eq__(self, other):
        return (isinstance(other, Enumeration)
                and self.d == other.d and self.tag == other.tag)

    def __repr__(self):
        return f"Enumeration(d={self.d}, scheme={self.scheme!r})"

    # -- core bijection ----------------------------------------------------

    def unrank(self, k: int) -> tuple[int, ...]:
        """Multi-index N_k."""
        if k < 0:
            raise ValueError("rank must be a natural number")
        if self.scheme == "graded-lex":
            return self._graded_unrank(k, reverse=False)
        if self.scheme == "graded-revlex":
            return self._graded_unrank(k, reverse=True)
        if self.scheme == "diagonal-cantor":
            return tuple_unpair(k, self.d)
        return self._table_unrank(k)

    def rank(self, m) -> int:
        """Position k with unrank(k) == m."""
        m = check_multiindex(m, self.d)
        if self.scheme == "graded-lex":
            return self._graded_rank(m)
        if self.scheme == "graded-revlex":
            return self._graded_rank(tuple(reversed(m)))
        if self.scheme == "diagonal-cantor":
            return tuple_pair(m)
        return self._table_rank(m)

    def _graded_unrank(self, k: int, reverse: bool) -> tuple[int, ...]:
        d = self.d
        if d == 1:
            return (k,)
        # block of k: double, then bisect on offset(lo) <= k < offset(hi)
        lo, hi = 0, 1
        while _offset(hi, d) <= k:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _offset(mid, d) <= k else (lo, mid)
        m = _lex_unrank_in_block(lo, k - _offset(lo, d), d)
        return tuple(reversed(m)) if reverse else m

    def _graded_rank(self, m: tuple[int, ...]) -> int:
        return _offset(sum(m), self.d) + _lex_rank_in_block(m)

    def _table_unrank(self, k: int) -> tuple[int, ...]:
        if k < len(self._table):
            return self._table[k]
        if self._ext is None:
            raise IndexError(
                f"rank {k} beyond explicit table of size {len(self._table)} "
                "and no extension rule was given")
        j = k - len(self._table)
        taken = sorted(self._ext.rank(m) for m in self._table)
        for t in taken:
            if t <= j:
                j += 1
        return self._ext.unrank(j)

    def _table_rank(self, m: tuple[int, ...]) -> int:
        if m in self._table_pos:
            return self._table_pos[m]
        if self._ext is None:
            raise IndexError(
                f"{m} is not in the explicit table and no extension rule was given")
        r = self._ext.rank(m)
        skipped = sum(1 for t in self._table if self._ext.rank(t) < r)
        return len(self._table) + r - skipped

    # -- capture -----------------------------------------------------------

    def capture_index(self, degrees) -> int:
        """Least n such that every index in the degree box has rank <= n.

        The box is {m : m_i <= degrees_i for all i}; the answer is the
        maximum rank over the (finite) box.  Under a graded scheme that is
        the rank of the corner, the box's only index of top total degree.
        """
        degrees = check_multiindex(degrees, self.d)
        if self.is_graded:
            return self.rank(degrees)
        ranges = [range(v + 1) for v in degrees]
        return max(self.rank(m) for m in _cartesian(*ranges))


def family_Fl(r: int, d: int, l: int) -> list["DiffOp"]:
    """All mixed partials over r + d coordinates with total order <= l.

    Ordered by (total order, lex); the identity comes first.  Size is
    comb(l + r + d, r + d).
    """
    if r < 0 or d < 0 or r + d == 0:
        raise ValueError("need at least one coordinate")
    if l < 0:
        raise ValueError("derivative order bound must be a natural number")
    n = r + d
    out = []
    for t in range(l + 1):
        for rem in range(_block_size(t, n)):
            out.append(DiffOp(_lex_unrank_in_block(t, rem, n)))
    return out


@dataclass(frozen=True)
class DiffOp:
    """Mixed partial-derivative symbol over the joint (w, z) coordinates."""

    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(v) for v in self.orders))
        if any(v < 0 for v in self.orders):
            raise ValueError("derivative orders must be natural numbers")

    @property
    def total_order(self) -> int:
        return sum(self.orders)

    @property
    def is_identity(self) -> bool:
        return self.total_order == 0

    @classmethod
    def identity(cls, n: int) -> "DiffOp":
        return cls((0,) * n)


class IndexSet:
    """Decidable subset of N from which partial-sum indices are drawn.

    Kinds: "all" (N itself), "arith" (a + b*N), "list" (explicit sorted
    values, optionally with everything beyond the last one included).
    """

    def __init__(self, kind: str, a: int = 0, b: int = 1,
                 values: list[int] | None = None, beyond: bool = False):
        if kind not in ("all", "arith", "list"):
            raise ValueError(f"unknown index-set kind {kind!r}")
        self.kind = kind
        self.a = int(a)
        self.b = int(b)
        self.values = sorted(set(int(v) for v in values)) if values else []
        self.beyond = bool(beyond)
        if kind == "arith":
            if self.a < 0 or self.b < 1:
                raise ValueError("arithmetic progression needs a >= 0, b >= 1")
        if kind == "list":
            if not self.values:
                raise ValueError("explicit index list must be nonempty")
            if any(v < 0 for v in self.values):
                raise ValueError("index values must be natural numbers")

    @property
    def is_infinite(self) -> bool:
        return self.kind != "list" or self.beyond

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        if self.kind == "all":
            return True
        if self.kind == "arith":
            return n >= self.a and (n - self.a) % self.b == 0
        if self.beyond and n > self.values[-1]:
            return True
        return n in set(self.values)

    def next_at_or_after(self, n: int) -> int:
        """Smallest member >= n; SparseIndexError when no such member exists."""
        n = max(0, int(n))
        if self.kind == "all":
            return n
        if self.kind == "arith":
            if n <= self.a:
                return self.a
            q, rem = divmod(n - self.a, self.b)
            return self.a + (q + (1 if rem else 0)) * self.b
        for v in self.values:
            if v >= n:
                return v
        if self.beyond:
            return n
        raise SparseIndexError(
            f"index set {self.tag!r} has no member at or beyond {n}")

    @property
    def tag(self) -> str:
        if self.kind == "all":
            return "mu:all"
        if self.kind == "arith":
            return f"mu:arith:{self.a},{self.b}"
        body = ",".join(map(str, self.values))
        return f"mu:list:{body}:beyond" if self.beyond else f"mu:list:{body}"

    @classmethod
    def from_tag(cls, tag: str) -> "IndexSet":
        if not isinstance(tag, str):
            raise ValueError(f"index-set tag must be a string, got {tag!r}")
        parts = tag.split(":")
        if parts[0] != "mu" or len(parts) < 2:
            raise ValueError(f"malformed index-set tag {tag!r}")
        if parts[1] == "all":
            return cls("all")
        if len(parts) < 3:
            raise ValueError(f"index-set tag {tag!r} is missing its values")
        if parts[1] == "arith":
            a, b = (int(x) for x in parts[2].split(","))
            return cls("arith", a=a, b=b)
        if parts[1] == "list":
            values = [int(x) for x in parts[2].split(",") if x]
            beyond = len(parts) > 3 and parts[3] == "beyond"
            return cls("list", values=values, beyond=beyond)
        raise ValueError(f"malformed index-set tag {tag!r}")

    def __repr__(self):
        return f"IndexSet({self.tag!r})"

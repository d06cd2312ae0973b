"""Enumeration tests. The sort-based oracle below is the ground truth that
rank/unrank are checked against; it is deliberately naive."""

import math
from itertools import product as cartesian

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taylorlab.multiindex import (
    DiffOp,
    _block_size,
    _lex_rank_in_block,
    _lex_unrank_in_block,
    Enumeration,
    IndexSet,
    SparseIndexError,
    cantor_pair,
    cantor_unpair,
    check_multiindex,
    family_Fl,
    tuple_pair,
    tuple_unpair,
)


# ---------------------------------------------------------------- oracles

def oracle_graded_prefix(d, count, reverse=False):
    """First `count` multi-indices by brute-force generate-and-sort.

    Generates every index of total degree <= T for a T large enough to
    cover `count` entries, sorts by (degree, key), truncates.
    """
    T = 1
    while math.comb(T + d, d) < count:
        T += 1
    all_idx = [m for m in cartesian(range(T + 1), repeat=d) if sum(m) <= T]
    key = (lambda m: (sum(m), tuple(reversed(m)))) if reverse else (lambda m: (sum(m), m))
    return sorted(all_idx, key=key)[:count]


def oracle_capture_scan(enum, degrees, scan_limit=200_000):
    """Smallest n with box(degrees) fully inside {N_0..N_n}, by forward scan."""
    box = set(cartesian(*[range(v + 1) for v in degrees]))
    seen = set()
    for k in range(scan_limit):
        m = enum.unrank(k)
        if m in box:
            seen.add(m)
            if len(seen) == len(box):
                return k
    raise AssertionError("scan limit hit before covering the box")


def loop_rank_in_block(m):
    """Lex rank inside the degree block, one summand per skipped value."""
    d, rem, rank = len(m), sum(m), 0
    for i in range(d - 1):
        parts = d - i - 1
        for v in range(m[i]):
            rank += math.comb(rem - v + parts - 1, parts - 1)
        rem -= m[i]
    return rank


def loop_unrank_in_block(t, rem, d):
    """Inverse of loop_rank_in_block, stepping each value one at a time."""
    out, left = [], t
    for i in range(d - 1):
        parts = d - i - 1
        v = 0
        while rem >= (cnt := math.comb(left - v + parts - 1, parts - 1)):
            rem -= cnt
            v += 1
        out.append(v)
        left -= v
    out.append(left)
    return tuple(out)


# ---------------------------------------------------------------- frozen values

def test_graded_lex_first_six_d2():
    enum = Enumeration(2, "graded-lex")
    expect = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert [enum.unrank(k) for k in range(6)] == expect


def test_capture_index_d2_11():
    enum = Enumeration(2, "graded-lex")
    assert enum.capture_index((1, 1)) == 4


def test_d1_all_schemes_are_identity():
    for scheme in ("graded-lex", "graded-revlex"):
        enum = Enumeration(1, scheme)
        assert [enum.unrank(k) for k in range(20)] == [(k,) for k in range(20)]
        assert all(enum.rank((k,)) == k for k in range(20))


def test_family_Fl_size_and_identity():
    fam = family_Fl(1, 2, 2)
    assert len(fam) == math.comb(2 + 1 + 2, 1 + 2)
    assert fam[0].is_identity
    assert all(op.total_order <= 2 for op in fam)
    assert len(set(fam)) == len(fam)
    fam1 = family_Fl(1, 1, 1)
    assert [op.orders for op in fam1] == [(0, 0), (0, 1), (1, 0)]


# ---------------------------------------------------------------- oracle checks

@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_graded_lex_matches_sort_oracle(d):
    enum = Enumeration(d, "graded-lex")
    count = 300
    assert [enum.unrank(k) for k in range(count)] == oracle_graded_prefix(d, count)


@pytest.mark.parametrize("d", [2, 3])
def test_graded_revlex_matches_sort_oracle(d):
    enum = Enumeration(d, "graded-revlex")
    count = 200
    got = [enum.unrank(k) for k in range(count)]
    assert got == oracle_graded_prefix(d, count, reverse=True)


@pytest.mark.parametrize("d", [2, 3])
def test_closed_form_block_rank_matches_the_loops(d):
    # every index of total degree <= 40, both directions, exact integers
    for t in range(41):
        for rem in range(_block_size(t, d)):
            m = loop_unrank_in_block(t, rem, d)
            assert _lex_unrank_in_block(t, rem, d) == m
            assert _lex_rank_in_block(m) == loop_rank_in_block(m) == rem


@pytest.mark.parametrize("scheme", ["graded-lex", "graded-revlex"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_rank_unrank_identity_to_1e4(scheme, d):
    enum = Enumeration(d, scheme)
    for k in range(10_000):
        assert enum.rank(enum.unrank(k)) == k


@pytest.mark.parametrize("scheme", ["graded-lex", "graded-revlex"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_unrank_rank_identity_degree_12(scheme, d):
    enum = Enumeration(d, scheme)
    for m in cartesian(range(13), repeat=d):
        if sum(m) <= 12:
            assert enum.unrank(enum.rank(m)) == m


@pytest.mark.parametrize("scheme", ["graded-lex", "graded-revlex"])
def test_graded_degree_monotone(scheme):
    enum = Enumeration(3, scheme)
    degs = [sum(enum.unrank(k)) for k in range(2000)]
    assert degs == sorted(degs)


@pytest.mark.parametrize("scheme,d,degrees", [
    ("graded-lex", 2, (1, 1)),
    ("graded-lex", 2, (3, 5)),
    ("graded-lex", 3, (2, 2, 2)),
    ("graded-revlex", 2, (4, 1)),
])
def test_capture_index_matches_scan_oracle(scheme, d, degrees):
    enum = Enumeration(d, scheme)
    assert enum.capture_index(degrees) == oracle_capture_scan(enum, degrees)


@given(st.sampled_from(["graded-lex", "graded-revlex"]),
       st.lists(st.integers(0, 12), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_graded_capture_index_is_box_maximum(scheme, degrees):
    enum = Enumeration(len(degrees), scheme)
    box_max = max(enum.rank(m)
                  for m in cartesian(*[range(v + 1) for v in degrees]))
    assert enum.capture_index(degrees) == box_max


@given(st.integers(0, 100_000), st.integers(0, 100_000))
@settings(max_examples=300)
def test_cantor_pair_roundtrip(x, y):
    assert cantor_unpair(cantor_pair(x, y)) == (x, y)


@given(st.lists(st.integers(0, 50), min_size=1, max_size=5))
@settings(max_examples=200)
def test_tuple_pair_roundtrip(vals):
    t = tuple(vals)
    assert tuple_unpair(tuple_pair(t), len(t)) == t


# ---------------------------------------------------------------- tags

def test_tag_roundtrip():
    for e in (Enumeration(2), Enumeration(3, "graded-revlex")):
        assert Enumeration(e.d, e.scheme) == e


def test_check_multiindex_rejects_bad_input():
    with pytest.raises(ValueError):
        check_multiindex((1, -2), 2)
    with pytest.raises(ValueError):
        check_multiindex((1, 2, 3), 2)


# ---------------------------------------------------------------- index sets

def test_index_set_all():
    mu = IndexSet.from_tag("mu:all")
    assert all(mu.next_at_or_after(n) == n for n in (0, 7, 13, 10**30))


def test_index_set_arith():
    mu = IndexSet.from_tag("mu:arith:3,4")
    hits = [n for n in range(20) if mu.next_at_or_after(n) == n]
    assert hits == [3, 7, 11, 15, 19]
    assert mu.next_at_or_after(8) == 11
    assert mu.next_at_or_after(3) == 3
    assert mu.next_at_or_after(0) == 3


def test_index_set_list_beyond():
    mu = IndexSet.from_tag("mu:list:2,5,9:beyond")
    hits = [n for n in range(13) if mu.next_at_or_after(n) == n]
    assert hits == [2, 5, 9, 10, 11, 12]
    assert mu.next_at_or_after(6) == 9
    assert mu.next_at_or_after(10**30) == 10**30


def test_index_set_finite_list_raises_when_exhausted():
    mu = IndexSet.from_tag("mu:list:2,5")
    assert [n for n in range(6) if mu.next_at_or_after(n) == n] == [2, 5]
    assert mu.next_at_or_after(4) == 5
    with pytest.raises(SparseIndexError):
        mu.next_at_or_after(6)


def test_index_set_tag_roundtrip():
    for tag in ("mu:all", "mu:arith:0,2", "mu:list:1,4,9", "mu:list:3,8:beyond"):
        assert IndexSet.from_tag(tag).tag == tag


def test_diffop_basics():
    op = DiffOp((1, 0, 2))
    assert op.total_order == 3 and not op.is_identity
    assert DiffOp.identity(3).is_identity
    with pytest.raises(ValueError):
        DiffOp((-1, 0))

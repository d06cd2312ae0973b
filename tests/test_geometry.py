"""Geometry tests: membership oracles, sampling density, exhaustion nesting,
outer-compact enumeration and the complement escape check."""

import math

import numpy as np
import pytest

from taylorlab.geometry import (
    Arc,
    ClippedCompact,
    Disk,
    DomainProduct,
    GridSizeError,
    MAX_GRID_POINTS,
    OpenDisk,
    OpenRect,
    ProductCompact,
    Rectangle,
    Segment,
    SlitAnnulus,
    UnionCompact,
    center_grid,
    cofinality_index,
    compact_from_json,
    complement_escape,
    domain_from_json,
    enumerate_Tm,
    exhaustion_M,
    grid_density,
    outer_compacts,
    sampled_min_distance,
    sup_norm,
)
from taylorlab.poly import Poly

from util import random_point


# ------------------------------------------------------------- sampling


def test_unit_circle_four_points():
    pts = Disk(0.0, 1.0).sample_boundary(4)
    assert len(pts) == 4
    expect = np.array([1.0, 1j, -1.0, -1j])
    assert np.abs(np.sort_complex(pts) - np.sort_complex(expect)).max() < 1e-12
    # hypot of (cos, sin) pairs is exactly 1 at the quarter angles
    assert np.abs(pts).max() == 1.0


def test_circle_spacing_bound():
    for n in (22, 62, 534):
        pts = Disk(1 + 2j, 1.7).sample_boundary(n)
        closed = np.append(pts, pts[0])
        # at least n points, so chords stay below the arc length over n
        assert np.abs(np.diff(closed)).max() <= 2 * math.pi * 1.7 / n + 1e-12
        assert np.allclose(np.abs(pts - (1 + 2j)), 1.7)


def test_segment_and_rectangle_sampling():
    seg = Segment(0.0, 3 + 4j)
    pts = seg.sample_boundary(10)
    assert pts[0] == 0.0 and pts[-1] == 3 + 4j
    assert np.abs(np.diff(pts)).max() <= 0.5 + 1e-12
    assert all(seg.contains(z) for z in pts)

    rect = Rectangle(-1.0, 2.0, 0.5, 1.5)
    bpts = rect.sample_boundary(32)
    assert all(rect.contains(z) for z in bpts)
    on_edge = [
        min(abs(z.real + 1), abs(z.real - 2), abs(z.imag - 0.5), abs(z.imag - 1.5))
        for z in bpts
    ]
    assert max(on_edge) < 1e-9


def _rectangle_walk_reference(rect, ts):
    """Per point: walk the edges from (x0, y0) until the arclength fits."""
    corners = [complex(rect.x0, rect.y0), complex(rect.x1, rect.y0),
               complex(rect.x1, rect.y1), complex(rect.x0, rect.y1)]
    lengths = [abs(corners[(i + 1) % 4] - corners[i]) for i in range(4)]
    out = np.empty(len(ts), dtype=complex)
    for idx, t in enumerate(np.asarray(ts) * sum(lengths)):
        acc = 0.0
        for i in range(4):
            if t <= acc + lengths[i] or i == 3:
                frac = 0.0 if lengths[i] == 0 else (t - acc) / lengths[i]
                frac = min(max(frac, 0.0), 1.0)
                out[idx] = corners[i] + frac * (
                    corners[(i + 1) % 4] - corners[i])
                break
            acc += lengths[i]
    return out


def test_rectangle_walk_matches_the_per_point_reference():
    rng = np.random.default_rng(0)
    rects = [Rectangle(0.0, 1.0, 0.0, 0.0), Rectangle(-1.0, -1.0, -2.0, 3.0),
             Rectangle(-0.0, 0.0, -3.0, -1.0), Rectangle(2.0, 2.0, 1.0, 1.0),
             Rectangle(-1e-3, 1e3, -1e3, 1e-3)]
    for scale in 10.0 ** rng.uniform(-3, 3, size=60):
        x0, x1, y0, y1 = rng.uniform(-scale, scale, size=4)
        rects.append(Rectangle(min(x0, x1), max(x0, x1),
                               min(y0, y1), max(y0, y1)))
    for rect in rects:
        ((_, _, walk),) = rect._curves()
        for k in (4, 7, 64, 400, 1001):
            ts = np.arange(k) / k
            got, want = walk(ts), _rectangle_walk_reference(rect, ts)
            # bit for bit, signed zeros included
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_grid_density_policy():
    for bad in (-1, 1, 3):
        with pytest.raises(ValueError, match="grid density"):
            grid_density("certificate", "z", 1, bad)
    assert grid_density("fit", "w", 0) == 0
    assert grid_density("predicate", "w", 0, 32) == 0
    assert grid_density("certificate", "z", 1, 32) == 32
    assert grid_density("fit", "w", 3, 4) == 4
    table = {(use, side): tuple(grid_density(use, side, dim)
                                for dim in range(1, 6))
             for use in ("fit", "certificate", "predicate")
             for side in ("z", "w")}
    assert table == {
        ("fit", "z"): (400, 96, 28, 12, 12), ("fit", "w"): (48, 12, 8, 8, 8),
        ("certificate", "z"): (400, 80, 24, 12, 12),
        ("certificate", "w"): (32, 10, 6, 6, 6),
        ("predicate", "z"): (128, 16, 8, 8, 8),
        ("predicate", "w"): (16, 8, 6, 6, 6)}


def test_sample_count_mode():
    pts = Disk(0.0, 2.0).sample_boundary(n=100)
    assert len(pts) == 100
    ann = SlitAnnulus(0.0, 1.0, 2.0, math.pi, 0.3)
    apts = ann.sample_boundary(n=200)
    assert len(apts) >= 200
    assert all(ann.contains(z, tol=1e-9) for z in apts)


def test_grid_size_guard():
    with pytest.raises(GridSizeError):
        Disk(0.0, 1.0).sample_boundary(MAX_GRID_POINTS + 1)
    prod = ProductCompact([Disk(0.0, 1.0)] * 3)
    with pytest.raises(GridSizeError):
        prod.sample(n_per_factor=300)


def test_product_sampling_and_membership():
    prod = ProductCompact([Disk(0.0, 1.0), Rectangle(0.0, 1.0, 0.0, 1.0)])
    grid = prod.sample(n_per_factor=20)
    assert grid.points.shape[1] == 2
    assert len(grid) == len(grid.per_factor[0]) * len(grid.per_factor[1])
    for row in grid.points[:50]:
        assert prod.contains(row)
    assert not prod.contains((1.5, 0.5))
    assert not prod.contains((0.5, 0.5 + 2j))


def test_empty_product_grid():
    grid = ProductCompact([]).sample(16)
    assert grid.points.shape == (1, 0)


# ------------------------------------------------------------- membership


def test_membership_oracles():
    d = Disk(1 + 1j, 0.5)
    assert d.contains(1 + 1j) and d.contains(1.5 + 1j)
    assert not d.contains(1.51 + 1j, tol=1e-6)

    seg = Segment(-1.0, 1.0)
    assert seg.contains(0.25) and not seg.contains(0.25 + 0.1j)
    assert not seg.contains(1.2)

    arc = Arc(0.0, 1.0, 0.0, math.pi / 2)
    assert arc.contains(1.0) and arc.contains(np.exp(0.3j))
    assert not arc.contains(np.exp(-0.3j)) and not arc.contains(0.9)

    ann = SlitAnnulus(0.0, 1.0, 2.0, 0.0, 0.4)
    assert ann.contains(-1.5)
    assert not ann.contains(1.5)          # on the slit ray
    assert not ann.contains(0.5) and not ann.contains(2.5)
    assert ann.contains(1.5 * np.exp(0.41j))


def test_union_and_clip():
    u = UnionCompact([Disk(0.0, 0.5), Disk(2.0, 0.5)])
    assert u.complement_connected
    assert u.contains(0.1) and u.contains(2.1) and not u.contains(1.0)
    overlapping = UnionCompact([Disk(0.0, 1.0), Disk(0.5, 1.0)])
    assert not overlapping.complement_connected

    clipped = ClippedCompact(Disk(0.0, 3.0), 2.0)
    assert clipped.contains(1.9) and not clipped.contains(2.5)
    pts = clipped.sample_boundary(n=128)
    assert np.abs(pts).max() <= 2.0 + 1e-9
    assert all(clipped.contains(z, tol=1e-6) for z in pts)


def test_json_roundtrip_compacts():
    shapes = [
        Disk(1 - 2j, 0.75),
        Rectangle(-1.0, 0.0, 0.25, 1.0),
        Segment(1j, 2 + 3j),
        Arc(1.0, 2.0, -0.5, 1.0),
        SlitAnnulus(0.5j, 1.0, 3.0, 1.2, 0.25),
        UnionCompact([Disk(0.0, 0.5), Segment(2.0, 3.0)]),
        ClippedCompact(Disk(0.0, 4.0), 2.5),
    ]
    rng = np.random.default_rng(7)
    probes = rng.uniform(-4, 4, 200) + 1j * rng.uniform(-4, 4, 200)
    for s in shapes:
        back = compact_from_json(s.to_json())
        assert type(back) is type(s)
        for z in probes:
            assert s.contains(z) == back.contains(z)


# ------------------------------------------------------------- domains


def test_exhaustion_disk_example():
    omega = DomainProduct([OpenDisk(0.0, 1.0)])
    M1 = exhaustion_M(omega, 1)
    assert isinstance(M1.factors[0], Disk)
    assert M1.factors[0].radius == pytest.approx(0.5)
    assert M1.factors[0].center == 0.0


def test_exhaustion_nesting_and_inclusion():
    omega = DomainProduct([OpenDisk(0.5, 1.0), OpenRect(-1.0, 1.0, -2.0, 0.0)])
    for p in (1, 2, 3):
        Mp = exhaustion_M(omega, p)
        Mn = exhaustion_M(omega, p + 1)
        for f_small, f_big, dom in zip(Mp.factors, Mn.factors, omega.factors):
            for z in f_small.sample_boundary(n=64):
                assert f_big.contains(z, tol=1e-9)
                assert dom.contains(z)
    # every domain point is eventually captured
    rng = np.random.default_rng(3)
    for _ in range(25):
        pt = (0.5 + 0.95 * random_point(rng, 1, 1.0)[0],
              complex(rng.uniform(-0.99, 0.99), rng.uniform(-1.99, -0.01)))
        if not omega.contains(pt):
            continue
        assert any(exhaustion_M(omega, p).contains(pt) for p in range(1, 40))


def test_exhaustion_closure_variant():
    omega = DomainProduct([OpenDisk(0.0, 3.0)])
    M2 = exhaustion_M(omega, 2, closure_variant=True)
    assert isinstance(M2.factors[0], ClippedCompact)
    assert M2.factors[0].contains(1.99) and not M2.factors[0].contains(2.01)
    M4 = exhaustion_M(omega, 4, closure_variant=True)
    assert isinstance(M4.factors[0], Disk)       # closure already inside |z|<=4
    assert M4.factors[0].contains(2.99)


def test_domain_json_roundtrip():
    omega = DomainProduct([OpenDisk(1j, 2.0), OpenRect(0.0, 1.0, 0.0, 2.0)])
    back = DomainProduct.from_json(omega.to_json())
    assert back.dim == 2
    assert back.factors[0] == omega.factors[0]
    assert back.factors[1] == omega.factors[1]
    assert domain_from_json({"type": "open-disk", "center": [0, 0],
                             "radius": 1.0}) == OpenDisk(0.0, 1.0)


# ------------------------------------------------------- outer compacts


def test_outer_compact_ring_example():
    ann = outer_compacts(OpenDisk(0.0, 1.0), 2)
    assert ann.inner == pytest.approx(1.0)
    assert ann.outer == pytest.approx(2.0)
    assert ann.half_width == pytest.approx(8 * math.pi / 10)
    closure = outer_compacts(OpenDisk(0.0, 1.0), 2, closure_variant=True)
    assert closure.inner == pytest.approx(1.5)
    # the degenerate closure start keeps the ring nonempty
    j1 = outer_compacts(OpenDisk(0.0, 1.0), 1, closure_variant=True)
    assert j1.outer > j1.inner


def test_outer_compact_slit_rotates():
    angles = {round(outer_compacts(OpenDisk(0.0, 1.0), j).slit_angle, 9)
              for j in range(1, 33)}
    assert len(angles) >= 16
    # early members are narrow sectors; late members almost close the ring
    first = outer_compacts(OpenDisk(0.0, 1.0), 1)
    assert math.pi - first.half_width < math.pi / 8
    hws = [outer_compacts(OpenDisk(0.0, 1.0), j).half_width
           for j in (1, 4, 16, 64, 256)]
    assert hws == sorted(hws, reverse=True)
    assert hws[-1] < 0.1


def test_outer_compact_avoids_domain():
    for dom in (OpenDisk(0.3, 1.0), OpenRect(-1.0, 1.0, -1.0, 1.0)):
        for j in (1, 2, 5, 9):
            ann = outer_compacts(dom, j)
            for z in ann.sample_boundary(n=200):
                assert not dom.contains(z, tol=1e-9)


def test_enumerate_Tm_first_members():
    omega = DomainProduct([OpenDisk(0.0, 1.0), OpenDisk(0.0, 1.0)])
    T1 = enumerate_Tm(omega, 1)
    assert T1.disjoint_factor == 0
    assert isinstance(T1.factors[0], SlitAnnulus)
    assert T1.factors[1] == Disk(0.0, 1.0)
    T2 = enumerate_Tm(omega, 2)
    assert T2.disjoint_factor == 1
    assert isinstance(T2.factors[1], SlitAnnulus)
    # d = 1 collapses to the outer family itself
    line = DomainProduct([OpenDisk(0.0, 1.0)])
    for m in (1, 2, 7):
        Tm = enumerate_Tm(line, m)
        ref = outer_compacts(OpenDisk(0.0, 1.0), m)
        assert Tm.factors[0] == ref


def test_enumerate_Tm_disjointness():
    omega = DomainProduct([OpenDisk(0.0, 1.0), OpenRect(-1.0, 1.0, -1.0, 1.0)])
    for m in range(1, 30):
        T = enumerate_Tm(omega, m)
        i0 = T.disjoint_factor
        for z in T.factors[i0].sample_boundary(n=100):
            assert not omega.factors[i0].contains(z, tol=1e-9)


def test_cofinality_scan():
    omega = DomainProduct([OpenDisk(0.0, 1.0), OpenDisk(0.0, 1.0)])
    K = ProductCompact([Disk(3.0, 0.3), Disk(0.0, 2.5)], disjoint_factor=0)
    m = cofinality_index(omega, K)
    assert 1 <= m <= 10_000
    T = enumerate_Tm(omega, m)
    for col, f in zip([g.sample_boundary(n=150) for g in K.factors], T.factors):
        assert all(f.contains(z, tol=1e-9) for z in col)

    # a compact on the negative axis needs a differently-rotated slit
    K2 = ProductCompact([Segment(-4.0, -3.0), Disk(1j, 1.0)], disjoint_factor=0)
    m2 = cofinality_index(omega, K2)
    T2 = enumerate_Tm(omega, m2)
    assert all(T2.factors[0].contains(z) for z in K2.factors[0].sample_boundary(n=64))


def test_cofinality_one_factor():
    omega = DomainProduct([OpenDisk(0.0, 1.0)])
    K = ProductCompact([Arc(0.0, 2.0, 0.5, 1.5)], disjoint_factor=0)
    m = cofinality_index(omega, K)
    ann = enumerate_Tm(omega, m).factors[0]
    assert all(ann.contains(z) for z in K.factors[0].sample_boundary(n=64))


# ------------------------------------------------------------- utilities


def test_sup_norm_identity_on_circle():
    p = Poly.z_var(0, 0, 1)
    grid = ProductCompact([Disk(0.0, 1.0)]).sample(4)
    assert sup_norm(p, grid) == 1.0


def test_sup_norm_with_parameters():
    # |w * z| peaks at the product of the factor radii
    p = Poly.w_var(0, 1, 1) * Poly.z_var(0, 1, 1)
    zg = ProductCompact([Disk(0.0, 2.0)]).sample(n_per_factor=64)
    wg = ProductCompact([Disk(0.0, 3.0)]).sample(n_per_factor=64)
    assert sup_norm(p, zg, wg) == pytest.approx(6.0, rel=1e-9)


def test_center_grid_interior():
    omega = DomainProduct([OpenDisk(0.0, 1.0), OpenRect(0.0, 2.0, 0.0, 2.0)])
    M = exhaustion_M(omega, 2)
    pts = center_grid(M)
    assert len(pts) == 81
    for pt in pts:
        assert M.contains(pt, tol=1e-12)
        assert omega.contains(pt)


def test_center_grid_on_clipped_disk_factors():
    # a closure exhaustion clips a disk that pokes past |z| <= p; the
    # pattern then spans 0.6 of the room left inside the clip
    clipped = exhaustion_M(DomainProduct([OpenDisk(1.0, 1.5)]), 2,
                           closure_variant=True)
    assert isinstance(clipped.factors[0], ClippedCompact)
    assert center_grid(clipped) == [
        (0.4 - 0.6j,), (0.4 + 0j,), (0.4 + 0.6j,), (1 - 0.6j,), (1 + 0j,),
        (1 + 0.6j,), (1.6 - 0.6j,), (1.6 + 0j,), (1.6 + 0.6j,)]
    # a base center on the clip circle leaves no room: the center alone
    edge = exhaustion_M(DomainProduct([OpenDisk(2.0, 1.5)]), 2,
                        closure_variant=True)
    assert isinstance(edge.factors[0], ClippedCompact)
    assert center_grid(edge) == [(2.0,)]


def test_sampled_min_distance():
    a, b = Disk(0.0, 1.0), Disk(3.0, 0.5)
    dist = sampled_min_distance(a, b)
    assert dist == pytest.approx(1.5, abs=0.05)


def test_escape_through_slit():
    ann = SlitAnnulus(0.0, 1.0, 2.0, math.pi, 0.5)
    assert complement_escape([ann], probe=0.0)
    # two complementary slits close the ring and trap the probe
    other = SlitAnnulus(0.0, 1.0, 2.0, 0.0, 0.5)
    assert not complement_escape([ann, other], probe=0.0)
    assert complement_escape([ann, other], probe=3 + 3j)


def test_escape_for_every_outer_compact():
    dom = OpenDisk(0.0, 1.0)
    for j in (1, 2, 3, 6, 11):
        ann = outer_compacts(dom, j)
        assert complement_escape([ann], probe=0.0)

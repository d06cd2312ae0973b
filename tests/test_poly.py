"""Polynomial algebra against the naive oracles in util.py."""

import base64
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taylorlab import poly
from taylorlab.geometry import Disk, ProductCompact, Rectangle, SampleGrid
from taylorlab.multiindex import DiffOp, Enumeration, family_Fl
from taylorlab.poly import (Axis, Block, BlockSum, CoefficientStream, Ledger,
                            Poly, _as_grid, _nonzero, _recenter, eval_lanes,
                            gamma, gamma_poly, graded_columns, partial_sum)
from taylorlab.verify import sup_ops

from util import (
    coeff_norm,
    exact,
    exact_add,
    exact_distance,
    exact_mul,
    exact_powers,
    fd_derivative,
    isclose,
    oracle_eval,
    oracle_gamma,
    random_point,
    random_poly,
    rel_err,
)


# ------------------------------------------------------------ evaluation

def test_eval_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = random_poly(rng, 2, 2, max_deg=5, nterms=10)
        w = random_point(rng, 2)
        z = random_point(rng, 2)
        assert rel_err(p.eval(w, z), oracle_eval(p, w, z)) < 1e-12


def test_eval_is_one_point_of_eval_product():
    # one evaluator: a point value is the 1 x 1 product grid, bit for bit
    rng = np.random.default_rng(14)
    for r in range(3):
        for d in (1, 2):
            for _ in range(30):
                p = random_poly(rng, r, d, max_deg=11, nterms=12)
                w = random_point(rng, r)
                z = random_point(rng, d)
                got = p.eval(w, z)
                want = complex(p.eval_product([w], [z])[0, 0])
                assert (got.real.hex(), got.imag.hex()) == (
                    want.real.hex(), want.imag.hex())


def test_eval_points_and_product_match_oracle():
    rng = np.random.default_rng(12)
    p = random_poly(rng, 1, 2, max_deg=4, nterms=12)
    W = rng.uniform(-1, 1, (7, 1)) + 1j * rng.uniform(-1, 1, (7, 1))
    Z = rng.uniform(-1, 1, (9, 2)) + 1j * rng.uniform(-1, 1, (9, 2))
    grid = p.eval_product(W, Z)
    assert grid.shape == (7, 9)
    for i in range(7):
        for j in range(9):
            want = oracle_eval(p, tuple(W[i]), tuple(Z[j]))
            assert rel_err(grid[i, j], want) < 1e-12
    # one grid row at a time gives the same values as the whole grid
    rows = np.concatenate([p.eval_product(W[i:i + 1], Z) for i in range(7)])
    assert np.allclose(rows, grid, rtol=1e-12, atol=1e-14)


def test_eval_is_insertion_order_independent():
    # two assembly histories of the same poly must evaluate bit-identically,
    # or replayed certificates drift past their comparison window
    rng = np.random.default_rng(13)
    p = random_poly(rng, 1, 2, max_deg=6, nterms=20)
    q = Poly(p.r, p.d)
    q.terms = dict(reversed(list(p.terms.items())))
    w = random_point(rng, 1)
    z = random_point(rng, 2)
    assert p.eval(w, z) == q.eval(w, z)
    W = rng.uniform(-1, 1, (5, 1)) + 1j * rng.uniform(-1, 1, (5, 1))
    Z = rng.uniform(-1, 1, (6, 2)) + 1j * rng.uniform(-1, 1, (6, 2))
    assert np.array_equal(p.eval_product(W, Z), q.eval_product(W, Z))


def test_eval_r0():
    p = Poly(0, 1, {((), (3,)): 2.0})
    assert p.eval((), (2.0,)) == 16.0
    vals = p.eval_product(np.zeros((1, 0)), np.array([[1.0], [2.0]]))
    assert np.allclose(vals, [[2.0, 16.0]])


# float64 unit roundoff
U = 2.0 ** -53


def _degrees(p):
    """Per-coordinate maximal exponents over (w, z)."""
    return [max((we + ze)[a] for we, ze in p.terms) for a in range(p.r + p.d)]


def _check_eval_against_exact(p, W, Z):
    """|eval - exact| <= 4 (n + 1) u sum |c| |x|^e at every grid point, n
    the multiply-adds of the longest Horner path (the degrees added up)."""
    got = p.eval_product(W, Z)
    degs = _degrees(p)
    n = sum(degs)
    for i, w in enumerate(W):
        for j, z in enumerate(Z):
            x = tuple(w) + tuple(z)
            pows = [exact_powers(xa, e) for xa, e in zip(x, degs)]
            want, size = (Fraction(0), Fraction(0)), 0.0
            for (we, ze), c in p.terms.items():
                v, mag = exact(c), abs(c)
                for a, e in enumerate(we + ze):
                    v = exact_mul(v, pows[a][e])
                    mag *= abs(x[a]) ** e
                want, size = exact_add(want, v), size + mag
            assert exact_distance(got[i, j], want) <= 4 * (n + 1) * U * size


def test_horner_d1_degree_200_against_exact():
    rng = np.random.default_rng(15)
    p = Poly(0, 1, {((), (k,)): complex(*rng.standard_normal(2))
                    for k in range(201)})
    radii = np.repeat([0.3, 1.0, 2.0, 2.65], 3)
    Z = radii * np.exp(2j * np.pi * rng.uniform(size=radii.size))
    _check_eval_against_exact(p, np.zeros((1, 0)), Z.reshape(-1, 1))


def test_horner_d2_and_r1_against_exact():
    rng = np.random.default_rng(16)
    p = random_poly(rng, 0, 2, max_deg=14, nterms=80)
    Z = rng.uniform(-2, 2, (10, 2)) + 1j * rng.uniform(-2, 2, (10, 2))
    _check_eval_against_exact(p, np.zeros((1, 0)), Z)
    q = random_poly(rng, 1, 1, max_deg=20, nterms=60)
    W = rng.uniform(-1, 1, (3, 1)) + 1j * rng.uniform(-1, 1, (3, 1))
    Z = rng.uniform(-2, 2, (5, 1)) + 1j * rng.uniform(-2, 2, (5, 1))
    _check_eval_against_exact(q, W, Z)


# ------------------------------------------------------------ arithmetic

def test_ring_ops_small():
    z = Poly.monomial(0, 1, (), (1,))
    p = (z + 1) * (z - 1)
    assert p == z * z - 1
    assert (z ** 3).terms == {((), (3,)): 1.0 + 0j}
    assert (p - p).is_zero
    assert (2 * z).eval((), (3.0,)) == 6.0


def test_zero_coefficients_never_stored():
    z = Poly.monomial(0, 1, (), (1,))
    p = z + (-1.0) * z
    assert p.is_zero and p.terms == {}
    q = Poly(1, 1, {((1,), (0,)): 0.0})
    assert q.is_zero


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_mul_eval_homomorphism(np_seed_a, np_seed_b, seed):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, 1, 1, max_deg=3, nterms=4)
    q = random_poly(rng, 1, 1, max_deg=3, nterms=4)
    w = random_point(rng, 1)
    z = random_point(rng, 1)
    lhs = (p * q).eval(w, z)
    rhs = p.eval(w, z) * q.eval(w, z)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


# ------------------------------------------------------------ derivatives

def test_diff_matches_stepwise_oracle():
    rng = np.random.default_rng(21)
    from util import oracle_diff_once
    for _ in range(20):
        p = random_poly(rng, 1, 2, max_deg=5, nterms=8)
        op = DiffOp((1, 0, 2))
        got = p.diff(op)
        terms = dict(p.terms)
        terms = oracle_diff_once(terms, 0, 3)
        terms = oracle_diff_once(terms, 2, 3)
        terms = oracle_diff_once(terms, 2, 3)
        want = Poly(1, 2, terms)
        assert isclose(got, want, tol=1e-12)


def test_diff_matches_finite_differences():
    rng = np.random.default_rng(22)
    p = random_poly(rng, 1, 1, max_deg=5, nterms=10)
    w0, z0 = random_point(rng, 1), random_point(rng, 1)
    dz = p.diff(DiffOp((0, 1)))
    got = dz.eval(w0, z0)
    want = fd_derivative(lambda t: p.eval(w0, (t,)), z0[0])
    assert rel_err(got, want) < 1e-6
    dw = p.diff(DiffOp((1, 0)))
    got_w = dw.eval(w0, z0)
    want_w = fd_derivative(lambda t: p.eval((t,), z0), w0[0])
    assert rel_err(got_w, want_w) < 1e-6


def test_diff_identity_returns_self():
    p = Poly.monomial(1, 1, (0,), (1,))
    assert p.diff(DiffOp((0, 0))) is p


# ------------------------------------------------------------ recentering

def test_shift_center_eval_equivalence_100_random():
    rng = np.random.default_rng(31)
    for _ in range(100):
        r = int(rng.integers(0, 3))
        d = int(rng.integers(1, 4))
        p = random_poly(rng, r, d, max_deg=6, nterms=10)
        zeta = random_point(rng, d)
        q = p.shift_center(zeta)
        w = random_point(rng, r)
        y = random_point(rng, d)
        lhs = q.eval(w, y)
        rhs = p.eval(w, tuple(a + b for a, b in zip(y, zeta)))
        assert rel_err(lhs, rhs) < 1e-10


def test_shift_center_roundtrip():
    rng = np.random.default_rng(32)
    for _ in range(30):
        p = random_poly(rng, 1, 2, max_deg=6, nterms=10)
        zeta = random_point(rng, 2)
        back = p.shift_center(zeta).shift_center(tuple(-v for v in zeta))
        scale = max(1.0, coeff_norm(p))
        assert isclose(back, p, tol=1e-10 * scale)


def _check_shift_against_exact(p, zeta):
    """Each coefficient of p.shift_center(zeta) is within 4 (n + 1) u of the
    exact binomial expansion sum C(e, j) c zeta^(e - j), measured against
    the same sum in absolute values; n is the z-degrees added up."""
    got = p.shift_center(zeta).terms
    degs = _degrees(p)[p.r:]
    n = sum(degs)
    pows = [exact_powers(zt, e) for zt, e in zip(zeta, degs)]
    want: dict = {}
    for (we, ze), c in p.terms.items():
        for js in itertools.product(*(range(e + 1) for e in ze)):
            v, mag = exact(c), abs(c)
            for i, (e, j) in enumerate(zip(ze, js)):
                b = math.comb(e, j)
                v = exact_mul(v, pows[i][e - j])
                v = (b * v[0], b * v[1])
                mag *= b * abs(zeta[i]) ** (e - j)
            old, size = want.get((we, js), ((Fraction(0), Fraction(0)), 0.0))
            want[(we, js)] = (exact_add(old, v), size + mag)
    assert set(got) <= set(want)
    for key, (value, size) in want.items():
        assert exact_distance(got.get(key, 0j), value) <= 4 * (n + 1) * U * size


def test_shift_center_d1_against_exact_binomials():
    rng = np.random.default_rng(35)
    p = Poly(0, 1, {((), (k,)): complex(*rng.standard_normal(2))
                    for k in range(61)})
    for zeta in (0.7 + 0.4j, 2.65 * np.exp(2.1j), -1.0):
        _check_shift_against_exact(p, (zeta,))


def test_shift_center_many_lanes_against_exact_binomials():
    # r = 1, d = 2: each coordinate's shift runs over lanes of the other
    # exponents, and both coordinates move, or only one of them
    rng = np.random.default_rng(36)
    for _ in range(3):
        p = random_poly(rng, 1, 2, max_deg=9, nterms=40)
        zeta = tuple(complex(v) for v in rng.uniform(-2, 2, 2)
                     + 1j * rng.uniform(-2, 2, 2))
        for center in (zeta, (0, zeta[1]), (zeta[0], 0)):
            _check_shift_against_exact(p, center)
    # only w^0 and w^7 occur, so the dense array's lanes w^1..w^6 are all 0
    gappy = Poly(1, 2, {((we,), (a, b)): complex(*rng.standard_normal(2))
                        for we in (0, 7) for a in range(5) for b in range(4)
                        if (a + b + we) % 3})
    _check_shift_against_exact(gappy, (0.6 - 1.1j, -1.3 + 0.2j))


def test_shift_by_zero_is_bit_identical():
    rng = np.random.default_rng(33)
    p = random_poly(rng, 1, 2)
    assert p.shift_center((0, 0)) is p
    zero = Poly.zero(1, 2)
    assert zero.shift_center((1, 2j)) is zero


def test_shift_preserves_degree_box():
    rng = np.random.default_rng(34)
    for _ in range(20):
        p = random_poly(rng, 0, 2, max_deg=5, nterms=6)
        zeta = random_point(rng, 2)
        q = p.shift_center(zeta)
        assert q.z_degrees() == p.z_degrees()


# ------------------------------------------------------------ lane kernels
#
# Reference copies of the lane kernels as they were before they ran on
# contiguous rows and evaluated product grids factor by factor: the points
# repeated per lane, every Horner level on every point, and the shifted
# axis last.  The kernels must give the same bits.

def _reference_horner(C, cols, n, live):
    if not cols:
        return np.repeat(C[:, None], n, axis=1) if live else None
    z, rest = cols[0], cols[1:]
    slabs = C if rest else C.T[:, :, None]
    acc = None
    for k in reversed(range(C.shape[1])):
        if acc is not None:
            acc *= z
        if not _nonzero(live[k]):
            continue
        c = _reference_horner(C[:, k], rest, n, live[k]) if rest else slabs[k]
        if acc is None:
            acc = c if rest else np.repeat(c, n, axis=1)
        else:
            acc += c
    return acc


def _reference_eval_lanes(D, r, W, Z):
    W = _as_grid(W, r)
    Z = _as_grid(Z, D.ndim - 1 - r)
    lanes, n = D.shape[0], Z.shape[0]
    out = np.zeros((lanes, W.shape[0], n), dtype=complex)
    live = D.any(axis=0)
    if not live.any():
        return out
    cols = list(Z.T[:, None].repeat(lanes, axis=1))
    for we in itertools.product(*map(range, live.shape[:r])):
        zs = _reference_horner(D[(slice(None),) + we], cols, n,
                               live[we].tolist())
        if zs is None:
            continue
        wa = np.ones(W.shape[0], dtype=complex)
        for i, e in enumerate(we):
            if e:
                wa = wa * W[:, i] ** e
        out += wa[None, :, None] * zs[:, None, :]
    return out


def _reference_recenter(A, Z, first):
    for i in np.flatnonzero((Z != 0).any(axis=0)):
        ax = first + int(i)
        C = np.moveaxis(A, ax, -1)
        off = Z[:, i].reshape((-1,) + (1,) * (C.ndim - 1))
        n = C.shape[-1] - 1
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


def test_recenter_moving_every_axis_matches_the_reference_bit_for_bit():
    # each axis's shift reads the previous one's result while the call's
    # buffers serve every axis
    rng = np.random.default_rng(170)
    A = _lanes(rng, 4, (3, 7, 5, 4), 1)
    Z = rng.uniform(-2, 2, (4, 3)) + 1j * rng.uniform(-2, 2, (4, 3))
    _assert_same_bits(_recenter(A, Z, 2), _reference_recenter(A, Z, 2))


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert (np.ascontiguousarray(got).tobytes()
            == np.ascontiguousarray(want).tobytes())


def _grid(per_factor):
    """The SampleGrid of the given per-factor samples, whose lazily built
    points must be the product in np.meshgrid's "ij" order."""
    per_factor = [np.asarray(a, dtype=complex) for a in per_factor]
    grid = SampleGrid(per_factor)
    mesh = np.meshgrid(*per_factor, indexing="ij")
    _assert_same_bits(grid.points,
                      np.stack([m.reshape(-1) for m in mesh], axis=1))
    assert len(grid) == len(grid.points)
    return grid


def _lanes(rng, lanes, shape, r, flat=None):
    """Random dense lanes over a joint box, with zero slabs on each z-axis:
    its slab 1 in the first half of the lanes only, and the top slab of
    the first z-axis in every lane, so a Horner level starts below its
    top.  On z-axis `flat` every slab past 0 is zero in every lane, so
    that level hands back the values of the levels inside it alone."""
    D = rng.standard_normal((lanes, *shape)) + 1j * rng.standard_normal(
        (lanes, *shape))
    for i in range(len(shape) - r):
        axis = (slice(None),) * (r + i)
        D[(slice(lanes // 2),) + axis + (1,)] = 0
        if i == 0:
            D[(slice(None),) + axis + (-1,)] = 0
        if i == flat:
            D[(slice(None),) + axis + (slice(1, None),)] = 0
    return D


def _samples(rng, sizes):
    return [rng.uniform(-1.5, 1.5, m) + 1j * rng.uniform(-1.5, 1.5, m)
            for m in sizes]


# per-factor sample counts, some factors of a single point
SAMPLE_SIZES = {1: [(9,), (1,)], 2: [(7, 6), (1, 4), (5, 1)],
                3: [(7, 6, 5), (1, 4, 3), (5, 1, 4)]}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1])
def test_eval_lanes_matches_the_reference_kernel_bit_for_bit(r, d):
    rng = np.random.default_rng(100 + 10 * d + r)
    shape = (3,) * r + (6, 5, 4)[:d]
    W = _samples(rng, [4])[0].reshape(4, 1) if r else None
    flats = [None] + ([d - 2] if d > 1 else [])
    for D in [_lanes(rng, 5, shape, r, flat) for flat in flats]:
        for sizes in SAMPLE_SIZES[d]:
            grid = _grid(_samples(rng, sizes))
            want = _reference_eval_lanes(D, r, W, grid.points)
            _assert_same_bits(eval_lanes(D, r, W, grid), want)
            _assert_same_bits(eval_lanes(D, r, W, grid.points), want)
    # no live lane at all
    _assert_same_bits(eval_lanes(0 * D, r, W, grid),
                      _reference_eval_lanes(0 * D, r, W, grid.points))


@pytest.mark.parametrize("d", [2, 3])
def test_eval_lanes_on_a_grid_is_eval_lanes_on_its_points(d):
    rng = np.random.default_rng(130 + d)
    factors = [Disk(0.2, 1.3), Rectangle(-1.0, 0.5, -0.7, 0.9),
               Disk(-0.4j, 0.8)][:d]
    grid = ProductCompact(factors).sample(n_per_factor=12 if d == 2 else 6)
    for r in (0, 1):
        D = _lanes(rng, 4, (2,) * r + (9, 7, 5)[:d], r)
        W = ProductCompact([Disk(0.0, 0.7)] * r).sample(n_per_factor=8)
        _assert_same_bits(eval_lanes(D, r, W, grid),
                          eval_lanes(D, r, W, grid.points))


@pytest.mark.parametrize("bad", [np.inf, -np.inf + 1j, np.nan])
def test_eval_lanes_keeps_a_non_finite_coordinate_as_the_reference(bad):
    rng = np.random.default_rng(140)
    D = _lanes(rng, 3, (5, 4), 0)
    per_factor = [rng.uniform(-1, 1, 6) + 0j, rng.uniform(-1, 1, 5) + 0j]
    per_factor[1][2] = bad
    grid = _grid(per_factor)
    with np.errstate(all="ignore"):
        got = eval_lanes(D, 0, None, grid)
        want = _reference_eval_lanes(D, 0, None, grid.points)
    assert not np.isfinite(got).all()
    _assert_same_bits(got, want)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1])
def test_recenter_matches_the_reference_kernel_bit_for_bit(r, d):
    rng = np.random.default_rng(150 + 10 * d + r)
    A = _lanes(rng, 6, (3,) * r + (7, 5, 4)[:d], r)
    Z = rng.uniform(-2, 2, (6, d)) + 1j * rng.uniform(-2, 2, (6, d))
    Z[:2, 0] = 0                  # some lanes stay put on a moving axis
    if d > 1:
        Z[:, 1] = 0               # an axis no lane moves is skipped
    for lanes in (A, np.broadcast_to(A[0], A.shape)):
        _assert_same_bits(_recenter(lanes, Z, 1 + r),
                          _reference_recenter(lanes, Z, 1 + r))


# ------------------------------------------------------------ gamma

def test_gamma_matches_raw_factorial_oracle():
    rng = np.random.default_rng(41)
    for _ in range(40):
        f = random_poly(rng, 1, 2, max_deg=5, nterms=8)
        w = random_point(rng, 1)
        zeta = random_point(rng, 2)
        m = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        got = gamma(f, w, zeta, m)
        want = oracle_gamma(f, w, zeta, m)
        assert rel_err(got, want) < 1e-10


def test_gamma_matches_shift_extraction():
    rng = np.random.default_rng(42)
    for _ in range(30):
        f = random_poly(rng, 1, 1, max_deg=6, nterms=8)
        zeta = random_point(rng, 1)
        w = random_point(rng, 1)
        q = f.shift_center(zeta)
        for m in range(7):
            coeff = sum(c * complex(w[0]) ** we[0]
                        for (we, ze), c in q.terms.items() if ze == (m,))
            assert abs(gamma(f, w, zeta, (m,)) - coeff) <= 1e-10 * max(
                1.0, coeff_norm(f))


def test_gamma_linearity():
    rng = np.random.default_rng(43)
    for _ in range(30):
        f = random_poly(rng, 1, 2, max_deg=4, nterms=6)
        g = random_poly(rng, 1, 2, max_deg=4, nterms=6)
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        w = random_point(rng, 1)
        zeta = random_point(rng, 2)
        m = (1, 2)
        lhs = gamma(a * f + b * g, w, zeta, m)
        rhs = a * gamma(f, w, zeta, m) + b * gamma(g, w, zeta, m)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_gamma_perturbation_bound():
    # gamma is linear, so a coefficient perturbation of size delta moves
    # gamma by at most delta times a computable structure constant
    rng = np.random.default_rng(44)
    f = random_poly(rng, 0, 1, max_deg=6, nterms=6)
    g = random_poly(rng, 0, 1, max_deg=6, nterms=6)
    g = g * (1.0 / max(1.0, coeff_norm(g)))
    delta = 1e-8
    zeta = (0.3 + 0.1j,)
    m = (2,)
    import math
    bound = delta * sum(
        abs(c) * math.comb(ze[0], m[0]) * abs(zeta[0]) ** (ze[0] - m[0])
        for (_, ze), c in g.terms.items() if ze[0] >= m[0])
    moved = abs(gamma(f + delta * g, (), zeta, m) - gamma(f, (), zeta, m))
    assert moved <= bound + 1e-15


def test_gamma_poly_symbolic_in_w():
    f = Poly(1, 1, {((1,), (2,)): 3.0, ((0,), (2,)): 1.0, ((2,), (0,)): 5.0})
    gp = gamma_poly(f, (0.0,), (2,))
    assert gp.r == 1 and gp.d == 0
    # 3*w + 1 expected
    assert isclose(gp, Poly(1, 0, {((1,), ()): 3.0, ((0,), ()): 1.0}),
                   tol=1e-14)


# ------------------------------------------------------------ partial sums

def test_partial_sum_capture_returns_same_object():
    rng = np.random.default_rng(51)
    enum = Enumeration(2, "graded-lex")
    for _ in range(20):
        f = random_poly(rng, 1, 2, max_deg=4, nterms=8)
        if f.is_zero:
            continue
        nprime = enum.capture_index(f.z_degrees())
        centers = [random_point(rng, 2), (0.0, 0.0)]
        assert all(s is f for s in partial_sum(f, centers, nprime, enum))


def test_partial_sum_below_capture_differs_when_corner_nonzero():
    enum = Enumeration(2, "graded-lex")
    f = Poly(0, 2, {((), (1, 1)): 2.0, ((), (0, 0)): 1.0})
    nprime = enum.capture_index((1, 1))
    assert nprime == 4
    (s,) = partial_sum(f, [(0.0, 0.0)], nprime - 1, enum)
    assert s != f
    assert s == Poly(0, 2, {((), (0, 0)): 1.0})


def test_partial_sum_nested_refinement_at_origin():
    rng = np.random.default_rng(52)
    enum = Enumeration(2, "graded-lex")
    f = random_poly(rng, 0, 2, max_deg=3, nterms=12)
    (prev,) = partial_sum(f, [(0, 0)], 0, enum)
    for n in range(1, enum.capture_index(f.z_degrees()) + 1):
        (cur,) = partial_sum(f, [(0, 0)], n, enum)
        delta = cur - prev
        zexps = {ze for (_, ze) in delta.terms}
        assert len(zexps) <= 1
        if zexps:
            assert zexps == {enum.unrank(n)}
        prev = cur


def test_partial_sum_zero_center_is_rank_filter():
    enum = Enumeration(1, "graded-lex")
    f = Poly(0, 1, {((), (0,)): 1.0, ((), (2,)): -3.0, ((), (5,)): 2.0})
    (s,) = partial_sum(f, [(0.0,)], 3, enum)
    assert s == Poly(0, 1, {((), (0,)): 1.0, ((), (2,)): -3.0})


@pytest.mark.parametrize("scheme", ["graded-lex", "graded-revlex"])
def test_partial_sum_keeps_exactly_the_ranks_up_to_n(scheme):
    # partial_sum ranks only the cut's degree block; the kept terms must be
    # those a rank test on every re-centered term keeps
    rng = np.random.default_rng(52)
    enum = Enumeration(2, scheme)
    f = random_poly(rng, 1, 2, max_deg=5, nterms=25)
    zeta = random_point(rng, 2)
    shifted = f.shift_center(zeta)
    for n in range(enum.capture_index(f.z_degrees())):
        g = Poly(f.r, f.d)
        g.terms = {k: c for k, c in shifted.terms.items()
                   if enum.rank(k[1]) <= n}
        want = g.shift_center(tuple(-v for v in zeta))
        assert partial_sum(f, [zeta], n, enum) == [want]


def test_partial_sum_value_against_naive_series():
    from util import oracle_partial_sum_value
    rng = np.random.default_rng(53)
    enum = Enumeration(1, "graded-lex")
    for _ in range(10):
        f = random_poly(rng, 1, 1, max_deg=5, nterms=6)
        centers = [random_point(rng, 1, radius=0.5) for _ in range(3)]
        w = random_point(rng, 1)
        z = random_point(rng, 1, radius=0.5)
        for n in (0, 2, 4):
            for zeta, s in zip(centers, partial_sum(f, centers, n, enum)):
                got = s.eval(w, z)
                want = oracle_partial_sum_value(f, w, zeta, z, n, enum)
                assert abs(got - want) <= 1e-9 * max(
                    1.0, abs(want), coeff_norm(f))


def _reference_partial_sum(f, zeta, n, enum):
    """The single-center algorithm: shift the sparse terms to zeta, keep the
    ranks <= n, shift back; f itself when nothing is dropped."""
    if f.is_zero or n >= enum.capture_index(f.z_degrees()):
        return f
    shifted = f.shift_center(zeta)
    kept = {k: c for k, c in shifted.terms.items() if enum.rank(k[1]) <= n}
    if len(kept) == len(shifted.terms):
        return f
    g = Poly(f.r, f.d)
    g.terms = kept
    return g.shift_center(tuple(-v for v in zeta))


def _bits(p):
    return {k: (c.real.hex(), c.imag.hex()) for k, c in p.terms.items()}


def _assert_matches_reference(f, centers, n, enum):
    got = partial_sum(f, centers, n, enum)
    assert len(got) == len(centers)
    for zeta, s in zip(centers, got):
        want = _reference_partial_sum(f, zeta, n, enum)
        if want is f:
            assert s is f
        else:
            assert s is not f and _bits(s) == _bits(want)


def _batch_cases():
    rng = np.random.default_rng(54)
    corner = Poly(0, 2, {((), (2, 1)): 1.0, ((), (0, 0)): 0.5})
    for f in (random_poly(rng, 0, 1, max_deg=9, nterms=8),
              random_poly(rng, 0, 2, max_deg=5, nterms=14),
              random_poly(rng, 1, 2, max_deg=4, nterms=16),
              random_poly(rng, 1, 1, max_deg=7, nterms=10),
              corner):
        zeta = random_point(rng, f.d)
        centers = [zeta, random_point(rng, f.d), (0.0,) * f.d]
        if f.d == 2:
            centers += [(zeta[0], 0.0), (0.0, zeta[1])]
        yield f, centers


def test_batched_partial_sum_matches_single_center_reference():
    # centers 0 on one axis and all-zero share a pass with moving lanes;
    # n runs to capture and past it
    for scheme in ("graded-lex", "graded-revlex"):
        for f, centers in _batch_cases():
            enum = Enumeration(f.d, scheme)
            cap = enum.capture_index(f.z_degrees())
            for n in range(cap + 2):
                _assert_matches_reference(f, centers, n, enum)


def test_batched_partial_sum_lane_with_nothing_dropped_is_f():
    # z1^2 + z2^2 re-centers to total degree 2 about every center, so in
    # either graded order a cut after the last degree-2 rank drops nothing
    # though the degree box (2, 2) reaches rank 12
    f = Poly(0, 2, {((), (2, 0)): 1.0, ((), (0, 2)): -1.0})
    centers = [(0.7 - 0.2j, 1.1j), (0.0, 0.4), (0.0, 0.0)]
    for scheme in ("graded-lex", "graded-revlex"):
        enum = Enumeration(2, scheme)
        n = max(enum.rank(e) for e in ((2, 0), (1, 1), (0, 2)))
        assert n < enum.capture_index(f.z_degrees()) == 12
        assert all(s is f for s in partial_sum(f, centers, n, enum))
        _assert_matches_reference(f, centers, n, enum)
        _assert_matches_reference(f, centers, n - 1, enum)


def test_batched_partial_sum_chunks_by_max_dense(monkeypatch):
    import taylorlab.poly as poly_mod
    for f, centers in _batch_cases():
        enum = Enumeration(f.d, "graded-lex")
        n = enum.capture_index(f.z_degrees()) // 2
        whole = partial_sum(f, centers, n, enum)
        size = math.prod(_degrees(f)[i] + 1 for i in range(f.r + f.d))
        # two lanes a chunk, then one lane a chunk
        for cap in (2 * size, size):
            monkeypatch.setattr(poly_mod, "MAX_DENSE", cap)
            chunked = partial_sum(f, centers, n, enum)
            monkeypatch.undo()
            assert [s is f for s in chunked] == [s is f for s in whole]
            assert [_bits(s) for s in chunked] == [_bits(s) for s in whole]
        _assert_matches_reference(f, centers, n, enum)


# ------------------------------------------------------------ streams

def _power_axis(degree):
    """The basis q_k = t^(start + k), t = y: Arnoldi's on a circle about
    the center, H[k + 1, k] = 1 and nothing else."""
    H = np.zeros((degree + 1, degree))
    H[np.arange(1, degree + 1), np.arange(degree)] = 1.0
    return Axis(1.0, 1.0, H)


def _block(coefs, e=0, center=(0.0,)):
    """A d = 1 block sum_k coefs[k] (z - center)^(e + k)."""
    degree = len(coefs) - 1
    return Block(0, center, (0, e), degree, [_power_axis(degree)], coefs)


def _random_block(rng, r, center, divisor, budget):
    """A block with random Hessenberg matrices (positive subdiagonal) and
    random coefficients, in r + len(center) axes."""
    def axis():
        H = np.triu(rng.normal(size=(budget + 1, budget))
                    + 1j * rng.normal(size=(budget + 1, budget)), -1)
        H[np.arange(1, budget + 1), np.arange(budget)] = rng.uniform(
            0.5, 1.5, budget)
        return Axis(rng.uniform(1, 3), rng.uniform(0.5, 2), 0.2 * H)
    axes = [axis() for _ in range(r + len(center))]
    n = len(graded_columns([budget] * len(axes), budget))
    return Block(r, center, divisor, budget, axes,
                 rng.normal(size=n) + 1j * rng.normal(size=n))


def _counting_recurrence(monkeypatch, block):
    """Patch poly.recur_rows to record (axis, order) for every order each
    call fills, the axis None off the block's axes; returns the record."""
    filled, recur = [], poly.recur_rows

    def counted(R, t, scale, H, k0, k1, first=0):
        j = next((j for j, ax in enumerate(block.axes) if ax.H is H), None)
        filled.extend((j, o) for o in range(first, len(R)))
        return recur(R, t, scale, H, k0, k1, first)

    monkeypatch.setattr(poly, "recur_rows", counted)
    return filled


@pytest.mark.parametrize("order", [1, 2])
def test_rows_through_a_higher_order_equal_fresh_rows_bit_for_bit(
        order, monkeypatch):
    def make():
        return _random_block(np.random.default_rng(5), 1, (0.2, 0.0),
                             (0, 3), 6)
    x = np.random.default_rng(6).normal(size=9) + 0.5j
    block = make()
    filled = _counting_recurrence(monkeypatch, block)
    for j in range(3):                        # the w axis, then z_i0, z_1
        low = block.rows(j, x, 0)
        filled.clear()
        high = block.rows(j, x, order)
        # the cached set keeps its arrays and gains only orders 1..order
        assert filled == [(j, o) for o in range(1, order + 1)]
        fresh = make().rows(j, x, order)
        assert len(low) == 1 and len(high) == len(fresh) == order + 1
        assert high[0] is low[0]
        for a, b in zip(high, fresh):
            _assert_same_bits(a, b)
        assert not any(M.flags.writeable for M in high)


def test_sup_ops_fills_each_axis_and_order_once(monkeypatch):
    block = _random_block(np.random.default_rng(7), 1, (0.2,), (0, 2), 5)
    delta = BlockSum(Poly.zero(1, 1), [block])
    wg = ProductCompact([Rectangle(-0.5, 0.5, -0.25, 0.25)]).sample(16)
    zg = ProductCompact([Disk(0.0, 0.5)]).sample(24)
    filled = _counting_recurrence(monkeypatch, block)
    # the ops (0, 1) and (1, 0) raise the axes' orders in turn
    sup_ops(delta, zg, wg, family_Fl(1, 1, 1))
    assert sorted(filled) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def _no_recurrence(*args):
    raise AssertionError("rows() ran a recurrence for a cached set")


def test_rows_keep_a_cached_set_and_every_set_they_fill(monkeypatch):
    block = _random_block(np.random.default_rng(9), 0, (0.0,), (0, 2), 5)
    rng = np.random.default_rng(10)
    sets = [rng.normal(size=7) + 1j * rng.normal(size=7)
            for _ in range(2 * poly.ROWS_KEPT)]
    kept = block.rows(0, sets[0], 1)
    for x in sets[1:poly.ROWS_KEPT]:
        block.rows(0, x, 0)
    # the oldest entry moves to the newest end, so the new sets evict the
    # others
    fill = sets[:1] + sets[poly.ROWS_KEPT + 1:]
    assert len(fill) == poly.ROWS_KEPT
    filled = [block.rows(0, x, 1) for x in fill]
    assert filled[0] is kept
    monkeypatch.setattr(poly, "recur_rows", _no_recurrence)
    assert block.rows(0, sets[0], 1) is kept
    for x, R in zip(fill, filled):
        assert block.rows(0, x, 1) is R
        assert not any(M.flags.writeable for M in R)
    # the sets filled through order 0 alone were evicted
    calls = []
    monkeypatch.setattr(poly, "recur_rows", lambda *args: calls.append(args))
    block.rows(0, sets[1], 0)
    assert len(calls) == 1


def _random_stream(rng, center, r=1, budgets=(2, 3, 1)):
    """Blocks on alternating divisor axes, each at the stream's least
    divisor exponent, with n_max s past lambda's floor."""
    stream = CoefficientStream(Enumeration(len(center), "graded-lex"),
                               center, r)
    for s, budget in enumerate(budgets):
        block = _random_block(rng, r, center,
                              (s % len(center), stream.next_exponent), budget)
        stream.append_block(f"s{s}", block,
                            stream.ledger_with(block).floor + s)
    return stream


def test_stream_roundtrip_polynomial():
    enum = Enumeration(1, "graded-lex")
    stream = CoefficientStream(enum, (0.0,), 0)
    stream.append_block("s1", _block([1.0, 0.0, -2.0]), n_max=2)
    p = stream.poly()
    assert p == Poly(0, 1, {((), (0,)): 1.0, ((), (2,)): -2.0})
    assert stream.partial_sum(1) == Poly(0, 1, {((), (0,)): 1.0})


def test_stream_empty_is_zero():
    enum = Enumeration(2, "graded-lex")
    stream = CoefficientStream(enum, (0.0, 0.0), 1)
    assert stream.poly().is_zero
    assert stream.frontier == -1


def test_stream_frozen_prefix_bit_identical():
    enum = Enumeration(1, "graded-lex")
    stream = CoefficientStream(enum, (0.0,), 0)
    stream.append_block("s1", _block([1.5, 2.5]), n_max=3)
    before = stream.partial_sum(3)
    snapshot = stream.to_json()["blocks"][0]
    stream.append_block("s2", _block([-1.0], e=5), n_max=5)
    after = stream.partial_sum(3)
    assert before == after
    assert stream.to_json()["blocks"][0] == snapshot
    # the view of a block is exactly 0 below its divisor power
    assert min(ze[0] for _, ze in stream.blocks[1].block.taylor().terms) == 5


def test_stream_rejects_frozen_overlap():
    enum = Enumeration(1, "graded-lex")
    stream = CoefficientStream(enum, (0.0,), 0)
    stream.append_block("s1", _block([1.0]), n_max=2)
    # the divisor exponent must pass the total degree 2 at the frontier
    with pytest.raises(ValueError, match="does not pass the total degree"):
        stream.append_block("s2", _block([1.0], e=2), n_max=4)
    with pytest.raises(ValueError, match="n_max"):
        stream.append_block("s2", _block([1.0], e=4), n_max=3)
    with pytest.raises(ValueError, match="n_max"):
        stream.append_block("s2", _block([0.0], e=3), n_max=2)
    with pytest.raises(ValueError, match="r = 0, d = 1"):
        stream.append_block("s2", Block(0, (0.0, 0.0), (0, 4), 0,
                                        [_power_axis(0)] * 2, [1.0]), 20)
    with pytest.raises(ValueError, match="center"):
        stream.append_block("s2", _block([1.0], e=4, center=(0.1,)), 4)


def test_stream_ledger_takes_the_joint_degree_box():
    # d = 2: block 1 spans z1^0..z1^2 and block 2 is z2^3; their joint
    # degree box (2, 3) captures at a rank past both blocks' own boxes
    enum = Enumeration(2, "graded-lex")
    stream = CoefficientStream(enum, (0.0, 0.0), 0)
    assert stream.next_exponent == 0
    first = Block(0, (0.0, 0.0), (0, 0), 2, [_power_axis(2), _power_axis(0)],
                  [1.0, 2.0, 3.0])
    stream.append_block("s1", first, stream.ledger_with(first).floor)
    assert stream.ledger == Ledger((2, 0), enum.rank((2, 0)),
                                   enum.rank((2, 0)), 2, 3)
    # the total degree at the frontier is 2
    assert stream.next_exponent == 3
    second = Block(0, (0.0, 0.0), (1, 3), 0, [_power_axis(0)] * 2, [1.0])
    joint = enum.capture_index((2, 3))
    assert joint > enum.capture_index((0, 3)) > enum.capture_index((2, 0))
    assert stream.ledger_with(second) == Ledger((2, 3), joint, joint, 3, 4)
    # an n_max that covers block 2's own box but not the joint one
    own = enum.capture_index((0, 3))
    with pytest.raises(ValueError, match=f"^n_max {own} is below lambda's "
                       f"floor {joint}$"):
        stream.append_block("s2", second, own)
    stream.append_block("s2", second, joint)
    back = CoefficientStream.from_json(json.loads(json.dumps(
        stream.to_json())))
    assert [b.ledger for b in back.blocks] == [b.ledger
                                              for b in stream.blocks]


def test_stream_partial_sum_beyond_frontier_errors():
    enum = Enumeration(1, "graded-lex")
    stream = CoefficientStream(enum, (0.0,), 0)
    stream.append_block("s1", _block([1.0]), n_max=1)
    with pytest.raises(IndexError):
        stream.partial_sum(2)


def test_stream_nonzero_center():
    enum = Enumeration(1, "graded-lex")
    stream = CoefficientStream(enum, (0.5,), 0)
    stream.append_block("s1", _block([1.0], e=1, center=(0.5,)), n_max=1)
    # f(z) = (z - 0.5)
    p = stream.poly()
    assert isclose(p, Poly(0, 1, {((), (1,)): 1.0, ((), (0,)): -0.5}),
                   tol=1e-14)


def test_stream_json_roundtrip():
    # d = 2, r = 1: every block array goes through JSON as its bytes, so
    # the round trip is bit-identical, and so are the values on a grid
    rng = np.random.default_rng(29)
    stream = _random_stream(rng, (0.0, 0.1 - 0.2j))
    data = stream.to_json()
    back = CoefficientStream.from_json(json.loads(json.dumps(data)))
    assert back.to_json() == data
    assert back.enum == stream.enum and back.center == stream.center
    for a, b in zip(stream.blocks, back.blocks, strict=True):
        assert a.block.coefs.tobytes() == b.block.coefs.tobytes()
        for ax, bx in zip(a.block.axes, b.block.axes, strict=True):
            assert ax.H.tobytes() == bx.H.tobytes()
    # packed Hessenberg entries run H[0..k+1, k], k = 0, 1, ..
    H = stream.blocks[0].block.axes[0].H
    assert H.shape[1] >= 2
    packed = base64.b64decode(data["blocks"][0]["axes"][0]["hessenberg"])
    assert packed == np.concatenate([H[:k + 2, k]
                                     for k in range(H.shape[1])]).tobytes()
    axes = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in (3, 4, 5)]
    for a, b in zip(stream.blocks, back.blocks):
        assert np.array_equal(a.block.values(axes, (1, 0, 1)),
                              b.block.values(axes, (1, 0, 1)))
    assert back.poly() == stream.poly()


def test_stream_refuses_other_formats():
    rng = np.random.default_rng(31)
    data = _random_stream(rng, (0.0,), r=0).to_json()
    # a v3 stream: no format, one Taylor polynomial per block
    v3 = dict(data, blocks=[{"stage": b["stage"], "n_max": b["n_max"],
                             "poly": {"r": 0, "d": 1, "terms": []}}
                            for b in data["blocks"]])
    del v3["format"]
    with pytest.raises(ValueError, match="re-run construct"):
        CoefficientStream.from_json(v3)
    with pytest.raises(ValueError, match="re-run construct"):
        CoefficientStream.from_json(dict(data, format="taylorlab-stream-v4"))
    # a block's keys are fixed; its Hessenberg matrices live in its axes
    for key, value in (("poly", []), ("hessenberg", "")):
        bad = json.loads(json.dumps(data))
        bad["blocks"][0][key] = value
        with pytest.raises(ValueError, match="exactly the keys"):
            CoefficientStream.from_json(bad)


def test_stream_json_keeps_signed_zeros():
    # -0.0 in a Hessenberg matrix and in the coefs comes back as -0.0;
    # the entries below H[k + 1, k] are not stored, and load as 0.0
    H = np.where(np.tri(4, 3, -2, dtype=bool), 0.0, -_power_axis(3).H)
    block = Block(0, (0.0,), (0, 0), 3, [Axis(1.0, 1.0, H)],
                  [-0.0, complex(0.0, -0.0), 1.0, complex(-0.0, -0.0)])
    stream = CoefficientStream(Enumeration(1, "graded-lex"), (0.0,), 0)
    stream.append_block("s1", block, n_max=3)
    back = CoefficientStream.from_json(json.loads(json.dumps(
        stream.to_json()))).blocks[0].block
    assert np.signbit(back.axes[0].H.real).sum() == 9
    assert back.axes[0].H.tobytes() == H.astype(complex).tobytes()
    assert back.coefs.tobytes() == block.coefs.tobytes()


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.3 + 0.1j, -0.2j)])
def test_stream_partial_sum_cuts_inside_blocks(center):
    # d = 2, r = 1: three blocks, each n_max past its degree box, so cuts
    # fall between blocks, inside them and on empty ranks
    rng = np.random.default_rng(83)
    stream = _random_stream(rng, center)
    enum = stream.enum
    back = CoefficientStream.from_json(json.loads(json.dumps(stream.to_json())))
    for n in range(stream.frontier + 1):
        want = Poly(1, 2)
        want.terms = {k: c for b in stream.blocks
                      for k, c in b.block.taylor().terms.items()
                      if enum.rank(k[1]) <= n}
        want = want.shift_center(tuple(-v for v in center))
        assert _bits(stream.partial_sum(n)) == _bits(want)
        assert _bits(back.partial_sum(n)) == _bits(want)


def test_poly_json_roundtrip():
    # r = 0, 1 and 2, from the object and from its JSON text; to_json sorts
    # the terms, and from_json keeps a file's order
    rng = np.random.default_rng(61)
    for r, d in ((0, 1), (1, 2), (2, 1)):
        p = random_poly(rng, r, d, max_deg=5, nterms=9)
        for doc in (p.to_json(), json.loads(json.dumps(p.to_json()))):
            back = Poly.from_json(doc)
            assert back == p and list(back.terms) == sorted(p.terms)
    # written by hand: integer coefficients, a zero term, terms out of order
    back = Poly.from_json(json.loads(json.dumps({"r": 0, "d": 1, "terms": [
        {"w_exp": [], "z_exp": [2], "re": 1, "im": 0},
        {"w_exp": [], "z_exp": [0], "re": 0, "im": 0.0},
        {"w_exp": [], "z_exp": [1], "re": -0.5, "im": 2}]})))
    assert list(back.terms.items()) == [(((), (2,)), 1 + 0j),
                                        (((), (1,)), -0.5 + 2j)]

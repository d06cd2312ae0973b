"""Gluing-fit tests: exact reproduction, the two-disk indicator demo,
divisor constraints and derivative matching."""

import math

import numpy as np
import pytest

from taylorlab.geometry import Disk, GridSizeError, ProductCompact, Rectangle
from taylorlab.mergelyan import ApproxTask, FitResult, fit, glue_target
from taylorlab.multiindex import DiffOp, family_Fl
from taylorlab.poly import Poly

from util import random_point, random_poly


def _disk_piece(center, radius, target):
    return (ProductCompact([Disk(center, radius)]), target)


def two_disk_task(budgets=(10, 20, 40, 60), tol=1e-3, **kw):
    zero = Poly.zero(0, 1)
    one = Poly.constant(1.0, 0, 1)
    return glue_target(
        [_disk_piece(0.0, 0.5, zero), _disk_piece(2.0, 0.25, one)],
        i0=0, budgets=list(budgets), tolerance=tol, **kw)


# -------------------------------------------------------- reproduction


def test_exact_reproduction_single_piece():
    rng = np.random.default_rng(11)
    for _ in range(8):
        g = random_poly(rng, 0, 1, max_deg=7, nterms=5)
        task = ApproxTask([_disk_piece(0.3, 1.2, g)], [8], tolerance=1e-8)
        res = fit(task)
        assert res.converged
        pts = np.array(random_point(rng, 40, 1.0)).reshape(-1, 1) + 0.3
        W = np.zeros((1, 0))
        vals = res.poly.eval_product(W, pts) - g.eval_product(W, pts)
        scale = 1 + max(abs(g.eval((), (z[0],))) for z in pts)
        assert np.abs(vals).max() <= 1e-9 * scale


def test_exact_reproduction_two_pieces_same_target():
    rng = np.random.default_rng(5)
    g = random_poly(rng, 0, 1, max_deg=5, nterms=4)
    task = glue_target([_disk_piece(0.0, 0.5, g), _disk_piece(2.0, 0.25, g)],
                       i0=0, budgets=[5], tolerance=1e-8)
    res = fit(task)
    assert res.residual <= 1e-9 * (1 + g.coeff_norm())


def test_exact_reproduction_parameterized():
    # w z is inside every budget >= 2 basis
    g = Poly.w_var(0, 1, 1) * Poly.z_var(0, 1, 1)
    task = ApproxTask([(ProductCompact([Disk(0.0, 1.0)]), g)], [2, 4],
                      tolerance=1e-9, r=1,
                      w_compact=ProductCompact([Disk(0.0, 0.5)]))
    res = fit(task)
    assert res.converged and res.budget == 2
    assert res.residual <= 1e-9


# ------------------------------------------------------------ the demo


def test_two_disk_indicator_demo():
    res = fit(two_disk_task())
    assert res.converged
    assert res.residual < 1e-3
    budgets = [b for b, _ in res.residual_history]
    errs = [e for _, e in res.residual_history]
    assert budgets == sorted(budgets)
    # more degrees of freedom never hurt much on this geometry
    for a, b in zip(errs, errs[1:]):
        assert b <= a * 1.2
    assert errs[-1] < errs[0]


def test_two_disk_piece_residuals_cover_both():
    res = fit(two_disk_task())
    assert len(res.piece_residuals) == 2
    assert max(res.piece_residuals) == pytest.approx(res.residual)


def test_budget_exhaustion_reports_best():
    res = fit(two_disk_task(budgets=(2, 4), tol=1e-6))
    assert not res.converged
    assert res.residual == min(e for _, e in res.residual_history)
    assert len(res.residual_history) == 2


# ----------------------------------------------------------- prefactor


def test_prefactor_divisibility():
    task = two_disk_task(budgets=(20, 40, 60, 80), prefactor=(0, 0.0, 5))
    res = fit(task)
    assert res.converged
    assert res.poly.z_degrees()[0] >= 5
    assert all(ze[0] >= 5 for (_, ze) in res.poly.terms)
    # vanishing order shows up numerically near the divisor point
    assert abs(res.poly.eval((), (1e-3,))) < 1e-10


def test_prefactor_exact_multiple():
    g = Poly.monomial(0, 1, (), (7,), 2.5)
    task = ApproxTask([_disk_piece(0.0, 1.0, g)], [2],
                      tolerance=1e-9, prefactor=(0, 0.0, 7))
    res = fit(task)
    assert res.converged
    assert res.poly.isclose(g, tol=1e-9)


def test_prefactor_zero_exponent_is_plain_fit():
    a = fit(two_disk_task())
    b = fit(two_disk_task(prefactor=(0, 0.0, 0)))
    assert b.residual == pytest.approx(a.residual, rel=1e-9)


# ---------------------------------------------------------- derivatives


def test_derivative_matching_exact():
    rng = np.random.default_rng(23)
    g = random_poly(rng, 0, 1, max_deg=6, nterms=5)
    ops = family_Fl(0, 1, 1)
    task = ApproxTask([_disk_piece(0.2, 1.0, g)], [6], tolerance=1e-8,
                      derivative_orders=tuple(ops))
    res = fit(task)
    assert res.converged        # residual includes the derivative sup


def test_derivative_matching_glued():
    ops = tuple(family_Fl(0, 1, 1))
    res = fit(two_disk_task(budgets=(20, 40, 60, 80), tol=6e-3,
                            derivative_orders=ops))
    assert res.converged
    # the reported residual bounds the derivative mismatch too
    dz = DiffOp((1,))
    grid = ProductCompact([Disk(2.0, 0.25)]).sample(n_per_factor=257)
    dvals = res.poly.diff(dz).eval_product(np.zeros((1, 0)), grid.points)
    assert np.abs(dvals).max() <= 4 * res.residual + 1e-12


# ------------------------------------------------------------ validation


def test_glue_rejects_touching_pieces():
    zero = Poly.zero(0, 1)
    with pytest.raises(ValueError, match="overlap"):
        glue_target([_disk_piece(0.0, 1.0, zero), _disk_piece(1.5, 1.0, zero)],
                    i0=0, budgets=[4], tolerance=1e-3)
    with pytest.raises(ValueError, match="apart"):
        glue_target([_disk_piece(0.0, 0.5, zero), _disk_piece(2.0, 0.25, zero)],
                    i0=0, budgets=[4], tolerance=1e-3, min_gap=1.5)


def test_glue_records_gap_and_balls():
    zero2 = Poly.zero(0, 2)
    K1 = ProductCompact([Disk(0.0, 0.5), Disk(0.0, 1.0)])
    K2 = ProductCompact([Disk(3.0, 0.5), Rectangle(-1.0, 1.0, -1.0, 1.0)])
    task = glue_target([(K1, zero2), (K2, zero2)], i0=0,
                       budgets=[3], tolerance=1e-2)
    assert task.meta["i0"] == 0
    assert task.meta["min_gap"] == pytest.approx(2.0, abs=0.05)
    ball = task.meta["balls"]["1"]
    assert ball["type"] == "disk"
    assert ball["radius"] >= math.sqrt(2) - 1e-6


def test_task_validation_errors():
    zero = Poly.zero(0, 1)
    with pytest.raises(ValueError, match="ascending"):
        ApproxTask([_disk_piece(0.0, 1.0, zero)], [4, 2], tolerance=1e-3)
    with pytest.raises(ValueError, match="arity"):
        ApproxTask([_disk_piece(0.0, 1.0, Poly.zero(1, 1))], [4], tolerance=1e-3)
    with pytest.raises(ValueError, match="exponent"):
        ApproxTask([_disk_piece(0.0, 1.0, zero)], [4], tolerance=1e-3,
                   prefactor=(0, 0.0, -1))
    with pytest.raises(ValueError, match="coordinate"):
        ApproxTask([_disk_piece(0.0, 1.0, zero)], [4], tolerance=1e-3,
                   prefactor=(1, 0.0, 2))
    with pytest.raises(ValueError, match="w compact"):
        fit(ApproxTask([_disk_piece(0.0, 1.0, Poly.zero(1, 1))], [4],
                       tolerance=1e-3, r=1))


def test_design_size_guard():
    zero2 = Poly.zero(0, 2)
    K = ProductCompact([Disk(0.0, 1.0), Disk(0.0, 1.0)])
    task = ApproxTask([(K, zero2)], [40], tolerance=1e-3, n_per_factor=300)
    with pytest.raises(GridSizeError):
        fit(task)

"""Gluing-fit tests: exact reproduction, the two-disk indicator demo,
divisor constraints and derivative matching."""

import math

import numpy as np
import pytest

from taylorlab import mergelyan
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


def test_overflowing_target_reports_the_first_budget():
    # a 1e308 target overflows every residual, so no budget scores below
    # infinity; the fit still returns an attempt instead of nothing
    huge = Poly.constant(1e308, 0, 1)
    task = glue_target(
        [_disk_piece(0.0, 0.5, Poly.zero(0, 1)), _disk_piece(2.0, 0.25, huge)],
        i0=0, budgets=[2, 4], tolerance=1e-3)
    res = fit(task)
    assert not res.converged
    assert res.budget == 2
    assert [b for b, _ in res.residual_history] == [2, 4]


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


# ------------------------------------------- compressed vs dense design

LSTSQ = np.linalg.lstsq


def _dense_sweep(task):
    """The budget sweep on the explicitly formed (w, z) design: scaled
    monomial columns by the graded recurrence times the divisor, derivative
    rows through Poly.diff per column, rows weighted by tolerance.  Per
    budget: (scaled design, rhs, scaled solution, singular values); and
    the budget that fit's selection rule picks."""
    r, d, k = task.r, task.d, task.r + task.d
    grids, _ = mergelyan._task_grids(task)
    verif, _ = mergelyan._task_grids(task, density=2)
    pts = [np.concatenate([np.repeat(W, len(Z), axis=0),
                           np.tile(Z, (len(W), 1))], axis=1)
           for W, Z in grids]
    scales = np.maximum(np.abs(np.concatenate(pts)).max(axis=0), 1e-9)
    gammas = mergelyan._monomials_upto(k, task.budgets[-1])
    index = {g: i for i, g in enumerate(gammas)}
    pref, pref_poly = None, None
    if task.prefactor is not None and task.prefactor[2] > 0:
        i0, c, e = task.prefactor
        pref = (r + i0, complex(c), e)
        pref_poly = (Poly.z_var(i0, r, d) - complex(c)) ** e
    blocks, rhs, piece_of = [], [], []
    for pi, (p, (W, Z), (K, gt)) in enumerate(zip(pts, grids, task.pieces)):
        scaled = p / scales
        A = np.empty((len(p), len(gammas)), dtype=complex)
        A[:, 0] = 1.0
        for col, g in enumerate(gammas[1:], start=1):
            j = next(i for i, v in enumerate(g) if v > 0)
            parent = list(g)
            parent[j] -= 1
            A[:, col] = A[:, index[tuple(parent)]] * scaled[:, j]
        if pref is not None:
            A *= (p[:, [pref[0]]] - pref[1]) ** pref[2]
        blocks.append(A)
        rhs.append(gt.eval_product(W, Z).reshape(-1))
        piece_of.append(pi)
    ops = [op for op in task.derivative_orders if not op.is_identity]
    if ops:
        cols = []
        for g in gammas:
            denom = math.prod(s ** v for v, s in zip(g, scales))
            mono = Poly.monomial(r, d, g[:r], g[r:], 1.0 / denom)
            cols.append(mono * pref_poly if pref_poly is not None else mono)
        for pi, ((W, Z), (K, gt)) in enumerate(zip(grids, task.pieces)):
            for op in ops:
                blocks.append(np.stack(
                    [cp.diff(op).eval_product(W, Z).reshape(-1)
                     for cp in cols], axis=1))
                rhs.append(gt.diff(op).eval_product(W, Z).reshape(-1))
                piece_of.append(pi)
    tols = task.piece_tolerances or [task.tolerance] * len(task.pieces)
    for i, pi in enumerate(piece_of):
        w = min(tols) / tols[pi]
        if w != 1.0:
            blocks[i] = blocks[i] * w
            rhs[i] = rhs[i] * w
    A_full, b = np.concatenate(blocks), np.concatenate(rhs)
    sweep, picked, best = [], None, math.inf
    for budget in task.budgets:
        n = math.comb(budget + k, k)
        colscale = np.maximum(np.abs(A_full[:, :n]).max(axis=0), 1e-300)
        A = A_full[:, :n] / colscale
        x, _, _, svals = LSTSQ(A, b, rcond=1e-12)
        Q = mergelyan._assemble(task, gammas[:n], x / colscale, scales,
                                pref_poly)
        piece_res = mergelyan._residuals(task, Q, verif)
        score = max(e / t for e, t in zip(piece_res, tols))
        sweep.append((A, b, x, svals))
        if score < best:
            picked, best = budget, score
        if all(e <= t for e, t in zip(piece_res, tols)):
            picked = budget
            break
    return sweep, picked


def _spy_fit(task, monkeypatch):
    """fit(task) plus every (solution, singular values) its lstsq returned."""
    calls = []

    def spy(A, b, rcond=None):
        out = LSTSQ(A, b, rcond=rcond)
        calls.append((out[0], out[3]))
        return out

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    return fit(task), calls


def _strong_param_task():
    # converges at budget 6 of 8; the w axis has 20 points, so the inner
    # disk (16) keeps z dense and the outer rectangle (20, a tie) keeps w
    wz = Poly.w_var(0, 1, 1) * Poly.z_var(0, 1, 1)
    return ApproxTask(
        [(ProductCompact([Disk(0.0, 0.5)]), Poly.zero(1, 1)),
         (ProductCompact([Rectangle(2.35, 2.65, -0.3, 0.3)]), wz + 1.0)],
        [2, 4, 6, 8], tolerance=0.6, r=1,
        w_compact=ProductCompact([Rectangle(-0.5, 0.5, -0.25, 0.25)]),
        derivative_orders=tuple(family_Fl(1, 1, 1)), prefactor=(0, 0.0, 2),
        n_per_factor=16, piece_tolerances=[0.3, 0.6])


def _bidisk_task():
    # converges at budget 6 of 8; the first piece keeps axis 0 dense (a
    # tie), the second keeps axis 1
    return ApproxTask(
        [(ProductCompact([Disk(0.0, 0.5), Disk(0.0, 0.5)]), Poly.zero(0, 2)),
         (ProductCompact([Rectangle(2.3, 2.7, -0.1, 0.1), Disk(0.0, 0.5)]),
          Poly.constant(1.0, 0, 2))],
        [2, 4, 6, 8], tolerance=2e-2, prefactor=(0, 0.0, 2),
        n_per_factor=12)


def _strong_l2_task():
    # one axis, nothing compressed: second derivatives through the divisor
    return ApproxTask(
        [_disk_piece(0.0, 0.5, Poly.zero(0, 1)),
         _disk_piece(2.0, 0.25, Poly.constant(1.0, 0, 1))],
        [4, 6, 8, 12], tolerance=0.56,
        derivative_orders=tuple(family_Fl(0, 1, 2)), prefactor=(0, 0.0, 3),
        n_per_factor=32)


@pytest.mark.parametrize("make_task",
                         [_strong_param_task, _bidisk_task, _strong_l2_task])
def test_compressed_solve_matches_dense_design(make_task, monkeypatch):
    task = make_task()
    sweep, picked = _dense_sweep(task)
    res, calls = _spy_fit(task, monkeypatch)
    assert res.budget == picked
    assert len(calls) == len(res.residual_history)
    for (A, b, x_dense, sv_dense), (x, sv) in zip(sweep, calls):
        assert sv_dense[0] / sv_dense[-1] < 1e8
        assert len(sv) == len(sv_dense)
        np.testing.assert_allclose(sv, sv_dense, rtol=1e-8)
        on_grid = np.linalg.norm(A @ x - b)
        on_grid_dense = np.linalg.norm(A @ x_dense - b)
        assert on_grid == pytest.approx(on_grid_dense, rel=1e-9)
        assert on_grid_dense > 1e-6 * np.linalg.norm(b)


def test_single_axis_solve_is_the_dense_solve(monkeypatch):
    task = two_disk_task(budgets=(10, 20, 40), prefactor=(0, 0.0, 5),
                         piece_tolerances=[5e-4, 1e-3])
    sweep, picked = _dense_sweep(task)
    res, calls = _spy_fit(task, monkeypatch)
    assert res.budget == picked
    assert len(calls) == len(res.residual_history)
    for (_, _, x_dense, _), (x, _) in zip(sweep, calls):
        assert np.array_equal(x, x_dense)

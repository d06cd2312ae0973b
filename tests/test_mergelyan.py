"""Gluing-fit tests: exact reproduction, the two-disk indicator demo,
divisor constraints and derivative matching."""

import itertools
import json
import math
import os

import numpy as np
import pytest

from taylorlab import mergelyan
from taylorlab.cli import main
from taylorlab.geometry import (Disk, GridSizeError, ProductCompact, Rectangle,
                                Segment, UnionCompact)
from taylorlab.mergelyan import ApproxTask, FitResult, fit, glue_target
from taylorlab.multiindex import DiffOp, family_Fl
from taylorlab.poly import Block, CoefficientStream, Poly, graded_columns
from taylorlab.universal import plan_from_scenario

from util import coeff_norm, isclose, random_point, random_poly

SCEN = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


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
        # the block through its recurrence, about the task's center 0
        vals = (res.block.values([pts[:, 0]], (0,))
                - g.eval_product(W, pts))
        scale = 1 + max(abs(g.eval((), (z[0],))) for z in pts)
        assert np.abs(vals).max() <= 1e-9 * scale


def test_exact_reproduction_two_pieces_same_target():
    rng = np.random.default_rng(5)
    g = random_poly(rng, 0, 1, max_deg=5, nterms=4)
    task = glue_target([_disk_piece(0.0, 0.5, g), _disk_piece(2.0, 0.25, g)],
                       i0=0, budgets=[5], tolerance=1e-8)
    res = fit(task)
    assert res.residual <= 1e-9 * (1 + coeff_norm(g))


def test_exact_reproduction_parameterized():
    # w z is inside every budget >= 2 basis
    g = Poly.monomial(1, 1, (1,), (1,))
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
    task = two_disk_task(budgets=(20, 40, 60, 80), prefactor=(0, 5))
    res = fit(task)
    assert res.converged
    taylor = res.block.taylor()       # in powers of z - 0, the center
    assert taylor.z_degrees()[0] >= 5
    assert all(ze[0] >= 5 for (_, ze) in taylor.terms)
    # vanishing order shows up numerically near the divisor point
    assert abs(res.block.values([np.array([1e-3])], (0,))[0]) < 1e-10


def test_prefactor_exact_multiple():
    g = Poly.monomial(0, 1, (), (7,), 2.5)
    task = ApproxTask([_disk_piece(0.0, 1.0, g)], [2],
                      tolerance=1e-9, prefactor=(0, 7))
    res = fit(task)
    assert res.converged
    assert isclose(res.block.taylor(), g, tol=1e-9)


def test_prefactor_zero_exponent_is_plain_fit():
    a = fit(two_disk_task())
    b = fit(two_disk_task(prefactor=(0, 0)))
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
    # the reported residual bounds the derivative mismatch too, measured
    # through the block's recurrence (at degree 40 the float Taylor view
    # on this disk is off by more than the residual)
    grid = ProductCompact([Disk(2.0, 0.25)]).sample(n_per_factor=257)
    dvals = res.block.values(grid.per_factor, [1])
    assert np.abs(dvals).max() <= 4 * res.residual + 1e-12


# ------------------------------------------------------------ validation


def test_glue_rejects_touching_pieces():
    zero = Poly.zero(0, 1)
    with pytest.raises(ValueError, match="overlap"):
        glue_target([_disk_piece(0.0, 1.0, zero), _disk_piece(1.5, 1.0, zero)],
                    i0=0, budgets=[4], tolerance=1e-3)


def test_glue_refuses_pieces_that_share_a_boundary_sample():
    # segments meeting end to end: neither holds a sample of the other
    # strictly inside it, but both sample their common end point 1
    zero = Poly.zero(0, 1)
    a, b = (ProductCompact([Segment(x, x + 1.0)]) for x in (0.0, 1.0))
    with pytest.raises(ValueError,
                       match="^pieces 0 and 1 touch on coordinate 0$"):
        glue_target([(a, zero), (b, zero)], i0=0, budgets=[4],
                    tolerance=1e-3)
    apart = ProductCompact([Segment(1.0 + 1e-9, 2.0)])
    glue_target([(a, zero), (apart, zero)], i0=0, budgets=[4],
                tolerance=1e-3)


def test_glue_refuses_a_factor_that_may_enclose_holes():
    # two overlapping disks: a union whose complement may have holes
    zero = Poly.zero(0, 1)
    holed = UnionCompact([Disk(2.5 + 0j, 0.15), Disk(2.6 + 0j, 0.15)])
    with pytest.raises(ValueError,
                       match="^piece 1: gluing factor may enclose holes$"):
        glue_target([_disk_piece(0.0, 0.5, zero),
                     (ProductCompact([holed]), zero)],
                    i0=0, budgets=[4], tolerance=1e-3)


def test_task_validation_errors():
    zero = Poly.zero(0, 1)
    with pytest.raises(ValueError, match="ascending"):
        ApproxTask([_disk_piece(0.0, 1.0, zero)], [4, 2], tolerance=1e-3)
    with pytest.raises(ValueError, match="arity"):
        ApproxTask([_disk_piece(0.0, 1.0, Poly.zero(1, 1))], [4], tolerance=1e-3)
    with pytest.raises(ValueError, match="exponent"):
        ApproxTask([_disk_piece(0.0, 1.0, zero)], [4], tolerance=1e-3,
                   prefactor=(0, -1))
    with pytest.raises(ValueError, match="coordinate"):
        ApproxTask([_disk_piece(0.0, 1.0, zero)], [4], tolerance=1e-3,
                   prefactor=(1, 2))
    with pytest.raises(ValueError,
                       match="^r = 1 needs a w_compact of arity r, got none$"):
        fit(ApproxTask([_disk_piece(0.0, 1.0, Poly.zero(1, 1))], [4],
                       tolerance=1e-3, r=1))


@pytest.mark.parametrize("kw, message", [
    *[({"tolerance": tol}, "every tolerance must be positive and finite")
      for tol in (0.0, -1e-3, math.nan, [math.nan, 1.0])],
    ({"tolerance": [1e-3]}, "need one tolerance per piece"),
    *[({"budgets": b}, "the budgets must be a nonempty ascending list of "
       "natural numbers") for b in ([], [-1], [2.0], [True])]])
def test_task_refuses_bad_tolerances_and_budgets(kw, message):
    zero = Poly.zero(0, 1)
    args = {"budgets": [4], "tolerance": 1e-3, **kw}
    with pytest.raises(ValueError, match=f"^{message}"):
        ApproxTask([_disk_piece(0.0, 0.5, zero), _disk_piece(2.0, 0.25, zero)],
                   **args)


def test_design_size_guard():
    zero2 = Poly.zero(0, 2)
    K = ProductCompact([Disk(0.0, 1.0), Disk(0.0, 1.0)])
    # 300 samples per factor shrink to 81 rows each at budget 80, and the
    # 3321 rows (a_0, a_1) with a_0 + a_1 <= 80 are kept: 3321 rows x 3321
    # columns = 1.10e7 entries
    task = ApproxTask([(K, zero2)], [80], tolerance=1e-3, n_per_factor=300)
    with pytest.raises(GridSizeError):
        fit(task)


def test_tiny_and_all_zero_axes_fit():
    def task(radius, budgets):
        def piece(center, r, value):
            K = ProductCompact([Disk(center, r), Disk(0.0, radius)])
            return K, Poly.constant(value, 0, 2)
        return ApproxTask([piece(0.0, 0.5, 0.0), piece(2.5, 0.15, 1.0)],
                          budgets, tolerance=1e-2)
    # the Arnoldi basis runs in x / scale, so a factor of radius 1e-7
    # (whose scale to the power 60 underflowed in the monomial basis)
    # fits like any other; [8, 60] would pass the design bound here
    assert fit(task(1e-7, [8, 24])).converged
    # an axis sampled only at 0 stops at degree 0: its process breaks down
    # at once, and no column goes past it
    res = fit(task(0.0, [8, 60]))
    assert res.converged
    assert res.block.axes[1].degree == 0
    assert all(ze[1] == 0 for _, ze in res.block.taylor().terms)


# ------------------------------------------- compressed vs dense design

LSTSQ = np.linalg.lstsq


def _fit_grids(task):
    """The (w grid, z grid) of each piece that a fit of the task samples."""
    return mergelyan.fit_grids([K for K, _ in task.pieces], task.r,
                               task.w_compact, task.n_per_factor, 1)


def _dense_sweep(task, procs):
    """The budget sweep on the explicitly formed (w, z) design: per piece
    and op, the Kronecker product of the fit's per-axis basis rows (taken
    from its Arnoldi processes `procs`, whose first z axis carries the
    tolerance weight) on the piece's samples, the graded columns, and the
    rhs weighted by tolerance.  Per budget: (design, rhs, solution,
    singular values)."""
    r, k = task.r, task.r + task.d
    grids = _fit_grids(task)
    tols = task.tolerance
    ops = [DiffOp.identity(k)] + [op for op in task.derivative_orders
                                  if not op.is_identity]
    axes = [mergelyan._axes(wg, zg) for wg, zg in grids]
    # piece p's samples on z axis j follow those of the pieces before it;
    # the pieces share the w axes
    offsets = [[sum(len(ax[j]) for ax in axes[:p]) if j >= r else 0
                for j in range(k)] for p in range(len(axes))]
    sweep = []
    for budget in task.budgets[:len(procs[0].sweep)]:
        degs = [min(budget, proc.degree) for proc in procs]
        cols = graded_columns(degs, budget)
        blocks, rhs = [], []
        for ax, off, (wg, zg), (K, gt), tol in zip(axes, offsets, grids,
                                                  task.pieces, tols):
            for op in ops:
                A = np.ones((1, len(cols)), dtype=complex)
                for j, proc in enumerate(procs):
                    V = proc.fit[op.orders[j]][:, off[j]:off[j] + len(ax[j])]
                    A = (A[:, None, :] * V.T[None, :, cols[:, j]]).reshape(
                        -1, len(cols))
                w = min(tols) / tol
                blocks.append(A)
                rhs.append(gt.diff(op).eval_product(wg, zg).reshape(-1) * w)
        A, b = np.concatenate(blocks), np.concatenate(rhs)
        x, _, _, svals = LSTSQ(A, b)
        sweep.append((A, b, x, svals))
    return sweep


class _Recorded(mergelyan._Arnoldi):
    """An Arnoldi process that records itself and the budgets it served."""

    made = []

    def __init__(self, *args):
        super().__init__(*args)
        self.sweep = []
        _Recorded.made.append(self)

    def extend(self, budget):
        super().extend(budget)
        self.sweep.append(budget)


def _spy_fit(task, monkeypatch):
    """fit(task), every (solution, singular values) its lstsq returned, and
    its Arnoldi processes."""
    calls = []

    def spy(*args, **kwargs):
        out = LSTSQ(*args, **kwargs)
        calls.append((out[0], out[3]))
        return out

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    monkeypatch.setattr(mergelyan, "_Arnoldi", _Recorded)
    _Recorded.made = []
    return fit(task), calls, _Recorded.made


def _strong_param_task():
    # converges at budget 6 of 8; every axis of both pieces has 16 samples
    # and shrinks to its R factor of min(16, degree + 1) rows
    wz = Poly.monomial(1, 1, (1,), (1,))
    return ApproxTask(
        [(ProductCompact([Disk(0.0, 0.5)]), Poly.zero(1, 1)),
         (ProductCompact([Rectangle(2.35, 2.65, -0.3, 0.3)]), wz + 1.0)],
        [2, 4, 6, 8], tolerance=[0.3, 0.6], r=1,
        w_compact=ProductCompact([Rectangle(-0.5, 0.5, -0.25, 0.25)]),
        derivative_orders=tuple(family_Fl(1, 1, 1)), prefactor=(0, 2),
        n_per_factor=16)


def _bidisk_task():
    # converges at budget 6 of 8; every axis of both pieces has 12 samples
    # and shrinks to its R factor of min(12, degree + 1) rows
    return ApproxTask(
        [(ProductCompact([Disk(0.0, 0.5), Disk(0.0, 0.5)]), Poly.zero(0, 2)),
         (ProductCompact([Rectangle(2.3, 2.7, -0.1, 0.1), Disk(0.0, 0.5)]),
          Poly.constant(1.0, 0, 2))],
        [2, 4, 6, 8], tolerance=2e-2, prefactor=(0, 2),
        n_per_factor=12)


def _strong_l2_task():
    # one axis, nothing compressed: second derivatives through the divisor
    return ApproxTask(
        [_disk_piece(0.0, 0.5, Poly.zero(0, 1)),
         _disk_piece(2.0, 0.25, Poly.constant(1.0, 0, 1))],
        [4, 6, 8, 12], tolerance=0.56,
        derivative_orders=tuple(family_Fl(0, 1, 2)), prefactor=(0, 3),
        n_per_factor=32)


@pytest.mark.parametrize("make_task", [_strong_param_task, _bidisk_task])
def test_compressed_solve_matches_dense_design(make_task, monkeypatch):
    task = make_task()
    res, calls, procs = _spy_fit(task, monkeypatch)
    sweep = _dense_sweep(task, procs)
    assert len(calls) == len(res.residual_history) == len(sweep)
    assert res.budget == task.budgets[len(sweep) - 1]
    for (A, b, x_dense, sv_dense), (x, sv) in zip(sweep, calls):
        assert sv_dense[0] / sv_dense[-1] < 1e8
        assert len(sv) == len(sv_dense)
        np.testing.assert_allclose(sv, sv_dense, rtol=1e-8)
        on_grid = np.linalg.norm(A @ x - b)
        on_grid_dense = np.linalg.norm(A @ x_dense - b)
        assert on_grid == pytest.approx(on_grid_dense, rel=1e-9)
        assert on_grid_dense > 1e-6 * np.linalg.norm(b)


def _fit_samples(task, j=0):
    """The union of the pieces' samples on axis j of a task, and the
    weight that axis's Arnoldi process carries there: sqrt(w) = tol_min /
    tol_p on piece p's samples of the first z axis, 1 on every other."""
    r = task.r
    xs = [mergelyan._axes(wg, zg)[j] for wg, zg in _fit_grids(task)]
    if j < r:                          # the pieces share the w axes
        return xs[0], np.ones(len(xs[0]))
    tols = task.tolerance
    return np.concatenate(xs), np.concatenate(
        [np.full(len(x), min(tols) / tol if j == r else 1.0)
         for x, tol in zip(xs, tols)])


def _two_disk_divisor_task():
    return two_disk_task(budgets=(10, 20, 40), tol=[5e-4, 1e-3],
                         prefactor=(0, 5))


@pytest.mark.parametrize("make_task, n_budgets",
                         [(_two_disk_divisor_task, 3), (_strong_l2_task, 3)])
def test_single_axis_solve_is_the_weighted_gram_solve(make_task, n_budgets,
                                                      monkeypatch):
    # each task converges at its n_budgets-th budget (40, and 8 of 12)
    task = make_task()
    systems = []

    def spy(A, b, *args, **kwargs):
        out = LSTSQ(A, b, *args, **kwargs)
        systems.append((A.shape, out[0], out[3]))
        return out

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    monkeypatch.setattr(mergelyan, "_Arnoldi", _Recorded)
    _Recorded.made = []
    res = fit(task)
    (proc,) = _Recorded.made
    x, sqrt_w = _fit_samples(task)
    orders = sorted(op.orders[0] for op in task.derivative_orders) or [0]
    # the weighted rhs, stacked by order, then by piece
    y = np.concatenate([gt.diff(DiffOp((o,))).eval_product(wg, zg).reshape(-1)
                        for o in orders
                        for (wg, zg), (_, gt) in zip(_fit_grids(task),
                                                     task.pieces)])
    y_w = y * np.tile(sqrt_w, len(orders))
    # lstsq solves for y_w / 2^e, e the binary exponent of its largest part
    scale = 2.0 ** math.frexp(np.abs(y_w.view(float)).max())[1]
    assert res.converged
    assert len(systems) == len(res.residual_history) == n_budgets
    for (shape, coefs, svals), budget in zip(systems, task.budgets):
        K = min(budget, proc.degree) + 1
        # one (K, K) system a budget, from a basis orthonormal in the
        # weighted inner product of every matched order
        assert shape == (K, K)
        Q = proc.Q[:K]
        np.testing.assert_allclose(Q.conj() @ Q.T / len(x), np.eye(K),
                                   rtol=0, atol=1e-12)
        assert abs(math.sqrt(svals[0] / svals[-1]) - 1) <= 1e-9
        # the dense weighted design: the block's own basis at the samples
        block = Block(0, task.center, task.prefactor, budget,
                      [proc.axis(K - 1)], np.zeros(K))
        R = block.rows(0, x, orders[-1])
        A = np.concatenate([R[o].T * sqrt_w[:, None] for o in orders])
        dense = LSTSQ(A, y_w)[0]
        assert (np.linalg.norm(coefs * scale - dense)
                <= 1e-12 * np.linalg.norm(dense))
    np.testing.assert_array_equal(res.block.coefs, systems[-1][1] * scale)
    assert abs(res.cond - 1) <= 1e-9


@pytest.mark.parametrize("make_task", [_strong_l2_task, _strong_param_task])
def test_process_rows_are_the_weighted_block_rows(make_task, monkeypatch):
    # every order a process carries, unweighted, is what Block.rows
    # evaluates at the fit samples: the weight (unequal on the two-axis
    # task's pieces) and the stacked inner product change the basis, never
    # the recurrence H, scale and norm define
    task = make_task()
    monkeypatch.setattr(mergelyan, "_Arnoldi", _Recorded)
    _Recorded.made = []
    res = fit(task)
    assert len(_Recorded.made) == task.r + task.d
    for j, (proc, ax) in enumerate(zip(_Recorded.made, res.block.axes)):
        x, sqrt_w = _fit_samples(task, j)
        K = ax.degree + 1
        rows = res.block.rows(j, x, len(proc.fit) - 1)
        assert len(proc.fit) == 1 + max(op.orders[j]
                                        for op in task.derivative_orders)
        for o, R in enumerate(rows):
            np.testing.assert_allclose(proc.fit[o][:K] / sqrt_w, R, rtol=0,
                                       atol=1e-11 * np.abs(R).max())


def test_task_refuses_a_derivative_family_that_is_not_downward_closed():
    with pytest.raises(ValueError, match=r"^the derivative orders must be "
                       r"downward closed: \(2,\) is listed but not \(1,\)$"):
        ApproxTask([_disk_piece(0.0, 0.5, Poly.zero(0, 1))], [4],
                   tolerance=1e-3, derivative_orders=(DiffOp((2,)),))
    ApproxTask([_disk_piece(0.0, 0.5, Poly.zero(0, 1))], [4], tolerance=1e-3,
               derivative_orders=(DiffOp((2,)), DiffOp((1,))))


def test_single_axis_weights_stay_inside_the_fit(monkeypatch, tmp_path):
    # alternating_three's stage 2 fits pieces of unequal tolerances;
    # the blocks it writes evaluate the unweighted basis
    monkeypatch.setattr(mergelyan, "_Arnoldi", _Recorded)
    _Recorded.made = []
    path = os.path.join(SCEN, "alternating_three.json")
    out = str(tmp_path)
    assert main(["construct", path, "--out-dir", out]) == 0
    assert main(["verify", os.path.join(out, "stream.json"),
                 os.path.join(out, "certificate.json")]) == 0
    with open(os.path.join(out, "stream.json")) as fh:
        stream = CoefficientStream.from_json(json.load(fh))
    with open(os.path.join(out, "certificate.json")) as fh:
        records = json.load(fh)["stages"]
    with open(path) as fh:
        plan = plan_from_scenario(json.load(fh))
    assert len(_Recorded.made) == len(stream.blocks) == len(records) == 3
    for proc, sb, rec, req in zip(_Recorded.made, stream.blocks, records,
                                  plan.requests):
        tols = [rec["fit_tolerance_inner"], rec["fit_tolerance_outer"]]
        task = ApproxTask([(req.inner, Poly.zero(0, 1)),
                           (req.outer, Poly.zero(0, 1))], req.budgets, tols)
        x, sqrt_w = _fit_samples(task)
        K = sb.block.axes[0].degree + 1
        rows = sb.block.rows(0, x, 0)[0]
        np.testing.assert_allclose(rows, proc.fit[0][:K] / sqrt_w,
                                   rtol=0, atol=1e-12 * np.abs(rows).max())
    assert any(rec["fit_tolerance_inner"] != rec["fit_tolerance_outer"]
               for rec in records)


@pytest.mark.parametrize("make_task", [_strong_param_task, _bidisk_task])
def test_every_axis_shrinks_to_its_r_factor(make_task, monkeypatch):
    task = make_task()
    task.budgets = task.budgets[:3]           # it converges at the top, 6
    shapes = []

    def spy(A, b, *args, **kwargs):
        shapes.append(A.shape)
        return LSTSQ(A, b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    monkeypatch.setattr(mergelyan, "_Arnoldi", _Recorded)
    _Recorded.made = []
    res = fit(task)
    assert res.converged and len(shapes) == len(task.budgets)
    procs = _Recorded.made
    ops = 1 + sum(not op.is_identity for op in task.derivative_orders)
    samples = [[len(a) for a in mergelyan._axes(wg, zg)]
               for wg, zg in _fit_grids(task)]
    for budget, shape in zip(task.budgets, shapes):
        degs = [min(budget, proc.degree) for proc in procs]
        # each (piece, op) block: the index tuples a of the box of R rows,
        # a_j < min(n_j, deg_j + 1), with sum a <= budget
        rows = sum(sum(sum(a) <= budget for a in itertools.product(
            *(range(min(n, g + 1)) for n, g in zip(ns, degs))))
            for ns in samples)
        assert shape == (ops * rows, len(graded_columns(degs, budget)))
    # at the top budget the design guard counts exactly what lstsq got
    size = math.prod(shapes[-1])
    monkeypatch.setattr(mergelyan, "MAX_DESIGN_ENTRIES", size)
    fit(task)
    monkeypatch.setattr(mergelyan, "MAX_DESIGN_ENTRIES", size - 1)
    with pytest.raises(GridSizeError):
        fit(task)


@pytest.mark.parametrize("make_task", [_strong_param_task, _bidisk_task])
def test_dropped_kronecker_rows_are_zero(make_task, monkeypatch):
    # the full Kronecker product of the per-axis R factors, built here:
    # the rows it drops are exactly zero, the rows it keeps are its other
    # rows bit for bit, and both systems share the minimizer and the
    # singular values
    task = make_task()
    systems = []

    def spy(A, b, *args, **kwargs):
        out = LSTSQ(A, b, *args, **kwargs)
        systems.append((A, b, out[0], out[3]))
        return out

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    monkeypatch.setattr(mergelyan, "_Arnoldi", _Recorded)
    _Recorded.made = []
    fit(task)
    procs = _Recorded.made
    r, k = task.r, task.r + task.d
    grids = _fit_grids(task)
    axes = [mergelyan._axes(wg, zg) for wg, zg in grids]
    ops = sorted({DiffOp.identity(k), *task.derivative_orders},
                 key=lambda op: op.orders)
    sqrt_w = [min(task.tolerance) / tol for tol in task.tolerance]
    offsets = [[sum(len(ax[j]) for ax in axes[:p]) if j >= r else 0
                for j in range(k)] for p in range(len(axes))]
    assert len(systems) == len(procs[0].sweep) > 1
    for budget, (A, b, coefs, svals) in zip(task.budgets, systems):
        degs = [min(budget, proc.degree) for proc in procs]
        cols = graded_columns(degs, budget)
        full, full_rhs, kept, kept_rhs = [], [], [], []
        for op in ops:
            for ax, off, (wg, zg), (_, gt), w in zip(axes, offsets, grids,
                                                    task.pieces, sqrt_w):
                y = gt.diff(op).eval_product(wg, zg).reshape(
                    [len(a) for a in ax]) * w
                M = None
                for j, proc in enumerate(procs):
                    q, R = np.linalg.qr(proc.fit[op.orders[j]][
                        :degs[j] + 1, off[j]:off[j] + len(ax[j])].T)
                    y = np.moveaxis(np.tensordot(q.conj(), y, (0, j)), 0, j)
                    F = R[:, cols[:, j]]
                    M = F if M is None else (M[:, None] * F).reshape(
                        -1, len(cols))
                index = np.indices(y.shape).reshape(k, -1)
                zero = index.sum(axis=0) > budget
                assert zero.any() and not np.any(M[zero])
                full.append(M)
                full_rhs.append(y.reshape(-1))
                # the kept rows, in the fit's order (graded_columns of the
                # R shape)
                order = graded_columns([n - 1 for n in y.shape], budget)
                at = np.ravel_multi_index(tuple(order.T), y.shape)
                kept.append(M[at])
                kept_rhs.append(y.reshape(-1)[at])
        np.testing.assert_array_equal(A, np.concatenate(kept))
        np.testing.assert_array_equal(b, np.concatenate(kept_rhs))
        x, _, _, sv = LSTSQ(np.concatenate(full), np.concatenate(full_rhs))
        assert np.linalg.norm(coefs - x) <= 1e-10 * np.linalg.norm(x)
        np.testing.assert_allclose(svals, sv, rtol=1e-12, atol=0)

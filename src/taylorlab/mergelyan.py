"""Single-polynomial gluing across disjoint product pieces.

A task carries pieces (product compact, polynomial target) and asks for one
polynomial close to every piece target on that piece's sampled distinguished
boundary, optionally matching mixed partials and optionally constrained to a
multiple of (z_i0 - c)^e.  The divisor is baked into the fit basis, so the
least squares problem ranges over the cofactor only and the returned
polynomial vanishes at c to the requested order by construction.

Numerics: columns are products of per-coordinate scaled monomials
(x_j / s_j)^g_j, s_j the largest sampled |x_j|, so each has unit sup on the
grid.  Sample grids are tensor products of axis samples (w axes, then z
axes) and columns, divisor and derivatives split by axis, so each block of
rows is a column subset of a Kronecker product of per-axis matrices; the
dense (w, z) design is never formed.  Per budget every axis but the one
with the fewest samples is replaced by the R of its QR and the rhs by Q^H
times it, an orthonormal change of rows that keeps the dense problem's
minimizer and singular values (factoring the smallest axis too costs more
than the solver's own QR).  Columns are scaled to their dense maxima and
lstsq with a hard rcond truncates the SVD.  Residuals are still measured
through the assembled polynomial on a grid twice as dense.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import (
    GridSizeError,
    ProductCompact,
    grid_density,
    sampled_min_distance,
)
from .multiindex import DiffOp, family_Fl
from .poly import Poly
from .verify import sup_ops

# entries of the reduced least-squares system at the top budget
MAX_DESIGN_ENTRIES = 8_000_000


def _monomials_upto(k: int, budget: int):
    """Joint exponent tuples with total degree <= budget, graded order."""
    return [op.orders for op in family_Fl(0, k, budget)]


@dataclass
class ApproxTask:
    """What to glue: pieces, degree budgets, tolerance, optional extras."""

    pieces: list                      # [(ProductCompact, Poly target)]
    budgets: list
    tolerance: float
    r: int = 0
    w_compact: ProductCompact | None = None
    derivative_orders: tuple = ()
    prefactor: tuple | None = None    # (i0, center, exponent)
    n_per_factor: int = 0             # 0 picks a dimension-based default
    piece_tolerances: list | None = None

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a task needs at least one piece")
        if self.piece_tolerances is not None:
            if len(self.piece_tolerances) != len(self.pieces):
                raise ValueError("need one tolerance per piece")
            if any(t <= 0 for t in self.piece_tolerances):
                raise ValueError("piece tolerances must be positive")
        d = self.pieces[0][0].dim
        if d < 1:
            raise ValueError("pieces need at least one z coordinate")
        for K, g in self.pieces:
            if K.dim != d:
                raise ValueError("piece dimensions disagree")
            if (g.r, g.d) != (self.r, d):
                raise ValueError("target arity does not match the task")
        if sorted(self.budgets) != list(self.budgets):
            raise ValueError("budgets must be ascending")
        if self.prefactor is not None:
            i0, _, e = self.prefactor
            if not (0 <= i0 < d):
                raise ValueError("prefactor coordinate out of range")
            if e < 0:
                raise ValueError("prefactor exponent must be a natural number")
        for op in self.derivative_orders:
            if len(op.orders) != self.r + d:
                raise ValueError("derivative arity does not match the task")

    @property
    def d(self) -> int:
        return self.pieces[0][0].dim


@dataclass
class FitResult:
    poly: Poly
    budget: int
    residual: float
    piece_residuals: list
    residual_history: list            # [(budget, residual)]
    cond: float
    n_columns: int
    converged: bool


def glue_target(pieces, i0: int, budgets, tolerance, r: int = 0,
                w_compact=None, derivative_orders=(), prefactor=None,
                piece_tolerances=None) -> ApproxTask:
    """Validate the gluing geometry and package it as a task.

    The i0 factors of distinct pieces must stay a positive sampled distance
    apart and each must keep its complement connected; the remaining
    coordinates are unconstrained.
    """
    if not pieces:
        raise ValueError("nothing to glue")
    d = pieces[0][0].dim
    if not (0 <= i0 < d):
        raise ValueError("gluing coordinate out of range")
    samples = [K.factors[i0].sample_boundary(n=128) for K, _ in pieces]
    for a in range(len(pieces)):
        Ka = pieces[a][0].factors[i0]
        if not Ka.complement_connected:
            raise ValueError(f"piece {a}: gluing factor may enclose holes")
        for b in range(a + 1, len(pieces)):
            Kb = pieces[b][0].factors[i0]
            if (any(Kb.contains(z, tol=-1e-12) for z in samples[a])
                    or any(Ka.contains(z, tol=-1e-12) for z in samples[b])):
                raise ValueError(
                    f"pieces {a} and {b} overlap on coordinate {i0}")
            if sampled_min_distance(Ka, Kb) <= 0:
                raise ValueError(
                    f"pieces {a} and {b} touch on coordinate {i0}")
    return ApproxTask(list(pieces), list(budgets), tolerance, r=r,
                      w_compact=w_compact,
                      derivative_orders=tuple(derivative_orders),
                      prefactor=prefactor, piece_tolerances=piece_tolerances)


# ------------------------------------------------------------------ fit


def _task_grids(task: ApproxTask, density: int = 1):
    """Per-piece (W, Z) sample columns at the task's density, and per piece
    the axis samples (w axes, then z axes) whose product they are."""
    nz = grid_density("fit", "z", task.d, task.n_per_factor) * density
    W, w_axes = np.zeros((1, 0), dtype=complex), []
    if task.r:
        if task.w_compact is None or task.w_compact.dim != task.r:
            raise ValueError("parameterized task needs a w compact of arity r")
        nw = grid_density("fit", "w", task.r, task.n_per_factor)
        wg = task.w_compact.sample(n_per_factor=nw * density)
        W, w_axes = wg.points, wg.per_factor
    zgs = [K.sample(n_per_factor=nz) for K, _ in task.pieces]
    return ([(W, zg.points) for zg in zgs],
            [w_axes + zg.per_factor for zg in zgs])


def _axis_matrix(x, s, b, order=0, divisor=None):
    """Columns g = 0..b on one axis's samples x: the order-th derivative of
    (x / s)^g, times (x - c)^e (Leibniz rule) when divisor = (c, e)."""
    P = np.empty((len(x), b + 1), dtype=complex)
    P[:, 0] = 1.0
    scaled = x / s
    for g in range(1, b + 1):
        P[:, g] = P[:, g - 1] * scaled
    c, e = divisor or (0.0, 0)
    if order == 0:
        return P * ((x - c) ** e)[:, None] if divisor else P
    out = np.zeros_like(P)
    for t in range(max(0, order - e), order + 1):
        coef = [math.comb(order, t) * math.perm(g, t) * math.perm(e, order - t)
                / s ** t for g in range(t, b + 1)]
        pref = (x - c) ** (e - order + t)
        out[:, t:] += P[:, :b + 1 - t] * np.outer(pref, coef)
    return out


def _assemble(task, gammas, coefs, scales, pref_poly) -> Poly:
    r, d = task.r, task.d
    terms = {}
    for g, c in zip(gammas, coefs):
        if c == 0:
            continue
        denom = 1.0
        for v, s in zip(g, scales):
            denom *= s ** v
        terms[(tuple(g[:r]), tuple(g[r:]))] = complex(c) / denom
    q = Poly(r, d, terms)
    return q * pref_poly if pref_poly is not None else q


def _residuals(task, Q: Poly, grids) -> list:
    """Per-piece worst sup of |d^op (Q - target)| over the requested ops."""
    return [sup_ops(Q - g, Z, W, task.derivative_orders)
            for (W, Z), (_, g) in zip(grids, task.pieces)]


def fit(task: ApproxTask) -> FitResult:
    """Sweep the budgets and return the first fit inside tolerance.

    Residuals are measured on an independent grid at twice the sampling
    density, evaluated through the assembled polynomial so that reported
    numbers include reconstruction rounding.  If no budget converges the
    best attempt is returned with converged = False; if no attempt scores
    below infinity (NaN or overflowing residuals), the first one is.
    """
    r, d, k = task.r, task.d, task.r + task.d
    grids, axes = _task_grids(task)
    verif, _ = _task_grids(task, density=2)

    divisor, pref_poly = {}, None
    if task.prefactor is not None and task.prefactor[2] > 0:
        i0, c, e = task.prefactor
        divisor = {r + i0: (complex(c), int(e))}
        pref_poly = (Poly.z_var(i0, r, d) - complex(c)) ** e

    peaks = [max(np.abs(ax[j]).max() for ax in axes) for j in range(k)]
    scales = np.maximum(peaks, 1e-9)
    # _assemble divides by scale ** degree; an axis sampled only at 0 has
    # zero columns beyond degree 0, so its coefficients never divide
    top, s_max = task.budgets[-1], scales.max()
    s_min = min((s for s, peak in zip(scales, peaks) if peak > 0), default=1.0)
    if top * math.log(s_min) < math.log(sys.float_info.min):
        raise ValueError(
            f"the fit scale {s_min:.3g} underflows at degree {top}")
    ops = [DiffOp.identity(k)] + [op for op in task.derivative_orders
                                  if not op.is_identity]
    # the reduced system lstsq gets at the top budget: per piece and op,
    # the axis with the fewest samples keeps its rows, every other axis
    # shrinks to its R factor of min(n_j, top + 1) rows
    shapes = [[len(a) for a in ax] for ax in axes]
    keeps = [shape.index(min(shape)) for shape in shapes]
    reduced_rows = sum(math.prod(n if j == keep else min(n, top + 1)
                                 for j, n in enumerate(shape))
                       for shape, keep in zip(shapes, keeps))
    if len(ops) * reduced_rows * math.comb(top + k, k) > MAX_DESIGN_ENTRIES:
        raise GridSizeError("design matrix would be too large; lower the "
                            "budget or the sampling density")
    if top * math.log(s_max) >= math.log(sys.float_info.max):
        raise ValueError(
            f"the fit scale {s_max:.3g} overflows at degree {top}")
    gammas = _monomials_upto(k, top)
    exps = np.array(gammas).reshape(-1, k)

    tols = task.piece_tolerances or [task.tolerance] * len(task.pieces)
    # weighted least squares: a piece with a tighter tolerance gets
    # proportionally heavier rows, so the solver works in units of
    # residual-over-tolerance (measurement below stays unweighted)
    tol_min = min(tols)
    blocks = []                       # (per-axis matrices, rhs, dense axis)
    for (W, Z), ax, shape, keep, (K, gt), tol in zip(
            grids, axes, shapes, keeps, task.pieces, tols):
        w = tol_min / tol
        for op in ops:
            Vs = [_axis_matrix(a, s, task.budgets[-1], o, divisor.get(j))
                  for j, (a, s, o) in enumerate(zip(ax, scales, op.orders))]
            y = gt.diff(op).eval_product(W, Z).reshape(shape)
            if w != 1.0:
                Vs[keep] = Vs[keep] * w
                y = y * w
            blocks.append((Vs, y, keep))

    history, best, best_score = [], None, math.inf
    for budget in task.budgets:
        ncols = math.comb(budget + k, k)
        cols = exps[:ncols]
        rows, rhs, colmax = [], [], 0.0
        for Vs, y, keep in blocks:
            # the block is the columns `cols` of the Kronecker product of
            # Vs; QR every axis but `keep` and carry Q^H over to the rhs
            M, peak = None, 1.0
            for j, V in enumerate(Vs):
                V = V[:, :budget + 1]
                peak = peak * np.abs(V).max(axis=0)[cols[:, j]]
                if j != keep:
                    q, V = np.linalg.qr(V)
                    y = np.moveaxis(np.tensordot(q.conj(), y, (0, j)), 0, j)
                F = V[:, cols[:, j]]
                M = F if M is None else (M[:, None] * F).reshape(-1, ncols)
            rows.append(M)
            rhs.append(y.reshape(-1))
            colmax = np.maximum(colmax, peak)
        colscale = np.maximum(colmax, 1e-300)
        coefs_hat, _, _, svals = np.linalg.lstsq(
            np.concatenate(rows) / colscale, np.concatenate(rhs), rcond=1e-12)
        cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
        # a column that is 0 at every sample (an axis sampled only at 0)
        # gets 0, not lstsq's rounding noise over the 1e-300 floor; a
        # non-finite coefficient is the caller's to refuse
        with np.errstate(invalid="ignore", over="ignore"):
            coefs = np.where(colmax > 0, coefs_hat / colscale, 0)
        Q = _assemble(task, gammas[:ncols], coefs, scales, pref_poly)
        piece_res = _residuals(task, Q, verif)
        res = max(piece_res)
        history.append((budget, res))
        converged = all(r <= t for r, t in zip(piece_res, tols))
        cand = FitResult(Q, budget, res, piece_res, list(history), cond,
                         ncols, converged)
        # prefer the budget that best satisfies the per-piece tolerances
        score = max(r / t for r, t in zip(piece_res, tols))
        if converged or best is None or score < best_score:
            # a NaN score is kept as inf, so any finite one replaces it
            best, best_score = cand, score if score < math.inf else math.inf
        if converged:
            break
    best.residual_history = history
    return best

"""Single-polynomial gluing across disjoint product pieces.

A task carries pieces (product compact, target) and asks for one
polynomial close to every piece target on that piece's sampled distinguished
boundary, within its one tolerance field (one number, or one per piece),
optionally matching mixed partials and optionally constrained to a
multiple of (z_i0 - c)^e, c the task's center.  The divisor is baked into
the fit basis, so the least squares problem ranges over the cofactor only
and the returned block vanishes at c to the requested order by
construction.  A target is a Poly or a poly.BlockSum (a stage's target
minus the stream so far).

Numerics: the fit runs in a Vandermonde-with-Arnoldi basis (Brubeck,
Nakatsukasa and Trefethen, SIAM Review 63(2), 2021).  Each axis (w axes,
then z axes, in y = x - center) runs one Arnoldi process on the union of
the pieces' samples, started from (y_i0 / rho)^e on the divisor axis (rho
its largest sampled |y|) and from 1 on every other, with one
re-orthogonalisation per step; it is extended only as far as the largest
budget tried so far and stops early on an axis that runs out of distinct
samples.  A process orthonormalises every derivative order the fit
matches on its axis together, in one stacked inner product (as for
Sobolev orthogonal polynomials), and the one on the first z axis is
weighted by tol_min / tol_p on piece p, so the solve works in units of
residual over tolerance.  Columns are products of per-axis basis
polynomials over the graded exponents of total degree <= budget, so
budgets are nested and span what scaled monomials span.  Per budget one
lstsq call solves the weighted problem, and its singular values give the
recorded condition number.  With one axis the process's stacked rows are
the weighted design (the derivative family is downward closed), and
lstsq gets their K x K Gram system (K = degree + 1).  With two or more
axes the dense (w, z) design is never formed: sample grids are tensor
products, so each (piece, op) block of rows is a column subset of a
Kronecker product of per-axis matrices, each replaced by the R of its QR
(the rhs by Q^H times it), which keeps the minimizer and the singular
values.  The R factors are triangular, so of their product only the rows
(a_0 .. a_k-1) with sum a <= budget can be nonzero on the graded
columns, and only those are formed, a share that falls to 1/k! of the
box as the budget grows; the design bound (check_design_size) counts
the same rows.  Residuals are measured with the certificate's kernel
(verify.sup_ops) on a grid twice as dense, and recorded, not replayed.
The result is a poly.Block: the Hessenberg matrices and the
coefficients, never Taylor coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (GridSizeError, ProductCompact, check_gluing,
                       grid_density)
from .multiindex import DiffOp
from .poly import Axis, Block, BlockSum, graded_columns, start_rows
from .verify import sup_ops, worst

# entries of the reduced least-squares system at the top budget
MAX_DESIGN_ENTRIES = 8_000_000


def check_budgets(b):
    """Refuse budgets b unless a nonempty ascending list of naturals."""
    if (not isinstance(b, list) or not b
            or any(isinstance(v, bool) or not isinstance(v, int) or v < 0
                   for v in b)
            or sorted(b) != b):
        raise ValueError("the budgets must be a nonempty ascending list of "
                         f"natural numbers, got {b!r}")


@dataclass
class ApproxTask:
    """What to glue: pieces, degree budgets, tolerance, optional extras."""

    pieces: list                      # [(ProductCompact, Poly or BlockSum)]
    budgets: list
    tolerance: float | list           # one for all pieces, or one per piece
    r: int = 0
    w_compact: ProductCompact | None = None
    derivative_orders: tuple = ()
    prefactor: tuple | None = None    # (i0, exponent); (0, 0) by default
    center: tuple | None = None       # of the z axes; zeros by default
    n_per_factor: int = 0             # 0 picks a dimension-based default

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a task needs at least one piece")
        tols = self.tolerance
        self.tolerance = (list(tols) if isinstance(tols, (list, tuple))
                          else [tols] * len(self.pieces))
        if len(self.tolerance) != len(self.pieces):
            raise ValueError("need one tolerance per piece")
        if not all(0 < t < math.inf for t in self.tolerance):
            raise ValueError("every tolerance must be positive and finite, "
                             f"got {tols!r}")
        d = self.pieces[0][0].dim
        if d < 1:
            raise ValueError("pieces need at least one z coordinate")
        for K, g in self.pieces:
            if K.dim != d:
                raise ValueError("piece dimensions disagree")
            if (g.r, g.d) != (self.r, d):
                raise ValueError("target arity does not match the task")
        check_budgets(self.budgets)
        self.center = tuple(complex(v) for v in self.center or (0,) * d)
        if len(self.center) != d:
            raise ValueError("the center needs one entry per z coordinate")
        i0, e = self.prefactor = tuple(self.prefactor or (0, 0))
        if not (0 <= i0 < d):
            raise ValueError("prefactor coordinate out of range")
        if e < 0:
            raise ValueError("prefactor exponent must be a natural number")
        # downward closed, as a process stacks every order below its top:
        # only then is a one-axis Gram system the fit's normal equations
        listed = {DiffOp.identity(self.r + d), *self.derivative_orders}
        for op in self.derivative_orders:
            if len(op.orders) != self.r + d:
                raise ValueError("derivative arity does not match the task")
            for j, a in enumerate(op.orders):
                lower = op.orders[:j] + (a - 1,) + op.orders[j + 1:]
                if a and DiffOp(lower) not in listed:
                    raise ValueError(
                        "the derivative orders must be downward closed: "
                        f"{op.orders} is listed but not {lower}")

    @property
    def d(self) -> int:
        return self.pieces[0][0].dim


@dataclass
class FitResult:
    block: Block
    budget: int
    residual: float
    piece_residuals: list
    residual_history: list            # [(budget, residual)]
    cond: float
    converged: bool


def glue_target(pieces, i0: int, budgets, tolerance, **options) -> ApproxTask:
    """Validate the gluing geometry and package it as a task: the i0
    factors of the pieces must pass geometry.check_gluing; the remaining
    coordinates are unconstrained.
    """
    if not pieces:
        raise ValueError("nothing to glue")
    d = pieces[0][0].dim
    if not (0 <= i0 < d):
        raise ValueError("gluing coordinate out of range")
    factors = [K.factors[i0] for K, _ in pieces]
    check_gluing(factors, [f.sample_boundary(n=128) for f in factors], i0)
    return ApproxTask(list(pieces), list(budgets), tolerance, **options)


# ------------------------------------------------------------------ fit


def check_design_size(grids, derivative_orders, top: int):
    """Refuse a fit whose reduced least-squares system at the top budget
    would pass MAX_DESIGN_ENTRIES; grids are the pieces' (w grid, z grid)
    (fit_grids).  Per piece and operator (the identity and every other
    derivative order), one axis counts its n samples; with two or more
    axes every axis shrinks to its R factor of min(n_j, top + 1) rows, and
    of their Kronecker product _kron_solve keeps the rows (a_0 .. a_k-1)
    with sum a <= top, graded_columns of the R shape."""
    shapes = [[len(a) for a in _axes(wg, zg)] for wg, zg in grids]
    k = len(shapes[0])
    n_ops = 1 + sum(not op.is_identity for op in derivative_orders)
    n_cols = math.comb(top + k, k)
    # every piece keeps at least its row 0, so a design too wide for that
    # is refused before its rows are listed
    rows = len(shapes)
    if n_ops * rows * n_cols <= MAX_DESIGN_ENTRIES:
        rows = sum(len(graded_columns([min(n, top + 1) - 1 for n in shape],
                                      top)) if k > 1 else shape[0]
                   for shape in shapes)
    if n_ops * rows * n_cols > MAX_DESIGN_ENTRIES:
        raise GridSizeError("design matrix would be too large; lower the "
                            "budget or the sampling density")


# an Arnoldi step whose new direction keeps less than this share of
# t q_k has run out of distinct samples: its axis stops at that degree
BREAKDOWN = 1e-10


def check_w_compact(r: int, w_compact):
    """Refuse a w_compact that cannot carry the r parameters."""
    if r and (w_compact is None or w_compact.dim != r):
        got = "none" if w_compact is None else f"arity {w_compact.dim}"
        raise ValueError(f"r = {r} needs a w_compact of arity r, got {got}")


def fit_grids(compacts, r: int, w_compact, n_per_factor: int, density: int):
    """Per compact the (w grid, z grid) a fit samples, at `density` times
    the per-factor counts (n_per_factor, or the fit's default for 0); the
    w grid is None without parameters."""
    check_w_compact(r, w_compact)
    nz = grid_density("fit", "z", compacts[0].dim, n_per_factor) * density
    wg = None
    if r:
        nw = grid_density("fit", "w", r, n_per_factor)
        wg = w_compact.sample(n_per_factor=nw * density)
    return [(wg, K.sample(n_per_factor=nz)) for K in compacts]


def _axes(wg, zg) -> list:
    return [*(wg.per_factor if wg is not None else []), *zg.per_factor]


class _Arnoldi:
    """One axis's Arnoldi process on the fit samples y, extended on demand.

    Row k of Q stacks weight * q_k^(o), o = 0 .. order, at the samples
    (fit[o] views order o).  The stacked rows are orthonormal, of norm
    sqrt(len(y)), and the next direction is t q_k differentiated o times,
    t q_k^(o) + (o / scale) q_k^(o-1).  A weight constant on each piece
    commutes with multiplying by t and with that recurrence
    (poly.recur_rows), so H, scale and norm define the unweighted q_k
    that a Block evaluates.
    """

    def __init__(self, y, start: int, order: int, top: int, weight=1.0):
        n = len(y)
        peak = float(np.abs(y).max())
        self.scale = peak if peak > 0 else 1.0
        self.t = y / self.scale
        # the degree cannot pass the number of samples less one
        top = min(top, n - 1)
        self.H = np.zeros((top + 1, top), dtype=complex)
        self.Q = np.empty((top + 1, (order + 1) * n), dtype=complex)
        self.conj = np.empty_like(self.Q)         # Q's rows, conjugated
        self.fit = self.Q.reshape(top + 1, order + 1, n).transpose(1, 0, 2)
        # row 0 at norm 1 measures the stacked norm; then row 0 itself
        start_rows(self.fit, self.t, self.scale, start, 1.0)
        self.fit[:, 0] *= weight
        self.norm = float(np.linalg.norm(self.Q[0])) / math.sqrt(n)
        if not self.norm > 0:
            raise ValueError("the divisor vanishes at every sample")
        start_rows(self.fit, self.t, self.scale, start, self.norm)
        self.fit[:, 0] *= weight
        np.conjugate(self.Q[0], out=self.conj[0])
        self.tt = np.tile(self.t, order + 1) if order else self.t
        self.step = np.arange(1, order + 1)[:, None] / self.scale
        self.degree = 0
        self.exhausted = top == 0

    def extend(self, budget: int):
        Q, Qc, n = self.Q, self.conj, len(self.t)
        while self.degree < budget and not self.exhausted:
            k = self.degree
            v = self.tt * Q[k]
            if len(self.step):
                v.reshape(-1, n)[1:] += self.step * self.fit[:-1, k]
            before = np.linalg.norm(v)
            h = Qc[:k + 1] @ v / n
            v -= h @ Q[:k + 1]
            again = Qc[:k + 1] @ v / n            # re-orthogonalise once
            v -= again @ Q[:k + 1]
            after = np.linalg.norm(v)
            if after <= BREAKDOWN * before:
                self.exhausted = True
                break
            self.H[:k + 1, k] = h + again
            self.H[k + 1, k] = after / math.sqrt(n)
            Q[k + 1] = v / self.H[k + 1, k]
            np.conjugate(Q[k + 1], out=Qc[k + 1])
            self.degree = k + 1
            self.exhausted = k + 1 == len(self.H) - 1

    def axis(self, degree: int) -> Axis:
        return Axis(self.scale, self.norm, self.H[:degree + 1, :degree])


def _cond(svals) -> float:
    return float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf


def _gram_solve(proc: _Arnoldi, degree: int, y_w, exponent: int) -> tuple:
    """Coefficients and condition number of the one-axis weighted fit
    through `degree`: the process's stacked rows Q are the weighted design,
    so lstsq gets the Gram system Q^H Q c = Q^H y_w, whose singular values
    are the squares of the design's.  y_w, stacked as Q is, comes scaled
    by 2^-exponent, exactly, so that Q^H y_w cannot overflow on a huge
    target; the coefficients are scaled back, and may overflow to inf."""
    Q, Qc = proc.Q[:degree + 1], proc.conj[:degree + 1]
    coefs, _, _, svals = np.linalg.lstsq(Qc @ Q.T, Qc @ y_w)
    with np.errstate(over="ignore"):
        coefs = np.ldexp(coefs.view(float), exponent).view(complex)
    return coefs, math.sqrt(_cond(svals))


def _kron_solve(procs, spans, blocks, degs, budget: int) -> tuple:
    """Coefficients and condition number of the fit with two or more axes
    on the graded columns of `budget`: per (piece, op) block, the columns
    of the Kronecker product of the axis matrices, every one replaced by
    the R of its QR and the rhs by Q^H times it.  Each R is upper
    triangular or trapezoidal, so the product's row (a_0 .. a_k-1) vanishes
    on every graded column unless sum a <= budget: only those rows are
    formed, with the rhs entries they match, which keeps the minimizer and
    the singular values."""
    cols = graded_columns(degs, budget)
    rows, rhs = [], []
    for p, op, y in blocks:
        Rs = []
        for j, (proc, (lo, hi)) in enumerate(zip(procs, spans[p])):
            q, R = np.linalg.qr(proc.fit[op.orders[j]][:degs[j] + 1, lo:hi].T)
            y = np.moveaxis(np.tensordot(q.conj(), y, (0, j)), 0, j)
            Rs.append(R[:, cols[:, j]])
        kept = graded_columns([len(R) - 1 for R in Rs], budget)
        M = Rs[0][kept[:, 0]]
        for R, a in zip(Rs[1:], kept.T[1:]):
            M *= R[a]
        rows.append(M)
        rhs.append(y[tuple(kept.T)])
    coefs, _, _, svals = np.linalg.lstsq(np.concatenate(rows),
                                         np.concatenate(rhs))
    return coefs, _cond(svals)


def fit(task: ApproxTask) -> FitResult:
    """Sweep the budgets and return the first fit inside tolerance.

    A piece's residual is sup_ops of its target's BlockSum with the
    candidate as one more block, on a grid at twice the density.  If no
    budget converges the best attempt is returned with converged = False;
    if no attempt scores below infinity (NaN or overflowing residuals),
    the first one is.  A piece whose target is not finite on its fit
    samples is refused before any solve.
    """
    r, k = task.r, task.r + task.d
    grids, verif = (fit_grids([K for K, _ in task.pieces], r, task.w_compact,
                              task.n_per_factor, n) for n in (1, 2))
    axes = [_axes(wg, zg) for wg, zg in grids]
    # every piece target as a BlockSum, so a candidate block joins its
    # blocks and the certificate's kernel measures the residual
    targets = [gt if isinstance(gt, BlockSum) else BlockSum(gt, [])
               for _, gt in task.pieces]
    i0, e = task.prefactor
    ops = sorted({DiffOp.identity(k), *task.derivative_orders},
                 key=lambda op: op.orders)
    top = task.budgets[-1]
    check_design_size(grids, task.derivative_orders, top)
    shapes = [[len(a) for a in ax] for ax in axes]
    tols = task.tolerance
    # weighted least squares in units of residual over tolerance: the
    # first z axis's process starts from sqrt(w) t^e, sqrt(w) = tol_min /
    # tol_p on piece p (measurement below stays unweighted)
    sqrt_w = [min(tols) / tol for tol in tols]
    weight = np.repeat(sqrt_w, [len(ax[r]) for ax in axes])

    # one process per axis on the union of the pieces' samples (the pieces
    # share the w grid), in y = x - center; piece p owns the slice
    # spans[p][j] of axis j's samples
    shift = [0j] * r + list(task.center)
    procs, spans = [], [[] for _ in axes]
    for j in range(k):
        lo = 0
        for p, ax in enumerate(axes):
            spans[p].append((lo, lo + len(ax[j])))
            lo += len(ax[j]) if j >= r else 0
        union = np.concatenate([ax[j] for ax in (axes if j >= r else axes[:1])])
        procs.append(_Arnoldi(union - shift[j], e if j == r + i0 else 0,
                              max(op.orders[j] for op in ops), top,
                              weight if j == r else 1.0))

    blocks = []                       # (piece, op, weighted rhs), by op
    for op in ops:
        for p, ((wg, zg), gt, w) in enumerate(zip(grids, targets, sqrt_w)):
            # far outside its blocks' samples their recurrences overflow
            with np.errstate(over="ignore", invalid="ignore"):
                y = gt.diff(op).eval_product(wg, zg).reshape(shapes[p])
            if not np.isfinite(y).all():
                raise ValueError(f"piece {p}: the target is not finite on "
                                 "its fit samples")
            blocks.append((p, op, y * w))

    if k == 1:                        # the weighted rhs, stacked as Q is
        y_w = np.concatenate([y for _, _, y in blocks])
        exponent = math.frexp(np.abs(y_w.view(float)).max())[1]
        y_w = np.ldexp(y_w.view(float), -exponent).view(complex)
    history, best, best_score = [], None, math.inf
    for budget in task.budgets:
        for proc in procs:
            proc.extend(budget)
        degs = [min(budget, proc.degree) for proc in procs]
        if k == 1:
            coefs, cond = _gram_solve(procs[0], degs[0], y_w, exponent)
        else:
            coefs, cond = _kron_solve(procs, spans, blocks, degs, budget)
        block = Block(r, task.center, (i0, e), budget,
                      [proc.axis(g) for proc, g in zip(procs, degs)], coefs)
        # a non-finite coefficient scores inf or NaN here and is the
        # caller's to refuse; the targets are evaluated again per budget
        # rather than kept, since their grids are the fit's largest arrays
        with np.errstate(over="ignore", invalid="ignore"):
            piece_res = [sup_ops(BlockSum(gt.poly, gt.blocks + [block]),
                                 zv, wv, ops)
                         for gt, (wv, zv) in zip(targets, verif)]
        res = worst(piece_res)
        history.append((budget, res))
        converged = all(r <= t for r, t in zip(piece_res, tols))
        cand = FitResult(block, budget, res, piece_res, history, cond,
                         converged)
        # prefer the budget that best satisfies the per-piece tolerances
        score = worst(r / t for r, t in zip(piece_res, tols))
        if converged or best is None or score < best_score:
            # a NaN score is kept as inf, so any finite one replaces it
            best, best_score = cand, score if score < math.inf else math.inf
        if converged:
            break
    return best

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
samples.  Columns are products of per-axis basis polynomials over the
graded exponents of total degree <= budget, so budgets are nested and span
what scaled monomials span; derivative rows come from the differentiated
recurrence.  Sample grids are tensor products of axis samples, so each
block of rows is a column subset of a Kronecker product of per-axis
matrices; the dense (w, z) design is never formed.  Per budget, with two
or more axes, every axis is replaced by the R of its QR and the rhs by Q^H
times it, an orthonormal change of rows that keeps the dense problem's
minimizer and singular values; one lstsq call solves it, and its
singular values give the recorded condition number.  Residuals are
measured with the certificate's kernel (verify.sup_ops) on a grid twice as
dense, and recorded, not replayed.  The result is a poly.Block: the
Hessenberg matrices and the coefficients, never Taylor coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (GridSizeError, ProductCompact, check_gluing,
                       grid_density)
from .multiindex import DiffOp
from .poly import Axis, Block, BlockSum, graded_columns, recur_rows, start_rows
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
        for op in self.derivative_orders:
            if len(op.orders) != self.r + d:
                raise ValueError("derivative arity does not match the task")

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
    derivative order), with two or more axes every axis shrinks to its R
    factor of min(n_j, top + 1) rows; a single axis keeps its n."""
    shapes = [[len(a) for a in _axes(wg, zg)] for wg, zg in grids]
    k = len(shapes[0])
    n_ops = 1 + sum(not op.is_identity for op in derivative_orders)
    reduced_rows = sum(math.prod(min(n, top + 1) if k > 1 else n
                                 for n in shape) for shape in shapes)
    if n_ops * reduced_rows * math.comb(top + k, k) > MAX_DESIGN_ENTRIES:
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

    Row k of fit[o] holds the o-th derivative of q_k at the fit samples:
    fit[0] is the process's own orthogonal basis (rows of norm
    sqrt(len(y))), every other row comes from the recurrence (recur_rows)
    through the Hessenberg matrix H.
    """

    def __init__(self, y, start: int, order: int, top: int):
        peak = float(np.abs(y).max())
        self.scale = peak if peak > 0 else 1.0
        self.t = y / self.scale
        self.norm = float(np.linalg.norm(self.t ** start)) / math.sqrt(len(y))
        if not self.norm > 0:
            raise ValueError("the divisor vanishes at every sample")
        # the degree cannot pass the number of samples less one
        top = min(top, len(y) - 1)
        self.H = np.zeros((top + 1, top), dtype=complex)
        self.fit = [np.empty((top + 1, len(y)), dtype=complex)
                    for _ in range(order + 1)]
        self.conj = np.empty_like(self.fit[0])    # fit[0]'s rows, conjugated
        start_rows(self.fit, self.t, self.scale, start, self.norm)
        np.conjugate(self.fit[0][0], out=self.conj[0])
        self.degree = 0
        self.exhausted = top == 0

    def extend(self, budget: int):
        Q, Qc, n = self.fit[0], self.conj, self.fit[0].shape[1]
        k0 = self.degree
        while self.degree < budget and not self.exhausted:
            k = self.degree
            v = self.t * Q[k]
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
        if len(self.fit) > 1:                  # derivative rows to extend
            recur_rows(self.fit, self.t, self.scale, self.H, k0, self.degree,
                       1)

    def axis(self, degree: int) -> Axis:
        return Axis(self.scale, self.norm, self.H[:degree + 1, :degree])


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
    ops = [DiffOp.identity(k)] + [op for op in task.derivative_orders
                                  if not op.is_identity]
    top = task.budgets[-1]
    check_design_size(grids, task.derivative_orders, top)
    shapes = [[len(a) for a in ax] for ax in axes]

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
                              max(op.orders[j] for op in ops), top))

    tols = task.tolerance
    # weighted least squares: a piece with a tighter tolerance gets
    # proportionally heavier rows, so the solver works in units of
    # residual-over-tolerance (measurement below stays unweighted)
    tol_min = min(tols)
    blocks = []                       # (piece, op, weighted rhs)
    for p, ((wg, zg), gt, tol) in enumerate(zip(grids, targets, tols)):
        for op in ops:
            # far outside its blocks' samples their recurrences overflow
            with np.errstate(over="ignore", invalid="ignore"):
                y = gt.diff(op).eval_product(wg, zg).reshape(shapes[p])
            if not np.isfinite(y).all():
                raise ValueError(f"piece {p}: the target is not finite on "
                                 "its fit samples")
            blocks.append((p, op, y * (tol_min / tol)))

    history, best, best_score = [], None, math.inf
    for budget in task.budgets:
        for proc in procs:
            proc.extend(budget)
        degs = [min(budget, proc.degree) for proc in procs]
        cols = graded_columns(degs, budget)
        rows, rhs = [], []
        for p, op, y in blocks:
            # the block is the columns `cols` of the Kronecker product of
            # the axis matrices; with two or more axes QR every one and
            # carry Q^H over to the rhs (one axis is lstsq's own QR)
            M = None
            for j, (proc, (lo, hi)) in enumerate(zip(procs, spans[p])):
                V = proc.fit[op.orders[j]][:degs[j] + 1, lo:hi].T
                if k > 1:
                    q, V = np.linalg.qr(V)
                    y = np.moveaxis(np.tensordot(q.conj(), y, (0, j)), 0, j)
                if j == 0:
                    V = V * (tol_min / tols[p])
                F = V[:, cols[:, j]]
                M = F if M is None else (M[:, None] * F).reshape(-1, len(cols))
            rows.append(M)
            rhs.append(y.reshape(-1))
        coefs, _, _, svals = np.linalg.lstsq(np.concatenate(rows),
                                             np.concatenate(rhs))
        cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
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

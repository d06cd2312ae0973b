"""Single-polynomial gluing across disjoint product pieces.

A task carries pieces (product compact, polynomial target) and asks for one
polynomial close to every piece target on that piece's sampled distinguished
boundary, optionally matching mixed partials and optionally constrained to a
multiple of (z_i0 - c)^e.  The divisor is baked into the fit basis, so the
least squares problem ranges over the cofactor only and the returned
polynomial vanishes at c to the requested order by construction.

Numerics: basis columns are products of per-coordinate scaled monomials
(x_j / s_j)^g_j with s_j the largest sampled magnitude of coordinate j, so
on the grid every monomial column has unit sup and the Vandermonde growth
stays tied to the budget, not the domain radius.  Columns are rescaled to
unit max before the solve and the truncated-SVD solution (lstsq with a hard
rcond) absorbs whatever rank deficiency the clustered samples produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    GridSizeError,
    ProductCompact,
    enclosing_disk,
    sampled_min_distance,
)
from .multiindex import DiffOp, Enumeration
from .poly import Poly

MAX_DESIGN_ENTRIES = 25_000_000


def _monomials_upto(k: int, budget: int):
    """Joint exponent tuples with total degree <= budget, graded order."""
    enum = Enumeration(k, "graded-lex")
    count = math.comb(budget + k, k)
    return [enum.unrank(i) for i in range(count)]


def _auto_z_count(d: int) -> int:
    return {1: 400, 2: 96, 3: 28}.get(d, 12)


def _auto_w_count(r: int) -> int:
    return {1: 48, 2: 12}.get(r, 8)


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
    meta: dict = field(default_factory=dict)

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
                min_gap: float = 0.0, n_per_factor: int = 0,
                piece_tolerances=None) -> ApproxTask:
    """Validate the gluing geometry and package it as a task.

    The i0 factors of distinct pieces must stay a positive sampled distance
    apart and each must keep its complement connected; the remaining
    coordinates are only recorded through a shared enclosing ball.
    """
    if not pieces:
        raise ValueError("nothing to glue")
    d = pieces[0][0].dim
    if not (0 <= i0 < d):
        raise ValueError("gluing coordinate out of range")
    gaps = []
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
            g = sampled_min_distance(Ka, Kb)
            if g <= min_gap:
                raise ValueError(
                    f"pieces {a} and {b} are only {g:.3g} apart on "
                    f"coordinate {i0} (need > {min_gap})")
            gaps.append(g)
    balls = {}
    for i in range(d):
        if i != i0:
            balls[str(i)] = enclosing_disk(
                [K.factors[i] for K, _ in pieces]).to_json()
    meta = {"i0": i0, "min_gap": min(gaps) if gaps else math.inf,
            "balls": balls}
    return ApproxTask(list(pieces), list(budgets), tolerance, r=r,
                      w_compact=w_compact,
                      derivative_orders=tuple(derivative_orders),
                      prefactor=prefactor, n_per_factor=n_per_factor,
                      piece_tolerances=piece_tolerances, meta=meta)


# ------------------------------------------------------------------ fit


def _task_grids(task: ApproxTask, density: int = 1):
    """Per-piece (W, Z) sample columns at the task's density."""
    d = task.d
    nz = (task.n_per_factor or _auto_z_count(d)) * density
    if task.r == 0:
        W = np.zeros((1, 0), dtype=complex)
    else:
        if task.w_compact is None or task.w_compact.dim != task.r:
            raise ValueError("parameterized task needs a w compact of arity r")
        nw = (task.n_per_factor or _auto_w_count(task.r)) * density
        W = task.w_compact.sample(n_per_factor=nw).points
    out = []
    for K, _ in task.pieces:
        Z = K.sample(n_per_factor=nz).points
        out.append((W, Z))
    return out


def _joint_points(W: np.ndarray, Z: np.ndarray) -> np.ndarray:
    # row-major (w outer, z inner) to match eval_product flattening
    nw, nz = len(W), len(Z)
    left = np.repeat(W, nz, axis=0)
    right = np.tile(Z, (nw, 1))
    return np.concatenate([left, right], axis=1)


def _design_block(pts, gammas, index, scales, pref):
    """Columns of scaled monomials on pts, times the prefactor values."""
    if len(pts) * len(gammas) > MAX_DESIGN_ENTRIES:
        raise GridSizeError("design matrix would be too large; lower the "
                            "budget or the sampling density")
    scaled = pts / scales
    A = np.empty((len(pts), len(gammas)), dtype=complex)
    A[:, 0] = 1.0
    for col, g in enumerate(gammas):
        if col == 0:
            continue
        j = next(i for i, v in enumerate(g) if v > 0)
        parent = list(g)
        parent[j] -= 1
        A[:, col] = A[:, index[tuple(parent)]] * scaled[:, j]
    if pref is not None:
        i0, c, e = pref
        A *= ((pts[:, [i0]] - c) ** e)
    return A


def _column_polys(task, gammas, scales, pref_poly):
    """The basis as Poly objects; only needed for derivative rows."""
    r, d = task.r, task.d
    cols = []
    for g in gammas:
        denom = 1.0
        for v, s in zip(g, scales):
            denom *= s ** v
        mono = Poly.monomial(r, d, g[:r], g[r:], 1.0 / denom)
        cols.append(mono * pref_poly if pref_poly is not None else mono)
    return cols


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
    ops = [op for op in task.derivative_orders if not op.is_identity]
    out = []
    for (W, Z), (K, g) in zip(grids, task.pieces):
        delta = Q - g
        worst = float(np.abs(delta.eval_product(W, Z)).max())
        for op in ops:
            worst = max(worst, float(
                np.abs(delta.diff(op).eval_product(W, Z)).max()))
        out.append(worst)
    return out


def fit(task: ApproxTask) -> FitResult:
    """Sweep the budgets and return the first fit inside tolerance.

    Residuals are measured on an independent grid at twice the sampling
    density, evaluated through the assembled polynomial so that reported
    numbers include reconstruction rounding.  If no budget converges the
    best attempt is returned with converged = False.
    """
    r, d, k = task.r, task.d, task.r + task.d
    grids = _task_grids(task)
    verif = _task_grids(task, density=2)

    pref = None
    pref_poly = None
    if task.prefactor is not None:
        i0, c, e = task.prefactor
        pref = (r + i0, complex(c), int(e))
        pref_poly = (Poly.z_var(i0, r, d) - complex(c)) ** e if e > 0 else None
        if e == 0:
            pref = None

    pts_blocks = [_joint_points(W, Z) for W, Z in grids]
    all_pts = np.concatenate(pts_blocks, axis=0)
    scales = np.maximum(np.abs(all_pts).max(axis=0), 1e-9) if k else np.ones(0)

    b_max = task.budgets[-1]
    gammas = _monomials_upto(k, b_max)
    index = {tuple(g): i for i, g in enumerate(gammas)}

    blocks = [_design_block(p, gammas, index, scales, pref)
              for p in pts_blocks]
    rhs = [ (gt.eval_product(W, Z)).reshape(-1)
            for (W, Z), (K, gt) in zip(grids, task.pieces)]

    block_piece = list(range(len(task.pieces)))
    ops = [op for op in task.derivative_orders if not op.is_identity]
    if ops:
        col_polys = _column_polys(task, gammas, scales, pref_poly)
        for pi, ((W, Z), (K, gt)) in enumerate(zip(grids, task.pieces)):
            for op in ops:
                A_op = np.stack(
                    [cp.diff(op).eval_product(W, Z).reshape(-1)
                     for cp in col_polys], axis=1)
                blocks.append(A_op)
                rhs.append(gt.diff(op).eval_product(W, Z).reshape(-1))
                block_piece.append(pi)

    tols = task.piece_tolerances or [task.tolerance] * len(task.pieces)
    # weighted least squares: a piece with a tighter tolerance gets
    # proportionally heavier rows, so the solver works in units of
    # residual-over-tolerance (measurement below stays unweighted)
    tol_min = min(tols)
    for i, pi in enumerate(block_piece):
        w = tol_min / tols[pi]
        if w != 1.0:
            blocks[i] = blocks[i] * w
            rhs[i] = rhs[i] * w

    A_full = np.concatenate(blocks, axis=0)
    b = np.concatenate(rhs)
    history = []
    best = None
    best_score = math.inf
    for budget in task.budgets:
        ncols = math.comb(budget + k, k)
        A = A_full[:, :ncols]
        colscale = np.maximum(np.abs(A).max(axis=0), 1e-300)
        coefs_hat, _, _, svals = np.linalg.lstsq(A / colscale, b, rcond=1e-12)
        cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
        coefs = coefs_hat / colscale
        Q = _assemble(task, gammas[:ncols], coefs, scales, pref_poly)
        piece_res = _residuals(task, Q, verif)
        res = max(piece_res)
        history.append((budget, res))
        converged = all(r <= t for r, t in zip(piece_res, tols))
        cand = FitResult(Q, budget, res, piece_res, list(history), cond,
                         ncols, converged)
        # prefer the budget that best satisfies the per-piece tolerances
        score = max(r / t for r, t in zip(piece_res, tols))
        if score < best_score:
            best, best_score = cand, score
        if converged:
            best = cand
            break
    best.residual_history = history
    return best


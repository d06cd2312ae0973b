"""Direct evaluation of the universality membership predicates.

Everything a constructed stream claims can be re-asked of an explicit
polynomial: does the partial sum at rank n imitate the j-th catalog
polynomial on the m-th outer compact (check_E), and does it return to the
candidate itself on the inner exhaustion (check_F)?  Both predicates work
on sampled grids and always report the achieved sup next to the boolean,
so the rigor gap of sampling stays visible.  The catalog realizes "every
polynomial with rational coefficients" through one documented pairing,
slice_AD_residual gives a cheap non-holomorphy indicator for function
tables on product compacts, and verify_certificate replays a finished
certificate against its coefficient stream.

This module also holds the stage-measurement kernel (sup_ops,
variant_ops, certify_stages), so a certificate is written and re-checked
by the same code: certify_stages measures sums of whole stream blocks
(poly.BlockSum), center_sups the predicates' centers as lanes of dense
coefficients.
Every sup fold carries a NaN through (worst), so a NaN sup fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import (
    DomainProduct,
    ProductCompact,
    center_grid,
    check_inner,
    check_outer,
    enumerate_Tm,
    exhaustion_M,
    grid_density,
    sup_norm,
)
from .multiindex import (Enumeration, IndexSet, cantor_unpair, check_int,
                         complex_pairs, family_Fl)
from .poly import (MAX_DENSE, BlockSum, CoefficientStream, Poly, diff_lanes,
                   eval_lanes, joint_dense, partial_sum_lanes)
from .poly import partial_sum  # noqa: F401  (a lookup site of bench/tracer.py)

VARIANTS = ("plain", "strong", "infty")
# verify refuses every other format: v1 sups do not replay within 1e-12,
# v2 records hold fields that v3 dropped, and v3 measured Taylor
# coefficients where v4 measures Arnoldi blocks
CERT_FORMAT = "taylorlab-certificate-v4"
# what certify_stages reads from a record, and what it derives into it
STAGE_INPUTS = ("lambda", "target", "outer", "inner", "tolerance")
STAGE_MEASURED = ("capture_index", "divisor_exponent", "budget", "n_columns",
                  "max_degree", "density", "e_side_error", "f_side_error",
                  "pass_e", "pass_f")
# the v4 schema: construct writes exactly these keys, verify accepts no other
CERT_KEYS = frozenset(("header", "stages", "summary", "sha256"))
HEADER_KEYS = frozenset("format name enumeration d r center mu variant l "
                        "domain w_compact cert_density".split())
RECORD_KEYS = frozenset(STAGE_INPUTS + STAGE_MEASURED + tuple(
    "stage cond converged fit_residual_inner fit_residual_outer "
    "fit_tolerance_inner fit_tolerance_outer".split()))
SUMMARY_KEYS = frozenset("stages frontier final_degree final_term_count "
                         "final_capture e_side_max f_side_max all_pass "
                         "aborted".split())
# far above the l <= 2 (at most 10 operators) of every scenario and test
MAX_FAMILY_OPS = 1_000


class VerificationRefused(ValueError):
    """A certificate and a stream that do not belong together."""


# ------------------------------------------------------------ the catalog


def _rational(code: int) -> float:
    """code -> num / den with num zigzagging through 0, -1, 1, -2, 2, .."""
    a, b = cantor_unpair(code)
    num = ((a + 1) // 2) * (-1 if a % 2 else 1)
    return num / (b + 1)


def catalog_poly(j: int, r: int = 0, d: int = 1) -> Poly:
    """The j-th polynomial with rational-coordinate coefficients.

    Pairing, fixed once and documented here: j - 1 unpairs into (L, c);
    c unfolds into L + 1 coefficient codes, one per monomial, attached to
    the first L + 1 graded-lex exponents over the joint (w, z) coordinates;
    each coefficient code unpairs into real/imaginary rational codes, and a
    rational code unpairs into a zigzag integer numerator (0, -1, 1, -2,
    2, ..) and a denominator b + 1.  Every finite polynomial with rational
    coordinates appears: pad its coefficient list with zeros to any longer
    graded-lex prefix and each padding gives another index mapping to it.
    j = 1 is the zero polynomial.
    """
    if j < 1:
        raise ValueError("catalog index starts at 1")
    if r < 0 or d < 0 or r + d == 0:
        raise ValueError("catalog needs at least one coordinate")
    L, rest = cantor_unpair(j - 1)
    joint = Enumeration(r + d, "graded-lex")
    out = Poly.zero(r, d)
    # unfold the codes one at a time; once the rest is 0, so is every code
    # after it, so a huge j decodes in O(log log j) steps, not L + 1
    for t in range(L + 1):
        if rest == 0:
            break
        code, rest = cantor_unpair(rest) if t < L else (rest, 0)
        u, v = cantor_unpair(code)
        coeff = complex(_rational(u), _rational(v))
        if coeff == 0:
            continue
        m = joint.unrank(t)
        out = out + Poly.monomial(r, d, m[:r], m[r:], coeff)
    return out


# ------------------------------------------------------ measurement kernel


def variant_ops(variant: str, r: int, d: int, l: int):
    """(E-side ops, F-side ops) of a variant with derivative order bound l.

    strong takes the order-l family on both sides, infty on the F-side
    only, plain on neither; l = 0 means no derivatives either way.  A
    variant outside VARIANTS, and a family past MAX_FAMILY_OPS, are
    refused before anything is measured.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "plain" or l <= 0:
        return [], []
    if math.comb(l + r + d, r + d) > MAX_FAMILY_OPS:
        raise ValueError("the derivative order bound l gives more than "
                         f"{MAX_FAMILY_OPS} operators")
    ops = family_Fl(r, d, l)
    return (ops if variant == "strong" else []), ops


def worst(sups) -> float:
    """The largest of the sups, 0.0 for none; a NaN among them is the
    result, so a NaN sup fails every tolerance."""
    return float(np.max(list(sups), initial=0.0))


def sup_ops(delta, zg, wg, ops) -> float:
    """Sampled sup of |delta| and of |D delta| over the non-identity ops;
    delta is a BlockSum (construct and verify; its poly goes through the
    lane kernels) or a Poly (the same kernels, one lane)."""
    return worst([sup_norm(delta.diff(op), zg, wg)
                  for op in ops if not op.is_identity]
                 + [sup_norm(delta, zg, wg)])


def center_sups(f: Poly, centers, n: int, enum: Enumeration, side) -> float:
    """Worst sup over expansion centers of one side (target, z-grid,
    w-grid, ops).

    The centers' rank-n partial sums come from partial_sum_lanes as lanes
    of dense arrays, measured in chunks of at most MAX_DENSE lanes x grid
    points (x dense size, when that is larger): the target's coefficients
    are subtracted from all lanes at once, each op is a dense
    falling-factorial slice (diff_lanes), and eval_lanes evaluates every
    lane.  When the cut drops nothing every lane holds f, so f is measured
    once.  Each center gets, bit for bit, sup_ops(S - target) of its
    partial sum S.
    """
    target, zg, wg, ops = side
    T = joint_dense(target)
    orders = [op.orders for op in ops if not op.is_identity]
    orders.append((0,) * (f.r + f.d))
    points = len(zg) * (len(wg) if wg is not None else 1)

    def sups(lanes):
        shape = np.maximum(lanes.shape[1:], T.shape)
        step = max(1, MAX_DENSE // max(points, math.prod(shape)))
        out = []
        for lo in range(0, len(lanes), step):
            part = lanes[lo:lo + step]
            D = np.zeros((len(part), *shape), dtype=complex)
            D[tuple(map(slice, part.shape))] = part
            D[(slice(None),) + tuple(map(slice, T.shape))] -= T
            out += [np.abs(eval_lanes(diff_lanes(D, o), f.r, wg, zg)).max()
                    for o in orders]
        return out

    return worst(v for lanes, cut in partial_sum_lanes(f, centers, n, enum)
                 for v in sups(lanes if cut else lanes[:1]))


def _compact(data, what: str, name: str, arity: int) -> ProductCompact:
    """A certificate's compact, refused unless of `arity`."""
    K = ProductCompact.from_json(data, what)
    if K.dim != arity:
        raise ValueError(f"{what} has {K.dim} factors, {name} = {arity}")
    return K


def certify_stages(stream: CoefficientStream, header: dict, stages: list,
                   aborted) -> dict:
    """Measure every stage record of a certificate on the finished stream
    and return the certificate's summary.

    Inputs: the header's variant, r, d, l, mu, domain, w_compact and
    cert_density (numbers as ints), each record's STAGE_INPUTS (the
    tolerance a float), and `aborted` (None, or why the schedule stopped early).  Record s's
    lambda must end stream block s and be mu's first member at or after
    the floor in block s's ledger.  The record gets its STAGE_MEASURED
    fields: block s's ledger (capture index, largest degree, 0 for zero
    blocks) and its divisor exponent, budget and column count, the
    density, the E-side sup (blocks 1..s against the target on `outer`)
    and the F-side sup (blocks s+1.. on `inner`), with pass flags.
    Blocks are evaluated through their recurrences; no Taylor coefficient
    is formed.  The summary adds the stream's frontier, its ledger's
    degree, term count and capture index, and the worst sups; all_pass
    needs no abort, one record per block, and every stage to pass.

    Every record is read and checked, in order, before any is measured, so
    a refusal names the first faulty record.  Each distinct compact is
    sampled once, and refused unless it has d factors (the header's
    w_compact, when r > 0: r factors) and, on its samples, passes
    geometry.check_outer or check_inner (once a side) against the header's
    domain (d factors) and the stream's center; that refusal names the
    stage.
    """
    r, d, l, density = (check_int(header[key], key)
                        for key in ("r", "d", "l", "cert_density"))
    e_ops, f_ops = variant_ops(header["variant"], r, d, l)
    mu = IndexSet.from_tag(header["mu"])
    nz = grid_density("certificate", "z", d, density)
    nw = grid_density("certificate", "w", r)
    wg = (_compact(header["w_compact"], "w_compact", "r", r).sample(nw)
          if nw else None)
    domain = DomainProduct.from_json(header["domain"])
    if domain.dim != d:
        raise ValueError(f"domain has {domain.dim} factors, d = {d}")
    blocks = [b.block for b in stream.blocks]

    # keyed by the compact's canonical JSON text, the form the hash covers:
    # there 1, 1.0 and true stay three values, so a compact that differs from
    # an earlier one only in a number's type is read, and refused, on its own
    grids, placed = {}, set()

    def sample(s, rec, side):
        key = json.dumps(rec[side], sort_keys=True)
        if key not in grids:
            K = _compact(rec[side], side, "d", d)
            grids[key] = K, K.sample(nz)
        K, grid = grids[key]
        if (side, key) not in placed:
            # the hypotheses the header's domain and center pose, on the
            # certificate's samples: each compact once a side
            try:
                if side == "outer":
                    check_outer(domain, K, grid.per_factor, header["variant"],
                                stream.center)
                else:
                    check_inner(domain, grid.per_factor, header["variant"])
            except ValueError as exc:
                raise ValueError(f"stage {s}: {exc}") from None
            placed.add((side, key))
        return grid

    work = []
    for s, rec in enumerate(stages, start=1):
        lam, tol = check_int(rec["lambda"], "lambda"), rec["tolerance"]
        if type(tol) is not float:
            raise ValueError(f"a stage tolerance must be a float, got {tol!r}")
        last = stream.blocks[s - 1] if s <= len(blocks) else None
        if last is None or last.n_max != lam:
            raise LookupError(f"lambda {lam} is not the last rank of stream "
                              f"block {s} (the stream has {len(blocks)})")
        if mu.next_at_or_after(last.ledger.floor) != lam:
            raise LookupError(f"lambda {lam} is not the first member of "
                              f"{mu.tag} at or after {last.ledger.floor}, "
                              "the larger of the capture index and one past "
                              "the previous lambda")
        zT, zI = sample(s, rec, "outer"), sample(s, rec, "inner")
        E = BlockSum(Poly.from_json(rec["target"]), blocks[:s])
        F = BlockSum(Poly.zero(r, d), blocks[s:])
        work.append((last, (E, zT, e_ops), (F, zI, f_ops)))

    # a block that overflows on a grid (a forged stream's, say) measures
    # inf or NaN there, and fails
    with np.errstate(over="ignore", invalid="ignore"):
        for rec, (last, *sides) in zip(stages, work):
            e, fv = (sup_ops(delta, zg, wg, ops) for delta, zg, ops in sides)
            b, tol = last.block, rec["tolerance"]
            rec.update(capture_index=last.ledger.capture, divisor_exponent=b.e,
                       budget=b.budget, n_columns=len(b.columns),
                       max_degree=max(last.ledger.degree, 0),
                       density={"nz_per_factor": nz, "nw_per_factor": nw,
                                "nz_points": len(sides[0][1]),
                                "nw_points": len(wg) if wg else 0},
                       e_side_error=e, f_side_error=fv,
                       pass_e=e <= tol, pass_f=fv <= tol)
    return {
        "stages": len(stages),
        "frontier": stream.frontier,
        "final_degree": stream.ledger.degree,
        "final_term_count": stream.ledger.terms,
        "final_capture": stream.ledger.capture,
        "e_side_max": worst(rec["e_side_error"] for rec in stages),
        "f_side_max": worst(rec["f_side_error"] for rec in stages),
        "all_pass": aborted is None and len(stages) == len(stream.blocks)
        and all(rec["pass_e"] and rec["pass_f"] for rec in stages),
        "aborted": aborted,
    }


# -------------------------------------------------------------- predicates


@dataclass(frozen=True)
class PredicateSpec:
    """Index bundle for one membership predicate.

    tau picks the parameter exhaustion compact, p the inner exhaustion
    (expansion centers), m the outer compact, j the catalog target, s the
    tolerance 1/s, n the partial-sum rank.  variant selects plain sups,
    derivative sups over the order-l family (strong), or derivative sups
    with closure-truncation grids (infty).  A fixed_center collapses the
    center set to one point.
    """

    tau: int = 1
    p: int = 1
    m: int = 1
    j: int = 1
    s: int = 1
    n: int = 0
    variant: str = "plain"
    l: int | None = None
    fixed_center: tuple | None = None

    def __post_init__(self):
        for name in ("tau", "p", "m", "j", "s"):
            v = getattr(self, name)
            if check_int(v, name) < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if check_int(self.n, "n") < 0:
            raise ValueError(f"n must be a natural number, got {self.n!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant != "plain":
            if self.l is None or check_int(self.l, "l") < 1:
                raise ValueError("derivative variants need l >= 1")
        elif self.l is not None:
            raise ValueError("l only applies to the strong/infty variants")
        if self.fixed_center is not None:
            object.__setattr__(self, "fixed_center",
                               tuple(complex(v) for v in self.fixed_center))

    def to_json(self) -> dict:
        out = {"tau": self.tau, "p": self.p, "m": self.m, "j": self.j,
               "s": self.s, "n": self.n, "variant": self.variant}
        if self.l is not None:
            out["l"] = self.l
        if self.fixed_center is not None:
            out["fixed_center"] = [[v.real, v.imag] for v in self.fixed_center]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "PredicateSpec":
        """The spec a JSON object describes; a key that names no field, and
        a fixed_center that is not a list of [re, im] pairs, are refused by
        name."""
        unknown = sorted(data.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown spec key {unknown[0]!r}")
        fc = data.get("fixed_center")
        if fc is not None:
            fc = tuple(complex_pairs(fc, "fixed_center"))
        return cls(**dict(data, fixed_center=fc))


def predicate_grids(kind: str, spec: PredicateSpec, domain: DomainProduct,
                    w_domain: DomainProduct | None = None, density: int = 0):
    """Sample sets for one predicate: (centers, w-grid, z-grid, info).

    E-kind z-grid is the m-th outer compact (built off the closures for the
    infty variant); F-kind is the p-th inner exhaustion, or the closure
    truncated at radius l for the infty variant.  The w-grid is the tau-th
    exhaustion of the parameter domain (same truncation rule), absent
    without parameters.  Centers sample the p-th inner exhaustion, or
    collapse to the spec's fixed center, which must be a point of the open
    domain.
    """
    if kind not in ("E", "F"):
        raise ValueError(f"predicate kind must be 'E' or 'F', got {kind!r}")
    fc = spec.fixed_center
    if fc is not None and len(fc) != domain.dim:
        raise ValueError(f"fixed_center has {len(fc)} coordinate(s), the "
                         f"domain {domain.dim} factor(s)")
    if fc is not None and not domain.contains(fc):
        raise ValueError("fixed_center must lie inside the domain")
    closed = spec.variant == "infty"
    nz = grid_density("predicate", "z", domain.dim, density)
    if kind == "E":
        zK = enumerate_Tm(domain, spec.m, closure_variant=closed)
    elif closed:
        zK = exhaustion_M(domain, spec.l, closure_variant=True)
    else:
        zK = exhaustion_M(domain, spec.p)
    zg = zK.sample(n_per_factor=nz)

    wg = None
    nw = grid_density("predicate", "w", w_domain.dim if w_domain else 0,
                      density)
    if nw:
        if closed and kind == "F":
            wK = exhaustion_M(w_domain, spec.l, closure_variant=True)
        else:
            wK = exhaustion_M(w_domain, spec.tau)
        wg = wK.sample(n_per_factor=nw)

    if fc is not None:
        centers = [fc]
    else:
        centers = center_grid(exhaustion_M(domain, spec.p))
    info = {"nz_per_factor": nz, "nw_per_factor": nw,
            "nz_points": len(zg), "nw_points": len(wg) if wg else 0,
            "n_centers": len(centers)}
    return centers, wg, zg, info


def _run_predicate(kind, f, spec, domain, w_domain, density):
    enum = Enumeration(f.d, "graded-lex")
    target = catalog_poly(spec.j, f.r, f.d) if kind == "E" else f
    centers, wg, zg, info = predicate_grids(kind, spec, domain, w_domain,
                                            density)
    e_ops, f_ops = variant_ops(spec.variant, f.r, f.d, spec.l or 0)
    ops = e_ops if kind == "E" else f_ops
    worst = center_sups(f, centers, spec.n, enum, (target, zg, wg, ops))
    return worst < 1.0 / spec.s, worst, info


def check_E(f: Poly, spec: PredicateSpec, domain: DomainProduct,
            w_domain: DomainProduct | None = None,
            density: int = 0) -> tuple[bool, float]:
    """Does the rank-n partial sum imitate the j-th catalog polynomial?

    Samples sup |D(S_n(f, w, zeta)(z) - f_j(w, z))| over centers zeta in
    the p-th inner compact (or the spec's fixed center), parameters w in
    the tau-th exhaustion of w_domain, points z in the m-th outer compact,
    and (strong variant) the derivative family of order l.  Partial sums
    follow the graded-lex enumeration.  Returns (sup < 1/s, sup).
    """
    passed, sup, _ = _run_predicate("E", f, spec, domain, w_domain, density)
    return passed, sup


def check_F(f: Poly, spec: PredicateSpec, domain: DomainProduct,
            w_domain: DomainProduct | None = None,
            density: int = 0) -> tuple[bool, float]:
    """Does the rank-n partial sum return to the candidate itself?

    Same sampling as check_E with f in place of the catalog target and the
    inner exhaustion as the z-grid; the infty variant instead sups the
    order-l derivative family over the closure truncated at radius l.
    Returns (sup < 1/s, sup).
    """
    passed, sup, _ = _run_predicate("F", f, spec, domain, w_domain, density)
    return passed, sup


def predicate_record(kind: str, f: Poly, spec: PredicateSpec,
                     domain: DomainProduct,
                     w_domain: DomainProduct | None = None,
                     density: int = 0) -> dict:
    """One JSON-ready result row: {spec, achieved, pass, grid_density}."""
    passed, sup, info = _run_predicate(kind, f, spec, domain, w_domain,
                                       density)
    return {"spec": dict(spec.to_json(), predicate=kind),
            "achieved": sup, "pass": passed, "grid_density": info}


# ----------------------------------------------------------- slice residual


def slice_AD_residual(fn, K: ProductCompact, axis: int,
                      density: int = 256, others_per_factor: int = 4) -> float:
    """Worst discrete Cauchy residual over slices along one coordinate.

    For each fixed choice of the other coordinates, values of the slice at
    interior probe points are predicted by trapezoid quadrature of the
    Cauchy integral over a concentric circle at 0.8 of the factor
    inradius; probes sit at the circle center and at half its radius.  The
    result is max |predicted - sampled|.  Holomorphic slices come back at
    quadrature accuracy; conj(z) leaves the probe offset itself, since its
    prediction is constant at conj(center).  Factors without interior
    along the axis are rejected.
    """
    if not 0 <= axis < K.dim:
        raise ValueError("axis out of range")
    if density < 8:
        raise ValueError("need at least 8 quadrature nodes")
    c, rho = K.factors[axis].interior_circle(0.8)
    theta = 2.0 * np.pi * np.arange(density) / density
    nodes = c + rho * np.exp(1j * theta)
    probes = np.concatenate(
        [[c], c + 0.5 * rho * np.exp(2j * np.pi * np.arange(8) / 8)])

    others = []
    for i, f in enumerate(K.factors):
        if i != axis:
            others.append([complex(z)
                           for z in f.sample_boundary(n=others_per_factor)])
    combos = [()]
    for col in others:
        combos = [pre + (z,) for pre in combos for z in col]

    worst = 0.0
    for combo in combos:
        def at(z, combo=combo):
            return complex(fn(combo[:axis] + (complex(z),) + combo[axis:]))

        vals = np.array([at(z) for z in nodes])
        for z0 in probes:
            pred = np.mean(vals * (nodes - c) / (nodes - z0))
            worst = max(worst, abs(pred - at(z0)))
    return float(worst)


# ------------------------------------------------------- certificate replay


def _agrees(recorded, derived) -> bool:
    """Floats within 1e-12 (a NaN never agrees), objects key by key, and
    anything else equal and of the same type."""
    if isinstance(derived, float):
        return isinstance(recorded, float) and abs(recorded - derived) <= 1e-12
    if isinstance(derived, dict):
        return (isinstance(recorded, dict) and recorded.keys() == derived.keys()
                and all(_agrees(recorded[k], v) for k, v in derived.items()))
    return type(recorded) is type(derived) and recorded == derived


@dataclass(frozen=True)
class Verdict:
    """What a replay found: whether the certificate agrees with its stream
    and whether it passes; true only when both hold."""

    agrees: bool
    all_pass: bool = False

    def __bool__(self):
        return self.agrees and self.all_pass


def verify_certificate(stream: CoefficientStream, cert) -> Verdict:
    """Re-derive a certificate's measurements and summary from its stream.

    certify_stages reruns on copies of each record's STAGE_INPUTS and on
    the recorded `aborted`.  The certificate agrees when its header,
    records and summary hold exactly the v4 keys (KeyError when one is
    missing), every record's `stage` is its 1-based position, and every
    re-derived STAGE_MEASURED field and the whole summary agree with the
    record (floats within 1e-12, anything else equal); it verifies when
    it agrees and all_pass holds.  A certificate of another format, or
    whose enumeration or center does not match the stream, is refused
    (VerificationRefused, not a Verdict); a loaded certificate with a
    top-level key outside CERT_KEYS, or whose stored whole-body hash no
    longer matches, disagrees immediately.
    """
    h = cert.header
    if h.get("format") != CERT_FORMAT:
        raise VerificationRefused(
            f"verification refused: certificate format {h.get('format')!r} "
            f"is not {CERT_FORMAT!r}; re-run construct on the scenario to "
            "re-certify")
    if h.get("enumeration") != stream.enum.scheme:
        raise VerificationRefused(
            "verification refused: certificate enumeration "
            f"{h.get('enumeration')!r} does not match the stream's "
            f"{stream.enum.scheme!r}")
    center = tuple(complex_pairs(h.get("center", []),
                                 "the certificate center"))
    if center != stream.center:
        raise VerificationRefused(
            "verification refused: certificate center does not match the "
            "stream's expansion center")

    if cert.extra_keys or (cert.stored_hash is not None
                           and cert.stored_hash != cert.sha256):
        return Verdict(False)
    stages, summary = cert.stages, cert.summary
    schema = [(h, HEADER_KEYS), (summary, SUMMARY_KEYS),
              *((rec, RECORD_KEYS) for rec in stages)]
    for doc, keys in schema:
        if keys - doc.keys():
            raise KeyError(", ".join(sorted(keys - doc.keys())))
    if any(doc.keys() != keys for doc, keys in schema):
        return Verdict(False)

    fresh = [{k: rec[k] for k in STAGE_INPUTS} for rec in stages]
    derived = certify_stages(stream, h, fresh, summary["aborted"])
    recorded = ([rec["stage"] for rec in stages]
                + [rec[k] for rec in stages for k in STAGE_MEASURED]
                + [summary[k] for k in SUMMARY_KEYS])
    again = (list(range(1, len(stages) + 1))
             + [rec[k] for rec in fresh for k in STAGE_MEASURED]
             + [derived[k] for k in SUMMARY_KEYS])
    return Verdict(all(map(_agrees, recorded, again)), derived["all_pass"])

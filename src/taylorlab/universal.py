"""Stagewise construction of universal coefficient streams.

Each stage appends one block of Taylor coefficients to an append-only
stream so that the partial sum at a prescribed rank looks like the stage's
target on a compact outside the domain while staying small on an inner
compact that exhausts the domain.  Blocks are multiples of (z_i0 - c_i0)^e
with e past the degree box of everything already frozen, which keeps every
earlier partial sum bit-identical and makes the stage cut an exact index
filter.

Certificate semantics: each stage's errors are re-measured on the finished
stream, so the E-side numbers double as a frozen-prefix check and the
F-side numbers quantify how much the later corrections disturb the earlier
truncations on their inner compacts.  Re-expanding a multi-stage stream
about a different interior point mixes astronomically large cross-terms
into low ranks, so varying-center sups are only offered for single-stage
runs; there the final rank captures the whole polynomial and the inner-side
error vanishes identically at every center.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass

from .geometry import (
    DomainProduct,
    ProductCompact,
    compact_from_json,
    enumerate_Tm,
    exhaustion_M,
    grid_density,
)
from .geometry import sup_norm  # noqa: F401  (a lookup site of bench/tracer.py)
from .mergelyan import fit, glue_target
from .multiindex import Enumeration, IndexSet, SparseIndexError, check_int
from .poly import CoefficientStream, Poly
from .poly import partial_sum  # noqa: F401  (a lookup site of bench/tracer.py)
from .verify import (CERT_FORMAT, VARIANTS, catalog_poly, certify_stages,
                     variant_ops)


@dataclass
class StageRequest:
    """One stage: look like `target` on `outer` (a compact with one factor
    kept away from the domain) while the finished stream stays close to the
    truncation on `inner`, both within the same tolerance."""

    target: Poly
    outer: ProductCompact
    inner: ProductCompact
    tolerance: float
    budgets: list

    def validate(self, domain: DomainProduct, r: int, variant: str):
        d = domain.dim
        if (self.target.r, self.target.d) != (r, d):
            raise ValueError("stage target arity does not match the plan")
        if self.outer.dim != d or self.inner.dim != d:
            raise ValueError("stage compacts must match the domain dimension")
        i0 = self.outer.disjoint_factor
        if i0 is None:
            raise ValueError("the outer compact needs a flagged factor that "
                             "stays off the domain")
        if not all(map(cmath.isfinite, self.target.terms.values())):
            raise ValueError("stage target coefficients must be finite")
        # (a non-finite inner factor fails the containment check below)
        for i, f in enumerate(self.outer.factors):
            if not all(map(cmath.isfinite, f.sample_boundary(n=128))):
                raise ValueError(f"outer factor {i} is not finite")
        if not (self.tolerance > 0 and math.isfinite(self.tolerance)):
            raise ValueError("stage tolerance must be positive and finite")
        b = self.budgets
        if (not isinstance(b, list) or not b
                or any(isinstance(v, bool) or not isinstance(v, int) or v < 0
                       for v in b)
                or sorted(b) != b):
            raise ValueError("stage budgets must be a nonempty ascending "
                             f"list of natural numbers, got {b!r}")

        # sampled separation checks; the fit would quietly produce garbage
        # on geometry that violates them
        dom = domain.factors[i0]
        K = self.outer.factors[i0]
        # the closure variant (seminorms on closure truncations) keeps outer
        # compacts off the domain closure and lets inner ones touch it
        slack = -1e-9 if variant == "infty" else 0.0
        for z in K.sample_boundary(n=128):
            if dom.contains(z, tol=slack):
                raise ValueError(
                    f"outer factor {i0} reaches into the domain near "
                    f"{complex(z):.4g}")
        probes = [dom.center_point()]
        for p in (1, 3, 6):
            probes.extend(dom.exhaustion_factor(p).sample_boundary(n=64))
        if any(K.contains(z) for z in probes):
            raise ValueError(
                f"outer factor {i0} overlaps the domain factor interior")
        for i, f in enumerate(self.inner.factors):
            for z in f.sample_boundary(n=128):
                if not domain.factors[i].contains(z, tol=slack):
                    raise ValueError(
                        f"inner factor {i} leaves the open domain near "
                        f"{complex(z):.4g}")


@dataclass
class StagePlan:
    domain: DomainProduct
    enum: Enumeration
    mu: IndexSet
    center: tuple
    requests: list
    r: int = 0
    w_compact: ProductCompact | None = None
    variant: str = "plain"
    l: int = 0
    fixed_center: bool = True
    name: str = "construction"
    seed: int = 0
    cert_density: int = 0


def plan_stages(domain, requests, enum=None, mu=None, center=None, r=0,
                w_compact=None, variant="plain", l=0, fixed_center=True,
                name="construction", seed=0, cert_density=0) -> StagePlan:
    """Validate a construction request and freeze it as a plan.

    Stages run in schedule order; the divisor exponents that keep each
    block past the previous capture index depend on fitted degrees and are
    assigned as the stages run (recorded per stage).  The inner-side error
    bookkeeping assumes the inner compacts are nested along the schedule,
    as an exhaustion is; the certificate measures the true sups either way.
    """
    d = domain.dim
    if d < 1:
        raise ValueError("the construction needs at least one z coordinate")
    enum = enum or Enumeration(d, "graded-lex")
    if enum.d != d:
        raise ValueError("enumeration dimension does not match the domain")
    mu = mu or IndexSet("all")
    center = tuple(complex(v) for v in (center or (0.0,) * d))
    if len(center) != d:
        raise ValueError("center must have one entry per z coordinate")
    if not domain.contains(center):
        raise ValueError("the reference center must lie inside the domain")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if l < 0:
        raise ValueError("derivative order bound must be a natural number")
    if r < 0:
        raise ValueError("parameter count must be a natural number")
    grid_density("certificate", "z", d, cert_density)  # refuse it up front
    if r > 0 and (w_compact is None or w_compact.dim != r):
        raise ValueError("parameterized plans need a w compact of arity r")
    if not requests:
        raise ValueError("a plan needs at least one stage")
    if not fixed_center and len(requests) > 1:
        raise ValueError(
            "varying-center sups are only supported for single-stage plans; "
            "later truncations explode away from the reference center")
    for req in requests:
        req.validate(domain, r, variant)
    return StagePlan(domain, enum, mu, center, list(requests), r, w_compact,
                     variant, int(l), bool(fixed_center), str(name),
                     int(seed), int(cert_density))


# ------------------------------------------------------------------ stages


def _stage_tolerances(requests):
    """Per-stage [inner, outer] fit tolerances.

    Half of each stage's tolerance goes to the outer fit (the other half is
    headroom for the denser certificate grid).  The inner piece of stage s
    perturbs the F-side of every stage before it (never its own, which only
    sees later corrections), so stages after the first get a geometric
    split of the earlier tolerances: the tail sum then stays under each of
    them.  The first stage's inner piece constrains nothing downstream and
    just keeps the start of the series tame.
    """
    T = len(requests)
    out = []
    for s, req in enumerate(requests, start=1):
        outer = 0.5 * req.tolerance
        earlier = [r.tolerance for r in requests[:s - 1]]
        inner = min(earlier) * 0.5 ** (T - s + 1) if earlier else outer
        out.append([min(inner, outer), outer])
    return out


def build_stage(stream: CoefficientStream, plan: StagePlan, req: StageRequest,
                stage_id: int, piece_tols: list) -> dict:
    """Fit one correction block, append it, and return the stage record;
    piece_tols are the [inner, outer] fit tolerances.

    The divisor exponent passes the total degree at the current frontier
    rank, so in a graded enumeration the new block's ranks land strictly
    beyond the frontier (and so past the frozen prefix's degree box, whose
    corner ranks at or below the frontier).
    """
    enum, center, r = stream.enum, stream.center, stream.r
    frontier = stream.frontier
    P = stream.poly()
    degs = P.z_degrees() or [0] * stream.d
    e = sum(enum.unrank(frontier)) + 1 if frontier >= 0 else 0

    i0 = req.outer.disjoint_factor
    c0 = center[i0]
    reach = [abs(complex(z) - c0)
             for z in req.outer.factors[i0].sample_boundary(n=128)]
    if min(reach) <= 1e-9:
        raise ValueError(
            f"stage {stage_id}: the divisor center {c0:.4g} touches the "
            "outer compact; its zero set would poison the fit")
    if e * math.log(max(reach)) >= math.log(sys.float_info.max):
        raise ValueError(
            f"stage {stage_id}: the divisor (z_{i0} - {c0:.4g})^{e} "
            "overflows on the outer compact")

    pieces = [(req.inner, Poly.zero(r, stream.d)), (req.outer, req.target - P)]
    task = glue_target(
        pieces, i0, req.budgets, max(piece_tols),
        r=r, w_compact=plan.w_compact,
        derivative_orders=variant_ops(plan.variant, r, stream.d, plan.l)[1],
        prefactor=(i0, c0, e), piece_tolerances=list(piece_tols))
    res = fit(task)
    if not all(map(cmath.isfinite, res.poly.terms.values())):
        raise ValueError(f"stage {stage_id}: the fit has a non-finite "
                         "coefficient")

    # (z_i0 - c0)^e divides the fit, so about the center every coefficient
    # below z_i0^e is 0; what re-centering leaves there is rounding, and
    # keeping it would touch the frozen prefix
    grouped: dict = {}
    for (we, ze), c in res.poly.shift_center(center).terms.items():
        if ze[i0] >= e:
            grouped.setdefault(ze, {})[(we, ())] = c
    coeffs = {}
    for ze, terms in grouped.items():
        cp = Poly(r, 0)
        cp.terms = terms
        coeffs[enum.rank(ze)] = cp
        degs = [max(a, v) for a, v in zip(degs, ze)]
    capture = enum.capture_index(tuple(degs))
    try:
        lam = plan.mu.next_at_or_after(capture)
    except SparseIndexError as exc:
        raise SparseIndexError(
            f"stage {stage_id}: the admissible index set has no member at or "
            f"after the capture rank {capture}") from exc

    stream.append_block(f"stage-{stage_id}", coeffs, lam)

    # the capture-rank truncation must reproduce the stream exactly; this is
    # the F-side of the stage predicate at the reference center, and by the
    # capture property it holds coefficient for coefficient
    cap_delta = stream.partial_sum(capture) - stream.poly()
    capture_residual = max((abs(v) for v in cap_delta.terms.values()),
                           default=0.0)

    return {
        "stage": stage_id,
        "lambda": lam,
        "capture_index": capture,
        "capture_residual": capture_residual,
        "divisor_exponent": e,
        "budget": res.budget,
        "n_columns": res.n_columns,
        "cond": res.cond,
        "converged": res.converged,
        "fit_residual_inner": res.piece_residuals[0],
        "fit_residual_outer": res.piece_residuals[1],
        "fit_tolerance_inner": piece_tols[0],
        "fit_tolerance_outer": piece_tols[1],
        "tolerance": req.tolerance,
        "target": req.target.to_json(),
        "outer": req.outer.to_json(),
        "inner": req.inner.to_json(),
        "max_degree": max(stream.poly().total_z_degree(), 0),
    }


# -------------------------------------------------------------- certificate


class Certificate:
    """Self-describing record of a finished construction.

    Carries the domain, enumeration, center, admissible index set and every
    stage's target, compacts and measured errors, so an independent checker
    can recompute the sups from the stream alone.  The hash covers the
    whole body; there are no timestamps, so a rerun of the same scenario is
    byte-identical.
    """

    def __init__(self, header: dict, stages: list, summary: dict):
        self.header = header
        self.stages = stages
        self.summary = summary

    def body(self) -> dict:
        return {"header": self.header, "stages": self.stages,
                "summary": self.summary}

    @property
    def sha256(self) -> str:
        blob = json.dumps(self.body(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_json(self) -> dict:
        out = self.body()
        out["sha256"] = self.sha256
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Certificate":
        if not isinstance(data["header"], dict):
            raise ValueError("certificate header must be an object")
        cert = cls(data["header"], data["stages"], data["summary"])
        cert.stored_hash = data.get("sha256")
        return cert

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["stage", "lambda", "e_side_error", "f_side_error",
                        "max_degree"])
            for s in self.stages:
                w.writerow([s["stage"], s["lambda"], repr(s["e_side_error"]),
                            repr(s["f_side_error"]), s["max_degree"]])


def run_construction(plan: StagePlan):
    """Run every stage, then measure and certify the finished stream.

    A stage the admissible index set cannot serve aborts the remaining
    schedule but still yields a partial certificate for what was built;
    a fit that misses its tolerance is recorded and construction goes on.
    """
    header = {
        "format": CERT_FORMAT,
        "name": plan.name,
        "enumeration": plan.enum.tag,
        "d": plan.domain.dim,
        "r": plan.r,
        "center": [[v.real, v.imag] for v in plan.center],
        "mu": plan.mu.tag,
        "variant": plan.variant,
        "l": plan.l,
        "fixed_center": plan.fixed_center,
        "domain": plan.domain.to_json(),
        "w_compact": plan.w_compact.to_json() if plan.w_compact else None,
        "seed": plan.seed,
        "cert_density": plan.cert_density,
    }
    stream = CoefficientStream(plan.enum, plan.center, plan.r)
    tols = _stage_tolerances(plan.requests)
    records = []
    aborted = None
    for idx, (req, tol) in enumerate(zip(plan.requests, tols), start=1):
        try:
            records.append(build_stage(stream, plan, req, idx, tol))
        except SparseIndexError as exc:
            aborted = {"stage": idx, "reason": str(exc)}
            break
    certify_stages(stream, header, records)

    final = stream.poly()
    summary = {
        "stages": len(records),
        "frontier": stream.frontier,
        "final_degree": final.total_z_degree(),
        "final_term_count": len(final.terms),
        "final_capture": plan.enum.capture_index(final.z_degrees())
        if not final.is_zero else 0,
        "e_side_max": max((r["e_side_error"] for r in records), default=0.0),
        "f_side_max": max((r["f_side_error"] for r in records), default=0.0),
        "all_pass": aborted is None and all(
            r["pass_e"] and r["pass_f"] for r in records),
        "aborted": aborted,
    }
    return stream, Certificate(header, records, summary)


# ---------------------------------------------------------------- scenarios


def _scenario_compact(spec, domain: DomainProduct, variant: str,
                      outer: bool) -> ProductCompact:
    """Resolve a scenario compact: canonical-family shorthand, a product
    record, or a bare planar compact for one-dimensional domains."""
    closure = variant == "infty"
    if isinstance(spec, dict) and spec.get("family") == "tm":
        return enumerate_Tm(domain, check_int(spec["m"], "m"), closure)
    if isinstance(spec, dict) and spec.get("family") == "mp":
        return exhaustion_M(domain, check_int(spec["p"], "p"), closure)
    if isinstance(spec, dict) and "factors" in spec:
        K = ProductCompact.from_json(spec)
    else:
        K = ProductCompact([compact_from_json(spec)])
    if outer and K.disjoint_factor is None:
        if K.dim == 1:
            K.disjoint_factor = 0
        else:
            raise ValueError("an outer compact on a multi-factor domain "
                             "must flag its disjoint factor")
    return K


def _scenario_target(spec, r: int, d: int) -> Poly:
    if isinstance(spec, str):
        if spec.startswith("catalog:"):
            return catalog_poly(int(spec.split(":", 1)[1]), r, d)
        raise ValueError(f"cannot resolve target {spec!r}")
    if isinstance(spec, dict) and "constant" in spec:
        re, im = spec["constant"]
        return Poly.constant(complex(re, im), r, d)
    return Poly.from_json(spec)


def plan_from_scenario(data: dict) -> StagePlan:
    """Build a plan from a parsed scenario file; a stage target written
    "catalog:j" is catalog_poly(j, r, d)."""
    domain = DomainProduct.from_json(data["domain"])
    d = domain.dim
    enum = Enumeration.from_tag(data.get("enumeration", "graded-lex"), d)
    mu = IndexSet.from_tag(data.get("mu", "mu:all"))
    center = [complex(re, im) for re, im in
              data.get("center", [[0.0, 0.0]] * d)]
    r, l, seed, cert_density = (check_int(data.get(key, 0), key) for key in
                                ("r", "l", "seed", "cert_density"))
    variant = data.get("variant", "plain")
    w_compact = (ProductCompact.from_json(data["w_compact"])
                 if data.get("w_compact") else None)
    requests = []
    for s in data["stages"]:
        requests.append(StageRequest(
            target=_scenario_target(s["target"], r, d),
            outer=_scenario_compact(s["outer"], domain, variant, outer=True),
            inner=_scenario_compact(s["inner"], domain, variant, outer=False),
            tolerance=float(s["tolerance"]),
            budgets=list(s["budgets"])))
    return plan_stages(
        domain, requests, enum=enum, mu=mu, center=center, r=r,
        w_compact=w_compact, variant=variant, l=l,
        fixed_center=bool(data.get("fixed_center", True)),
        name=data.get("name", "construction"), seed=seed,
        cert_density=cert_density)

"""Stagewise construction of universal coefficient streams.

Each stage appends one block (a poly.Block, in per-axis Arnoldi bases) to
an append-only stream so that the partial sum at a prescribed rank looks
like the stage's target on a compact outside the domain while staying
small on an inner compact that exhausts the domain.  Blocks are multiples
of (z_i0 - c_i0)^e with e past the degree box of everything already
frozen, which keeps every earlier partial sum bit-identical and makes each
stage cut fall between whole blocks.

Certificate semantics: each stage's errors are re-measured on the finished
stream, block by block through the recurrence, so the E-side numbers double
as a frozen-prefix check and the F-side numbers quantify how much the
later corrections disturb the earlier truncations on their inner
compacts.  A construction measures about its
one reference center; sups over varying centers are the predicates' own
(check_E and check_F in verify).
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DomainProduct,
    ProductCompact,
    check_keys,
    check_stage_geometry,
    check_unflagged,
    compact_from_json,
    enumerate_Tm,
    exhaustion_M,
    factor_samples,
    grid_density,
)
from .geometry import sup_norm  # noqa: F401  (a lookup site of bench/tracer.py)
from .mergelyan import (ApproxTask, check_budgets, check_design_size,
                        check_w_compact, fit, fit_grids)
from .mergelyan import glue_target  # noqa: F401  (a lookup site of bench/tracer.py)
from .multiindex import (Enumeration, IndexSet, SparseIndexError, check_int,
                         check_number, complex_pair, complex_pairs)
from .poly import BlockSum, CoefficientStream, Poly
from .poly import partial_sum  # noqa: F401  (a lookup site of bench/tracer.py)
from .verify import (CERT_FORMAT, CERT_KEYS, catalog_poly, certify_stages,
                     variant_ops)

# refused input: a missing key or entry, a bad type or value, an overflow
REFUSED = (LookupError, TypeError, ValueError, OverflowError)
# the keys of a scenario file and of each of its stages
SCENARIO_KEYS = frozenset("name domain enumeration mu center r l cert_density "
                          "fixed_center variant w_compact stages".split())
STAGE_KEYS = frozenset("target outer inner tolerance budgets".split())


@contextlib.contextmanager
def naming_stage(idx: int):
    """Put `stage idx: ` in front of a REFUSED error the block raises,
    keeping its type; a KeyError becomes a ValueError naming the key."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"stage {idx}: missing key {exc}") from exc
    except REFUSED as exc:
        raise type(exc)(f"stage {idx}: {exc}") from exc


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

    def validate(self, domain: DomainProduct, r: int, variant: str, center):
        """Refuse a stage the construction cannot serve."""
        d = domain.dim
        if (self.target.r, self.target.d) != (r, d):
            raise ValueError("the target's arity does not match the plan")
        if self.outer.dim != d or self.inner.dim != d:
            raise ValueError("the compacts must match the domain dimension")
        if not all(map(cmath.isfinite, self.target.terms.values())):
            raise ValueError("the target's coefficients must be finite")
        if not (self.tolerance > 0 and math.isfinite(self.tolerance)):
            raise ValueError("the tolerance must be positive and finite")
        check_budgets(self.budgets)
        check_unflagged(self.inner, "inner")
        # the fit would quietly produce garbage on geometry that breaks the
        # sampled checks, and on samples that float64 rounding collapses
        check_stage_geometry(domain, self.outer, self.inner, variant, center)


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
    name: str = "construction"
    cert_density: int = 0


def plan_stages(domain, requests, enum=None, mu=None, center=None, r=0,
                w_compact=None, variant="plain", l=0, name="construction",
                cert_density=0) -> StagePlan:
    """Validate a construction request and freeze it as a plan.

    Stages run in schedule order; the divisor exponents that keep each
    block past the previous capture index depend on fitted degrees and are
    assigned as the stages run (recorded per stage).  The inner-side error
    bookkeeping assumes the inner compacts are nested along the schedule,
    as an exhaustion is; the certificate measures the true sups either way.
    The geometry (the w compact's factors included), tolerances, budgets,
    design sizes and the variant's operator family are refused here,
    before any stage is fitted; a stage's refusal starts with `stage N: `.
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
    if l < 0:
        raise ValueError("derivative order bound must be a natural number")
    if r < 0:
        raise ValueError("parameter count must be a natural number")
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, got {name!r}")
    orders = variant_ops(variant, r, d, l)[1]   # refuse it and its family
    grid_density("certificate", "z", d, cert_density)  # refuse it up front
    check_w_compact(r, w_compact)
    if not requests:
        raise ValueError("a plan needs at least one stage")
    if w_compact is not None:
        check_unflagged(w_compact, "w_compact")
        factor_samples(w_compact, "w_compact")
    for idx, req in enumerate(requests, start=1):
        with naming_stage(idx):
            req.validate(domain, r, variant, center)
            check_design_size(fit_grids([req.inner, req.outer], r, w_compact,
                                        0, 1), orders, req.budgets[-1])
    return StagePlan(domain, enum, mu, center, list(requests), r, w_compact,
                     variant, int(l), name, int(cert_density))


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

    The stream gives the divisor exponent, past the total degree at the
    frontier rank, so in a graded enumeration the new block's ranks land
    beyond the frontier (and the frozen prefix's degree box), and lambda's
    floor (ledger_with).  The fit aims at the target minus the stream so
    far, evaluated block by block.
    """
    r, i0 = stream.r, req.outer.disjoint_factor
    blocks = [b.block for b in stream.blocks]
    pieces = [(req.inner, Poly.zero(r, stream.d)),
              (req.outer, BlockSum(req.target, blocks))]
    # the plan has checked the gluing geometry (check_stage_geometry)
    res = fit(ApproxTask(
        pieces, list(req.budgets), list(piece_tols),
        r=r, w_compact=plan.w_compact,
        derivative_orders=variant_ops(plan.variant, r, stream.d, plan.l)[1],
        prefactor=(i0, stream.next_exponent), center=stream.center))
    if not np.isfinite(res.block.coefs).all():
        raise ValueError("the fit has a non-finite coefficient")

    lam = plan.mu.next_at_or_after(stream.ledger_with(res.block).floor)
    stream.append_block(f"stage-{stage_id}", res.block, lam)
    return {
        "stage": stage_id,
        "lambda": lam,
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
        self.stored_hash = None   # from_json: the top level beside the body
        self.extra_keys = []

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
        """A missing key of CERT_KEYS is a KeyError; verify reads a key
        outside them as a mismatch."""
        cert = cls(data["header"], data["stages"], data["summary"])
        if not (isinstance(cert.header, dict) and isinstance(cert.summary, dict)
                and isinstance(cert.stages, list)
                and all(isinstance(rec, dict) for rec in cert.stages)):
            raise ValueError("a certificate's header and summary must be "
                             "objects and its stages a list of objects")
        cert.stored_hash = data["sha256"]
        cert.extra_keys = sorted(data.keys() - CERT_KEYS)
        return cert

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
    Any other refusal of a stage is raised with `stage N: ` in front.
    """
    header = {
        "format": CERT_FORMAT,
        "name": plan.name,
        "enumeration": plan.enum.scheme,
        "d": plan.domain.dim,
        "r": plan.r,
        "center": [[v.real, v.imag] for v in plan.center],
        "mu": plan.mu.tag,
        "variant": plan.variant,
        "l": plan.l,
        "domain": plan.domain.to_json(),
        "w_compact": plan.w_compact.to_json() if plan.w_compact else None,
        "cert_density": plan.cert_density,
    }
    stream = CoefficientStream(plan.enum, plan.center, plan.r)
    tols = _stage_tolerances(plan.requests)
    records = []
    aborted = None
    for idx, (req, tol) in enumerate(zip(plan.requests, tols), start=1):
        try:
            with naming_stage(idx):
                records.append(build_stage(stream, plan, req, idx, tol))
        except SparseIndexError as exc:
            aborted = {"stage": idx, "reason": str(exc)}
            break
    summary = certify_stages(stream, header, records, aborted)
    return stream, Certificate(header, records, summary)


# ---------------------------------------------------------------- scenarios


def _scenario_compact(spec, domain: DomainProduct, variant: str,
                      outer: bool) -> ProductCompact:
    """Resolve a scenario compact: canonical-family shorthand, a product
    record, or a bare planar compact for one-dimensional domains."""
    closure = variant == "infty"
    if isinstance(spec, dict) and spec.get("family") == "tm":
        check_keys(spec, {"family", "m"}, "tm")
        return enumerate_Tm(domain, check_int(spec["m"], "m"), closure)
    if isinstance(spec, dict) and spec.get("family") == "mp":
        check_keys(spec, {"family", "p"}, "mp")
        return exhaustion_M(domain, check_int(spec["p"], "p"), closure)
    if isinstance(spec, dict) and "factors" in spec:
        K = ProductCompact.from_json(spec, "outer" if outer else "inner")
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
    """A stage target: "catalog:j", {"constant": [re, im]} or a polynomial
    object; a wrong-typed one is refused naming its field."""
    if isinstance(spec, str):
        if spec.startswith("catalog:"):
            try:
                j = int(spec.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"target {spec!r} must be catalog:j with j "
                                 "an integer") from None
            return catalog_poly(j, r, d)
        raise ValueError(f"cannot resolve target {spec!r}")
    if not isinstance(spec, dict):
        raise ValueError('target must be "catalog:j", {"constant": [re, im]} '
                         f"or a polynomial object, got {spec!r}")
    if "constant" in spec:
        return Poly.constant(complex_pair(spec["constant"], "constant"), r, d)
    return Poly.from_json(spec)


def _check_float_range(value, path: str = ""):
    """Refuse an integer past the largest float, naming its field (such as
    stages[0].tolerance); JSON floats past it parse as inf, refused later."""
    if isinstance(value, dict):
        for key, v in value.items():
            _check_float_range(v, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _check_float_range(v, f"{path}[{i}]")
    elif isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{path} is too large for a float")


def plan_from_scenario(data: dict) -> StagePlan:
    """Build a plan from a parsed scenario file; a stage target written
    "catalog:j" is catalog_poly(j, r, d).  A stage entry that does not
    parse is refused with `stage N: ` in front, a missing key by name, and
    an unknown key, which would leave a default in place, by name too; an
    entry of the wrong JSON type (stages, a stage, w_compact, a product's
    factors) is refused by its field."""
    unknown = sorted(data.keys() - SCENARIO_KEYS)
    if unknown:
        raise ValueError(f"unknown scenario key {unknown[0]!r}")
    _check_float_range(data)
    domain = DomainProduct.from_json(data["domain"])
    d = domain.dim
    enum = Enumeration(d, data.get("enumeration", "graded-lex"))
    mu = IndexSet.from_tag(data.get("mu", "mu:all"))
    center = complex_pairs(data.get("center", [[0.0, 0.0]] * d), "center")
    r, l, cert_density = (check_int(data.get(key, 0), key) for key in
                          ("r", "l", "cert_density"))
    if data.get("fixed_center", True) is not True:
        raise ValueError("a construction is measured about its one center; "
                         "for sups over varying centers run `predicates` "
                         "on the stream")
    variant = data.get("variant", "plain")
    w_compact = (ProductCompact.from_json(data["w_compact"], "w_compact")
                 if data.get("w_compact") else None)
    if not isinstance(data["stages"], list):
        raise ValueError(f"stages must be a list, got {data['stages']!r}")
    requests = []
    for idx, s in enumerate(data["stages"], start=1):
        with naming_stage(idx):
            if not isinstance(s, dict):
                raise ValueError(f"a stage must be an object, got {s!r}")
            unknown = sorted(s.keys() - STAGE_KEYS)
            if unknown:
                raise ValueError(f"unknown key {unknown[0]!r}")
            requests.append(StageRequest(
                target=_scenario_target(s["target"], r, d),
                outer=_scenario_compact(s["outer"], domain, variant,
                                        outer=True),
                inner=_scenario_compact(s["inner"], domain, variant,
                                        outer=False),
                tolerance=check_number(s["tolerance"], "tolerance"),
                budgets=list(s["budgets"])))
    return plan_stages(
        domain, requests, enum=enum, mu=mu, center=center, r=r,
        w_compact=w_compact, variant=variant, l=l,
        name=data.get("name", "construction"), cert_density=cert_density)

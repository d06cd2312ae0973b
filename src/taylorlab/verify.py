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
center_sups, variant_ops, certify_stages) that the predicates, the
construction in universal and the certificate replay share, so a
certificate is written and re-checked by the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DomainProduct,
    ProductCompact,
    center_grid,
    enumerate_Tm,
    exhaustion_M,
    grid_density,
    sup_norm,
)
from .multiindex import (Enumeration, cantor_unpair, check_int, family_Fl,
                         tuple_unpair)
from .poly import CoefficientStream, Poly, partial_sum

VARIANTS = ("plain", "strong", "infty")
# v2: Horner evaluation and vectorised re-centering round differently from
# v1's monomial sums, so v1 sups do not replay within the 1e-12 window
CERT_FORMAT = "taylorlab-certificate-v2"
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
    L, c = cantor_unpair(j - 1)
    codes = tuple_unpair(c, L + 1)
    joint = Enumeration(r + d, "graded-lex")
    out = Poly.zero(r, d)
    for t, code in enumerate(codes):
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
    family past MAX_FAMILY_OPS is refused before it is built.
    """
    if variant == "plain" or l <= 0:
        return [], []
    if math.comb(l + r + d, r + d) > MAX_FAMILY_OPS:
        raise ValueError("the derivative order bound l gives more than "
                         f"{MAX_FAMILY_OPS} operators")
    ops = family_Fl(r, d, l)
    return (ops if variant == "strong" else []), ops


def sup_ops(delta: Poly, zg, wg, ops) -> float:
    """Sampled sup of |delta| and of |D delta| over the non-identity ops."""
    worst = sup_norm(delta, zg, wg)
    for op in ops:
        if not op.is_identity:
            worst = max(worst, sup_norm(delta.diff(op), zg, wg))
    return worst


def center_sups(f: Poly, centers, n: int, enum: Enumeration, sides) -> list:
    """Worst sup over expansion centers, one value per side.

    Each center gets one rank-n partial sum S of f; a side is a tuple
    (target, z-grid, w-grid, ops) and measures sup_ops(S - target).
    """
    worst = [0.0] * len(sides)
    for zeta in centers:
        S = partial_sum(f, zeta, n, enum)
        worst = [max(v, sup_ops(S - target, zg, wg, ops))
                 for v, (target, zg, wg, ops) in zip(worst, sides)]
    return worst


def certify_stages(stream: CoefficientStream, header: dict, stages: list):
    """Measure every stage record of a certificate on the finished stream.

    Inputs: the header's variant, r, d, l, w_compact, cert_density and
    fixed_center, and each record's lambda, target, outer, inner and
    tolerance.  Each record gets its density, its E-side sup (the rank-lambda
    truncation against the target on `outer`) and F-side sup (against the
    whole stream on `inner`) with their pass flags, and, when centers vary,
    both sups maxed over the center grid of `inner` (varying_center).
    """
    r, d = int(header["r"]), int(header["d"])
    e_ops, f_ops = variant_ops(header["variant"], r, d, int(header["l"]))
    nz = grid_density("certificate", "z", d, int(header["cert_density"]))
    nw = grid_density("certificate", "w", r)
    wg = (ProductCompact.from_json(header["w_compact"]).sample(n_per_factor=nw)
          if nw else None)
    final = stream.poly()
    for rec in stages:
        lam, tol = int(rec["lambda"]), float(rec["tolerance"])
        inner = ProductCompact.from_json(rec["inner"])
        zT = ProductCompact.from_json(rec["outer"]).sample(n_per_factor=nz)
        sides = [(Poly.from_json(rec["target"]), zT, wg, e_ops),
                 (final, inner.sample(n_per_factor=nz), wg, f_ops)]
        P = stream.partial_sum(lam)
        e, fv = (sup_ops(P - t, zg, w, ops) for t, zg, w, ops in sides)
        rec.update(density={"nz_per_factor": nz, "nw_per_factor": nw,
                            "nz_points": len(zT.points),
                            "nw_points": len(wg.points) if wg else 0},
                   e_side_error=e, f_side_error=fv,
                   pass_e=e <= tol, pass_f=fv <= tol)
        if not header["fixed_center"]:
            centers = center_grid(inner)
            ve, vf = center_sups(final, centers, lam, stream.enum, sides)
            rec["varying_center"] = {"n_centers": len(centers),
                                     "e_side_error": ve, "f_side_error": vf}
    return stages


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
        fc = data.get("fixed_center")
        if fc is not None:
            fc = tuple(complex(re, im) for re, im in fc)
        return cls(tau=data.get("tau", 1), p=data.get("p", 1),
                   m=data.get("m", 1), j=data.get("j", 1),
                   s=data.get("s", 1), n=data.get("n", 0),
                   variant=data.get("variant", "plain"),
                   l=data.get("l"), fixed_center=fc)


def predicate_grids(kind: str, spec: PredicateSpec, domain: DomainProduct,
                    w_domain: DomainProduct | None = None, density: int = 0):
    """Sample sets for one predicate: (centers, w-grid, z-grid, info).

    E-kind z-grid is the m-th outer compact (built off the closures for the
    infty variant); F-kind is the p-th inner exhaustion, or the closure
    truncated at radius l for the infty variant.  The w-grid is the tau-th
    exhaustion of the parameter domain (same truncation rule), absent
    without parameters.  Centers sample the p-th inner exhaustion, or
    collapse to the spec's fixed center.
    """
    if kind not in ("E", "F"):
        raise ValueError(f"predicate kind must be 'E' or 'F', got {kind!r}")
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

    if spec.fixed_center is not None:
        centers = [spec.fixed_center]
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
    (worst,) = center_sups(f, centers, spec.n, enum, [(target, zg, wg, ops)])
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


def verify_certificate(stream: CoefficientStream, cert) -> bool:
    """Recompute every stage predicate of a certificate from its stream.

    certify_stages reruns on copies of the record inputs.  Densities and
    pass flags must equal the recorded ones, varying_center must be present
    exactly when the header says centers vary (KeyError when missing), and
    each sup must land within 1e-12 of the recorded value and under the
    stage tolerance.  A certificate of another format, or whose
    enumeration or center does not match the stream, is refused
    (VerificationRefused, not False); a stored whole-body hash that no
    longer matches fails immediately.  A certificate with no stages
    verifies vacuously.
    """
    h = cert.header
    if h.get("format") != CERT_FORMAT:
        raise VerificationRefused(
            f"verification refused: certificate format {h.get('format')!r} "
            f"is not {CERT_FORMAT!r}; re-run construct on the scenario to "
            "re-certify")
    if h.get("enumeration") != stream.enum.tag:
        raise VerificationRefused(
            "verification refused: certificate enumeration "
            f"{h.get('enumeration')!r} does not match the stream's "
            f"{stream.enum.tag!r}")
    center = tuple(complex(re, im) for re, im in h.get("center", []))
    if center != stream.center:
        raise VerificationRefused(
            "verification refused: certificate center does not match the "
            "stream's expansion center")

    stored = getattr(cert, "stored_hash", None)
    if stored is not None and stored != cert.sha256:
        return False
    if not cert.stages:
        return True

    inputs = ("lambda", "target", "outer", "inner", "tolerance")
    fresh = certify_stages(stream, h, [{k: rec[k] for k in inputs}
                                       for rec in cert.stages])
    for new, rec in zip(fresh, cert.stages):
        density = {k: int(rec["density"][k]) for k in new["density"]}
        if (density, rec["pass_e"], rec["pass_f"]) != (
                new["density"], new["pass_e"], new["pass_f"]):
            return False
        pairs = [(new, rec)]
        if "varying_center" in new:
            vc = rec["varying_center"]
            if int(vc["n_centers"]) != new["varying_center"]["n_centers"]:
                return False
            pairs.append((new["varying_center"], vc))
        elif "varying_center" in rec:
            return False
        tol = float(rec["tolerance"])
        for a, b in pairs:
            for key in ("e_side_error", "f_side_error"):
                # a NaN anywhere fails
                if not (abs(a[key] - b[key]) <= 1e-12 and a[key] <= tol):
                    return False
    return True

"""Acceptance gate: ten criteria, one reported line each.

Every criterion re-derives its claim from scratch inside its own time
budget; nothing here trusts numbers cached by the other test modules.
Run with -s (or read the captured output) to see the per-criterion lines.
"""

import itertools
import json
import math
import os
import time

import numpy as np

from taylorlab.geometry import (
    Disk,
    DomainProduct,
    OpenDisk,
    OpenRect,
    ProductCompact,
    SlitAnnulus,
    cofinality_index,
    complement_escape,
    enumerate_Tm,
    exhaustion_M,
    outer_compacts,
    sup_norm,
)
from taylorlab.mergelyan import fit, glue_target
from taylorlab.multiindex import Enumeration, family_Fl
from taylorlab.poly import BlockSum, CoefficientStream, Poly, gamma, partial_sum
from taylorlab.universal import (
    Certificate,
    StageRequest,
    plan_from_scenario,
    plan_stages,
    run_construction,
)
from taylorlab.verify import (
    PredicateSpec,
    catalog_poly,
    check_E,
    check_F,
    predicate_grids,
    slice_AD_residual,
    verify_certificate,
)

from util import (
    fd_derivative,
    oracle_eval,
    oracle_partial_sum_value,
    random_point,
    random_poly,
    rel_err,
)

SCEN = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def _scenario(name):
    with open(os.path.join(SCEN, name)) as fh:
        return json.load(fh)


def _report(num, label, ok, budget_s, t0):
    dt = time.time() - t0
    line = (f"criterion {num:2d} [{label}]: "
            f"{'PASS' if ok and dt < budget_s else 'FAIL'} "
            f"({dt:.2f}s, budget {budget_s:.0f}s)")
    print(line)
    assert ok, line
    assert dt < budget_s, line


# 1 ------------------------------------------------------------------ algebra

def test_criterion_01_algebra():
    t0 = time.time()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(100):
        r = int(rng.integers(0, 3))
        d = int(rng.integers(1, 4))
        p = random_poly(rng, r, d, max_deg=6, nterms=10)
        zeta = random_point(rng, d)
        w = random_point(rng, r)
        y = random_point(rng, d)
        lhs = p.shift_center(zeta).eval(w, y)
        rhs = p.eval(w, tuple(a + b for a, b in zip(y, zeta)))
        ok = ok and rel_err(lhs, rhs) < 1e-10
    # gamma is linear in the function argument
    for _ in range(20):
        f = random_poly(rng, 1, 2, max_deg=4, nterms=6)
        g = random_poly(rng, 1, 2, max_deg=4, nterms=6)
        a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        w = random_point(rng, 1)
        zeta = random_point(rng, 2)
        m = tuple(int(v) for v in rng.integers(0, 4, 2))
        lin = gamma(a * f + b * g, w, zeta, m)
        split = a * gamma(f, w, zeta, m) + b * gamma(g, w, zeta, m)
        ok = ok and abs(lin - split) <= 1e-12 * max(1.0, abs(lin), abs(split))
    _report(1, "algebra", ok, 5.0, t0)


# 2 ------------------------------------------------------------------ capture

def test_criterion_02_capture():
    t0 = time.time()
    rng = np.random.default_rng(102)
    ok = True
    dropped_branch_ran = 0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        enum = Enumeration(d, "graded-lex")
        f = random_poly(rng, 0, d, max_deg=3, nterms=6)
        if f.is_zero:
            continue
        degs = f.z_degrees()
        n1 = enum.capture_index(degs)
        # brute-force scan over the whole degree box
        brute = max(enum.rank(m) for m in itertools.product(
            *[range(v + 1) for v in degs]))
        ok = ok and n1 == brute
        zeta = random_point(rng, d, radius=0.5)
        ok = ok and partial_sum(f, [zeta], n1, enum)[0] is f
        shifted = f.shift_center(zeta)
        corner = shifted.terms.get(((), enum.unrank(n1)), 0j)
        if corner != 0:
            dropped_branch_ran += 1
            ok = ok and partial_sum(f, [zeta], n1 - 1, enum)[0] != f
    ok = ok and dropped_branch_ran >= 10
    _report(2, "capture", ok, 5.0, t0)


# 3 ---------------------------------------------------------------- mergelyan

def test_criterion_03_mergelyan_two_disks():
    t0 = time.time()
    pieces = [(ProductCompact([Disk(0j, 0.5)]), Poly.zero(0, 1)),
              (ProductCompact([Disk(2 + 0j, 0.25)]), Poly.constant(1.0, 0, 1))]
    history = []
    for budget in (10, 20, 40, 60):
        res = fit(glue_target(pieces, 0, [budget], 1e-3))
        history.append(max(res.piece_residuals))
    ok = history[-1] < 1e-3
    ok = ok and all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    _report(3, "mergelyan", ok, 10.0, t0)


# 4 ----------------------------------------------------------- single stage

def test_criterion_04_single_stage():
    t0 = time.time()
    plan = plan_from_scenario(_scenario("seleznev.json"))
    stream, cert = run_construction(plan)
    (rec,) = cert.stages
    ok = cert.summary["all_pass"]
    ok = ok and rec["e_side_error"] < 1e-3
    # F-side at the reference center: capture makes the truncation exact
    ok = ok and rec["f_side_error"] <= 1e-10
    _report(4, "single stage", ok, 30.0, t0)


# 5 ------------------------------------------------------- two-stage conflict

def test_criterion_05_two_stage_conflict():
    t0 = time.time()
    data = _scenario("two_stage_conflict.json")
    stream, cert = run_construction(plan_from_scenario(data))
    r1, r2 = cert.stages
    K = ProductCompact.from_json(r1["outer"]).sample(n_per_factor=400)
    # the partial sums at the two stage ranks are the first block and both
    # blocks, measured through the blocks' recurrences
    b1, b2 = (b.block for b in stream.blocks)
    ok = sup_norm(BlockSum(Poly.constant(1.0, 0, 1), [b1]), K) < 1e-2
    ok = ok and sup_norm(BlockSum(Poly.constant(-1.0, 0, 1), [b1, b2]),
                         K) < 1e-2
    ok = ok and cert.summary["all_pass"]

    # the first stage alone produces bit-identical coefficients: the second
    # stage appended, never rewrote
    solo_data = dict(data, stages=[data["stages"][0]])
    solo_stream, solo_cert = run_construction(plan_from_scenario(solo_data))
    a, b = stream.blocks[0], solo_stream.blocks[0]
    ok = ok and a.n_max == b.n_max and a.block.to_json() == b.block.to_json()
    ok = ok and solo_cert.stages[0]["lambda"] == r1["lambda"]
    _report(5, "two-stage conflict", ok, 120.0, t0)


# 6 ------------------------------------------------------------ parameterized

def test_criterion_06_parameterized():
    t0 = time.time()
    plan = plan_from_scenario(_scenario("parameterized.json"))
    stream, cert = run_construction(plan)
    (rec,) = cert.stages
    ok = cert.summary["all_pass"] and rec["e_side_error"] < 1e-2
    ok = ok and rec["density"]["nw_points"] > 0  # genuinely an L x K grid
    _report(6, "parameterized", ok, 120.0, t0)


# 7 ------------------------------------------------------------ strong family

def test_criterion_07_strong_derivatives():
    t0 = time.time()
    plan = plan_from_scenario(_scenario("strong.json"))
    stream, cert = run_construction(plan)
    (rec,) = cert.stages
    final = stream.poly()
    target = Poly.constant(1.0, 0, 1)
    outer = ProductCompact.from_json(rec["outer"])
    zg = outer.sample(n_per_factor=400)
    value_sup = sup_norm(final - target, zg)
    (op,) = [o for o in family_Fl(0, 1, 1) if not o.is_identity]
    deriv_sup = sup_norm((final - target).diff(op), zg)
    ok = cert.summary["all_pass"]
    ok = ok and value_sup < 1e-1 and deriv_sup < 1e-1

    # analytic derivative against central differences, checked where the
    # derivative has O(1) magnitude (relative error is meaningless where
    # the function is flat to within the fit tolerance)
    dp = final.diff(op)
    ring = [1.2 * np.exp(2j * np.pi * k / 16) for k in range(16)]
    probes = [z for z in ring if abs(dp.eval((), (z,))) > 0.1]
    ok = ok and len(probes) >= 3
    for z0 in probes:
        fd = fd_derivative(lambda z: final.eval((), (z,)), z0)
        ok = ok and rel_err(dp.eval((), (z0,)), fd) < 1e-6
    _report(7, "strong derivatives", ok, 120.0, t0)


# 8 --------------------------------------------------------- oracle agreement

def test_criterion_08_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(108)
    dom = DomainProduct([OpenDisk(0j, 1.0)])
    enum = Enumeration(1, "graded-lex")
    ok = True
    for _ in range(20):
        f = random_poly(rng, 0, 1, max_deg=4, nterms=5)
        spec = PredicateSpec(p=int(rng.integers(1, 4)),
                             m=int(rng.integers(1, 5)),
                             j=int(rng.integers(1, 60)),
                             s=int(rng.integers(1, 9)),
                             n=int(rng.integers(0, 7)))
        centers, _, zgE, _ = predicate_grids("E", spec, dom, density=10)
        _, _, zgF, _ = predicate_grids("F", spec, dom, density=10)
        target = catalog_poly(spec.j, 0, 1)
        refE = refF = 0.0
        for zeta in centers:
            for z in zgE.points:
                s = oracle_partial_sum_value(f, (), zeta, tuple(z), spec.n, enum)
                refE = max(refE, abs(s - oracle_eval(target, (), tuple(z))))
            for z in zgF.points:
                s = oracle_partial_sum_value(f, (), zeta, tuple(z), spec.n, enum)
                refF = max(refF, abs(s - oracle_eval(f, (), tuple(z))))
        ok = ok and abs(check_E(f, spec, dom, density=10)[1] - refE) <= 1e-12
        ok = ok and abs(check_F(f, spec, dom, density=10)[1] - refF) <= 1e-12

    stream, cert = run_construction(
        plan_from_scenario(_scenario("seleznev.json")))
    ok = ok and verify_certificate(stream, cert)
    data = json.loads(json.dumps(cert.to_json()))
    data["stages"][0]["f_side_error"] += 1e-6
    forged = Certificate.from_json(data)
    forged.stored_hash = forged.sha256
    ok = ok and not verify_certificate(stream, forged)
    _report(8, "oracle equivalence", ok, 60.0, t0)


# 9 ----------------------------------------------------------------- geometry

def test_criterion_09_geometry():
    t0 = time.time()
    dom = DomainProduct([OpenDisk(0j, 1.0), OpenRect(-1.0, 1.0, -0.5, 0.5)])
    ok = True
    for p in range(1, 7):
        A = exhaustion_M(dom, p)
        B = exhaustion_M(dom, p + 1)
        for fa, fb in zip(A.factors, B.factors):
            ok = ok and all(fb.contains(z, tol=1e-12)
                            for z in fa.sample_boundary(n=64))
    # cofinality for the scenario compacts, m0 within the scan bound
    disk_dom = DomainProduct([OpenDisk(0j, 1.0)])
    for radius, center in ((0.25, 2 + 0j), (0.15, 2.5 + 0j)):
        K = ProductCompact([Disk(center, radius)], disjoint_factor=0)
        m0 = cofinality_index(disk_dom, K)
        ok = ok and 1 <= m0 <= 10_000
        T = enumerate_Tm(disk_dom, m0)
        ok = ok and all(T.factors[0].contains(z, tol=1e-9)
                        for z in K.factors[0].sample_boundary(n=64))
    # a slit annulus never seals the plane: the probe escapes through it
    for j in (1, 2, 5):
        ann = outer_compacts(OpenDisk(0j, 1.0), j)
        ok = ok and complement_escape([ann], probe=0.0)
    closed = SlitAnnulus(0.0, 1.0, 2.0, 0.0, 0.5)
    other = SlitAnnulus(0.0, 1.0, 2.0, math.pi, 0.5)
    ok = ok and not complement_escape([closed, other], probe=0.0)
    _report(9, "geometry", ok, 60.0, t0)


# 10 ----------------------------------------------------------- slice residual

def test_criterion_10_slice_residual():
    t0 = time.time()
    K = ProductCompact([Disk(0j, 1.0)])
    poly_res = slice_AD_residual(lambda pt: pt[0] ** 4 - pt[0] + 2j, K, 0,
                                 density=256)
    conj_res = slice_AD_residual(lambda pt: np.conj(pt[0]), K, 0, density=256)
    # prediction of conj is constant at conj(center); probes at 0.4 from the
    # center therefore miss by exactly 0.4
    ok = poly_res <= 1e-8
    ok = ok and conj_res >= 0.1
    ok = ok and abs(conj_res - 0.4) <= 1e-6
    _report(10, "slice residual", ok, 30.0, t0)

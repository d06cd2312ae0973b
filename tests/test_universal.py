"""Staged-construction tests.

The frozen numbers (chosen ranks, convergence budgets) come from running
the fixed scenarios below; they are deterministic because nothing in the
pipeline draws random numbers. Error sups are re-derived here with naive
Taylor coefficients and bare monomial sums where the point is oracle
agreement rather than a frozen value.
"""

import json

import numpy as np
import pytest

from taylorlab.geometry import (
    Disk,
    DomainProduct,
    OpenDisk,
    ProductCompact,
    SlitAnnulus,
)
from taylorlab.multiindex import IndexSet, SparseIndexError
from taylorlab.poly import Poly, partial_sum
from taylorlab.universal import (
    StageRequest,
    plan_from_scenario,
    plan_stages,
    run_construction,
)
from taylorlab.verify import catalog_poly, variant_ops

from util import oracle_gamma

UNIT_DISK = DomainProduct([OpenDisk(0j, 1.0)])
FAR_DISK = ProductCompact([Disk(2 + 0j, 0.25)], disjoint_factor=0)
SMALL_FAR_DISK = ProductCompact([Disk(2.5 + 0j, 0.15)], disjoint_factor=0)


def _const(v):
    return Poly.constant(v, 0, 1)


def _inner(radius):
    return ProductCompact([Disk(0j, radius)])


def single_stage_plan(**kw):
    req = StageRequest(_const(1.0), FAR_DISK, _inner(0.5), 1e-3,
                       [10, 20, 40, 60])
    return plan_stages(UNIT_DISK, [req], **kw)


def conflict_plan():
    return plan_stages(
        UNIT_DISK,
        [StageRequest(_const(1.0), FAR_DISK, _inner(0.5), 1e-2,
                      [10, 20, 40, 60]),
         StageRequest(_const(-1.0), FAR_DISK, _inner(0.6), 1e-2,
                      [20, 40, 60, 90, 120])],
        name="conflict")


# ---------------------------------------------------------------- planning


def test_plan_refuses_center_outside_domain():
    with pytest.raises(ValueError, match="center"):
        single_stage_plan(center=[2.0 + 0j])


def test_plan_refuses_varying_center_multi_stage():
    reqs = [StageRequest(_const(1.0), FAR_DISK, _inner(0.5), 1e-2, [10]),
            StageRequest(_const(-1.0), FAR_DISK, _inner(0.6), 1e-2, [10])]
    with pytest.raises(ValueError, match="single-stage"):
        plan_stages(UNIT_DISK, reqs, fixed_center=False)


def test_plan_refuses_unflagged_outer():
    outer = ProductCompact([Disk(2 + 0j, 0.25)])
    req = StageRequest(_const(1.0), outer, _inner(0.5), 1e-2, [10])
    with pytest.raises(ValueError, match="flagged"):
        plan_stages(UNIT_DISK, [req])


def test_plan_refuses_outer_poking_into_domain():
    outer = ProductCompact([Disk(1 + 0j, 0.5)], disjoint_factor=0)
    req = StageRequest(_const(1.0), outer, _inner(0.5), 1e-2, [10])
    with pytest.raises(ValueError, match="reaches into the domain"):
        plan_stages(UNIT_DISK, [req])


def test_plan_refuses_outer_swallowing_domain():
    outer = ProductCompact([Disk(0j, 3.0)], disjoint_factor=0)
    req = StageRequest(_const(1.0), outer, _inner(0.5), 1e-2, [10])
    with pytest.raises(ValueError, match="overlaps the domain"):
        plan_stages(UNIT_DISK, [req])


def test_plan_refuses_inner_leaving_domain():
    req = StageRequest(_const(1.0), FAR_DISK, _inner(1.5), 1e-2, [10])
    with pytest.raises(ValueError, match="inner factor"):
        plan_stages(UNIT_DISK, [req])


def test_outer_touching_boundary_needs_open_variant():
    # a compact tangent to the unit circle from outside: fine for the
    # open-disjointness variants, refused when the closure must stay clear
    touching = ProductCompact([Disk(1.5 + 0j, 0.5)], disjoint_factor=0)
    req = StageRequest(_const(1.0), touching, _inner(0.5), 1e-1, [10])
    plan_stages(UNIT_DISK, [req])
    with pytest.raises(ValueError, match="reaches into the domain"):
        plan_stages(UNIT_DISK, [req], variant="infty")


def test_infty_variant_allows_closure_inner():
    req = StageRequest(_const(1.0), FAR_DISK,
                       ProductCompact([Disk(0j, 1.0)]), 1e-1, [12, 24])
    plan_stages(UNIT_DISK, [req], variant="infty", l=1)
    with pytest.raises(ValueError, match="inner factor"):
        plan_stages(UNIT_DISK, [req], variant="plain")


def test_plan_requires_w_compact_for_parameterized():
    wz = Poly.monomial(1, 1, (1,), (1,))
    req = StageRequest(wz, FAR_DISK, _inner(0.5), 1e-2, [10])
    with pytest.raises(ValueError, match="w compact"):
        plan_stages(UNIT_DISK, [req], r=1)


def test_stage_rejects_bad_budgets_and_tolerance():
    with pytest.raises(ValueError, match="budgets"):
        plan_stages(UNIT_DISK, [StageRequest(
            _const(1.0), FAR_DISK, _inner(0.5), 1e-2, [20, 10])])
    with pytest.raises(ValueError, match="tolerance"):
        plan_stages(UNIT_DISK, [StageRequest(
            _const(1.0), FAR_DISK, _inner(0.5), 0.0, [10])])


# ------------------------------------------------------------ single stage


def test_single_stage_passes_at_1e3():
    stream, cert = run_construction(single_stage_plan())
    (rec,) = cert.stages
    assert rec["converged"]
    assert rec["pass_e"] and rec["pass_f"]
    assert rec["e_side_error"] < 1e-3
    assert rec["f_side_error"] == 0.0
    assert rec["capture_residual"] == 0.0
    assert cert.summary["all_pass"]
    # deterministic sweep: budget 20 misses 5e-4, budget 40 lands it
    assert rec["budget"] == 40
    assert rec["lambda"] == 40


def test_single_stage_varying_center_inner_error_vanishes():
    stream, cert = run_construction(single_stage_plan(fixed_center=False))
    (rec,) = cert.stages
    vc = rec["varying_center"]
    assert vc["n_centers"] == 9
    # the final rank captures the whole polynomial, so the truncation is
    # the polynomial itself at every expansion center
    assert vc["f_side_error"] == 0.0
    assert vc["e_side_error"] == rec["e_side_error"]


def test_construction_is_deterministic():
    _, cert_a = run_construction(single_stage_plan())
    _, cert_b = run_construction(single_stage_plan())
    assert json.dumps(cert_a.to_json(), sort_keys=True) == \
        json.dumps(cert_b.to_json(), sort_keys=True)
    assert cert_a.sha256 == cert_b.sha256


def test_certified_sup_matches_naive_taylor_recomputation():
    plan = single_stage_plan(cert_density=64)
    stream, cert = run_construction(plan)
    (rec,) = cert.stages
    final = stream.poly()
    lam = rec["lambda"]
    enum = plan.enum
    # naive Taylor coefficients about 0, then a bare monomial sum
    gammas = [oracle_gamma(final, (), (0j,), enum.unrank(k))
              for k in range(lam + 1)]
    zs = FAR_DISK.sample(n_per_factor=64).points[:, 0]
    worst = 0.0
    for z in zs:
        s = sum(g * z ** enum.unrank(k)[0] for k, g in enumerate(gammas))
        worst = max(worst, abs(s - 1.0))
    assert abs(worst - rec["e_side_error"]) < 1e-10


# -------------------------------------------------------------- two stages


def test_conflict_stages_both_pass():
    stream, cert = run_construction(conflict_plan())
    first, second = cert.stages
    assert first["pass_e"] and first["pass_f"]
    assert second["pass_e"] and second["pass_f"]
    assert first["e_side_error"] < 1e-2
    assert second["e_side_error"] < 1e-2
    assert first["f_side_error"] < 1e-2
    assert second["f_side_error"] == 0.0
    assert cert.summary["all_pass"]
    assert second["lambda"] > first["lambda"]


def test_conflict_prefix_is_bit_identical():
    # stage 1 rerun alone produces the same truncation the two-stage
    # stream reports at its first rank, coefficient for coefficient
    single = plan_stages(
        UNIT_DISK,
        [StageRequest(_const(1.0), FAR_DISK, _inner(0.5), 1e-2,
                      [10, 20, 40, 60])])
    stream_one, cert_one = run_construction(single)
    stream_two, cert_two = run_construction(conflict_plan())
    lam1 = cert_one.stages[0]["lambda"]
    assert cert_two.stages[0]["lambda"] == lam1
    P1 = stream_one.partial_sum(lam1)
    P1_in_two = stream_two.partial_sum(lam1)
    assert P1.terms == P1_in_two.terms


def test_conflict_blocks_are_degree_separated():
    stream, cert = run_construction(conflict_plan())
    enum = stream.enum
    b1, b2 = stream.blocks
    max1 = max(sum(enum.unrank(k)) for k in b1.coeffs)
    min2 = min(sum(enum.unrank(k)) for k in b2.coeffs)
    assert min2 > max1
    assert cert.stages[1]["divisor_exponent"] == max1 + 1


def test_three_alternating_targets_stay_under_degree_200():
    plan = plan_stages(
        UNIT_DISK,
        [StageRequest(_const(1.0), SMALL_FAR_DISK, _inner(0.5), 1e-2,
                      [8, 12, 16, 20]),
         StageRequest(_const(-1.0), SMALL_FAR_DISK, _inner(0.55), 1e-2,
                      [12, 16, 24]),
         StageRequest(_const(1.0), SMALL_FAR_DISK, _inner(0.6), 1e-2,
                      [40, 60, 90])],
        name="alternating")
    stream, cert = run_construction(plan)
    assert cert.summary["all_pass"]
    assert cert.summary["final_degree"] <= 200
    lams = [s["lambda"] for s in cert.stages]
    assert lams == sorted(lams)
    assert all(s["capture_residual"] == 0.0 for s in cert.stages)


# ------------------------------------------------------------ index choice


def test_sparse_mu_lambdas_stay_in_set():
    plan = plan_stages(
        UNIT_DISK,
        [StageRequest(_const(1.0), SMALL_FAR_DISK, _inner(0.5), 1e-2,
                      [8, 12, 16, 20]),
         StageRequest(_const(-1.0), SMALL_FAR_DISK, _inner(0.55), 1e-2,
                      [12, 16, 24])],
        mu=IndexSet.from_tag("mu:arith:0,2"))
    stream, cert = run_construction(plan)
    assert cert.summary["all_pass"]
    for rec in cert.stages:
        assert rec["lambda"] % 2 == 0
        assert rec["lambda"] >= rec["capture_index"]


def test_exhausted_mu_aborts_with_partial_certificate():
    plan = plan_stages(
        UNIT_DISK,
        [StageRequest(_const(1.0), FAR_DISK, _inner(0.5), 1e-3,
                      [10, 20, 40, 60])],
        mu=IndexSet.from_tag("mu:list:0,1,2"))
    stream, cert = run_construction(plan)
    assert not cert.summary["all_pass"]
    assert cert.summary["aborted"]["stage"] == 1
    assert "no member" in cert.summary["aborted"]["reason"]
    assert cert.stages == []


# ------------------------------------------------------------ parameterized


def test_parameterized_stage_passes():
    wz = Poly.monomial(1, 1, (1,), (1,))
    L = ProductCompact([Disk(0j, 0.5)])
    plan = plan_stages(
        UNIT_DISK,
        [StageRequest(wz, SMALL_FAR_DISK, _inner(0.5), 1e-2,
                      [8, 12, 16, 24])],
        r=1, w_compact=L, name="parameterized")
    stream, cert = run_construction(plan)
    (rec,) = cert.stages
    assert rec["pass_e"] and rec["pass_f"]
    assert rec["f_side_error"] == 0.0
    assert cert.summary["all_pass"]
    # the stream's coefficients are genuinely w-dependent
    final = stream.poly()
    assert any(we != (0,) for (we, _), c in final.terms.items()
               if abs(c) > 1e-12)


def test_strong_parameterized_derivatives_within_tolerance():
    wz = Poly.monomial(1, 1, (1,), (1,))
    L = ProductCompact([Disk(0j, 0.5)])
    plan = plan_stages(
        UNIT_DISK,
        [StageRequest(wz, SMALL_FAR_DISK, _inner(0.5), 1e-1,
                      [8, 12, 16, 24])],
        r=1, w_compact=L, variant="strong", l=1, name="strong-param")
    _, f_ops = variant_ops(plan.variant, plan.r, 1, plan.l)
    assert sum(not op.is_identity for op in f_ops) == 2  # d/dw and d/dz
    stream, cert = run_construction(plan)
    (rec,) = cert.stages
    assert rec["pass_e"] and rec["pass_f"]
    assert cert.summary["all_pass"]


def test_strong_variant_value_and_derivative_sups():
    plan = plan_stages(
        UNIT_DISK,
        [StageRequest(_const(1.0), SMALL_FAR_DISK, _inner(0.5), 1e-1,
                      [12, 16, 24, 32])],
        variant="strong", l=1, name="strong")
    stream, cert = run_construction(plan)
    (rec,) = cert.stages
    assert rec["pass_e"]
    # the recorded sup dominates both the value error and the derivative
    # error; check the split explicitly
    final = stream.poly()
    target = _const(1.0)
    zs = SMALL_FAR_DISK.sample(n_per_factor=400).points
    W = np.zeros((1, 0), dtype=complex)
    dvals = np.abs((final - target).eval_product(W, zs)).max()
    identity, op = variant_ops(plan.variant, plan.r, 1, plan.l)[0]
    assert identity.is_identity
    dder = np.abs((final - target).diff(op).eval_product(W, zs)).max()
    assert dvals < 1e-1 and dder < 1e-1
    assert rec["e_side_error"] <= max(dvals, dder) + 1e-12


# ---------------------------------------------------------------- scenarios


SCENARIO = {
    "name": "seleznev",
    "domain": [{"type": "open-disk", "center": [0.0, 0.0], "radius": 1.0}],
    "stages": [{
        "target": {"constant": [1.0, 0.0]},
        "outer": {"type": "disk", "center": [2.0, 0.0], "radius": 0.25},
        "inner": {"type": "disk", "center": [0.0, 0.0], "radius": 0.5},
        "tolerance": 1e-3,
        "budgets": [10, 20, 40, 60],
    }],
}


def test_scenario_roundtrip_runs():
    plan = plan_from_scenario(SCENARIO)
    assert plan.requests[0].outer.disjoint_factor == 0
    stream, cert = run_construction(plan)
    assert cert.summary["all_pass"]
    assert cert.header["name"] == "seleznev"


def test_scenario_family_shorthand():
    data = dict(SCENARIO)
    data["stages"] = [dict(SCENARIO["stages"][0],
                           outer={"family": "tm", "m": 1},
                           inner={"family": "mp", "p": 1},
                           tolerance=0.5)]
    plan = plan_from_scenario(data)
    outer = plan.requests[0].outer
    assert isinstance(outer.factors[0], SlitAnnulus)
    assert outer.disjoint_factor == 0
    inner = plan.requests[0].inner
    assert inner.factors[0].radius == pytest.approx(0.5)


def test_scenario_catalog_target_needs_resolver():
    data = dict(SCENARIO)
    data["stages"] = [dict(SCENARIO["stages"][0], target="catalog:3")]
    plan = plan_from_scenario(data)
    assert plan.requests[0].target == catalog_poly(3, 0, 1)
    data["stages"] = [dict(SCENARIO["stages"][0], target="table:3")]
    with pytest.raises(ValueError, match="table:3"):
        plan_from_scenario(data)


def test_certificate_csv_shape(tmp_path):
    stream, cert = run_construction(conflict_plan())
    path = tmp_path / "hist.csv"
    cert.write_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "stage,lambda,e_side_error,f_side_error,max_degree"
    assert len(rows) == 1 + len(cert.stages)


def test_certificate_json_roundtrip(tmp_path):
    from taylorlab.universal import Certificate
    stream, cert = run_construction(conflict_plan())
    path = tmp_path / "cert.json"
    cert.write_json(path)
    loaded = Certificate.from_json(json.loads(path.read_text()))
    assert loaded.stored_hash == cert.sha256
    assert loaded.sha256 == cert.sha256
    loaded.stages[0]["e_side_error"] = 0.0
    assert loaded.sha256 != cert.sha256

"""Staged-construction tests.

The frozen numbers (chosen ranks, convergence budgets) come from running
the fixed scenarios below; they are deterministic because nothing in the
pipeline draws random numbers. Error sups are re-derived here with a
naive scalar run of each block's recurrence (tests/util.py) where the
point is oracle agreement rather than a frozen value.
"""

import cmath
import collections
import json
import os

import numpy as np
import pytest

from taylorlab.geometry import (
    Disk,
    DomainProduct,
    OpenDisk,
    ProductCompact,
    Rectangle,
    SlitAnnulus,
    grid_density,
)
from taylorlab.multiindex import IndexSet, SparseIndexError
from taylorlab.poly import BlockSum, CoefficientStream, Poly, partial_sum
from taylorlab.universal import (
    StageRequest,
    plan_from_scenario,
    plan_stages,
    run_construction,
)
from taylorlab.verify import (PredicateSpec, catalog_poly, check_F,
                              predicate_grids, sup_ops, variant_ops)

from util import exact_distance, ladder_scenario, naive_block_value

UNIT_DISK = DomainProduct([OpenDisk(0j, 1.0)])
FAR_DISK = ProductCompact([Disk(2 + 0j, 0.25)], disjoint_factor=0)
SMALL_FAR_DISK = ProductCompact([Disk(2.5 + 0j, 0.15)], disjoint_factor=0)
SCEN = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


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


@pytest.mark.parametrize("outer, inner, variant, message", [
    (ProductCompact([Disk(1 + 0j, 0.5)], disjoint_factor=0), _inner(0.5),
     "plain", "outer factor 0 reaches into the domain near 0.8549+0.4785j"),
    (ProductCompact([Disk(1.5 + 0j, 0.5)], disjoint_factor=0), _inner(0.5),
     "infty", "outer factor 0 reaches into the domain near 1+6.123e-17j"),
    (FAR_DISK, ProductCompact([Disk(0.5j, 0.6)]), "plain",
     "inner factor 0 leaves the open domain near 0.4446+0.9029j"),
    (FAR_DISK, ProductCompact([Rectangle(-0.5, 0.9, -0.8, 0.2)]), "plain",
     "inner factor 0 leaves the open domain near 0.625-0.8j"),
    # 1e-9 inside is a reach, not a rounded boundary point
    (ProductCompact([Disk(2 + 0j, 1 + 1e-9)], disjoint_factor=0),
     _inner(0.5), "plain",
     "outer factor 0 reaches into the domain near 1+1.225e-16j")])
def test_geometry_refusal_names_the_first_failing_sample(outer, inner,
                                                         variant, message):
    # the first failing sample in sample order, as a per-point loop finds it
    req = StageRequest(_const(1.0), outer, inner, 1e-2, [10])
    with pytest.raises(ValueError) as err:
        plan_stages(UNIT_DISK, [req], variant=variant,
                    l=1 if variant == "infty" else 0)
    assert str(err.value) == f"stage 1: {message}"


def test_stage_checks_test_each_sample_array_at_once(monkeypatch):
    # the plan's geometry checks and the gluing make a few containment
    # calls a stage, one per sample array, never one per point
    calls = collections.Counter()
    for cls in (Disk, OpenDisk):
        def counted(self, *args, _contains=cls.contains, _cls=cls, **kw):
            calls[_cls] += 1
            return _contains(self, *args, **kw)
        monkeypatch.setattr(cls, "contains", counted)
    stream, cert = run_construction(
        plan_from_scenario(ladder_scenario(3, 2.5j)))
    assert len(cert.stages) == 3
    assert calls.keys() == {Disk, OpenDisk}
    assert max(calls.values()) <= 5 * 3


def test_plan_draws_each_stage_factor_once_at_128_points(monkeypatch):
    # the gluing test reads the 128-point samples the stage check drew
    sizes = collections.Counter()

    def counted(self, n, _sample=Disk.sample_boundary):
        sizes[n] += 1
        return _sample(self, n)
    monkeypatch.setattr(Disk, "sample_boundary", counted)
    with open(os.path.join(SCEN, "alternating_three.json")) as fh:
        plan_from_scenario(json.load(fh))
    # per stage: 2 factors at 128 and at 200, 3 domain probes at 64
    assert (sizes[128], sizes[200], sizes[64]) == (6, 6, 9)


def test_outer_touching_boundary_needs_open_variant():
    # a compact tangent to the unit circle from outside: fine for the
    # open-disjointness variants, refused when the closure must stay clear
    touching = ProductCompact([Disk(1.5 + 0j, 0.5)], disjoint_factor=0)
    req = StageRequest(_const(1.0), touching, _inner(0.5), 1e-1, [10])
    plan_stages(UNIT_DISK, [req])
    with pytest.raises(ValueError, match="reaches into the domain"):
        plan_stages(UNIT_DISK, [req], variant="infty")


def test_plain_tm_outer_compacts_plan():
    # T_m's slit annulus has its inner ring at radius 1, and some of its
    # samples round a float step inside the unit disk: still off the domain
    for m in range(1, 17):
        plan_from_scenario({
            "domain": [{"type": "open-disk", "center": [0.0, 0.0],
                        "radius": 1.0}],
            "stages": [{"target": {"constant": [1.0, 0.0]},
                        "outer": {"family": "tm", "m": m},
                        "inner": {"family": "mp", "p": 1},
                        "tolerance": 1e-3, "budgets": [10]}]})


def test_infty_variant_allows_closure_inner():
    req = StageRequest(_const(1.0), FAR_DISK,
                       ProductCompact([Disk(0j, 1.0)]), 1e-1, [12, 24])
    plan_stages(UNIT_DISK, [req], variant="infty", l=1)
    with pytest.raises(ValueError, match="inner factor"):
        plan_stages(UNIT_DISK, [req], variant="plain")


def test_plan_requires_w_compact_for_parameterized():
    wz = Poly.monomial(1, 1, (1,), (1,))
    req = StageRequest(wz, FAR_DISK, _inner(0.5), 1e-2, [10])
    # the rule fit_grids applies, refused once for the plan, not per stage
    for w_compact, got in ((None, "none"),
                           (ProductCompact([Disk(0j, 0.5)] * 2), "arity 2")):
        with pytest.raises(ValueError, match="^r = 1 needs a w_compact of "
                           f"arity r, got {got}$"):
            plan_stages(UNIT_DISK, [req], r=1, w_compact=w_compact)


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
    assert cert.summary["all_pass"]
    # deterministic sweep: budget 20 misses 5e-4, budget 40 lands it
    assert rec["budget"] == 40
    assert rec["lambda"] == 40


def test_single_stage_varying_center_inner_error_vanishes():
    # sups over varying centers are the predicates': the final rank
    # captures the whole polynomial, so the truncation is the polynomial
    # itself at each of the 9 centers of the inner exhaustion
    stream, cert = run_construction(single_stage_plan())
    (rec,) = cert.stages
    spec = PredicateSpec(p=1, n=rec["lambda"])
    assert predicate_grids("F", spec, UNIT_DISK)[3]["n_centers"] == 9
    assert check_F(stream.poly(), spec, UNIT_DISK) == (True, 0.0)


def test_construction_is_deterministic():
    _, cert_a = run_construction(single_stage_plan())
    _, cert_b = run_construction(single_stage_plan())
    assert json.dumps(cert_a.to_json(), sort_keys=True) == \
        json.dumps(cert_b.to_json(), sort_keys=True)
    assert cert_a.sha256 == cert_b.sha256


def test_certified_sup_matches_naive_taylor_recomputation():
    # the stream's Taylor series is its blocks' sum; it is recomputed here
    # one point and one scalar at a time through the block's recurrence
    # (the float Taylor coefficients of this degree-40 block are off by
    # 0.13 on the disk, so they are no oracle)
    plan = single_stage_plan(cert_density=64)
    stream, cert = run_construction(plan)
    (rec,) = cert.stages
    (block,) = [b.block for b in stream.blocks]
    zs = FAR_DISK.sample(n_per_factor=64).points[:, 0]
    worst = max(abs(naive_block_value(block, (z,), (0,)) - 1.0) for z in zs)
    assert abs(worst - rec["e_side_error"]) < 1e-10


def test_block_recurrence_matches_exact_evaluation():
    # ladder T = 6 (bench/workloads.ladder_scenario's geometry): every
    # block's float values and first derivatives, at a point of the last
    # stage's outer and inner compacts, against the same recurrence in
    # exact arithmetic on the stored floats.  Stated bound, for a value v:
    # 1e-13 (1 + |v|) for values, 1e-11 (1 + |v|) for first derivatives
    # (measured: 4e-15 and 2e-13 over all six compacts of the ladder)
    scen = ladder_scenario(6, 2.5 * cmath.exp(0.7j))
    stream, cert = run_construction(plan_from_scenario(scen))
    assert cert.summary["all_pass"]
    last = cert.stages[-1]
    points = [ProductCompact.from_json(last[key]).sample(1).points[0, 0]
              for key in ("outer", "inner")]
    for b in stream.blocks:
        for order, bound in ((0, 1e-13), (1, 1e-11)):
            got = b.block.values([np.array(points)], [order])
            for z, v in zip(points, got):
                want = naive_block_value(b.block, (z,), (order,), True)
                assert exact_distance(v, want) <= bound * (1 + abs(v))


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
    b1, b2 = (b.block for b in stream.blocks)
    max1 = b1.total_z_degree()
    assert max1 == max(sum(ze) for _, ze in b1.taylor().terms)
    min2 = min(sum(ze) for _, ze in b2.taylor().terms)
    assert min2 == b2.e > max1
    assert cert.stages[1]["divisor_exponent"] == max1 + 1


def _zero_targets_scenario():
    """alternating_three with zero targets at stages 1 and 2."""
    with open(os.path.join(SCEN, "alternating_three.json")) as fh:
        data = json.load(fh)
    for stage in data["stages"][:2]:
        stage["target"] = {"constant": [0, 0]}
    return data


@pytest.mark.parametrize("scenario, lambdas", [
    (ladder_scenario(3, 2.5j), None), (_zero_targets_scenario(), [0, 1, 42])],
    ids=["ladder-3", "zero-blocks"])
def test_stream_ledger_survives_json_and_gives_the_records(scenario,
                                                           lambdas):
    # each block's ledger is derived as it is appended, so a stream read
    # back from JSON carries the one construct built and certified from
    stream, cert = run_construction(plan_from_scenario(scenario))
    assert cert.summary["all_pass"]
    back = CoefficientStream.from_json(json.loads(json.dumps(
        stream.to_json())))
    assert [b.ledger for b in back.blocks] == [b.ledger
                                              for b in stream.blocks]
    assert back.ledger == stream.ledger
    for b, rec in zip(stream.blocks, cert.stages, strict=True):
        assert rec["lambda"] == b.n_max >= b.ledger.floor
        assert rec["capture_index"] == b.ledger.capture
        assert rec["max_degree"] == max(b.ledger.degree, 0)
    if lambdas is not None:
        assert [b.n_max for b in stream.blocks] == lambdas
        # two zero blocks: no degree box, so the floor is one past the
        # previous lambda
        assert [b.ledger.box for b in stream.blocks[:2]] == [None, None]
        assert [b.ledger.floor for b in stream.blocks[:2]] == [0, 1]
        assert stream.blocks[1].ledger.degree == -1
    summary = cert.summary
    assert (summary["final_capture"], summary["final_degree"],
            summary["final_term_count"]) == (
        stream.ledger.capture, stream.ledger.degree, stream.ledger.terms)


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


# ------------------------------------------------------ fit residual replay


@pytest.mark.parametrize("name", ["alternating_three", "strong",
                                  "parameterized"])
def test_fit_residuals_replay_from_the_stream(name):
    # the fit measures each piece with the certificate's kernel on grids at
    # twice the fit density, so blocks 1..s of the stream give stage s's
    # recorded residuals back bit for bit
    with open(os.path.join(SCEN, f"{name}.json")) as fh:
        plan = plan_from_scenario(json.load(fh))
    stream, cert = run_construction(plan)
    r, d = plan.r, plan.domain.dim
    f_ops = variant_ops(plan.variant, r, d, plan.l)[1]
    nz = 2 * grid_density("fit", "z", d)
    wg = (plan.w_compact.sample(n_per_factor=2 * grid_density("fit", "w", r))
          if r else None)
    blocks = [b.block for b in stream.blocks]
    for s, (rec, req) in enumerate(zip(cert.stages, plan.requests), start=1):
        outer = req.outer.sample(n_per_factor=nz)
        inner = req.inner.sample(n_per_factor=nz)
        assert rec["fit_residual_outer"] == sup_ops(
            BlockSum(req.target, blocks[:s]), outer, wg, f_ops)
        assert rec["fit_residual_inner"] == sup_ops(
            BlockSum(Poly.zero(r, d), [blocks[s - 1]]), inner, wg, f_ops)


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
    from taylorlab.cli import write_json
    from taylorlab.universal import Certificate
    stream, cert = run_construction(conflict_plan())
    path = tmp_path / "cert.json"
    write_json(path, cert.to_json())
    loaded = Certificate.from_json(json.loads(path.read_text()))
    assert loaded.stored_hash == cert.sha256
    assert loaded.sha256 == cert.sha256
    loaded.stages[0]["e_side_error"] = 0.0
    assert loaded.sha256 != cert.sha256

"""Membership predicates, the rational catalog, slice residuals, and
certificate replay, all pinned against naive loop oracles."""

import json
import math
import os

import numpy as np
import pytest

from taylorlab.geometry import (
    Disk,
    DomainProduct,
    OpenDisk,
    ProductCompact,
    Segment,
    center_grid,
    exhaustion_M,
)
from taylorlab import poly, verify
from taylorlab.multiindex import (DiffOp, Enumeration, cantor_pair,
                                  cantor_unpair, tuple_pair, tuple_unpair)
from taylorlab.poly import CoefficientStream, Poly, partial_sum
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
    center_sups,
    certify_stages,
    check_E,
    check_F,
    predicate_grids,
    predicate_record,
    slice_AD_residual,
    sup_ops,
    verify_certificate,
)

from util import (ladder_scenario, oracle_eval, oracle_partial_sum_value,
                  random_point, random_poly)

UNIT_DISK = DomainProduct([OpenDisk(0j, 1.0)])
ORIGIN = (0j,)


def _zsq():
    return Poly.monomial(0, 1, (), (2,), 1.0)


# ------------------------------------------------------------ PredicateSpec

def test_spec_validation():
    PredicateSpec()  # defaults are legal
    with pytest.raises(ValueError, match="positive integer"):
        PredicateSpec(s=0)
    with pytest.raises(ValueError, match="natural"):
        PredicateSpec(n=-1)
    with pytest.raises(ValueError, match="variant"):
        PredicateSpec(variant="weird")
    with pytest.raises(ValueError, match="l >= 1"):
        PredicateSpec(variant="strong")
    with pytest.raises(ValueError, match="only applies"):
        PredicateSpec(l=1)


def test_spec_json_round_trip():
    spec = PredicateSpec(tau=2, p=3, m=4, j=5, s=6, n=7,
                         variant="infty", l=2, fixed_center=(0.25 + 0.5j,))
    assert PredicateSpec.from_json(spec.to_json()) == spec


# ------------------------------------------------------------------ check_F

def test_f_side_quarter_at_half_radius():
    # one term past the cut: |S_1 - z^2| = |z^2|, worth 1/4 on |z| = 1/2
    ok3, sup3 = check_F(_zsq(), PredicateSpec(p=1, s=3, n=1,
                                              fixed_center=ORIGIN), UNIT_DISK)
    ok5, sup5 = check_F(_zsq(), PredicateSpec(p=1, s=5, n=1,
                                              fixed_center=ORIGIN), UNIT_DISK)
    assert abs(sup3 - 0.25) < 1e-12 and sup3 == sup5
    assert ok3 and not ok5


def test_f_side_capture_kills_the_sup():
    rng = np.random.default_rng(5)
    enum = Enumeration(1, "graded-lex")
    for _ in range(5):
        f = random_poly(rng, 0, 1, max_deg=5, nterms=4)
        n = enum.capture_index(f.z_degrees())
        ok, sup = check_F(f, PredicateSpec(p=2, s=10 ** 9, n=n), UNIT_DISK)
        assert ok and sup <= 1e-10


def test_f_side_infty_variant_takes_derivative_sups():
    # closure truncation at l = 1 is the closed unit disk; there
    # max(|z^2|, |2z|) = 2, so even s = 1 fails
    ok, sup = check_F(_zsq(), PredicateSpec(p=1, s=1, n=1, variant="infty",
                                            l=1, fixed_center=ORIGIN),
                      UNIT_DISK)
    assert abs(sup - 2.0) < 1e-12 and not ok


def test_f_side_infty_derivative_vanishes_under_capture():
    ok, sup = check_F(_zsq(), PredicateSpec(p=1, s=10 ** 6, n=2,
                                            variant="infty", l=1,
                                            fixed_center=ORIGIN), UNIT_DISK)
    assert ok and sup == 0.0


# ------------------------------------------------------------------ check_E

def test_e_side_self_target_passes_everything():
    f = catalog_poly(28, 0, 1)
    assert f == Poly.constant(1.0, 0, 1)
    ok, sup = check_E(f, PredicateSpec(m=1, j=28, s=10 ** 9, n=6,
                                       fixed_center=ORIGIN), UNIT_DISK)
    assert ok and sup <= 1e-10


def test_e_side_unit_gap():
    ok, sup = check_E(Poly.zero(0, 1), PredicateSpec(m=1, j=28, s=2, n=0,
                                                     fixed_center=ORIGIN),
                      UNIT_DISK)
    assert not ok and abs(sup - 1.0) < 1e-12


def test_e_side_strong_variant_includes_identity():
    f = random_poly(np.random.default_rng(9), 0, 1, max_deg=4, nterms=5)
    plain = check_E(f, PredicateSpec(m=2, j=7, s=1, n=3,
                                     fixed_center=ORIGIN), UNIT_DISK)[1]
    strong = check_E(f, PredicateSpec(m=2, j=7, s=1, n=3, variant="strong",
                                      l=1, fixed_center=ORIGIN), UNIT_DISK)[1]
    assert strong >= plain - 1e-15


# -------------------------------------------------------- oracle equivalence

def _naive_sup_E(f, target, centers, zg, n, enum):
    worst = 0.0
    for zeta in centers:
        for z in zg.points:
            s = oracle_partial_sum_value(f, (), zeta, tuple(z), n, enum)
            worst = max(worst, abs(s - oracle_eval(target, (), tuple(z))))
    return worst


def _naive_sup_F(f, centers, zg, n, enum):
    worst = 0.0
    for zeta in centers:
        for z in zg.points:
            s = oracle_partial_sum_value(f, (), zeta, tuple(z), n, enum)
            worst = max(worst, abs(s - oracle_eval(f, (), tuple(z))))
    return worst


def test_predicates_match_naive_oracle():
    rng = np.random.default_rng(23)
    enum = Enumeration(1, "graded-lex")
    for trial in range(20):
        f = random_poly(rng, 0, 1, max_deg=4, nterms=5)
        spec = PredicateSpec(p=int(rng.integers(1, 4)),
                             m=int(rng.integers(1, 5)),
                             j=int(rng.integers(1, 60)),
                             s=int(rng.integers(1, 9)),
                             n=int(rng.integers(0, 7)))
        centers, _, zgE, _ = predicate_grids("E", spec, UNIT_DISK, density=10)
        _, _, zgF, _ = predicate_grids("F", spec, UNIT_DISK, density=10)
        okE, supE = check_E(f, spec, UNIT_DISK, density=10)
        okF, supF = check_F(f, spec, UNIT_DISK, density=10)
        target = catalog_poly(spec.j, 0, 1)
        refE = _naive_sup_E(f, target, centers, zgE, spec.n, enum)
        refF = _naive_sup_F(f, centers, zgF, spec.n, enum)
        assert abs(supE - refE) <= 1e-12
        assert abs(supF - refF) <= 1e-12
        assert okE == (refE < 1.0 / spec.s)
        assert okF == (refF < 1.0 / spec.s)


def test_monotone_in_s_by_construction():
    f = _zsq()
    sups = []
    for s in (2, 3, 4, 6, 9):
        ok, sup = check_F(f, PredicateSpec(p=1, s=s, n=1,
                                           fixed_center=ORIGIN), UNIT_DISK)
        sups.append(sup)
        assert ok == (sup < 1.0 / s)
    # the achieved value is the same number at every s; passing can only
    # degrade as s grows
    assert all(v == sups[0] for v in sups)


def test_identity_restricted_family_is_the_plain_sup():
    f = random_poly(np.random.default_rng(31), 0, 1, max_deg=4, nterms=6)
    spec = PredicateSpec(p=2, s=1, n=2, fixed_center=ORIGIN)
    centers, wg, zg, _ = predicate_grids("F", spec, UNIT_DISK)
    from taylorlab.poly import partial_sum
    (S,) = partial_sum(f, [ORIGIN], spec.n, Enumeration(1, "graded-lex"))
    delta = S - f
    only_id = sup_ops(delta, zg, wg, [DiffOp.identity(1)])
    plain = sup_ops(delta, zg, wg, [])
    assert only_id == plain


def test_fixed_center_equals_singleton_center_list():
    f = random_poly(np.random.default_rng(37), 0, 1, max_deg=5, nterms=5)
    zeta = (0.2 - 0.1j,)
    spec_free = PredicateSpec(p=2, m=2, j=9, s=3, n=2)
    spec_fixed = PredicateSpec(p=2, m=2, j=9, s=3, n=2, fixed_center=zeta)
    centers, wg, zg, _ = predicate_grids("E", spec_fixed, UNIT_DISK)
    assert centers == [zeta]
    sup = center_sups(f, [zeta], 2, Enumeration(1, "graded-lex"),
                      (catalog_poly(9, 0, 1), zg, wg, []))
    b = check_E(f, spec_fixed, UNIT_DISK)
    assert b == (sup < 1 / 3, sup)
    # and a one-point center list is a restriction of the sampled sup
    full = check_E(f, spec_free, UNIT_DISK)
    assert full[1] >= b[1] - 1e-15


def _per_center_sup(f, centers, n, enum, side):
    """The worst sup measured one center at a time: each center's partial
    sum as a Poly, minus the target, through sup_ops."""
    target, zg, wg, ops = side
    return verify.worst(sup_ops(S - target, zg, wg, ops)
                        for S in partial_sum(f, centers, n, enum))


def _center_cases(variant):
    """(f, centers, enum, sides) for r in {0, 1} and d in {1, 2}: a target of
    higher degree than f, f itself and the zero polynomial, with the
    variant's E-side or F-side ops at l = 2."""
    rng = np.random.default_rng(61)
    for r in (0, 1):
        for d in (1, 2):
            f = random_poly(rng, r, d, max_deg=5, nterms=10)
            target = random_poly(rng, r, d, max_deg=7, nterms=3)
            zg = ProductCompact([Disk(0.1j * i, 0.6)
                                 for i in range(d)]).sample(12)
            wg = ProductCompact([Disk(0.2, 0.5)]).sample(5) if r else None
            centers = [random_point(rng, d, radius=0.3) for _ in range(4)]
            centers.append((0j,) * d)
            e_ops, f_ops = verify.variant_ops(variant, r, d, 2)
            yield f, centers, Enumeration(d, "graded-lex"), [
                (target, zg, wg, e_ops), (f, zg, wg, f_ops),
                (Poly.zero(r, d), zg, wg, f_ops)]


@pytest.mark.parametrize("variant", verify.VARIANTS)
def test_center_sups_equal_per_center_sups_bit_for_bit(variant):
    # n runs from 0 through the capture index, and through the rank of f's
    # top term, from which on every lane is f (for d = 2 below the capture
    # index)
    for f, centers, enum, sides in _center_cases(variant):
        cap = enum.capture_index(f.z_degrees())
        top = max(enum.rank(ze) for _, ze in f.terms)
        for side in sides:
            for n in (0, 1, max(top - 1, 0), top, cap // 2, cap - 1, cap,
                      cap + 3):
                got = center_sups(f, centers, n, enum, side)
                want = _per_center_sup(f, centers, n, enum, side)
                assert got.hex() == want.hex()


def test_center_sups_chunk_lanes_by_max_dense(monkeypatch):
    import taylorlab.poly as poly_mod
    lanes = []

    def counting(D, *args):
        lanes.append(len(D))
        return evaluate(D, *args)

    evaluate = verify.eval_lanes
    for f, centers, enum, sides in _center_cases("strong"):
        n = enum.capture_index(f.z_degrees()) // 2
        side = sides[0]
        whole = center_sups(f, centers, n, enum, side)
        # one re-centering chunk, measured one lane at a time
        monkeypatch.setattr(verify, "MAX_DENSE", 1)
        monkeypatch.setattr(verify, "eval_lanes", counting)
        lanes.clear()
        assert center_sups(f, centers, n, enum, side).hex() == whole.hex()
        assert set(lanes) == {1} and len(lanes) >= len(centers)
        monkeypatch.undo()
        # re-centering chunks as small as the densified f and target allow
        monkeypatch.setattr(poly_mod, "MAX_DENSE", max(
            poly_mod.joint_dense(p).size for p in (f, side[0])))
        assert center_sups(f, centers, n, enum, side).hex() == whole.hex()
        monkeypatch.undo()


def test_varying_centers_cover_the_center_grid():
    spec = PredicateSpec(p=1, s=3, n=1)
    centers, _, _, info = predicate_grids("F", spec, UNIT_DISK)
    assert centers == center_grid(exhaustion_M(UNIT_DISK, 1))
    assert info["n_centers"] == len(centers) == 9


# ------------------------------------------------------------------ catalog

def test_catalog_first_index_is_zero():
    assert catalog_poly(1, 0, 1).is_zero
    assert catalog_poly(1, 1, 2).is_zero


def test_catalog_decodes_a_hand_built_code():
    # encode the constant 1 forward with the same pairings the decoder
    # documents: numerator zigzag code 2, denominator code 0
    rat_one = cantor_pair(2, 0)
    coeff = cantor_pair(rat_one, cantor_pair(0, 0))
    j = cantor_pair(0, tuple_pair((coeff,))) + 1
    assert j == 28
    assert catalog_poly(j, 0, 1) == Poly.constant(1.0, 0, 1)


def test_catalog_is_deterministic_and_rational():
    for j in (1, 2, 17, 28, 101, 434):
        p = catalog_poly(j, 0, 1)
        q = catalog_poly(j, 0, 1)
        assert p == q
        for c in p.terms.values():
            # every coordinate is a ratio of modest integers by construction
            assert abs(c) < 1e6


def _catalog_every_code(j, r, d):
    """The documented catalog pairing, decoding all L + 1 codes."""
    def rational(code):
        a, b = cantor_unpair(code)
        return ((a + 1) // 2) * (-1 if a % 2 else 1) / (b + 1)
    L, c = cantor_unpair(j - 1)
    joint = Enumeration(r + d, "graded-lex")
    terms = {}
    for t, code in enumerate(tuple_unpair(c, L + 1)):
        u, v = cantor_unpair(code)
        coeff = complex(rational(u), rational(v))
        if coeff != 0:
            m = joint.unrank(t)
            terms[m[:r], m[r:]] = coeff
    return terms


@pytest.mark.parametrize("r, d", [(0, 1), (1, 1)])
def test_catalog_stops_decoding_where_the_codes_run_out(r, d):
    for j in range(1, 2001):
        assert catalog_poly(j, r, d).terms == _catalog_every_code(j, r, d)


def test_catalog_huge_index_decodes_in_few_steps(monkeypatch):
    # j = 10**30 has L + 1 of about 6.4e14 codes, all 0 past the first few;
    # the counter fails fast instead of letting a full decode run
    calls = []
    def counted(n):
        calls.append(n)
        assert len(calls) < 30
        return cantor_unpair(n)
    monkeypatch.setattr(verify, "cantor_unpair", counted)
    catalog_poly(10**30, 0, 1)


def test_catalog_reaches_small_polynomials():
    seen = {}
    for j in range(1, 2001):
        p = catalog_poly(j, 0, 1)
        seen.setdefault(tuple(sorted(p.terms.items())), j)
    one = tuple(sorted(Poly.constant(1.0, 0, 1).terms.items()))
    zed = tuple(sorted(Poly.monomial(0, 1, (), (1,), 1.0).terms.items()))
    assert seen[one] == 28
    assert seen[zed] == 434


def test_catalog_respects_coordinate_split():
    # same index, different shapes: exponents fill w first, then z
    p = catalog_poly(434, 1, 1)
    assert all(len(we) == 1 and len(ze) == 1 for (we, ze) in p.terms)


def test_catalog_rejects_bad_indices():
    with pytest.raises(ValueError, match="starts at 1"):
        catalog_poly(0, 0, 1)
    with pytest.raises(ValueError, match="at least one"):
        catalog_poly(3, 0, 0)


# ------------------------------------------------------------ slice residual

def test_slice_residual_polynomial_is_quadrature_exact():
    K = ProductCompact([Disk(0j, 1.0)])
    res = slice_AD_residual(lambda pt: pt[0] ** 3 - 2 * pt[0] + 1j, K, 0)
    assert res <= 1e-8


def test_slice_residual_flags_conjugate():
    # prediction of conj over a circle of radius rho about 0 is conj(0);
    # probes at rho/2 therefore miss by exactly 0.4 on the unit disk
    K = ProductCompact([Disk(0j, 1.0)])
    res = slice_AD_residual(lambda pt: np.conj(pt[0]), K, 0, density=256)
    assert res >= 0.1
    assert abs(res - 0.4) <= 1e-6


def test_slice_residual_constant():
    K = ProductCompact([Disk(0.3 + 0.1j, 0.7)])
    assert slice_AD_residual(lambda pt: 2.5 - 1j, K, 0) <= 1e-12


def test_slice_residual_needs_interior():
    K = ProductCompact([Segment(0j, 1 + 0j)])
    with pytest.raises(ValueError, match="interior"):
        slice_AD_residual(lambda pt: pt[0], K, 0)


def test_slice_residual_localizes_the_bad_axis():
    K = ProductCompact([Disk(0j, 1.0), Disk(0j, 1.0)])
    fn = lambda pt: np.conj(pt[0]) + pt[1] ** 2
    bad = slice_AD_residual(fn, K, 0, density=64, others_per_factor=3)
    good = slice_AD_residual(fn, K, 1, density=64, others_per_factor=3)
    assert bad >= 0.1
    assert good <= 1e-8


# -------------------------------------------------------- certificate replay

def _demo_artifacts(**plan_options):
    dom = DomainProduct([OpenDisk(0j, 1.0)])
    outer = ProductCompact([Disk(2 + 0j, 0.25)], disjoint_factor=0)
    inner = ProductCompact([Disk(0j, 0.5)])
    req = StageRequest(Poly.constant(1.0, 0, 1), outer, inner, 1e-3,
                       [10, 20, 40, 60])
    return run_construction(plan_stages(dom, [req], **plan_options))


def test_certificate_round_trip_verifies():
    stream, cert = _demo_artifacts()
    assert cert.summary["all_pass"]
    assert verify_certificate(stream, cert)
    blob = json.dumps(cert.to_json())
    stream2 = CoefficientStream.from_json(stream.to_json())
    assert verify_certificate(stream2, Certificate.from_json(json.loads(blob)))


def test_multi_stage_certificate_survives_the_json_round_trip():
    # regression: a rank-cut truncation rebuilt from a reloaded stream
    # carries later-stage terms in its dict, and the replayed sups must
    # still land bit for bit on the recorded ones
    dom = DomainProduct([OpenDisk(0j, 1.0)])
    outer = ProductCompact([Disk(2 + 0j, 0.25)], disjoint_factor=0)
    reqs = [
        StageRequest(Poly.constant(1.0, 0, 1), outer,
                     ProductCompact([Disk(0j, 0.5)]), 1e-2, [10, 20, 40, 60]),
        StageRequest(Poly.constant(-1.0, 0, 1), outer,
                     ProductCompact([Disk(0j, 0.6)]), 1e-2,
                     [20, 40, 60, 90, 120]),
    ]
    stream, cert = run_construction(plan_stages(dom, reqs))
    assert cert.summary["all_pass"]
    # sort_keys matters: it reorders coefficient ranks as strings, which is
    # exactly how the artifacts are written to disk
    stream2 = CoefficientStream.from_json(json.loads(json.dumps(
        stream.to_json(), sort_keys=True)))
    cert2 = Certificate.from_json(json.loads(json.dumps(
        cert.to_json(), sort_keys=True)))
    assert verify_certificate(stream2, cert2)


def test_certificate_tampering_is_detected():
    stream, cert = _demo_artifacts()
    data = json.loads(json.dumps(cert.to_json()))
    data["stages"][0]["e_side_error"] *= 1.5
    # stale hash trips first
    assert not verify_certificate(stream, Certificate.from_json(data))
    # a forged hash still loses to the recomputation
    forged = Certificate.from_json(data)
    forged.stored_hash = forged.sha256
    assert not verify_certificate(stream, forged)


@pytest.mark.parametrize("variant, l, reload, n_stages, tampered", [
    ("plain", 0, False, 1, ("e_side_error", "e_side_max")),
    ("strong", 1, True, 1, ("e_side_error", "e_side_max")),
    # two stages, so that the first F-side (a derivative sup) is nonzero
    ("infty", 1, True, 2, ("f_side_error", "f_side_max")),
])
def test_variant_certificates_replay_and_catch_tampering(
        variant, l, reload, n_stages, tampered):
    outer = ProductCompact([Disk(2.5 + 0j, 0.15)], disjoint_factor=0)
    reqs = [StageRequest(Poly.constant((-1.0) ** s, 0, 1), outer,
                         ProductCompact([Disk(0j, 0.5 + 0.1 * s)]), 1e-1,
                         [12, 16, 24, 32])
            for s in range(n_stages)]
    stream, cert = run_construction(plan_stages(
        UNIT_DISK, reqs, variant=variant, l=l))
    assert cert.summary["all_pass"]
    if reload:  # the stream as verify reads it from its JSON
        stream = CoefficientStream.from_json(json.loads(json.dumps(
            stream.to_json(), sort_keys=True)))
    data = json.loads(json.dumps(cert.to_json(), sort_keys=True))
    assert verify_certificate(stream, Certificate.from_json(data))

    # forge a sup and the summary's maximum alike, so that the record's
    # own comparison has to catch it
    key, max_key = tampered
    assert data["stages"][0][key] > 0
    data["stages"][0][key] *= 1.5
    data["summary"][max_key] = max(rec[key] for rec in data["stages"])
    forged = Certificate.from_json(data)
    forged.stored_hash = forged.sha256
    assert not verify_certificate(stream, forged)


def test_forged_nan_error_fails():
    # every comparison with NaN is false, so the replay must be written to
    # fail on one rather than to pass when no comparison trips
    stream, cert = _demo_artifacts()
    data = json.loads(json.dumps(cert.to_json()))
    data["stages"][0]["e_side_error"] = float("nan")
    forged = Certificate.from_json(data)
    forged.stored_hash = forged.sha256
    assert not verify_certificate(stream, forged)


def test_a_nan_sup_fails_its_stage():
    # every sup fold carries a NaN through (max(0.0, nan) is 0.0, which
    # would pass the stage); here one block coefficient is NaN, so the
    # value and derivative sups of the strong variant on the E side both
    # are (the F side of the last stage sums no block)
    assert math.isnan(verify.worst([0.5, float("nan"), 2.0]))
    assert verify.worst([]) == 0.0
    stream, cert = _demo_artifacts(variant="strong", l=1)
    assert cert.summary["all_pass"]
    stream.blocks[0].block.tensor[-1] = float("nan")
    fresh = [{k: rec[k] for k in verify.STAGE_INPUTS} for rec in cert.stages]
    summary = certify_stages(stream, cert.header, fresh, None)
    (rec,) = fresh
    assert math.isnan(rec["e_side_error"]) and not rec["pass_e"]
    assert math.isnan(summary["e_side_max"]) and not summary["all_pass"]


def test_certificate_keys_are_exactly_the_v3_schema():
    # verify's REFUSALS cases in test_cli check the other side: a key
    # outside these sets fails, a missing one is a malformed certificate;
    # v4 changed what the stream stores and how it is measured, not these
    # keys, so they are v3's
    _, cert = _demo_artifacts()
    assert cert.header["format"] == "taylorlab-certificate-v4"
    assert set(cert.header) == {
        "format", "name", "enumeration", "d", "r", "center", "mu", "variant",
        "l", "domain", "w_compact", "cert_density"} == verify.HEADER_KEYS
    assert set(cert.stages[0]) == {
        "stage", "lambda", "capture_index", "divisor_exponent", "budget",
        "n_columns", "cond", "converged", "fit_residual_inner",
        "fit_residual_outer", "fit_tolerance_inner", "fit_tolerance_outer",
        "tolerance", "target", "outer", "inner", "max_degree", "density",
        "e_side_error", "f_side_error", "pass_e",
        "pass_f"} == verify.RECORD_KEYS
    assert set(cert.summary) == {
        "stages", "frontier", "final_degree", "final_term_count",
        "final_capture", "e_side_max", "f_side_max", "all_pass",
        "aborted"} == verify.SUMMARY_KEYS


def test_certificate_without_a_record_per_block_fails():
    # construct writes one record per stream block (an aborted stage adds
    # none, and fails anyway), so dropping records is not a vacuous pass
    stream, cert = _demo_artifacts()
    summary = dict(cert.summary, stages=0, e_side_max=0.0, f_side_max=0.0)
    for all_pass in (True, False):
        empty = Certificate(dict(cert.header), [],
                            dict(summary, all_pass=all_pass))
        assert not verify_certificate(stream, empty)


def test_certificate_mismatch_is_refused():
    stream, cert = _demo_artifacts()
    other = CoefficientStream(stream.enum, (0.25 + 0j,), 0)
    with pytest.raises(ValueError, match="refused"):
        verify_certificate(other, cert)
    shifted = CoefficientStream(Enumeration(1, "graded-revlex"), ORIGIN, 0)
    with pytest.raises(ValueError, match="refused"):
        verify_certificate(shifted, cert)


def _ladder_artifacts(T):
    """The stream and certificate of the benchmark's depth-T ladder, the
    stream read back from its JSON, so its blocks hold no cached rows."""
    stream, cert = run_construction(plan_from_scenario(
        ladder_scenario(T, 2.5j)))
    return CoefficientStream.from_json(json.loads(json.dumps(
        stream.to_json()))), cert


def _counted(calls, fn):
    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counting


def _reversed_keys(doc):
    """The JSON value with the keys of every object in reverse order."""
    if isinstance(doc, dict):
        return {k: _reversed_keys(doc[k]) for k in reversed(doc)}
    if isinstance(doc, list):
        return [_reversed_keys(v) for v in doc]
    return doc


@pytest.mark.parametrize("kept", [None, 1])
def test_certify_stages_samples_each_compact_once_and_recurs_once_per_axis(
        monkeypatch, kept):
    if kept:
        # a block keeps rows for one set: every change of grid evicts
        monkeypatch.setattr(poly, "ROWS_KEPT", kept)
    stream, cert = _ladder_artifacts(6)
    recurrences, samples = [], []
    monkeypatch.setattr(poly, "recur_rows",
                        _counted(recurrences, poly.recur_rows))
    monkeypatch.setattr(ProductCompact, "sample",
                        _counted(samples, ProductCompact.sample))
    fresh = [{k: rec[k] for k in verify.STAGE_INPUTS} for rec in cert.stages]
    # a compact is keyed by its canonical JSON text: the last record's
    # outer disk with every object's keys reversed is still the one disk
    fresh[-1]["outer"] = _reversed_keys(fresh[-1]["outer"])
    assert (list(fresh[-1]["outer"]) != list(fresh[0]["outer"])
            and fresh[-1]["outer"] == fresh[0]["outer"])
    summary = certify_stages(stream, cert.header, fresh, None)
    # every recurrence fills one point set's (rows, points) arrays
    assert all(R[0].ndim == 2 for R, *_ in recurrences)
    if not kept:
        # one recurrence per block, axis and grid: blocks 1..s on stage s's
        # outer disk (one for all stages) and the rest on its inner disk
        fills = {(i, j, json.dumps(rec["outer" if i < s else "inner"]))
                 for s, rec in enumerate(cert.stages, start=1)
                 for i in range(len(stream.blocks))
                 for j in range(stream.r + stream.d)}
        assert len(recurrences) == len(fills) == 6 + 15
    # one outer disk and six inner ones
    compacts = {json.dumps(rec[side]) for rec in cert.stages
                for side in ("outer", "inner")}
    assert len(samples) == len(compacts) == 7
    # bit for bit what construct measured with rows cached by the fits
    for rec, again in zip(cert.stages, fresh):
        assert [rec[k] for k in verify.STAGE_MEASURED] == [
            again[k] for k in verify.STAGE_MEASURED]
    assert summary == cert.summary


def test_a_refusal_names_the_first_faulty_record():
    stream, cert = _ladder_artifacts(2)

    def fresh():
        return [{k: rec[k] for k in verify.STAGE_INPUTS}
                for rec in cert.stages]
    # every record is checked before any is measured, in order
    records = fresh()
    records[0]["outer"] = {"factors": "x", "disjoint_factor": 0}
    records[1]["lambda"] = -5
    with pytest.raises(ValueError,
                       match="^outer factors must be a list, got 'x'"):
        certify_stages(stream, cert.header, records, None)
    # a compact equal to an earlier one but for a number's type is read on
    # its own: neither 0.0 nor false is factor 0
    for factor in (0.0, False):
        records = fresh()
        records[1]["outer"] = dict(records[0]["outer"],
                                   disjoint_factor=factor)
        assert records[1]["outer"] == records[0]["outer"]
        with pytest.raises(ValueError, match="disjoint_factor must be an "
                           f"integer, got {factor}"):
            certify_stages(stream, cert.header, records, None)


def test_certify_stages_refuses_a_compact_of_the_wrong_arity():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                           "parameterized.json")) as fh:
        stream, cert = run_construction(plan_from_scenario(json.load(fh)))
    records = [{k: rec[k] for k in verify.STAGE_INPUTS}
               for rec in cert.stages]
    w = cert.header["w_compact"]
    header = dict(cert.header, w_compact=dict(w, factors=w["factors"] * 2))
    with pytest.raises(ValueError, match="^w_compact has 2 factors, r = 1$"):
        certify_stages(stream, header, records, None)
    inner = records[0]["inner"]
    records[0]["inner"] = dict(inner, factors=inner["factors"] * 2)
    with pytest.raises(ValueError, match="^inner has 2 factors, d = 1$"):
        certify_stages(stream, cert.header, records, None)


def test_predicate_record_shape():
    rec = predicate_record("F", _zsq(), PredicateSpec(p=1, s=3, n=1,
                                                      fixed_center=ORIGIN),
                           UNIT_DISK)
    assert set(rec) == {"spec", "achieved", "pass", "grid_density"}
    assert rec["spec"]["predicate"] == "F"
    assert rec["pass"] and abs(rec["achieved"] - 0.25) < 1e-12
    assert rec["grid_density"]["n_centers"] == 1

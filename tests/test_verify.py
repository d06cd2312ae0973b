"""Membership predicates, the rational catalog, slice residuals, and
certificate replay, all pinned against naive loop oracles."""

import json

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
from taylorlab.multiindex import DiffOp, Enumeration, cantor_pair, tuple_pair
from taylorlab.poly import CoefficientStream, Poly
from taylorlab.universal import (
    Certificate,
    StageRequest,
    plan_stages,
    run_construction,
)
from taylorlab.verify import (
    PredicateSpec,
    catalog_poly,
    center_sups,
    check_E,
    check_F,
    predicate_grids,
    predicate_record,
    slice_AD_residual,
    sup_ops,
    verify_certificate,
)

from util import oracle_eval, oracle_partial_sum_value, random_poly

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
    delta = partial_sum(f, ORIGIN, spec.n, Enumeration(1, "graded-lex")) - f
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
    (sup,) = center_sups(f, [zeta], 2, Enumeration(1, "graded-lex"),
                         [(catalog_poly(9, 0, 1), zg, wg, [])])
    b = check_E(f, spec_fixed, UNIT_DISK)
    assert b == (sup < 1 / 3, sup)
    # and a one-point center list is a restriction of the sampled sup
    full = check_E(f, spec_free, UNIT_DISK)
    assert full[1] >= b[1] - 1e-15


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


@pytest.mark.parametrize("variant, l, fixed_center, n_stages, tampered", [
    ("plain", 0, False, 1, ("varying_center", "e_side_error")),
    ("strong", 1, True, 1, ("e_side_error",)),
    # two stages, so that the first F-side (a derivative sup) is nonzero
    ("infty", 1, True, 2, ("f_side_error",)),
])
def test_variant_certificates_replay_and_catch_tampering(
        variant, l, fixed_center, n_stages, tampered):
    outer = ProductCompact([Disk(2.5 + 0j, 0.15)], disjoint_factor=0)
    reqs = [StageRequest(Poly.constant((-1.0) ** s, 0, 1), outer,
                         ProductCompact([Disk(0j, 0.5 + 0.1 * s)]), 1e-1,
                         [12, 16, 24, 32])
            for s in range(n_stages)]
    stream, cert = run_construction(plan_stages(
        UNIT_DISK, reqs, variant=variant, l=l, fixed_center=fixed_center))
    assert cert.summary["all_pass"]
    stream2 = CoefficientStream.from_json(json.loads(json.dumps(
        stream.to_json(), sort_keys=True)))
    data = json.loads(json.dumps(cert.to_json(), sort_keys=True))
    assert verify_certificate(stream2, Certificate.from_json(data))

    entry = data["stages"][0]
    for key in tampered[:-1]:
        entry = entry[key]
    assert entry[tampered[-1]] > 0
    entry[tampered[-1]] *= 1.5
    forged = Certificate.from_json(data)
    forged.stored_hash = forged.sha256
    assert not verify_certificate(stream2, forged)


def test_forged_nan_error_fails():
    # every comparison with NaN is false, so the replay must be written to
    # fail on one rather than to pass when no comparison trips
    stream, cert = _demo_artifacts()
    data = json.loads(json.dumps(cert.to_json()))
    data["stages"][0]["e_side_error"] = float("nan")
    forged = Certificate.from_json(data)
    forged.stored_hash = forged.sha256
    assert not verify_certificate(stream, forged)


def test_varying_center_sups_are_required_when_centers_vary():
    # the header, not the record, says whether centers vary
    stream, cert = _demo_artifacts(fixed_center=False)
    assert verify_certificate(stream, cert)
    data = json.loads(json.dumps(cert.to_json()))
    del data["stages"][0]["varying_center"]
    forged = Certificate.from_json(data)
    forged.stored_hash = forged.sha256
    with pytest.raises(KeyError, match="varying_center"):
        verify_certificate(stream, forged)


def test_certificate_empty_is_vacuous():
    stream, cert = _demo_artifacts()
    empty = Certificate(dict(cert.header), [], {"all_pass": True})
    assert verify_certificate(stream, empty)


def test_certificate_mismatch_is_refused():
    stream, cert = _demo_artifacts()
    other = CoefficientStream(stream.enum, (0.25 + 0j,), 0)
    with pytest.raises(ValueError, match="refused"):
        verify_certificate(other, cert)
    shifted = CoefficientStream(Enumeration(1, "graded-revlex"), ORIGIN, 0)
    with pytest.raises(ValueError, match="refused"):
        verify_certificate(shifted, cert)


def test_predicate_record_shape():
    rec = predicate_record("F", _zsq(), PredicateSpec(p=1, s=3, n=1,
                                                      fixed_center=ORIGIN),
                           UNIT_DISK)
    assert set(rec) == {"spec", "achieved", "pass", "grid_density"}
    assert rec["spec"]["predicate"] == "F"
    assert rec["pass"] and abs(rec["achieved"] - 0.25) < 1e-12
    assert rec["grid_density"]["n_centers"] == 1

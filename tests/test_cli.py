"""Command-line round trips, exit codes, and artifact formats."""

import copy
import json
import os
import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taylorlab.cli import main
from taylorlab.universal import Certificate, plan_from_scenario
from taylorlab.verify import catalog_poly

SCEN = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def _scenario(tmp_path, name="s.json", **overrides):
    data = {
        "name": "demo",
        "domain": [{"type": "open-disk", "center": [0.0, 0.0], "radius": 1.0}],
        "stages": [{
            "target": {"constant": [1.0, 0.0]},
            "outer": {"type": "disk", "center": [2.0, 0.0], "radius": 0.25},
            "inner": {"type": "disk", "center": [0.0, 0.0], "radius": 0.5},
            "tolerance": 1e-3,
            "budgets": [10, 20, 40, 60],
        }],
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ----------------------------------------------------------------- construct

def test_construct_then_verify_round_trip(tmp_path):
    out = str(tmp_path / "out")
    assert main(["construct", _scenario(tmp_path), "--out-dir", out]) == 0
    for fname in ("stream.json", "certificate.json", "history.csv"):
        assert os.path.exists(os.path.join(out, fname))
    assert main(["verify", os.path.join(out, "stream.json"),
                 os.path.join(out, "certificate.json")]) == 0


def test_history_csv_has_the_pinned_columns(tmp_path):
    out = str(tmp_path / "out")
    main(["construct", _scenario(tmp_path), "--out-dir", out])
    rows = open(os.path.join(out, "history.csv")).read().splitlines()
    assert rows[0] == "stage,lambda,e_side_error,f_side_error,max_degree"
    assert len(rows) == 2


def test_malformed_json_names_line_and_column(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"domain": [,]}')
    assert main(["construct", str(path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_missing_scenario_is_exit_2(tmp_path):
    assert main(["construct", str(tmp_path / "absent.json"),
                 "--out-dir", str(tmp_path)]) == 2


def test_schema_violation_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"domain": [], "stages": []}))
    assert main(["construct", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "rejected" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("budgets", "abc"),
    ("budgets", [8.5]),
    ("budgets", [-3]),
    ("tolerance", float("inf")),
    ("mu", "mu:arith"),
    ("outer", {"type": "union", "parts": [
        {"type": "disk", "center": [2.5, 0.0], "radius": 0.15},
        {"type": "disk", "center": [2.6, 0.0], "radius": 0.15}]}),
], ids=["budgets-string", "budgets-fraction", "budgets-negative",
        "tolerance-infinite", "mu-without-values", "outer-encloses-holes"])
def test_malformed_scenario_field_is_exit_2(tmp_path, capsys, field, value):
    data = json.load(open(os.path.join(SCEN, "alternating_three.json")))
    if field == "mu":
        data["mu"] = value
    else:
        data["stages"][0][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["construct", str(path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "rejected" in err and "Traceback" not in err


def test_negative_density_is_exit_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["construct", _scenario(tmp_path), "--out-dir", out,
                 "--density", "-5"]) == 2
    assert "density" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("density", ["1", "3"])
def test_density_below_curve_minimum_is_exit_2(tmp_path, capsys, density):
    # every curve gets at least 4 samples, so a density of 1-3 would
    # certify on 4 points while recording the smaller count
    out = str(tmp_path / "out")
    assert main(["construct", _scenario(tmp_path), "--out-dir", out,
                 "--density", density]) == 2
    err = capsys.readouterr().err
    assert "density" in err and "Traceback" not in err
    assert not os.path.exists(out)


def test_infeasible_tolerance_leaves_a_failing_certificate(tmp_path):
    scen = _scenario(tmp_path, stages=[{
        "target": {"constant": [1.0, 0.0]},
        "outer": {"type": "disk", "center": [2.0, 0.0], "radius": 0.25},
        "inner": {"type": "disk", "center": [0.0, 0.0], "radius": 0.5},
        "tolerance": 1e-15,
        "budgets": [5],
    }])
    out = str(tmp_path / "out")
    assert main(["construct", scen, "--out-dir", out]) == 1
    cert = json.load(open(os.path.join(out, "certificate.json")))
    assert not cert["summary"]["all_pass"]
    assert len(cert["stages"]) == 1  # measured, recorded, failed honestly
    # a failing stage stays failing on replay
    assert main(["verify", os.path.join(out, "stream.json"),
                 os.path.join(out, "certificate.json")]) == 1


def test_exhausted_index_set_aborts_with_partial_certificate(tmp_path):
    scen = _scenario(tmp_path, mu="mu:list:0,1,2")
    out = str(tmp_path / "out")
    assert main(["construct", scen, "--out-dir", out]) == 1
    cert = json.load(open(os.path.join(out, "certificate.json")))
    assert cert["summary"]["aborted"]["stage"] == 1
    assert cert["stages"] == []


def test_catalog_target_resolution(tmp_path):
    # "catalog:28" is the constant 1 under the documented pairing
    assert catalog_poly(28, 0, 1).terms == {((), (0,)): 1.0 + 0j}
    scen = _scenario(tmp_path, stages=[{
        "target": "catalog:28",
        "outer": {"type": "disk", "center": [2.0, 0.0], "radius": 0.25},
        "inner": {"type": "disk", "center": [0.0, 0.0], "radius": 0.5},
        "tolerance": 1e-2,
        "budgets": [10, 20, 40],
    }])
    assert main(["construct", scen, "--out-dir", str(tmp_path / "out")]) == 0


def test_density_override_is_recorded_and_verifiable(tmp_path):
    out = str(tmp_path / "out")
    assert main(["construct", _scenario(tmp_path), "--out-dir", out,
                 "--density", "32"]) == 0
    cert = json.load(open(os.path.join(out, "certificate.json")))
    assert cert["stages"][0]["density"]["nz_per_factor"] == 32
    assert main(["verify", os.path.join(out, "stream.json"),
                 os.path.join(out, "certificate.json")]) == 0


def test_fixed_center_flag_moves_the_expansion_point(tmp_path):
    out = str(tmp_path / "out")
    assert main(["construct", _scenario(tmp_path), "--out-dir", out,
                 "--fixed-center", "0.1,0.0"]) == 0
    cert = json.load(open(os.path.join(out, "certificate.json")))
    assert cert["header"]["center"] == [[0.1, 0.0]]


@pytest.mark.parametrize("name, center", [
    ("alternating_three.json", "0.1,0.0"),
    ("two_stage_conflict.json", "0.0,0.5"),
])
def test_multi_stage_divisor_center_off_zero_constructs(
        tmp_path, name, center):
    # each block is fitted as a multiple of (z - c)^e and re-centered; the
    # rounding it leaves below z^e is dropped, so nothing touches the frozen
    # prefix and the run certifies whatever the fit achieves
    out = str(tmp_path / "out")
    rc = main(["construct", os.path.join(SCEN, name), "--out-dir", out,
               "--fixed-center", center])
    assert rc in (0, 1)
    with open(os.path.join(out, "certificate.json")) as fh:
        cert = json.load(fh)
    assert (rc == 0) == cert["summary"]["all_pass"]
    if name == "alternating_three.json":
        assert rc == 0
    rv = main(["verify", os.path.join(out, "stream.json"),
               os.path.join(out, "certificate.json")])
    assert (rv == 0) == cert["summary"]["all_pass"]


def test_multi_stage_center_off_the_divisor_axis_constructs(tmp_path):
    def disk(c, rad):
        return {"type": "disk", "center": [c, 0.0], "radius": rad}
    unit = {"type": "open-disk", "center": [0.0, 0.0], "radius": 1.0}
    scen = _scenario(tmp_path, domain=[unit, unit], stages=[{
        "target": {"constant": [1.0 - 2 * s, 0.0]},
        "outer": {"factors": [disk(2.5, 0.15), disk(0.0, 0.5)],
                  "disjoint_factor": 0},
        "inner": {"factors": [disk(0.0, 0.5 + 0.05 * s)] * 2},
        "tolerance": 0.01, "budgets": [8, 12, 16, 20, 24]} for s in range(2)])
    out = str(tmp_path / "out")
    assert main(["construct", scen, "--out-dir", out,
                 "--fixed-center", "0,0,0.3,0"]) == 0
    assert main(["verify", os.path.join(out, "stream.json"),
                 os.path.join(out, "certificate.json")]) == 0


def test_verbose_flag_prints_one_line_per_stage(tmp_path, capsys):
    scen = os.path.join(SCEN, "alternating_three.json")
    out = str(tmp_path / "out")
    assert main(["construct", scen, "--out-dir", out]) == 0
    assert capsys.readouterr().err == ""
    assert main(["construct", scen, "--out-dir", out, "-v"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "stage 1", "stage 2", "stage 3"]


def test_identical_runs_are_byte_identical(tmp_path):
    scen = _scenario(tmp_path)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["construct", scen, "--out-dir", a, "--seed", "7"]) == 0
    assert main(["construct", scen, "--out-dir", b, "--seed", "7"]) == 0
    for fname in ("certificate.json", "stream.json", "history.csv"):
        with open(os.path.join(a, fname), "rb") as fa, \
                open(os.path.join(b, fname), "rb") as fb:
            assert fa.read() == fb.read()


def test_shipped_scenarios_parse():
    names = sorted(f for f in os.listdir(SCEN)
                   if f.endswith(".json") and "candidate" not in f
                   and "predicates" not in f)
    assert len(names) >= 5
    for name in names:
        data = json.load(open(os.path.join(SCEN, name)))
        assert plan_from_scenario(data).requests


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(SCEN)
    if f.endswith(".json") and "stages" in json.load(open(os.path.join(SCEN, f)))))
def test_shipped_scenario_end_to_end(tmp_path, name):
    # reruns are byte-identical and verify agrees with the summary
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        main(["construct", os.path.join(SCEN, name), "--out-dir", out])
    for fname in ("certificate.json", "stream.json", "history.csv"):
        with open(os.path.join(a, fname), "rb") as fa, \
                open(os.path.join(b, fname), "rb") as fb:
            assert fa.read() == fb.read()
    with open(os.path.join(a, "certificate.json")) as fh:
        cert = json.load(fh)
    rc = main(["verify", os.path.join(a, "stream.json"),
               os.path.join(a, "certificate.json")])
    assert (rc == 0) == cert["summary"]["all_pass"]


# -------------------------------------------------------------------- verify

def test_verify_tampered_certificate_exits_1(tmp_path):
    out = str(tmp_path / "out")
    main(["construct", _scenario(tmp_path), "--out-dir", out])
    cpath = os.path.join(out, "certificate.json")
    data = json.load(open(cpath))
    data["stages"][0]["e_side_error"] *= 2
    json.dump(data, open(cpath, "w"))
    assert main(["verify", os.path.join(out, "stream.json"), cpath]) == 1


def test_verify_missing_file_exits_2(tmp_path):
    out = str(tmp_path / "out")
    main(["construct", _scenario(tmp_path), "--out-dir", out])
    assert main(["verify", str(tmp_path / "ghost.json"),
                 os.path.join(out, "certificate.json")]) == 2


def test_verify_mismatched_stream_is_refused(tmp_path, capsys):
    out = str(tmp_path / "out")
    main(["construct", _scenario(tmp_path), "--out-dir", out])
    other = str(tmp_path / "other")
    main(["construct", _scenario(tmp_path, name="s2.json",
                                 center=[[0.1, 0.0]]),
          "--out-dir", other])
    code = main(["verify", os.path.join(other, "stream.json"),
                 os.path.join(out, "certificate.json")])
    assert code == 1
    assert "refused" in capsys.readouterr().out


def test_verify_refuses_a_v1_certificate(tmp_path, capsys):
    # v1 sups were measured by the monomial evaluator and the scalar
    # re-centering; they do not replay within the 1e-12 window
    out = str(tmp_path / "out")
    assert main(["construct", _scenario(tmp_path), "--out-dir", out]) == 0
    cpath = os.path.join(out, "certificate.json")
    data = json.load(open(cpath))
    data["header"]["format"] = "taylorlab-certificate-v1"
    data["sha256"] = Certificate(data["header"], data["stages"],
                                 data["summary"]).sha256
    json.dump(data, open(cpath, "w"))
    capsys.readouterr()
    assert main(["verify", os.path.join(out, "stream.json"), cpath]) == 1
    message = capsys.readouterr().out
    assert message.startswith("verification refused: certificate format "
                              "'taylorlab-certificate-v1'")
    assert "re-run construct" in message


# ---------------------------------------------------------------- predicates

def _zsq_path(tmp_path):
    path = tmp_path / "zsq.json"
    path.write_text(json.dumps({
        "r": 0, "d": 1,
        "terms": [{"w_exp": [], "z_exp": [2], "re": 1.0, "im": 0.0}]}))
    return str(path)


def _specs_path(tmp_path, specs, **extra):
    data = {"domain": [{"type": "open-disk", "center": [0.0, 0.0],
                        "radius": 1.0}], "specs": specs}
    data.update(extra)
    path = tmp_path / "specs.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_predicates_report_shape_and_values(tmp_path, capsys):
    specs = [
        {"predicate": "F", "p": 1, "s": 3, "n": 1,
         "fixed_center": [[0.0, 0.0]]},
        {"predicate": "F", "p": 1, "s": 5, "n": 1,
         "fixed_center": [[0.0, 0.0]]},
    ]
    code = main(["predicates", _zsq_path(tmp_path),
                 _specs_path(tmp_path, specs), "--density", "64"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [r["pass"] for r in report] == [True, False]
    for r in report:
        assert abs(r["achieved"] - 0.25) < 1e-12
        assert r["grid_density"]["nz_per_factor"] == 64
        assert set(r) == {"spec", "achieved", "pass", "grid_density"}


def test_predicates_negative_density_is_exit_2(tmp_path, capsys):
    specs = [{"predicate": "F", "p": 1, "s": 3, "n": 1}]
    assert main(["predicates", _zsq_path(tmp_path),
                 _specs_path(tmp_path, specs), "--density", "-3"]) == 2
    assert "density" in capsys.readouterr().err


@pytest.mark.parametrize("density", ["1", "3"])
def test_predicates_density_below_curve_minimum_is_exit_2(tmp_path, capsys,
                                                         density):
    specs = [{"predicate": "F", "p": 1, "s": 3, "n": 1}]
    assert main(["predicates", _zsq_path(tmp_path),
                 _specs_path(tmp_path, specs), "--density", density]) == 2
    err = capsys.readouterr().err
    assert "density" in err and "Traceback" not in err


def test_predicates_empty_batch(tmp_path, capsys):
    assert main(["predicates", _zsq_path(tmp_path),
                 _specs_path(tmp_path, [])]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_predicates_bad_kind_is_exit_2(tmp_path, capsys):
    assert main(["predicates", _zsq_path(tmp_path),
                 _specs_path(tmp_path, [{"predicate": "G"}])]) == 2
    assert "rejected" in capsys.readouterr().err


def test_predicates_dimension_mismatch_is_exit_2(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "r": 1, "d": 1,
        "terms": [{"w_exp": [1], "z_exp": [1], "re": 1.0, "im": 0.0}]}))
    assert main(["predicates", str(path),
                 _specs_path(tmp_path, [{"predicate": "F"}])]) == 2


def test_predicates_oversized_recentering_is_exit_2(tmp_path, capfd):
    # 1 + z + z^20000 about 0.3 + 0.1i: 20001^2 multiply-adds, past the
    # re-centering bound, and the shift itself would overflow to inf/NaN
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"r": 0, "d": 1, "terms": [
        {"w_exp": [], "z_exp": [k], "re": 1.0, "im": 0.0}
        for k in (0, 1, 20000)]}))
    specs = _specs_path(tmp_path, [
        {"predicate": "E", "m": 1, "j": 2, "s": 10, "n": 5}])
    capfd.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["predicates", str(path), specs,
                     "--fixed-center=0.3,0.1"])
    stdout, stderr = capfd.readouterr()
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("predicate run failed: re-centering")
    assert stderr.count("\n") == 1
    assert not caught


def test_predicates_shipped_demo(capsys):
    code = main(["predicates",
                 os.path.join(SCEN, "candidate_zsq.json"),
                 os.path.join(SCEN, "predicates_demo.json")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [r["pass"] for r in report] == [True, False, True, False]


# ------------------------------------------------------------ refusal table

NAN = float("nan")
DROP = object()


def _edit(doc, path, value):
    """`doc` with the entry at `path` set to `value` (DROP deletes it)."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _tiny_factor_bidisk():
    """A bidisk scenario whose compacts share factor 1 = Disk(0, 1e-7): the
    fit scale of that axis to the power 60 underflows."""
    def disk(center, radius):
        return {"type": "disk", "center": [center, 0.0], "radius": radius}
    tiny = disk(0.0, 1e-7)
    return {"name": "tiny-factor-bidisk",
            "domain": [{"type": "open-disk", "center": [0.0, 0.0],
                        "radius": 1.0}] * 2,
            "stages": [{"target": {"constant": [1.0, 0.0]},
                        "outer": {"factors": [disk(2.5, 0.15), tiny],
                                  "disjoint_factor": 0},
                        "inner": {"factors": [disk(0.0, 0.5), tiny]},
                        "tolerance": 0.01, "budgets": [8, 60]}]}


# (file edited, path in it, new value, exit code, start of the message);
# scenarios edit seleznev.json, streams and certificates its artifacts
# (re-hashed after the edit), specs predicates_demo.json
REFUSALS = [
    ("scenario", (), [], 2, "{file}: the top level must be a JSON object"),
    ("scenario", ("enumeration",), 0, 2, "scenario rejected"),
    ("scenario", ("enumeration",), "diagonal-cantor", 2, "scenario rejected"),
    ("scenario", ("mu",), [], 2, "scenario rejected"),
    ("scenario", ("stages", 0, "target", "constant"), [NAN, 0], 2,
     "scenario rejected"),
    ("scenario", ("stages", 0, "outer", "center"), [NAN, 0], 2,
     "scenario rejected"),
    ("scenario", ("stages", 0, "target", "constant"), [1e308, 0], 2,
     "scenario rejected: stage 1: the fit has a non-finite coefficient"),
    ("scenario", ("stages", 0, "outer", "center"), [1e308, 0], 2,
     "scenario rejected"),
    ("scenario", ("l",), 1.5, 2, "scenario rejected"),
    ("scenario", ("seed",), True, 2, "scenario rejected"),
    ("scenario", ("cert_density",), 64.7, 2, "scenario rejected"),
    ("scenario", ("stages", 0, "outer"), {"family": "tm", "m": 1.5}, 2,
     "scenario rejected"),
    ("scenario", (), _tiny_factor_bidisk(), 2,
     "scenario rejected: the fit scale 1e-07 underflows at degree 60"),
    ("scenario", ("stages", 0, "target"),
     {"r": 0, "d": 1,
      "terms": [{"w_exp": [], "z_exp": [10**30], "re": 1.0, "im": 0.0}]}, 2,
     "scenario rejected: exponents up to [10000000000000000000000000000"),
    ("stream", (), [], 2, "{file}: the top level must be a JSON object"),
    ("stream", ("enumeration",), 1, 2, "artifact rejected"),
    ("stream", ("enumeration",), "explicit-table:0,0", 2, "artifact rejected"),
    ("stream", ("blocks", 0, "coeffs"), [], 2, "artifact rejected"),
    ("certificate", ("header",), [], 2, "artifact rejected"),
    ("certificate", ("header", "r"), DROP, 2, "artifact rejected"),
    ("certificate", ("header", "d"), DROP, 2, "artifact rejected"),
    *[("certificate", ("stages", 0, key), DROP, 2, "artifact rejected")
      for key in ("lambda", "target", "outer", "inner", "density",
                  "tolerance", "e_side_error", "f_side_error")],
    ("certificate", ("stages", 0, "density"), "x", 2, "artifact rejected"),
    ("certificate", ("stages", 0, "lambda"), -1, 2, "artifact rejected"),
    ("certificate", ("stages",), [1], 2, "artifact rejected"),
    ("certificate", ("stages", 0, "e_side_error"), NAN, 1,
     "certificate does NOT match"),
    # densities, pass flags and the presence of varying-center sups are
    # recomputed from the header and the stage inputs, not read
    *[("certificate", path, value, 1, "certificate does NOT match")
      for path, value in ((("header", "cert_density"), 999),
                          (("stages", 0, "density", "nz_points"), 4000),
                          (("stages", 0, "density", "nw_points"), 7),
                          (("stages", 0, "pass_e"), False),
                          (("stages", 0, "varying_center"),
                           {"n_centers": 9, "e_side_error": 0.0,
                            "f_side_error": 0.0}))],
    ("certificate", ("header", "fixed_center"), False, 2, "artifact rejected"),
    ("specs", ("specs",), "x", 2, "specs rejected"),
    *[("specs", ("specs", 0), v, 2, "specs rejected")
      for v in (1.5, None, True)],
    ("specs", ("specs", 0), {"variant": "strong", "l": 1.5}, 2,
     "specs rejected"),
    ("specs", ("specs", 0, "p"), 1.9, 2, "specs rejected"),
    ("specs", ("specs", 0, "n"), True, 2, "specs rejected"),
]


def _refusal_id(case):
    file, path, value, code, _ = case
    if value is DROP:
        shown = "drop"
    elif isinstance(value, dict) and "name" in value:
        shown = value["name"]
    else:
        shown = json.dumps(value, separators=(",", ":"))
    return f"{file}:{'.'.join(map(str, path)) or 'top'}={shown}->{code}"


@pytest.fixture(scope="module")
def seleznev_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("seleznev")
    assert main(["construct", os.path.join(SCEN, "seleznev.json"),
                 "--out-dir", str(out)]) == 0
    return {name: (out / f"{name}.json").read_text()
            for name in ("stream", "certificate")}


@pytest.mark.parametrize("file, path, value, code, prefix", REFUSALS,
                         ids=[_refusal_id(c) for c in REFUSALS])
def test_malformed_input_exits_with_a_message(
        tmp_path, capsys, seleznev_artifacts, file, path, value, code, prefix):
    def read(name):
        return open(os.path.join(SCEN, name)).read()
    texts = dict(seleznev_artifacts, scenario=read("seleznev.json"),
                 candidate=read("candidate_zsq.json"),
                 specs=read("predicates_demo.json"))
    doc = _edit(json.loads(texts[file]), path, value)
    if file == "certificate":
        doc["sha256"] = Certificate(doc["header"], doc["stages"],
                                    doc["summary"]).sha256
    texts[file] = json.dumps(doc)
    paths = {}
    for name, text in texts.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            fh.write(text)

    out = str(tmp_path / "out")
    verify = ["verify", paths["stream"], paths["certificate"]]
    argv = {"scenario": ["construct", paths["scenario"], "--out-dir", out],
            "stream": verify, "certificate": verify,
            "specs": ["predicates", paths["candidate"], paths["specs"]]}[file]
    assert main(argv) == code
    stdout, stderr = capsys.readouterr()
    message = stderr if code == 2 else stdout
    assert message.startswith(prefix.format(file=paths[file]))
    assert "Traceback" not in stdout + stderr


# ------------------------------------------------------------ mutation search


def _key_paths(doc, prefix=()):
    """Every path to an entry of a JSON document, nested ones included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        out.extend(_key_paths(value, prefix + (key,)))
    return out


MUTATED = {name: json.load(open(os.path.join(SCEN, f"{name}.json")))
           for name in ("seleznev", "strong")}
MUTATION_SITES = [(name, path) for name, doc in MUTATED.items()
                  for path in _key_paths(doc)]
MUTATION_VALUES = [DROP, 1e308, 10**12, NAN, -1, "x", [], {}, 0, None, True]
# the construct command's own report lines for exit codes 0 and 1
CONSTRUCT_REPORTS = ("stage failure: ", "aborted at stage ",
                     "partial certificate in ")


def _run_construct(capfd, tmp_path, doc):
    """Exit code, stdout and stderr of `construct` on `doc`, captured at the
    file-descriptor level so output from native code shows too."""
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    capfd.readouterr()
    code = main(["construct", str(path), "--out-dir", str(tmp_path / "out")])
    return (code, *capfd.readouterr())


@given(st.sampled_from(MUTATION_SITES), st.sampled_from(MUTATION_VALUES))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_scenario_exits_cleanly(tmp_path, capfd, site, value):
    name, path = site
    doc = _edit(copy.deepcopy(MUTATED[name]), path, value)
    code, stdout, stderr = _run_construct(capfd, tmp_path, doc)
    assert code in (0, 1, 2)
    assert "Traceback" not in stdout + stderr
    if code == 2:
        assert stdout == ""
        assert stderr.count("\n") == 1
    else:
        assert stderr == ""
        lines = stdout.splitlines()
        assert lines
        assert all(line.startswith(CONSTRUCT_REPORTS) or " stage(s) pass" in line
                   for line in lines)


def _oversized(name, path, value):
    return _edit(json.load(open(os.path.join(SCEN, f"{name}.json"))), path,
                 value)


@pytest.mark.parametrize("doc, reason", [
    (_oversized("strong", ("l",), 10**308), "operators"),
    (_oversized("seleznev", ("stages", 0, "budgets", -1), 10**12),
     "design matrix would be too large"),
    (_oversized("alternating_three", ("stages", 1, "outer", "center"),
                [1e308, 0]), "overflows on the outer compact"),
], ids=["l", "budget", "divisor"])
def test_oversized_input_is_refused_before_it_allocates(tmp_path, capfd, doc,
                                                       reason):
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, stderr = _run_construct(capfd, tmp_path, doc)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("scenario rejected: ")
    assert reason in stderr
    assert stderr.count("\n") == 1
    assert not caught

"""Command-line round trips, exit codes, and artifact formats."""

import argparse
import base64
import cmath
import copy
import json
import os
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taylorlab import universal, verify
from taylorlab.cli import build_parser, main, write_json
from taylorlab.mergelyan import fit
from taylorlab.multiindex import cantor_pair
from taylorlab.poly import CoefficientStream
from taylorlab.universal import (Certificate, plan_from_scenario,
                                 run_construction)
from taylorlab.verify import catalog_poly

from util import ladder_scenario

SCEN = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


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
    assert main(["construct", _scenario(tmp_path, cert_density=-5),
                 "--out-dir", out]) == 2
    assert "density" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("density", [1, 3])
def test_density_below_curve_minimum_is_exit_2(tmp_path, capsys, density):
    # every curve gets at least 4 samples, so a density of 1-3 would
    # certify on 4 points while recording the smaller count
    out = str(tmp_path / "out")
    assert main(["construct", _scenario(tmp_path, cert_density=density),
                 "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert "density" in err and "Traceback" not in err
    assert not os.path.exists(out)


def test_infeasible_tolerance_leaves_a_failing_certificate(tmp_path, capsys):
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
    # a failing stage stays failing on replay, and says so
    assert main(["verify", os.path.join(out, "stream.json"),
                 os.path.join(out, "certificate.json")]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "certificate agrees with its stream but does not pass: all_pass is "
        "false")


def _aborted(tmp_path, capsys, mu, n_stages):
    """Construct _scenario's stage n_stages times under mu (each stage's
    inner disk 0.1 wider), then verify; both must exit 1."""
    first = json.loads(open(_scenario(tmp_path)).read())["stages"][0]
    stages = [dict(first, inner=dict(first["inner"], radius=0.5 + 0.1 * s))
              for s in range(n_stages)]
    out = str(tmp_path / "out")
    assert main(["construct", _scenario(tmp_path, mu=mu, stages=stages),
                 "--out-dir", out]) == 1
    cert = json.load(open(os.path.join(out, "certificate.json")))
    # the stages it holds pass and replay, but an aborted schedule does not
    # verify; the message tells it from a forgery
    assert all(s["pass_e"] and s["pass_f"] for s in cert["stages"])
    capsys.readouterr()
    assert main(["verify", os.path.join(out, "stream.json"),
                 os.path.join(out, "certificate.json")]) == 1
    assert capsys.readouterr().out == (
        "certificate agrees with its stream but does not pass: aborted at "
        f"stage {cert['summary']['aborted']['stage']}\n")
    return cert


def test_exhausted_index_set_aborts_with_partial_certificate(tmp_path, capsys):
    cert = _aborted(tmp_path, capsys, "mu:list:0,1,2", 1)
    assert cert["summary"]["aborted"]["stage"] == 1
    assert cert["stages"] == []


def test_abort_after_a_passing_stage_fails_verify(tmp_path, capsys):
    # the first stage settles at lambda 40; the second finds no member of
    # the index set past its capture rank
    cert = _aborted(tmp_path, capsys, "mu:list:40", 2)
    assert cert["summary"]["aborted"]["stage"] == 2
    assert [s["lambda"] for s in cert["stages"]] == [40]


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


def test_huge_catalog_index_runs_at_once(tmp_path, capsys, monkeypatch):
    # j = 10**30 unfolds into about 6.4e14 coefficient codes, all 0 past
    # the first few, and decoding stops at the last non-zero one: counted
    # in unpairing steps, not in wall time, which load on the machine moves
    scen = _scenario(tmp_path, stages=[{
        "target": f"catalog:{10**30}",
        "outer": {"type": "disk", "center": [2.0, 0.0], "radius": 0.25},
        "inner": {"type": "disk", "center": [0.0, 0.0], "radius": 0.5},
        "tolerance": 1e-2, "budgets": [10, 20]}])
    specs = _specs_path(tmp_path, [
        {"predicate": "E", "m": 1, "j": 10**30, "s": 2, "n": 0,
         "fixed_center": [[0.0, 0.0]]}])
    calls, unpair = [], verify.cantor_unpair

    def counted(n):
        calls.append(n)
        assert len(calls) <= 64               # fails fast on a full decode
        return unpair(n)

    monkeypatch.setattr(verify, "cantor_unpair", counted)
    for argv in (["construct", scen, "--out-dir", str(tmp_path / "out")],
                 ["predicates", _zsq_path(tmp_path), specs]):
        calls.clear()
        assert main(argv) in (0, 1)
        assert calls
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("under", ["", "sub"], ids=["a-file", "under-a-file"])
def test_unusable_out_dir_is_exit_2(tmp_path, capsys, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = os.path.join(str(blocker), under) if under else str(blocker)
    assert main(["construct", os.path.join(SCEN, "seleznev.json"),
                 "--out-dir", out]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith(f"{out}: ")
    assert stderr.count("\n") == 1
    assert blocker.read_text() == ""


def test_density_override_is_recorded_and_verifiable(tmp_path):
    out = str(tmp_path / "out")
    assert main(["construct", _scenario(tmp_path, cert_density=32),
                 "--out-dir", out]) == 0
    cert = json.load(open(os.path.join(out, "certificate.json")))
    assert cert["stages"][0]["density"]["nz_per_factor"] == 32
    assert main(["verify", os.path.join(out, "stream.json"),
                 os.path.join(out, "certificate.json")]) == 0


def test_fixed_center_flag_moves_the_expansion_point(tmp_path):
    # the scenario's center field is the one way to move it
    out = str(tmp_path / "out")
    assert main(["construct", _scenario(tmp_path, center=[[0.1, 0.0]]),
                 "--out-dir", out]) == 0
    cert = json.load(open(os.path.join(out, "certificate.json")))
    assert cert["header"]["center"] == [[0.1, 0.0]]


@pytest.mark.parametrize("name, center", [
    ("alternating_three.json", [0.1, 0.0]),
    ("two_stage_conflict.json", [0.0, 0.5]),
], ids=["alternating_three.json-0.1,0.0", "two_stage_conflict.json-0.0,0.5"])
def test_multi_stage_divisor_center_off_zero_constructs(
        tmp_path, name, center):
    # each block is fitted as a multiple of (z - c)^e and re-centered; the
    # rounding it leaves below z^e is dropped, so nothing touches the frozen
    # prefix and the run certifies whatever the fit achieves
    with open(os.path.join(SCEN, name)) as fh:
        data = json.load(fh)
    data["center"] = [center]
    scen = tmp_path / name
    scen.write_text(json.dumps(data))
    out = str(tmp_path / "out")
    rc = main(["construct", str(scen), "--out-dir", out])
    assert rc in (0, 1)
    with open(os.path.join(out, "certificate.json")) as fh:
        cert = json.load(fh)
    assert (rc == 0) == cert["summary"]["all_pass"]
    if name == "alternating_three.json":
        assert rc == 0
    rv = main(["verify", os.path.join(out, "stream.json"),
               os.path.join(out, "certificate.json")])
    assert (rv == 0) == cert["summary"]["all_pass"]


def test_two_zero_blocks_in_a_row_construct_and_verify(tmp_path):
    # a zero block has no degree box, so its lambda is one past the last
    with open(os.path.join(SCEN, "alternating_three.json")) as fh:
        data = json.load(fh)
    for stage in data["stages"][:2]:
        stage["target"] = {"constant": [0, 0]}
    scen = tmp_path / "zeros.json"
    scen.write_text(json.dumps(data))
    out = str(tmp_path / "out")
    assert main(["construct", str(scen), "--out-dir", out]) == 0
    with open(os.path.join(out, "certificate.json")) as fh:
        cert = json.load(fh)
    assert [rec["lambda"] for rec in cert["stages"]] == [0, 1, 42]
    assert main(["verify", os.path.join(out, "stream.json"),
                 os.path.join(out, "certificate.json")]) == 0


def test_lambda_refusals_name_the_floor(tmp_path, capsys):
    # stage 2's capture index is 0, but its lambda must pass stage 1's 0:
    # both refusals name lambda's floor, 1
    with open(os.path.join(SCEN, "alternating_three.json")) as fh:
        data = json.load(fh)
    for stage in data["stages"][:2]:
        stage["target"] = {"constant": [0, 0]}
    scen, out = tmp_path / "zeros.json", str(tmp_path / "out")
    scen.write_text(json.dumps(dict(data, mu="mu:list:0")))
    assert main(["construct", str(scen), "--out-dir", out]) == 1
    assert capsys.readouterr().out.startswith(
        "aborted at stage 2: stage 2: index set 'mu:list:0' has no member "
        "at or beyond 1\n")
    scen.write_text(json.dumps(data))
    assert main(["construct", str(scen), "--out-dir", out]) == 0
    path = os.path.join(out, "certificate.json")
    with open(path) as fh:
        cert = json.load(fh)
    cert["header"]["mu"] = "mu:list:0,2,42:beyond"
    cert["sha256"] = Certificate(cert["header"], cert["stages"],
                                 cert["summary"]).sha256
    write_json(path, cert)
    capsys.readouterr()
    assert main(["verify", os.path.join(out, "stream.json"), path]) == 2
    assert capsys.readouterr().err == (
        "artifact rejected: lambda 1 is not the first member of "
        "mu:list:0,2,42:beyond at or after 1, the larger of the capture "
        "index and one past the previous lambda\n")


def test_verify_refuses_a_record_that_does_not_end_its_block(tmp_path,
                                                             capsys):
    # record 1 becomes a copy of record 2 (lambda 25, which ends block 2)
    # and the summary's worst sups follow: every field agrees with what
    # block 2 measures, but block 1's stage is never certified
    out = str(tmp_path / "out")
    assert main(["construct", os.path.join(SCEN, "alternating_three.json"),
                 "--out-dir", out]) == 0
    paths = [os.path.join(out, f"{name}.json")
             for name in ("stream", "certificate")]
    assert main(["verify", *paths]) == 0
    with open(paths[1]) as fh:
        cert = json.load(fh)
    stages = cert["stages"]
    assert [rec["lambda"] for rec in stages] == [12, 25, 66]
    stages[0] = dict(stages[1], stage=1)
    for side in ("e", "f"):
        cert["summary"][f"{side}_side_max"] = max(
            rec[f"{side}_side_error"] for rec in stages)
    cert["sha256"] = Certificate(cert["header"], stages,
                                 cert["summary"]).sha256
    write_json(paths[1], cert)
    capsys.readouterr()
    assert main(["verify", *paths]) == 2
    assert capsys.readouterr().err == (
        "artifact rejected: lambda 25 is not the last rank of stream block "
        "1 (the stream has 3)\n")


def test_multi_stage_center_off_the_divisor_axis_constructs(tmp_path):
    def disk(c, rad):
        return {"type": "disk", "center": [c, 0.0], "radius": rad}
    unit = {"type": "open-disk", "center": [0.0, 0.0], "radius": 1.0}
    stages = [{
        "target": {"constant": [1.0 - 2 * s, 0.0]},
        "outer": {"factors": [disk(2.5, 0.15), disk(0.0, 0.5)],
                  "disjoint_factor": 0},
        "inner": {"factors": [disk(0.0, 0.5 + 0.05 * s)] * 2},
        "tolerance": 0.01, "budgets": [8, 12, 16, 20, 24]} for s in range(2)]
    scen = _scenario(tmp_path, domain=[unit, unit], stages=stages,
                     center=[[0.0, 0.0], [0.3, 0.0]])
    out = str(tmp_path / "out")
    assert main(["construct", scen, "--out-dir", out]) == 0
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
    assert main(["construct", scen, "--out-dir", a]) == 0
    assert main(["construct", scen, "--out-dir", b]) == 0
    for fname in ("certificate.json", "stream.json", "history.csv"):
        with open(os.path.join(a, fname), "rb") as fa, \
                open(os.path.join(b, fname), "rb") as fb:
            assert fa.read() == fb.read()


def test_readme_lists_exactly_the_flags_of_each_subcommand():
    with open(README) as fh:
        text = fh.read()
    section = text.split("Flags, by subcommand:\n\n", 1)[1].split("\n\n")[0]
    listed = {}
    for item in section.split("\n- "):
        name, _, body = item.lstrip("- ").partition(":")
        listed[name.strip("`")] = set(re.findall(r"`(--?[a-z][\w-]*)", body))
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    defined = {name: {o for a in parser._actions for o in a.option_strings}
               - {"-h", "--help"} for name, parser in sub.choices.items()}
    assert listed == defined


def test_readme_lists_exactly_the_v3_certificate_keys():
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Certificates\n", 1)[1].split("\n## ")[0]
    block = section.split("holds exactly these keys:\n\n", 1)[1]
    listed = {}
    for item in block.split("\n\n")[0].split("\n- "):
        name, _, body = item.lstrip("- ").partition(":")
        listed[name] = set(re.findall(r"`(\w+)`", body))
    assert listed == {"header": verify.HEADER_KEYS,
                      "stage record": verify.RECORD_KEYS,
                      "summary": verify.SUMMARY_KEYS}


def test_shipped_scenarios_parse():
    names = sorted(f for f in os.listdir(SCEN)
                   if f.endswith(".json") and "candidate" not in f
                   and "predicates" not in f)
    assert len(names) >= 5
    for name in names:
        data = json.load(open(os.path.join(SCEN, name)))
        assert plan_from_scenario(data).requests


# the shipped scenario files (not the predicates inputs)
STAGED = sorted(f for f in os.listdir(SCEN) if f.endswith(".json") and
                "stages" in json.load(open(os.path.join(SCEN, f))))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", STAGED)
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


@pytest.mark.parametrize("name", STAGED)
def test_shipped_stream_reloads_bit_for_bit(tmp_path, name):
    # every packed array comes back with the bytes of the in-memory one,
    # signed zeros included
    stream, _ = run_construction(plan_from_scenario(
        json.load(open(os.path.join(SCEN, name)))))
    path = str(tmp_path / "stream.json")
    write_json(path, stream.to_json(), indent=None)
    with open(path) as fh:
        back = CoefficientStream.from_json(json.load(fh))
    for a, b in zip(stream.blocks, back.blocks, strict=True):
        assert a.block.coefs.tobytes() == b.block.coefs.tobytes()
        for ax, bx in zip(a.block.axes, b.block.axes, strict=True):
            assert ax.H.tobytes() == bx.H.tobytes()
            assert (ax.scale, ax.norm) == (bx.scale, bx.norm)


# the budget each stage settled on with the scaled-monomial fit; the
# Arnoldi fit may only lower them
SHIPPED_BUDGETS = {"alternating_three.json": [12, 12, 40],
                   "two_stage_conflict.json": [20, 60],
                   "seleznev.json": [40], "strong.json": [12],
                   "parameterized.json": [12]}


@pytest.mark.parametrize("name", sorted(SHIPPED_BUDGETS))
def test_shipped_scenario_passes_within_its_budgets(tmp_path, name):
    out = str(tmp_path / "out")
    assert main(["construct", os.path.join(SCEN, name), "--out-dir", out]) == 0
    with open(os.path.join(out, "certificate.json")) as fh:
        budgets = [s["budget"] for s in json.load(fh)["stages"]]
    assert len(budgets) == len(SHIPPED_BUDGETS[name])
    assert all(b <= was for b, was in zip(budgets, SHIPPED_BUDGETS[name]))


@pytest.mark.parametrize("T", [5, 6])
@pytest.mark.parametrize("angle", [0.3, 2.0])
def test_deep_ladder_passes_every_stage(tmp_path, T, angle):
    # the benchmark's ladder at two rotations of the outer disk; the
    # monomial fit missed stage 5 at E/tolerance 5.9 and T = 6's stage 6 at
    # 216, with budgets up to 120
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(ladder_scenario(T, 2.5 * cmath.exp(1j * angle))))
    out = str(tmp_path / "out")
    assert main(["construct", str(path), "--out-dir", out]) == 0
    with open(os.path.join(out, "certificate.json")) as fh:
        stages = json.load(fh)["stages"]
    assert len(stages) == T
    assert all(s["pass_e"] and s["pass_f"] and s["budget"] <= 16
               for s in stages)
    assert main(["verify", os.path.join(out, "stream.json"),
                 os.path.join(out, "certificate.json")]) == 0


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


def _refuses_format(tmp_path, capsys, version):
    """verify on a fresh certificate re-labelled as `version`, re-hashed,
    with the fields that v3 dropped put back (a v3 certificate did not
    have them, and is refused on its format all the same)."""
    out = str(tmp_path / "out")
    assert main(["construct", _scenario(tmp_path), "--out-dir", out]) == 0
    cpath = os.path.join(out, "certificate.json")
    data = json.load(open(cpath))
    data["header"].update(format=f"taylorlab-certificate-{version}", seed=0,
                          fixed_center=True)
    for rec in data["stages"]:
        rec["capture_residual"] = 0.0
    data["sha256"] = Certificate(data["header"], data["stages"],
                                 data["summary"]).sha256
    json.dump(data, open(cpath, "w"))
    capsys.readouterr()
    assert main(["verify", os.path.join(out, "stream.json"), cpath]) == 1
    message = capsys.readouterr().out
    assert message.startswith("verification refused: certificate format "
                              f"'taylorlab-certificate-{version}'")
    assert "re-run construct" in message


def test_verify_refuses_a_v1_certificate(tmp_path, capsys):
    # v1 sups were measured by the monomial evaluator and the scalar
    # re-centering; they do not replay within the 1e-12 window
    _refuses_format(tmp_path, capsys, "v1")


def test_verify_refuses_a_v2_certificate(tmp_path, capsys):
    # v2 records carry seed, fixed_center and capture_residual, and its
    # verify did not re-derive the summary
    _refuses_format(tmp_path, capsys, "v2")


def test_verify_refuses_a_v3_certificate(tmp_path, capsys):
    # v3 sups were measured on float Taylor coefficients, v4's on the
    # blocks' recurrences
    _refuses_format(tmp_path, capsys, "v3")


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
        {"predicate": "E", "m": 1, "j": 2, "s": 10, "n": 5,
         "fixed_center": [[0.3, 0.1]]}])
    capfd.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["predicates", str(path), specs])
    stdout, stderr = capfd.readouterr()
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("predicate run failed: re-centering")
    assert stderr.count("\n") == 1
    assert not caught


def test_predicates_rank_keeping_every_term_recenters_nothing(tmp_path,
                                                              capsys):
    # z1^400 + z2^400 cut at the rank of z2^400 is itself about every
    # center, though re-centering its (400, 400) box would pass the bound
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"r": 0, "d": 2, "terms": [
        {"w_exp": [], "z_exp": e, "re": 1.0, "im": 0.0}
        for e in ([400, 0], [0, 400])]}))
    disk = {"type": "open-disk", "center": [0.0, 0.0], "radius": 1.0}
    specs = _specs_path(tmp_path, [
        {"predicate": "F", "p": 1, "s": 10, "n": 80600}], domain=[disk, disk])
    assert main(["predicates", str(path), specs]) == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert report["achieved"] == 0.0 and report["pass"]
    assert report["grid_density"]["n_centers"] == 81


def test_predicates_shipped_demo(capsys):
    code = main(["predicates",
                 os.path.join(SCEN, "candidate_zsq.json"),
                 os.path.join(SCEN, "predicates_demo.json")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [r["pass"] for r in report] == [True, False, True, False]
    # the sups, to the last bit, that measuring one center at a time gave
    assert [repr(r["achieved"]) for r in report] == [
        "0.25000000000000006", "0.25000000000000006", "0.0", "1.0"]


# ------------------------------------------------------------ refusal table

NAN = float("nan")
DROP = object()
BIG = 10**400                 # too large for a float, and for an index
# a catalog index whose one coefficient is 10**309, past the largest float
OVERFLOW_J = 1 + cantor_pair(0, cantor_pair(cantor_pair(2 * 10**309, 0), 0))


def _edit(doc, path, value):
    """`doc` with the entry at `path` set to `value` (DROP deletes it; a
    function is applied to the entry it replaces)."""
    if not path:
        return value(doc) if callable(value) else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = (value(parent[path[-1]]) if callable(value)
                            else value)
    return doc


def _unpacked(blob):
    return np.frombuffer(base64.b64decode(blob), "<c16").copy()


def _packed(values):
    return base64.b64encode(np.asarray(values, "<c16").tobytes()).decode()


def _with_real_part(index, value):
    """A rewrite of a packed array: the real part of entry `index` set."""
    def rewrite(blob):
        a = _unpacked(blob)
        a.real[index] = value
        return _packed(a)
    rewrite.__name__ = f"entry[{index}].real={value!r}"
    return rewrite


def _shortened(blob):
    return _packed(_unpacked(blob)[:-1])


def _as_v4(doc):
    """The stream in the v4 layout: each Hessenberg column and the coefs as
    lists of decimal [re, im] pairs."""
    def pairs(values):
        return [[c.real, c.imag] for c in values.tolist()]
    for b in doc["blocks"]:
        b["coefs"] = pairs(_unpacked(b["coefs"]))
        for ax in b["axes"]:
            packed, cols = _unpacked(ax["hessenberg"]), []
            while len(packed):
                k = len(cols)
                cols.append(pairs(packed[:k + 2]))
                packed = packed[k + 2:]
            ax["hessenberg"] = cols
    doc["format"] = "taylorlab-stream-v4"
    return doc


def _bidisk(name, radius, **fields):
    """A bidisk scenario with budgets up to 60 whose compacts share factor
    1 = Disk(0, radius)."""
    def disk(center, radius):
        return {"type": "disk", "center": [center, 0.0], "radius": radius}
    shared = disk(0.0, radius)
    return {"name": name,
            "domain": [{"type": "open-disk", "center": [0.0, 0.0],
                        "radius": 1.0}] * 2,
            "stages": [{"target": {"constant": [1.0, 0.0]},
                        "outer": {"factors": [disk(2.5, 0.15), shared],
                                  "disjoint_factor": 0},
                        "inner": {"factors": [disk(0.0, 0.5), shared]},
                        "tolerance": 0.01, "budgets": [8, 60]}], **fields}


# seleznev's outer disk, clipped to |z| <= 3
CLIPPED = {"type": "clipped", "bound": 3.0, "base": {
    "type": "disk", "center": [2.0, 0.0], "radius": 0.25}}

# a rectangle whose x bounds lack their upper end
SHORT_RECT = {"type": "rect", "x": [2.0], "y": [0.0, 1.0]}

def _stage_twice(stages):
    """The records with the first again as record 2."""
    return stages + [dict(stages[0], stage=2)]


def _twice(factors):
    """The factor list written out twice."""
    return factors * 2


def _repeated(terms):
    """The term list with its first term again, with another coefficient."""
    return terms + [dict(terms[0], re=2.0)]


def _poly_z(path, value):
    """z as a polynomial object, with the entry at `path` set to `value`."""
    return _edit({"r": 0, "d": 1, "terms": [
        {"w_exp": [], "z_exp": [1], "re": 1.0, "im": 0.0}]}, path, value)


# a polynomial object (a candidate or a scenario target) that breaks one
# rule of the format, and the refusal, which names the first term that
# breaks it; each was read as some polynomial before, and ran (exit 0)
BAD_POLYS = [
    *[(("terms", 0, "z_exp"), v, "terms[0].z_exp must be a list of 1 "
       f"natural number(s), got {v!r}") for v in ([1.7], ["2"], [True])],
    (("d",), 1.9, "d must be an integer, got 1.9"),
    (("terms", 0, "re"), True, "terms[0].re must be a number, got True"),
    (("terms",), _repeated, "terms[1] repeats the exponents of terms[0]"),
    (("terms", 0, "extra"), 1, "terms[0] must be an object with exactly "
     "the keys w_exp, z_exp, re, im"),
]

# (file edited, path in it, new value, exit code, start of the message);
# scenarios edit seleznev.json (parameterized ones parameterized.json),
# streams and certificates its artifacts
# (re-hashed after the edit, unless it drops the hash), specs predicates_demo.json and the candidate
# candidate_zsq.json
REFUSALS = [
    ("scenario", (), [], 2, "{file}: the top level must be a JSON object"),
    ("scenario", ("enumeration",), 0, 2, "scenario rejected"),
    ("scenario", ("enumeration",), "diagonal-cantor", 2, "scenario rejected"),
    ("scenario", ("mu",), [], 2, "scenario rejected"),
    ("scenario", ("stages", 0, "target", "constant"), [NAN, 0], 2,
     "scenario rejected"),
    ("scenario", ("stages", 0, "outer", "center"), [NAN, 0], 2,
     "scenario rejected"),
    # the Arnoldi fit runs in x / scale: a 1e308 target fails its tolerance
    # (exit 1)
    ("scenario", ("stages", 0, "target", "constant"), [1e308, 0], 1,
     "stage failure: worst sampled error"),
    # a disk of radius 0.25 about 1e20 or 1e308 samples as a segment (every
    # real part rounds to the center's), so it is refused; about 1e6 its
    # samples keep their shape and the scenario constructs
    *[("scenario", ("stages", 0, "outer", "center"), [x, 0], 2,
       "scenario rejected: stage 1: outer factor 0 loses its shape")
      for x in (1e308, 1e20)],
    ("scenario", ("stages", 0, "outer", "center"), [1e6, 0], 0,
     "1 stage(s) pass"),
    # a union samples its parts' boundary curves, and a clipped set has
    # none; the clipped disk alone constructs
    *[("scenario", ("stages", 0, "outer"),
       {"factors": [factor], "disjoint_factor": 0}, code, prefix)
      for factor, code, prefix in (
          ({"type": "union", "parts": [CLIPPED]}, 2,
           "scenario rejected: stage 1: union part 0 is a clipped set"),
          (CLIPPED, 0, "1 stage(s) pass"))],
    # a stage entry that does not parse is refused with its stage
    ("scenario", ("stages", 0, "target"), {}, 2,
     "scenario rejected: stage 1: missing key 'terms'"),
    # and a wrong-typed target, [re, im] pair or center by its field
    ("scenario", ("stages", 0, "target"), None, 2,
     'scenario rejected: stage 1: target must be "catalog:j", '
     '{{"constant": [re, im]}} or a polynomial object, got None'),
    ("scenario", ("stages", 0, "target"), {"constant": "x"}, 2,
     "scenario rejected: stage 1: constant must be an [re, im] pair, "
     "got 'x'"),
    ("scenario", ("stages", 0, "target"), "catalog:x", 2,
     "scenario rejected: stage 1: target 'catalog:x' must be catalog:j "
     "with j an integer"),
    ("scenario", ("stages", 0, "target"), {"r": 0, "d": 1, "terms": "x"}, 2,
     "scenario rejected: stage 1: terms must be a list, not str"),
    *[("scenario", ("stages", 0, "target"), _poly_z(path, value), 2,
       f"scenario rejected: stage 1: {message}")
      for path, value, message in BAD_POLYS],
    ("scenario", ("center",), "x", 2, "scenario rejected: center must be a "
     "list of [re, im] pairs, got 'x'"),
    # each part of an [re, im] pair is a number: false is not 0, nor true 1
    ("scenario", ("stages", 0, "target", "constant"), [True, 0], 2,
     "scenario rejected: stage 1: constant[0] must be a number, got True"),
    ("scenario", ("center",), [[0.0, False]], 2, "scenario rejected: center "
     "must be a list of [re, im] pairs, got [[0.0, False]]"),
    ("scenario", ("stages", 0, "outer", "center"), [2.0, False], 2,
     "scenario rejected: stage 1: disk center[1] must be a number, got "
     "False"),
    # one rule for the w compact's arity, stated for the plan, not a stage
    ("parameterized", ("w_compact",), DROP, 2,
     "scenario rejected: r = 1 needs a w_compact of arity r, got none"),
    # the w compact's factors are checked as a stage's are, before any fit
    *[("parameterized", ("w_compact", "factors", 0, key), value, 2,
       f"scenario rejected: w_compact factor 0{message}")
      for key, value, message in (
          ("radius", 1e-320, " loses its shape: float64 rounding "
           "collapses its samples"),
          ("radius", 1e308, ": disk boundary length overflows a float"),
          ("center", [1e300, 0], " loses its shape: float64 rounding "
           "collapses its samples"))],
    # a compact or domain field is read by its name: a rect's x as two
    # finite numbers, a center as an [re, im] pair, a radius as a finite
    # number
    *[("scenario", path, value, 2, f"scenario rejected: {message}")
      for path, value, message in (
          (("stages", 0, "outer"), SHORT_RECT,
           "stage 1: rect x must be a [lo, hi] pair, got [2.0]"),
          (("domain", 0), dict(SHORT_RECT, type="open-rect"),
           "open-rect x must be a [lo, hi] pair, got [2.0]"),
          (("w_compact",), {"factors": [SHORT_RECT]},
           "rect x must be a [lo, hi] pair, got [2.0]"),
          (("stages", 0, "outer"), dict(SHORT_RECT, x=["2", "3"]),
           "stage 1: rect x must be a number, got '2'"),
          (("stages", 0, "inner", "center"), [],
           "stage 1: disk center must be an [re, im] pair, got []"),
          (("stages", 0, "inner", "center"), {},
           "stage 1: disk center must be an [re, im] pair, got {{}}"),
          (("stages", 0, "inner", "radius"), NAN,
           "stage 1: disk radius must be finite, got nan"),
          (("w_compact",), {"factors": [
              {"type": "disk", "center": [0.0, 0.0], "radius": NAN}]},
           "disk radius must be finite, got nan"))],
    # a finite radius whose boundary length overflows, and a tolerance that
    # is not a number (a bool is not one), are refused by name
    *[("scenario", ("stages", 0, side, "radius"), 1e308, 2,
       f"scenario rejected: stage 1: {side} factor 0: disk boundary length "
       "overflows a float") for side in ("outer", "inner")],
    *[("scenario", ("stages", 0, "tolerance"), value, 2,
       f"scenario rejected: stage 1: tolerance must be a number, "
       f"got {value!r}") for value in ("x", True)],
    ("scenario", ("l",), 1.5, 2, "scenario rejected"),
    # a misspelt key would leave its default in place: a plain certificate
    ("scenario", ("varient",), "strong", 2,
     "scenario rejected: unknown scenario key 'varient'"),
    ("scenario", ("stages", 0, "budget"), [10], 2,
     "scenario rejected: stage 1: unknown key 'budget'"),
    # and so would a stray key in a compact, a product or a domain factor:
    # the certificate's inner disk would verify as the radius it had
    ("scenario", ("stages", 0, "outer", "radus"), 0.3, 2,
     "scenario rejected: stage 1: unknown disk key 'radus'"),
    ("scenario", ("domain", 0, "closed"), True, 2,
     "scenario rejected: unknown open-disk key 'closed'"),
    ("certificate", ("stages", 0, "inner", "radius"), 1.5, 2,
     "artifact rejected: unknown inner key 'radius'"),
    # a flagged factor is an integer: true is not factor 1, nor 0.0 factor 0
    *[("scenario", ("stages", 0, "outer"), {"factors": [
        {"type": "disk", "center": [2.0, 0.0], "radius": 0.25}],
        "disjoint_factor": v}, 2, "scenario rejected: stage 1: "
       f"disjoint_factor must be an integer, got {v!r}") for v in (True, 0.0)],
    # an entry of the wrong JSON type is refused by its field
    *[("scenario", path, value, 2, f"scenario rejected: {message}")
      for path, value, message in (
          (("stages", 0), 0, "stage 1: a stage must be an object, got 0"),
          (("stages",), 0, "stages must be a list, got 0"),
          (("w_compact",), True, "w_compact must be an object, got True"),
          (("stages", 0, "outer"), {"factors": "x", "disjoint_factor": 0},
           "stage 1: outer factors must be a list, got 'x'"))],
    ("scenario", ("name",), {"a": [1, None]}, 2,
     "scenario rejected: name must be a string, got {{'a': [1, None]}}"),
    ("scenario", ("fixed_center",), False, 2,
     "scenario rejected: a construction is measured about its one center; "
     "for sups over varying centers run `predicates`"),
    ("scenario", ("cert_density",), 64.7, 2, "scenario rejected"),
    ("scenario", ("stages", 0, "outer"), {"family": "tm", "m": 1.5}, 2,
     "scenario rejected"),
    ("scenario", ("stages", 0, "target"),
     {"r": 0, "d": 1,
      "terms": [{"w_exp": [], "z_exp": [10**30], "re": 1.0, "im": 0.0}]}, 2,
     "scenario rejected: stage 1: exponents up to [10000000000000000000000"),
    # a number too large for a float is refused by its field
    *[("scenario", path, value, 2,
       f"scenario rejected: {field} is too large for a float")
      for path, value, field in (
          (("cert_density",), BIG, "cert_density"), (("r",), BIG, "r"),
          (("stages", 0, "tolerance"), BIG, "stages[0].tolerance"),
          (("stages", 0, "budgets"), [10, BIG], "stages[0].budgets[1]"),
          (("stages", 0, "outer", "radius"), BIG, "stages[0].outer.radius"),
          (("stages", 0, "outer", "center"), [BIG, 0],
           "stages[0].outer.center[0]"),
          (("stages", 0, "outer"), {"family": "tm", "m": BIG},
           "stages[0].outer.m"),
          (("stages", 0, "inner"), {"family": "mp", "p": BIG},
           "stages[0].inner.p"))],
    ("scenario", ("stages", 0, "target"), f"catalog:{OVERFLOW_J}", 2,
     "scenario rejected"),
    ("stream", (), [], 2, "{file}: the top level must be a JSON object"),
    ("stream", ("enumeration",), 1, 2, "artifact rejected"),
    ("stream", ("enumeration",), "explicit-table:0,0", 2, "artifact rejected"),
    ("stream", ("blocks", 0, "poly"), [], 2, "artifact rejected"),
    # a forged block that overflows on the grids measures inf or NaN there
    # (no RuntimeWarning), and fails; packed entry 9 is H[0, 3]
    ("stream", ("blocks", 0, "axes", 0, "hessenberg"),
     _with_real_part(9, 1e308), 1, "certificate does NOT match"),
    # header integers must be ints, scale and norm numbers, the center a
    # list of [re, im] pairs
    *[("stream", (key,), value, 2, f"artifact rejected: {key} must be an "
       "integer") for key, value in (("d", 1.9), ("d", True), ("r", "0"),
                                     ("r", 0.5))],
    *[("stream", ("blocks", 0, "axes", 0, key), value, 2,
       f"artifact rejected: an axis {what} must be a number")
      for key, what in (("scale", "scale"), ("norm", "start normaliser"))
      for value in ("1.0", True)],
    *[("stream", ("blocks", 0, "axes", 0, key), BIG, 2,
       f"artifact rejected: an axis {what} is too large for a float")
      for key, what in (("scale", "scale"), ("norm", "start normaliser"))],
    # a block's stage is a string, its divisor two integers, and an axis
    # holds exactly its three keys
    *[("stream", ("blocks", 0, "stage"), value, 2,
       "artifact rejected: a block's stage must be a string")
      for value in (1, ["stage-1"])],
    *[("stream", ("blocks", 0, "divisor"), value, 2,
       "artifact rejected: divisor must be a list of two integers")
      for value in ([0, 0, 0], 5, [0])],
    *[("stream", ("blocks", 0, "axes", 0, key), value, 2,
       "artifact rejected: an axis holds exactly the keys hessenberg, "
       "norm, scale") for key, value in (("extra", 1), ("norm", DROP))],
    *[("stream", ("center", 0), value, 2, "artifact rejected: the stream "
       "center must be a list of [re, im] pairs")
      for value in ([0.0, 0.0, 0.0], [0.0], 0.0, ["a", "b"])],
    # block arrays are base64 of whole complex128 values: a Hessenberg
    # matrix of degree n packs n (n + 3) / 2 of them, a block one per
    # graded column
    *[("stream", ("blocks", 0, *path), value, 2, f"artifact rejected: {msg}")
      for path, value, msg in (
          # a decoder that skipped the '*' would read one coefficient
          (("coefs",), "*" + _packed([0.0]), "a block's coefs is not a "
           "base64 string: "),
          (("coefs",), "AAAAAAAAAAAAAAAA", "a block's coefs holds 12 "
           "bytes, not a multiple of 16"),
          (("coefs",), [[0.0, 0.0]], "a block's coefs is not a base64 "
           "string: "),
          (("coefs",), _shortened, "a block of budget 40 needs 41 "
           "coefficients, got 40"),
          (("axes", 0, "hessenberg"), _packed([1.0] * 3),
           "a Hessenberg matrix holds 3 entries, which is n (n + 3) / 2 "
           "for no degree n"),
          (("axes", 0, "hessenberg"), "AAAAAAAAAAA=", "a Hessenberg matrix "
           "holds 8 bytes, not a multiple of 16"))],
    ("stream", (), _as_v4, 2, "artifact rejected: stream format "
     "'taylorlab-stream-v4' is not 'taylorlab-stream-v5'; re-run construct"),
    ("certificate", ("header",), [], 2, "artifact rejected"),
    # the top level holds exactly header, stages, summary and sha256
    ("certificate", ("sha256",), DROP, 2,
     "artifact rejected: missing key 'sha256'"),
    ("certificate", ("note",), "x", 1, "certificate does NOT match"),
    # a malformed mu tag is refused by the tag, in a scenario and in a
    # certificate's header
    *[(file, path, tag, 2, f"{rejected} rejected: {message}")
      for file, path, rejected in (("scenario", ("mu",), "scenario"),
                                   ("certificate", ("header", "mu"),
                                    "artifact"))
      for tag, message in (
          *((tag, f"malformed index-set tag {tag!r}, expected mu:all, "
             "mu:arith:a,b or mu:list:v1,v2,...[:beyond]")
            for tag in ("mu:arith:1", "mu:arith:x,1", "mu:list:a",
                        "mu:list:1:after")),
          ("mu:arith:3,0", "index-set tag 'mu:arith:3,0': arithmetic "
           "progression needs a >= 0, b >= 1"))],
    ("certificate", ("header", "r"), DROP, 2, "artifact rejected"),
    ("certificate", ("header", "d"), DROP, 2, "artifact rejected"),
    # every key of the v3 schema must be there
    *[("certificate", ("stages", 0, key), DROP, 2, "artifact rejected")
      for key in ("lambda", "target", "outer", "inner", "density",
                  "tolerance", "e_side_error", "f_side_error", "pass_f",
                  "budget")],
    *[("certificate", ("summary", key), DROP, 2, "artifact rejected")
      for key in ("aborted", "all_pass", "frontier")],
    ("certificate", ("header", "name"), DROP, 2, "artifact rejected"),
    ("certificate", ("header", "center"), "x", 2, "artifact rejected: the "
     "certificate center must be a list of [re, im] pairs, got 'x'"),
    ("certificate", ("stages", 0, "lambda"), -1, 2, "artifact rejected"),
    ("certificate", ("stages",), [1], 2, "artifact rejected"),
    ("certificate", ("stages",), {}, 2, "artifact rejected"),
    ("certificate", ("summary",), [], 2, "artifact rejected"),
    ("certificate", ("stages", 0, "e_side_error"), NAN, 1,
     "certificate does NOT match"),
    # densities, pass flags and the whole summary are recomputed from the
    # header, the stage inputs and the stream, not read; a key outside the
    # v3 schema is a mismatch too
    # a record's stage is its 1-based position, as a JSON integer
    *[("certificate", ("stages", 0, "stage"), value, 1,
       "certificate does NOT match")
      for value in ("x", None, {}, -1, True, 1.0, 2)],
    *[("certificate", path, value, 1, "certificate does NOT match")
      for path, value in ((("header", "cert_density"), 999),
                          (("stages", 0, "density"), "x"),
                          (("stages", 0, "density", "nz_points"), 4000),
                          (("stages", 0, "density", "nz_points"), 400.0),
                          (("stages", 0, "density", "nw_points"), 7),
                          (("stages", 0, "pass_e"), False),
                          (("stages", 0, "pass_e"), 1),
                          (("summary", "all_pass"), False),
                          (("summary", "e_side_max"), 5.0),
                          (("summary", "f_side_max"), 1e-3),
                          (("summary", "final_capture"), 7),
                          (("summary", "final_degree"), 7),
                          (("summary", "final_term_count"), 7),
                          (("summary", "frontier"), 7),
                          (("summary", "stages"), 2),
                          (("summary", "aborted"),
                           {"stage": 2, "reason": "forged"}),
                          (("stages", 0, "varying_center"),
                           {"n_centers": 9, "e_side_error": 0.0,
                            "f_side_error": 0.0}),
                          (("stages", 0, "capture_residual"), 0.0),
                          (("summary", "note"), None),
                          (("header", "seed"), 0),
                          (("header", "fixed_center"), False))],
    ("certificate", ("header", "variant"), "bogus", 2, "artifact rejected"),
    # a record's target is read as a candidate is: true is not 1.0
    ("certificate", ("stages", 0, "target", "terms", 0, "re"), True, 2,
     "artifact rejected: terms[0].re must be a number, got True"),
    ("certificate", ("header", "cert_density"), BIG, 2, "artifact rejected"),
    # the stage compacts are checked against the header's domain: an open
    # disk of radius 1.9 swallows seleznev's outer disk at |z - 2| <= 0.25
    ("certificate", ("header", "domain"),
     [{"type": "open-disk", "center": [0.0, 0.0], "radius": 1.9}], 2,
     "artifact rejected: stage 1: outer factor 0 reaches into the domain "
     "near 1.887+0.2228j"),
    # the stream's blocks 1..s give these record fields; verify derives
    # them with construct's function
    *[("certificate", ("stages", 0, key), value, 1,
       "certificate does NOT match")
      for key, value in (("capture_index", 0), ("divisor_exponent", 999),
                         ("max_degree", 1), ("budget", 60),
                         ("n_columns", 7))],
    # record s's lambda must end block s, and block s must be there
    ("certificate", ("stages",), _stage_twice, 2, "artifact rejected: "
     "lambda 40 is not the last rank of stream block 2 (the stream has 1)"),
    # a record's compacts must have d factors, as the stream's grids do
    ("certificate", ("stages", 0, "outer", "factors"), _twice, 2,
     "artifact rejected: outer has 2 factors, d = 1"),
    # a lambda must be mu's first member at or after the capture index
    ("certificate", ("header", "mu"), "mu:arith:7,1000", 2,
     "artifact rejected: lambda 40 is not the first member"),
    # integers must be ints and the tolerance a float
    *[("certificate", path, value, 2, "artifact rejected")
      for path, value in ((("stages", 0, "tolerance"), "0.01"),
                          (("stages", 0, "lambda"), 40.0),
                          (("header", "l"), "0"), (("header", "r"), 0.0),
                          (("header", "cert_density"), "0"))],
    ("candidate", ("terms", 0, "re"), NAN, 2,
     "specs rejected: terms[0].re must be finite, got nan"),
    *[("candidate", path, value, 2, f"specs rejected: {message}")
      for path, value, message in BAD_POLYS],
    ("specs", ("domain", 0), dict(SHORT_RECT, type="open-rect"), 2,
     "specs rejected: open-rect x must be a [lo, hi] pair, got [2.0]"),
    ("specs", ("specs",), "x", 2, "specs rejected"),
    *[("specs", ("specs", 0), v, 2, "specs rejected")
      for v in (1.5, None, True)],
    ("specs", ("specs", 0), {"variant": "strong", "l": 1.5}, 2,
     "specs rejected"),
    ("specs", ("specs", 0, "p"), 1.9, 2, "specs rejected"),
    # a misspelt key would leave its default in place: 9 centers, not 1
    ("specs", ("specs", 0, "fixed_centre"), [[0.0, 0.0]], 2,
     "specs rejected: unknown spec key 'fixed_centre'"),
    ("specs", ("spec",), [], 2,
     "specs rejected: unknown key 'spec' in the spec file"),
    *[("specs", ("specs", 0, "fixed_center"), v, 2,
       "specs rejected: fixed_center must be a list of [re, im] pairs")
      for v in ([[0.0]], [[0.0, 0.0, 0.0]], 0.0, [["a", "b"]])],
    # the center must be a point of the open unit disk, with one coordinate
    *[("specs", ("specs", 0, "fixed_center"), v, 2,
       "predicate run failed: fixed_center must lie inside the domain")
      for v in ([[5.0, 0.0]], [[1.0, 0.0]])],
    ("specs", ("specs", 0, "fixed_center"), [[0.0, 0.0], [0.1, 0.0]], 2,
     "predicate run failed: fixed_center has 2 coordinate(s)"),
    ("specs", ("specs", 0, "n"), True, 2, "specs rejected"),
    # predicates_demo.json: specs 0 and 1 are F-side, spec 3 is E-side
    *[("specs", path, value, 2, "predicate run failed")
      for path, value in ((("specs", 3, "m"), BIG), (("specs", 0, "p"), BIG),
                          (("specs", 0, "s"), BIG),
                          (("specs", 3, "j"), OVERFLOW_J))],
    # a container of the wrong JSON type is refused by its field, and a
    # missing key by name
    *[(file, path, value, 2, f"{rejected} rejected: {message}")
      for file, rejected, path, value, message in (
          ("scenario", "scenario", ("domain",), 5,
           "domain must be a list, got 5"),
          ("scenario", "scenario", ("domain",), [5],
           "domain factor 0 must be an object, got 5"),
          ("scenario", "scenario", ("domain", 0, "center"), DROP,
           "missing key 'center'"),
          ("specs", "specs", ("domain",), 5, "domain must be a list, got 5"),
          ("specs", "specs", ("domain",), [5],
           "domain factor 0 must be an object, got 5"),
          ("specs", "specs", ("domain", 0, "center"), DROP,
           "missing key 'center'"),
          ("specs", "specs", ("w_domain",), 5,
           "w_domain must be a list, got 5"),
          ("specs", "specs", ("specs",), 5, "specs must be a list, got 5"),
          ("specs", "specs", ("specs",), {"a": 1},
           "specs must be a list, got {{'a': 1}}"),
          ("stream", "artifact", ("blocks",), 5,
           "stream blocks must be a list, got 5"))],
]


def _refusal_id(case):
    file, path, value, code, _ = case
    if value is DROP:
        shown = "drop"
    elif isinstance(value, dict) and "name" in value:
        shown = value["name"]
    elif callable(value):
        shown = value.__name__
    else:
        shown = json.dumps(value, separators=(",", ":"))
        shown = re.sub(r"\d{100,}", lambda m: f"<{len(m[0])}-digit int>", shown)
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
                 parameterized=read("parameterized.json"),
                 candidate=read("candidate_zsq.json"),
                 specs=read("predicates_demo.json"))
    doc = _edit(json.loads(texts[file]), path, value)
    if file == "certificate" and "sha256" in doc:
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
    predicates = ["predicates", paths["candidate"], paths["specs"]]
    argv = {**{name: ["construct", paths[name], "--out-dir", out]
               for name in ("scenario", "parameterized")},
            "stream": verify, "certificate": verify,
            "specs": predicates, "candidate": predicates}[file]
    assert main(argv) == code
    stdout, stderr = capsys.readouterr()
    message = stderr if code == 2 else stdout
    assert message.startswith(prefix.format(file=paths[file]))
    assert "Traceback" not in stdout + stderr
    if code == 2:
        assert stdout == ""
        assert stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["construct", "verify", "predicates"])
def test_too_deeply_nested_json_exits_2_naming_the_file(tmp_path, capsys,
                                                         command):
    path = str(tmp_path / "nested.json")
    with open(path, "w") as fh:
        fh.write("[" * 100_000 + "]" * 100_000)
    argv = {"construct": [path, "--out-dir", str(tmp_path / "out")],
            "verify": [path, path], "predicates": [path, path]}[command]
    assert main([command, *argv]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr == f"{path}: JSON nested too deeply to read\n"


# what verify only records (README, "It only records these"): header
# fields by their path, record fields by their path in the record;
# header.w_compact only when r = 0, header.l only under the plain variant
RECORDED_ONLY = ("header.name", "header.w_compact", "header.l",
                 "header.w_compact.disjoint_factor", "inner.disjoint_factor",
                 "cond", "converged", "fit_residual_inner",
                 "fit_residual_outer", "fit_tolerance_inner",
                 "fit_tolerance_outer")


def _leaves(doc, path=()):
    """The (path, value) of every scalar in a JSON document."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict)
                           else enumerate(doc)):
            yield from _leaves(value, path + (key,))
    else:
        yield path, doc


def _changed(value):
    """Another value of the same JSON type: a float moves and changes
    sign (a tolerance tightens), 0.0 becomes 0.5, null becomes 0."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return -2 * value if value else 0.5
    return 0 if value is None else value + "x"


def _recorded_only(path, header) -> bool:
    name = ".".join(map(str, path if path[0] == "header" else path[2:]))
    if name == "header.w_compact":
        return header["r"] == 0
    if name == "header.l":
        return header["variant"] == "plain"
    return name in RECORDED_ONLY


def _measured(doc) -> list:
    return [[rec[k] for k in verify.STAGE_MEASURED]
            for rec in doc["stages"]] + [doc["summary"]]


def test_readme_lists_what_verify_only_records():
    with open(README) as fh:
        text = fh.read()
    section = text.split("It only records these")[1].split("\n\n")[1]
    heads = [re.split(r":\s", item)[0] for item in section.split("\n- ")]
    assert [name for head in heads
            for name in re.findall(r"`([^`]+)`", head)] == list(RECORDED_ONLY)


@pytest.mark.parametrize("name", ["seleznev", "strong", "parameterized"])
def test_a_forged_certificate_does_not_verify(tmp_path, capsys, name):
    # a forger changes one leaf of the header or a record, re-derives the
    # measured fields and the summary as construct would, and re-hashes
    # (so a measured field, the summary or the hash forges nothing).
    # verify passes it with its measurements unchanged exactly when it
    # only records that leaf; a changed input that verify measures anew
    # and that still passes (a w compact moved, on which w z is still
    # fitted exactly) is a true certificate of other inputs
    out = str(tmp_path / "out")
    assert main(["construct", os.path.join(SCEN, f"{name}.json"),
                 "--out-dir", out]) == 0
    paths = [os.path.join(out, f) for f in ("stream.json",
                                            "certificate.json")]
    with open(paths[0]) as fh:
        stream = CoefficientStream.from_json(json.load(fh))
    with open(paths[1]) as fh:
        original = json.load(fh)
    inputs = [(path, value) for path, value in _leaves(
        {k: original[k] for k in ("header", "stages")})
        if path[0] == "header" or path[2] not in verify.STAGE_MEASURED]
    only_recorded = []
    for path, value in inputs:
        doc = _edit(copy.deepcopy(original), path, _changed(value))
        try:
            doc["summary"] = verify.certify_stages(
                stream, doc["header"], doc["stages"],
                doc["summary"]["aborted"])
        except universal.REFUSED:
            pass                       # verify refuses it too
        doc["sha256"] = Certificate(doc["header"], doc["stages"],
                                    doc["summary"]).sha256
        write_json(paths[1], doc)
        if (main(["verify", *paths]) == 0
                and _measured(doc) == _measured(original)):
            only_recorded.append(path)
        capsys.readouterr()
    assert only_recorded == [path for path, _ in inputs
                             if _recorded_only(path, original["header"])]


def _old_stream_is_refused(tmp_path, capsys, artifacts, layout):
    """verify on seleznev's stream rewritten in an earlier layout (no
    format key; `layout(block's Taylor view)` is each block's body) exits
    2 with one line that says to re-run construct."""
    doc = json.loads(artifacts["stream"])
    stream = CoefficientStream.from_json(doc)
    del doc["format"]
    doc["blocks"] = [dict(layout(b.block.taylor(), stream.enum),
                          stage=b.stage_id, n_max=b.n_max)
                     for b in stream.blocks]
    paths = {}
    for name, text in (("stream", json.dumps(doc)),
                       ("certificate", artifacts["certificate"])):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            fh.write(text)
    assert main(["verify", paths["stream"], paths["certificate"]]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("artifact rejected: ")
    assert "re-run construct" in stderr
    assert stderr.count("\n") == 1
    assert "Traceback" not in stderr


def test_verify_per_rank_stream_says_to_reconstruct(tmp_path, capsys,
                                                    seleznev_artifacts):
    # the layout of earlier streams: one w-polynomial (d = 0) per rank
    def per_rank(poly, enum):
        coeffs = {}
        for t in poly.to_json()["terms"]:
            coeffs.setdefault(str(enum.rank(t["z_exp"])), {
                "r": poly.r, "d": 0, "terms": []})["terms"].append(
                dict(t, z_exp=[]))
        return {"coeffs": coeffs}
    _old_stream_is_refused(tmp_path, capsys, seleznev_artifacts, per_rank)


def test_verify_v3_stream_says_to_reconstruct(tmp_path, capsys,
                                              seleznev_artifacts):
    # v3 streams held each block as one Taylor polynomial
    _old_stream_is_refused(tmp_path, capsys, seleznev_artifacts,
                           lambda poly, enum: {"poly": poly.to_json()})


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
           for name in ("seleznev", "strong", "parameterized")}
# a rect outer compact, so that the rect and w_compact readers are mutated
MUTATED["parameterized"]["stages"][0]["outer"] = {
    "type": "rect", "x": [2.35, 2.65], "y": [-0.15, 0.15]}
MUTATION_SITES = [(name, path) for name, doc in MUTATED.items()
                  for path in _key_paths(doc)]
MUTATION_VALUES = [DROP, 1e308, 10**12, BIG, NAN, -1, "x", [], {}, 0, None,
                   True]
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
    # an outer disk about 1e308 samples as a segment, refused at plan time;
    # one of radius 1e90 about 1e100 keeps its shape, but stage 1's block
    # overflows on it
    (_oversized("alternating_three", ("stages", 1, "outer", "center"),
                [1e308, 0]), "stage 2: outer factor 0 loses its shape"),
    (_oversized("alternating_three", ("stages", 1, "outer"),
                {"type": "disk", "center": [1e100, 0], "radius": 1e90}),
     "stage 2: piece 1: the target is not finite"),
    # z^300 overflows on a disk about 1e6 by itself
    (_oversized("seleznev", ("stages", 0), lambda stage: dict(
        stage, outer={"type": "disk", "center": [1e6, 0], "radius": 0.25},
        target={"r": 0, "d": 1, "terms": [
            {"w_exp": [], "z_exp": [300], "re": 1.0, "im": 0.0}]})),
     "stage 1: piece 1: the target is not finite"),
    # 2 pieces x 6 derivative rows x 96 x 61 reduced rows x 1891 columns
    # (1.3e8 entries), where one piece's dense (w, z) design has 1.7e7
    (_bidisk("strong-bidisk", 0.5, variant="strong", l=2),
     "design matrix would be too large"),
    # w^2000 + z^500: each w-exponent's z-part spans at most 501 dense
    # coefficients, but the kernels densify the joint (w, z) box, 2001 x 501
    (_oversized("parameterized", ("stages", 0, "target"), {
        "r": 1, "d": 1, "terms": [
            {"w_exp": [we], "z_exp": [ze], "re": 1.0, "im": 0.0}
            for we, ze in ((2000, 0), (0, 500))]}),
     "stage 1: exponents up to [2000, 500] span 1002501 dense coefficients"),
], ids=["l", "budget", "divisor", "divisor-overflow", "target-overflow",
        "design-rows", "joint-dense-box"])
def test_oversized_input_is_refused_before_it_allocates(tmp_path, capfd, doc,
                                                       reason):
    # this process's CPU time, not wall time, so the machine's load does
    # not count; tracemalloc sees numpy's buffers too, and each case peaks
    # at a few MiB, far below what its refused work would allocate
    tracemalloc.start()
    start = time.process_time()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = _run_construct(capfd, tmp_path, doc)
        cpu = time.process_time() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert cpu < 1.0
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("scenario rejected: ")
    assert reason in stderr
    assert stderr.count("\n") == 1
    assert not caught


HOLED = {"type": "union", "parts": [
    {"type": "disk", "center": [2.5, 0.0], "radius": 0.15},
    {"type": "disk", "center": [2.6, 0.0], "radius": 0.15}]}


@pytest.mark.parametrize("path, value, reason", [
    (("stages", 2, "outer", "center"), [1e20, 0],
     "outer factor 0 loses its shape: float64 rounding collapses its samples"),
    # overlapping disks: the union's complement may have holes
    (("stages", 2, "outer"), HOLED,
     "piece 1: gluing factor may enclose holes"),
    # 2 pieces x 400 samples x 20001 columns passes MAX_DESIGN_ENTRIES
    (("stages", 2, "budgets"), [40, 60, 20000],
     "design matrix would be too large; lower the budget or the sampling "
     "density")], ids=["shape", "holed", "design"])
def test_a_late_stage_that_loses_its_shape_is_refused_before_any_fit(
        tmp_path, capfd, monkeypatch, path, value, reason):
    # geometry the scenario alone decides is refused at plan time, so the
    # two stages before it are never fitted
    calls = []

    def counted(task):
        calls.append(task)
        return fit(task)
    monkeypatch.setattr(universal, "fit", counted)
    doc = _oversized("alternating_three", path, value)
    code, stdout, stderr = _run_construct(capfd, tmp_path, doc)
    assert code == 2
    assert stdout == ""
    assert stderr == f"scenario rejected: stage 3: {reason}\n"
    assert calls == []

"""Checks of the benchmark's tracer: python3 -m pytest bench/test_tracer.py

The traced counts are compared with counts taken without the tracer: the
budgets each fit tried (its residual history) and the stages each
certificate records.
"""

import json
import os
import time

import run
import workloads

cli = run.import_program()

import tracer as tracing  # noqa: E402  (needs the program on sys.path)


def test_install_wraps_every_lookup_site_and_uninstall_restores():
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in tracing.SITES]
    t = tracing.Tracer()
    t.install()
    try:
        for owner, attr, original in originals:
            wrapped = owner.__dict__[attr]
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
    finally:
        t.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original


def test_self_time_excludes_direct_children():
    t = tracing.Tracer()
    inner = t.wrap("inner", lambda: time.sleep(0.02))

    def body():
        inner()
        inner()
        time.sleep(0.01)

    t.wrap("outer", body)()
    totals = t.totals()
    calls, total, self_s = totals["outer"]
    assert calls == 1 and totals["inner"][0] == 2
    assert abs(total - self_s - totals["inner"][1]) < 1e-9
    assert 0.005 < self_s < total - 0.035
    assert t.parent == [-1, 0, 0]


def test_traced_counts_match_independent_counts(tmp_path):
    units = []
    for name, scen in (
            ("ladder-3", workloads.ladder_scenario(3, 2.5j)),
            ("strong-l2", workloads.strong_l2_scenario(-2.5 + 0j))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scen))
        units.append(workloads.Unit("construct", name, (str(path),)))

    runner = run.Runner(cli)
    runner.tracer = t = tracing.Tracer()
    t.install()
    try:
        runner.round(units)
    finally:
        t.uninstall()
    assert runner.failed == 0, runner.failures

    totals = t.totals()
    stages = 0
    for u in units:
        with open(os.path.join(u.out_dir, "certificate.json")) as fh:
            stages += len(json.load(fh)["stages"])
    assert stages == 4
    assert totals["mergelyan.fit"][0] == stages == runner.stages_built
    assert totals["universal.build_stage"][0] == stages
    assert totals["mergelyan.solve"][0] == t.counts["mergelyan.budgets_tried"]
    assert totals["mergelyan.solve"][0] >= stages
    # per construct unit: one construct, then the repeated verify
    verifies = run.REPEATS * len(units)
    assert totals["cli.main"][0] == len(units) + verifies
    assert totals["verify.verify_certificate"][0] == verifies
    assert totals["geometry.sup_norm"][0] > 0
    assert t.counts["cli.artifact_bytes"] > 0
    # every span but the cli.main roots has a parent inside its unit
    for i, p in enumerate(t.parent):
        if p >= 0:
            assert t.unit_of[p] == t.unit_of[i]
            assert t.start[p] <= t.start[i] <= t.end[i] <= t.end[p]
        else:
            assert t.names[t.name[i]] == "cli.main"

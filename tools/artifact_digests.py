"""Print the sha256 of every artifact a checkout's command line writes.

    python3 tools/artifact_digests.py [--checkout DIR] [--seeds 0 7 ...]

One line per artifact, `sha256  name`, sorted by name:

- the `certificate.json`, `stream.json` and `history.csv` that `construct`
  writes for each shipped scenario, and the exit code and standard output
  of `verify` on them (`verify.out`);
- the standard output of `predicates` on the shipped demo
  (`candidate_zsq.json` with `predicates_demo.json`), and on a partial sum
  of the shipped `parameterized` stream with an r = 1, strong-variant
  (l = 1) F and E spec, whose lanes carry a w-axis and derivatives, and
  of z1^2 + z2^2 on the bidisk cut at the rank of its top term (every lane
  is f, though the degree box reaches past that rank) and below it, and of
  a candidate written by hand (integer coefficients, a zero term, terms
  out of order), which must read as the polynomial its terms spell;
- the same four digests of a deep ladder, the checkout's
  `bench/workloads.ladder_scenario(18, 2.5j)` with inner radii
  0.5 + 0.025 (s + 1), all distinct, the last 0.95: its early blocks are
  measured on more grids than a block keeps rows for (`poly.ROWS_KEPT`),
  so its row caches evict, which no shipped scenario or benchmark unit
  does;
- the same four digests of `alternating_three` with zero targets at
  stages 1 and 2, under `mu:all` (lambda = 0, 1, 42: a zero block has no
  degree box, so lambda's floor is one past the previous lambda) and
  under `mu:list:0` (construct aborts at stage 2 with exit 1);
- the same four digests of two scenarios written here, so that every
  compact and domain type is constructed, written and replayed: one on an
  open rectangle with rectangle, segment, arc and union compacts, and one
  of the infty variant (l = 1) on an open disk of radius 2, whose inner
  compacts are the clipped closures `{"family": "mp", "p": 1}` and whose
  second outer compact is the slit annulus `{"family": "tm", "m": 1}`;
  and the standard output of `predicates` on the hand-written candidate
  with infty specs on that open rectangle;
- for each seed, the same four digests of every construct unit of the
  `ladder` and `wide` benchmark workloads, and the standard output of
  every predicates unit, with the inputs that the checkout's own
  `bench/workloads.py` and `bench/run.py` generate.

The program and the workload generators are imported from the checkout
(default: the one this file is in); nothing in it is written, and the
inputs and outputs live in a temporary directory removed at exit.  A
refactor that must keep every artifact byte-identical is checked with one
`diff` of two runs, one per checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

# one BLAS thread, as in the benchmark, set before numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# the benchmark workloads' seeds digested by default
SEEDS = (0, 7)
SHIPPED = ("alternating_three", "parameterized", "seleznev", "strong",
           "two_stage_conflict")
ARTIFACTS = ("certificate.json", "stream.json", "history.csv")
UNIT_DISK = {"type": "open-disk", "center": [0.0, 0.0], "radius": 1.0}
# predicates on the parameterized stream's partial sum through rank
# PARAM_RANK (its top rank is 12), each spec cutting it at rank 6
PARAM_RANK = 9
PARAM_SPECS = {"domain": [UNIT_DISK], "w_domain": [UNIT_DISK], "specs": [
    {"predicate": "F", "p": 1, "s": 10, "n": 6, "variant": "strong", "l": 1},
    {"predicate": "E", "m": 1, "j": 5, "s": 10, "n": 6, "variant": "strong",
     "l": 1}]}
# z1^2 + z2^2, whose top term z1^2 has graded-lex rank 5 (its degree box
# corner z1^2 z2^2 has rank 12), at sampled centers on the bidisk
BIDISK_SQ = {"r": 0, "d": 2, "terms": [
    {"w_exp": [], "z_exp": e, "re": 1.0, "im": 0.0} for e in ([2, 0], [0, 2])]}
BIDISK_SPECS = {"domain": [UNIT_DISK, UNIT_DISK], "specs": [
    {"predicate": "F", "p": 1, "s": 10, "n": 5},
    {"predicate": "E", "m": 1, "j": 5, "s": 10, "n": 5},
    {"predicate": "F", "p": 2, "s": 10, "n": 4}]}

# 2 z^3 - 0.5 z + 0.25j, as a person might write it
HANDWRITTEN = {"r": 0, "d": 1, "terms": [
    {"w_exp": [], "z_exp": [3], "re": 2, "im": 0},
    {"w_exp": [], "z_exp": [2], "re": 0, "im": 0},
    {"w_exp": [], "z_exp": [0], "re": 0, "im": 0.25},
    {"w_exp": [], "z_exp": [1], "re": -0.5, "im": 0}]}
# the deep ladder: depth, outer disk center, and the step of its inner
# radii 0.5 + step (s + 1) (at the ladder's own 0.05, stage 10's inner disk
# would reach the unit circle)
DEEP_LADDER = (18, 2.5j, 0.025)
# alternating_three with zero targets at stages 1 and 2, by name and mu
ZERO_TARGETS = (("zero_targets", "mu:all"),
                ("zero_targets_abort", "mu:list:0"))
HANDWRITTEN_SPECS = {"domain": [UNIT_DISK], "specs": [
    {"predicate": "F", "p": 1, "s": 10, "n": 2},
    {"predicate": "E", "m": 1, "j": 5, "s": 10, "n": 3}]}
# the compact and domain types no shipped scenario uses, in two scenarios
# that construct and verify with exit 0
OPEN_RECT = {"type": "open-rect", "x": [-1.0, 1.0], "y": [-0.5, 0.5]}


def _rect(x, y) -> dict:
    return {"type": "rect", "x": x, "y": y}


def _stage(sign: float, outer, inner, budgets) -> dict:
    return {"target": {"constant": [sign, 0.0]}, "outer": outer,
            "inner": inner, "tolerance": 0.05, "budgets": budgets}


TYPED = {
    "open_rect": {"name": "open_rect", "domain": [OPEN_RECT], "stages": [
        _stage(1.0, _rect([2.0, 2.3], [-0.1, 0.1]),
               _rect([-0.5, 0.5], [-0.25, 0.25]), [10, 20, 40]),
        _stage(-1.0, {"type": "union", "parts": [
            {"type": "segment", "a": [2.0, 0.6], "b": [2.3, 0.8]},
            {"type": "arc", "center": [0.0, 0.0], "radius": 2.6,
             "angles": [-0.2, 0.2]}]},
            _rect([-0.75, 0.75], [-0.375, 0.375]), [10, 20, 40])]},
    "infty": {"name": "infty", "variant": "infty", "l": 1, "domain": [
        {"type": "open-disk", "center": [0.0, 0.0], "radius": 2.0}],
        "stages": [
            _stage(1.0, {"type": "disk", "center": [3.5, 0.0], "radius": 0.3},
                   {"family": "mp", "p": 1}, [12, 16, 24, 32]),
            _stage(-1.0, {"family": "tm", "m": 1}, {"family": "mp", "p": 1},
                   [16, 32, 48, 64])]},
}
OPEN_RECT_SPECS = {"domain": [OPEN_RECT], "specs": [
    {"predicate": "F", "p": 1, "s": 10, "n": 2, "variant": "infty", "l": 1},
    {"predicate": "E", "m": 1, "j": 5, "s": 10, "n": 3, "variant": "infty",
     "l": 1}]}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _call(main, argv) -> tuple:
    """Exit code and standard output of one command; a refused input (exit
    2) stops the run, since every digested input must construct and
    replay."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code == 2:
        raise SystemExit(f"artifact_digests: exit 2 from {' '.join(argv)}")
    return code, out.getvalue()


def _construct(main, scenario: str, out_dir: str, name: str) -> dict:
    _call(main, ["construct", scenario, "--out-dir", out_dir])
    digests = {}
    for artifact in ARTIFACTS:
        with open(os.path.join(out_dir, artifact), "rb") as fh:
            digests[f"{name}/{artifact}"] = _digest(fh.read())
    code, text = _call(main, ["verify", os.path.join(out_dir, "stream.json"),
                              os.path.join(out_dir, "certificate.json")])
    digests[f"{name}/verify.out"] = _digest(f"exit {code}\n{text}".encode())
    return digests


def _predicates(main, work: str, tag: str, candidate: dict,
                specs: dict) -> str:
    """Digest of the standard output of `predicates` on a candidate and a
    spec file, written to work under tag."""
    paths = []
    for name, data in (("candidate", candidate), ("specs", specs)):
        paths.append(os.path.join(work, f"{tag}-{name}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(data, fh)
    return _digest(_call(main, ["predicates", *paths])[1].encode())


def digests(checkout: str, seeds, work: str) -> dict:
    sys.path[:0] = [os.path.join(checkout, "src"),
                    os.path.join(checkout, "bench")]
    from taylorlab.cli import main
    import run
    import workloads

    scenarios = os.path.join(checkout, "scenarios")
    out = {}
    for name in SHIPPED:
        out.update(_construct(main, os.path.join(scenarios, f"{name}.json"),
                              os.path.join(work, "shipped", name),
                              f"shipped/{name}"))
    _, demo = _call(main, ["predicates",
                           os.path.join(scenarios, "candidate_zsq.json"),
                           os.path.join(scenarios, "predicates_demo.json")])
    out["shipped/predicates_demo.stdout"] = _digest(demo.encode())
    from taylorlab.poly import CoefficientStream
    with open(os.path.join(work, "shipped", "parameterized",
                           "stream.json")) as fh:
        stream = CoefficientStream.from_json(json.load(fh))
    out["shipped/predicates_parameterized_strong.stdout"] = _predicates(
        main, work, "parameterized", stream.partial_sum(PARAM_RANK).to_json(),
        PARAM_SPECS)
    out["predicates_bidisk_top_rank.stdout"] = _predicates(
        main, work, "bidisk", BIDISK_SQ, BIDISK_SPECS)
    out["predicates_handwritten.stdout"] = _predicates(
        main, work, "handwritten", HANDWRITTEN, HANDWRITTEN_SPECS)
    out["predicates_open_rect_infty.stdout"] = _predicates(
        main, work, "open_rect_infty", HANDWRITTEN, OPEN_RECT_SPECS)
    for name, scenario in TYPED.items():
        path = os.path.join(work, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        out.update(_construct(main, path, os.path.join(work, name), name))
    depth, outer, step = DEEP_LADDER
    deep = workloads.ladder_scenario(depth, outer)
    for s, stage in enumerate(deep["stages"]):
        stage["inner"]["radius"] = 0.5 + step * (s + 1)
    path = os.path.join(work, "deep_ladder.json")
    with open(path, "w") as fh:
        json.dump(deep, fh)
    out.update(_construct(main, path, os.path.join(work, "deep_ladder"),
                          "deep_ladder"))
    with open(os.path.join(scenarios, "alternating_three.json")) as fh:
        zeros = json.load(fh)
    for stage in zeros["stages"][:2]:
        stage["target"] = {"constant": [0, 0]}
    for name, mu in ZERO_TARGETS:
        path = os.path.join(work, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(dict(zeros, mu=mu), fh)
        out.update(_construct(main, path, os.path.join(work, name), name))
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            tag = f"{workload}/seed{seed}"
            unit_dir = os.path.join(work, workload, str(seed))
            os.makedirs(unit_dir)
            units = workloads.construct_units(workload, seed, checkout,
                                              unit_dir)
            for unit in units:
                out.update(_construct(main, unit.paths[0], unit.out_dir,
                                      f"{tag}/{unit.name}"))
            for unit in workloads.predicate_units(workload, seed, units,
                                                  unit_dir, run._stream_poly):
                _, text = _call(main, ["predicates", *unit.paths])
                out[f"{tag}/{unit.name}.stdout"] = _digest(text.encode())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--seeds", type=int, nargs="*", default=list(SEEDS))
    args = parser.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    with tempfile.TemporaryDirectory() as work:
        found = digests(checkout, args.seeds, work)
    for name in sorted(found):
        print(f"{found[name]}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

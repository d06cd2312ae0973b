"""Construct and verify one stress ladder, each in a fresh process.

    python3 tools/depth_probe.py {deep,bidisk,strong-w} T BUDGET [BUDGET ...]
        [--checkout DIR]

The ladder is built from the checkout's own `bench/workloads.py`, with
its outer disk about 2.5i and every stage on the budget list given:

- `deep`: `ladder_scenario(T, 2.5j)` (d = 1, targets +1 and -1
  alternating, tolerance 1e-2), inner radii 0.5 + 0.05 (s + 1) capped at
  0.95;
- `bidisk`: `bidisk_scenario(2.5j)` extended to T stages (d = 2, outer
  D(2.5i, 0.15) x D(0, 0.5) with factor 0 flagged, targets +1 and -1
  alternating, tolerance 1e-2), inner compacts D(0, rho_s)^2 with
  rho_s = min(0.5 + 0.05 s, 0.95);
- `strong-w`: `strong_param_scenario(2.5j)` extended to T stages (r = 1,
  l = 1, w compact D(0, 0.5), targets +wz and -wz alternating, tolerance
  0.1), inner radii min(0.5 + 0.05 (s + 1), 0.95).

`construct` runs in a new interpreter (one BLAS thread), and so does
`verify` after it, so that the peak resident set size is that of the
construction alone.  The output is one line per certificate stage, with
its budget, pass flags, `cond`, and E and F side errors over the stage
tolerance, then one summary line: construct's exit code, wall and CPU
seconds (interpreter start-up included) and peak RSS, and verify's exit
code.  Scenario and artifacts live in a temporary directory removed at
exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

LADDERS = ("deep", "bidisk", "strong-w")
OUTER = 2.5j


def _inner_radius(s: int) -> float:
    return min(0.5 + 0.05 * (s + 1), 0.95)


def ladder(workloads, kind: str, T: int, budgets: list) -> dict:
    """The scenario of a `kind` ladder of T stages, each on `budgets`."""
    if kind == "deep":
        scenario = workloads.ladder_scenario(T, OUTER)
        for s, stage in enumerate(scenario["stages"]):
            stage["inner"]["radius"] = _inner_radius(s)
            stage["budgets"] = budgets
        return scenario
    if kind == "bidisk":
        scenario = workloads.bidisk_scenario(OUTER)
        pair = scenario["stages"]
        scenario["stages"] = [dict(
            pair[s % 2], budgets=budgets,
            inner=dict(pair[0]["inner"], factors=[
                dict(f, radius=_inner_radius(s - 1))
                for f in pair[0]["inner"]["factors"]]))
            for s in range(T)]
        return scenario
    scenario = workloads.strong_param_scenario(OUTER)
    (first,) = scenario["stages"]
    wz = first["target"]
    scenario["stages"] = [dict(
        first, budgets=budgets,
        target=dict(wz, terms=[dict(term, re=(-1.0) ** s * term["re"])
                               for term in wz["terms"]]),
        inner=dict(first["inner"], radius=_inner_radius(s)))
        for s in range(T)]
    return scenario


def _run(checkout: str, argv: list, stderr: str) -> tuple:
    """Exit code, wall seconds and the resource usage of one command of
    the checkout's program, run in a new interpreter; its standard output
    is discarded, its standard error written to the file `stderr`."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(checkout, "src"))
    files = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
             (os.POSIX_SPAWN_OPEN, 2, stderr,
              os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable,
                         [sys.executable, "-m", "taylorlab", *argv], env,
                         file_actions=files)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage


def _stage_line(rec: dict) -> str:
    tol = rec["tolerance"]
    return (f"stage {rec['stage']}  budget {rec['budget']}  "
            f"pass_e {rec['pass_e']}  pass_f {rec['pass_f']}  "
            f"cond {rec['cond']:.3g}  E/tol {rec['e_side_error'] / tol:.3g}  "
            f"F/tol {rec['f_side_error'] / tol:.3g}")


def probe(checkout: str, kind: str, T: int, budgets: list, work: str) -> list:
    """The output lines of one probe, its files written under `work`."""
    sys.path.insert(0, os.path.join(checkout, "bench"))
    import workloads
    path, out = os.path.join(work, "scenario.json"), os.path.join(work, "out")
    with open(path, "w") as fh:
        json.dump(ladder(workloads, kind, T, budgets), fh)
    stderr = os.path.join(work, "stderr.txt")
    code, wall, usage = _run(checkout, ["construct", path, "--out-dir", out],
                             stderr)
    cert = os.path.join(out, "certificate.json")
    if os.path.exists(cert):
        with open(cert) as fh:
            lines = [_stage_line(rec) for rec in json.load(fh)["stages"]]
        verified = "verify exit %d" % _run(
            checkout, ["verify", os.path.join(out, "stream.json"), cert],
            stderr)[0]
    else:                              # refused: say why
        with open(stderr) as fh:
            lines, verified = [fh.read().strip()], "verify not run"
    # ru_maxrss is in KiB on Linux
    lines.append(f"{kind} T = {T} to {budgets[-1]}: construct exit {code}, "
                 f"{wall:.2f} s wall, "
                 f"{usage.ru_utime + usage.ru_stime:.2f} s CPU, "
                 f"peak RSS {usage.ru_maxrss / 1024:.0f} MB; {verified}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("kind", choices=LADDERS)
    parser.add_argument("T", type=int, help="number of stages")
    parser.add_argument("budgets", type=int, nargs="+",
                        help="every stage's budget list, ascending")
    parser.add_argument("--checkout", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        for line in probe(os.path.abspath(args.checkout), args.kind, args.T,
                          args.budgets, work):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

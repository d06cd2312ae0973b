"""Benchmark of the taylorlab command line, run in-process.

    python3 bench/run.py --workload {ladder,wide} --seed N \\
        --seconds S --trace {0,1}

One closed-loop client calls `taylorlab.cli.main` one unit at a time (see
workloads.py for the units and the seeded inputs).  Each invocation runs one
workload in a fresh process, so `peak_rss_mb` belongs to that workload.

- Set-up: import the program, write the inputs and run one untimed warm-up
  round, which builds the streams the predicates units read.  It is
  repeated SETUPS times; `setup_s` is the import time plus the median
  repetition.
- Measurement: whole rounds, until `--seconds` have passed and at least
  MIN_ROUNDS rounds are done.  Each round times every unit's construct
  call once and its verify or predicates call REPEATS times.
  `construct_s` and `replay_s` sum, over the units, the median of each
  unit's construct or verify/predicates calls; `units_per_s` is the unit
  count over the sum of the two.
- Machine speed: on a small shared machine the speed of a fixed loop
  drifts by up to 1.7x over tens of seconds, in CPU time as in wall time,
  so raw seconds of two runs of the same code differ by more than any
  useful bound.  The timed runs therefore run a fixed reference loop
  (`Speed`, benchmark code that never calls the program) before every
  call, and give a call's seconds at a fixed machine speed: measured
  seconds x REF_S / the median reference reading within WINDOW_S of the
  call.  Every verify and predicates call is calibrated so; a workload's
  construct calls and its set-up are calibrated from readings taken
  around them where `workloads.CALIBRATED_CONSTRUCT` says their speed
  follows the loop's, and are raw seconds elsewhere.  A change to the
  program moves these figures as it moves wall time; a swing of the
  machine's speed moves them far less.  The report lines give the raw
  seconds per round beside them, and the tail (`unit_tail_s`, the highest
  percentile with at least 10 units beyond it, of the units' raw wall
  times), which the machine's swings dominate.
- Checks: a unit fails if it raises or exits 2, if `verify`'s exit code
  disagrees with the certificate's `summary.all_pass`, if a rerun of a
  scenario changes the certificate's sha256, or if a rerun of a predicates
  call prints different JSON.  Stage failures the certificate records are
  quality, not failed units.
- `--trace 1` runs an untraced window, then a traced one (tracer.py), and
  prints the per-layer metrics per round plus the tracing overhead.  The
  spans go to .bench_work/trace-<workload>-seed<seed>.json.

Inputs and artifacts live under .bench_work/ in the checkout and are
removed at exit; trace files stay there.  The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import ctypes
import gc
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

# One BLAS thread, set before numpy loads.  The client is single-threaded,
# and on a 2-CPU machine an idle OpenBLAS thread spins on the second CPU
# while the interpreter works, which slows the interpreter by a varying
# amount.  The machine record reports the thread count in use.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
SETUPS = 3
# every unit gets at least this many construct samples
MIN_ROUNDS = 3
# a unit runs its verify or predicates call this many times a round: one
# sample per round is too few for the calls that take milliseconds
REPEATS = 5
# a slow program stops starting rounds after this many --seconds, so that
# a traced run (two windows) stays within three minutes at --seconds 35
MAX_WINDOW = 2
TAIL_BEYOND = 10
# seconds of one reference reading at the speed calibrated times assume:
# about its reading on an undisturbed 2-CPU Xeon sandbox
REF_S = 0.008
# a call is calibrated by the readings within this many seconds of it
WINDOW_S = 1.0
# readings taken before and after each set-up and after the import
EDGE_READINGS = 3

E2E_UNITS = {
    "setup_s": "s", "units_per_s": "1/s", "construct_s": "s",
    "replay_s": "s", "peak_rss_mb": "MB",
    "unit_ok_ratio": "ratio", "stage_pass_ratio": "ratio",
    "err_over_tol_max": "ratio", "budget_sum": "count",
    "cond_log10_max": "log10",
}


def import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        from taylorlab import cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import taylorlab from {src}: {exc}")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: taylorlab was imported from {cli.__file__}, "
                         f"not from {src}")
    return cli


# ------------------------------------------------------------------ machine


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple[str, int | None]:
    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def machine_record(seed: int) -> dict:
    import numpy as np
    blas, threads = _blas()
    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": threads,
            "seed": seed}


# ------------------------------------------------------------------- speed


class Speed:
    """Readings of a fixed reference loop over time, to express the seconds
    of a call at the machine speed that REF_S stands for.

    The loop mixes what the program spends its time on: interpreter work on
    dicts and ints, small complex least-squares solves and powers of a
    complex vector.  It is benchmark code and never calls the program.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._a = (rng.standard_normal((300, 60))
                   + 1j * rng.standard_normal((300, 60)))
        self._z = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        self.times: list[float] = []      # midpoints, increasing
        self.seconds: list[float] = []

    def _reference(self):
        counts = {}
        acc = 0
        for i in range(15000):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + i
            acc += i * i
        np = self._np
        for _ in range(2):
            np.linalg.lstsq(self._a, self._a[:, 0], rcond=None)
        for k in range(30):
            self._z ** k
        return acc

    def read(self, times: int = 1):
        for _ in range(times):
            t0 = time.perf_counter()
            self._reference()
            t1 = time.perf_counter()
            self.times.append(0.5 * (t0 + t1))
            self.seconds.append(t1 - t0)

    def scale(self, t0: float, t1: float) -> float:
        """Seconds of the interval [t0, t1] at the reference speed."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        return (t1 - t0) * REF_S / statistics.median(self.seconds[lo:hi])


# ------------------------------------------------------------------- units


class Runner:
    """Runs units through the command line and checks what they produce."""

    def __init__(self, cli):
        self.cli = cli
        self.first_sha: dict[str, str] = {}
        self.first_stdout: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.unit_id = 0
        self.tracer = None
        self.stages_built = 0
        self.repeats = REPEATS
        # a Speed to read before every call, in the timed window only
        self.speed = None

    def call(self, argv) -> tuple[int, str, tuple[float, float]]:
        """Exit code, standard output and (start, end) of one call."""
        if self.speed is not None:
            self.speed.read()
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        return rc, buf.getvalue(), (t0, time.perf_counter())

    def run(self, unit) -> dict:
        """One unit: the (start, end) of its construct call and of each
        verify or predicates call, its wall time and its certificate."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.unit = self.unit_id
        self.unit_id += 1
        out = {"construct": [], "calls": [], "cert": None}
        t0 = time.perf_counter()
        try:
            problems = getattr(self, "_" + unit.kind)(unit, out)
        except Exception as exc:  # a raising unit fails; the run goes on
            problems = [f"raised {type(exc).__name__}: {exc}"]
        out["total"] = time.perf_counter() - t0
        if problems:
            self.failed += 1
            self.failures.append(f"{unit.name}: {'; '.join(problems)}")
        return out

    def call_repeated(self, argv, out) -> list[tuple[int, str]]:
        """`self.repeats` runs of `argv`; their spans go to out["calls"]."""
        results = []
        for _ in range(self.repeats):
            rc, text, span = self.call(argv)
            results.append((rc, text))
            out["calls"].append(span)
        return results

    def _verify_matches(self, stream, cert_path, cert, out) -> list[str]:
        for rv, _ in self.call_repeated(["verify", stream, cert_path], out):
            if rv == 2 or (rv == 0) != cert["summary"]["all_pass"]:
                return [f"verify exited {rv} but summary.all_pass is "
                        f"{cert['summary']['all_pass']}"]
        return []

    def _construct(self, unit, out) -> list[str]:
        rc, _, span = self.call(
            ["construct", unit.paths[0], "--out-dir", unit.out_dir])
        out["construct"].append(span)
        if rc not in (0, 1):
            return [f"construct exited {rc}"]
        cert_path = os.path.join(unit.out_dir, "certificate.json")
        stream = os.path.join(unit.out_dir, "stream.json")
        with open(cert_path) as fh:
            cert = json.load(fh)
        out["cert"] = cert
        self.stages_built += len(cert["stages"]) + bool(
            cert["summary"]["aborted"])
        if self.tracer is not None:
            self.tracer.add("cli.artifact_bytes", sum(
                os.path.getsize(os.path.join(unit.out_dir, f))
                for f in ("stream.json", "certificate.json", "history.csv")))
        problems = []
        if (rc == 0) != cert["summary"]["all_pass"]:
            problems.append(f"construct exited {rc} but summary.all_pass is "
                            f"{cert['summary']['all_pass']}")
        first = self.first_sha.setdefault(unit.name, cert["sha256"])
        if cert["sha256"] != first:
            problems.append("certificate sha256 changed on rerun")
        return problems + self._verify_matches(stream, cert_path, cert, out)

    def _predicates(self, unit, out) -> list[str]:
        for rc, text in self.call_repeated(["predicates", *unit.paths], out):
            if rc != 0:
                return [f"predicates exited {rc}"]
            if self.first_stdout.setdefault(unit.name, text) != text:
                return ["predicates output changed on rerun"]
        return []

    def round(self, units) -> dict:
        # start every round from the same collector state, so that a full
        # collection triggered by the harness's own garbage lands nowhere
        gc.collect()
        runs = [self.run(u) for u in units]
        per_unit = [(r["construct"], r["calls"]) for r in runs]
        return {"construct": unit_sum([per_unit], 0, raw_seconds),
                "replay": unit_sum([per_unit], 1, raw_seconds),
                "unit_s": [r["total"] for r in runs],
                "per_unit": per_unit,
                "certs": [r["cert"] for r in runs if r["cert"] is not None]}


def _stream_poly(unit, share: float):
    """(JSON, highest occupied rank) of the partial sum of a built stream
    up to `share` of the highest rank its terms occupy."""
    from taylorlab.poly import CoefficientStream
    with open(os.path.join(unit.out_dir, "stream.json")) as fh:
        stream = CoefficientStream.from_json(json.load(fh))
    top = max(stream.enum.rank(ze) for _, ze in stream.poly().terms)
    f = stream.partial_sum(int(share * top))
    return f.to_json(), max(stream.enum.rank(ze) for _, ze in f.terms)


def set_up(runner, workload: str, seed: int, work: str) -> dict:
    """Inputs and one warm-up round; timed, without speed readings."""
    speed, runner.speed = runner.speed, None
    t0 = time.perf_counter()
    os.makedirs(work)
    units = workloads.construct_units(workload, seed, ROOT, work)
    runner.repeats = 1      # the warm-up is one pass over the mix
    runner.round(units)
    reads = workloads.predicate_units(workload, seed, units, work,
                                      _stream_poly)
    runner.round(reads)
    runner.repeats = REPEATS
    runner.speed = speed
    return {"span": (t0, time.perf_counter()), "units": units + reads}


def measure(runner, units, seconds: float) -> tuple:
    rounds = []
    t0 = time.perf_counter()
    while True:
        if rounds:
            rounds[-1]["certs"] = None    # only the last round's are read
        rounds.append(runner.round(units))
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and (len(rounds) >= MIN_ROUNDS
                                   or elapsed >= MAX_WINDOW * seconds):
            return rounds, elapsed


# ----------------------------------------------------------------- metrics


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest nearest-rank percentile with at
    least TAIL_BEYOND samples above it, or the maximum if there are too few."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    k = n - TAIL_BEYOND           # k-th smallest, 1-based
    return s[k - 1], 100.0 * k / n, n


def quality(certs: list[dict]) -> dict:
    """Quality fields of the certificates a round produced."""
    stages = [s for c in certs for s in c["stages"]]
    planned = len(stages) + sum(bool(c["summary"]["aborted"]) for c in certs)
    return {
        "stage_pass_ratio": sum(s["pass_e"] and s["pass_f"]
                                for s in stages) / max(planned, 1),
        "err_over_tol_max": max((max(s["e_side_error"], s["f_side_error"])
                                 / s["tolerance"] for s in stages),
                                default=0.0),
        "budget_sum": sum(s["budget"] for s in stages),
        # an exactly singular fit reports cond = inf; cap its log
        "cond_log10_max": max((min(math.log10(s["cond"]), 400.0)
                               for s in stages), default=0.0),
    }


def raw_seconds(t0: float, t1: float) -> float:
    return t1 - t0


def unit_sum(per_unit: list[list[tuple]], field: int, seconds) -> float:
    """Sum over units of the median of each unit's samples, where
    per_unit[round][unit][field] is a list of (start, end) spans and
    `seconds(start, end)` gives a span's seconds."""
    total = 0.0
    for i in range(len(per_unit[0])):
        samples = [seconds(*span) for r in per_unit for span in r[i][field]]
        total += statistics.median(samples) if samples else 0.0
    return total


def end_to_end(runner, speed, workload, import_span, setups, rounds,
               elapsed) -> dict:
    per_unit = [r["per_unit"] for r in rounds]
    construct_time = (speed.scale if workloads.CALIBRATED_CONSTRUCT[workload]
                      else raw_seconds)
    construct_s = unit_sum(per_unit, 0, construct_time)
    replay_s = unit_sum(per_unit, 1, speed.scale)
    setup_each = [construct_time(*s["span"]) for s in setups]
    values = {
        "setup_s": construct_time(*import_span)
        + statistics.median(setup_each),
        "units_per_s": len(per_unit[0]) / (construct_s + replay_s),
        "construct_s": construct_s,
        "replay_s": replay_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit_ok_ratio": 1.0 - runner.failed / runner.attempted,
        **quality(rounds[-1]["certs"]),
    }
    unit_s = [t for r in rounds for t in r["unit_s"]]
    tail_s, pct, n = tail(unit_s)
    readings = statistics.quantiles(speed.seconds, n=4)
    print(f"# reference loop: {len(speed.seconds)} readings, quartiles "
          + " ".join(f"{q:.5f}" for q in readings) + f" s (REF_S {REF_S})")
    print("# set-up s, as reported: "
          + " ".join(f"{x:.4f}" for x in setup_each)
          + "; raw: " + " ".join(f"{raw_seconds(*s['span']):.4f}"
                                 for s in setups)
          + f" (+ {raw_seconds(*import_span):.4f} import)")
    print(f"# {len(rounds)} rounds, {len(unit_s)} units in {elapsed:.2f} s "
          f"({len(unit_s) / elapsed:.4g} units/s)")
    print(f"# unit_tail_s = {tail_s:.6g} s: p{pct:.1f} of {n} units")
    # a round's replay figure sums each unit's median call
    for key in ("construct", "replay"):
        print(f"# raw {key} s per round (median "
              f"{statistics.median(r[key] for r in rounds):.4f}): "
              + " ".join(f"{r[key]:.4f}" for r in rounds))
    return values


def per_layer(tracer, runner, rounds, untraced_rate, traced_rate) -> tuple:
    """Per-round layer metrics, and the count cross-checks that failed."""
    totals = tracer.totals()
    n = len(rounds)
    out = {}

    def calls_self(name):
        calls, _, self_s = totals[name]
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.self_s"] = (self_s / n, "s")
        return calls

    for name in ("multiindex.rank", "multiindex.unrank",
                 "multiindex.capture_index", "poly.eval_product",
                 "poly.shift_center", "poly.partial_sum",
                 "poly.stream_partial_sum", "poly.diff", "geometry.sample",
                 "geometry.sup_norm", "mergelyan.solve",
                 "mergelyan.glue_target", "universal.plan",
                 "universal.build_stage", "verify.verify_certificate",
                 "verify.predicate", "cli.main"):
        calls_self(name)
    fits = calls_self("mergelyan.fit")
    counts = tracer.counts
    for name in ("multiindex.capture_index.box_points",
                 "poly.eval_product.term_points", "geometry.sample.points",
                 "mergelyan.solve.entries", "mergelyan.budgets_tried",
                 "verify.centers"):
        out[name] = (counts[name] / n, "count")
    out["cli.artifact_bytes"] = (counts["cli.artifact_bytes"] / n, "B")
    tried = counts["mergelyan.budgets_tried"]
    out["mergelyan.budget_useful_ratio"] = (fits / tried if tried else 0.0,
                                            "ratio")
    run_c = totals["universal.run_construction"][1]
    out["universal.certify_s"] = (
        (run_c - tracer.build_stage_time_in("universal.run_construction")) / n,
        "s")
    out["trace.units_per_s"] = (traced_rate, "1/s")
    out["trace.untraced_units_per_s"] = (untraced_rate, "1/s")
    out["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    out["trace.spans"] = (len(tracer.start) / n, "count")

    mismatches = []
    solves = totals["mergelyan.solve"][0]
    if solves != tried:
        mismatches.append(f"mergelyan.solve.calls {solves} != "
                          f"mergelyan.budgets_tried {tried}")
    if fits != runner.stages_built:
        mismatches.append(f"mergelyan.fit.calls {fits} != stages built "
                          f"{runner.stages_built}")
    return out, mismatches


def traced_window(runner, units, workload: str, seconds: float,
                  untraced_rate: float, trace_path: str,
                  machine: dict) -> tuple:
    """Per-layer metrics from a traced window; spans go to `trace_path`."""
    import tracer as tracing
    runner.tracer = tracer = tracing.Tracer()
    runner.stages_built = 0
    tracer.install()
    try:
        rounds, elapsed = measure(runner, units, seconds)
    finally:
        tracer.uninstall()
    traced_rate = sum(len(r["unit_s"]) for r in rounds) / elapsed
    tracer.dump(trace_path, {"workload": workload, "rounds": len(rounds),
                             "machine": machine})
    print(f"# {len(rounds)} traced rounds; spans in {trace_path}")
    return per_layer(tracer, runner, rounds, untraced_rate, traced_rate)


# -------------------------------------------------------------------- main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    cli = import_program()
    import_span = (t0, time.perf_counter())
    # the traced run reports wall-clock rates and no calibrated times
    speed = None if args.trace else Speed()
    if speed is not None:
        speed.read(EDGE_READINGS)
    machine = machine_record(args.seed)
    print("# machine " + json.dumps(machine, sort_keys=True))

    runner = Runner(cli)
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        setups = []
        for k in range(SETUPS):
            setups.append(set_up(runner, args.workload, args.seed,
                                 os.path.join(work, f"setup-{k}")))
            if speed is not None:
                speed.read(EDGE_READINGS)
        units = setups[-1]["units"]
        runner.speed = speed
        rounds, elapsed = measure(runner, units, args.seconds)
        if speed is not None:
            speed.read(EDGE_READINGS)
        mismatches = []
        if args.trace:
            layers, mismatches = traced_window(
                runner, units, args.workload, args.seconds,
                sum(len(r["unit_s"]) for r in rounds) / elapsed,
                os.path.join(WORK, f"trace-{args.workload}"
                                   f"-seed{args.seed}.json"), machine)
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in layers.items()}
        else:
            values = end_to_end(runner, speed, args.workload, import_span,
                                setups, rounds, elapsed)
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                       for k, v in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in runner.failures + mismatches:
        print(f"# FAILED {line}")
    for k, m in metrics.items():
        print(f"# {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": runner.failed == 0 and not mismatches,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Scenario-driven command line: construct, verify, predicates.

Thin plumbing over the library.  `construct` turns one scenario file into
a coefficient stream, a certificate, and an error-history CSV; `verify`
replays a certificate against its stream; `predicates` batch-evaluates
membership predicates on an explicit polynomial.  Exit codes are part of
the interface: 0 success, 1 a predicate or stage failed, 2 the input was
unusable (missing file, malformed or too deeply nested JSON, a number too
large for a float, an unusable output directory, or a universal.REFUSED
error from the library, printed after the command's `scenario rejected`,
`artifact rejected` or `specs rejected`, a KeyError as `missing key 'x'`).
Run settings live in the scenario or spec file; the flags name files and
outputs, and `predicates --density` a grid density.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .geometry import DomainProduct
from .poly import CoefficientStream, Poly
from .universal import (REFUSED, Certificate, plan_from_scenario,
                        run_construction)
from .verify import (PredicateSpec, VerificationRefused, predicate_record,
                     verify_certificate)

class InputError(Exception):
    """An unusable input; `main` prints the message and exits 2."""


def _load_json(path: str) -> dict:
    """The JSON object a file holds; InputError on anything unusable."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:         # invalid JSON names line and column
        raise InputError(f"{path}: {exc}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: the top level must be a JSON object")
    return data


def write_json(path: str, data: dict, indent: int | None = 1):
    """Write an artifact: keys sorted, a trailing newline, and one-space
    indents, or no whitespace at all for indent=None (the stream, written
    by json's C encoder; the indenting one is Python)."""
    with open(path, "w") as fh:
        fh.write(json.dumps(data, indent=indent, sort_keys=True,
                            separators=None if indent else (",", ":")))
        fh.write("\n")


# ----------------------------------------------------------------- construct


def cmd_construct(args) -> int:
    plan = plan_from_scenario(_load_json(args.scenario))
    stream, cert = run_construction(plan)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        write_json(os.path.join(args.out_dir, "stream.json"), stream.to_json(),
                   indent=None)
        write_json(os.path.join(args.out_dir, "certificate.json"),
                   cert.to_json())
        cert.write_csv(os.path.join(args.out_dir, "history.csv"))
    except OSError as exc:
        raise InputError(f"{args.out_dir}: {exc.strerror}") from None

    if args.verbose:
        for rec in cert.stages:
            print(f"stage {rec['stage']}: lambda={rec['lambda']} "
                  f"E={rec['e_side_error']:.3e} F={rec['f_side_error']:.3e} "
                  f"pass={rec['pass_e'] and rec['pass_f']}", file=sys.stderr)
    summary = cert.summary
    if summary["aborted"]:
        print(f"aborted at stage {summary['aborted']['stage']}: "
              f"{summary['aborted']['reason']}")
        print(f"partial certificate in {args.out_dir}")
        return 1
    if not summary["all_pass"]:
        worst = max(summary["e_side_max"], summary["f_side_max"])
        print(f"stage failure: worst sampled error {worst:.3e}; "
              f"certificate in {args.out_dir}")
        return 1
    print(f"{summary['stages']} stage(s) pass; artifacts in {args.out_dir}")
    return 0


# -------------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    stream = CoefficientStream.from_json(_load_json(args.stream))
    cert = Certificate.from_json(_load_json(args.certificate))
    try:
        verdict = verify_certificate(stream, cert)
    except VerificationRefused as exc:
        print(exc)
        return 1
    if verdict:
        print("certificate verified")
        return 0
    if verdict.agrees:
        aborted = cert.summary["aborted"]
        print("certificate agrees with its stream but does not pass: "
              + (f"aborted at stage {aborted['stage']}" if aborted
                 else "all_pass is false"))
    else:
        print("certificate does NOT match")
    return 1


# ---------------------------------------------------------------- predicates


def cmd_predicates(args) -> int:
    cdata = _load_json(args.candidate)
    sdata = _load_json(args.specs)
    unknown = sorted(sdata.keys() - {"domain", "w_domain", "specs"})
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in the spec file")
    f = Poly.from_json(cdata)
    domain = DomainProduct.from_json(sdata["domain"])
    w_domain = (DomainProduct.from_json(sdata["w_domain"], "w_domain")
                if sdata.get("w_domain") else None)
    if domain.dim != f.d:
        raise ValueError(f"candidate has d={f.d} but the domain "
                         f"has {domain.dim} factor(s)")
    if (w_domain.dim if w_domain else 0) != f.r:
        raise ValueError(f"candidate has r={f.r} but the parameter "
                         "domain disagrees")
    entries = sdata.get("specs", [])
    if not isinstance(entries, list):
        raise ValueError(f"specs must be a list, got {entries!r}")
    rows = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"spec entry {entry!r} is not an object")
        kind = entry.get("predicate", "E")
        if kind not in ("E", "F"):
            raise ValueError(f"unknown predicate kind {kind!r}")
        body = {k: v for k, v in entry.items() if k != "predicate"}
        rows.append((kind, PredicateSpec.from_json(body)))

    try:
        report = [predicate_record(kind, f, spec, domain, w_domain,
                                   density=args.density)
                  for kind, spec in rows]
    except REFUSED as exc:
        raise InputError(f"predicate run failed: {exc}") from None
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


# ---------------------------------------------------------------------- main


@functools.cache   # one parser a process; main runs many times in one
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="taylorlab",
        description="Stagewise universal-series construction and checking.")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct",
                        help="run a scenario file into stream + certificate")
    pc.add_argument("scenario", help="scenario JSON path")
    pc.add_argument("--out-dir", default="out",
                    help="directory for stream.json, certificate.json, "
                         "history.csv (default: out)")
    pc.add_argument("-v", "--verbose", action="store_true",
                    help="print one line per stage on stderr")
    pc.set_defaults(run=cmd_construct, rejected="scenario")

    pv = sub.add_parser("verify",
                        help="replay a certificate against its stream")
    pv.add_argument("stream", help="stream JSON path")
    pv.add_argument("certificate", help="certificate JSON path")
    pv.set_defaults(run=cmd_verify, rejected="artifact")

    pp = sub.add_parser("predicates",
                        help="batch membership predicates on a polynomial")
    pp.add_argument("candidate", help="candidate polynomial JSON path")
    pp.add_argument("specs", help="spec batch JSON path")
    pp.add_argument("--density", type=int, default=0,
                    help="per-factor grid density override (default: 0, "
                         "the density table)")
    pp.set_defaults(run=cmd_predicates, rejected="specs")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except InputError as exc:
        print(exc, file=sys.stderr)
    except KeyError as exc:
        print(f"{args.rejected} rejected: missing key {exc}", file=sys.stderr)
    except REFUSED as exc:
        print(f"{args.rejected} rejected: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

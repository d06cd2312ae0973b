"""Scenario-driven command line: construct, verify, predicates.

Thin plumbing over the library.  `construct` turns one scenario file into
a coefficient stream, a certificate, and an error-history CSV; `verify`
replays a certificate against its stream; `predicates` batch-evaluates
membership predicates on an explicit polynomial.  Exit codes are part of
the interface: 0 success, 1 a predicate or stage failed, 2 the input was
unusable (missing file, malformed JSON, or refused by the library).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .geometry import DomainProduct
from .poly import CoefficientStream, Poly
from .universal import Certificate, plan_from_scenario, run_construction
from .verify import (VARIANTS, PredicateSpec, VerificationRefused,
                     predicate_record, verify_certificate)

VERBOSE = os.environ.get("TAYLORLAB_VERBOSE", "") not in ("", "0")


class InputError(Exception):
    """An unusable input; `main` prints the message and exits 2."""


def _chat(msg: str):
    if VERBOSE:
        print(msg, file=sys.stderr)


def _load_json(path: str) -> dict:
    """The JSON object a file holds; InputError on anything unusable."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:         # invalid JSON names line and column
        raise InputError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: the top level must be a JSON object")
    return data


def _parse_center(text: str):
    vals = [float(v) for v in text.split(",")]
    if len(vals) % 2:
        raise ValueError("--fixed-center wants re,im pairs")
    return [[vals[i], vals[i + 1]] for i in range(0, len(vals), 2)]


# ----------------------------------------------------------------- construct


def cmd_construct(args) -> int:
    data = _load_json(args.scenario)
    for key, value in (("seed", args.seed), ("cert_density", args.density),
                       ("variant", args.variant),
                       ("center", args.fixed_center)):
        if value is not None:
            data[key] = value

    try:
        plan = plan_from_scenario(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"scenario rejected: {exc}") from None
    try:
        stream, cert = run_construction(plan)
    except ValueError as exc:
        raise InputError(f"scenario rejected: {exc}") from None

    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "stream.json"), "w") as fh:
        json.dump(stream.to_json(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    cert.write_json(os.path.join(args.out_dir, "certificate.json"))
    cert.write_csv(os.path.join(args.out_dir, "history.csv"))

    for rec in cert.stages:
        _chat(f"stage {rec['stage']}: lambda={rec['lambda']} "
              f"E={rec['e_side_error']:.3e} F={rec['f_side_error']:.3e} "
              f"pass={rec['pass_e'] and rec['pass_f']}")
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
    sdata = _load_json(args.stream)
    cdata = _load_json(args.certificate)
    try:
        stream = CoefficientStream.from_json(sdata)
        cert = Certificate.from_json(cdata)
        ok = verify_certificate(stream, cert)
    except VerificationRefused as exc:
        print(exc)
        return 1
    # LookupError: a missing field or a rank past the stream's frontier
    except (LookupError, TypeError, ValueError) as exc:
        raise InputError(f"artifact rejected: {exc}") from None
    print("certificate verified" if ok else "certificate does NOT match")
    return 0 if ok else 1


# ---------------------------------------------------------------- predicates


def cmd_predicates(args) -> int:
    cdata = _load_json(args.candidate)
    sdata = _load_json(args.specs)
    try:
        f = Poly.from_json(cdata)
        domain = DomainProduct.from_json(sdata["domain"])
        w_domain = (DomainProduct.from_json(sdata["w_domain"])
                    if sdata.get("w_domain") else None)
        if domain.dim != f.d:
            raise ValueError(f"candidate has d={f.d} but the domain "
                             f"has {domain.dim} factor(s)")
        if (w_domain.dim if w_domain else 0) != f.r:
            raise ValueError(f"candidate has r={f.r} but the parameter "
                             "domain disagrees")
        rows = []
        for entry in sdata.get("specs", []):
            if not isinstance(entry, dict):
                raise ValueError(f"spec entry {entry!r} is not an object")
            kind = entry.get("predicate", "E")
            if kind not in ("E", "F"):
                raise ValueError(f"unknown predicate kind {kind!r}")
            body = {k: v for k, v in entry.items() if k != "predicate"}
            if args.variant is not None:
                body["variant"] = args.variant
            if args.fixed_center is not None:
                body["fixed_center"] = args.fixed_center
            rows.append((kind, PredicateSpec.from_json(body)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"specs rejected: {exc}") from None

    try:
        report = [predicate_record(kind, f, spec, domain, w_domain,
                                   density=args.density or 0)
                  for kind, spec in rows]
    except ValueError as exc:
        raise InputError(f"predicate run failed: {exc}") from None
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


# ---------------------------------------------------------------------- main


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
    pc.add_argument("--density", type=int, default=None,
                    help="per-factor certificate grid density override")
    pc.add_argument("--seed", type=int, default=None,
                    help="seed recorded in the certificate header")
    pc.add_argument("--variant", choices=VARIANTS,
                    default=None, help="override the scenario variant")
    pc.add_argument("--fixed-center", type=_parse_center, default=None,
                    metavar="RE,IM,...",
                    help="override the expansion center (re,im per factor)")

    pv = sub.add_parser("verify",
                        help="replay a certificate against its stream")
    pv.add_argument("stream", help="stream JSON path")
    pv.add_argument("certificate", help="certificate JSON path")

    pp = sub.add_parser("predicates",
                        help="batch membership predicates on a polynomial")
    pp.add_argument("candidate", help="candidate polynomial JSON path")
    pp.add_argument("specs", help="spec batch JSON path")
    pp.add_argument("--density", type=int, default=None,
                    help="per-factor grid density override")
    pp.add_argument("--variant", choices=VARIANTS,
                    default=None, help="force one variant on every spec")
    pp.add_argument("--fixed-center", type=_parse_center, default=None,
                    metavar="RE,IM,...",
                    help="force one expansion center on every spec")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"construct": cmd_construct, "verify": cmd_verify,
               "predicates": cmd_predicates}[args.command]
    try:
        return command(args)
    except InputError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

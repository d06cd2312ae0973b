"""Seeded inputs for the two benchmark workloads.

Every workload is a list of units that one round runs in order.  A unit is
one call pattern through the command line:

- ``construct``: ``construct`` a scenario, then ``verify`` what it wrote;
- ``predicates``: evaluate one spec on a candidate polynomial taken from a
  stream that set-up built.

The seed rotates every generated outer disk about the expansion center and
draws the predicate ranks.  A rotation keeps the approximation problem the
same up to sampling (the domain, the inner disks and the constant targets
are rotation invariant), so the certificates' quality fields stay
comparable across seeds while every sample point and coefficient differs.
Shipped scenarios are used as they are.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass

UNIT_DISK = [{"type": "open-disk", "center": [0.0, 0.0], "radius": 1.0}]
BIDISK = UNIT_DISK * 2

# shipped scenarios that belong to each mix
SHIPPED_LADDER = ("alternating_three", "two_stage_conflict", "seleznev",
                  "strong")
SHIPPED_WIDE = ("parameterized",)

LADDER_DEPTHS = (3, 4, 5, 6)
LADDER_BUDGETS = [12, 16, 24, 32, 48, 64, 90, 120]

WORKLOADS = ("ladder", "wide")

# Whether a workload's construct calls, and its set-up, which they dominate,
# are given in calibrated seconds (run.py).  When the machine speeds up or
# slows down, ladder's constructs, and every verify and predicates call,
# change speed 0.8-1.0x as much as the reference loop.  wide's constructs
# (1-5 s each, lstsq on matrices of up to 1.5 GB) change 0.1-0.6x as much,
# with a correlation of 0.1-0.6, so calibrating them adds noise: their
# ten-run spread was 0.13-0.19 calibrated and 0.04-0.09 in raw seconds.
CALIBRATED_CONSTRUCT = {"ladder": True, "wide": False}


@dataclass(frozen=True)
class Unit:
    kind: str            # "construct" or "predicates"
    name: str
    paths: tuple         # the files the command line reads

    @property
    def out_dir(self) -> str:
        """Where a construct unit writes, next to its scenario."""
        return os.path.splitext(self.paths[0])[0] + "-out"


def _disk(center: complex, radius: float) -> dict:
    return {"type": "disk", "center": [center.real, center.imag],
            "radius": radius}


def _outer_center(rng: random.Random) -> complex:
    return 2.5 * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _alternating(s: int) -> dict:
    return {"constant": [1.0 if s % 2 == 0 else -1.0, 0.0]}


def ladder_scenario(T: int, outer: complex) -> dict:
    """T alternating +-1 stages on |z - outer| <= 0.15, inner radii
    0.5 + 0.05 s, tolerance 1e-2, budgets 12..120."""
    return {"name": f"ladder-{T}", "domain": UNIT_DISK, "stages": [
        {"target": _alternating(s), "outer": _disk(outer, 0.15),
         "inner": _disk(0j, 0.5 + 0.05 * (s + 1)), "tolerance": 0.01,
         "budgets": LADDER_BUDGETS}
        for s in range(T)]}


def bidisk_scenario(outer: complex) -> dict:
    """Two alternating stages on the bidisk; factor 0 carries the outer disk."""
    def product(a, b, flag=None):
        return {"factors": [a, b], "disjoint_factor": flag}
    return {"name": "bidisk", "domain": BIDISK, "stages": [
        {"target": _alternating(s),
         "outer": product(_disk(outer, 0.15), _disk(0j, 0.5), 0),
         "inner": product(_disk(0j, 0.5 + 0.05 * s), _disk(0j, 0.5 + 0.05 * s)),
         "tolerance": 0.01, "budgets": [8, 12, 16, 20, 24]}
        for s in range(2)]}


def strong_param_scenario(outer: complex) -> dict:
    """Strong variant, r = 1, l = 1, target w z: the derivative-row case."""
    wz = {"r": 1, "d": 1,
          "terms": [{"w_exp": [1], "z_exp": [1], "re": 1.0, "im": 0.0}]}
    return {"name": "strong-param", "domain": UNIT_DISK, "r": 1,
            "w_compact": {"factors": [_disk(0j, 0.5)]},
            "variant": "strong", "l": 1, "stages": [
                {"target": wz, "outer": _disk(outer, 0.15),
                 "inner": _disk(0j, 0.5), "tolerance": 0.1,
                 "budgets": [8, 12, 16, 24]}]}


def strong_l2_scenario(outer: complex) -> dict:
    """Strong variant, d = 1, l = 2."""
    return {"name": "strong-l2", "domain": UNIT_DISK, "variant": "strong",
            "l": 2, "stages": [
                {"target": {"constant": [1.0, 0.0]},
                 "outer": _disk(outer, 0.15), "inner": _disk(0j, 0.5),
                 "tolerance": 0.1, "budgets": [12, 16, 24, 32]}]}


def _write(path: str, data: dict) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _scenarios(workload: str, rng: random.Random) -> dict:
    """name -> scenario dict (generated) or None (shipped file)."""
    out = {}
    if workload == "ladder":
        for T in LADDER_DEPTHS:
            out[f"ladder-{T}"] = ladder_scenario(T, _outer_center(rng))
        out.update((n, None) for n in SHIPPED_LADDER)
    else:
        out.update((n, None) for n in SHIPPED_WIDE)
        out["bidisk"] = bidisk_scenario(_outer_center(rng))
        strong_param = strong_param_scenario(_outer_center(rng))
        out["strong-l2"] = strong_l2_scenario(_outer_center(rng))
        out["strong-param"] = strong_param
    return out


def construct_units(workload: str, seed: int, root: str,
                    work: str) -> list[Unit]:
    """Write the workload's scenarios under `work`; one unit per scenario."""
    rng = random.Random(f"{workload}:{seed}")
    units = []
    for name, scen in _scenarios(workload, rng).items():
        path = os.path.join(work, f"{name}.json")
        if scen is None:
            with open(os.path.join(root, "scenarios", f"{name}.json")) as fh:
                scen = json.load(fh)
        units.append(Unit("construct", name, (_write(path, scen),)))
    return units


def predicate_units(workload: str, seed: int, built: list[Unit], work: str,
                    stream_poly) -> list[Unit]:
    """The read side of a workload: predicates on a stream it built.

    `stream_poly(unit, share)` returns a partial sum of a built unit's
    stream, up to `share` of its highest occupied rank.  `ladder` takes the
    whole deepest d = 1 stream (ladder-6, degree ~200), `wide` the d = 2
    stream (bidisk) up to 40 % of its top rank, which brings one d = 2 spec
    (81 centers) from about 0.8 s to about 0.2 s.  Centers vary (no fixed
    center) and ranks sit at 70-75 % of the highest rank the candidate's
    terms occupy, so every partial sum re-centers and drops terms, and the
    work per spec barely depends on the seed.  Each spec is a unit of its
    own, of 0.1-0.2 s, so that a window holds many samples of each.
    """
    rng = random.Random(f"{workload}-predicates:{seed}")
    by_name = {u.name: u for u in built}
    # a d = 2 spec re-centers at 81 points, a d = 1 spec at 9
    name, domain, kinds, share = {
        "ladder": ("ladder-6", UNIT_DISK, ("F1", "E"), 1.0),
        "wide": ("bidisk", BIDISK, ("F1",), 0.4)}[workload]
    poly, top_rank = stream_poly(by_name[name], share)
    cand = _write(os.path.join(work, f"candidate-{name}.json"), poly)
    units = []
    for kind in kinds:
        n = rng.randint(int(0.7 * top_rank), int(0.75 * top_rank))
        if kind == "E":
            spec = {"predicate": "E", "m": 1, "j": rng.randint(2, 40),
                    "s": 10, "n": n}
        else:
            spec = {"predicate": "F", "p": int(kind[1]), "s": 10, "n": n}
        path = _write(os.path.join(work, f"specs-{name}-{kind}.json"),
                      {"domain": domain, "specs": [spec]})
        units.append(Unit("predicates", f"predicates-{name}-{kind}",
                          (cand, path)))
    return units

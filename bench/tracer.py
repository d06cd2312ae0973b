"""Spans around the calls into taylorlab's public functions.

The program is not instrumented.  `Tracer.install` swaps each traced
function for a recording wrapper at every place the program looks it up:
class attributes for methods, and each importing module's namespace for
functions pulled in with ``from .x import y`` (patching only the defining
module would leave those call sites uncounted).  `Tracer.uninstall` puts the
originals back.

A span is (name, start, end, parent span, unit id).  Spans stay in memory
and are written once, by `Tracer.dump`.  A span's self time is its duration
minus the durations of its direct children; the program is single-threaded,
so children never overlap.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

import numpy as np

from taylorlab import cli, geometry, mergelyan, multiindex, poly, universal, verify

# (owner, attribute, span name).  Owners that are modules are the lookup
# sites, not the defining modules: universal and verify call sup_norm and
# partial_sum through their own namespaces, cli calls run_construction,
# verify_certificate and predicate_record through its own.  mergelyan calls
# lstsq through numpy.linalg, which is where it is patched.
SITES = (
    (multiindex.Enumeration, "rank", "multiindex.rank"),
    (multiindex.Enumeration, "unrank", "multiindex.unrank"),
    (multiindex.Enumeration, "capture_index", "multiindex.capture_index"),
    (poly.Poly, "eval_product", "poly.eval_product"),
    (poly.Poly, "shift_center", "poly.shift_center"),
    (poly.Poly, "diff", "poly.diff"),
    (poly.CoefficientStream, "partial_sum", "poly.stream_partial_sum"),
    (universal, "partial_sum", "poly.partial_sum"),
    (verify, "partial_sum", "poly.partial_sum"),
    (geometry.ProductCompact, "sample", "geometry.sample"),
    (universal, "sup_norm", "geometry.sup_norm"),
    (verify, "sup_norm", "geometry.sup_norm"),
    (np.linalg, "lstsq", "mergelyan.solve"),
    (universal, "glue_target", "mergelyan.glue_target"),
    (universal, "fit", "mergelyan.fit"),
    (cli, "plan_from_scenario", "universal.plan"),
    (universal, "build_stage", "universal.build_stage"),
    (cli, "run_construction", "universal.run_construction"),
    (cli, "verify_certificate", "verify.verify_certificate"),
    (cli, "predicate_record", "verify.predicate"),
    (cli, "main", "cli.main"),
)


def _count_box_points(args, kwargs, result) -> int:
    return math.prod(int(v) + 1 for v in args[1])


def _count_term_points(args, kwargs, result) -> int:
    return len(args[0].terms) * result.size


def _count_points(args, kwargs, result) -> int:
    return len(result.points)


def _count_entries(args, kwargs, result) -> int:
    return int(np.asarray(args[0]).size)


def _count_budgets(args, kwargs, result) -> int:
    return len(result.residual_history)


def _count_centers(args, kwargs, result) -> int:
    return 1


# span name -> (counter name, function of (args, kwargs, result))
COUNTERS = {
    "multiindex.capture_index": ("multiindex.capture_index.box_points",
                                 _count_box_points),
    "poly.eval_product": ("poly.eval_product.term_points", _count_term_points),
    "geometry.sample": ("geometry.sample.points", _count_points),
    "mergelyan.solve": ("mergelyan.solve.entries", _count_entries),
    "mergelyan.fit": ("mergelyan.budgets_tried", _count_budgets),
}
# verify's partial_sum runs once per expansion center
SITE_COUNTERS = {(verify, "partial_sum"): ("verify.centers", _count_centers)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # parallel columns: name id, start, end, parent index, unit id
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.unit_of = []
        self.counts: dict[str, int] = defaultdict(int)
        self.unit = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def wrap(self, name: str, fn, counter=None):
        nid = self._name_id(name)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.unit_of.append(self.unit)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, name in SITES:
            original = owner.__dict__[attr]
            counter = SITE_COUNTERS.get((owner, attr), COUNTERS.get(name))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def add(self, counter: str, value: int):
        self.counts[counter] += value

    def totals(self) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return out

    def build_stage_time_in(self, parent_name: str) -> float:
        """Summed duration of build_stage spans directly under `parent_name`."""
        pid = self._name_ids.get(parent_name)
        bid = self._name_ids.get("universal.build_stage")
        total = 0.0
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.name[i] == bid and p >= 0 and self.name[p] == pid:
                total += self.end[i] - self.start[i]
        return total

    def dump(self, path: str, extra: dict):
        t0 = min(self.start, default=0.0)
        spans = [[self.name[i], self.start[i] - t0, self.end[i] - t0,
                  self.parent[i], self.unit_of[i]]
                 for i in range(len(self.start))]
        with open(path, "w") as fh:
            json.dump(dict(extra, names=self.names,
                           columns=["name", "start_s", "end_s", "parent",
                                    "unit"],
                           spans=spans), fh)

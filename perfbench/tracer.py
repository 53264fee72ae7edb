"""Spans around calls into glassland, recorded from outside the package.

``Tracer.install`` replaces each target function object in every
``glassland.*`` module namespace that holds it, so calls made through a
module attribute (``dyson._boundary_batch``), through a name bound by
``from ... import`` (``landscape.local_data``) and through a module global
(``hamiltonian.local_data`` calling ``tangent_basis``) are all seen.
``uninstall`` puts the original objects back.

A span is (function, start, end, parent span, raised, count).  Spans stay
in memory and are written out by the caller when the run ends.  A span's
self time is its duration minus the durations of its direct children;
calls nest strictly because the workload runs in one thread.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

TARGETS = (
    ("mixture", "stats"),
    ("mixture", "classify_solvability"),
    ("mixture", "ideal_stats"),
    ("dyson", "boundary_u"),
    ("dyson", "spectral_measure"),
    ("dyson", "psi"),
    ("dyson", "feasibility"),
    ("dyson", "_boundary_batch"),
    ("complexity", "scan"),
    ("complexity", "F_point"),
    ("complexity", "sup_F"),
    ("complexity", "find_stationary_points"),
    ("complexity", "fd_hessian"),
    ("hamiltonian", "sample"),
    ("hamiltonian", "local_data"),
    ("hamiltonian", "tangent_basis"),
    ("hamiltonian", "retract"),
    ("landscape", "follow_critical_points"),
    ("landscape", "newton_refine"),
)
STATS = ("calls", "self_s", "total_s", "errors")
LAYERS = ("mixture", "dyson", "complexity", "hamiltonian", "landscape")
# work counters: function -> (metric suffix, items one call handled)
COUNTERS = {
    # the first argument is the (rows, r) array of shifts
    "dyson._boundary_batch": ("rows", lambda args, out: args[0].shape[0]),
    # accepted Newton steps
    "landscape.newton_refine": ("iterations", lambda args, out: out.iterations),
}
# derived ratios: metric -> ((function, what), (function, stat)).  ``what``
# is a stat, or a function name: the calls made inside calls of it.
RATIOS = {
    "dyson._boundary_batch.rows_per_call": (
        ("dyson._boundary_batch", "count"), ("dyson._boundary_batch", "calls")),
    "complexity.sup_F.F_point_per_call": (
        ("complexity.F_point", "complexity.sup_F"), ("complexity.sup_F", "calls")),
    "landscape.newton_refine.calls_per_follow": (
        ("landscape.newton_refine", "landscape.follow_critical_points"),
        ("landscape.follow_critical_points", "calls")),
    "hamiltonian.local_data.calls_per_newton_step": (
        ("hamiltonian.local_data", "landscape.newton_refine"),
        ("landscape.newton_refine", "count")),
}


class Tracer:
    """Wraps ``targets`` while installed and keeps the spans of their calls."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.present = []
        self._stack = []
        self._patched = []

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and n.startswith("glassland.")]
        for mod_name, fn_name in self.targets:
            home = sys.modules.get(f"glassland.{mod_name}")
            orig = getattr(home, fn_name, None)
            if not callable(orig):
                continue  # renamed or removed: its metrics are absent
            name = f"{mod_name}.{fn_name}"
            self.present.append(name)
            count = COUNTERS.get(name, (None, None))[1]
            wrapper = self._wrap(name, orig, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, name, orig, count):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised, out = True, None
            start = perf_counter()
            try:
                out = orig(*args, **kwargs)
                raised = False
                return out
            finally:
                end = perf_counter()
                stack.pop()
                n = count(args, out) if count and not raised else 0
                spans[idx] = (name, start, end, parent, raised, n)

        return functools.wraps(orig)(wrapper)

    def metrics(self, wall_s: float) -> dict:
        """Per-function stats, layer self times, ratios, time outside spans.

        ``wall_s`` is the traced pass's wall time; the sum of all self
        times plus ``trace.outside_s`` equals it.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                        "errors": 0, "count": 0}
                 for name in self.present}
        top = 0.0
        for i, (name, start, end, parent, raised, n) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            row["errors"] += int(raised)
            row["count"] += n
            if parent < 0:
                top += end - start
        out = {}
        for name, row in table.items():
            for stat in STATS:
                out[f"{name}.{stat}"] = row[stat]
        for name, (suffix, _) in COUNTERS.items():
            if name in table:
                out[f"{name}.{suffix}"] = table[name]["count"]
        out.update(self.ratios(table))
        for layer in LAYERS:
            names = [n for n in table if n.split(".")[0] == layer]
            out[f"layer.{layer}.self_s"] = sum(table[n]["self_s"] for n in names)
        out["trace.spans"] = len(self.spans)
        out["trace.outside_s"] = wall_s - top
        return out

    def _under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made, directly or not, inside an ``ancestor`` call."""
        hits = 0
        for span in self.spans:
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            hits += p >= 0
        return hits

    def ratios(self, table: dict) -> dict:
        """Derived ratios; 0 when the denominator is 0, absent with a function."""
        out = {}
        for metric, ((fn, what), (den_fn, stat)) in RATIOS.items():
            if fn not in table or den_fn not in table:
                continue
            num = table[fn][what] if what in table[fn] else self._under(fn, what)
            den = table[den_fn][stat]
            out[metric] = num / den if den else 0.0
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, raised, n) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start - t0, "end": end - t0,
                                     "raised": raised, "count": n}) + "\n")

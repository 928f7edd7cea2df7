"""Per-layer tracing of frontsim, installed from outside the program.

`Tracer.installed()` replaces the public callables of each module where the
program looks them up, records one span per call (name, start, end, parent,
op id) in memory, and puts the originals back on exit.  Nothing here is
imported by frontsim; with tracing off the program runs unpatched.

Times are `time.perf_counter` seconds.  A span's self time is its duration
minus the durations of the spans opened directly inside it.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import time
from array import array

import numpy as np

# Counted per call; Tracer.metrics() adds the times.  BENCHMARK.json lists
# every per-layer metric with its unit and direction, NOTES.md the end-to-end
# metric each should move.
COUNTERS = (
    "kinetics.flow_calls",
    "kinetics.flow_points",
    "classical.steps",
    "classical.rejected",
    "classical.invert_col_calls",
    "classical.invert_col_points",
    "classical.evaluate_v_calls",
    "classical.evaluate_v_points",
    "weak.segments",
    "weak.events",
    "weak.knots_max",
    "weak.knots_total",
    "weak.residual_calls",
    "weak.residual_max",
    "oracle.fd_cell_updates",
    "state.validate_calls",
    "cli.artifact_bytes",
)


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.op = -1
        self._stack: list[int] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.fd_sup_rel: list[tuple[float, float]] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def maximum(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts[key], value)

    def _wrap(self, name: str, fn, after=None):
        """Call fn inside a span; after(args, kwargs, result or None) adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(idx)
                if after is not None:
                    after(args, kwargs, result)

        return traced

    def _wrap_advance(self, fn):
        """advance() with the step and rejection deltas read from seg.stats."""
        tracer = self

        @functools.wraps(fn)
        def traced(seg, *args, **kwargs):
            steps, rejected = seg.stats.steps, seg.stats.rejected
            idx = tracer.open("classical.advance")
            try:
                return fn(seg, *args, **kwargs)
            finally:
                tracer.close(idx)
                tracer.add("classical.steps", seg.stats.steps - steps)
                tracer.add("classical.rejected", seg.stats.rejected - rejected)

        return traced

    # -- installation -------------------------------------------------------

    def _patches(self, fs):
        """(owner, attribute, replacement factory) for every traced callable;
        fs is the imported frontsim package."""
        classical, weak, cli, oracle = fs.classical, fs.weak, fs.cli, fs.oracle
        add = self.add

        def flow(args, kwargs, _):
            add("kinetics.flow_calls", 1)
            add("kinetics.flow_points", np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)

        def invert(args, kwargs, _):
            add("classical.invert_col_calls", 1)
            add("classical.invert_col_points", np.size(args[2]))

        def evaluate(args, kwargs, _):
            add("classical.evaluate_v_calls", 1)
            add("classical.evaluate_v_points", np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)

        def segment(args, kwargs, _):
            knots = int(np.size(args[2].xs))
            add("weak.segments", 1)
            add("weak.knots_total", knots)
            self.maximum("weak.knots_max", knots)

        def solved(args, kwargs, w):
            if w is not None:
                add("weak.events", len(w.events))

        def residual(args, kwargs, r):
            add("weak.residual_calls", 1)
            if r is not None:
                self.maximum("weak.residual_max", max(r))

        def fd(args, kwargs, _):
            fhn, t_end = args[0], args[3]
            add("oracle.fd_cell_updates", math.ceil(t_end / fhn.dt) * fhn.grid.size)

        def compared(args, kwargs, report):
            if report is not None:
                self.fd_sup_rel.append((report.eps, report.sup_rel))

        def validated(args, kwargs, _):
            add("state.validate_calls", 1)

        def scenario(args, kwargs, _):
            add("cli.artifact_bytes", _tree_bytes(args[0].out_dir))

        w = self._wrap
        return [
            (classical, "flow_inside", lambda f: w("kinetics.flow", f, flow)),
            (classical, "flow_outside", lambda f: w("kinetics.flow", f, flow)),
            (classical, "validate_initial", lambda f: w("state.validate", f, validated)),
            (classical.DensePath, "invert_col", lambda f: w("classical.invert_col", f, invert)),
            (classical.ClassicalSegment, "evaluate_v", lambda f: w("classical.evaluate_v", f, evaluate)),
            (classical.ClassicalSegment, "advance", self._wrap_advance),
            (weak, "run_segment", lambda f: w("weak.run_segment", f, segment)),
            (weak, "glue", lambda f: w("weak.glue", f)),
            (weak, "validate_initial", lambda f: w("state.validate", f, validated)),
            (weak, "weak_residual", lambda f: w("weak.residual", f, residual)),
            (cli, "run_weak", lambda f: w("weak.run_weak", f, solved)),
            (cli, "eps_sweep", lambda f: w("oracle.eps_sweep", f)),
            (cli, "spacetime_svg", lambda f: w("render.svg", f)),
            (cli, "weak_solution_curves", lambda f: w("render.svg", f)),
            (cli, "run_scenario", lambda f: w("cli.run_scenario", f, scenario)),
            (oracle, "run_fhn", lambda f: w("oracle.run_fhn", f, fd)),
            (oracle, "compare_trajectories", lambda f: w("oracle.compare", f, compared)),
        ]

    @contextlib.contextmanager
    def installed(self, fs):
        """Patch every traced callable of the frontsim package `fs` for the
        duration of the block."""
        restore = []
        try:
            for owner, attr, factory in self._patches(fs):
                original = owner.__dict__[attr]
                setattr(owner, attr, factory(original))
                restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # -- reduction ------------------------------------------------------------

    def _durations(self):
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return dur, child, parent, name_of

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric, reduced from the spans and counters."""
        dur, child, parent, name_of = self._durations()
        ids = {name: i for i, name in enumerate(self.names)}

        def mask(name):
            return name_of == ids.get(name, -1)

        def inclusive(name):
            return float(dur[mask(name)].sum())

        def self_time(name):
            m = mask(name)
            return float((dur[m] - child[m]).sum())

        # run_weak time outside its run_segment and glue calls
        own = mask("weak.run_weak")
        excluded = (mask("weak.run_segment") | mask("weak.glue")) & (parent >= 0)
        excluded &= own[np.where(parent >= 0, parent, 0)]
        surgery = float(dur[own].sum() - dur[excluded].sum())

        fd_s = inclusive("oracle.run_fhn")
        cells = self.counts["oracle.fd_cell_updates"]
        sup_rel = min(self.fd_sup_rel)[1] if self.fd_sup_rel else 0.0
        out = {key: float(value) for key, value in self.counts.items()}
        out.update(
            {
                "kinetics.flow_s": inclusive("kinetics.flow"),
                "classical.advance_s": self_time("classical.advance"),
                "classical.invert_col_s": inclusive("classical.invert_col"),
                "classical.evaluate_v_s": self_time("classical.evaluate_v"),
                "weak.surgery_s": surgery,
                "weak.glue_s": inclusive("weak.glue"),
                "weak.residual_s": inclusive("weak.residual"),
                "oracle.fd_s": fd_s,
                "oracle.fd_cells_per_s": cells / fd_s if fd_s > 0 else 0.0,
                "oracle.compare_s": inclusive("oracle.compare"),
                "oracle.sup_rel": float(sup_rel),
                "state.validate_s": inclusive("state.validate"),
                "cli.artifact_s": self_time("cli.run_scenario"),
                "render.svg_s": inclusive("render.svg"),
                "trace.overhead_s": float(overhead_s),
            }
        )
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                row = [self.names[self.name_of[i]], self.start[i], self.end[i], self.parent[i], self.op_of[i]]
                fh.write(json.dumps(row) + "\n")


def _tree_bytes(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total

"""Reference checks on each operation's outputs.

Each checker returns a list of messages, empty when the output matches its
reference, and `run_problems` judges a whole run.  They read the artifacts that `cli.run_scenario` wrote (what a
user of the program sees) plus, where the reference needs it, the
`WeakSolution` the run built.  `selftest.py` feeds every checker a corrupted
result and expects a rejection.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from frontsim.weak import check_no_nucleation

EVENT_TOL = 1e-8        # exact cascade event times and positions (seen: 3e-11)
FRONT_TOL = 1e-8        # exact cascade front positions at t_end
MERGE_TOL = 1e-6        # merge preset event time against t = 1
RESIDUAL_TOL = 1e-5     # weak-form residuals, as in acceptance criterion 06


@dataclass
class Outputs:
    events: list[dict]
    final: dict[int, float]      # interface label -> position at t_end (nan when dead)
    oracle: list[dict] | None    # oracle/summary.json, when the run had one


def read_outputs(out_dir: str) -> Outputs:
    with open(os.path.join(out_dir, "events.json"), encoding="utf-8") as fh:
        events = json.load(fh)
    with open(os.path.join(out_dir, "trajectories.csv"), encoding="utf-8") as fh:
        lines = fh.read().split()
    labels = [int(col[2:]) for col in lines[0].split(",")[1:]]
    final = dict(zip(labels, (float(v) for v in lines[-1].split(",")[1:])))
    oracle = None
    summary = os.path.join(out_dir, "oracle", "summary.json")
    if os.path.exists(summary):
        with open(summary, encoding="utf-8") as fh:
            oracle = json.load(fh)
    return Outputs(events, final, oracle)


def cascade(cfg, out: Outputs, w=None) -> list[str]:
    """v0 = 0 and every gap closes: each front moves at W(0) = a exactly.

    Gap i (between labels 2i and 2i+1) closes at gap/2 at its midpoint; the
    two outer fronts end at x_1 - a*t_end and x_2m + a*t_end.
    """
    misses = []
    x = cfg.omega.endpoints
    a, n = cfg.params.a, len(x)
    by_labels = {tuple(ev["labels"]): ev for ev in out.events}
    if len(out.events) != n // 2 - 1:
        misses.append(f"{len(out.events)} events, expected {n // 2 - 1}")
    for k in range(1, n - 1, 2):
        gap = x[k + 1] - x[k]
        ev = by_labels.get((k + 1, k + 2))
        if ev is None:
            misses.append(f"no event for labels ({k + 1}, {k + 2})")
            continue
        if ev["kind"] != "merge":
            misses.append(f"event ({k + 1}, {k + 2}) is a {ev['kind']}")
        if not abs(ev["time"] - gap / (2 * a)) <= EVENT_TOL:
            misses.append(f"event ({k + 1}, {k + 2}) at t={ev['time']!r}, expected {gap / (2 * a)!r}")
        if not abs(ev["position"] - 0.5 * (x[k] + x[k + 1])) <= EVENT_TOL:
            misses.append(f"event ({k + 1}, {k + 2}) at x={ev['position']!r}")
    expected = {1: x[0] - a * cfg.t_end, n: x[-1] + a * cfg.t_end}
    for label, pos in out.final.items():
        want = expected.get(label, math.nan)
        if math.isnan(want) != math.isnan(pos) or not (math.isnan(want) or abs(pos - want) <= FRONT_TOL):
            misses.append(f"x_{label}(t_end) = {pos!r}, expected {want!r}")
    return misses


def profiles(cfg, out: Outputs, w) -> list[str]:
    """No events, no nucleation, and every front moves outward by a distance
    in [min W, max W] * t_end, with W in [a - b*max v0, a] on this data."""
    misses = []
    if out.events:
        misses.append(f"{len(out.events)} events where no gap can close")
    if not check_no_nucleation(w):
        misses.append("check_no_nucleation failed")
    p = cfg.params
    lo = (p.a - p.b * cfg.profile.bound) * cfg.t_end - 1e-9
    hi = p.a * cfg.t_end + 1e-9
    for k, x0 in enumerate(cfg.omega.endpoints, start=1):
        outward = (out.final.get(k, math.nan) - x0) * (1 if k % 2 == 0 else -1)
        if not lo <= outward <= hi:
            misses.append(f"front {k} moved {outward!r}, expected within [{lo:.6g}, {hi:.6g}]")
    return misses


def verify_solve(cfg, out: Outputs, w=None) -> list[str]:
    """Merge preset: one merge at t = 1, and the FD error falls with eps."""
    misses = []
    times = [ev["time"] for ev in out.events]
    if len(times) != 1 or not abs(times[0] - 1.0) <= MERGE_TOL:
        misses.append(f"merge events at {times!r}, expected one at t = 1")
    reports = sorted(out.oracle or [], key=lambda r: -r["eps"])
    errors = [r["sup_abs_error"] for r in reports]
    if len(errors) < 2 or any(not b < a for a, b in zip(errors, errors[1:])):
        misses.append(f"FD sup errors {errors!r} do not fall as eps decreases")
    return misses


def residual(r) -> list[str]:
    worst = max(r)
    if not worst <= RESIDUAL_TOL:
        return [f"weak residual {worst:.3e} above {RESIDUAL_TOL:g}"]
    return []


def run_problems(results, expected_errors) -> list[str]:
    """Why a run's operations make it incorrect; empty when they do not.

    A run is incorrect when an output misses its reference, when an operation
    raised anything but the workload's expected failures, or when no
    operation completed, so that nothing was timed.
    """
    problems = [f"reference miss: {m}" for r in results for m in r.misses]
    unexpected = sorted({e for r in results for e in r.errors} - set(expected_errors))
    if unexpected:
        problems.append(f"unexpected failures: {', '.join(unexpected)}")
    if not any(r.completed for r in results):
        problems.append("no operation completed")
    return problems

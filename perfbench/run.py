"""frontsim benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload cascade --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; frontsim is imported from its `src/`.

--trace 0 measures the end-to-end metrics with the program unpatched: it runs
whole passes over the workload's fixed operations, as many as come nearest to
--seconds, and checks every output against its reference.  --trace 1 runs the
workload's first operations twice, once plain and once with tracing.Tracer
installed, and reports the per-layer metrics plus the difference of the two.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Each failure's exception class is printed on
the lines before it.  correct is false when an output misses its reference,
when an operation raises anything but the workload's expected failures
(StepFailure on profiles, nothing elsewhere), or when no operation completes.
"""
from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cascade", "profiles", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup(name: str, seed: int, work_dir: str):
    """Import frontsim, generate the inputs and run the merge preset once.

    Returns (workload, seconds taken).
    """
    t0 = time.perf_counter()
    import frontsim
    import workloads
    from frontsim.config import preset_config

    wl = workloads.WORKLOADS[name](seed, work_dir)
    warm = preset_config("merge", out_dir=os.path.join(work_dir, "warmup"))
    workloads.run_capturing(warm)
    elapsed = time.perf_counter() - t0
    if os.path.commonpath([os.path.abspath(frontsim.__file__), SRC]) != SRC:
        raise SystemExit(f"frontsim imported from {frontsim.__file__}, not from {SRC}")
    shutil.rmtree(warm.out_dir, ignore_errors=True)
    return wl, elapsed


def _run_passes(wl, seconds):
    """Whole passes over operations 0 .. wl.pass_ops - 1, as many as end
    nearest to `seconds` after the start, and at least one."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.extend(wl.run_op(i) for i in range(wl.pass_ops))
        elapsed = time.perf_counter() - t0
        per_pass = elapsed * wl.pass_ops / len(results)
        if elapsed + per_pass / 2 >= seconds:
            return results


def _tally(results):
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    errors = collections.Counter(e for r in results for e in r.errors)
    return attempted, failed, errors


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "frontsim", "__init__.py")):
        print(f"no frontsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    work_dir = os.path.join(WORK, f"work-{os.getpid()}")
    try:
        return _measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _measure(args, work_dir) -> int:
    wl, setup_s = setup(args.workload, args.seed, work_dir)
    import checks
    import frontsim
    from selftest import run_selftest
    from tracing import Tracer

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    problems = run_selftest(work_dir)
    if problems:
        print("checker self-test failed:", *problems, sep="\n  ", file=sys.stderr)
        return 1

    if args.trace == 0:
        results = _run_passes(wl, args.seconds)
        done = [r for r in results if r.completed]
        metrics = {
            "setup_s": setup_s,
            "model_time_per_s": sum(r.model_time for r in done) / sum(r.wall for r in results),
            "wall_s": statistics.fmean(r.wall for r in done) if done else 0.0,
            "completed_frac": 1.0 - sum(r.failed for r in results) / sum(r.attempted for r in results),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        plain = [wl.run_op(i) for i in range(wl.trace_ops)]
        tracer = Tracer()
        traced = []
        with tracer.installed(frontsim):
            for i in range(wl.trace_ops):
                tracer.op = i
                traced.append(wl.run_op(i))
        overhead = sum(r.wall for r in traced) - sum(r.wall for r in plain)
        metrics = tracer.metrics(overhead)
        tracer.write(os.path.join(WORK, "spans", f"{args.workload}-seed{args.seed}.jsonl"))
        results = plain + traced

    attempted, failed, errors = _tally(results)
    print(f"workload {args.workload} seed {args.seed}: {len(results)} ops, "
          f"{attempted} attempted, {failed} failed (failed_frac {failed / attempted:.4f})")
    print("op walls (s):", " ".join(f"{r.wall:.3f}{'' if r.completed else '!'}" for r in results))
    for cls, n in sorted(errors.items()):
        print(f"failure {cls} x{n}")
    problems = checks.run_problems(results, wl.expected_errors)
    for problem in problems:
        print(problem)
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print every end-to-end and per-layer metric of the benchmark by name, with
its unit, for one seed; or, with several seeds, the run-to-run spread of the
end-to-end metrics against their bounds in BENCHMARK.json.

    python3 perfbench/report.py --seed 0                    # all metrics
    python3 perfbench/report.py --seeds 0 1 2 3 4 --workload profiles

Each run is a separate `run.py` process, started one after another.  The
spread of a metric is (Q3 - Q1) / median of its values over the seeds, with
the quartiles of statistics.quantiles(values, n=4); the exit code is 1 when a
spread other than setup_s's is above its bound.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workload or names:
        if not args.seeds:
            for trace in (0, 1):
                out = run(workload, args.seed, args.seconds, trace)
                print(f"# {workload} seed {args.seed} trace {trace}: correct={out['correct']} "
                      f"attempted={out['attempted']} failed={out['failed']}")
                for name, m in out["metrics"].items():
                    print(f"{workload} {name} {m['value']!r} {m['unit']}")
            continue
        runs = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        print(f"# {workload} seeds {args.seeds}: correct={[r['correct'] for r in runs]} "
              f"failed/attempted={[(r['failed'], r['attempted']) for r in runs]}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if metric["name"] == "setup_s":
                # One set-up per run swings with the host, so its spread is
                # shown but not held to the bound; a change is judged on the
                # median of setup_s against the parent's.
                verdict = "not gated"
            else:
                verdict = "ok" if spread <= metric["bound"] else "OVER"
            ok &= verdict != "OVER"
            print(f"{workload} {metric['name']} median {med:.6g} {metric['unit']} "
                  f"spread {spread:.4f} bound {metric['bound']} {verdict} "
                  f"values {[round(v, 6) for v in values]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

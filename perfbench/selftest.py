"""Checker self-test: each reference check, and the verdict on a whole run,
must accept a genuine result and reject a corrupted one.

    python3 perfbench/selftest.py

run.py also calls run_selftest() before every measurement, so a checker that
stopped rejecting anything cannot pass a benchmark run.
"""
from __future__ import annotations

import copy
import os
import shutil
import sys
import tempfile


def run_selftest(work_dir: str) -> list[str]:
    """Names of the checks that misbehaved; empty when all behave."""
    import checks
    from frontsim.config import preset_config
    from workloads import OpResult, run_capturing

    problems = []

    def expect(name, misses, accept):
        if bool(misses) == accept:
            problems.append(f"{name}: {'rejected' if accept else 'accepted'} -> {misses!r}")

    # the merge preset is a two-interval cascade on v0 = 0
    merge = preset_config("merge", out_dir=os.path.join(work_dir, "selftest-merge"))
    run_capturing(merge)
    out = checks.read_outputs(merge.out_dir)
    expect("cascade genuine", checks.cascade(merge, out), True)
    bad = copy.deepcopy(out)
    bad.events[0]["time"] += 1e-5
    expect("cascade event time +1e-5", checks.cascade(merge, bad), False)
    bad = copy.deepcopy(out)
    bad.final[1] -= 1e-5
    expect("cascade outer front -1e-5", checks.cascade(merge, bad), False)

    fd = [{"eps": 0.05, "sup_abs_error": 0.2}, {"eps": 0.02, "sup_abs_error": 0.1}]
    expect("verify genuine", checks.verify_solve(merge, checks.Outputs(out.events, out.final, fd)), True)
    late = copy.deepcopy(out.events)
    late[0]["time"] += 2e-6
    expect("verify merge time +2e-6", checks.verify_solve(merge, checks.Outputs(late, out.final, fd)), False)
    flat = [dict(fd[0]), dict(fd[1], sup_abs_error=0.2)]
    expect("verify FD error not falling", checks.verify_solve(merge, checks.Outputs(out.events, out.final, flat)), False)
    expect("residual 2e-6", checks.residual((1e-6, 2e-6)), True)
    expect("residual 2e-5", checks.residual((1e-6, 2e-5)), False)

    # the expanding preset has no events and both fronts move at W(0) = a
    expanding = preset_config("expanding", out_dir=os.path.join(work_dir, "selftest-expanding"))
    w = run_capturing(expanding)
    out = checks.read_outputs(expanding.out_dir)
    expect("profiles genuine", checks.profiles(expanding, out, w), True)
    bad = copy.deepcopy(out)
    bad.final[2] += 1e-3
    expect("profiles front beyond a*t_end", checks.profiles(expanding, bad, w), False)
    bad = copy.deepcopy(out)
    bad.events.append({"time": 1.0, "labels": [1, 2], "kind": "vanish"})
    expect("profiles spurious event", checks.profiles(expanding, bad, w), False)

    # a run is judged on all its operations, failed ones included
    done = OpResult(attempted=1, completed=True, model_time=1.0)

    def raised(cls):
        return OpResult(attempted=1, failed=1, errors=[cls])

    step = frozenset({"StepFailure"})
    expect("run with StepFailure on profiles", checks.run_problems([done, raised("StepFailure")], step), True)
    expect("run with StepFailure on cascade", checks.run_problems([done, raised("StepFailure")], frozenset()), False)
    expect("run with GlueMismatch on profiles", checks.run_problems([done, raised("GlueMismatch")], step), False)
    expect("run with nothing completed", checks.run_problems([raised("StepFailure")], step), False)
    missed = OpResult(attempted=1, failed=1, misses=["x_1 off"])
    expect("run with a reference miss", checks.run_problems([done, missed], step), False)

    for cfg in (merge, expanding):
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
    return problems


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(root, ".perfbench")) as work:
        problems = run_selftest(work)
    for line in problems:
        print(f"FAIL {line}")
    print("checker self-test:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

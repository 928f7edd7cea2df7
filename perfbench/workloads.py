"""Seeded inputs and the timed operations of the three benchmark workloads.

Each workload turns `--seed` into frontsim input objects (`IntervalSet`,
`Profile`, `RunConfig`) before any timing starts (profiles: one fixed draw,
run in an order set by the seed); the program sees only those objects.  `run_op(i)` runs operation i through the public API, times the
program's part of it, and checks the outputs against a reference
(`checks.py`).  An operation that raises is counted as failed with its
exception class, never dropped.
"""
from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import frontsim.cli
import frontsim.config
import frontsim.weak
from frontsim import IntervalSet, Parameters, Profile
from frontsim.config import RunConfig

import checks

# The presets' kinetics: g1*g3 > 2*g2, a/b = 1/2.
PARAMS = Parameters(g1=1.0, g2=1.0, g3=3.0, g4=1.0, a=1.0, b=2.0)


@dataclass
class OpResult:
    """Outcome of one timed operation (an instance, or verify's round)."""

    attempted: int = 0
    failed: int = 0
    completed: bool = False
    model_time: float = 0.0   # t_end of each completed solve
    wall: float = 0.0         # seconds spent inside frontsim
    errors: list[str] = field(default_factory=list)   # exception classes
    misses: list[str] = field(default_factory=list)   # reference-check failures


def _chain(rng, m: int, gap: tuple[float, float]) -> tuple[float, ...]:
    """m intervals, lengths U(0.5, 2), gaps U(*gap), starting at x = 0."""
    lengths = rng.uniform(0.5, 2.0, m)
    gaps = rng.uniform(gap[0], gap[1], m - 1)
    xs = [0.0]
    for i in range(m):
        xs.append(xs[-1] + lengths[i])
        if i < m - 1:
            xs.append(xs[-1] + gaps[i])
    return tuple(xs)


def run_capturing(cfg: RunConfig):
    """cli.run_scenario(cfg), returning the WeakSolution it built.

    The solution is taken from cli.run_weak's return value for the reference
    checks; the capture adds one Python call per run and times nothing.
    """
    cli = frontsim.cli
    solved = []
    inner = cli.run_weak

    def capture(*args, **kwargs):
        w = inner(*args, **kwargs)
        solved.append(w)
        return w

    cli.run_weak = capture
    try:
        cli.run_scenario(cfg)
    finally:
        cli.run_weak = inner
    return solved[-1]


class _Workload:
    name = ""
    pass_ops = 1    # operations in one measured pass; a run repeats whole passes
    trace_ops = 1   # operations in each pass of a traced run
    expected_errors: frozenset[str] = frozenset()   # failures that leave a run correct

    def __init__(self, work_dir: str):
        self.work_dir = work_dir

    def _out_dir(self, i: int) -> str:
        path = os.path.join(self.work_dir, f"{self.name}-{i}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _solve(self, cfg: RunConfig, i: int, check):
        """One instance through cli.run_scenario, checked by check(cfg, out, w).

        Returns (result, the WeakSolution or None when the run raised).
        """
        cfg.out_dir = self._out_dir(i)
        res = OpResult(attempted=1)
        t0 = time.perf_counter()
        try:
            w = run_capturing(cfg)
        except Exception as exc:  # a failed op is recorded, never dropped
            res.wall = time.perf_counter() - t0
            res.failed = 1
            res.errors.append(type(exc).__name__)
            return res, None
        res.wall = time.perf_counter() - t0
        res.misses = check(cfg, checks.read_outputs(cfg.out_dir), w)
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        if res.misses:
            res.failed = 1
        else:
            res.completed = True
            res.model_time = cfg.t_end
        return res, w


class Cascade(_Workload):
    """8 random intervals on v0 = 0: seven merges, then two free fronts.

    Exercises the weak layer's surgery, resampling and glue path; the field
    stays 0 ahead of every front, so stepping is trivial.  The reference is
    exact: fronts move at W(0) = a = 1, each gap closes at gap/2.
    """

    name = "cascade"
    pass_ops = 5
    trace_ops = 2

    def __init__(self, seed, work_dir):
        super().__init__(work_dir)
        rng = np.random.default_rng([seed, 1])
        self.inputs = []
        for _ in range(self.pass_ops):
            xs = _chain(rng, 8, (0.5, 2.0))
            self.inputs.append(
                RunConfig(
                    params=PARAMS,
                    omega=IntervalSet(xs),
                    profile=Profile.constant(0.0, (xs[0] - 20.0, xs[-1] + 20.0)),
                    t_end=3.0,
                )
            )

    def run_op(self, i: int) -> OpResult:
        return self._solve(self.inputs[i % self.pass_ops], i, checks.cascade)[0]


class Profiles(_Workload):
    """3 intervals that never meet, on a random piecewise-linear v0.

    The opposite of cascade: no events, so the time goes to the stepper and
    the field rebuild inside it.  Gaps of at least 2.5 cannot close before
    t_end = 1; values in [0, 0.45] keep W(v) >= 0.1, so the data are
    admissible and nondegenerate.  Most of these instances die with
    StepFailure (the stepper's known defect); they are kept, not filtered.

    The 24 instances are one fixed draw, the same for every seed; the seed
    only sets the order they run in.  The share that completes is a measured
    figure, and over fresh draws of 24 it varies by more than any bound.
    """

    name = "profiles"
    pass_ops = 24
    trace_ops = 12   # any 12 in a row include a completed instance
    expected_errors = frozenset({"StepFailure"})

    def __init__(self, seed, work_dir):
        super().__init__(work_dir)
        self.seed = seed
        rng = np.random.default_rng([0, 2])
        self.inputs = []
        for _ in range(self.pass_ops):
            xs = _chain(rng, 3, (2.5, 4.0))
            knots = np.linspace(xs[0] - 20.0, xs[-1] + 20.0, 40)
            self.inputs.append(
                RunConfig(
                    params=PARAMS,
                    omega=IntervalSet(xs),
                    profile=Profile(knots, rng.uniform(0.0, 0.45, knots.size)),
                    t_end=1.0,
                )
            )

    def run_op(self, i: int) -> OpResult:
        cfg = self.inputs[(i + self.seed) % self.pass_ops]
        return self._solve(cfg, i, checks.profiles)[0]


class Verify(_Workload):
    """Checks on a finished solution: the read path of the field.

    One operation is a fixed round: the merge preset with the FD oracle at
    eps = 0.05 and 0.02, then 30 seeded weak-residual windows (degree-3
    tensor test functions, every other one straddling the t = 1 merge).
    evaluate_v reads a finished path in large batches here, where the
    profiles stepper rebuilds the field a few points at a time.
    """

    name = "verify"
    trace_ops = 1
    n_windows = 30

    def __init__(self, seed, work_dir):
        super().__init__(work_dir)
        self.cfg = frontsim.config.preset_config("merge")
        self.cfg.oracle_eps = (0.05, 0.02)
        rng = np.random.default_rng([seed, 3])
        horizon, merge_t, span = self.cfg.t_end, 1.0, (-7.0, 7.0)
        n_basis = 16  # tensor_test_functions(degree=3): 4 x 4 monomials
        self.windows = []
        for i in range(self.n_windows):
            dt_win = rng.uniform(0.3, 1.2)
            if i % 2 == 0:
                t1 = max(0.0, merge_t - dt_win * rng.uniform(0.2, 0.8))
                t2 = min(horizon, t1 + dt_win)
                t1 = max(0.0, t2 - dt_win)
            else:
                t1 = rng.uniform(0.0, horizon - dt_win)
                t2 = t1 + dt_win
            x1 = rng.uniform(span[0], span[1] - 1.0)
            x2 = x1 + rng.uniform(1.0, min(8.0, span[1] - x1))
            self.windows.append(((x1, x2, t1, t2), int(rng.integers(n_basis)), int(rng.integers(n_basis))))

    def run_op(self, i: int) -> OpResult:
        weak = frontsim.weak
        res, w = self._solve(self.cfg, i, checks.verify_solve)
        if w is None:
            return res
        for window, a, b in self.windows:
            res.attempted += 1
            t0 = time.perf_counter()
            try:
                basis = weak.tensor_test_functions(window, degree=3)
                r = weak.weak_residual(w, window, basis[a], basis[b])
            except Exception as exc:
                res.wall += time.perf_counter() - t0
                res.failed += 1
                res.errors.append(type(exc).__name__)
                continue
            res.wall += time.perf_counter() - t0
            miss = checks.residual(r)
            if miss:
                res.failed += 1
                res.misses.extend(miss)
        res.completed = res.failed == 0
        return res


WORKLOADS = {cls.name: cls for cls in (Cascade, Profiles, Verify)}

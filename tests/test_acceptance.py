"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""
import math
import time

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from frontsim.kinetics import (
    Parameters,
    flow_inside,
    flow_outside,
)
from frontsim.state import IntervalSet, Profile, default_margin
from frontsim.classical import EventKind, run_segment
from frontsim.weak import (
    WeakSolution,
    check_no_nucleation,
    ill_posedness_demo,
    interface_speed_integral,
    run_weak,
    tensor_test_functions,
    weak_residual,
)
from frontsim.oracle import eps_sweep
from frontsim.cli import run_scenario
from frontsim.config import preset_config

from conftest import shrinking_setup


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail} ({elapsed:.2f}s / budget {budget:g}s)")


def g_of(p, u, v):
    return p.g1 * u - p.g2 * v / (p.g3 * v + p.g4)


def test_criterion_01_kinetics_exactness(rng):
    start = time.perf_counter()
    worst = 0.0
    import warnings

    for _ in range(100):
        g1, g3, g4 = rng.uniform(0.2, 3.0, size=3)
        g2 = rng.uniform(0.05, 0.95) * g1 * g3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = Parameters(g1=g1, g2=g2, g3=g3, g4=g4, a=1.0, b=2.0)
        v0 = rng.uniform(0.0, 5.0)
        t = rng.uniform(0.05, 10.0)
        for u, flow in ((0, flow_outside), (1, flow_inside)):
            ref = solve_ivp(
                lambda s, y: [g_of(p, u, max(y[0], 0.0))],
                (0.0, t),
                [v0],
                method="DOP853",
                rtol=1e-11,
                atol=1e-13,
            ).y[0, -1]
            worst = max(worst, abs(float(flow(p, v0, t)) - ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8
    _report(1, "kinetics exactness vs reference integrator", ok, f"sup={worst:.2e} <= 1e-8", elapsed, 10.0)
    assert ok and elapsed < 10.0


def test_criterion_02_flow_lemma_suite(pstar, rng):
    start = time.perf_counter()
    n = 10_000
    s = rng.uniform(0.0, 5.0, size=n)
    u = rng.uniform(0.0, 5.0, size=n)
    t = rng.uniform(0.0, 10.0, size=n)
    out = flow_outside(pstar, s, t)
    bounds_ok = bool(np.all(out >= 0.0) and np.all(out <= s + 1e-14))
    nonexp = np.abs(flow_outside(pstar, u, t) - out) <= np.abs(u - s) + 1e-12
    nonexp_ok = bool(np.all(nonexp))
    h = 1e-5
    v0 = rng.uniform(0.0, 3.0, size=64)
    tt = rng.uniform(0.05, 5.0, size=64)
    fd = (flow_inside(pstar, v0, tt + h) - flow_inside(pstar, v0, tt - h)) / (2 * h)
    rate = g_of(pstar, 1, flow_inside(pstar, v0, tt))
    deriv_rel = float(np.max(np.abs(fd - rate) / np.abs(rate)))
    deriv_ok = deriv_rel <= 1e-6
    elapsed = time.perf_counter() - start
    ok = bounds_ok and nonexp_ok and deriv_ok
    _report(
        2,
        "flow bounds, nonexpansiveness, time derivative",
        ok,
        f"bounds={bounds_ok} nonexp={nonexp_ok} d/dt rel={deriv_rel:.2e}",
        elapsed,
        5.0,
    )
    assert ok and elapsed < 5.0


def test_criterion_03_constant_speed_front(expanding_run):
    start = time.perf_counter()
    ts = np.linspace(0.0, 2.0, 801)
    pos = expanding_run.positions(ts)
    err = max(
        float(np.max(np.abs(pos[:, 0] - (-1.0 - ts)))),
        float(np.max(np.abs(pos[:, 1] - (1.0 + ts)))),
    )
    elapsed = time.perf_counter() - start
    ok = err <= 1e-8
    _report(3, "analytically forced unit-speed front", ok, f"sup={err:.2e} <= 1e-8", elapsed, 1.0)
    assert ok and elapsed < 1.0


def test_criterion_04_integral_identity(shrinking_run, rng):
    start = time.perf_counter()
    t_a = shrinking_run.events[0].time
    seg = shrinking_run.segments[0]
    worst = 0.0
    for _ in range(20):
        t1, t2 = np.sort(rng.uniform(0.0, t_a, size=2))
        if t2 - t1 < 1e-4:
            t2 = min(t_a, t1 + 1e-4)
        for col, label in enumerate(seg.labels):
            lhs = seg.positions(t2)[col] - seg.positions(t1)[col]
            rhs = interface_speed_integral(shrinking_run, label, t1, t2)
            if col % 2 == 0:
                rhs = -rhs  # left endpoints move against the speed law
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6
    _report(4, "displacement equals integrated speed law", ok, f"sup={worst:.2e} <= 1e-6", elapsed, 5.0)
    assert ok and elapsed < 5.0


def test_criterion_05_annihilation_times(pstar, shrinking_run, merge_run):
    start = time.perf_counter()
    integor = lambda T: quad(
        lambda t: pstar.b * flow_inside(pstar, 1.0, t) - pstar.a, 0.0, T,
        epsabs=1e-13, epsrel=1e-13,
    )[0]
    t_oracle = brentq(lambda T: integor(T) - 1.0, 0.5, 1.0, xtol=1e-13)
    ev_s = shrinking_run.events[0]
    ev_m = merge_run.events[0]
    vanish_ok = ev_s.kind is EventKind.VANISH and abs(ev_s.time - t_oracle) <= 1e-6
    merge_ok = (
        ev_m.kind is EventKind.MERGE
        and abs(ev_m.time - 1.0) <= 1e-6
        and abs(ev_m.position) <= 1e-8
    )
    elapsed = time.perf_counter() - start
    ok = vanish_ok and merge_ok
    _report(
        5,
        "annihilation against quadrature oracle",
        ok,
        f"|T_A-oracle|={abs(ev_s.time - t_oracle):.2e}, merge |t-1|={abs(ev_m.time - 1):.2e} "
        f"|x|={abs(ev_m.position):.2e}",
        elapsed,
        5.0,
    )
    assert ok and elapsed < 5.0


def test_criterion_06_weak_residuals(expanding_run, shrinking_run, merge_run, rng):
    start = time.perf_counter()
    worst1 = worst2 = 0.0
    for w in (expanding_run, shrinking_run, merge_run):
        horizon = w.t_end
        span_lo, span_hi = -7.0, 7.0
        events = [ev.time for ev in w.events]
        for i in range(50):
            dt_win = rng.uniform(0.3, min(1.2, horizon))
            if events and i % 2 == 0:
                # force a window straddling an annihilation
                ev = events[0]
                t1 = max(0.0, ev - dt_win * rng.uniform(0.2, 0.8))
                t2 = min(horizon, t1 + dt_win)
                t1 = max(0.0, t2 - dt_win)
            else:
                t1 = rng.uniform(0.0, horizon - dt_win)
                t2 = t1 + dt_win
            x1 = rng.uniform(span_lo, span_hi - 1.0)
            x2 = x1 + rng.uniform(1.0, min(8.0, span_hi - x1))
            window = (x1, x2, t1, t2)
            basis = tensor_test_functions(window, degree=3)
            phi = basis[rng.integers(len(basis))]
            psi = basis[rng.integers(len(basis))]
            r1, r2 = weak_residual(w, window, phi, psi)
            worst1 = max(worst1, r1)
            worst2 = max(worst2, r2)
    elapsed = time.perf_counter() - start
    ok = worst1 <= 1e-8 and worst2 <= 1e-8
    _report(
        6,
        "weak-form residuals on random windows",
        ok,
        f"measure id {worst1:.2e}, field id {worst2:.2e} <= 1e-8",
        elapsed,
        30.0,
    )
    assert ok and elapsed < 30.0


def test_criterion_07_surgery_and_gluing(pstar, expanding_run, shrinking_run, merge_run):
    start = time.perf_counter()
    cont_ok = True
    for w in (shrinking_run, merge_run):
        ev = w.events[0]
        nxt = w.segments[1]
        grid = np.asarray(nxt.profile_start.xs)
        grid = np.sort(np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])]))
        before = np.asarray(w.segments[0].evaluate_v(grid, ev.time))
        after = np.asarray(nxt.evaluate_v(grid, ev.time))
        cont_ok &= bool(np.max(np.abs(before - after)) <= 1e-8)
    drops_ok = all(
        ev.components_after == ev.components_before - 1
        for w in (shrinking_run, merge_run)
        for ev in w.events
    )
    clean_ok = all(check_no_nucleation(w) for w in (expanding_run, shrinking_run, merge_run))
    from frontsim.classical import ClassicalSegment

    omega, v0 = shrinking_setup(pstar)
    seg1, _ = run_segment(pstar, omega, v0, 0.0, 0.5)
    spurious = ClassicalSegment(
        pstar,
        IntervalSet((-0.6, 0.6, 3.0, 4.0)),
        Profile(np.array([-20.0, 20.0]), np.array([1.3, 1.3])),
        0.5,
        0.8,
        labels=(1, 2, 7, 8),
    )
    corrupted_ok = not check_no_nucleation(WeakSolution(pstar, [seg1, spurious], []))
    elapsed = time.perf_counter() - start
    ok = cont_ok and drops_ok and clean_ok and corrupted_ok
    _report(
        7,
        "surgery continuity and no-nucleation",
        ok,
        f"continuity={cont_ok} drops={drops_ok} clean={clean_ok} corrupted_detected={corrupted_ok}",
        elapsed,
        5.0,
    )
    assert ok and elapsed < 5.0


def test_criterion_08_uniqueness_probe(pstar):
    # the shrinking scenario has genuinely time-dependent speeds, so the
    # integrator error is the only difference between tolerance levels
    start = time.perf_counter()
    omega, v0 = shrinking_setup(pstar)
    tol = 1e-6
    runs = [run_weak(pstar, omega, v0, 0.6, tol_step=tol / 4**k) for k in range(3)]
    ts = np.linspace(0.02, 0.6, 30)
    samples = []
    for w in runs:
        pos = w.positions(ts)
        samples.append(pos[~np.isnan(pos)])
    d1 = float(np.max(np.abs(samples[0] - samples[1])))
    d2 = float(np.max(np.abs(samples[1] - samples[2])))
    order = math.log2(d1 / d2) if d2 > 0 else math.inf
    elapsed = time.perf_counter() - start
    ok = order >= 2.0 and d2 <= 1e-7
    _report(
        8,
        "self-convergence under tolerance refinement",
        ok,
        f"d1={d1:.2e} d2={d2:.2e} observed order={order:.2f} (>=2), finest pair <= 1e-7",
        elapsed,
        30.0,
    )
    assert ok and elapsed < 30.0


def test_criterion_09_ill_posedness_demo(pstar):
    start = time.perf_counter()
    recede, advance = ill_posedness_demo(pstar, 0.1)
    # W(v0(0)) is -eta or +eta, and a left endpoint moves at -W
    eta = 2.0 * default_margin(pstar)
    slopes = [w.segments[0]._path.deriv(0.0)[0] for w in (recede, advance)]
    eta_start = (
        recede.positions(0.0)[0] == 0.0
        and advance.positions(0.0)[0] == 0.0
        and abs(slopes[0] - eta) <= 1e-15
        and abs(slopes[1] + eta) <= 1e-15
    )
    ts = np.linspace(0.002, 0.1, 50)
    s_recede, s_advance = recede.positions(ts)[:, 0], advance.positions(ts)[:, 0]
    ordered = bool(np.all(s_advance < 0.0) and np.all(s_recede > 0.0))
    widening = bool(np.all(np.diff(s_recede - s_advance) > 0.0))
    # the eta -> 0 limits at t = 0.1, by linear extrapolation from eta = 1e-5 and 4e-6
    err = max(abs(s_recede[-1] - 7.4591e-3), abs(s_advance[-1] + 1.8643e-3))
    elapsed = time.perf_counter() - start
    ok = eta_start and ordered and widening and err <= 1e-6
    _report(
        9,
        "two continuations from degenerate data",
        ok,
        f"start at 0 with slopes +-eta={eta_start} s_advance<0<s_recede={ordered} "
        f"separation increasing={widening} t=0.1 off the eta->0 limits by {err:.1e} (<=1e-6)",
        elapsed,
        5.0,
    )
    assert ok and elapsed < 5.0


def test_criterion_10_singular_limit_oracle(pstar, expanding_run):
    start = time.perf_counter()
    omega = IntervalSet((-1.0, 1.0))
    v0 = Profile.constant(0.0, (-16.0, 16.0))
    reports = eps_sweep(pstar, omega, v0, expanding_run, [0.05, 0.02, 0.01], 1.0)
    sups = [r.sup_abs for r in reports]
    monotone = sups[0] > sups[1] > sups[2]
    rel_ok = reports[2].sup_rel <= 0.05
    elapsed = time.perf_counter() - start
    ok = monotone and rel_ok
    _report(
        10,
        "sharp-interface limit of the diffuse model",
        ok,
        f"sup errors {sups[0]:.3f} > {sups[1]:.3f} > {sups[2]:.3f}, rel@0.01={reports[2].sup_rel:.3%} <= 5%",
        elapsed,
        600.0,
    )
    assert ok and elapsed < 600.0


def test_criterion_11_determinism(tmp_path):
    start = time.perf_counter()
    outs = []
    for sub in ("one", "two"):
        cfg = preset_config("merge", out_dir=str(tmp_path / sub))
        run_scenario(cfg)
        outs.append(tmp_path / sub)
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("trajectories.csv", "events.json", "field.csv")
    )
    elapsed = time.perf_counter() - start
    _report(11, "byte-identical artifacts across reruns", same, f"identical={same}", elapsed, 60.0)
    assert same

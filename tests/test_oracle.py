import math

import numpy as np
import pytest

import frontsim.oracle
from frontsim.state import IntervalSet, Profile
from frontsim.oracle import (
    DomainTooSmall,
    FHNBlowUp,
    FHNConfig,
    InterfaceCountMismatch,
    FHNState,
    FHNTrace,
    compare_trajectories,
    eps_sweep,
    extract_interfaces,
    init_fhn,
    run_fhn,
)
from frontsim.weak import run_weak

from conftest import expanding_setup, merge_setup, shrinking_setup


def small_cfg(pstar, eps=0.05, lo=-4.0, hi=4.0, **kw):
    return FHNConfig.for_front_model(pstar, eps, lo, hi, **kw)


def one_step(cfg, u, v):
    """The kernel after one explicit step from (u, v)."""
    kernel = frontsim.oracle._Kernel(cfg, u, v)
    kernel.step()
    return kernel


class TestConfig:
    def test_parameter_map_consistency(self, pstar):
        cfg = small_cfg(pstar)
        assert cfg.a == pytest.approx(pstar.a, abs=1e-15)
        assert cfg.b == pytest.approx(pstar.b, abs=1e-15)

    def test_stability_constraints_enforced(self, pstar):
        with pytest.raises(ValueError):
            small_cfg(pstar, dt=1.0)  # violates dt <= dx^2/2
        eps = 0.05
        with pytest.raises(ValueError):
            FHNConfig.for_front_model(pstar, eps, -4, 4, dx=1.0, dt=0.9 * eps**2)

    @pytest.mark.parametrize("field", ["eps", "dx", "dt", "x_left", "x_right"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, pstar, field, bad):
        # nan fails every comparison, so each bound alone would let it pass
        kw = dict(eps=0.05, x_left=-8.0, x_right=8.0, dx=0.02, dt=1e-4)
        kw[field] = bad
        eps, lo, hi = kw.pop("eps"), kw.pop("x_left"), kw.pop("x_right")
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            FHNConfig.for_front_model(pstar, eps, lo, hi, **kw)

    def test_default_steps_satisfy_both_bounds(self, pstar):
        cfg = small_cfg(pstar, eps=0.02)
        assert cfg.dt <= 0.5 * cfg.dx**2
        assert cfg.dt <= 0.25 * cfg.eps**2


class TestInit:
    def test_indicator_levels(self, pstar):
        cfg = small_cfg(pstar, eps=0.02)
        omega = IntervalSet((-1.0, 1.0))
        state = init_fhn(cfg, omega, Profile.constant(0.3, (-4, 4)))
        assert state.u[np.argmin(np.abs(state.x))] == pytest.approx(1.0, abs=1e-6)
        for endpoint in (-1.0, 1.0):
            i = np.argmin(np.abs(state.x - endpoint))
            assert state.u[i] == pytest.approx(0.5, abs=1e-6)
        assert np.allclose(state.v, 0.3)

    def test_margin_enforced(self, pstar):
        cfg = small_cfg(pstar)
        with pytest.raises(DomainTooSmall):
            init_fhn(cfg, IntervalSet((-3.9, 0.0)), Profile.constant(0.0, (-4, 4)))


class TestStep:
    def test_rest_state_is_fixed(self, pstar):
        cfg = small_cfg(pstar)
        x = cfg.grid
        s2 = one_step(cfg, np.zeros_like(x), np.zeros_like(x))
        assert np.all(s2.u == 0.0) and np.all(s2.v == 0.0)

    def test_excited_plateau_drives_recovery(self, pstar):
        cfg = small_cfg(pstar)
        x = cfg.grid
        s2 = one_step(cfg, np.ones_like(x), np.zeros_like(x))
        # f(1) = 0 and the plateau is flat, so u only feels the -eps*beta*v term
        assert np.allclose(s2.u, 1.0, atol=1e-12)
        assert np.allclose(s2.v, cfg.dt * cfg.g1)

    def test_translation_invariance_of_uniform_states(self, pstar):
        cfg = small_cfg(pstar)
        x = cfg.grid
        s2 = one_step(cfg, np.full_like(x, 0.4), np.full_like(x, 0.1))
        assert np.ptp(s2.u) == 0.0
        assert np.ptp(s2.v) == 0.0

    def test_negative_recovery_raises(self, pstar):
        # u < 0 on v = 0 drives v below zero in one step
        cfg = small_cfg(pstar)
        x = cfg.grid
        with pytest.raises(FHNBlowUp, match="recovery field went negative"):
            one_step(cfg, np.full_like(x, -0.05), np.zeros_like(x))

    def test_u_blow_up_raises(self, pstar):
        cfg = small_cfg(pstar)
        x = cfg.grid
        with pytest.raises(FHNBlowUp, match="u exceeded the blow-up bound"):
            one_step(cfg, np.full_like(x, 11.0), np.zeros_like(x))

    def test_frozen_negative_recovery_is_kept(self, pstar):
        cfg = small_cfg(pstar, freeze_v=True)
        x = cfg.grid
        v = np.full_like(x, -1e-3)
        s2 = one_step(cfg, np.zeros_like(x), v)
        assert np.array_equal(s2.v, v)

    def test_run_is_repeated_steps(self, pstar):
        # run_fhn is n steps of one kernel: same bits, input left alone
        cfg = small_cfg(pstar)
        omega, v0 = IntervalSet((-1.0, 1.0)), Profile.constant(0.2, (-4, 4))
        n = 200
        t_end = n * cfg.dt
        assert math.ceil(t_end / cfg.dt) == n
        trace = run_fhn(cfg, omega, v0, t_end)
        s = init_fhn(cfg, omega, v0)
        u, v = s.u.copy(), s.v.copy()
        kernel = frontsim.oracle._Kernel(cfg, s.u, s.v)
        for _ in range(n):
            kernel.step()
            assert np.array_equal(s.u, u) and np.array_equal(s.v, v)
        assert np.array_equal(trace.final.u, kernel.u)
        assert np.array_equal(trace.final.v, kernel.v)

    @pytest.mark.parametrize("freeze_v", [False, True])
    def test_kernel_matches_plain_reference_step(self, pstar, freeze_v):
        # the step as plain array expressions, each operation in the kernel's
        # order, so every value must agree bit for bit
        cfg = small_cfg(pstar, freeze_v=freeze_v)
        omega = IntervalSet((-2.0, -0.8, 0.6, 2.0))
        v0 = Profile(np.array([-4.0, 0.0, 4.0]), np.array([0.1, 0.3, 0.05]))
        s = init_fhn(cfg, omega, v0)
        r, k = cfg.dt / cfg.dx**2, cfg.dt / cfg.eps**2
        c = 0.5 - cfg.eps * cfg.alpha
        p3, p2, p1, kv = -k, k * (1.0 + c), 1.0 - 2.0 * r - k * c, k * cfg.eps * cfg.beta
        dt_g1, dt_g2 = cfg.dt * cfg.g1, cfg.dt * cfg.g2
        kernel = frontsim.oracle._Kernel(cfg, s.u, s.v)
        u, v = s.u.copy(), s.v.copy()
        for _ in range(200):
            padded = np.concatenate([u[1:2], u, u[-2:-1]])
            u_new = ((u * p3 + p2) * u + p1) * u + (padded[2:] + padded[:-2]) * r - v * kv
            if not freeze_v:
                v = np.maximum(v + (u * dt_g1 - v / (v * cfg.g3 + cfg.g4) * dt_g2), 0.0)
            u = u_new
            kernel.step()
            assert np.array_equal(kernel.u, u) and np.array_equal(kernel.v, v)


class TestExtract:
    def test_single_step_location(self, pstar):
        cfg = small_cfg(pstar)
        x = cfg.grid
        u = 0.5 * (1 + np.tanh((1.0 - x) / 0.1))
        s = FHNState(x=x, u=u, v=np.zeros_like(x), t=0.0)
        pos = extract_interfaces(s)
        assert pos.size == 1
        assert pos[0] == pytest.approx(1.0, abs=cfg.dx)

    def test_empty(self, pstar):
        cfg = small_cfg(pstar)
        x = cfg.grid
        s = FHNState(x=x, u=np.zeros_like(x), v=np.zeros_like(x), t=0.0)
        assert extract_interfaces(s).size == 0

    def test_double_pulse(self, pstar):
        cfg = small_cfg(pstar)
        omega = IntervalSet((-2.0, -1.0, 1.0, 2.0))
        s = init_fhn(cfg, omega, Profile.constant(0.0, (-4, 4)))
        pos = extract_interfaces(s)
        assert pos.size == 4
        assert np.allclose(pos, [-2, -1, 1, 2], atol=2 * cfg.dx)


class TestDynamics:
    def test_frozen_recovery_front_speed(self, pstar):
        # with v pinned at 0 the front must travel at the limiting speed a
        eps = 0.02
        cfg = FHNConfig.for_front_model(pstar, eps, -2.0, 3.0, freeze_v=True)
        omega = IntervalSet((-1.5, 0.0))
        trace = run_fhn(cfg, omega, Profile.constant(0.0, (-4, 4)), 1.0, sample_dt=0.1)
        # track the right-moving front only
        ts, xs = [], []
        for t, pos in zip(trace.times, trace.interfaces):
            if t >= 0.3:
                ts.append(t)
                xs.append(pos[-1])
        speed = np.polyfit(ts, xs, 1)[0]
        assert speed == pytest.approx(pstar.a, rel=0.10)

    def test_fields_stay_bounded(self, pstar):
        cfg = small_cfg(pstar)
        trace = run_fhn(cfg, IntervalSet((-1.0, 1.0)), Profile.constant(0.2, (-4, 4)), 0.5)
        assert np.min(trace.final.v) >= 0.0
        assert np.max(trace.final.u) <= 1.1 and np.min(trace.final.u) >= -0.1

    def test_annihilation_time_trend(self, pstar):
        # a diffuse merge completes near the tracked collision, closer for smaller eps
        from frontsim.weak import run_weak

        omega, v0 = merge_setup(pstar)
        w = run_weak(pstar, omega, v0, 1.5)
        t_track = w.events[0].time
        drops = []
        for eps in (0.05, 0.02):
            cfg = FHNConfig.for_front_model(pstar, eps, -6.0, 6.0)
            trace = run_fhn(cfg, omega, v0, 1.3, sample_dt=0.01)
            t_drop = next(
                t for t, pos in zip(trace.times, trace.interfaces) if t > 0.2 and len(pos) < 4
            )
            drops.append(abs(t_drop - t_track))
        assert drops[1] < drops[0]
        assert drops[1] < math.sqrt(0.02)

    def test_pinned_positions(self, pstar):
        # reference positions from the step computed term by term (f(u) and
        # the Laplacian apart); the Horner form rounds differently, ~1e-14
        cfg = small_cfg(pstar)
        omega = IntervalSet((-2.0, -0.8, 0.6, 2.0))
        v0 = Profile(np.array([-4.0, 0.0, 4.0]), np.array([0.1, 0.3, 0.05]))
        trace = run_fhn(cfg, omega, v0, 0.5, sample_dt=0.2)
        expected = [
            [-2.1110741584476576, -0.7149742120058705, 0.5162018711680526, 2.1213282323144202],
            [-2.212829647242028, -0.6453309490183664, 0.4482930254845229, 2.2348124558771887],
            [-2.2638930555265655, -0.6133274556808825, 0.41736344925741425, 2.292285033975116],
        ]
        assert len(trace.interfaces) == 4
        for pos, want in zip(trace.interfaces[1:], expected):
            assert np.max(np.abs(pos - np.array(want))) <= 1e-10


class TestCompare:
    def test_identical_positions_give_zero(self, pstar, expanding_run):
        times = np.array([0.0, 0.5, 1.0])
        interfaces = [row[~np.isnan(row)] for row in expanding_run.positions(times)]
        final = FHNState(x=np.array([0.0]), u=np.array([0.0]), v=np.array([0.0]), t=1.0)
        trace = FHNTrace(times=times, interfaces=interfaces, final=final, eps=0.01)
        report = compare_trajectories(trace, expanding_run, 1.0)
        assert report.sup_abs == 0.0

    def test_count_mismatch_raises(self, pstar, expanding_run):
        times = np.array([0.5])
        final = FHNState(x=np.array([0.0]), u=np.array([0.0]), v=np.array([0.0]), t=0.5)
        trace = FHNTrace(times=times, interfaces=[np.array([0.0])], final=final, eps=0.01)
        with pytest.raises(InterfaceCountMismatch):
            compare_trajectories(trace, expanding_run, 1.0)

    def test_eps_sweep_errors_shrink(self, pstar, expanding_run):
        omega, v0 = expanding_setup(pstar)
        reports = eps_sweep(pstar, omega, v0, expanding_run, [0.05, 0.02], 0.5)
        assert reports[0].sup_abs > reports[1].sup_abs > 0.0

    def test_expanding_front_drift_at_unit_time(self, pstar, expanding_run):
        # the diffuse front lags by first-order-in-eps drift; the observed
        # constant is ~2.8*eps, frozen here with margin
        omega, v0 = expanding_setup(pstar)
        reports = eps_sweep(pstar, omega, v0, expanding_run, [0.02], 1.0)
        assert reports[0].sup_abs <= 0.07


def _sweep_on_wide_grid(p, omega, profile, weak, eps_list, t_end):
    """eps_sweep on a grid padded by (a + b*max(1, sup v0))*t_end + 1 + 10*eps,
    the wider domain the sweep took before it used the bound W <= a."""
    speed = p.a + p.b * max(1.0, profile.bound)
    reports = []
    for eps in eps_list:
        lo = min(l for l, _ in omega.pairs) - (10.0 * eps + speed * t_end + 1.0)
        hi = max(r for _, r in omega.pairs) + (10.0 * eps + speed * t_end + 1.0)
        cfg = FHNConfig.for_front_model(p, eps, lo, hi)
        reports.append(compare_trajectories(run_fhn(cfg, omega, profile, t_end), weak, t_end))
    return reports


class TestSweepDomain:
    """eps_sweep pads the hull of omega by a*t_end + 1 + 10*eps per side."""

    @pytest.mark.parametrize(
        "setup, run, eps_list, t_end",
        [
            (merge_setup, "merge_run", [0.05, 0.02], 3.0),
            (shrinking_setup, "shrinking_run", [0.05, 0.02], 1.0),
            (expanding_setup, "expanding_run", [0.05, 0.02, 0.01], 1.0),
        ],
    )
    def test_matches_the_wider_domain(self, pstar, request, setup, run, eps_list, t_end):
        # no front comes within the tanh tail of the boundary, so the
        # narrower grid moves no crossing by more than rounding
        omega, v0 = setup(pstar)
        weak = request.getfixturevalue(run)
        got = eps_sweep(pstar, omega, v0, weak, eps_list, t_end)
        want = _sweep_on_wide_grid(pstar, omega, v0, weak, eps_list, t_end)
        for g, w in zip(got, want, strict=True):
            assert g.skipped_times == w.skipped_times
            np.testing.assert_array_equal(g.times, w.times)
            assert np.max(np.abs(g.abs_errors - w.abs_errors), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("setup", [merge_setup, shrinking_setup, expanding_setup])
    def test_grid_spans_the_outward_speed_margin(self, pstar, monkeypatch, setup):
        omega, v0 = setup(pstar)
        weak = run_weak(pstar, omega, v0, 0.3)
        eps_list, t_end = [0.05, 0.02], 0.3
        seen = []
        real_run_fhn = frontsim.oracle.run_fhn

        def spy(*args, **kwargs):
            seen.append(args)
            return real_run_fhn(*args, **kwargs)

        monkeypatch.setattr(frontsim.oracle, "run_fhn", spy)
        eps_sweep(pstar, omega, v0, weak, eps_list, t_end)
        assert len(seen) == len(eps_list)
        lo, hi = omega.pairs[0][0], omega.pairs[-1][1]
        for args, eps in zip(seen, eps_list):
            # positional (cfg, omega, profile, t_end): the benchmark's tracer
            # reads cfg and t_end from args[0] and args[3]
            cfg, t = args[0], args[3]
            assert t == t_end and cfg.eps == eps
            pad = pstar.a * t_end + 1.0 + 10.0 * eps
            assert (cfg.x_left, cfg.x_right) == (lo - pad, hi + pad)
            grid = cfg.grid
            assert grid[0] == lo - pad
            assert abs(grid[-1] - (hi + pad)) <= 1e-12

import functools
import math
import os
import shutil
import tempfile

import numpy as np
import pytest

import frontsim.oracle
from frontsim.kinetics import Parameters
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

from conftest import TAU_STAR, expanding_setup, merge_setup, pulse_setup, shrinking_setup


def small_cfg(pstar, eps=0.05, lo=-4.0, hi=4.0, **kw):
    return FHNConfig(pstar, eps, lo, hi, **kw)


@pytest.fixture
def kernel():
    """The compiled FD kernel.  Its tests skip where no C compiler exists, the
    one case run_fhn steps with numpy alone, and fail where one exists but the
    kernel does not build."""
    k = frontsim.oracle._kernel()
    if k is None:
        cc = frontsim.oracle._compiler()[0]
        if shutil.which(cc) is None:
            pytest.skip(f"no C compiler ({cc})")
        pytest.fail(f"the FD kernel does not build with {cc}")
    return k


@pytest.fixture
def fresh_kernel():
    """_kernel's once-per-process build decision, cleared around the test."""
    frontsim.oracle._kernel.cache_clear()
    yield
    frontsim.oracle._kernel.cache_clear()


def numpy_path(monkeypatch):
    """Make run_fhn step with _stepper, as where the kernel does not build."""
    monkeypatch.setattr(frontsim.oracle, "_kernel", lambda: None)


def stepper_on(path, request, cfg, u, v):
    """(step, u, v): step() takes one step of _stepper or of the compiled kernel."""
    if path == "numpy":
        advance, u, v = frontsim.oracle._stepper(cfg, u, v)
    else:
        advance, u, v = frontsim.oracle._compiled(request.getfixturevalue("kernel"), cfg, u, v)
    return functools.partial(advance, 1), u, v


def assert_same_bits(got, want):
    """Two FD runs agree bit for bit: sample times, interfaces, final fields."""
    assert got.times.tobytes() == want.times.tobytes()
    assert len(got.interfaces) == len(want.interfaces)
    for a, b in zip(got.interfaces, want.interfaces):
        assert a.tobytes() == b.tobytes()
    assert got.final.u.tobytes() == want.final.u.tobytes()
    assert got.final.v.tobytes() == want.final.v.tobytes()
    assert got.final.t == want.final.t


def one_step(cfg, u, v):
    """The state after one explicit step from (u, v)."""
    advance, u, v = frontsim.oracle._stepper(cfg, u, v)
    advance(1)
    return FHNState(x=cfg.grid, u=u, v=v, t=cfg.dt)


class TestConfig:
    def test_parameter_map_consistency(self, pstar):
        cfg = small_cfg(pstar)
        assert math.sqrt(2) * cfg.alpha == pytest.approx(pstar.a, abs=1e-15)
        assert 6 * math.sqrt(2) * cfg.beta == pytest.approx(pstar.b, abs=1e-15)

    def test_stability_constraints_enforced(self, pstar):
        with pytest.raises(ValueError):
            small_cfg(pstar, dt=1.0)  # violates dt <= 3*dx^2/8
        dx = 0.02
        small_cfg(pstar, dx=dx, dt=0.375 * dx**2)
        with pytest.raises(ValueError, match="stability requires dt <= 3"):
            # just above the five-point Laplacian's bound, below eps^2/4
            small_cfg(pstar, dx=dx, dt=0.376 * dx**2)
        eps = 0.05
        with pytest.raises(ValueError):
            FHNConfig(pstar, eps, -4, 4, dx=1.0, dt=0.9 * eps**2)

    @pytest.mark.parametrize("field", ["eps", "dx", "dt", "x_left", "x_right"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, pstar, field, bad):
        # nan fails every comparison, so each bound alone would let it pass
        kw = dict(eps=0.05, x_left=-8.0, x_right=8.0, dx=0.02, dt=1e-4)
        kw[field] = bad
        eps, lo, hi = kw.pop("eps"), kw.pop("x_left"), kw.pop("x_right")
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            FHNConfig(pstar, eps, lo, hi, **kw)

    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(eps=0.0), "eps must be positive"),
            (dict(eps=-0.05, dx=0.02, dt=1e-4), "eps must be positive"),
            (dict(lo=4.0), "empty domain"),
            (dict(lo=5.0), "empty domain"),
            (dict(dx=0.0, dt=1e-4), "dx and dt must be positive"),
            (dict(dx=-0.02, dt=1e-4), "dx and dt must be positive"),
            (dict(dt=0.0), "dx and dt must be positive"),
            (dict(dt=-1e-4), "dx and dt must be positive"),
        ],
    )
    def test_non_positive_values_rejected(self, pstar, kw, match):
        with pytest.raises(ValueError, match=f"^{match}$"):
            small_cfg(pstar, **kw)

    def test_default_steps_satisfy_both_bounds(self, pstar):
        cfg = small_cfg(pstar, eps=0.02)
        assert cfg.dt <= 0.375 * cfg.dx**2
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


def _two_pulses(cfg):
    omega = IntervalSet((-2.0, -0.8, 0.6, 2.0))
    v0 = Profile(np.array([-4.0, 0.0, 4.0]), np.array([0.1, 0.3, 0.05]))
    s = init_fhn(cfg, omega, v0)
    return s.u, s.v


def _pulse_at_rest(cfg):
    # u is exactly 0 in the saturated tanh tails, so v stays exactly 0 there
    s = init_fhn(cfg, IntervalSet((-1.0, 1.0)), Profile.constant(0.0, (-4, 4)))
    return s.u, s.v


def _below_rest(cfg):
    # u < 0 on v = 0 takes v below 0, where the clamp acts
    x = cfg.grid
    return np.full_like(x, -1e-6), np.zeros_like(x)


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
        assert np.allclose(s2.v, cfg.dt * cfg.params.g1)

    def test_translation_invariance_of_uniform_states(self, pstar):
        cfg = small_cfg(pstar)
        x = cfg.grid
        s2 = one_step(cfg, np.full_like(x, 0.4), np.full_like(x, 0.1))
        assert np.ptp(s2.u) == 0.0
        assert np.ptp(s2.v) == 0.0

    def test_negative_recovery_is_clamped(self, pstar):
        # u < 0 on v = 0 drives v below zero in one step; the clamp puts it back
        cfg = small_cfg(pstar)
        x = cfg.grid
        s2 = one_step(cfg, np.full_like(x, -0.05), np.zeros_like(x))
        assert np.all(s2.v == 0.0)

    def test_recovery_at_the_pole_raises(self, pstar):
        # v within 1e-9 of the pole -g4/g3 of g2*v/(g3*v + g4), on its far
        # side: the step carries v further past it, and the next step would
        # divide by g3*v + g4 < 0.  (Exactly on the rounded pole g3*v + g4
        # is 0, and the step sends v to +inf instead.)
        cfg = small_cfg(pstar)
        x = cfg.grid
        pole = -pstar.g4 / pstar.g3
        with pytest.raises(FHNBlowUp, match="pole of g3"):
            one_step(cfg, np.zeros_like(x), np.full_like(x, pole * (1.0 + 1e-9)))

    def test_u_blow_up_raises(self, pstar):
        cfg = small_cfg(pstar)
        x = cfg.grid
        with pytest.raises(FHNBlowUp, match="u exceeded the blow-up bound"):
            one_step(cfg, np.full_like(x, 11.0), np.zeros_like(x))

    def test_run_is_repeated_steps(self, pstar):
        # run_fhn is n calls of one step: same bits, input left alone
        cfg = small_cfg(pstar)
        omega, v0 = IntervalSet((-1.0, 1.0)), Profile.constant(0.2, (-4, 4))
        n = 200
        t_end = n * cfg.dt
        assert math.ceil(t_end / cfg.dt) == n
        trace = run_fhn(cfg, omega, v0, t_end)
        s = init_fhn(cfg, omega, v0)
        u, v = s.u.copy(), s.v.copy()
        advance, u_n, v_n = frontsim.oracle._stepper(cfg, s.u, s.v)
        for _ in range(n):
            advance(1)
            assert np.array_equal(s.u, u) and np.array_equal(s.v, v)
        assert np.array_equal(trace.final.u, u_n)
        assert np.array_equal(trace.final.v, v_n)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["t_end", "sample_dt"])
    def test_run_rejects_times_not_finite_and_positive(self, pstar, name, bad):
        # t_end = -1 returned a trace ending at t = -0.99937; nan and inf
        # died in math.ceil or int() with a message that named neither
        times = {"t_end": 0.1, "sample_dt": 0.02, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            run_fhn(small_cfg(pstar), IntervalSet((-1.0, 1.0)), Profile.constant(0.0, (-4, 4)), times["t_end"],
                    sample_dt=times["sample_dt"])

    @pytest.mark.parametrize("path", ["compiled", "numpy"])
    @pytest.mark.parametrize(
        "start, branch",
        [
            pytest.param(_two_pulses, None, id="False"),
            pytest.param(_pulse_at_rest, "v_min_zero", id="v_min_zero"),
            pytest.param(_below_rest, "clamped", id="clamped"),
        ],
    )
    def test_kernel_matches_plain_reference_step(self, pstar, request, start, branch, path):
        # the step as plain array expressions, each operation in the stepper's
        # order, so every value must agree bit for bit; the reference clamps
        # v every step, the steppers only when min(v) is not > 0
        cfg = small_cfg(pstar)
        u, v = start(cfg)
        r, k = cfg.dt / cfg.dx**2, cfg.dt / cfg.eps**2
        r1, r2 = 16.0 * r / 12.0, r / 12.0
        c = 0.5 - cfg.eps * cfg.alpha
        p3, p2, p1, kv = -k, k * (1.0 + c), 1.0 - 2.5 * r - k * c, k * cfg.eps * cfg.beta
        g1, g2, g3, g4 = cfg.params.g1, cfg.params.g2, cfg.params.g3, cfg.params.g4
        dt_g1, dt_g2 = cfg.dt * g1, cfg.dt * g2
        step, u_n, v_n = stepper_on(path, request, cfg, u, v)
        taken = {"v_min_zero": 0, "clamped": 0}
        for _ in range(200):
            # two ghost cells a side, by even reflection: u[2], u[1] | u | u[-2], u[-3]
            P = np.concatenate([u[2:0:-1], u, u[-2:-4:-1]])
            lap = (P[3:-1] + P[1:-3]) * r1 - (P[4:] + P[:-4]) * r2
            u_new = ((u * p3 + p2) * u + p1) * u + lap - v * kv
            v = v + (u * dt_g1 - v / (v * g3 + g4) * dt_g2)
            taken["v_min_zero"] += np.min(v) == 0.0
            taken["clamped"] += np.min(v) < 0.0
            v = np.maximum(v, 0.0)
            u = u_new
            step()
            assert np.array_equal(u_n, u) and np.array_equal(v_n, v)
        # the datum must keep reaching the branch its case is for
        assert branch is None or taken[branch] > 0


class TestCompiledKernel:
    """run_fhn steps in the compiled kernel, and where it cannot be built in
    _stepper's numpy step: both give the same bits and the same failures."""

    @pytest.mark.parametrize("eps", [0.05, 0.02])
    @pytest.mark.parametrize("setup", [merge_setup, expanding_setup])
    def test_run_matches_numpy_path(self, pstar, kernel, monkeypatch, setup, eps):
        # to t = 1.01, past the merge preset's t = 1 merge, in a step count
        # that is no whole number of sample intervals: the last call is short
        omega, v0 = setup(pstar)
        t_end = 1.01
        cfg = FHNConfig(pstar, eps, *omega.hull(pstar.a * t_end + 1.0 + 10.0 * eps))
        assert math.ceil(t_end / cfg.dt) % round(0.02 / cfg.dt) != 0
        got = run_fhn(cfg, omega, v0, t_end)
        numpy_path(monkeypatch)
        assert_same_bits(got, run_fhn(cfg, omega, v0, t_end))

    def test_sample_dt_below_dt_samples_every_step(self, pstar, kernel, monkeypatch):
        omega, v0 = merge_setup(pstar)
        cfg = FHNConfig(pstar, 0.05, *omega.hull(2.0))
        got = run_fhn(cfg, omega, v0, 0.05, sample_dt=0.5 * cfg.dt)
        assert got.times.size == math.ceil(0.05 / cfg.dt) + 1
        numpy_path(monkeypatch)
        assert_same_bits(got, run_fhn(cfg, omega, v0, 0.05, sample_dt=0.5 * cfg.dt))

    @pytest.mark.parametrize(
        "kind, every, step",
        [
            # test_recovery_at_the_pole_raises' datum: the pole on step 1
            ("pole", 1, 1),
            # u = 3.4 on v = 0 leaves |u| <= 10 on step 3, the first step of
            # the second call when a call takes every = 2 steps
            ("u", 2, 3),
        ],
    )
    def test_blow_up_matches_numpy_path(self, pstar, kernel, monkeypatch, kind, every, step):
        cfg = small_cfg(pstar)
        x = cfg.grid
        if kind == "pole":
            pole = -pstar.g4 / pstar.g3
            u, v, match = np.zeros_like(x), np.full_like(x, pole * (1.0 + 1e-9)), "pole of g3"
        else:
            u, v, match = np.full_like(x, 3.4), np.zeros_like(x), "u exceeded the blow-up bound"
        monkeypatch.setattr(frontsim.oracle, "init_fhn", lambda *args: FHNState(x=x, u=u, v=v, t=0.0))
        messages = []
        for _ in range(2):
            with pytest.raises(FHNBlowUp, match=match) as raised:
                run_fhn(cfg, IntervalSet((-1.0, 1.0)), Profile.constant(0.0, (-4, 4)), 0.1, sample_dt=every * cfg.dt)
            messages.append(str(raised.value))
            numpy_path(monkeypatch)
        assert messages[0] == messages[1]
        # what a rerun needs: the step, its time n*dt and eps
        assert messages[0].count(f"at step {step}, t = {step * cfg.dt:.9g}, eps = 0.05") == 1

    def test_unbuildable_kernel_falls_back_to_numpy(self, pstar, kernel, fresh_kernel, monkeypatch):
        omega, v0 = merge_setup(pstar)
        cfg = FHNConfig(pstar, 0.05, *omega.hull(2.5))
        want = run_fhn(cfg, omega, v0, 1.01)
        monkeypatch.setattr(frontsim.oracle, "_compiler", lambda: ["/nonexistent/frontsim-cc"])
        frontsim.oracle._kernel.cache_clear()
        got = run_fhn(cfg, omega, v0, 1.01)
        assert frontsim.oracle._kernel() is None
        assert_same_bits(got, want)

    def test_read_only_package_builds_in_a_private_directory(self, pstar, kernel, fresh_kernel, monkeypatch):
        # where __pycache__ is not writable and holds no build of this source
        # and command (here a command with one more flag), the kernel is built
        # and loaded in a temporary directory, which is gone once it is loaded
        made = []
        real_mkdtemp, real_compiler = tempfile.mkdtemp, frontsim.oracle._compiler

        def mkdtemp(*args, **kwargs):
            made.append(real_mkdtemp(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
        monkeypatch.setattr(frontsim.oracle.os, "access", lambda *args: False)
        monkeypatch.setattr(frontsim.oracle, "_compiler", lambda: [*real_compiler(), "-g0"])
        omega, v0 = merge_setup(pstar)
        cfg = FHNConfig(pstar, 0.05, *omega.hull(2.5))
        got = run_fhn(cfg, omega, v0, 0.5)
        assert frontsim.oracle._kernel() is not None
        assert len(made) == 1 and not os.path.exists(made[0])
        monkeypatch.undo()
        numpy_path(monkeypatch)
        assert_same_bits(got, run_fhn(cfg, omega, v0, 0.5))


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

    @pytest.mark.parametrize(
        "u, want",
        [
            ([0.4, 0.45, 0.5, 0.45, 0.4], []),  # touches 1/2, does not cross
            ([0.4, 0.45, 0.5, 0.55, 0.6], [0.5]),  # crosses at the sample
            ([0.6, 0.5, 0.5, 0.5, 0.4], [0.5]),  # crosses over a run: its middle
        ],
    )
    def test_samples_exactly_at_half(self, u, want):
        x = np.linspace(0.0, 1.0, 5)
        s = FHNState(x=x, u=np.array(u), v=np.zeros_like(x), t=0.0)
        np.testing.assert_array_equal(extract_interfaces(s), want)

    def test_double_pulse(self, pstar):
        cfg = small_cfg(pstar)
        omega = IntervalSet((-2.0, -1.0, 1.0, 2.0))
        s = init_fhn(cfg, omega, Profile.constant(0.0, (-4, 4)))
        pos = extract_interfaces(s)
        assert pos.size == 4
        assert np.allclose(pos, [-2, -1, 1, 2], atol=2 * cfg.dx)


class TestDynamics:
    def test_frozen_recovery_front_speed(self):
        # with v pinned near 0 the front must travel at the limiting speed a;
        # g1 = g2 = 1e-9 keep v below ~1e-9 over the run
        eps = 0.02
        p = Parameters(g1=1e-9, g2=1e-9, g3=3, g4=1, a=1, b=2)
        cfg = FHNConfig(p, eps, -2.0, 3.0)
        omega = IntervalSet((-1.5, 0.0))
        trace = run_fhn(cfg, omega, Profile.constant(0.0, (-4, 4)), 1.0, sample_dt=0.1)
        # track the right-moving front only
        ts, xs = [], []
        for t, pos in zip(trace.times, trace.interfaces):
            if t >= 0.3:
                ts.append(t)
                xs.append(pos[-1])
        speed = np.polyfit(ts, xs, 1)[0]
        assert np.max(trace.final.v) < 1.1e-9
        assert speed == pytest.approx(p.a, rel=0.10)

    def test_slow_front_does_not_pin(self):
        # a front much slower than a cell per front width must not lock onto
        # the lattice: at W = 0.005 it crosses under a cell of the default
        # grid dx = eps by t = 3, and the fitted speed stays within 5% of W
        # (0.00493; the lattice modulates it by about 2%)
        eps, W = 0.02, 0.005
        p = Parameters(g1=1e-9, g2=1e-9, g3=3, g4=1, a=W, b=2)
        cfg = FHNConfig(p, eps, -2.0, 3.0)
        trace = run_fhn(cfg, IntervalSet((-1.5, 0.0)), Profile.constant(0.0, (-4, 4)), 3.0, sample_dt=0.1)
        late = trace.times >= 0.3
        xs = [pos[-1] for pos, keep in zip(trace.interfaces, late) if keep]
        speed = np.polyfit(trace.times[late], xs, 1)[0]
        assert np.max(trace.final.v) < 1e-8
        assert speed == pytest.approx(W, rel=0.05)

    def test_grid_bias_against_a_fine_grid(self, pstar):
        # the default grid dx = eps against dx = eps/4 on the merge datum,
        # sampled every 0.1 to t = 0.9, before the fronts meet at t = 1; the
        # bound lies between 2.4e-3 (five-point stencil, dx = eps) and
        # 6.8e-3 (three-point, dx = eps/2).  The fine run's dt = cfg.dt/16
        # keeps the samples at the same times
        eps, t_end = 0.05, 0.9
        omega, v0 = merge_setup(pstar)
        lo, hi = omega.hull(pstar.a * t_end + 1.0 + 10.0 * eps)
        cfg = FHNConfig(pstar, eps, lo, hi)
        fine = FHNConfig(pstar, eps, lo, hi, dx=eps / 4, dt=cfg.dt / 16)
        got, want = (run_fhn(c, omega, v0, t_end, sample_dt=0.1) for c in (cfg, fine))
        np.testing.assert_allclose(got.times, want.times, rtol=0.0, atol=1e-12)
        bias = max(np.max(np.abs(a - b)) for a, b in zip(got.interfaces, want.interfaces, strict=True))
        assert bias <= 4e-3

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
            cfg = FHNConfig(pstar, eps, -6.0, 6.0)
            trace = run_fhn(cfg, omega, v0, 1.3, sample_dt=0.01)
            t_drop = next(
                t for t, pos in zip(trace.times, trace.interfaces) if t > 0.2 and len(pos) < 4
            )
            drops.append(abs(t_drop - t_track))
        assert drops[1] < drops[0]
        assert drops[1] < math.sqrt(0.02)

    def test_annihilation_event_times(self, pstar):
        # TestTravelingPulse's head-on collision on [-4, 8]: the tracked
        # fronts merge at exactly t = 2 and the interval vanishes at 2 + tau*.
        # The FD interface count goes 4 -> 2 -> 0 after each, by lags that fall
        # with eps.  Measured, sampled every 1e-3 (8e-4 at eps 0.04):
        # 0.0656, 0.0270, 0.0100 (merge) and 0.0947, 0.0387, 0.0157 (vanish)
        omega, v0 = pulse_setup(pstar, 1601, 4.0)
        lags = []
        for eps in (0.04, 0.02, 0.01):
            trace = run_fhn(FHNConfig(pstar, eps, -4.0, 8.0), omega, v0, 2.0 + TAU_STAR + 0.15, sample_dt=1e-3)
            counts = [len(pos) for pos in trace.interfaces]
            changes = [i for i in range(1, len(counts)) if counts[i] != counts[i - 1]]
            assert [counts[0], *(counts[i] for i in changes)] == [4, 2, 0]
            merge, vanish = trace.times[changes]
            lags.append((merge - 2.0, vanish - (2.0 + TAU_STAR), eps))
        for merge_lag, vanish_lag, eps in lags:
            assert 0.0 < merge_lag <= 1.75 * eps
            assert 0.0 < vanish_lag <= 2.5 * eps
        for coarse, fine in zip(lags, lags[1:]):
            assert fine[0] < coarse[0] and fine[1] < coarse[1]

    def test_pinned_positions(self, pstar):
        # reference positions from the step computed term by term (f(u) and
        # the five-point Laplacian (-1, 16, -30, 16, -1)/(12*dx^2) apart);
        # the Horner form rounds differently, ~1e-14
        cfg = small_cfg(pstar)
        omega = IntervalSet((-2.0, -0.8, 0.6, 2.0))
        v0 = Profile(np.array([-4.0, 0.0, 4.0]), np.array([0.1, 0.3, 0.05]))
        trace = run_fhn(cfg, omega, v0, 0.5, sample_dt=0.2)
        expected = [
            [-2.111519085568126, -0.7149909018955242, 0.5162167197706221, 2.121680090352546],
            [-2.2135419952025117, -0.6448211095224997, 0.44784662647853524, 2.235197458349656],
            [-2.26467194200353, -0.6131197304554766, 0.41715658454806703, 2.292803436428849],
        ]
        assert len(trace.interfaces) == 4
        for pos, want in zip(trace.interfaces[1:], expected):
            assert np.max(np.abs(pos - np.array(want))) <= 1e-10

    def test_profile_reaching_zero_runs(self, pstar):
        # test_pinned_positions' datum with v0 ending at 0, not 0.05: an
        # admissible datum the oracle must run to be a check on it.  u settles
        # slightly below 0 where v > 0 and diffusion carries it into the cell
        # where v = 0, so v_t = g1 u < 0 there; the clamp keeps v at 0
        cfg = small_cfg(pstar)
        omega = IntervalSet((-2.0, -0.8, 0.6, 2.0))
        v0 = Profile(np.array([-4.0, 0.0, 4.0]), np.array([0.1, 0.3, 0.0]))
        trace = run_fhn(cfg, omega, v0, 0.5, sample_dt=0.2)
        assert len(trace.interfaces) == 4


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
        cfg = FHNConfig(p, eps, lo, hi)
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

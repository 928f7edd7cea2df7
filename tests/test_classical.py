import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from frontsim.kinetics import Phase, flow_inside, flow_outside, reaction_rate
from frontsim.state import H2Violation, IntervalSet, Profile
from frontsim.classical import (
    ClassicalSegment,
    DensePath,
    EventKind,
    run_segment,
)
from frontsim.weak import run_weak
from frontsim import classical

from conftest import expanding_setup, merge_setup, shrinking_setup

SHRINK_TA = 0.66862646601575981  # root of: integral of (2*flow_in(1,t) - 1) dt = 1
FLOW_IN_0_05 = 0.43823142335871484


def shrink_ta_oracle(pstar):
    """Independent quadrature + root-find for the vanish time."""
    integr = lambda T: quad(
        lambda t: pstar.b * flow_inside(pstar, 1.0, t) - pstar.a, 0.0, T,
        epsabs=1e-13, epsrel=1e-13,
    )[0]
    return brentq(lambda T: integr(T) - 1.0, 0.5, 1.0, xtol=1e-13)


@pytest.fixture(scope="module")
def expanding_segment(pstar):
    omega, v0 = expanding_setup(pstar)
    seg, ev = run_segment(pstar, omega, v0, 0.0, 2.0)
    assert ev is None
    return seg


@pytest.fixture(scope="module")
def shrinking_segment(pstar):
    omega, v0 = shrinking_setup(pstar)
    return run_segment(pstar, omega, v0, 0.0, 5.0)


@pytest.fixture(scope="module")
def merge_segment(pstar):
    omega, v0 = merge_setup(pstar)
    return run_segment(pstar, omega, v0, 0.0, 3.0)


class TestExpanding:
    def test_constant_speed_lines(self, expanding_segment):
        seg = expanding_segment
        ts = np.linspace(0.0, 2.0, 101)
        x1 = seg.trajectories[0].position(ts)
        x2 = seg.trajectories[1].position(ts)
        assert np.max(np.abs(x1 - (-1.0 - ts))) < 1e-12
        assert np.max(np.abs(x2 - (1.0 + ts))) < 1e-12

    def test_field_ahead_is_quiescent(self, expanding_segment):
        # the interface reaches x=5 only at t=4, so v(5, t) = 0 throughout
        for t in (0.0, 0.7, 1.999):
            assert expanding_segment.evaluate_v(5.0, t) == 0.0

    def test_field_at_center_is_pure_excited_flow(self, expanding_segment, pstar):
        for t in (0.3, 1.0, 2.0):
            assert expanding_segment.evaluate_v(0.0, t) == pytest.approx(
                flow_inside(pstar, 0.0, t), abs=1e-12
            )

    def test_field_behind_front_uses_arrival_time(self, expanding_segment, pstar):
        # x = 2 is reached at t = 1 exactly (unit speed), then excited
        val = expanding_segment.evaluate_v(2.0, 1.5)
        assert val == pytest.approx(FLOW_IN_0_05, abs=1e-10)
        assert val == pytest.approx(flow_inside(pstar, 0.0, 0.5), abs=1e-10)

    def test_arrival_times(self, expanding_segment):
        right = expanding_segment.trajectories[1]
        assert right.arrival_time(3.0) == pytest.approx(2.0, abs=1e-10)
        assert right.arrival_time(0.5) == 0.0  # already passed at start
        assert right.arrival_time(1e6) == math.inf

    def test_arrival_times_batched(self, expanding_segment):
        ys = np.array([-1e6, -3.0, -1.5, -0.5, 0.5, 1.0, 1.7, 2.9, 3.0, 1e6])
        for tr in expanding_segment.trajectories:
            got = tr.arrival_time(ys)
            assert got.shape == ys.shape
            np.testing.assert_array_equal(got, [tr.arrival_time(float(y)) for y in ys])
            # far ahead of the front: never reached; far behind it: passed at start
            ahead, behind = (-1, 0) if tr.sign > 0 else (0, -1)
            assert got[ahead] == math.inf and got[behind] == 0.0

    def test_interface_velocities(self, expanding_segment):
        assert expanding_segment.interface_velocity(2, 0.0) == pytest.approx(1.0)
        assert expanding_segment.interface_velocity(1, 0.0) == pytest.approx(-1.0)

    def test_no_event(self, expanding_segment):
        assert expanding_segment.event is None

    def test_out_of_segment_time(self, expanding_segment):
        with pytest.raises(ValueError):
            expanding_segment.evaluate_v(0.0, 2.5)


class TestShrinking:
    def test_vanish_event_time(self, shrinking_segment, pstar):
        seg, ev = shrinking_segment
        oracle = shrink_ta_oracle(pstar)
        assert oracle == pytest.approx(SHRINK_TA, abs=1e-12)
        assert ev is not None and ev.kind is EventKind.VANISH
        assert ev.time == pytest.approx(SHRINK_TA, abs=1e-8)
        assert ev.position == pytest.approx(0.0, abs=1e-9)
        assert ev.indices == (1, 2)

    def test_interface_velocity_sign(self, shrinking_segment):
        seg, _ = shrinking_segment
        assert seg.interface_velocity(2, 0.0) == pytest.approx(-1.0)

    def test_strict_monotonicity_and_delta_monitor(self, shrinking_segment):
        seg, ev = shrinking_segment
        ts = np.linspace(0.0, ev.time, 200)
        x1 = seg.trajectories[0].position(ts)
        x2 = seg.trajectories[1].position(ts)
        assert np.all(np.diff(x1) > 0)
        assert np.all(np.diff(x2) < 0)
        # speeds only grow away from the stall level here
        assert seg.stats.min_speed >= 1.0 - 1e-9
        assert not seg.stats.degeneracy_events

    def test_field_nonnegative(self, shrinking_segment, rng):
        seg, ev = shrinking_segment
        xs = rng.uniform(-3, 3, size=400)
        ts = rng.uniform(0.0, ev.time, size=400)
        assert np.all(np.asarray(seg.evaluate_v(xs, ts)) >= 0.0)

    def test_never_crossed_points_follow_pure_flow(self, shrinking_segment, pstar):
        seg, ev = shrinking_segment
        # outside points are never crossed while the interval shrinks
        for x in (-1.5, 2.0, 7.0):
            for t in (0.2, 0.5):
                assert seg.evaluate_v(x, t) == pytest.approx(
                    flow_outside(pstar, 1.0, t), abs=1e-12
                )
        # the center is excited until the collision
        for t in (0.2, 0.6):
            assert seg.evaluate_v(0.0, t) == pytest.approx(
                flow_inside(pstar, 1.0, t), abs=1e-12
            )

    def test_field_lipschitz_in_space(self, shrinking_segment, rng):
        # sampled difference quotients stay bounded; here the only spatial
        # variation comes through arrival times, so the constant is O(1)
        seg, ev = shrinking_segment
        xs = rng.uniform(-2.5, 2.5, size=500)
        ys = rng.uniform(-2.5, 2.5, size=500)
        ts = rng.uniform(0.0, ev.time, size=500)
        dv = np.abs(np.asarray(seg.evaluate_v(xs, ts)) - np.asarray(seg.evaluate_v(ys, ts)))
        ratios = dv / np.maximum(np.abs(xs - ys), 1e-9)
        assert float(np.max(ratios)) <= 2.0

    def test_field_satisfies_phase_ode(self, shrinking_segment, pstar):
        seg, ev = shrinking_segment
        h = 1e-6
        for x, phase in ((0.0, Phase.INSIDE), (2.0, Phase.OUTSIDE)):
            t = 0.3
            fd = (seg.evaluate_v(x, t + h) - seg.evaluate_v(x, t - h)) / (2 * h)
            rate = reaction_rate(pstar, phase, seg.evaluate_v(x, t))
            assert fd == pytest.approx(rate, rel=1e-6)


class TestMerge:
    def test_merge_event(self, merge_segment):
        seg, ev = merge_segment
        assert ev.kind is EventKind.MERGE
        assert ev.time == pytest.approx(1.0, abs=1e-6)
        assert ev.position == pytest.approx(0.0, abs=1e-8)
        assert ev.indices == (2, 3)
        assert (ev.components_before, ev.components_after) == (2, 1)

    def test_two_crossings_compose_flows(self, merge_segment, pstar):
        # x in (0, 1) is excited by the left-moving front at exactly t = 1 - x
        seg, ev = merge_segment
        for x, t in ((0.5, 0.9), (0.25, 0.8)):
            expected = flow_inside(pstar, 0.0, t - (1.0 - x))
            assert seg.evaluate_v(x, t) == pytest.approx(expected, abs=1e-10)

    def test_gap_statistics(self, merge_segment):
        seg, ev = merge_segment
        assert seg.stats.min_gap < 1e-3  # the inner gap really closed


class TestFourSignCases:
    def make_profile(self, rising: bool):
        # linear between 0.25 and 0.75 across the interval, so W flips sign
        xs = np.array([-2.0, 2.0])
        vs = np.array([0.25, 0.75]) if rising else np.array([0.75, 0.25])
        return Profile(xs, vs)

    def test_case_both_positive_expands(self, pstar):
        omega, v0 = expanding_setup(pstar)
        seg, _ = run_segment(pstar, omega, v0, 0.0, 0.2)
        assert seg.trajectories[0].sign == -1 and seg.trajectories[1].sign == 1

    def test_case_both_negative_shrinks(self, pstar):
        omega, v0 = shrinking_setup(pstar)
        seg, ev = run_segment(pstar, omega, v0, 0.0, 0.2)
        assert seg.trajectories[0].sign == 1 and seg.trajectories[1].sign == -1

    def test_case_mixed_pulse_moving_left(self, pstar):
        # W > 0 at the left endpoint, W < 0 at the right: both move left
        omega = IntervalSet((-1.0, 1.0))
        seg, _ = run_segment(pstar, omega, self.make_profile(rising=True), 0.0, 0.2)
        assert seg.trajectories[0].sign == -1 and seg.trajectories[1].sign == -1

    def test_case_mixed_pulse_moving_right(self, pstar):
        omega = IntervalSet((-1.0, 1.0))
        seg, _ = run_segment(pstar, omega, self.make_profile(rising=False), 0.0, 0.2)
        assert seg.trajectories[0].sign == 1 and seg.trajectories[1].sign == 1


class TestSolverBehavior:
    def test_validation_runs_first(self, pstar):
        omega = IntervalSet((-1.0, 1.0))
        with pytest.raises(H2Violation):
            run_segment(pstar, omega, Profile.constant(0.5, (-5, 5)), 0.0, 1.0)

    def test_self_convergence_order(self, pstar):
        # quartering the tolerance must shrink trajectory differences by
        # at least 4x per level (observed order two under log2 scaling)
        omega, v0 = shrinking_setup(pstar)
        ts = np.linspace(0.0, 0.6, 25)
        sols = []
        for tol in (1e-5, 1e-5 / 4, 1e-5 / 16):
            seg, _ = run_segment(pstar, omega, v0, 0.0, 0.6, tol_step=tol)
            sols.append(np.column_stack([seg.trajectories[0].position(ts),
                                         seg.trajectories[1].position(ts)]))
        d1 = np.max(np.abs(sols[0] - sols[1]))
        d2 = np.max(np.abs(sols[1] - sols[2]))
        order = math.log2(d1 / d2)
        assert order >= 2.0, f"observed order {order:.2f} from d1={d1:.3e}, d2={d2:.3e}"

    def test_integral_identity_along_trajectory(self, pstar):
        # displacement equals the time integral of the speed law along the path
        from frontsim.weak import WeakSolution, glue, interface_speed_integral

        omega, v0 = shrinking_setup(pstar)
        seg, ev = run_segment(pstar, omega, v0, 0.0, 5.0)
        w = glue(WeakSolution(pstar), seg)
        rng = np.random.default_rng(7)
        for _ in range(8):
            t1, t2 = np.sort(rng.uniform(0.0, ev.time, size=2))
            if t2 - t1 < 1e-3:
                continue
            traj = seg.trajectories[1]
            lhs = traj.position(t2) - traj.position(t1)
            rhs = interface_speed_integral(w, traj.label, t1, t2)
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_empty_interval_set_runs_trivially(self, pstar):
        seg, ev = run_segment(pstar, IntervalSet.empty(), Profile.constant(1.0, (-2, 2)), 0.0, 3.0)
        assert ev is None and seg.finished
        assert seg.evaluate_v(0.0, 3.0) == pytest.approx(flow_outside(pstar, 1.0, 3.0), abs=1e-12)


def _profiles_instances(n):
    """The first n instances of the benchmark's profiles workload: 3
    intervals with gaps of at least 2.5 on a random piecewise-linear v0 with
    40 knots and values in [0, 0.45]."""
    rng = np.random.default_rng([0, 2])
    out = []
    for _ in range(n):
        lengths = rng.uniform(0.5, 2.0, 3)
        gaps = rng.uniform(2.5, 4.0, 2)
        xs = [0.0, lengths[0]]
        for gap, length in zip(gaps, lengths[1:]):
            xs += [xs[-1] + gap, xs[-1] + gap + length]
        knots = np.linspace(xs[0] - 20.0, xs[-1] + 20.0, 40)
        out.append((IntervalSet(tuple(xs)), Profile(knots, rng.uniform(0.0, 0.45, knots.size))))
    return out


class TestQuarticDenseOutput:
    @pytest.fixture()
    def one_step(self, rng):
        path = DensePath(0.2, rng.normal(size=3), rng.normal(size=3))
        path.append(0.7, rng.normal(size=3), rng.normal(size=3), rng.normal(size=3))
        return path

    def test_truncate_last_keeps_the_polynomial(self, one_step):
        ts = np.linspace(0.2, 0.45, 11)
        before = one_step.eval(ts)
        slopes = one_step.deriv(ts)
        one_step.truncate_last(0.45)
        assert one_step.t_end == 0.45
        assert np.max(np.abs(one_step.eval(ts) - before)) <= 1e-14
        assert np.max(np.abs(one_step.deriv(ts) - slopes)) <= 1e-13

    def test_invert_col_inverts_eval(self, pstar):
        # a kinked v0 makes the fronts' speeds vary from step to step
        omega, v0 = _profiles_instances(1)[0]
        seg, _ = run_segment(pstar, omega, v0, 0.0, 1.0)
        path = seg._path
        ts = np.linspace(0.0, 1.0, 201)[1:]
        for traj in seg.trajectories:
            got = path.invert_col(traj.k - 1, traj.position(ts), traj.sign)
            assert np.max(np.abs(got - ts)) <= 1e-13

    def test_invert_col_with_column_arrays_matches_per_column_calls(self, pstar):
        # one call with a column and a sign per query, the queries of each
        # column together: the same values, bit for bit, as one call per
        # column
        rng = np.random.default_rng(7)
        for omega, v0 in _profiles_instances(4):
            seg, _ = run_segment(pstar, omega, v0, 0.0, 1.0)
            path = seg._path
            cols, ys, signs, want = [], [], [], []
            for traj in seg.trajectories:
                # reached inside the path, behind its start, beyond its end
                y = np.concatenate([
                    traj.position(rng.uniform(0.0, 1.0, 40)),
                    traj.position(0.0) - traj.sign * rng.uniform(0.0, 1.0, 3),
                    traj.position(1.0) + traj.sign * rng.uniform(1e-3, 1.0, 3),
                ])
                cols.append(np.full(y.size, traj.k - 1))
                ys.append(y)
                signs.append(np.full(y.size, float(traj.sign)))
                want.append(path.invert_col(traj.k - 1, y, traj.sign))
            got = path.invert_col(np.concatenate(cols), np.concatenate(ys), np.concatenate(signs))
            np.testing.assert_array_equal(got, np.concatenate(want))
            assert np.sum(got == 0.0) == 3 * path.dim and np.sum(np.isinf(got)) == 3 * path.dim
        # a scalar column broadcasts over y and keeps its shape
        y = seg.trajectories[1].position(np.linspace(0.1, 0.9, 6)).reshape(2, 3)
        got = path.invert_col(1, y, seg.trajectories[1].sign)
        assert got.shape == (2, 3)
        np.testing.assert_array_equal(got.ravel(), path.invert_col(np.ones(6, dtype=int), y.ravel(), 1.0))

    def test_each_column_stops_its_own_newton_batch(self, pstar):
        # on this instance a point of column 1 converges an iteration before
        # a point of column 0, and one more Newton step moves its last bit:
        # in a single batch the values would depend on the other columns
        omega, v0 = _profiles_instances(14)[13]
        path = run_segment(pstar, omega, v0, 0.0, 1.0)[0]._path
        cols, ys = np.array([1, 0]), np.array([2.010222362232989, -0.6433431045551269])
        signs = np.array([1.0, -1.0])
        ts, Y, F, D = path.arrays()
        i = np.array([np.searchsorted(s * Y[:, c], s * y) - 1 for c, y, s in zip(cols, ys, signs)])
        args = (ts[i], ts[i + 1] - ts[i], Y[i, cols], F[i, cols], Y[i + 1, cols], F[i + 1, cols], D[i + 1, cols], ys, signs)
        apart = classical._invert_quartic(*args, np.array([0, 1]))
        assert classical._invert_quartic(*args)[0] != apart[0], "the point no longer needs its own batch"
        want = [path.invert_col(c, y, s)[0] for c, y, s in zip(cols, ys, signs)]
        np.testing.assert_array_equal(apart, want)
        np.testing.assert_array_equal(path.invert_col(cols, ys, signs), want)

    def test_scan_event_catches_a_dip_between_samples(self, pstar):
        # a gap quartic that dips below zero between two of the 13 samples
        # (and between the stationary points of its cubic part) and comes back
        h, centre = 0.01, 0.5 + 1.0 / 24.0
        gap = np.polynomial.Polynomial([centre**2, -2.0 * centre, 1.0]) * np.polynomial.Polynomial([1.0, 0.0, 1.0])
        gap = gap - 1e-4
        assert np.all(gap(np.linspace(0.0, 1.0, 13)) > 0.0)
        slope = gap.deriv()
        seg = ClassicalSegment(pstar, IntervalSet((-1.0, 1.0)), Profile.constant(0.0, (-5.0, 5.0)), 0.0, 1.0)
        seg._path = DensePath(0.0, [0.0, gap(0.0)], [0.0, slope(0.0) / h])
        seg._path.append(h, [0.0, gap(1.0)], [0.0, slope(1.0) / h], [0.0, gap.coef[4]])
        assert np.allclose(seg._path.eval(h * np.linspace(0.0, 1.0, 7))[:, 1], gap(np.linspace(0.0, 1.0, 7)))
        first = min(r.real for r in gap.roots() if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0)
        t_hit, pair = seg._scan_event()
        assert pair == 0
        assert t_hit == pytest.approx(first * h, abs=2.0 * seg.tol_event)


    def test_scan_event_skips_gaps_that_cannot_close(self, pstar, monkeypatch):
        # gaps of at least 2.5 that move far less than that per step: no
        # step needs the sampled scan of the gap quartics
        sampled = []
        quartic_at = classical._quartic_at

        def counting(weights, *args):
            sampled.append(weights is classical._SAMPLE_WEIGHTS)
            return quartic_at(weights, *args)

        monkeypatch.setattr(classical, "_quartic_at", counting)
        omega, v0 = _profiles_instances(1)[0]
        seg, event = run_segment(pstar, omega, v0, 0.0, 1.0)
        assert event is None and seg.stats.steps > 10
        assert not any(sampled)


class TestRhsMatchesFold:
    """_rhs passes one time for all fronts, and the fold skips its slots
    where no point was crossed; the values must be the general fold's, bit
    for bit.  The states are mid-run: t is the last accepted time, and the
    points lie ahead of the fronts (nothing swept them) or behind them
    (_arrivals inverts the crossings)."""

    @staticmethod
    def _check(seg, x, swept):
        t = seg.t_end
        assert (seg._arrivals(x) is not None) == swept
        want = seg._parity * (seg.params.a - seg.params.b * seg.evaluate_v(x, np.full(x.shape, t)))
        np.testing.assert_array_equal(seg._rhs(t, x), want)

    @staticmethod
    def _advanced(seg, steps):
        for _ in range(steps):
            seg.advance()
        assert not seg.finished
        return seg

    def test_single_segment(self, pstar):
        omega, v0 = _profiles_instances(1)[0]
        seg = self._advanced(ClassicalSegment(pstar, omega, v0, 0.0, 1.0), 12)
        _, xn, fn = seg._path.last()
        self._check(seg, xn + 1e-3 * fn, swept=False)
        behind = seg.positions(0.5 * seg.t_end)
        self._check(seg, behind, swept=True)
        self._check(seg, np.where(np.arange(xn.size) % 2 == 0, behind, xn + 1e-3 * fn), swept=True)

    def test_segment_after_a_surgery(self, pstar):
        from frontsim.weak import annihilation_surgery

        omega, v0 = merge_setup(pstar)
        first, ev = run_segment(pstar, omega, v0, 0.0, 3.0)
        new_omega, new_profile, _, dead = annihilation_surgery(first, ev)
        labels = tuple(lab for lab in first.labels if lab not in dead)
        # a continued segment starts at the prior's last step size, so one
        # step could reach any nearby end; the fronts meet the profile's
        # outer knots (+-16) at t = 13, and a step ends at such a crossing,
        # so with the end past that one step leaves the segment mid-run
        seg = self._advanced(ClassicalSegment(pstar, new_omega, new_profile, ev.time, 20.0, labels=labels), 1)
        assert seg._chain == (first,)
        _, xn, fn = seg._path.last()
        self._check(seg, xn + 1e-3 * fn, swept=False)
        self._check(seg, seg.positions(0.5 * (ev.time + seg.t_end)), swept=True)
        # crossed in the first segment, and the sliver the collision closed
        for x in ([-3.5, 3.5], [-0.5, 0.5], [0.0, 0.25]):
            self._check(seg, np.array(x), swept=True)


class TestStepperAccuracy:
    def test_error_against_tight_reference(self, pstar):
        # maxima of the Bogacki-Shampine 3(2) stepper this one replaced,
        # on the same cases and samples: 5.4e-8 at tol 1e-6, 3.0e-11 at 1e-8
        shrinking = (*shrinking_setup(pstar), 0.6)
        cases = [shrinking] + [(omega, v0, 1.0) for omega, v0 in _profiles_instances(8)]

        def samples(omega, v0, t_end, tol):
            w = run_weak(pstar, omega, v0, t_end, tol_step=tol)
            return np.concatenate([w.interface_positions(t) for t in np.linspace(0.0, t_end, 41)])

        refs = [samples(*case, 1e-12) for case in cases]
        for tol, bound in ((1e-6, 5.4e-8), (1e-8, 3.0e-11)):
            err = max(np.max(np.abs(samples(*case, tol) - ref)) for case, ref in zip(cases, refs))
            assert err <= bound, f"tol_step={tol:g}: error {err:.2e} > {bound:.1e}"

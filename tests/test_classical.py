import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from frontsim.kinetics import Phase, flow_inside, flow_outside, reaction_rate
from frontsim.state import H2Violation, IntervalSet, Profile, default_margin
from frontsim.classical import (
    ClassicalSegment,
    DegenerateSpeed,
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
        x1, x2 = seg.positions(ts).T
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
        seg = expanding_segment
        arrival = lambda y: seg._path.invert_col(1, y, seg._signs[1])[0]
        assert arrival(3.0) == pytest.approx(2.0, abs=1e-10)
        assert arrival(0.5) == 0.0  # already passed at start
        assert arrival(1e6) == math.inf

    def test_arrival_times_batched(self, expanding_segment):
        ys = np.array([-1e6, -3.0, -1.5, -0.5, 0.5, 1.0, 1.7, 2.9, 3.0, 1e6])
        path = expanding_segment._path
        for col, sign in enumerate(expanding_segment._signs):
            got = path.invert_col(col, ys, sign)
            assert got.shape == ys.shape
            np.testing.assert_array_equal(got, [path.invert_col(col, float(y), sign)[0] for y in ys])
            # far ahead of the front: never reached; far behind it: passed at start
            ahead, behind = (-1, 0) if sign > 0 else (0, -1)
            assert got[ahead] == math.inf and got[behind] == 0.0

    def test_interface_velocities(self, expanding_segment):
        assert expanding_segment._path.deriv(0.0)[1] == pytest.approx(1.0)
        assert expanding_segment._path.deriv(0.0)[0] == pytest.approx(-1.0)

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
        assert ev.time == pytest.approx(SHRINK_TA, abs=1e-12)
        assert ev.position == pytest.approx(0.0, abs=1e-9)
        assert ev.indices == (1, 2)

    def test_interface_velocity_sign(self, shrinking_segment):
        seg, _ = shrinking_segment
        assert seg._path.deriv(0.0)[1] == pytest.approx(-1.0)

    def test_strict_monotonicity_and_delta_monitor(self, shrinking_segment):
        seg, ev = shrinking_segment
        ts = np.linspace(0.0, ev.time, 200)
        x1, x2 = seg.positions(ts).T
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
        assert ev.time == pytest.approx(1.0, abs=1e-12)
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

    @staticmethod
    def signs(seg):
        """The directions of motion the fronts start with."""
        return tuple(np.sign(seg._path.deriv(seg.t_start)).astype(int).tolist())

    def test_case_both_positive_expands(self, pstar):
        omega, v0 = expanding_setup(pstar)
        seg, _ = run_segment(pstar, omega, v0, 0.0, 0.2)
        assert self.signs(seg) == (-1, 1)

    def test_case_both_negative_shrinks(self, pstar):
        omega, v0 = shrinking_setup(pstar)
        seg, ev = run_segment(pstar, omega, v0, 0.0, 0.2)
        assert self.signs(seg) == (1, -1)

    def test_case_mixed_pulse_moving_left(self, pstar):
        # W > 0 at the left endpoint, W < 0 at the right: both move left
        omega = IntervalSet((-1.0, 1.0))
        seg, _ = run_segment(pstar, omega, self.make_profile(rising=True), 0.0, 0.2)
        assert self.signs(seg) == (-1, -1)

    def test_case_mixed_pulse_moving_right(self, pstar):
        omega = IntervalSet((-1.0, 1.0))
        seg, _ = run_segment(pstar, omega, self.make_profile(rising=False), 0.0, 0.2)
        assert self.signs(seg) == (1, 1)


class TestSolverBehavior:
    def test_validation_runs_first(self, pstar):
        omega = IntervalSet((-1.0, 1.0))
        with pytest.raises(H2Violation):
            run_segment(pstar, omega, Profile.constant(0.5, (-5, 5)), 0.0, 1.0)

    def test_one_margin_per_segment(self, pstar):
        # the start check and the degeneracy warning read the segment's one
        # margin: the default is resolved once, and |W| just past it starts
        eta = default_margin(pstar)
        omega = IntervalSet((-1.0, 1.0))

        def start(w):
            v0 = Profile.constant((pstar.a - w) / pstar.b, (-5.0, 5.0))
            return ClassicalSegment(pstar, omega, v0, 0.0, 1.0, margin=None)

        assert start(1.01 * eta).margin == eta
        with pytest.raises(H2Violation):
            start(0.99 * eta)

    @pytest.mark.parametrize(
        "t_end, kw, match",
        [
            (0.0, {}, "segment needs t_end > t_start"),
            (-1.0, {}, "segment needs t_end > t_start"),
            (math.nan, {}, "segment needs t_end > t_start"),
            (1.0, {"tol_step": 0.0}, "tol_step must be positive, got 0.0"),
            (1.0, {"tol_step": math.nan}, "tol_step must be positive, got nan"),
            (1.0, {"labels": (1,)}, "one label per endpoint required"),
            (1.0, {"labels": (1, 2, 3)}, "one label per endpoint required"),
        ],
    )
    def test_rejects_bad_arguments(self, pstar, t_end, kw, match):
        omega, v0 = expanding_setup(pstar)
        with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
            ClassicalSegment(pstar, omega, v0, 0.0, t_end, **kw)

    def test_self_convergence_order(self, pstar):
        # quartering the tolerance must shrink trajectory differences by
        # at least 4x per level (observed order two under log2 scaling)
        omega, v0 = shrinking_setup(pstar)
        ts = np.linspace(0.0, 0.6, 25)
        sols = []
        for tol in (1e-5, 1e-5 / 4, 1e-5 / 16):
            seg, _ = run_segment(pstar, omega, v0, 0.0, 0.6, tol_step=tol)
            sols.append(seg.positions(ts))
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
            lhs = seg.positions(t2)[1] - seg.positions(t1)[1]
            rhs = interface_speed_integral(w, seg.labels[1], t1, t2)
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_min_speed_is_signed(self, pstar):
        # a front stalled at a steep ramp of v0 (0.3 up to x = 0.5, 0.9 from
        # 1e-5 later) overshoots its stall point and turns back at t = 0.936
        # at this tolerance; the step whose end slope points back raises
        # DegenerateSpeed before it enters the path, so the signed record
        # equals the least signed slope of the path's knots (every one after
        # the first is an accepted step's end) and stays positive
        ramp = Profile(np.array([-5.0, 0.5, 0.5 + 1e-5, 5.0]), np.array([0.3, 0.3, 0.9, 0.9]))
        seg = ClassicalSegment(pstar, IntervalSet((-1.0, 0.0)), ramp, 0.0, 1.5, tol_step=1e-4)
        with pytest.raises(DegenerateSpeed) as info:
            for _ in range(60):
                seg.advance()
        m = re.fullmatch(
            r"front 2 stopped or turned back: its end slope along its direction is (\S+) at t=(\S+), h=(\S+)",
            str(info.value),
        )
        assert m is not None, str(info.value)
        slope, t, h = (float(g) for g in m.groups())
        assert slope <= 0.0 and 0.93 < t < 0.94 and t - h == seg.t_end
        F = seg._path.arrays()[2]
        assert seg.stats.min_speed == (seg._signs * F[1:]).min() > 0.0
        # the degeneracy check still compares |f| with the margin
        assert all(speed >= 0.0 for _, speed in seg.stats.degeneracy_events)

    @pytest.mark.parametrize("w, stops", [(2.6e-4, True), (1e-4, False)])
    def test_a_front_that_turns_back_stops_the_run(self, pstar, w, stops):
        # the stall ramps at tol_step 1e-4: w = 2.6e-4 turned back and ran on
        # to t = 1.5 with min_speed -0.347; w = 1e-4 stays monotone.  The
        # error is not an H2Violation, so run_weak passes it on as it is
        ramp = Profile(np.array([-5.0, 0.5, 0.5 + w, 5.0]), np.array([0.3, 0.3, 0.9, 0.9]))
        run = lambda: run_weak(pstar, IntervalSet((-1.0, 0.0)), ramp, 1.5, tol_step=1e-4)
        if stops:
            with pytest.raises(DegenerateSpeed, match="^front 2 stopped or turned back") as info:
                run()
            assert not isinstance(info.value, H2Violation)
        else:
            assert run().segments[-1].stats.min_speed > 0.0

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


def _note_sample_scans(monkeypatch) -> list:
    """Patch classical._quartic to note, per call, whether its theta is the
    sample column, which only _scan_event's sampled search passes."""
    noted = []
    quartic = classical._quartic
    column = classical._SAMPLES[:, None]

    def noting(theta, *args):
        noted.append(np.shape(theta) == column.shape and bool(np.array_equal(theta, column)))
        return quartic(theta, *args)

    monkeypatch.setattr(classical, "_quartic", noting)
    return noted


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

    @pytest.mark.parametrize("t_cut", [0.2, 0.1, 0.7000001, math.nan])
    def test_rejects_knots_outside_the_last_step(self, one_step, t_cut):
        y = np.zeros(3)
        for t in (0.7, 0.5):
            with pytest.raises(ValueError, match="^knot times must increase$"):
                one_step.append(t, y, y, y)
        with pytest.raises(ValueError, match="^t_cut must lie inside the final step$"):
            one_step.truncate_last(t_cut)
        with pytest.raises(ValueError, match="^t_cut must lie inside the final step$"):
            DensePath(0.2, y, y).truncate_last(0.2)
        assert one_step.t_end == 0.7 and len(one_step) == 2

    def test_invert_col_inverts_eval(self, pstar):
        # a kinked v0 makes the fronts' speeds vary from step to step
        omega, v0 = _profiles_instances(1)[0]
        seg, _ = run_segment(pstar, omega, v0, 0.0, 1.0)
        path = seg._path
        ts = np.linspace(0.0, 1.0, 201)[1:]
        pos = seg.positions(ts)
        for col, sign in enumerate(seg._signs):
            got = path.invert_col(col, pos[:, col], sign)
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
            for col, sign in enumerate(seg._signs):
                # reached inside the path, behind its start, beyond its end
                y = np.concatenate([
                    seg.positions(rng.uniform(0.0, 1.0, 40))[:, col],
                    seg.positions(0.0)[col] - sign * rng.uniform(0.0, 1.0, 3),
                    seg.positions(1.0)[col] + sign * rng.uniform(1e-3, 1.0, 3),
                ])
                cols.append(np.full(y.size, col))
                ys.append(y)
                signs.append(np.full(y.size, sign))
                want.append(path.invert_col(col, y, sign))
            got = path.invert_col(np.concatenate(cols), np.concatenate(ys), np.concatenate(signs))
            np.testing.assert_array_equal(got, np.concatenate(want))
            assert np.sum(got == 0.0) == 3 * path.dim and np.sum(np.isinf(got)) == 3 * path.dim
        # a scalar column broadcasts over y and keeps its shape
        y = seg.positions(np.linspace(0.1, 0.9, 6))[:, 1].reshape(2, 3)
        got = path.invert_col(1, y, seg._signs[1])
        assert got.shape == (2, 3)
        np.testing.assert_array_equal(got.ravel(), path.invert_col(np.ones(6, dtype=int), y.ravel(), 1.0))

    def test_each_entry_stops_its_own_newton_iteration(self, pstar):
        # on this instance a point of column 1 converges an iteration before
        # a point of column 0, and one more Newton step moves its last bit:
        # in one call the values must still be those of one-entry calls
        omega, v0 = _profiles_instances(14)[13]
        path = run_segment(pstar, omega, v0, 0.0, 1.0)[0]._path
        cols, ys = np.array([1, 0]), np.array([2.010222362232989, -0.6433431045551269])
        signs = np.array([1.0, -1.0])
        ts, Y, F, D = path.arrays()
        i = np.array([np.searchsorted(s * Y[:, c], s * y) - 1 for c, y, s in zip(cols, ys, signs)])
        args = (ts[i], ts[i + 1] - ts[i], Y[i, cols], F[i, cols], Y[i + 1, cols], F[i + 1, cols], D[i + 1, cols], ys, signs)
        alone = [classical._invert_quartic(*(a[j : j + 1] for a in args))[0] for j in range(2)]
        np.testing.assert_array_equal(classical._invert_quartic(*args), alone)
        np.testing.assert_array_equal(path.invert_col(cols, ys, signs), alone)

    def test_invert_col_queries_in_any_order_match_one_point_calls(self, pstar):
        # columns in random order, so runs of equal columns are short and
        # every call mixes columns: each value must be its one-point call's
        rng = np.random.default_rng(3)
        for omega, v0 in _profiles_instances(24):
            seg, _ = run_segment(pstar, omega, v0, 0.0, 1.0)
            cols = rng.integers(0, seg.n_interfaces, 300)
            ys = seg.positions(rng.uniform(0.0, 1.0, 300))[np.arange(300), cols]
            signs = seg._signs[cols]
            want = [seg._path.invert_col(c, y, s)[0] for c, y, s in zip(cols, ys, signs)]
            np.testing.assert_array_equal(seg._path.invert_col(cols, ys, signs), want)

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
        assert t_hit == pytest.approx(first * h, abs=2.0 * classical.TOL_EVENT)

    def test_scan_event_ties_go_to_the_left_pair(self, pstar):
        # two linear gaps, pair 0 closing at mid-step and pair 2 earlier by
        # `ahead`: within TOL_EVENT of each other the left pair wins, beyond
        # it the earlier closure
        h = 0.01
        seg = ClassicalSegment(pstar, IntervalSet((-3.0, -1.0, 1.0, 3.0)), Profile.constant(0.0, (-16.0, 16.0)), 0.0, 1.0)

        def scan(ahead):
            g = 1.0 - 2.0 * ahead / h  # pair 2's gap falls by 2 over the step
            slope = np.array([0.0, -2.0, -2.0, -4.0]) / h
            seg._path = DensePath(0.0, [0.0, 1.0, 6.0, 6.0 + g], slope)
            seg._path.append(h, [0.0, -1.0, 4.0, 2.0 + g], slope, np.zeros(4))
            return seg._scan_event()

        t_hit, pair = scan(0.5 * classical.TOL_EVENT)
        assert pair == 0 and t_hit == pytest.approx(0.5 * h, abs=1e-16)
        t_hit, pair = scan(2.0 * classical.TOL_EVENT)
        assert pair == 2 and t_hit == pytest.approx(0.5 * h - 2.0 * classical.TOL_EVENT, abs=1e-16)

    def test_scan_event_early_test_never_changes_a_result(self, pstar, rng, monkeypatch):
        # steps whose gaps move by a hundredth of their size up to 5 times it,
        # and linear steps whose gaps end between -0.3 and 1.5 times their
        # start, so that the early test passes, fails near its bound, and
        # gaps close; with the early test disabled the sampled search decides
        # every step alone, and every result must be the same
        seg = ClassicalSegment(pstar, IntervalSet((-3.0, -1.0, 1.0, 3.0)), Profile.constant(0.0, (-16.0, 16.0)), 0.0, 1.0)
        h = 0.01
        paths = []
        for _ in range(400):
            y0 = np.cumsum(rng.uniform(0.1, 1.0, 4))
            scale = 10.0 ** rng.uniform(-2.0, 0.7) * np.diff(y0).min()
            f0, f1 = rng.normal(size=(2, 4)) * scale / h
            path = DensePath(0.0, y0, f0)
            path.append(h, y0 + rng.normal(size=4) * scale, f1, rng.normal(size=4) * scale)
            paths.append(path)
        for _ in range(200):
            y0 = np.cumsum(rng.uniform(0.1, 1.0, 4))
            y1 = y0[0] + np.concatenate([[0.0], np.cumsum(np.diff(y0) * rng.uniform(-0.3, 1.5, 3))])
            path = DensePath(0.0, y0, (y1 - y0) / h)
            path.append(h, y1, (y1 - y0) / h, np.zeros(4))
            paths.append(path)
        sampled = _note_sample_scans(monkeypatch)

        def scan_all():
            out, searched = [], []
            for path in paths:
                seg._path = path
                before = sum(sampled)
                out.append(seg._scan_event())
                searched.append(sum(sampled) > before)
            return out, searched

        got, searched = scan_all()
        # steps that fail the early test and close no gap: the sampled
        # search returns None for them
        assert sum(s and r is None for s, r in zip(searched, got)) > 150
        # a nan bound fails every comparison, so the early test never ends a scan
        monkeypatch.setattr(classical, "_GAP_BOUND", np.full(4, math.nan))
        assert got == scan_all()[0]
        assert sum(r is None for r in got) > 150 and sum(r is not None for r in got) > 150

    def test_scan_event_skips_gaps_that_cannot_close(self, pstar, monkeypatch):
        # gaps of at least 2.5 that move far less than that per step: no
        # step needs the sampled scan of the gap quartics
        sampled = _note_sample_scans(monkeypatch)
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
        new_omega, new_profile, _, labels = annihilation_surgery(first, ev)
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


class TestStageSums:
    """_dopri5_step's weighted sums, one product and one reduction along the
    stage rows each, against the stage-order loop they replaced, bit for
    bit (signed zeros included)."""

    @staticmethod
    def _stage_order(row, dk):
        # dk[0] is +0, so the first stage's term only starts the sum at +0;
        # zero weights are skipped
        total = dk[0]
        for i, w in enumerate(row):
            if w != 0.0 and i > 0:
                total = total + w * dk[i]
        return total

    @pytest.mark.parametrize("n", [1, 2, 6, 16])
    def test_every_row_matches_the_stage_order_loop(self, n):
        rng = np.random.default_rng(n)
        rows = [*classical._DP_A, classical._DP_B, classical._DP_E, classical._DP_D]
        weights = [w for _, w in classical._DP_ROWS] + [classical._DP_B_W, classical._DP_E_W, classical._DP_D_W]
        assert [w.shape[0] for w in weights] == [len(row) for row in rows]
        for _ in range(200):
            dk = rng.standard_normal((7, n)) * 10.0 ** rng.integers(-6, 7, (7, n))
            # signed zeros, and now and then a column of them alone, whose
            # sum's sign then shows
            zeros = rng.random((7, n)) < 0.3
            if rng.random() < 0.25:
                zeros[:, rng.integers(n)] = True
            dk[zeros] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(zeros)))
            dk[0] = 0.0
            for row, w in zip(rows, weights):
                want = self._stage_order(row, dk)
                got = classical._stage_sum(w, dk)
                assert got.shape == (n,) and got.tobytes() == want.tobytes()
            # the D and E sums from one (2, 7, 1) block
            pair = classical._stage_sum(classical._DP_DE_W, dk)
            want = np.stack([self._stage_order(classical._DP_D, dk), self._stage_order(classical._DP_E, dk)])
            assert pair.shape == (2, n) and pair.tobytes() == want.tobytes()
        # zeros signed so that every product after the first stage is -0:
        # the loop's sum is +0, its start, and so must the reduction's be
        for row, w in zip(rows, weights):
            dk = np.zeros((7, n))
            dk[1 : len(row)] = np.copysign(0.0, -np.array(row[1:]))[:, None]
            assert self._stage_order(row, dk).tobytes() == classical._stage_sum(w, dk).tobytes() == bytes(8 * n)
        # the same for each row of the fused pair, the other row beside it
        d_row, e_row = classical._DP_D, classical._DP_E
        for row in (d_row, e_row):
            dk = np.zeros((7, n))
            dk[1:] = np.copysign(0.0, -np.array(row[1:]))[:, None]
            pair = classical._stage_sum(classical._DP_DE_W, dk)
            want = np.stack([self._stage_order(d_row, dk), self._stage_order(e_row, dk)])
            assert pair.tobytes() == want.tobytes()


class TestStepFailure:
    """At h_min the controller gives up with a message that says where it
    stopped and which acceptance test failed."""

    @pytest.mark.parametrize(
        "f, tol, t_range, failed",
        [
            # a jump in the slope at t = 0.5: every step across it fails both
            (lambda t, y: np.array([1.0, 1.0 if t < 0.5 else -1.0]), 1e-8, (0.49, 0.5),
             "embedded error and dense-output bump |d|/16"),
            # a slope singular at t = 1
            (lambda t, y: np.array([1.0, 1.0]) / np.array([1.0, 1.0 - t]), 1e-4, (0.99, 1.0),
             "dense-output bump |d|/16"),
        ],
        ids=["jump", "singular"],
    )
    def test_message_names_the_failing_test(self, f, tol, t_range, failed):
        # y' = f(t, y) on [0, 2] from y = (0, 1), one _dopri5_step after another
        t, y, stats = 0.0, np.array([0.0, 1.0]), classical.SegmentStats()
        fy, h = f(t, y), math.sqrt(tol)
        with np.errstate(divide="ignore"), pytest.raises(classical.StepFailure) as info:
            while t < 2.0:
                t, y, fy, _, h = classical._dopri5_step(f, t, y, fy, min(h, 2.0 - t), tol, 2.0, stats)
        m = re.fullmatch(
            r"cannot satisfy tol_step=(\S+) at t=(\S+): h=(\S+), err=(\S+) > allowed=(\S+), "
            r"largest at interface k=(\d+); failed test: (.+)",
            str(info.value),
        )
        assert m is not None, str(info.value)
        t, h, err, allowed = (float(g) for g in m.group(2, 3, 4, 5))
        assert float(m.group(1)) == tol and t_range[0] < t < t_range[1]
        assert h <= 1.001e-13 * max(1.0, t) and allowed == pytest.approx(tol * h, rel=2e-3)
        assert not err <= allowed
        assert m.group(6) == "2" and m.group(7) == failed

    def test_step_budget_raises(self, pstar, monkeypatch):
        monkeypatch.setattr(classical, "MAX_STEPS", 3)
        omega, v0 = expanding_setup(pstar)
        with pytest.raises(classical.StepFailure, match=r"^step budget 3 exhausted at t=0\.\d+$"):
            run_segment(pstar, omega, v0, 0.0, 2.0)


class TestStepperAccuracy:
    def test_error_against_tight_reference(self, pstar):
        # maxima of the Bogacki-Shampine 3(2) stepper this one replaced,
        # on the same cases and samples: 5.4e-8 at tol 1e-6, 3.0e-11 at 1e-8
        shrinking = (*shrinking_setup(pstar), 0.6)
        cases = [shrinking] + [(omega, v0, 1.0) for omega, v0 in _profiles_instances(8)]

        def samples(omega, v0, t_end, tol):
            pos = run_weak(pstar, omega, v0, t_end, tol_step=tol).positions(np.linspace(0.0, t_end, 41))
            return pos[~np.isnan(pos)]

        refs = [samples(*case, 1e-12) for case in cases]
        for tol, bound in ((1e-6, 5.4e-8), (1e-8, 3.0e-11)):
            err = max(np.max(np.abs(samples(*case, tol) - ref)) for case, ref in zip(cases, refs))
            assert err <= bound, f"tol_step={tol:g}: error {err:.2e} > {bound:.1e}"

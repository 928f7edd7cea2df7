import copy
import dataclasses
import functools
import json
import math
import re
import warnings

import numpy as np
import pytest

from frontsim.kinetics import flow_inside, flow_outside, front_speed
from frontsim.render import spacetime_svg, weak_solution_curves
from frontsim.state import H2Violation, IntervalSet, Profile, default_margin
from frontsim import classical, cli, render, weak
from frontsim.config import RunConfig, preset_config
from frontsim.classical import ClassicalSegment, DegeneracyWarning, EventKind, _ContinuedField, run_segment
from frontsim.weak import (
    SpaceTimePolynomial,
    SurgeryH2Failure,
    WeakSolution,
    annihilation_surgery,
    check_no_nucleation,
    events_as_json,
    glue,
    ill_posedness_demo,
    run_weak,
    tensor_test_functions,
    weak_residual,
    _cells,
    _pieces,
)

from conftest import merge_setup, shrinking_setup

SHRINK_TA = 0.66862646601575981


def ramp_merge_setup(p):
    """The merge intervals on a v0 that is 0 under them and rises to 0.45
    (W = 0.1) just outside, so the fronts that survive the t = 1 merge stand
    where |W| is below a margin of 0.5."""
    knots = np.array([-8.0, -3.5, -3.0, 3.0, 3.5, 8.0])
    return IntervalSet((-3.0, -1.0, 1.0, 3.0)), Profile(knots, np.array([0.45, 0.45, 0.0, 0.0, 0.45, 0.45]))


class TestSurgery:
    def test_merge_joins_intervals(self, pstar):
        omega, v0 = merge_setup(pstar)
        seg, ev = run_segment(pstar, omega, v0, 0.0, 3.0)
        new_omega, new_profile, _, _ = annihilation_surgery(seg, ev)
        assert new_omega.m == 1
        l, r = new_omega.pairs[0]
        assert l == pytest.approx(-4.0, abs=1e-8)
        assert r == pytest.approx(4.0, abs=1e-8)
        # the field at the collision point had no time to grow
        assert new_profile.eval(0.0) == pytest.approx(0.0, abs=1e-8)

    def test_vanish_removes_interval(self, pstar):
        omega, v0 = shrinking_setup(pstar)
        seg, ev = run_segment(pstar, omega, v0, 0.0, 5.0)
        new_omega, new_profile, _, _ = annihilation_surgery(seg, ev)
        assert new_omega.m == 0
        # v at the collision point equals the excited flow up to the event
        assert new_profile.eval(0.0) == pytest.approx(
            flow_inside(pstar, 1.0, ev.time), abs=1e-8
        )

    def test_component_count_drops_by_one(self, pstar):
        for setup in (merge_setup, shrinking_setup):
            omega, v0 = setup(pstar)
            seg, ev = run_segment(pstar, omega, v0, 0.0, 5.0)
            new_omega, _, _, _ = annihilation_surgery(seg, ev)
            assert new_omega.m == ev.components_before - 1

    def test_continued_field_is_exact(self, pstar, rng):
        for setup in (merge_setup, shrinking_setup):
            omega, v0 = setup(pstar)
            seg, ev = run_segment(pstar, omega, v0, 0.0, 5.0)
            _, new_profile, _, _ = annihilation_surgery(seg, ev)
            xs = rng.uniform(-6.0, 6.0, size=200)
            exact = np.maximum(seg.evaluate_v(xs, ev.time), 0.0)
            assert np.max(np.abs(new_profile.eval(xs) - exact)) <= 1e-14
            old_knots = seg.profile_start.xs.size
            assert new_profile.xs.size <= old_knots + 2 * seg.n_interfaces + 1

    def test_continued_segment_starts_at_the_last_step_size(self, pstar, monkeypatch):
        omega, v0 = merge_setup(pstar)
        first, ev = run_segment(pstar, omega, v0, 0.0, 3.0)
        new_omega, new_profile, _, labels = annihilation_surgery(first, ev)
        trials = []
        step = classical._dopri5_step
        monkeypatch.setattr(
            classical, "_dopri5_step", lambda f, tn, y, fy, h, *a: trials.append(h) or step(f, tn, y, fy, h, *a)
        )
        # the end lies past the fronts' crossing of the outer knots (t = 13),
        # far enough that no cap shortens the first trial step
        seg = ClassicalSegment(pstar, new_omega, new_profile, ev.time, 20.0, labels=labels)
        assert first._h > 1.0 and seg._h == first._h
        seg.advance()
        assert trials == [first._h]
        # a fresh start: the first segment, and the same data as a plain Profile
        assert ClassicalSegment(pstar, omega, v0, 0.0, 3.0)._h == math.sqrt(1e-8)
        plain = Profile(new_profile.xs, np.maximum(new_profile.eval(new_profile.xs), 0.0))
        assert ClassicalSegment(pstar, new_omega, plain, ev.time, 20.0, labels=labels)._h == math.sqrt(1e-8)

    def test_continuation_starts_where_its_segment_ends(self, pstar):
        # read at any other time, the field at the segment's end would be
        # taken for the field at the continuation's start
        omega, v0 = shrinking_setup(pstar)
        seg, ev = run_segment(pstar, omega, v0, 0.0, 5.0)
        new_omega, new_profile, _, labels = annihilation_surgery(seg, ev)
        for t_start in (ev.time + 0.5, ev.time - 0.1):
            with pytest.raises(ValueError, match="continuation"):
                ClassicalSegment(pstar, new_omega, new_profile, t_start, 5.0, labels=labels)
        assert ClassicalSegment(pstar, new_omega, new_profile, ev.time, 5.0, labels=labels)._chain == (seg,)

    def test_a_front_that_turns_back_is_an_invariant_violation(self, pstar):
        # the fold gives each front one row for its whole life, which holds
        # only while every front keeps its first direction; the first
        # segment's rows are flipped here to stand for a front that turned
        omega, v0 = merge_setup(pstar)
        first, ev = run_segment(pstar, omega, v0, 0.0, 3.0)
        new_omega, new_profile, _, labels = annihilation_surgery(first, ev)
        first._sign = np.where(np.arange(first._sign.shape[0])[:, None] == 3, -first._sign, first._sign)
        with pytest.raises(RuntimeError, match=re.escape(f"invariant violated: front 4 turned back by t={ev.time!r}")):
            ClassicalSegment(pstar, new_omega, new_profile, ev.time, 3.0, labels=labels)

    def test_degenerate_survivors_raise_surgery_failure(self, pstar):
        omega, v0 = ramp_merge_setup(pstar)
        with pytest.warns(DegeneracyWarning), pytest.raises(SurgeryH2Failure) as err:
            run_weak(pstar, omega, v0, 3.0, margin=0.5)
        assert [c.k for c in err.value.__cause__.offenders] == [1, 2]
        t_a = float(str(err.value).split("t=")[1].split(" ")[0])
        assert t_a == pytest.approx(1.0, abs=1e-6)


class TestGlue:
    def test_identity_embedding(self, pstar):
        omega, v0 = shrinking_setup(pstar)
        seg, _ = run_segment(pstar, omega, v0, 0.0, 0.5)
        w = glue(WeakSolution(pstar), seg)
        assert len(w.segments) == 1 and w.t_end == 0.5

    def test_appends_only_a_continuation_of_the_last_segment(self, pstar):
        omega, v0 = merge_setup(pstar)
        first, ev = run_segment(pstar, omega, v0, 0.0, 3.0)
        new_omega, new_profile, _, labels = annihilation_surgery(first, ev)
        w = WeakSolution(pstar)
        after = ClassicalSegment(pstar, new_omega, new_profile, ev.time, 3.0, labels=labels)
        with pytest.raises(ValueError):
            glue(w, after)  # a continuation cannot start a solution
        assert glue(w, first) is w and glue(w, after) is w and w.segments == [first, after]
        # a second continuation of first does not continue the last segment
        again = ClassicalSegment(pstar, new_omega, new_profile, ev.time, 3.0, labels=labels)
        # the same data as a plain Profile is a fresh start
        plain = Profile(new_profile.xs, np.maximum(new_profile.eval(new_profile.xs), 0.0))
        fresh = ClassicalSegment(pstar, new_omega, plain, ev.time, 3.0, labels=labels)
        for seg in (again, fresh):
            with pytest.raises(ValueError):
                glue(w, seg)
        assert w.segments == [first, after]


class TestRunWeak:
    def test_merge_scenario(self, merge_run):
        assert len(merge_run.events) == 1
        ev = merge_run.events[0]
        assert ev.kind is EventKind.MERGE
        assert ev.time == pytest.approx(1.0, abs=1e-6)
        alive = ~np.isnan(merge_run.positions([0.5, 2.0, 3.0]))
        assert alive.sum(axis=1).tolist() == [4, 2, 2]  # 2 components, then 1
        assert merge_run.positions(3.0)[alive[2]] == pytest.approx([-6.0, 6.0], abs=1e-8)

    def test_shrinking_scenario_then_relaxation(self, shrinking_run, pstar):
        assert len(shrinking_run.events) == 1
        ev = shrinking_run.events[0]
        assert ev.kind is EventKind.VANISH
        assert ev.time == pytest.approx(SHRINK_TA, abs=1e-6)
        assert np.all(np.isnan(shrinking_run.positions(1.0)))  # no component left
        # after extinction the field relaxes by the quiescent flow alone
        expected = flow_outside(
            pstar, flow_inside(pstar, 1.0, ev.time), 2.0 - ev.time
        )
        assert shrinking_run.evaluate_v(0.0, 2.0) == pytest.approx(expected, abs=1e-8)

    def test_more_events_than_interfaces_raises(self, pstar, monkeypatch):
        # a surgery that removes no front: the pair that met stays, in
        # order, where it met, meets again a step later, and the fifth event
        # exceeds 2m = 4
        surgery = weak.annihilation_surgery

        def no_removal(seg, ev):
            _, field, extras, _ = surgery(seg, ev)
            return IntervalSet(tuple(np.sort(seg.positions(ev.time)))), field, extras, seg.labels

        monkeypatch.setattr(weak, "annihilation_surgery", no_removal)
        with pytest.raises(RuntimeError, match="^more annihilations than interfaces; invariant violated$"):
            run_weak(pstar, *merge_setup(pstar), 3.0)

    def test_expanding_scenario_no_events(self, expanding_run):
        assert expanding_run.events == []
        assert len(expanding_run.segments) == 1

    def test_field_continuity_across_event(self, merge_run):
        ev = merge_run.events[0]
        xs = np.linspace(-4.5, 4.5, 701)
        before = np.asarray(merge_run.segments[0].evaluate_v(xs, ev.time))
        after = np.asarray(merge_run.segments[1].evaluate_v(xs, ev.time))
        assert np.max(np.abs(before - after)) <= 1e-8

    def test_field_across_event_matches_composition(self, merge_run, pstar):
        # x in (0,1) was excited at t = 1-x by the pre-merge front; the value
        # at t > 1 must continue that flow through the junction
        for x in (0.3, 0.8):
            expected = flow_inside(pstar, 0.0, 1.5 - (1.0 - x))
            assert merge_run.evaluate_v(x, 1.5) == pytest.approx(expected, abs=1e-8)

    def test_field_nonnegative_across_events(self, shrinking_run, merge_run, rng):
        for w in (shrinking_run, merge_run):
            xs = rng.uniform(-6.0, 6.0, size=600)
            ts = rng.uniform(0.0, w.t_end, size=600)
            assert np.min(np.asarray(w.evaluate_v(xs, ts))) >= 0.0

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("t_end", [0.4, 0.5, 0.6])
    def test_end_time_rule(self, pstar, k, t_end):
        # k unit intervals 1 apart on v0 = 0: every front runs at W(0) = 1,
        # so all k - 1 gaps close at 0.5.  A closure at t_end is not an event
        # of the run; one before t_end is, with a segment after it.
        omega = IntervalSet(tuple(float(x) for x in range(2 * k)))
        w = run_weak(pstar, omega, Profile.constant(0.0, (-10.0, 2.0 * k + 10.0)), t_end)
        alive = np.count_nonzero(~np.isnan(w.positions(t_end)))
        if t_end <= 0.5:
            assert w.events == [] and len(w.segments) == 1 and alive == 2 * k
        else:
            assert len(w.events) == k - 1 and len(w.segments) == 2 and alive == 2
            assert all(abs(ev.time - 0.5) <= 1e-12 for ev in w.events)
            # equal closures are recorded left to right: (2, 3), (4, 5), ...
            assert [ev.labels for ev in w.events] == [(j, j + 1) for j in range(2, 2 * k - 1, 2)]
        assert w.t_end == t_end
        assert check_no_nucleation(w)

    def test_equal_closures_recorded_left_to_right(self, pstar):
        # k intervals of one length with one gap between them on v0 = 0: all
        # k - 1 gaps close at gap/2, the leftmost pair is the primary event
        # and the others follow it at the same time, left to right
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(3, 6))
            length, gap, offset = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(-5.0, 5.0)
            xs = (offset + np.arange(k)[:, None] * (length + gap) + [0.0, length]).ravel()
            v0 = Profile.constant(0.0, (xs[0] - 10.0, xs[-1] + 10.0))
            w = run_weak(pstar, IntervalSet(tuple(xs)), v0, 0.5 * gap + rng.uniform(0.05, 0.5))
            assert [ev.labels for ev in w.events] == [(j, j + 1) for j in range(2, 2 * k - 1, 2)]
            assert all(ev.time == w.events[0].time for ev in w.events)
            assert abs(w.events[0].time - 0.5 * gap) <= 1e-12
            assert len(w.segments) == 2 and check_no_nucleation(w)

    def test_events_json_schema(self, merge_run):
        payload = json.loads(events_as_json(merge_run))
        assert len(payload) == 1
        rec = payload[0]
        assert rec["kind"] == "merge"
        assert rec["components_before"] == 2 and rec["components_after"] == 1
        assert {"time", "position", "indices", "labels"} <= set(rec)


def _all_merge(pstar, m):
    """m random intervals on v0 = 0 that all merge by t = 3: lengths and gaps
    U(0.5, 2), drawn with seed m."""
    rng = np.random.default_rng(m)
    lengths = rng.uniform(0.5, 2.0, m)
    gaps = rng.uniform(0.5, 2.0, m - 1)
    xs = [0.0, lengths[0]]
    for gap, length in zip(gaps, lengths[1:]):
        xs.extend([xs[-1] + gap, xs[-1] + gap + length])
    v0 = Profile.constant(0.0, (xs[0] - 20.0, xs[-1] + 20.0))
    return xs, gaps, v0, run_weak(pstar, IntervalSet(tuple(xs)), v0, 3.0)


@pytest.fixture(scope="module")
def cascade16(pstar):
    """16 random intervals on v0 = 0 that all merge by t = 3."""
    return _all_merge(pstar, 16)


class TestPositionTable:
    """WeakSolution.positions: one column per label, nan where not alive."""

    @pytest.mark.parametrize("run", ["merge_run", "shrinking_run"])
    def test_rows_follow_the_owning_segment(self, run, request):
        w = request.getfixturevalue(run)
        labels = w.segments[0].labels
        ts = np.concatenate([np.linspace(w.t_start, w.t_end, 37), [ev.time for ev in w.events]])
        table = w.positions(ts)
        assert table.shape == (ts.size, len(labels))
        for t, row in zip(ts, table):
            seg = w.segments[int(w.segment_index(t))]
            alive = [labels.index(lab) for lab in seg.labels]
            dead = [j for j in range(len(labels)) if j not in alive]
            np.testing.assert_array_equal(row[alive], seg.positions(t))
            assert np.all(np.isnan(row[dead]))
            np.testing.assert_array_equal(w.positions(float(t)), row)

    @pytest.mark.parametrize("run", ["merge_run", "shrinking_run"])
    def test_event_time_belongs_to_the_next_segment(self, run, request):
        w = request.getfixturevalue(run)
        ev = w.events[0]
        row = w.positions(ev.time)
        assert np.count_nonzero(np.isnan(row)) == 2
        np.testing.assert_array_equal(row[~np.isnan(row)], w.segments[1].positions(ev.time))

    def test_empty_solution_raises(self, pstar):
        empty = WeakSolution(pstar)
        with pytest.raises(ValueError, match="^empty weak solution$"):
            empty.segment_index(0.0)
        with pytest.raises(ValueError, match="^empty weak solution$"):
            empty.evaluate_v(0.0, 0.0)

    def test_past_the_end_raises(self, merge_run):
        with pytest.raises(ValueError):
            merge_run.positions([1.0, merge_run.t_end + 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_raise(self, shrinking_run, bad):
        # nan fails every comparison, so a check by comparisons alone let it
        # through: evaluate_v(0, nan) read v0 and positions(nan) a nan row
        with pytest.raises(ValueError, match="time outside"):
            shrinking_run.evaluate_v(0.0, bad)
        with pytest.raises(ValueError, match="time outside"):
            shrinking_run.positions(bad)
        with pytest.raises(ValueError, match="time outside"):
            shrinking_run.positions([0.1, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_positions_raise(self, shrinking_run, bad):
        # the quiescent flow maps nan to the rest state, so evaluate_v(nan, t)
        # read 0 outside the excited set
        with pytest.raises(ValueError, match="position must be finite"):
            shrinking_run.evaluate_v(bad, 0.3)
        with pytest.raises(ValueError, match="position must be finite"):
            shrinking_run.evaluate_v([0.0, bad], [0.3, 0.3])


class TestGeneratedCascade:
    def test_random_intervals_all_merge(self, pstar, cascade16):
        for m, (xs, gaps, v0, w) in ((16, cascade16), (64, _all_merge(pstar, 64))):
            # on v0 = 0 every front runs at W(0) = 1, so each gap closes at gap/2
            by_labels = {ev.labels: ev for ev in w.events}
            assert len(by_labels) == m - 1
            for j, gap in enumerate(gaps):
                ev = by_labels[(2 * j + 2, 2 * j + 3)]
                assert ev.time == pytest.approx(gap / 2, abs=1e-12)
                assert ev.position == pytest.approx(0.5 * (xs[2 * j + 1] + xs[2 * j + 2]), abs=1e-8)
            final = w.positions(3.0)
            assert final[~np.isnan(final)] == pytest.approx([xs[0] - 3.0, xs[-1] + 3.0], abs=1e-8)
            assert check_no_nucleation(w)
            assert max(seg.profile_start.xs.size for seg in w.segments) < 4 * 2 * m + v0.xs.size
            # the last segment's fold has one row per front of the first
            # segment (one column per segment and front made 272 at m = 16
            # and 4,160 at m = 64), with a reach per segment; every earlier
            # segment reads a prefix of that table, not a copy of its own
            last = w.segments[-1]
            assert last._sign.shape == (2 * m, 1)
            assert last._reach.shape == (m, 2 * m)
            for i, seg in enumerate(w.segments[:-1]):
                assert seg._reach.shape == (i + 1, 2 * m)
                assert np.shares_memory(seg._reach, last._reach)

    def test_segments_after_an_annihilation_start_warm(self, cascade16):
        # the error estimate is 0 at speed a, so only the step size's climb
        # costs steps: 82 when every segment restarted at sqrt(tol_step), 25
        # with the warm start; the exact reference above holds on this run
        _, _, _, w = cascade16
        assert sum(seg.stats.steps for seg in w.segments) <= 30
        assert sum(seg.stats.rejected for seg in w.segments) == 0

    def test_curves_match_a_tuple_built_reference(self, cascade16):
        _, _, _, w = cascade16
        want_curves: dict[int, list] = {}
        want_polygons = []
        for seg in w.segments:
            ts, pos = seg._path.arrays()[:2]  # the segment's accepted step ends
            for j, label in enumerate(seg.labels):
                want_curves.setdefault(label, []).extend(zip(pos[:, j], ts))
            for comp in range(seg.n_interfaces // 2):
                loop = list(zip(pos[:, 2 * comp], ts)) + list(zip(pos[::-1, 2 * comp + 1], ts[::-1]))
                want_polygons.append((np.asarray(loop), len(ts)))
        curves, polygons = weak_solution_curves(w)
        assert [label for label, _ in curves] == sorted(want_curves)
        for label, pts in curves:
            assert pts.shape == (len(want_curves[label]), 2)
            np.testing.assert_array_equal(pts, np.asarray(want_curves[label]))
        assert len(polygons) == len(want_polygons) == sum(seg.n_interfaces // 2 for seg in w.segments)
        for got, (want, knots) in zip(polygons, want_polygons):
            assert got.shape == (2 * knots, 2)
            np.testing.assert_array_equal(got, want)

    def test_svg_points_match_a_per_pair_reference(self, cascade16):
        # spacetime_svg formats each shape with one % operation; the
        # reference formats every pair of every shape on its own
        xs, _, _, w = cascade16
        curves, polygons = weak_solution_curves(w)
        x_range, t_range = (xs[0] - 4.0, xs[-1] + 4.0), (0.0, 3.0)
        svg = spacetime_svg(curves, polygons, x_range=x_range, t_range=t_range)
        m = render._Mapper(*x_range, *t_range)
        shapes = [*polygons, *(pts for _, pts in curves)]
        want = [" ".join("%.2f,%.2f" % (px, py) for px, py in m.pixels(xt).tolist()) for xt in shapes]
        assert re.findall(r'points="([^"]*)"', svg) == want


def _admissible_draw(rng, params, m):
    """m random disjoint intervals on a random piecewise-linear v0.

    The 40 knots lie 0.3 to 0.7 apart and the endpoints sit on knots 8 to
    31, with v0 at least 0.025 away from v* = a/b there (|W| >= 0.05).  The
    other knots take any value in [0, 1], so fronts run into rising and
    falling v and slow down as often as they speed up, and an interval whose
    ends lie on both sides of v* travels over points a neighbour swept.
    """
    knots = np.cumsum(rng.uniform(0.3, 0.7, 40))
    ends = np.sort(rng.choice(np.arange(8, 32), 2 * m, replace=False))
    vals = rng.uniform(0.0, 1.0, knots.size)
    off = 0.05 / params.b
    low = rng.uniform(size=ends.size) < 0.5
    vals[ends] = np.where(
        low,
        rng.uniform(0.0, params.v_star - off, ends.size),
        rng.uniform(params.v_star + off, 1.0, ends.size),
    )
    return IntervalSet(tuple(knots[ends])), Profile(knots, vals)


@pytest.fixture(scope="module")
def draw12(pstar):
    """An admissible 3-interval datum with three annihilations before t = 2,
    run to t = 2 at tol_step 1e-5, 1e-6 and 1e-8."""
    omega, v0 = _admissible_draw(np.random.default_rng(12), pstar, 3)
    return omega, v0, {tol: run_weak(pstar, omega, v0, 2.0, tol_step=tol) for tol in (1e-5, 1e-6, 1e-8)}


def _restarted(w: WeakSolution, t_end: float, tol_step: float) -> WeakSolution:
    """Continue the run w from its end state (Omega(t_s), v(., t_s)) to t_end,
    through later annihilations as run_weak does."""
    seg = w.segments[-1]
    t, labels, pos = seg.t_end, seg.labels, seg.positions(seg.t_end)
    omega, prof = IntervalSet(tuple(pos)), _ContinuedField(seg, seg._kinks)
    segments, events = list(w.segments), list(w.events)
    while True:
        seg, ev = run_segment(w.params, omega, prof, t, t_end, tol_step=tol_step, labels=labels)
        segments.append(seg)
        if ev is None:
            return WeakSolution(w.params, segments, events)
        omega, prof, extras, labels = annihilation_surgery(seg, ev)
        events += [ev, *extras]
        t = ev.time


class TestRestart:
    """Semigroup property: stopping at t_s and restarting from the state there
    gives the solution of the run that was not stopped."""

    @staticmethod
    def _assert_same(full: WeakSolution, rest: WeakSolution, t_s: float, tol_step: float) -> None:
        assert [ev.labels for ev in rest.events] == [ev.labels for ev in full.events]
        times = np.array([ev.time for ev in full.events])
        assert np.all(np.abs(np.array([ev.time for ev in rest.events]) - times) <= 1e-2 * tol_step)
        # near an event one run may still hold a pair that the other removed
        ts = np.linspace(t_s, full.t_end, 41)
        ts = ts[np.all(np.abs(ts[:, None] - times) > 1e-6, axis=1)]
        want, got = full.positions(ts), rest.positions(ts)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-2 * tol_step)

    @pytest.mark.parametrize("seed", [8, 9])
    def test_cascade(self, pstar, seed):
        rng = np.random.default_rng(seed)
        lengths, gaps = rng.uniform(0.5, 2.0, 8), rng.uniform(0.5, 2.0, 7)
        xs = [0.0, lengths[0]]
        for gap, length in zip(gaps, lengths[1:]):
            xs.extend([xs[-1] + gap, xs[-1] + gap + length])
        omega, v0 = IntervalSet(tuple(xs)), Profile.constant(0.0, (xs[0] - 20.0, xs[-1] + 20.0))
        full = run_weak(pstar, omega, v0, 3.0)
        assert len(full.events) == 7
        for t_s in rng.uniform(0.05, 2.5, 6):
            self._assert_same(full, _restarted(run_weak(pstar, omega, v0, t_s), 3.0, 1e-8), t_s, 1e-8)

    @pytest.mark.parametrize("tol_step", [1e-6, 1e-8])
    def test_admissible_draw(self, draw12, tol_step):
        omega, v0, runs = draw12
        full = runs[tol_step]
        for t_s in np.random.default_rng(5).uniform(0.1, 1.9, 2):
            stopped = run_weak(full.params, omega, v0, t_s, tol_step=tol_step)
            self._assert_same(full, _restarted(stopped, 2.0, tol_step), t_s, tol_step)

    def test_earlier_segments_read_the_same_after_later_ones_are_built(self, pstar):
        # a continuation points its chain's segments at prefixes of its own
        # reach table, so their reads keep every bit; a second continuation
        # from the same state builds a table of its own
        xs, gaps, v0, _ = _all_merge(pstar, 8)
        stopped = run_weak(pstar, IntervalSet(tuple(xs)), v0, float(np.median(gaps)) / 2)
        assert len(stopped.events) >= 2
        X = np.linspace(xs[0] - 4.0, xs[-1] + 4.0, 101)[None, :]
        grids = [np.linspace(stopped.t_start, seg.t_end, 9)[:, None] for seg in stopped.segments]
        before = [seg.evaluate_v(X, T) for seg, T in zip(stopped.segments, grids)]
        first = _restarted(stopped, 3.0, 1e-8)
        T_all = np.linspace(0.0, 3.0, 13)[:, None]
        first_v, first_table = first.evaluate_v(X, T_all), first.segments[-1]._reach.copy()
        second = _restarted(stopped, 3.0, 1e-8)
        assert not np.shares_memory(first.segments[-1]._reach, second.segments[-1]._reach)
        np.testing.assert_array_equal(first.segments[-1]._reach, first_table)
        assert np.array_equal(first.evaluate_v(X, T_all), first_v)
        for seg, T, want in zip(stopped.segments, grids, before):
            assert np.shares_memory(seg._reach, second.segments[-1]._reach)
            got = seg.evaluate_v(X, T)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestKinkRule:
    """The field's kinks are the first profile's knots, the first endpoints
    and the position of every event so far; where a surviving front stands
    at a surgery is none of them, as its speed is continuous there."""

    @pytest.mark.parametrize("run", ["cascade16", "draw12"])
    def test_segment_kinks_and_residual_cuts(self, run, request, monkeypatch):
        data = request.getfixturevalue(run)
        runs = [data[3]] if run == "cascade16" else list(data[2].values())
        cuts = []
        breakpoints = weak._time_breakpoints
        monkeypatch.setattr(weak, "_time_breakpoints", lambda w, *a: cuts.append(a[-1]) or breakpoints(w, *a))
        for w in runs:
            assert len(w.events) >= 3
            first = w.segments[0]
            for seg in w.segments:
                before = [ev.position for ev in w.events if ev.time <= seg.t_start]
                want = np.unique(np.concatenate([first.profile_start.xs, first.omega_start.endpoints, before]))
                np.testing.assert_array_equal(seg._kinks, want)
            ends = first.omega_start.endpoints
            window = (ends[0], ends[-1], 0.5, 1.5)
            one = SpaceTimePolynomial([[1.0]], window)
            cuts.clear()
            weak_residual(w, window, one, one)
            assert len(cuts) == 1
            np.testing.assert_array_equal(cuts[0], w.segments[-1]._kinks)


class TestGeneratedAdmissible:
    @staticmethod
    def _assert_monotone(w: WeakSolution) -> None:
        # the fold reads a front's crossings off its one row as if it never
        # turned back: each segment moves every front in its direction
        for seg in w.segments:
            Y = seg._path.arrays()[1]
            assert np.all(seg._signs * np.diff(Y, axis=0) >= 0.0)
            assert np.all(seg._signs * seg._path.deriv(np.linspace(seg.t_start, seg.t_end, 400)) >= 0.0)

    def test_reaches_t_end_or_stops_classified(self, pstar):
        # any admissible datum either runs to t_end or stops on a classified
        # degeneracy; the step controller itself never gives up
        rng = np.random.default_rng(6)
        finished = slowed = 0
        for _ in range(10):
            omega, v0 = _admissible_draw(rng, pstar, m=int(rng.integers(1, 5)))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DegeneracyWarning)
                    w = run_weak(pstar, omega, v0, 1.5, tol_step=1e-6)
            except (H2Violation, DegeneracyWarning):
                continue
            assert w.t_end == 1.5
            assert check_no_nucleation(w)
            self._assert_monotone(w)
            finished += 1
            for seg in w.segments:
                ts = np.linspace(seg.t_start, seg.t_end, 40)
                speeds = np.abs(seg._path.deriv(ts))
                slowed += bool(np.any(np.diff(speeds, axis=0) < 0.0))
                # every knot lies in the fronts' reach at its own time
                t_knots, x_knots = seg._path.arrays()[:2]
                lo, hi = omega.hull(pstar.a * t_knots[:, None])
                rounding = 1e-12 * (1.0 + np.abs(x_knots))
                assert np.all((x_knots >= lo - rounding) & (x_knots <= hi + rounding))
        assert finished >= 5 and slowed >= 5

    def test_weak_identities_hold_across_events(self, pstar):
        # the paper's definition of a weak solution on generated data: the
        # first 10 draws with an event, windows straddling each event, and
        # random pairs of degree-3 test functions
        rng = np.random.default_rng(9)
        kinds, found = set(), 0
        while found < 10:
            omega, v0 = _admissible_draw(rng, pstar, 3)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DegeneracyWarning)
                    w = run_weak(pstar, omega, v0, 1.0, tol_step=1e-8)
            except (H2Violation, DegeneracyWarning):
                continue
            self._assert_monotone(w)
            if not w.events:
                continue
            found += 1
            for ev in w.events:
                kinds.add(ev.kind)
                x1, x2 = ev.position - rng.uniform(0.5, 2.0), ev.position + rng.uniform(0.5, 2.0)
                t1, t2 = max(0.0, ev.time - rng.uniform(0.1, 0.5)), min(1.0, ev.time + rng.uniform(0.1, 0.5))
                basis = tensor_test_functions((x1, x2, t1, t2), 3)
                for _ in range(3):
                    phi, psi = basis[rng.integers(16)], basis[rng.integers(16)]
                    assert max(weak_residual(w, (x1, x2, t1, t2), phi, psi)) <= 1e-8
        assert kinds == {EventKind.MERGE, EventKind.VANISH}


class TestPictureFidelity:
    """The space-time picture draws each front as a polyline through its
    segment's step ends; it must show the quartic dense output."""

    @staticmethod
    def _assert_faithful(cfg: RunConfig, w: WeakSolution) -> None:
        # the pixels of the picture the CLI draws of this run
        xs = cli._field_grid(cfg)
        m = render._Mapper(xs[0], xs[-1], 0.0, cfg.t_end)
        curves, _ = weak_solution_curves(w)
        for label, pts in curves:
            start = 0
            for seg in w.segments:
                if label not in seg.labels:
                    continue
                block = pts[start:start + len(seg._path)]
                start += len(seg._path)
                ts = np.linspace(seg.t_start, seg.t_end, 160)
                drawn = np.column_stack([np.interp(ts, block[:, 1], block[:, 0]), ts])
                exact = np.column_stack([seg.positions(ts)[:, seg.labels.index(label)], ts])
                # 0.024 px at most on this data
                assert np.abs(m.pixels(drawn) - m.pixels(exact)).max() <= 0.05
            assert start == len(pts)
        last = {label: pts[-1, 1] for label, pts in curves}
        for ev in w.events:
            for label in ev.labels:
                assert last[label] == ev.time

    @pytest.mark.parametrize("name", ["shrinking", "merge"])
    def test_presets(self, name):
        cfg = preset_config(name)
        w = run_weak(
            cfg.params, cfg.omega, cfg.profile, cfg.t_end,
            tol_step=cfg.tol_step, margin=cfg.eta,
        )
        assert len(w.events) == 1
        self._assert_faithful(cfg, w)

    def test_cascade(self, pstar, cascade16):
        xs, _, v0, w = cascade16
        self._assert_faithful(RunConfig(pstar, IntervalSet(tuple(xs)), v0, 3.0), w)

    @pytest.mark.parametrize("seed", range(10))
    def test_admissible_draw(self, pstar, seed):
        omega, v0 = _admissible_draw(np.random.default_rng(seed), pstar, 2)
        self._assert_faithful(RunConfig(pstar, omega, v0, 2.0), run_weak(pstar, omega, v0, 2.0))


@functools.lru_cache(maxsize=1024)
def _arrival_times(seg, x: float) -> np.ndarray:
    """The time each interface of seg reaches x, from one invert_col call
    over its columns (each entry that of a one-column call)."""
    return seg._path.invert_col(np.arange(seg.n_interfaces), np.full(seg.n_interfaces, x), seg._signs)


def _crossings(seg, x: float, end: float) -> list[float]:
    """Times in (seg.t_start, end] at which an interface of seg crosses x."""
    ta = _arrival_times(seg, float(x))
    return sorted(ta[(seg.t_start < ta) & (ta <= end)].tolist())


def _composed_v(w: WeakSolution, x: float, t: float) -> float:
    """v(x, t) by scalar flows composed segment by segment: each segment
    starts from its own omega_start phase and flips at every crossing."""
    v = float(w.segments[0].profile_start.eval(x))
    for seg in w.segments:
        if seg.t_start > t:
            break
        end = min(seg.t_end, t)
        ends = np.asarray(seg.omega_start.endpoints)
        on = np.flatnonzero(ends == x)
        if on.size:
            # on an endpoint: inside when its interval grows over the point
            inside = seg._signs[on[0]] == (-1) ** (on[0] + 1)
        else:
            inside = np.count_nonzero(ends < x) % 2 == 1
        prev = seg.t_start
        for ta in [*_crossings(seg, x, end), end]:
            v = (flow_inside if inside else flow_outside)(w.params, v, ta - prev)
            prev, inside = ta, not inside
    return v


class TestFlatFold:
    """The field of a multi-segment run is one fold over the whole history."""

    def test_matches_segment_by_segment_composition(self, pstar):
        rng = np.random.default_rng(12)
        omega, v0 = _admissible_draw(rng, pstar, m=3)
        w = run_weak(pstar, omega, v0, 1.5)
        assert {ev.kind for ev in w.events} == {EventKind.MERGE, EventKind.VANISH}
        probes = []
        for seg in w.segments[:-1]:
            ev = seg.event
            pos = seg.positions(ev.time)
            i, j = ev.indices
            # the annihilation sliver between the colliding fronts, ends included
            for x in np.linspace(pos[i - 1], pos[j - 1], 5):
                probes += [(x, ev.time), (x, 0.5 * (ev.time + w.t_end)), (x, w.t_end)]
            probes.append((ev.position, ev.time))
        for t in rng.uniform(0.0, w.t_end, 8):
            row = w.positions(t)
            probes += [(x, t) for x in row[~np.isnan(row)]]
        lo, hi = omega.endpoints[0] - 3.0, omega.endpoints[-1] + 3.0
        # points some front crossed in one segment and another front in a later one
        twice = [
            x for x in np.linspace(lo, hi, 61)
            if sum(bool(_crossings(seg, x, seg.t_end)) for seg in w.segments) >= 2
        ]
        assert twice
        probes += [(x, t) for x in twice for t in (w.segments[-1].t_start, w.t_end)]
        probes += zip(rng.uniform(lo, hi, 60), rng.uniform(0.0, w.t_end, 60))
        xs, ts = np.asarray(probes).T
        got = np.asarray(w.evaluate_v(xs, ts))
        want = np.asarray([_composed_v(w, x, t) for x, t in probes])
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("profile", ["rest", "random"])
    def test_equal_closures_toggle_between_the_collided_fronts(self, pstar, profile):
        # k intervals of one length with one gap between them: on v0 = 0 all
        # gaps close at once and the surgery collapses the extra pairs; a
        # random v0 spreads the closures.  The fold toggles the points
        # between each collided pair at the segment start after it; read
        # there, one ulp outside and at the meeting point, at the event
        # time, after it and at t_end
        rng = np.random.default_rng(31 if profile == "rest" else 32)
        for _ in range(6):
            k = int(rng.integers(3, 7))
            length, gap, offset = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(-5.0, 5.0)
            xs = (offset + np.arange(k)[:, None] * (length + gap) + [0.0, length]).ravel()
            span = (xs[0] - 10.0, xs[-1] + 10.0)
            if profile == "rest":
                v0 = Profile.constant(0.0, span)
            else:
                knots = np.linspace(*span, 4 * k + 10)
                v0 = Profile(knots, rng.uniform(0.0, 0.3, knots.size))
            w = run_weak(pstar, IntervalSet(tuple(xs)), v0, 1.5 * gap + rng.uniform(0.05, 0.5))
            assert len(w.events) == k - 1
            for ev in w.events:
                seg = next(s for s in w.segments if s.t_end == ev.time)
                a, b = seg.positions(ev.time)[[seg.labels.index(lab) for lab in ev.labels]]
                pts = [*np.linspace(a, b, 5), np.nextafter(min(a, b), -math.inf), np.nextafter(max(a, b), math.inf)]
                for t in (ev.time, 0.5 * (ev.time + w.t_end), w.t_end):
                    got = np.asarray(w.evaluate_v(np.asarray([ev.position, *pts]), np.full(len(pts) + 1, t)))
                    want = [_composed_v(w, x, t) for x in [ev.position, *pts]]
                    assert np.max(np.abs(got - want)) <= 1e-12
                    if profile == "rest" and t > ev.time and ev.kind == EventKind.MERGE:
                        # the meeting point joined the excited set at the merge
                        assert got[0] > 0.0

    def test_long_history_matches_composition(self, pstar):
        # 32 intervals on a random v0 in [0, 0.3] (|W| >= 0.4), so every gap
        # closes by t = 2.5: 31 annihilations, each recording an interval
        # whose points flip phase at its segment start.  Read at each meeting
        # point, at the removed fronts' end positions and 1 ulp either side,
        # at the event time, after it and at t_end, and on grid points far
        # from every event
        rng = np.random.default_rng(33)
        lengths, gaps = rng.uniform(0.5, 2.0, 32), rng.uniform(0.5, 2.0, 31)
        xs = np.cumsum(np.ravel(np.column_stack([np.append(0.0, gaps), lengths])))
        knots = np.linspace(xs[0] - 6.0, xs[-1] + 6.0, 106)
        w = run_weak(pstar, IntervalSet(tuple(xs)), Profile(knots, rng.uniform(0.0, 0.3, knots.size)), 3.0)
        assert len(w.events) == 31
        probes = []
        for seg in w.segments[:-1]:
            ev = seg.event
            ends = seg.positions(ev.time)[[seg.labels.index(lab) for lab in ev.labels]]
            pts = [ev.position, *ends, *np.nextafter(ends, -math.inf), *np.nextafter(ends, math.inf)]
            probes += [(x, t) for x in pts for t in (ev.time, 0.5 * (ev.time + w.t_end), w.t_end)]
        meets = np.array([ev.position for ev in w.events])
        grid = np.linspace(knots[0], knots[-1], 121)
        far = grid[np.min(np.abs(grid[:, None] - meets), axis=1) > 0.1]
        assert far.size >= 90
        probes += [(x, t) for x in far for t in (0.5, 1.5, w.t_end)]
        xq, tq = np.asarray(probes).T
        got = np.asarray(w.evaluate_v(xq, tq))
        want = np.asarray([_composed_v(w, x, t) for x, t in probes])
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_flow_calls_do_not_grow_with_segments(self, cascade16, monkeypatch):
        # one evaluation late in the cascade costs as many kernel calls as one
        # in its first segment, however many annihilations came between
        _, _, v0, w = cascade16
        calls = []
        for name in ("flow_inside", "flow_outside"):
            kernel = getattr(classical, name)
            monkeypatch.setattr(
                classical, name, lambda *a, _k=kernel: calls.append(1) or _k(*a)
            )
        xs = np.linspace(v0.xs[0] + 16.0, v0.xs[-1] - 16.0, 400)
        counts = []
        for seg in (w.segments[0], w.segments[-1]):
            calls.clear()
            seg.evaluate_v(xs, seg.t_end)
            counts.append(len(calls))
        assert len(w.segments) == 16
        assert counts[0] > 0 and counts[1] == counts[0]


class TestEvaluationCounts:
    """Each field value at a segment start, and each batch read of a
    finished solution, comes from one evaluation."""

    def test_one_field_read_per_surgery(self, pstar, cascade16, monkeypatch):
        # the next segment's validation; the segment takes its initial slopes
        # from its validation report, and the surgery evaluates nothing
        xs, _, v0, _ = cascade16
        calls = {"evaluate_v": 0, "surgery": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(ClassicalSegment, "evaluate_v", counted("evaluate_v", ClassicalSegment.evaluate_v))
        monkeypatch.setattr(weak, "annihilation_surgery", counted("surgery", weak.annihilation_surgery))
        w = run_weak(pstar, IntervalSet(tuple(xs)), v0, 3.0)
        assert len(w.events) == calls["surgery"] == 15
        assert calls["evaluate_v"] == calls["surgery"]

    def test_speed_integral_is_one_fold(self, cascade16, monkeypatch):
        # label 1 lives in all 16 segments; the segment-by-segment sum of the
        # same quadrature, each segment reading its own fold, is the reference
        _, _, _, w = cascade16
        want = 0.0
        for seg in w.segments:
            knots = seg._path.arrays()[0]
            cuts = np.unique(np.concatenate([[seg.t_start, seg.t_end], knots]))
            half = 0.5 * np.diff(cuts)[:, None]
            ts = ((0.5 * (cuts[:-1] + cuts[1:]))[:, None] + half * weak._NODES[1::2]).ravel()
            speeds = front_speed(w.params, seg.evaluate_v(seg._path.eval(ts)[:, 0], ts))
            want += float(np.sum(half[:, 0] * np.sum(weak._GAUSS[1::2] * speeds.reshape(half.size, -1), axis=1)))
        calls = []
        fold = ClassicalSegment._v_field
        monkeypatch.setattr(
            ClassicalSegment, "_v_field", lambda self, *a: calls.append(self) or fold(self, *a)
        )
        assert all(seg.labels[0] == 1 for seg in w.segments)
        assert weak.interface_speed_integral(w, 1, 0.0, w.t_end) == want
        assert calls == [w.segments[-1]]

    def test_one_fold_per_batch(self, cascade16, monkeypatch):
        _, _, v0, w = cascade16
        calls = []
        fold = ClassicalSegment._v_field
        monkeypatch.setattr(
            ClassicalSegment, "_v_field", lambda self, *a: calls.append(self) or fold(self, *a)
        )
        # a time inside every segment, plus each event time
        ts = [0.5 * (seg.t_start + seg.t_end) for seg in w.segments] + [ev.time for ev in w.events]
        X, T = np.meshgrid(np.linspace(v0.xs[0], v0.xs[-1], 101), ts)
        assert np.unique(w.segment_index(T)).size == len(w.segments) == 16
        w.evaluate_v(X, T)
        assert calls == [w.segments[-1]]


def _flow_every_batch(self, v, inside, dt):
    """ClassicalSegment._flow without the rest-state skip: every moving
    entry goes through its phase's flow."""
    if isinstance(dt, float):
        if not dt > 0.0:
            return
        m_in, m_out, dt_in, dt_out = inside, ~inside, dt, dt
    else:
        moving = dt > 0.0
        m_in, m_out = inside & moving, ~inside & moving
        dt_in, dt_out = dt[m_in], dt[m_out]
    for mask, flow, t in ((m_in, classical.flow_inside, dt_in), (m_out, classical.flow_outside, dt_out)):
        if np.count_nonzero(mask):
            v[mask] = flow(self.params, v[mask], t)


class TestBatchedFieldRead:
    """A field read inverts each segment path's crossings in one invert_col
    call and leaves points at the rest state v = 0 out of the quiescent
    flow; both keep every value bit for bit."""

    def test_invert_col_on_a_chained_segment(self, cascade16):
        # the fold lists a path's pairs front by front, with each front's
        # column on that path and its sign from its row
        rng = np.random.default_rng(3)
        _, _, _, w = cascade16
        seg = w.segments[-1]
        assert len(seg._chain) == 15 and len(seg._reach) == 16
        for s in (*seg._chain, seg):
            # a front's column on a path is its rank among the path's rows,
            # which ascend, as survivors keep their order
            assert np.all(np.diff(s._rows) > 0)
            path, cols = s._path, np.full(seg._sign.shape[0], -1)
            cols[s._rows] = np.arange(s.n_interfaces)
            fronts = np.flatnonzero(cols >= 0)
            assert fronts.size == path.dim
            rows, ys, want = [], [], []
            for f in fronts:
                sign = seg._sign[f, 0]
                x = path.eval(rng.uniform(path.t_start, path.t_end, 20))[:, cols[f]]
                y = np.concatenate([x, [x.min() - 1.0, x.max() + 1.0]])
                rows.append(np.full(y.size, f))
                ys.append(y)
                want.append(path.invert_col(cols[f], y, sign))
            row = np.concatenate(rows)
            got = path.invert_col(cols[row], np.concatenate(ys), seg._sign[row, 0])
            np.testing.assert_array_equal(got, np.concatenate(want))

    @pytest.mark.parametrize("run", ["cascade16", "merge_run"])
    def test_arrivals_match_a_per_column_reference(self, run, request, monkeypatch):
        w = request.getfixturevalue(run)
        w = w[3] if run == "cascade16" else w
        xs = np.linspace(w.segments[0].profile_start.xs[0], w.segments[0].profile_start.xs[-1], 801)
        row_of = {lab: f for f, lab in enumerate(w.segments[0].labels)}
        calls = []
        invert = classical.DensePath.invert_col
        monkeypatch.setattr(
            classical.DensePath,
            "invert_col",
            lambda path, c, y, s: calls.append((id(path), np.size(y))) or invert(path, c, y, s),
        )
        for seg in w.segments[1:]:
            calls.clear()
            got = seg._arrivals(xs)
            # at most one call per segment path
            assert len({path for path, _ in calls}) == len(calls) <= len(seg._chain) + 1
            # the reference reads each segment's own columns: column j swept
            # the points from its start position to its end position, and a
            # crossing at or before the segment's start is dropped
            want = np.full((len(row_of), xs.size), math.inf)
            inverted = np.zeros(want.shape, dtype=bool)
            for s in (*seg._chain, seg):
                ends = s._path.arrays()[1][-1]
                for j, (lab, x0, sign) in enumerate(zip(s.labels, s.omega_start.endpoints, s._signs)):
                    swept = (sign * xs > sign * x0) & (sign * xs <= sign * ends[j])
                    f = row_of[lab]
                    # one inversion per swept (front, point) pair
                    assert not (inverted[f] & swept).any()
                    inverted[f] |= swept
                    t = invert(s._path, j, xs[swept], sign)
                    want[f, swept] = np.where(t <= s.t_start, math.inf, t)
            np.testing.assert_array_equal(got, want)
            # and the fold inverts each swept pair once
            assert sum(n for _, n in calls) == np.count_nonzero(inverted)
            assert got.shape[0] == 2 * w.segments[0].omega_start.m
            assert np.isfinite(got).any()

    def test_a_crossing_that_rounds_onto_its_segment_start_is_dropped(self, pstar):
        # a gap of 2 closes at t = 1, and the surviving right front then
        # starts at -0.1: it crosses the point one ulp ahead of it within an
        # ulp of t = 1, which rounds onto the segment's start
        w = run_weak(pstar, IntervalSet((-7.0, -3.2, -1.2, -1.1)), Profile.constant(0.0, (-20.0, 10.0)), 2.0)
        seg = w.segments[1]
        x = np.nextafter(seg.omega_start.endpoints[1], math.inf)
        assert seg._path.invert_col(1, x, 1.0)[0] == seg.t_start
        assert np.isinf(seg._arrivals(np.array([x]))).all()

    @pytest.mark.parametrize("run", ["cascade16", "shrinking_run"])
    def test_rest_state_skips_the_quiescent_flow(self, run, request, monkeypatch):
        # on v0 = 0 nothing outside the excited set ever leaves the rest
        # state, so no read calls flow_outside; on v0 = 1 the read still does
        w = request.getfixturevalue(run)
        w = w[3] if run == "cascade16" else w
        prof = w.segments[0].profile_start
        X, T = np.meshgrid(np.linspace(prof.xs[0], prof.xs[-1], 201), np.linspace(0.0, w.t_end, 13))
        calls = []
        outside = classical.flow_outside
        monkeypatch.setattr(classical, "flow_outside", lambda *a: calls.append(1) or outside(*a))
        got = w.evaluate_v(X, T)
        skipped = len(calls)
        calls.clear()
        monkeypatch.setattr(ClassicalSegment, "_flow", _flow_every_batch)
        want = w.evaluate_v(X, T)
        assert len(calls) > 0
        assert skipped == (0 if run == "cascade16" else len(calls))
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestOuterGridRead:
    """evaluate_v runs its x-only work once per point of x and its flows on
    the broadcast shape: an outer grid reads, bit for bit, what the
    flattened meshgrid reads, and inverts each crossing once per x."""

    @staticmethod
    def _grid(run, request):
        """The segment that reads, and the x and t axes: every kink, first
        endpoint and event position, and every segment start, event time,
        0 and t_end, among evenly spaced points."""
        if run == "merge_post":
            w = request.getfixturevalue("merge_run")
            assert len(w.segments) == 2
        else:
            data = request.getfixturevalue(run)
            w = data[3] if run == "cascade16" else data[2][1e-8]
        seg = w.segments[-1]
        assert seg._chain and len(w.events) >= 1
        events = [ev.position for ev in w.events]
        ends = w.segments[0].omega_start.endpoints
        xs = np.unique(np.concatenate([seg._kinks, ends, events, np.linspace(ends[0] - 3.0, ends[-1] + 3.0, 41)]))
        starts = [s.t_start for s in w.segments]
        ts = np.unique(np.concatenate([[0.0, seg.t_end], starts, [ev.time for ev in w.events], np.linspace(0.0, seg.t_end, 7)]))
        return seg, xs, ts

    @pytest.mark.parametrize("run", ["cascade16", "draw12", "merge_post"])
    def test_outer_grid_is_the_flattened_meshgrid(self, run, request, monkeypatch):
        seg, xs, ts = self._grid(run, request)
        points = []
        invert = classical.DensePath.invert_col
        monkeypatch.setattr(
            classical.DensePath, "invert_col", lambda path, c, y, s: points.append(np.size(y)) or invert(path, c, y, s)
        )
        X, T = np.meshgrid(xs, ts)
        want = seg.evaluate_v(X.ravel(), T.ravel()).reshape(X.shape)
        flat = sum(points)
        points.clear()
        got = seg.evaluate_v(xs[None, :], ts[:, None])
        outer = sum(points)
        points.clear()
        seg.evaluate_v(xs, seg.t_end)
        assert got.shape == X.shape and got.tobytes() == want.tobytes()
        # the crossings are inverted once per x, as for a read at one time
        assert outer == sum(points) > 0 and flat == ts.size * outer
        # a 1-D x with a time column, and a scalar x with a time vector
        assert seg.evaluate_v(xs, ts[:, None]).tobytes() == want.tobytes()
        for j in (0, xs.size // 2, np.searchsorted(xs, seg._kinks[-1]), xs.size - 1):
            col = seg.evaluate_v(xs[j], ts)
            assert col.shape == ts.shape and col.tobytes() == want[:, j].copy().tobytes()
            # and a scalar x with a scalar t, a float
            for i in (0, ts.size // 2, ts.size - 1):
                one = seg.evaluate_v(float(xs[j]), float(ts[i]))
                assert type(one) is float and np.float64(one).tobytes() == want[i, j].tobytes()

    @pytest.mark.parametrize("run", ["cascade16", "draw12", "merge_post"])
    def test_outer_grid_still_rejects_bad_points(self, run, request):
        seg, xs, ts = self._grid(run, request)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                seg.evaluate_v(np.append(xs, bad)[None, :], ts[:, None])
        for late in (seg.t_end + 1.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="time outside"):
                seg.evaluate_v(xs[None, :], np.append(ts, late)[:, None])


class TestNoNucleation:
    def test_holds_for_runs(self, expanding_run, shrinking_run, merge_run):
        for w in (expanding_run, shrinking_run, merge_run):
            assert check_no_nucleation(w)

    def test_detects_inserted_interval(self, pstar):
        omega, v0 = shrinking_setup(pstar)
        seg1, _ = run_segment(pstar, omega, v0, 0.0, 0.5)
        # hand-built continuation with a spurious second interval
        profile2 = Profile(np.array([-20.0, 20.0]), np.array([1.3, 1.3]))
        spurious = ClassicalSegment(
            pstar,
            IntervalSet((-0.6, 0.6, 3.0, 4.0)),
            profile2,
            0.5,
            0.8,
            labels=(1, 2, 7, 8),
        )
        corrupted = WeakSolution(pstar, [seg1, spurious], [])
        assert not check_no_nucleation(corrupted)

    def test_vacuous_for_empty(self, pstar):
        assert check_no_nucleation(WeakSolution(pstar))

    @pytest.mark.parametrize(
        "run, case",
        [
            *((run, case) for run in ("merge_run", "shrinking_run") for case in ("extra event", "missing event")),
            # no segment after the vanish holds a front
            *(("merge_run", case) for case in ("late start", "unknown label", "moved survivor", "out of order")),
        ],
    )
    def test_rejects_corrupted_runs(self, run, case, request, pstar):
        # an odd interface count, or an odd drop, cannot be built: an
        # IntervalSet always holds an even number of endpoints
        w = request.getfixturevalue(run)
        assert check_no_nucleation(w)
        segments, events = list(w.segments), list(w.events)
        if case == "extra event":
            events.append(events[0])
        elif case == "missing event":
            events.clear()
        elif case == "out of order":
            # a stand-in that swaps the last segment's two fronts
            last = copy.copy(segments[-1])
            last.positions = lambda t, _read=last.positions: _read(t)[..., ::-1]
            segments[-1] = last
        else:
            last = segments[-1]
            ends, t_start, labels = last.omega_start.endpoints, last.t_start, last.labels
            if case == "late start":
                t_start += 0.1
            elif case == "unknown label":
                labels = (labels[0], 99)
            else:
                ends = (ends[0] - 0.01, ends[1])
            segments[-1] = ClassicalSegment(
                pstar, IntervalSet(ends), Profile.constant(0.0, (-16.0, 16.0)), t_start, w.t_end, labels=labels
            )
        assert not check_no_nucleation(WeakSolution(pstar, segments, events))


class TestWeakResidual:
    def test_expanding_constant_testfunction(self, expanding_run):
        window = (-5.0, 5.0, 0.0, 1.0)
        one = SpaceTimePolynomial([[1.0]], window)
        r1, r2 = weak_residual(expanding_run, window, one, one)
        assert r1 <= 1e-8
        assert r2 <= 1e-8

    def test_measure_bookkeeping_by_hand(self, expanding_run, pstar):
        # growth of the excited measure: |Omega(1)| - |Omega(0)| = 2, and the
        # interface integral contributes W(0) * 1 per front per unit time = 2
        window = (-5.0, 5.0, 0.0, 1.0)
        measure = lambda t: np.diff(expanding_run.positions(t))[0]
        assert measure(1.0) - measure(0.0) == pytest.approx(2.0, abs=1e-10)

    def test_no_interface_window(self, shrinking_run):
        # window strictly outside the excited region: the field identity
        # reduces to the quiescent phase equation
        window = (2.0, 4.0, 0.1, 1.4)
        one = SpaceTimePolynomial([[1.0]], window)
        r1, r2 = weak_residual(shrinking_run, window, one, one)
        assert r1 <= 1e-9  # no excited measure, no interfaces
        assert r2 <= 1e-8

    def test_event_straddling_window(self, merge_run):
        window = (-1.5, 1.5, 0.5, 1.5)
        for f in tensor_test_functions(window, degree=2)[:6]:
            r1, r2 = weak_residual(merge_run, window, f, f)
            assert r1 <= 1e-8
            assert r2 <= 1e-8

    @pytest.mark.parametrize(
        "window, match",
        [
            ((1.0, 1.0, 0.5, 1.5), "window must satisfy x1 < x2 and t1 < t2"),
            ((2.0, 1.0, 0.5, 1.5), "window must satisfy x1 < x2 and t1 < t2"),
            ((-1.0, 1.0, 1.5, 0.5), "window must satisfy x1 < x2 and t1 < t2"),
            ((-1.0, 1.0, 0.5, 4.0), "window exceeds the solution horizon"),
            ((-1.0, 1.0, -1.0, 0.5), "window exceeds the solution horizon"),
        ],
    )
    def test_rejects_bad_windows(self, merge_run, window, match):
        one = SpaceTimePolynomial([[1.0]], window)
        with pytest.raises(ValueError, match=f"^{match}$"):
            weak_residual(merge_run, window, one, one)

    def test_polynomial_dt_is_exact(self):
        window = (0.0, 2.0, 0.0, 4.0)
        f = SpaceTimePolynomial([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0]], window)
        x, t, h = 1.3, 2.1, 1e-6
        fd = (f.value(x, t + h) - f.value(x, t - h)) / (2 * h)
        assert f.dt(x, t) == pytest.approx(fd, rel=1e-8)

    def test_arrival_errors_propagate(self, merge_run, monkeypatch):
        # an error while finding the breakpoints is a fault, never skipped
        def broken(self, col, y, sign):
            raise RuntimeError("invert_col failed")

        monkeypatch.setattr(classical.DensePath, "invert_col", broken)
        window = (-1.5, 1.5, 0.5, 1.5)
        one = SpaceTimePolynomial([[1.0]], window)
        with pytest.raises(RuntimeError, match="invert_col failed"):
            weak_residual(merge_run, window, one, one)

    @pytest.mark.parametrize(
        "coeffs, cell",
        [
            # x^40: no Kronrod cell is exact in x, on the edges or the time rows
            (np.eye(41)[:, 40:], "the x cell"),
            # t^40: every row's x integral is exact inside the excited set,
            # but no time cell is exact in t
            (np.eye(41)[40:], "the time cell"),
        ],
        ids=["x", "t"],
    )
    def test_a_cell_that_fails_at_the_depth_limit_raises(self, expanding_run, monkeypatch, coeffs, cell):
        monkeypatch.setattr(weak, "_MAX_DEPTH", 0)
        window = (-0.5, 0.5, 0.1, 0.9)  # inside the excited set throughout
        f = SpaceTimePolynomial(coeffs, window)
        with pytest.raises(RuntimeError, match=f"^weak_residual on window .*: {cell} .* still fails after 0 splits$"):
            weak_residual(expanding_run, window, f, f)

    def test_detects_wrong_parameters(self, merge_run):
        # the field and fronts stay those of the true run; residuals read with
        # a wrong front speed (a) or recovery rate (g2) must not vanish
        window = (-4.0, 4.0, 0.5, 1.5)
        one = SpaceTimePolynomial([[1.0]], window)

        def residual(**change):
            params = dataclasses.replace(merge_run.params, **change)
            return weak_residual(WeakSolution(params, merge_run.segments, merge_run.events), window, one, one)

        r1, r2 = residual()
        assert r1 <= 1e-8 and r2 <= 1e-8
        assert residual(a=1.1)[0] >= 0.1
        assert residual(g2=1.1)[1] >= 0.1

    def test_draw12_field_identity(self, draw12):
        # the right front of the third interval sweeps (10.570, 11.239)
        # leftwards; a fixed rule of 4 cells there read 4.25e-8 at every
        # tol_step, the field's slow convergence behind the front
        window = (8.51, 14.489, 0.098, 0.604)
        one = SpaceTimePolynomial([[1.0]], window)
        assert max(weak_residual(draw12[2][1e-8], window, one, one)) <= 1e-10

    def test_measure_identity_falls_with_tol_step(self, draw12):
        # on 6-point cells the quadrature's error is far below the stepper's,
        # so the measure identity reads the stepper: it falls with tol_step
        # down to rounding.  The field identity is not asserted: the fold is
        # an exact flow for any trajectory, so it does not move with tol_step.
        omega, v0, runs = draw12
        rng = np.random.default_rng(4)
        windows = []
        for _ in range(10):
            x1, t1 = rng.uniform(v0.xs[4], v0.xs[-10]), rng.uniform(0.0, 1.0)
            window = (x1, x1 + rng.uniform(1.0, 6.0), t1, t1 + rng.uniform(0.3, 1.0))
            basis = tensor_test_functions(window, degree=3)
            windows.append((window, basis[rng.integers(len(basis))]))
        worst = [max(weak_residual(runs[tol], win, f, f)[0] for win, f in windows) for tol in (1e-5, 1e-6, 1e-8)]
        assert worst[0] > worst[1] > worst[2]
        assert worst[2] <= 1e-12


def _reference_breakpoints(w: WeakSolution, t1, t2, x1, x2, cuts) -> np.ndarray:
    """_time_breakpoints path by path: each segment that overlaps (t1, t2)
    gives its start and end and inverts every one of its fronts' arrivals at
    every marker, in one invert_col call."""
    markers = np.concatenate([np.asarray([x1, x2]), cuts])
    pts = [np.asarray([t1, t2])]
    for seg in w.segments:
        if seg.t_end <= t1 or seg.t_start >= t2:
            continue
        pts.append(np.asarray([seg.t_start, seg.t_end]))
        n = seg.n_interfaces
        if n:
            cols = np.repeat(np.arange(n), markers.size)
            pts.append(seg._path.invert_col(cols, np.tile(markers, n), seg._signs[cols]))
    pts = np.concatenate(pts)
    return np.unique(pts[(pts >= t1) & (pts <= t2)])


class TestTimeBreakpoints:
    """The residual's time breakpoints come from the last segment's fold,
    which inverts each front's arrival at a marker on the one path that
    swept it."""

    @pytest.mark.parametrize("run", ["merge_run", "cascade16", "draw12", "illposed"])
    def test_match_a_per_path_reference(self, run, request, pstar, monkeypatch):
        if run == "illposed":
            runs = list(ill_posedness_demo(pstar, 0.1))
        else:
            data = request.getfixturevalue(run)
            runs = [data] if run == "merge_run" else [data[3]] if run == "cascade16" else list(data[2].values())
        calls = []
        invert = classical.DensePath.invert_col
        monkeypatch.setattr(
            classical.DensePath, "invert_col", lambda path, c, y, s: calls.append(id(path)) or invert(path, c, y, s)
        )
        rng = np.random.default_rng(35)
        for w in runs:
            cuts = w.segments[-1]._kinks
            ends = np.concatenate([w.positions(w.t_start), w.positions(w.t_end)])
            lo, hi = np.nanmin(ends) - 1.0, np.nanmax(ends) + 1.0
            # a t2 within the slack past the end keeps the end a breakpoint
            windows = [(lo, hi, w.t_start, w.t_end), (lo, hi, 0.5 * w.t_end, w.t_end + 5e-13)]
            for ev in w.events:
                windows += [(ev.position - 1.0, ev.position + 1.0, ev.time, w.t_end), (ev.position, hi, w.t_start, ev.time)]
            for _ in range(20):
                x1, x2 = np.sort(rng.uniform(lo, hi, 2))
                t1, t2 = np.sort(rng.uniform(w.t_start, w.t_end, 2))
                windows.append((x1, x2, t1, t2))
            for x1, x2, t1, t2 in windows:
                calls.clear()
                got = weak._time_breakpoints(w, t1, t2, x1, x2, cuts)
                # at most one invert_col call per segment path
                assert len(set(calls)) == len(calls) <= len(w.segments)
                assert np.array_equal(got, _reference_breakpoints(w, t1, t2, x1, x2, cuts))


class TestSpeedIntegral:
    """interface_speed_integral rejects a window or label it cannot read."""

    def test_reads_the_unit_speed(self, merge_run):
        assert weak.interface_speed_integral(merge_run, 1, 0.5, 1.5) == pytest.approx(1.0, abs=1e-12)

    def test_a_label_not_alive_in_the_window_reads_zero(self, merge_run):
        # labels 2 and 3 meet at t = 1 and are gone after it
        for label in (2, 3):
            assert weak.interface_speed_integral(merge_run, label, 1.5, 2.0) == 0.0

    @pytest.mark.parametrize(
        "label, t1, t2, match",
        [
            (1, 1.5, 0.5, "t1 <= t2"),
            (1, math.nan, 1.5, "t1 <= t2"),
            (1, 0.5, 50.0, "horizon"),
            (1, -1.0, 0.5, "horizon"),
            (99, 0.5, 1.5, "99"),
        ],
    )
    def test_rejects_bad_input(self, merge_run, label, t1, t2, match):
        with pytest.raises(ValueError, match=match):
            weak.interface_speed_integral(merge_run, label, t1, t2)


def _reference_pieces(row, x1, x2, cuts):
    """(lo, hi, inside) of each piece of one row, left to right."""
    inner = [p for p in (*row, *cuts) if x1 < p < x2]
    edges = sorted({x1, x2, *inner})
    return [
        (lo, hi, sum(p < 0.5 * (lo + hi) for p in row) % 2 == 1)
        for lo, hi in zip(edges, edges[1:])
        if hi - lo > 1e-13
    ]


class TestWindowNodes:
    """The partition of the window at each row's positions and the cuts, and
    the Gauss-Kronrod cells on it."""

    def test_matches_per_row_reference(self):
        rng = np.random.default_rng(7)
        x1, x2 = -2.0, 3.0
        cuts = np.array([-2.5, -1.0, 0.5, 2.0, 4.0])  # two outside the window
        pos = np.sort(rng.uniform(-3.5, 4.5, (30, 4)), axis=1)
        pos[0, 1] = 0.5  # a position on a cut
        pos[1, 2] = 2.0 + 5e-14  # a piece shorter than 1e-13
        pos[2, :2] = -1.0 - 3e-14, -1.0 + 4e-14  # two of them around a cut
        pos[3, 0] = x1  # a position on the window edge
        pos[4] = -3.0, -2.5, 3.5, 4.0  # all outside: the cuts only
        pos.sort(axis=1)
        row, lo, hi, inside = _pieces(pos, x1, x2, cuts)
        want = [(r, *piece) for r, p in enumerate(pos) for piece in _reference_pieces(list(p), x1, x2, list(cuts))]
        ref_row, ref_lo, ref_hi, ref_in = (np.asarray(c) for c in zip(*want))
        np.testing.assert_array_equal(row, ref_row)
        np.testing.assert_array_equal(lo, ref_lo)
        np.testing.assert_array_equal(hi, ref_hi)
        np.testing.assert_array_equal(inside, ref_in)
        # a cell's nodes lie inside it, and each row's weights, Kronrod or
        # Gauss, add up to tw times the window, less dropped pieces
        xs, half = _cells(lo, hi)
        assert np.all((xs > lo[:, None]) & (xs < hi[:, None]))
        tws = rng.uniform(0.01, 0.1, pos.shape[0])
        for rule in (weak._KRONROD, weak._GAUSS):
            totals = np.bincount(row, weights=tws[row] * (half[:, None] * rule).sum(axis=1))
            np.testing.assert_allclose(totals, tws * (x2 - x1), rtol=1e-12)

    def test_nan_entries_are_ignored(self):
        rng = np.random.default_rng(8)
        x1, x2 = -2.0, 3.0
        cuts = np.array([-1.0, 0.5, 2.0])
        full = np.sort(rng.uniform(-3.0, 4.0, (6, 4)), axis=1)
        padded = np.full((6, 6), np.nan)
        padded[:, [0, 2, 3, 5]] = full  # nan columns between and after the positions
        want = _pieces(full, x1, x2, cuts)
        got = _pieces(padded, x1, x2, cuts)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_rule_is_exact_to_degree_19(self):
        nodes, gauss_x, gauss_w = weak._NODES, *np.polynomial.legendre.leggauss(6)
        # the embedded Gauss rule is leggauss(6) bit for bit
        assert nodes[1::2].tolist() == gauss_x.tolist()
        assert weak._GAUSS[1::2].tolist() == gauss_w.tolist() and not np.any(weak._GAUSS[0::2])
        exact = [2.0 / (d + 1) if d % 2 == 0 else 0.0 for d in range(21)]
        errors = [abs(np.sum(weak._KRONROD * nodes**d) - exact[d]) for d in range(21)]
        assert max(errors[:20]) <= 1e-15
        assert errors[20] > 1e-10  # degree 20 is not exact: the rule is the Kronrod one
        assert np.all(np.diff(nodes) > 0.0) and np.all(weak._KRONROD > 0.0)


# the eta -> 0 limits of the two branches at t = 0.1, by linear extrapolation
# from eta = 1e-5 and 4e-6
RECEDE_LIMIT, ADVANCE_LIMIT = 7.4591e-3, -1.8643e-3


def _shifted_branches(p, eta: float, horizon: float, xs=None) -> tuple[WeakSolution, WeakSolution]:
    """The demo's two runs with the degenerate datum shifted by +-eta/b,
    sampled on the demo's knots unless xs gives others."""
    if xs is None:
        xs = np.union1d(np.linspace(-p.a * horizon - 1.0, math.tan(p.v_star), 2001), [0.0])
    omega = IntervalSet((0.0, math.tan(p.v_star) + 1.0))
    return tuple(
        run_weak(p, omega, Profile(xs, np.maximum(p.v_star - np.arctan(xs) + shift, 0.0)), horizon)
        for shift in (eta / p.b, -eta / p.b)
    )


class TestIllPosedDemo:
    def test_two_distinct_continuations(self, pstar):
        recede, advance = ill_posedness_demo(pstar, 0.1)
        eta = 2.0 * default_margin(pstar)
        assert recede.positions(0.0)[0] == 0.0 and advance.positions(0.0)[0] == 0.0
        # a left endpoint moves at -W, and W(v0(0)) is -eta or +eta
        assert recede.segments[0]._path.deriv(0.0)[0] == pytest.approx(eta, abs=1e-15)
        assert advance.segments[0]._path.deriv(0.0)[0] == pytest.approx(-eta, abs=1e-15)
        ts = np.linspace(0.005, 0.1, 24)
        s_recede, s_advance = recede.positions(ts)[:, 0], advance.positions(ts)[:, 0]
        assert np.all(s_advance < 0.0) and np.all(s_recede > 0.0)
        assert np.all(np.diff(s_recede - s_advance) > 0.0)
        assert abs(s_recede[-1] - RECEDE_LIMIT) <= 1e-6
        assert abs(s_advance[-1] - ADVANCE_LIMIT) <= 1e-6

    def test_branch_fields_follow_their_flows(self, pstar):
        x, t = 0.3, 0.04  # inside the excited set and never swept, where v0 > 0
        for w in ill_posedness_demo(pstar, 0.05):
            v0 = w.segments[0].profile_start.eval(x)
            assert w.evaluate_v(x, t) == pytest.approx(flow_inside(pstar, v0, t), rel=1e-10)

    def test_swept_point_reads_the_composite_flow(self, pstar):
        # a point the receding front sweeps is inside until the front crosses
        # it at T, and outside after
        recede, _ = ill_posedness_demo(pstar, 0.1)
        seg = recede.segments[0]
        x = 0.5 * recede.positions(0.1)[0]
        T = float(seg._path.invert_col(0, x, seg._signs[0])[0])
        assert 0.0 < T < 0.1
        want = flow_outside(pstar, flow_inside(pstar, seg.profile_start.eval(x), T), 0.1 - T)
        assert recede.evaluate_v(x, 0.1) == pytest.approx(want, rel=1e-10)

    def test_both_branches_are_weak_solutions(self, pstar):
        window = (-0.02, 0.02, 0.0, 0.1)
        for w in ill_posedness_demo(pstar, 0.1):
            assert check_no_nucleation(w)
            for f in tensor_test_functions(window, 1):
                assert max(weak_residual(w, window, f, f)) <= 1e-10

    @pytest.mark.parametrize("layout", ["2000 even and 0", "1001 a side of 0"])
    def test_residual_does_not_follow_the_knots(self, pstar, layout):
        # near the almost degenerate start the crossing time grows like
        # sqrt(|x|); a fixed rule read 1.07e-8 and 3.07e-8 on these knots
        # (3.75e-9 on the demo's), an adaptive one refines towards x = 0
        lo, hi = -pstar.a * 0.1 - 1.0, math.tan(pstar.v_star)
        if layout == "2000 even and 0":
            xs = np.union1d(np.linspace(lo, hi, 2000), [0.0])
        else:
            xs = np.union1d(np.linspace(lo, 0.0, 1001), np.linspace(0.0, hi, 1001))
        window = (-0.02, 0.02, 0.0, 0.1)
        for w in _shifted_branches(pstar, 2.0 * default_margin(pstar), 0.1, xs):
            for f in tensor_test_functions(window, 1):
                assert max(weak_residual(w, window, f, f)) <= 1e-10

    def test_branches_stay_apart_as_eta_falls(self, pstar):
        # the data differ by 2*eta/b, the solutions by about 9.3e-3 at t = 0.1
        demo = ill_posedness_demo(pstar, 0.1)
        built = _shifted_branches(pstar, 2.0 * default_margin(pstar), 0.1)
        for a, b in zip(demo, built):
            assert a.positions(0.1).tolist() == b.positions(0.1).tolist()
        for eta in (1e-3, 1e-4, 1e-5):
            recede, advance = _shifted_branches(pstar, eta, 0.1)
            assert recede.positions(0.1)[0] - advance.positions(0.1)[0] >= 9e-3

    @pytest.mark.parametrize("horizon", [math.nan, 0.0, -1.0])
    def test_horizon_must_be_positive(self, pstar, horizon):
        # nan fails every comparison, so a `horizon <= 0` check passed it
        # and returned one-knot paths
        with pytest.raises(ValueError, match="horizon must be positive"):
            ill_posedness_demo(pstar, horizon)


class TestUniquenessProbe:
    def test_tolerance_refinement_converges(self, pstar):
        omega, v0 = merge_setup(pstar)
        ts = np.linspace(0.0, 2.5, 26)
        runs = []
        for tol in (1e-6, 1e-8):
            pos = run_weak(pstar, omega, v0, 2.5, tol_step=tol).positions(ts)
            one = pos[np.count_nonzero(~np.isnan(pos), axis=1) == 2]  # one component alive
            runs.append(one[~np.isnan(one)].reshape(-1, 2))
        assert np.max(np.abs(runs[0] - runs[1])) < 1e-5


# the time the excited flow takes from v = 0 to 2a/b, with the presets'
# kinetics: the width, divided by a, of a steady traveling pulse, whose back
# moves at b*v - a = a where v = 2a/b
TAU_STAR = 1.5 - math.log(3.0) / 4.0


def _behind_front(p, xi):
    """The steady pulse's v at distance xi >= 0 behind its front: the excited
    flow from 0 up to its back, the quiescent flow from 2a/b behind it."""
    width = p.a * TAU_STAR
    inside = flow_inside(p, 0.0, np.minimum(xi, width) / p.a)
    return np.where(xi <= width, inside, flow_outside(p, 2.0 * p.a / p.b, np.maximum(xi - width, 0.0) / p.a))


def _pulses(p, n: int, gap: float | None = None):
    """A pulse moving right with its front at 0, and, given a gap, its mirror
    image moving left with its front at gap; v0 on n knots evenly spaced over
    12 units behind each front, and 0 ahead of them."""
    xi = np.linspace(0.0, 12.0, n)
    width = p.a * TAU_STAR
    if gap is None:
        return IntervalSet((-width, 0.0)), Profile(-xi[::-1], _behind_front(p, xi[::-1]))
    xs = np.concatenate([-xi[::-1], gap + xi])
    vs = np.concatenate([_behind_front(p, xi[::-1]), _behind_front(p, xi)])
    return IntervalSet((-width, 0.0, gap, gap + width)), Profile(xs, vs)


KNOTS = (401, 1601)  # knot spacings 4 apart


@pytest.fixture(scope="module")
def pulse_runs(pstar):
    """{n: (the single pulse run to t = 10, the head-on collision of two
    pulses 4 apart run to t = 4)} for each knot count n of KNOTS."""
    return {
        n: (run_weak(pstar, *_pulses(pstar, n), 10.0), run_weak(pstar, *_pulses(pstar, n, 4.0), 4.0))
        for n in KNOTS
    }


def _order(errors) -> float:
    """The observed order in the knot spacing of the errors at KNOTS."""
    return math.log(errors[0] / errors[1]) / math.log((KNOTS[1] - 1) / (KNOTS[0] - 1))


class TestTravelingPulse:
    """A steady traveling pulse and the head-on annihilation of two, against
    their closed forms: a front running into v = 0 moves at a; the pulse
    keeps its width a*tau*; two fronts 4 apart merge at t = 2, x = 2; and each
    back reads only points its own front swept, so both reach x = 2 at
    2 + tau*, where the interval vanishes."""

    def test_front_runs_at_speed_a(self, pstar, pulse_runs):
        ts = np.linspace(0.0, 10.0, 201)
        for single, _ in pulse_runs.values():
            assert single.events == []
            assert np.max(np.abs(single.positions(ts)[:, 1] - pstar.a * ts)) <= 1e-12

    def test_width_converges_at_second_order(self, pstar, pulse_runs):
        errors = []
        for single, _ in pulse_runs.values():
            back, front = single.positions(10.0)
            errors.append(abs(front - back - pstar.a * TAU_STAR))
        assert errors[1] <= 1e-10 and _order(errors) >= 1.8

    def test_merge_then_vanish_at_the_midpoint(self, pulse_runs):
        vanish_errors = []
        for _, collision in pulse_runs.values():
            merge, vanish = collision.events
            assert (merge.kind, vanish.kind) == (EventKind.MERGE, EventKind.VANISH)
            assert abs(merge.time - 2.0) <= 1e-12 and abs(merge.position - 2.0) <= 1e-12
            assert abs(vanish.position - 2.0) <= 1e-12
            vanish_errors.append(abs(vanish.time - 2.0 - TAU_STAR))
        assert vanish_errors[1] <= 1e-6 and _order(vanish_errors) >= 1.8

    def test_collision_is_a_weak_solution(self, pulse_runs):
        window = (0.5, 3.5, 1.5, 2.0 + TAU_STAR + 0.5)
        for _, collision in pulse_runs.values():
            assert check_no_nucleation(collision)
            for f in tensor_test_functions(window, 3):
                assert max(weak_residual(collision, window, f, f)) <= 1e-8

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from frontsim.kinetics import flow_inside, flow_outside, front_speed
from frontsim.render import weak_solution_curves
from frontsim.state import H2Violation, IntervalSet, Profile
from frontsim import classical, weak
from frontsim.classical import ClassicalSegment, DegeneracyWarning, EventKind, run_segment
from frontsim.weak import (
    GlueMismatch,
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
    _window_nodes,
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
        new_omega, new_profile, _, dead = annihilation_surgery(first, ev)
        labels = tuple(lab for lab in first.labels if lab not in dead)
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

    def test_junction_continuity_enforced(self, pstar):
        omega, v0 = merge_setup(pstar)
        seg, ev = run_segment(pstar, omega, v0, 0.0, 3.0)
        new_omega, new_profile, _, _ = annihilation_surgery(seg, ev)
        w = glue(WeakSolution(pstar), seg)
        good = ClassicalSegment(pstar, new_omega, new_profile, ev.time, 3.0, labels=(1, 4))
        glue(w, good)  # continuous junction passes

        bumped = Profile(new_profile.xs, new_profile.eval(new_profile.xs) + 1e-3)
        bad = ClassicalSegment(pstar, new_omega, bumped, ev.time, 3.0, labels=(1, 4))
        with pytest.raises(GlueMismatch, match=r"x=\S+: v=\S+ before, \S+ after"):
            glue(w, bad)

    def test_fresh_start_reads_only_its_own_times(self, pstar):
        # a segment glued from a fresh profile, not a continuation, starts a
        # new history: the solution's field reads from its start onward only
        empty = IntervalSet.empty()
        seg1, _ = run_segment(pstar, empty, Profile.constant(1.0, (-5.0, 5.0)), 0.0, 0.5)
        fresh = Profile.constant(flow_outside(pstar, 1.0, 0.5), (-5.0, 5.0))
        w = glue(glue(WeakSolution(pstar), seg1), ClassicalSegment(pstar, empty, fresh, 0.5, 1.0))
        assert w.evaluate_v(0.0, 0.75) == pytest.approx(flow_outside(pstar, 1.0, 0.75), abs=1e-12)
        with pytest.raises(ValueError):
            w.evaluate_v(0.0, 0.25)
        with pytest.raises(ValueError):
            w.evaluate_v([0.0, 0.0], [0.25, 0.75])

    def test_time_mismatch_rejected(self, pstar):
        omega, v0 = shrinking_setup(pstar)
        seg1, _ = run_segment(pstar, omega, v0, 0.0, 0.5)
        seg2 = ClassicalSegment(pstar, omega, v0, 0.7, 0.9)
        with pytest.raises(GlueMismatch):
            glue(glue(WeakSolution(pstar), seg1), seg2)


class TestRunWeak:
    def test_merge_scenario(self, merge_run):
        assert len(merge_run.events) == 1
        ev = merge_run.events[0]
        assert ev.kind is EventKind.MERGE
        assert ev.time == pytest.approx(1.0, abs=1e-6)
        assert merge_run.component_count(0.5) == 2
        assert merge_run.component_count(2.0) == 1
        assert merge_run.interface_positions(3.0) == pytest.approx([-6.0, 6.0], abs=1e-8)

    def test_shrinking_scenario_then_relaxation(self, shrinking_run, pstar):
        assert len(shrinking_run.events) == 1
        ev = shrinking_run.events[0]
        assert ev.kind is EventKind.VANISH
        assert ev.time == pytest.approx(SHRINK_TA, abs=1e-6)
        assert shrinking_run.component_count(1.0) == 0
        # after extinction the field relaxes by the quiescent flow alone
        expected = flow_outside(
            pstar, flow_inside(pstar, 1.0, ev.time), 2.0 - ev.time
        )
        assert shrinking_run.evaluate_v(0.0, 2.0) == pytest.approx(expected, abs=1e-8)

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

    def test_events_json_schema(self, merge_run):
        payload = json.loads(events_as_json(merge_run))
        assert len(payload) == 1
        rec = payload[0]
        assert rec["kind"] == "merge"
        assert rec["components_before"] == 2 and rec["components_after"] == 1
        assert {"time", "position", "indices", "labels"} <= set(rec)


@pytest.fixture(scope="module")
def cascade16(pstar):
    """16 random intervals on v0 = 0 that all merge by t = 3."""
    rng = np.random.default_rng(16)
    lengths = rng.uniform(0.5, 2.0, 16)
    gaps = rng.uniform(0.5, 2.0, 15)
    xs = [0.0, lengths[0]]
    for gap, length in zip(gaps, lengths[1:]):
        xs.extend([xs[-1] + gap, xs[-1] + gap + length])
    v0 = Profile.constant(0.0, (xs[0] - 20.0, xs[-1] + 20.0))
    return xs, gaps, v0, run_weak(pstar, IntervalSet(tuple(xs)), v0, 3.0)


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
            np.testing.assert_array_equal(w.interface_positions(t), row[alive])
            np.testing.assert_array_equal(w.positions(float(t)), row)

    @pytest.mark.parametrize("run", ["merge_run", "shrinking_run"])
    def test_event_time_belongs_to_the_next_segment(self, run, request):
        w = request.getfixturevalue(run)
        ev = w.events[0]
        row = w.positions(ev.time)
        assert np.count_nonzero(np.isnan(row)) == 2
        np.testing.assert_array_equal(row[~np.isnan(row)], w.segments[1].positions(ev.time))

    def test_past_the_end_raises(self, merge_run):
        with pytest.raises(ValueError):
            merge_run.positions([1.0, merge_run.t_end + 1.0])


class TestGeneratedCascade:
    def test_random_intervals_all_merge(self, cascade16):
        xs, gaps, v0, w = cascade16
        # on v0 = 0 every front runs at W(0) = 1, so each gap closes at gap/2
        by_labels = {ev.labels: ev for ev in w.events}
        assert len(by_labels) == 15
        for j, gap in enumerate(gaps):
            ev = by_labels[(2 * j + 2, 2 * j + 3)]
            assert ev.time == pytest.approx(gap / 2, abs=1e-8)
            assert ev.position == pytest.approx(0.5 * (xs[2 * j + 1] + xs[2 * j + 2]), abs=1e-8)
        assert w.interface_positions(3.0) == pytest.approx([xs[0] - 3.0, xs[-1] + 3.0], abs=1e-8)
        assert check_no_nucleation(w)
        assert max(seg.profile_start.xs.size for seg in w.segments) < 4 * 32 + v0.xs.size

    def test_segments_after_an_annihilation_start_warm(self, cascade16):
        # the error estimate is 0 at speed a, so only the step size's climb
        # costs steps: 82 when every segment restarted at sqrt(tol_step), 25
        # with the warm start; the exact reference above holds on this run
        _, _, _, w = cascade16
        assert sum(seg.stats.steps for seg in w.segments) <= 30
        assert sum(seg.stats.rejected for seg in w.segments) == 0

    def test_curves_match_a_tuple_built_reference(self, cascade16):
        _, _, _, w = cascade16
        n = 160
        want_curves: dict[int, list] = {}
        want_polygons = []
        for seg in w.segments:
            ts = np.linspace(seg.t_start, seg.t_end, n)
            pos = seg.positions(ts)
            for j, label in enumerate(seg.labels):
                want_curves.setdefault(label, []).extend(zip(pos[:, j], ts))
            for comp in range(seg.n_interfaces // 2):
                loop = list(zip(pos[:, 2 * comp], ts)) + list(zip(pos[::-1, 2 * comp + 1], ts[::-1]))
                want_polygons.append(np.asarray(loop))
        curves, polygons = weak_solution_curves(w, n)
        assert [label for label, _ in curves] == sorted(want_curves)
        for label, pts in curves:
            assert pts.shape == (len(want_curves[label]), 2)
            np.testing.assert_array_equal(pts, np.asarray(want_curves[label]))
        assert len(polygons) == len(want_polygons) == sum(seg.n_interfaces // 2 for seg in w.segments)
        for got, want in zip(polygons, want_polygons):
            assert got.shape == (2 * n, 2)
            np.testing.assert_array_equal(got, want)


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


class TestGeneratedAdmissible:
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
            finished += 1
            for seg in w.segments:
                ts = np.linspace(seg.t_start, seg.t_end, 40)
                speeds = np.abs(np.asarray([tr.velocity(ts) for tr in seg.trajectories]))
                slowed += bool(np.any(np.diff(speeds, axis=-1) < 0.0))
        assert finished >= 5 and slowed >= 5


def _crossings(seg, x: float, end: float) -> list[float]:
    """Times in (seg.t_start, end] at which an interface of seg crosses x."""
    out = []
    for tr in seg.trajectories:
        ta = tr.arrival_time(x)
        if seg.t_start < ta <= end:
            out.append(ta)
    return sorted(out)


def _composed_v(w: WeakSolution, x: float, t: float) -> float:
    """v(x, t) by scalar flows composed segment by segment: each segment
    starts from its own omega_start phase and flips at every crossing."""
    v = float(w.segments[0].profile_start.eval(x))
    for seg in w.segments:
        if seg.t_start > t:
            break
        end = min(seg.t_end, t)
        inside = bool(seg.omega_start.contains(x)) or any(
            x == xe and tr.sign == (-1) ** tr.k
            for xe, tr in zip(seg.omega_start.endpoints, seg.trajectories)
        )
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
            probes += [(x, t) for x in w.interface_positions(t)]
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
            knots = seg.trajectories[0].times
            cuts = np.unique(np.concatenate([[seg.t_start, seg.t_end], knots]))
            half = 0.5 * np.diff(cuts)[:, None]
            ts = ((0.5 * (cuts[:-1] + cuts[1:]))[:, None] + half * weak._GL_NODES).ravel()
            speeds = front_speed(w.params, seg.evaluate_v(seg.trajectories[0].position(ts), ts))
            want += float(np.sum(half[:, 0] * np.sum(weak._GL_WEIGHTS * speeds.reshape(half.size, -1), axis=1)))
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
        rng = np.random.default_rng(3)
        _, _, _, w = cascade16
        seg = w.segments[-1]
        assert len(seg._chain) == 15 and len(seg._paths) == 16
        for path, a, b in seg._paths:
            cols, ys, want = [], [], []
            for j in range(b - a):
                sign = seg._col_sign[a + j]
                x = path.eval(rng.uniform(path.t_start, path.t_end, 20))[:, j]
                y = np.concatenate([x, [x.min() - 1.0, x.max() + 1.0]])
                cols.append(np.full(y.size, j))
                ys.append(y)
                want.append(path.invert_col(j, y, sign))
            col = np.concatenate(cols)
            got = path.invert_col(col, np.concatenate(ys), seg._col_sign[a + col])
            np.testing.assert_array_equal(got, np.concatenate(want))

    @pytest.mark.parametrize("run", ["cascade16", "merge_run"])
    def test_arrivals_match_a_per_column_reference(self, run, request, monkeypatch):
        w = request.getfixturevalue(run)
        w = w[3] if run == "cascade16" else w
        xs = np.linspace(w.segments[0].profile_start.xs[0], w.segments[0].profile_start.xs[-1], 801)
        calls = []
        invert = classical.DensePath.invert_col
        monkeypatch.setattr(classical.DensePath, "invert_col", lambda *a: calls.append(1) or invert(*a))
        for seg in w.segments[1:]:
            calls.clear()
            got = seg._arrivals(xs)
            assert len(calls) <= len(seg._paths)
            # one call per swept column, as the fold made before
            ahead = seg._col_sign * xs[:, None]
            swept = (ahead > seg._col_from) & (ahead <= seg._swept_to)
            want = np.full(swept.shape, math.inf)
            paths = [(path, j) for path, a, b in seg._paths for j in range(b - a)]
            for c in np.flatnonzero(swept.any(axis=0)):
                path, j = paths[c]
                want[swept[:, c], c] = invert(path, j, xs[swept[:, c]], seg._col_sign[c])
            want[want <= seg._col_t0] = math.inf
            np.testing.assert_array_equal(got, want)
            assert np.isfinite(got).any()

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


class TestWeakResidual:
    def test_expanding_constant_testfunction(self, expanding_run):
        window = (-5.0, 5.0, 0.0, 1.0)
        one = SpaceTimePolynomial([[1.0]], window)
        r1, r2 = weak_residual(expanding_run, window, one, one)
        assert r1 <= 1e-6
        assert r2 <= 1e-5

    def test_measure_bookkeeping_by_hand(self, expanding_run, pstar):
        # growth of the excited measure: |Omega(1)| - |Omega(0)| = 2, and the
        # interface integral contributes W(0) * 1 per front per unit time = 2
        window = (-5.0, 5.0, 0.0, 1.0)
        measure = lambda t: expanding_run.interface_positions(t)[1] - expanding_run.interface_positions(t)[0]
        assert measure(1.0) - measure(0.0) == pytest.approx(2.0, abs=1e-10)

    def test_no_interface_window(self, shrinking_run):
        # window strictly outside the excited region: the field identity
        # reduces to the quiescent phase equation
        window = (2.0, 4.0, 0.1, 1.4)
        one = SpaceTimePolynomial([[1.0]], window)
        r1, r2 = weak_residual(shrinking_run, window, one, one)
        assert r1 <= 1e-9  # no excited measure, no interfaces
        assert r2 <= 1e-5

    def test_event_straddling_window(self, merge_run):
        window = (-1.5, 1.5, 0.5, 1.5)
        for f in tensor_test_functions(window, degree=2)[:6]:
            r1, r2 = weak_residual(merge_run, window, f, f)
            assert r1 <= 1e-5
            assert r2 <= 1e-5

    def test_polynomial_dt_is_exact(self):
        window = (0.0, 2.0, 0.0, 4.0)
        f = SpaceTimePolynomial([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0]], window)
        x, t, h = 1.3, 2.1, 1e-6
        fd = (f.value(x, t + h) - f.value(x, t - h)) / (2 * h)
        assert f.dt(x, t) == pytest.approx(fd, rel=1e-8)

    def test_arrival_errors_propagate(self, merge_run, monkeypatch):
        # an error while finding the breakpoints is a fault, never skipped
        def broken(self, y):
            raise RuntimeError("arrival_time failed")

        monkeypatch.setattr(classical.InterfaceTrajectory, "arrival_time", broken)
        window = (-1.5, 1.5, 0.5, 1.5)
        one = SpaceTimePolynomial([[1.0]], window)
        with pytest.raises(RuntimeError, match="arrival_time failed"):
            weak_residual(merge_run, window, one, one)

    def test_detects_wrong_parameters(self, merge_run):
        # the field and fronts stay those of the true run; residuals read with
        # a wrong front speed (a) or recovery rate (g2) must not vanish
        window = (-4.0, 4.0, 0.5, 1.5)
        one = SpaceTimePolynomial([[1.0]], window)

        def residual(**change):
            params = dataclasses.replace(merge_run.params, **change)
            return weak_residual(WeakSolution(params, merge_run.segments, merge_run.events), window, one, one)

        r1, r2 = residual()
        assert r1 <= 1e-5 and r2 <= 1e-5
        assert residual(a=1.1)[0] >= 0.1
        assert residual(g2=1.1)[1] >= 0.1


def _reference_nodes(row, tau, tw, x1, x2, cuts, nx):
    """(x, t, weight, inside) of each node of one row, piece by piece."""
    inner = [p for p in (*row, *cuts) if x1 < p < x2]
    edges = sorted({x1, x2, *inner})
    g = 0.5 / math.sqrt(3.0)
    out = []
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo <= 1e-13:
            continue
        inside = sum(p < 0.5 * (lo + hi) for p in row) % 2 == 1
        cells = np.linspace(lo, hi, max(2, round(nx * (hi - lo) / (x2 - x1))) + 1)
        left, width = cells[:-1], np.diff(cells)
        nodes = np.concatenate([left + (0.5 - g) * width, left + (0.5 + g) * width])
        out += [(x, tau, tw * 0.5 * wd, inside) for x, wd in zip(nodes, np.tile(width, 2))]
    return out


class TestWindowNodes:
    """The partition of the window at each row's positions and the cuts."""

    def test_matches_per_row_reference(self):
        rng = np.random.default_rng(7)
        x1, x2, nx = -2.0, 3.0, 40
        cuts = np.array([-2.5, -1.0, 0.5, 2.0, 4.0])  # two outside the window
        pos = np.sort(rng.uniform(-3.5, 4.5, (30, 4)), axis=1)
        pos[0, 1] = 0.5  # a position on a cut
        pos[1, 2] = 2.0 + 5e-14  # a piece shorter than 1e-13
        pos[2, :2] = -1.0 - 3e-14, -1.0 + 4e-14  # two of them around a cut
        pos[3, 0] = x1  # a position on the window edge
        pos[4] = -3.0, -2.5, 3.5, 4.0  # all outside: the cuts only
        pos.sort(axis=1)
        taus = np.linspace(0.1, 0.9, pos.shape[0])
        tws = rng.uniform(0.01, 0.1, pos.shape[0])
        xs, ts, wq, inside = _window_nodes(pos, taus, tws, x1, x2, cuts, nx)
        want = [
            node
            for row, tau, tw in zip(pos, taus, tws)
            for node in _reference_nodes(list(row), tau, tw, x1, x2, list(cuts), nx)
        ]
        ref_x, ref_t, ref_w, ref_in = (np.asarray(c) for c in zip(*want))
        assert xs.shape == ref_x.shape
        np.testing.assert_allclose(xs, ref_x, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(ts, ref_t)
        np.testing.assert_allclose(wq, ref_w, rtol=1e-13, atol=0)
        np.testing.assert_array_equal(inside, ref_in)
        # each row's weights add up to tw times the window, less dropped pieces
        totals = np.bincount(np.searchsorted(taus, ts), weights=wq)
        np.testing.assert_allclose(totals, tws * (x2 - x1), rtol=1e-12)

    def test_nan_entries_are_ignored(self):
        rng = np.random.default_rng(8)
        x1, x2, nx = -2.0, 3.0, 40
        cuts = np.array([-1.0, 0.5, 2.0])
        full = np.sort(rng.uniform(-3.0, 4.0, (6, 4)), axis=1)
        padded = np.full((6, 6), np.nan)
        padded[:, [0, 2, 3, 5]] = full  # nan columns between and after the positions
        taus = np.linspace(0.1, 0.9, 6)
        tws = rng.uniform(0.01, 0.1, 6)
        want = _window_nodes(full, taus, tws, x1, x2, cuts, nx)
        got = _window_nodes(padded, taus, tws, x1, x2, cuts, nx)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


class TestIllPosedDemo:
    def test_two_distinct_continuations(self, pstar):
        front, back = ill_posedness_demo(pstar, 0.1)
        assert front.position(0.0) == 0.0 and back.position(0.0) == 0.0
        assert front.velocity(0.0) == 0.0 and back.velocity(0.0) == 0.0
        ts = np.linspace(0.005, 0.1, 24)
        s1 = np.array([front.position(t) for t in ts])
        s2 = np.array([back.position(t) for t in ts])
        assert np.all(s1 < 0.0) and np.all(s2 > 0.0)
        sep = s2 - s1
        assert np.all(np.diff(sep) > 0.0)

    def test_branch_fields_follow_their_flows(self, pstar):
        front, _ = ill_posedness_demo(pstar, 0.05)
        x, t = 0.3, 0.04  # inside the excited half-line, where v0 > 0
        v0 = pstar.v_star - math.atan(x)
        assert front.v(x, t) == pytest.approx(flow_inside(pstar, v0, t), rel=1e-10)


class TestUniquenessProbe:
    def test_tolerance_refinement_converges(self, pstar):
        omega, v0 = merge_setup(pstar)
        ts = np.linspace(0.0, 2.5, 26)
        runs = []
        for tol in (1e-6, 1e-8):
            w = run_weak(pstar, omega, v0, 2.5, tol_step=tol)
            runs.append(np.column_stack([w.interface_positions(float(t)) for t in ts if w.component_count(float(t)) == 1]))
        assert np.max(np.abs(runs[0] - runs[1])) < 1e-5

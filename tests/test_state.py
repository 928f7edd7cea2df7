import math

import numpy as np
import pytest

from frontsim.kinetics import Phase
from frontsim.state import (
    H2Violation,
    IntervalSet,
    Profile,
    default_margin,
    validate_initial,
)


class TestIntervalSet:
    def test_rejects_touching_intervals(self):
        with pytest.raises(ValueError):
            IntervalSet((0.0, 1.0, 1.0, 2.0))

    def test_rejects_overlap_and_degenerate(self):
        with pytest.raises(ValueError):
            IntervalSet((0.0, 2.0, 1.0, 3.0))
        with pytest.raises(ValueError):
            IntervalSet((1.0, 1.0))

    def test_rejects_odd_count_and_infinite(self):
        with pytest.raises(ValueError):
            IntervalSet((0.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            IntervalSet((0.0, math.inf))

    def test_membership_examples(self):
        omega = IntervalSet((-1.0, 1.0))
        assert omega.membership(0.0) == (Phase.INSIDE, 1)
        assert omega.membership(1.0) == (Phase.OUTSIDE, None)
        assert IntervalSet.empty().membership(0.0) == (Phase.OUTSIDE, None)
        assert omega.membership(-1.0) == (Phase.OUTSIDE, None)

    def test_membership_consistent_with_ordering(self, rng):
        pts = np.sort(rng.uniform(-10, 10, size=8))
        pts += np.arange(8) * 1e-6  # enforce strict ordering
        omega = IntervalSet(tuple(pts))
        xs = rng.uniform(-11, 11, size=500)
        inside = omega.contains(xs)
        for x, flag in zip(xs, inside):
            count = int(np.sum(pts < x))
            assert flag == (count % 2 == 1 and x not in pts)

    def test_pairs_and_length(self):
        omega = IntervalSet((-3.0, -1.0, 1.0, 3.0))
        assert omega.pairs == ((-3.0, -1.0), (1.0, 3.0))
        assert omega.total_length() == 4.0


class TestProfile:
    def test_eval_examples(self):
        f = Profile(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert f.eval(0.5) == 0.5
        assert f.eval(-3.0) == 0.0
        assert f.eval(1.0) == 1.0
        assert f.eval(4.0) == 1.0  # constant extension on the right

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            Profile(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Profile(np.array([0.0, 1.0]), np.array([-0.1, 1.0]))

    def test_lipschitz_certificate(self, rng):
        xs = np.sort(rng.uniform(-5, 5, size=30))
        xs += np.arange(30) * 1e-9
        vs = rng.uniform(0, 3, size=30)
        f = Profile(xs, vs)
        qs = rng.uniform(-6, 6, size=400)
        rs = rng.uniform(-6, 6, size=400)
        lhs = np.abs(np.asarray(f.eval(qs)) - np.asarray(f.eval(rs)))
        assert np.all(lhs <= f.lipschitz * np.abs(qs - rs) + 1e-12)
        assert np.all(np.asarray(f.eval(qs)) >= 0.0)
        assert f.bound == vs.max()

    def test_constant(self):
        f = Profile.constant(0.7, (-2.0, 2.0))
        assert f.eval(100.0) == 0.7
        assert f.lipschitz == 0.0


class TestValidateInitial:
    def test_accepts_expanding_start(self, pstar):
        omega = IntervalSet((-1.0, 1.0))
        v0 = Profile.constant(0.0, (-5, 5))
        report = validate_initial(pstar, omega, v0, 1e-6)
        assert report.ok
        speeds = [c.speed for c in report.checks]
        assert speeds == [1.0, 1.0]  # W(0) = a at both endpoints
        # left endpoint moves left, right endpoint moves right: expanding
        assert report.checks[0].velocity == -1.0
        assert report.checks[1].velocity == 1.0

    def test_rejects_stalled_endpoints(self, pstar):
        omega = IntervalSet((-1.0, 1.0))
        v0 = Profile.constant(0.5, (-5, 5))  # exactly the stall level a/b
        with pytest.raises(H2Violation) as err:
            validate_initial(pstar, omega, v0)
        assert len(err.value.offenders) == 2

    def test_margin_is_open_condition(self, pstar):
        omega = IntervalSet((-1.0, 1.0))
        v0 = Profile.constant(0.5 - 1e-9, (-5, 5))  # W tiny but nonzero
        with pytest.raises(H2Violation):
            validate_initial(pstar, omega, v0, 1e-6)
        report = validate_initial(pstar, omega, v0, 1e-12)
        assert report.ok

    def test_default_margin_scale(self, pstar):
        assert default_margin(pstar) == pytest.approx(1e-6 * max(pstar.a, pstar.b * pstar.M))

    def test_empty_interval_set_is_vacuous(self, pstar):
        report = validate_initial(pstar, IntervalSet.empty(), Profile.constant(0.3, (-1, 1)))
        assert report.ok and report.checks == ()

import math

import numpy as np
import pytest

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

    def test_pairs_and_length(self):
        omega = IntervalSet((-3.0, -1.0, 1.0, 3.0))
        assert omega.pairs == ((-3.0, -1.0), (1.0, 3.0))
        assert sum(r - l for l, r in omega.pairs) == 4.0


class TestProfile:
    def test_eval_examples(self):
        f = Profile(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert f.eval(0.5) == 0.5
        assert f.eval(-3.0) == 0.0
        assert f.eval(1.0) == 1.0
        assert f.eval(4.0) == 1.0  # constant extension on the right
        assert f.bound == 1.0

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            Profile(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Profile(np.array([0.0, 1.0]), np.array([-0.1, 1.0]))

    def test_constant(self):
        f = Profile.constant(0.7, (-2.0, 2.0))
        assert f.eval(100.0) == 0.7 and f.eval(-100.0) == 0.7


class TestValidateInitial:
    def test_accepts_expanding_start(self, pstar):
        omega = IntervalSet((-1.0, 1.0))
        v0 = Profile.constant(0.0, (-5, 5))
        checks = validate_initial(pstar, omega, v0, 1e-6)
        assert [c.k for c in checks] == [1, 2]
        speeds = [c.speed for c in checks]
        assert speeds == [1.0, 1.0]  # W(0) = a at both endpoints
        # left endpoint moves left, right endpoint moves right: expanding
        assert checks[0].velocity == -1.0
        assert checks[1].velocity == 1.0

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
        checks = validate_initial(pstar, omega, v0, 1e-12)
        assert len(checks) == 2

    def test_default_margin_scale(self, pstar):
        assert default_margin(pstar) == pytest.approx(1e-6 * max(pstar.a, pstar.b * pstar.M))

    def test_empty_interval_set_is_vacuous(self, pstar):
        assert validate_initial(pstar, IntervalSet.empty(), Profile.constant(0.3, (-1, 1))) == ()

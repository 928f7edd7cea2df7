import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq
from scipy.special import lambertw, wrightomega

from frontsim.kinetics import (
    Parameters,
    Phase,
    flow_inside,
    flow_outside,
    front_speed,
    reaction_rate,
)

# values computed with the independent oracles exercised below
ANTI_OUT_HALF = 2.1931471805599454      # quad of 1/g(0,.) over [0.5, 1]
ANTI_IN_ONE = 1.2253469278329725        # quad of 1/g(1,.) over [0, 1]
FLOW_OUT_1_1 = 0.75871130992388214      # root of 3(1-v) - ln v = 1
FLOW_IN_0_01 = 0.095914986353865556     # root of 1.5v - 0.25 ln(2v+1) = 0.1
FLOW_IN_0_05 = 0.43823142335871484      # same with right side 0.5


def g_of(p, u, v):
    return p.g1 * u - p.g2 * v / (p.g3 * v + p.g4)


# The closed-form antiderivatives of 1/g(u, .): each flow map advances its
# antiderivative by exactly t, so they are the flows' reference below.

def antiderivative_outside(p, v):
    """From 1: -(g3/g2)*(v - 1) - (g4/g2)*ln(v), strictly decreasing and
    divergent as v -> 0+."""
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0.0):
        raise ValueError("antiderivative_outside requires v > 0 (diverges at 0)")
    return -(p.g3 / p.g2) * (v - 1.0) - (p.g4 / p.g2) * np.log(v)


def antiderivative_inside(p, v):
    """From 0, with A = g1*g3 - g2 and B = g1*g4:
    (g3/A)*v - (g2*g4/A^2)*ln((A*v + B)/B), strictly increasing."""
    v = np.asarray(v, dtype=float)
    if np.any(v < 0.0):
        raise ValueError("antiderivative_inside requires v >= 0")
    A, B = p.rest_rate_coeffs()
    return (p.g3 / A) * v - (p.g2 * p.g4 / A**2) * np.log1p(A * v / B)


class TestParameters:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Parameters(g1=0.0, g2=1, g3=3, g4=1, a=1, b=2)
        with pytest.raises(ValueError):
            Parameters(g1=1, g2=1, g3=3, g4=1, a=-1, b=2)

    def test_rejects_weak_rate_condition(self):
        # g1*g3 <= g2 makes the excited rate vanish somewhere
        with pytest.raises(ValueError):
            Parameters(g1=1, g2=3.5, g3=3, g4=1, a=1, b=2)

    def test_warns_between_weak_and_strong(self):
        with pytest.warns(UserWarning):
            p = Parameters(g1=1, g2=1, g3=1.5, g4=1, a=1, b=2)
        assert not p.strong_A

    def test_strong_flag_and_vstar(self, pstar):
        assert pstar.strong_A
        assert pstar.v_star == 0.5


class TestPointwise:
    def test_reaction_rate_examples(self, pstar):
        assert reaction_rate(pstar, Phase.OUTSIDE, 0.0) == 0.0
        assert reaction_rate(pstar, Phase.INSIDE, 0.0) == 1.0
        assert reaction_rate(pstar, Phase.INSIDE, 1.0) == pytest.approx(0.75, abs=0)

    def test_reaction_rate_signs(self, pstar, rng):
        vs = rng.uniform(0.0, 20.0, size=200)
        assert np.all(reaction_rate(pstar, Phase.OUTSIDE, vs) <= 0.0)
        assert np.all(reaction_rate(pstar, Phase.INSIDE, vs) > 0.0)

    def test_reaction_rate_domain(self, pstar):
        with pytest.raises(ValueError):
            reaction_rate(pstar, Phase.INSIDE, -0.1)

    def test_front_speed_examples(self, pstar):
        assert front_speed(pstar, 0.0) == 1.0
        assert front_speed(pstar, 0.5) == 0.0
        assert front_speed(pstar, 1.0) == -1.0


class TestAntiderivatives:
    def test_outside_zero_at_reference(self, pstar):
        assert antiderivative_outside(pstar, 1.0) == 0.0

    def test_outside_value_against_quadrature(self, pstar):
        oracle = quad(lambda s: 1.0 / g_of(pstar, 0, s), 1.0, 0.5, epsabs=1e-13)[0]
        assert oracle == pytest.approx(ANTI_OUT_HALF, abs=1e-12)
        assert antiderivative_outside(pstar, 0.5) == pytest.approx(ANTI_OUT_HALF, abs=1e-12)

    def test_outside_monotone_decreasing(self, pstar, rng):
        vs = np.sort(rng.uniform(0.05, 5.0, size=50))
        vals = antiderivative_outside(pstar, vs)
        assert np.all(np.diff(vals) < 0)

    def test_outside_domain_error(self, pstar):
        with pytest.raises(ValueError):
            antiderivative_outside(pstar, 0.0)

    def test_inside_zero_at_zero(self, pstar):
        assert antiderivative_inside(pstar, 0.0) == 0.0

    def test_inside_value_against_quadrature(self, pstar):
        oracle = quad(lambda s: 1.0 / g_of(pstar, 1, s), 0.0, 1.0, epsabs=1e-13)[0]
        assert oracle == pytest.approx(ANTI_IN_ONE, abs=1e-12)
        assert antiderivative_inside(pstar, 1.0) == pytest.approx(ANTI_IN_ONE, abs=1e-12)

    def test_inside_derivative_is_reciprocal_rate(self, pstar):
        # fundamental theorem: d/dv of the antiderivative equals 1/g(1, v)
        v, h = 0.3, 1e-6
        fd = (antiderivative_inside(pstar, v + h) - antiderivative_inside(pstar, v - h)) / (2 * h)
        exact = 1.0 / g_of(pstar, 1, v)
        assert fd == pytest.approx(exact, rel=1e-8)

    def test_quadrature_agreement_on_grids(self, pstar):
        for v in np.linspace(0.1, 4.0, 9):
            q_out = quad(lambda s: 1.0 / g_of(pstar, 0, s), 1.0, v, epsabs=1e-12)[0]
            q_in = quad(lambda s: 1.0 / g_of(pstar, 1, s), 0.0, v, epsabs=1e-12)[0]
            assert antiderivative_outside(pstar, v) == pytest.approx(q_out, abs=1e-9)
            assert antiderivative_inside(pstar, v) == pytest.approx(q_in, abs=1e-9)

    def test_flows_advance_the_antiderivatives_by_t(self, pstar, rng):
        # along v' = g(u, v) the antiderivative of 1/g(u, .) grows at rate 1
        v0, t = rng.uniform(0.05, 4.0, 200), rng.uniform(0.0, 2.0, 200)
        for flow, anti in ((flow_outside, antiderivative_outside), (flow_inside, antiderivative_inside)):
            moved = anti(pstar, flow(pstar, v0, t)) - anti(pstar, v0)
            np.testing.assert_allclose(moved, t, rtol=0, atol=1e-10)


class TestFlows:
    def test_outside_fixed_point_and_identity(self, pstar):
        assert flow_outside(pstar, 0.0, 5.0) == 0.0
        assert flow_outside(pstar, 1.0, 0.0) == 1.0

    def test_outside_keeps_zero_batches_at_positive_zero(self, pstar):
        # the field fold skips the quiescent flow of batches that are all
        # +0.0, so the flow must return exactly +0.0 there, for any t
        ts = [1e-300, 1e-3, 0.5, 1.0, 7.0, 1e3, 1e300]
        for t in ts:
            out = flow_outside(pstar, np.zeros(5), t)
            assert np.all(out == 0.0) and not np.any(np.signbit(out))
        out = flow_outside(pstar, np.zeros(len(ts)), np.array(ts))
        assert np.all(out == 0.0) and not np.any(np.signbit(out))

    def test_outside_derived_value(self, pstar):
        oracle = brentq(lambda v: 3 * (1 - v) - math.log(v) - 1.0, 1e-9, 1.0, xtol=1e-15)
        assert oracle == pytest.approx(FLOW_OUT_1_1, abs=1e-13)
        assert flow_outside(pstar, 1.0, 1.0) == pytest.approx(FLOW_OUT_1_1, abs=1e-11)
        ivp = solve_ivp(
            lambda t, y: [g_of(pstar, 0, y[0])], (0, 1), [1.0],
            method="DOP853", rtol=1e-12, atol=1e-14,
        )
        assert flow_outside(pstar, 1.0, 1.0) == pytest.approx(ivp.y[0, -1], abs=1e-10)

    def test_inside_identity_and_derived_values(self, pstar):
        assert flow_inside(pstar, 0.4, 0.0) == 0.4
        assert flow_inside(pstar, 0.0, 0.1) == pytest.approx(FLOW_IN_0_01, abs=1e-12)
        assert flow_inside(pstar, 0.0, 0.5) == pytest.approx(FLOW_IN_0_05, abs=1e-12)

    def test_inside_time_derivative_matches_rate(self, pstar):
        # flow must satisfy its own ODE, checked by central differences
        h = 1e-6
        val = flow_inside(pstar, 0.0, 0.1)
        fd = (flow_inside(pstar, 0.0, 0.1 + h) - flow_inside(pstar, 0.0, 0.1 - h)) / (2 * h)
        assert fd == pytest.approx(g_of(pstar, 1, val), rel=1e-6)

    def test_outside_bounds_lemma(self, pstar, rng):
        s = rng.uniform(0.0, 5.0, size=2000)
        t = rng.uniform(0.0, 10.0, size=2000)
        out = flow_outside(pstar, s, t)
        assert np.all(out >= 0.0)
        assert np.all(out <= s + 1e-15)

    def test_outside_nonexpansive(self, pstar, rng):
        u = rng.uniform(0.0, 5.0, size=2000)
        v = rng.uniform(0.0, 5.0, size=2000)
        t = rng.uniform(0.0, 10.0, size=2000)
        d = np.abs(flow_outside(pstar, u, t) - flow_outside(pstar, v, t))
        assert np.all(d <= np.abs(u - v) + 1e-12)

    def test_semigroup_both_flows(self, pstar, rng):
        v0 = rng.uniform(0.0, 3.0, size=300)
        s = rng.uniform(0.0, 4.0, size=300)
        t = rng.uniform(0.0, 4.0, size=300)
        two_out = flow_outside(pstar, flow_outside(pstar, v0, s), t)
        one_out = flow_outside(pstar, v0, s + t)
        assert np.max(np.abs(two_out - one_out)) <= 1e-9
        two_in = flow_inside(pstar, flow_inside(pstar, v0, s), t)
        one_in = flow_inside(pstar, v0, s + t)
        assert np.max(np.abs(two_in - one_in)) <= 1e-9

    def test_inside_increasing_and_unbounded(self, pstar):
        ts = np.linspace(0.0, 30.0, 200)
        vals = flow_inside(pstar, 0.0, ts)
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] > pstar.v_star  # crosses the stall level a/b

    def test_tiny_start_decays_exponentially(self, pstar):
        v0 = 1e-16
        out = flow_outside(pstar, v0, 2.0)
        assert out == pytest.approx(v0 * math.exp(-2.0), rel=1e-12)

    def test_flows_match_reference_integrator(self, rng):
        # small version of the acceptance sweep
        for _ in range(10):
            g1, g3, g4 = rng.uniform(0.2, 3.0, size=3)
            g2 = rng.uniform(0.05, 0.95) * g1 * g3
            with np.errstate(all="ignore"):
                import warnings
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    p = Parameters(g1=g1, g2=g2, g3=g3, g4=g4, a=1, b=2)
            v0 = rng.uniform(0.0, 5.0)
            t = rng.uniform(0.01, 10.0)
            for u, flow in ((0, flow_outside), (1, flow_inside)):
                ref = solve_ivp(
                    lambda s, y: [g_of(p, u, max(y[0], 0.0))], (0, t), [v0],
                    method="DOP853", rtol=1e-11, atol=1e-13,
                ).y[0, -1]
                assert flow(p, v0, t) == pytest.approx(ref, abs=1e-8)

    def test_domain_errors(self, pstar):
        with pytest.raises(ValueError):
            flow_outside(pstar, -0.5, 1.0)
        with pytest.raises(ValueError):
            flow_inside(pstar, 0.5, -1.0)
        # a negative t as a Python float, a numpy float, a 0-d array or an
        # array entry, and a negative v0 entry, for either flow
        for flow in (flow_inside, flow_outside):
            for t in (-1.0, np.float64(-1.0), np.asarray(-1.0), np.array([1.0, -1.0])):
                with pytest.raises(ValueError, match="requires t >= 0"):
                    flow(pstar, np.array([0.5, 0.5]), t)
            for v0 in (-0.5, np.array([0.5, -0.5])):
                with pytest.raises(ValueError, match="requires v0 >= 0"):
                    flow(pstar, v0, 1.0)

    def test_vectorized_matches_scalar(self, pstar, rng):
        # fixed iteration counts: an entry's value does not depend on its batch
        v0 = rng.uniform(0.0, 3.0, size=200)
        t = rng.uniform(0.0, 5.0, size=200)
        for flow in (flow_inside, flow_outside):
            vec = flow(pstar, v0, t)
            assert [flow(pstar, a, b) for a, b in zip(v0, t)] == vec.tolist()
            # one time for the whole batch, as a Python float, a numpy float,
            # a 0-d array or an array, and t = 0: every form gives the same
            # bits, and those of one-point calls
            for one in (1.7, 0.0):
                vecs = [flow(pstar, v0, t) for t in (one, np.float64(one), np.asarray(one), np.full(v0.shape, one))]
                for vec in vecs:
                    assert vec.shape == v0.shape and vec.tobytes() == vecs[0].tobytes()
                assert [flow(pstar, a, one) for a in v0] == vecs[0].tolist()
            assert flow(pstar, v0, 0.0).tolist() == v0.tolist()


def _random_parameters(rng, n):
    """n random kinetics with g2 up to 0.95*g1*g3, plus that edge itself:
    kappa = g1*g3/g2 = 1/0.95, nearest 1."""
    sets = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(n):
            g1, g3, g4 = rng.uniform(0.2, 3.0, size=3)
            g2 = rng.uniform(0.05, 0.95) * g1 * g3
            sets.append(Parameters(g1=g1, g2=g2, g3=g3, g4=g4, a=1, b=2))
        sets.append(Parameters(g1=1.0, g2=0.95 * 3.0, g3=3.0, g4=1.0, a=1, b=2))
    return sets


class TestClosedForms:
    """Both flows against scipy's special functions over v0 in [1e-12, 50]
    (plus 0 and 1e-300) and t in [1e-9, 80]."""

    @staticmethod
    def _samples(rng, n=400):
        v0 = np.exp(rng.uniform(math.log(1e-12), math.log(50.0), n))
        v0[:2] = (0.0, 1e-300)
        t = np.exp(rng.uniform(math.log(1e-9), math.log(80.0), n))
        return v0, t

    def test_outside_is_wright_omega(self, rng):
        # y = (g3/g4) v keeps y + ln y + (g2/g4) t constant
        for p in _random_parameters(rng, 40):
            v0, t = self._samples(rng)
            out = flow_outside(p, v0, t)
            assert np.all(np.isfinite(out)) and np.all(out >= 0.0)
            y0 = (p.g3 / p.g4) * v0
            with np.errstate(divide="ignore"):
                L = y0 + np.log(y0) - (p.g2 / p.g4) * t
            ref = (p.g4 / p.g3) * wrightomega(L)
            np.testing.assert_allclose(out, ref, rtol=1e-12, atol=np.finfo(float).tiny)
            assert out[0] == 0.0

    def test_inside_is_lambert_w_minus_one(self, rng):
        # u = A v / B solves kappa u - log1p(u) = R, i.e.
        # u = -W_{-1}(-kappa exp(-kappa - R)) / kappa - 1
        checked = 0
        for p in _random_parameters(rng, 40):
            v0, t = self._samples(rng)
            out = flow_inside(p, v0, t)
            assert np.all(np.isfinite(out)) and np.all(out >= v0)
            A, B = p.rest_rate_coeffs()
            kappa = p.g1 * p.g3 / p.g2
            u0 = A * v0 / B
            R = kappa * u0 - np.log1p(u0) + t * A * A / (p.g2 * p.g4)
            arg = -kappa * np.exp(-kappa - R)
            u_ref = -lambertw(arg, k=-1).real / kappa - 1.0
            # below u = 1e-2 the reference itself cancels; where the argument
            # underflows it is not defined
            ok = (u_ref >= 1e-2) & (arg <= -np.finfo(float).tiny)
            np.testing.assert_allclose(A * out[ok] / B, u_ref[ok], rtol=1e-12, atol=0)
            checked += int(np.count_nonzero(ok))
        assert checked >= 41 * 400 // 3

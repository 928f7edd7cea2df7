import math

import numpy as np
import pytest

from frontsim import IntervalSet, Parameters, Profile
from frontsim.kinetics import flow_inside, flow_outside
from frontsim.weak import run_weak


@pytest.fixture(scope="session")
def pstar():
    return Parameters(g1=1.0, g2=1.0, g3=3.0, g4=1.0, a=1.0, b=2.0)


def expanding_setup(p):
    return IntervalSet((-1.0, 1.0)), Profile.constant(0.0, (-16.0, 16.0))


def shrinking_setup(p):
    return IntervalSet((-1.0, 1.0)), Profile.constant(1.0, (-16.0, 16.0))


def merge_setup(p):
    return IntervalSet((-3.0, -1.0, 1.0, 3.0)), Profile.constant(0.0, (-16.0, 16.0))


# the time the excited flow takes from v = 0 to 2a/b, with the presets'
# kinetics: the width, divided by a, of a steady traveling pulse, whose back
# moves at b*v - a = a where v = 2a/b
TAU_STAR = 1.5 - math.log(3.0) / 4.0


def behind_front(p, xi):
    """The steady pulse's v at distance xi >= 0 behind its front: the excited
    flow from 0 up to its back, the quiescent flow from 2a/b behind it."""
    width = p.a * TAU_STAR
    inside = flow_inside(p, 0.0, np.minimum(xi, width) / p.a)
    return np.where(xi <= width, inside, flow_outside(p, 2.0 * p.a / p.b, np.maximum(xi - width, 0.0) / p.a))


def pulse_setup(p, n: int, gap: float | None = None):
    """A pulse moving right with its front at 0, and, given a gap, its mirror
    image moving left with its front at gap; v0 on n knots evenly spaced over
    12 units behind each front, and 0 ahead of them."""
    xi = np.linspace(0.0, 12.0, n)
    width = p.a * TAU_STAR
    if gap is None:
        return IntervalSet((-width, 0.0)), Profile(-xi[::-1], behind_front(p, xi[::-1]))
    xs = np.concatenate([-xi[::-1], gap + xi])
    vs = np.concatenate([behind_front(p, xi[::-1]), behind_front(p, xi)])
    return IntervalSet((-width, 0.0, gap, gap + width)), Profile(xs, vs)


@pytest.fixture(scope="session")
def expanding_run(pstar):
    omega, v0 = expanding_setup(pstar)
    return run_weak(pstar, omega, v0, 2.0)


@pytest.fixture(scope="session")
def shrinking_run(pstar):
    omega, v0 = shrinking_setup(pstar)
    return run_weak(pstar, omega, v0, 2.0)


@pytest.fixture(scope="session")
def merge_run(pstar):
    omega, v0 = merge_setup(pstar)
    return run_weak(pstar, omega, v0, 3.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)

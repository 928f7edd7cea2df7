"""Exact kinetics of the recovery field.

The recovery variable obeys v' = g(u, v) with u in {0, 1} and

    g(u, v) = g1*u - g2*v / (g3*v + g4),

and interfaces of the excited set move at speed +-W(v) with W(v) = a - b*v.
Both flow maps of v' = g(u, v) have closed forms: the quiescent flow (u = 0) is
a Wright omega function, the excited flow (u = 1) a W_{-1} Lambert function
written in log1p form.  Each is evaluated with a fixed number of
Fritsch-Shafer-Crowley or Halley steps from an explicit start, so every entry
of a batch gets exactly the value a scalar call gives.  Everything here is
pure, immutable after construction, and accepts scalars or numpy arrays.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "Phase",
    "Parameters",
    "reaction_rate",
    "front_speed",
    "antiderivative_outside",
    "antiderivative_inside",
    "flow_outside",
    "flow_inside",
]


class Phase(IntEnum):
    """Which reaction branch a point sees: u = 0 outside the excited set, 1 inside."""

    OUTSIDE = 0
    INSIDE = 1


@dataclass(frozen=True)
class Parameters:
    """Kinetic constants, wave-speed coefficients and the reference level M.

    Requires g1*g3 > g2 so that g(1, v) > 0 for every v >= 0; a warning is
    emitted when the stronger condition g1*g3 > 2*g2 fails, since parts of the
    theory assume it.  M only shifts the outside antiderivative: flow outputs
    are independent of it (set it to max(1, sup v0) by convention).
    """

    g1: float
    g2: float
    g3: float
    g4: float
    a: float
    b: float
    M: float = 1.0

    def __post_init__(self) -> None:
        for name in ("g1", "g2", "g3", "g4", "a", "b"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"parameter {name} must be strictly positive")
        if not self.M > 0.0:
            raise ValueError("reference level M must be positive")
        if not self.g1 * self.g3 > self.g2:
            raise ValueError(
                "require g1*g3 > g2 so the excited reaction rate stays positive "
                f"(got g1*g3 = {self.g1 * self.g3!r}, g2 = {self.g2!r})"
            )
        if not self.strong_A:
            warnings.warn(
                "g1*g3 <= 2*g2: the strong parameter assumption fails; "
                "results are still well defined but outside the usual regime",
                UserWarning,
                stacklevel=2,
            )

    @property
    def strong_A(self) -> bool:
        """Whether the strong constraint g1*g3 > 2*g2 holds."""
        return self.g1 * self.g3 > 2.0 * self.g2

    @property
    def v_star(self) -> float:
        """The unique zero a/b of the speed law W."""
        return self.a / self.b

    def rest_rate_coeffs(self) -> tuple[float, float]:
        """(A, B) with g(1, v) = (A*v + B) / (g3*v + g4); both positive."""
        return self.g1 * self.g3 - self.g2, self.g1 * self.g4


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _scalar_like(out: np.ndarray, *inputs) -> np.ndarray | float:
    if all(np.ndim(v) == 0 for v in inputs):
        return float(out)
    return out


def reaction_rate(p: Parameters, phase: Phase, v) -> np.ndarray | float:
    """g(u, v) = g1*u - g2*v/(g3*v + g4) for v >= 0."""
    varr = _as_float_array(v)
    if np.any(varr < 0.0):
        raise ValueError("reaction_rate requires v >= 0")
    out = p.g1 * float(int(phase)) - p.g2 * varr / (p.g3 * varr + p.g4)
    return _scalar_like(out, v)


def front_speed(p: Parameters, v) -> np.ndarray | float:
    """W(v) = a - b*v; positive below a/b, negative above."""
    varr = _as_float_array(v)
    return _scalar_like(p.a - p.b * varr, v)


def antiderivative_outside(p: Parameters, v) -> np.ndarray | float:
    """Antiderivative of 1/g(0, .) evaluated from the reference level M.

    Closed form -(g3/g2)*(v - M) - (g4/g2)*ln(v/M); strictly decreasing, zero
    at v = M, and divergent as v -> 0+ (hence the v > 0 requirement).
    """
    varr = _as_float_array(v)
    if np.any(varr <= 0.0):
        raise ValueError("antiderivative_outside requires v > 0 (diverges at 0)")
    out = -(p.g3 / p.g2) * (varr - p.M) - (p.g4 / p.g2) * np.log(varr / p.M)
    return _scalar_like(out, v)


def antiderivative_inside(p: Parameters, v) -> np.ndarray | float:
    """Antiderivative of 1/g(1, .) evaluated from 0.

    With A = g1*g3 - g2 and B = g1*g4 the closed form is
    (g3/A)*v - (g2*g4/A^2)*ln((A*v + B)/B); strictly increasing, zero at 0.
    """
    varr = _as_float_array(v)
    if np.any(varr < 0.0):
        raise ValueError("antiderivative_inside requires v >= 0")
    A, B = p.rest_rate_coeffs()
    out = (p.g3 / A) * varr - (p.g2 * p.g4 / A**2) * np.log1p(A * varr / B)
    return _scalar_like(out, v)


# From the starts below these counts reach rounding level for every admissible
# input, so a value never depends on the other entries of its batch.
_FSC_STEPS = 2
_HALLEY_STEPS = 3


def _flow_args(name: str, v0, t) -> tuple[np.ndarray, np.ndarray | float]:
    """v0 as a float array and t as a float array or, when it is a Python or
    numpy float, a float; both checked non-negative.

    Neither is broadcast here: the flows' arithmetic broadcasts them, so a
    float t (one time for a batch of v0) costs nothing per entry.
    """
    v0a = _as_float_array(v0)
    ta = float(t) if isinstance(t, float) else _as_float_array(t)
    if np.count_nonzero(v0a < 0.0):
        raise ValueError(f"{name} requires v0 >= 0")
    if np.count_nonzero(ta < 0.0):
        raise ValueError(f"{name} requires t >= 0")
    return v0a, ta


def _positive_float(ta) -> bool:
    """Whether t is one time after 0, so that no entry keeps its v0."""
    return isinstance(ta, float) and ta > 0.0


def _wright_omega(L: np.ndarray) -> np.ndarray:
    """Real Wright omega function: the y > 0 with y + ln y = L.

    Starts from e^L below L = -1.5, from the quadratic Taylor polynomial
    about L = 1 on [-1.5, 1] and from L - ln L above, then takes
    Fritsch-Shafer-Crowley steps (fourth order).  y = 0 where e^L underflows,
    L = -inf included.  The start is built by copying each piece over the
    one before it, and each step updates y in place, with the operations of
    y * (1 + r/s * (q - r/2) / (q - r)), r = L - y - ln y, s = 1 + y and
    q = s*(s + 2r/3).  Call it under np.errstate(divide, invalid and over
    "ignore"): the pieces not taken and the underflowed entries give inf and
    nan.
    """
    y = np.asarray(L - np.log(L))  # an array even for a 0-d L
    d = L - 1.0
    np.copyto(y, 1.0 + d * (0.5 + d / 16.0), where=L <= 1.0)
    np.copyto(y, np.exp(L), where=L < -1.5)
    live = y > 0.0
    for _ in range(_FSC_STEPS):
        r = L - y
        r -= np.log(y)
        s = y + 1.0
        q = r * (2.0 / 3.0)
        q += s
        q *= s
        u = q - r * 0.5
        q -= r
        r /= s
        r *= u
        r /= q
        r += 1.0
        y *= r
    return np.where(live, y, 0.0)


def _log1p_root(kappa: float, u0: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The u >= u0 with kappa*u - log1p(u) = R, for kappa > 1.

    w = kappa*(1 + u) solves w - ln w = X on the W_{-1} branch (w >= 1).  The
    start is the branch-point series of w below X = 2 and its asymptotic
    expansion above, raised to at least u0.  Halley steps then act on the
    log1p form, which is convex and increasing with slope >= kappa - 1 and
    keeps small u accurate.
    """
    X = R + kappa - math.log(kappa)
    p = np.sqrt(2.0 * np.maximum(X - 1.0, 0.0))
    lx = np.log(X)
    w = np.where(X < 2.0, 1.0 + p * (1.0 + p * (1.0 / 3.0 + p / 36.0)), X + lx + lx / X)
    u = np.maximum(u0, w / kappa - 1.0)
    for _ in range(_HALLEY_STEPS):
        s = 1.0 + u
        f = kappa * u - np.log1p(u) - R
        d1 = kappa - 1.0 / s
        u = u - 2.0 * f * d1 / (2.0 * d1 * d1 - f / (s * s))
    return u


def flow_outside(p: Parameters, v0, t) -> np.ndarray | float:
    """Exact solution at time t of v' = g(0, v), v(0) = v0 (v0, t >= 0).

    Strictly decreasing toward 0, never negative, and nonexpansive in v0.
    With y = (g3/g4)*v the flow keeps y + ln y + (g2/g4)*t constant, so
    v = (g4/g3)*omega(L) with L = y0 + ln y0 - (g2/g4)*t and omega the Wright
    omega function.  v0 = 0 gives L = -inf and stays 0; a tiny v0 decays as
    v0*exp(-g2*t/g4).
    """
    v0a, ta = _flow_args("flow_outside", v0, t)
    y0 = (p.g3 / p.g4) * v0a
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        L = y0 + np.log(y0) - (p.g2 / p.g4) * ta
        out = (p.g4 / p.g3) * _wright_omega(L)
    if not _positive_float(ta):
        out = np.where(ta > 0.0, out, v0a)
    return _scalar_like(out, v0, t)


def flow_inside(p: Parameters, v0, t) -> np.ndarray | float:
    """Exact solution at time t of v' = g(1, v), v(0) = v0 (v0, t >= 0).

    Strictly increasing and unbounded in t since g(1, v) >= g1 - g2/g3 > 0.
    With u = A*v/B and kappa = g1*g3/g2 > 1 the flow keeps
    kappa*u - log1p(u) - t*A^2/(g2*g4) constant.
    """
    v0a, ta = _flow_args("flow_inside", v0, t)
    A, B = p.rest_rate_coeffs()
    kappa = p.g1 * p.g3 / p.g2
    u0 = (A / B) * v0a
    R = kappa * u0 - np.log1p(u0) + (A * A / (p.g2 * p.g4)) * ta
    out = (B / A) * _log1p_root(kappa, u0, R)
    if not _positive_float(ta):
        out = np.where(ta > 0.0, out, v0a)
    return _scalar_like(out, v0, t)

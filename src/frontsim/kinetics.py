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
The flows' constants are read-only 0-d float64 arrays, not Python floats,
since a ufunc takes a 0-d operand at about half a float's fixed cost with
the same bits, and on the few points of a step's field read that fixed cost
is the work.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

__all__ = [
    "Phase",
    "Parameters",
    "reaction_rate",
    "front_speed",
    "flow_outside",
    "flow_inside",
]


class Phase(IntEnum):
    """Which reaction branch a point sees: u = 0 outside the excited set, 1 inside."""

    OUTSIDE = 0
    INSIDE = 1


@dataclass(frozen=True)
class Parameters:
    """Kinetic constants g1..g4 and the speed law's coefficients a, b.

    Requires g1*g3 > g2 so that g(1, v) > 0 for every v >= 0; a warning is
    emitted when the stronger condition g1*g3 > 2*g2 fails, since parts of the
    theory assume it.
    """

    g1: float
    g2: float
    g3: float
    g4: float
    a: float
    b: float

    def __post_init__(self) -> None:
        for name in ("g1", "g2", "g3", "g4", "a", "b"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"parameter {name} must be strictly positive")
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

    @cached_property
    def _flow_constants(self) -> tuple[np.ndarray, ...]:
        """The factors of v in the two flows' closed forms as 0-d arrays,
        made on first use (the fields are frozen): g3/g4 and g4/g3 of the
        quiescent flow, then A/B, B/A, kappa = g1*g3/g2 and log(kappa) of
        the excited one.  Each flow's factor of t stays a float, since t is
        one on the hot path and so is their product."""
        A, B = self.rest_rate_coeffs()
        kappa = self.g1 * self.g3 / self.g2
        return _constants(self.g3 / self.g4, self.g4 / self.g3, A / B, B / A, kappa, math.log(kappa))


def _constants(*values: float) -> tuple[np.ndarray, ...]:
    """Each value as a read-only 0-d float64 array."""
    out = tuple(np.array(v, dtype=float) for v in values)
    for a in out:
        a.flags.writeable = False
    return out


def _scalar_like(out: np.ndarray, *inputs) -> np.ndarray | float:
    if all(np.ndim(v) == 0 for v in inputs):
        return float(out)
    return out


def reaction_rate(p: Parameters, phase: Phase | np.ndarray, v) -> np.ndarray | float:
    """g(u, v) = g1*u - g2*v/(g3*v + g4) for v >= 0, with u the phase as 0
    or 1: a Phase, or a bool array (True inside) that broadcasts with v."""
    varr = np.asarray(v, dtype=float)
    if np.any(varr < 0.0):
        raise ValueError("reaction_rate requires v >= 0")
    out = p.g1 * np.asarray(phase, dtype=float) - p.g2 * varr / (p.g3 * varr + p.g4)
    return _scalar_like(out, phase, v)


def front_speed(p: Parameters, v) -> np.ndarray | float:
    """W(v) = a - b*v; positive below a/b, negative above."""
    varr = np.asarray(v, dtype=float)
    return _scalar_like(p.a - p.b * varr, v)


# From the starts below these counts reach rounding level for every admissible
# input, so a value never depends on the other entries of its batch.
_FSC_STEPS = 2
_HALLEY_STEPS = 3

_ZERO, _HALF, _ONE, _TWO, _THIRD, _TWO_THIRDS, _M1_5, _SIXTEEN, _THIRTY_SIX = _constants(
    0.0, 0.5, 1.0, 2.0, 1.0 / 3.0, 2.0 / 3.0, -1.5, 16.0, 36.0
)


def _flow_args(name: str, v0, t) -> tuple[np.ndarray, np.ndarray | float]:
    """v0 as a float array and t as a float array or, when it is a Python or
    numpy float, a float; both checked non-negative.

    Neither is broadcast here: the flows' arithmetic broadcasts them, so a
    float t (one time for a batch of v0) costs nothing per entry.
    """
    v0a = np.asarray(v0, dtype=float)
    if np.count_nonzero(v0a < _ZERO):
        raise ValueError(f"{name} requires v0 >= 0")
    if isinstance(t, float):
        if t < 0.0:
            raise ValueError(f"{name} requires t >= 0")
        return v0a, float(t)
    ta = np.asarray(t, dtype=float)
    if np.count_nonzero(ta < _ZERO):
        raise ValueError(f"{name} requires t >= 0")
    return v0a, ta


def _flow_result(out, v0a: np.ndarray, ta: np.ndarray | float) -> np.ndarray | float:
    """The flow's values: v0 where t is not after 0, a float for a scalar
    v0 and t."""
    if not (isinstance(ta, float) and ta > 0.0):
        out = np.where(ta > _ZERO, out, v0a)
    if v0a.ndim == 0 and np.ndim(ta) == 0:
        return float(out)
    return out


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
    d = L - _ONE
    np.copyto(y, _ONE + d * (_HALF + d / _SIXTEEN), where=L <= _ONE)
    np.copyto(y, np.exp(L), where=L < _M1_5)
    underflowed = ~(y > _ZERO)
    for _ in range(_FSC_STEPS):
        r = L - y
        r -= np.log(y)
        s = y + _ONE
        q = r * _TWO_THIRDS
        q += s
        q *= s
        u = q - r * _HALF
        q -= r
        r /= s
        r *= u
        r /= q
        r += _ONE
        y *= r
    np.copyto(y, _ZERO, where=underflowed)
    return y


def _log1p_root(kappa: np.ndarray, log_kappa: np.ndarray, u0: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The u >= u0 with kappa*u - log1p(u) = R, for kappa > 1.

    w = kappa*(1 + u) solves w - ln w = X on the W_{-1} branch (w >= 1).  The
    start is the branch-point series of w below X = 2 and its asymptotic
    expansion above, raised to at least u0.  Halley steps then act on the
    log1p form, which is convex and increasing with slope >= kappa - 1 and
    keeps small u accurate.
    """
    X = R + kappa - log_kappa
    p = np.sqrt(_TWO * np.maximum(X - _ONE, _ZERO))
    lx = np.log(X)
    w = np.asarray(X + lx + lx / X)  # an array even for a 0-d X
    np.copyto(w, _ONE + p * (_ONE + p * (_THIRD + p / _THIRTY_SIX)), where=X < _TWO)
    u = np.maximum(u0, w / kappa - _ONE)
    for _ in range(_HALLEY_STEPS):
        s = _ONE + u
        f = kappa * u - np.log1p(u) - R
        d1 = kappa - _ONE / s
        u = u - _TWO * f * d1 / (_TWO * d1 * d1 - f / (s * s))
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
    y_per_v, v_per_y = p._flow_constants[:2]
    y0 = y_per_v * v0a
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        L = y0 + np.log(y0) - (p.g2 / p.g4) * ta
        out = v_per_y * _wright_omega(L)
    return _flow_result(out, v0a, ta)


def flow_inside(p: Parameters, v0, t) -> np.ndarray | float:
    """Exact solution at time t of v' = g(1, v), v(0) = v0 (v0, t >= 0).

    Strictly increasing and unbounded in t since g(1, v) >= g1 - g2/g3 > 0.
    With u = A*v/B and kappa = g1*g3/g2 > 1 the flow keeps
    kappa*u - log1p(u) - t*A^2/(g2*g4) constant.
    """
    v0a, ta = _flow_args("flow_inside", v0, t)
    A, _ = p.rest_rate_coeffs()
    u_per_v, v_per_u, kappa, log_kappa = p._flow_constants[2:]
    u0 = u_per_v * v0a
    R = kappa * u0 - np.log1p(u0) + (A * A / (p.g2 * p.g4)) * ta
    out = v_per_u * _log1p_root(kappa, log_kappa, u0, R)
    return _flow_result(out, v0a, ta)

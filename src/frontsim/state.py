"""Problem state: the excited set as a finite interval union and the recovery
profile as a piecewise-linear bounded Lipschitz function, plus the structural
and non-degeneracy validation applied to initial data."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kinetics import Parameters, front_speed

__all__ = [
    "IntervalSet",
    "Profile",
    "H2Violation",
    "EndpointCheck",
    "validate_initial",
    "default_margin",
]


class H2Violation(ValueError):
    """The speed law vanishes (within the margin) at an initial endpoint.

    Carries the offending endpoint checks; starting a run from such data is
    ill posed (two distinct continuations exist).
    """

    def __init__(self, message: str, offenders: tuple["EndpointCheck", ...]):
        super().__init__(message)
        self.offenders = offenders


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint open intervals, stored as a flat strictly
    increasing endpoint sequence (l1, r1, l2, r2, ...) of finite numbers.
    """

    endpoints: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(x) for x in self.endpoints)
        object.__setattr__(self, "endpoints", pts)
        if len(pts) % 2 != 0:
            raise ValueError("interval set needs an even number of endpoints")
        for i in range(len(pts) - 1):
            if not pts[i] < pts[i + 1]:
                raise ValueError(
                    f"endpoints must be strictly increasing; got {pts[i]!r} >= {pts[i + 1]!r} "
                    "(overlapping or degenerate intervals)"
                )
        if not all(math.isfinite(x) for x in pts):
            raise ValueError("endpoints must be finite")

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @property
    def m(self) -> int:
        """Number of interval components."""
        return len(self.endpoints) // 2

    @property
    def pairs(self) -> tuple[tuple[float, float], ...]:
        e = self.endpoints
        return tuple((e[2 * j], e[2 * j + 1]) for j in range(self.m))


@dataclass(frozen=True)
class Profile:
    """Piecewise-linear sample of a non-negative bounded Lipschitz function.

    Linear interpolation between samples, constant extension outside them.
    The sup bound is recorded at construction.
    """

    xs: np.ndarray
    vs: np.ndarray
    bound: float = field(init=False)

    def __post_init__(self) -> None:
        xs = np.atleast_1d(np.asarray(self.xs, dtype=float))
        vs = np.atleast_1d(np.asarray(self.vs, dtype=float))
        if xs.ndim != 1 or xs.shape != vs.shape or xs.size == 0:
            raise ValueError("profile needs matching 1-D sample arrays")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("profile abscissae must be strictly increasing")
        if np.any(vs < 0.0):
            raise ValueError("profile values must be non-negative")
        if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(vs)):
            raise ValueError("profile samples must be finite")
        xs.setflags(write=False)
        vs.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vs", vs)
        object.__setattr__(self, "bound", float(np.max(vs)))

    @classmethod
    def constant(cls, value: float, span: tuple[float, float] = (0.0, 1.0)) -> "Profile":
        lo, hi = span
        return cls(np.array([lo, hi]), np.array([value, value], dtype=float))

    def eval(self, x) -> np.ndarray | float:
        xs = np.asarray(x, dtype=float)
        out = np.interp(xs, self.xs, self.vs)
        return float(out) if xs.ndim == 0 else out


@dataclass(frozen=True)
class EndpointCheck:
    k: int                  # 1-based endpoint index; odd = left end of a component
    position: float
    v0: float
    speed: float            # W(v0) at the endpoint
    velocity: float         # actual endpoint velocity (-1)^k * W(v0)


def default_margin(p: Parameters) -> float:
    """Default degeneracy margin for the |W| != 0 endpoint condition."""
    return 1e-6 * max(p.a, p.b * p.M)


def validate_initial(
    p: Parameters,
    omega: IntervalSet,
    v0: Profile,
    margin: float | None = None,
) -> tuple[EndpointCheck, ...]:
    """Check the structural hypotheses and the endpoint non-degeneracy.

    Accepts iff the interval set is a valid disjoint finite union, the profile
    is non-negative, and |W(v0(x))| >= margin at every endpoint of omega.
    Returns one check per endpoint, recording W there, whose sign fixes the
    initial direction of motion.  v0 is evaluated once, at all endpoints
    together.  Raises H2Violation listing the degenerate endpoints.
    """
    eta = default_margin(p) if margin is None else float(margin)
    if eta <= 0.0:
        raise ValueError("degeneracy margin must be positive")

    checks = []
    if omega.endpoints:
        v_at = np.asarray(v0.eval(np.asarray(omega.endpoints)), dtype=float).tolist()
        for k, (x, v_here) in enumerate(zip(omega.endpoints, v_at), start=1):
            w = float(front_speed(p, v_here))
            checks.append(EndpointCheck(k=k, position=x, v0=v_here, speed=w, velocity=(-1.0) ** k * w))
    offenders = tuple(c for c in checks if abs(c.speed) < eta)
    if offenders:
        where = ", ".join(f"x_{c.k}={c.position:g} (W={c.speed:.3e})" for c in offenders)
        raise H2Violation(
            f"speed law degenerate at initial endpoint(s): {where}; "
            f"|W| >= {eta:.3e} required for a well-posed start",
            offenders,
        )
    return tuple(checks)

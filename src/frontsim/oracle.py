"""Independent cross-validation against the underlying reaction-diffusion model.

The front-tracking dynamics is the small-parameter limit of the two-component
system

    u_t = u_xx + (f_eps(u) - eps*beta*v) / eps^2,
    v_t = g(u, v),                    f_eps(u) = u*(1-u)*(u - 1/2 + eps*alpha),

with the wave-speed coefficients related by a = sqrt(2)*alpha and
b = 6*sqrt(2)*beta.  This module solves that system directly with an explicit
centered finite-difference scheme (Neumann boundaries), extracts the half-level
crossings of u as interface positions, and compares them with tracked fronts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinetics import Parameters
from .state import IntervalSet, Profile
from .weak import WeakSolution

__all__ = [
    "FHNConfig",
    "FHNState",
    "FHNTrace",
    "FHNBlowUp",
    "DomainTooSmall",
    "InterfaceCountMismatch",
    "ComparisonReport",
    "init_fhn",
    "step_fhn",
    "run_fhn",
    "extract_interfaces",
    "compare_trajectories",
    "eps_sweep",
]

SQRT2 = math.sqrt(2.0)


class FHNBlowUp(RuntimeError):
    """The explicit scheme became unstable (|u| exceeded the blow-up bound)."""


class DomainTooSmall(ValueError):
    """Initial intervals too close to the truncated domain boundary."""


class InterfaceCountMismatch(RuntimeError):
    """Solver and tracker disagree on interface count before any annihilation."""


@dataclass(frozen=True)
class FHNConfig:
    """Discretization of the two-component model on a truncated line with
    homogeneous Neumann boundaries.

    Stability requires dt <= dx^2/2 (explicit diffusion) and dt <= eps^2/4
    (stiff reaction); both are enforced.  `freeze_v` pins v at its initial
    data, which isolates the u-front speed for calibration tests.
    """

    eps: float
    alpha: float
    beta: float
    g1: float
    g2: float
    g3: float
    g4: float
    x_left: float
    x_right: float
    dx: float
    dt: float
    freeze_v: bool = False

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.x_right <= self.x_left:
            raise ValueError("empty domain")
        if self.dx <= 0 or self.dt <= 0:
            raise ValueError("dx and dt must be positive")
        if self.dt > 0.5 * self.dx**2:
            raise ValueError("stability requires dt <= dx^2/2")
        if self.dt > 0.25 * self.eps**2:
            raise ValueError("stiff reaction requires dt <= eps^2/4")

    @property
    def a(self) -> float:
        return SQRT2 * self.alpha

    @property
    def b(self) -> float:
        return 6.0 * SQRT2 * self.beta

    @property
    def grid(self) -> np.ndarray:
        n = int(round((self.x_right - self.x_left) / self.dx)) + 1
        return self.x_left + self.dx * np.arange(n)

    @classmethod
    def for_front_model(
        cls,
        p: Parameters,
        eps: float,
        x_left: float,
        x_right: float,
        *,
        dx: float | None = None,
        dt: float | None = None,
        freeze_v: bool = False,
    ) -> "FHNConfig":
        """Config whose sharp-interface limit carries the given wave speeds."""
        dx = 0.5 * eps if dx is None else dx
        dt = min(0.45 * dx**2, 0.25 * eps**2) if dt is None else dt
        return cls(
            eps=eps,
            alpha=p.a / SQRT2,
            beta=p.b / (6.0 * SQRT2),
            g1=p.g1,
            g2=p.g2,
            g3=p.g3,
            g4=p.g4,
            x_left=x_left,
            x_right=x_right,
            dx=dx,
            dt=dt,
            freeze_v=freeze_v,
        )


@dataclass
class FHNState:
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    t: float


@dataclass
class FHNTrace:
    """Sampled interface trajectories of one finite-difference run."""

    times: np.ndarray
    interfaces: list[np.ndarray]
    final: FHNState
    eps: float


def init_fhn(cfg: FHNConfig, omega: IntervalSet, profile: Profile) -> FHNState:
    """Smoothed indicator of omega (half level exactly at each endpoint) and
    the sampled recovery profile."""
    x = cfg.grid
    margin = 10.0 * cfg.eps
    for l, r in omega.pairs:
        if l - cfg.x_left < margin or cfg.x_right - r < margin:
            raise DomainTooSmall(
                f"interval ({l}, {r}) within {margin} of the domain boundary"
            )
    u = np.zeros_like(x)
    width = 2.0 * SQRT2 * cfg.eps
    for l, r in omega.pairs:
        u += 0.5 * (np.tanh((x - l) / width) + np.tanh((r - x) / width))
    v = np.asarray(profile.eval(x), dtype=float).copy()
    return FHNState(x=x, u=u, v=v, t=0.0)


def _reaction_u(cfg: FHNConfig, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    f = u * (1.0 - u) * (u - 0.5 + cfg.eps * cfg.alpha)
    return (f - cfg.eps * cfg.beta * v) / cfg.eps**2


def _reaction_v(cfg: FHNConfig, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return cfg.g1 * u - cfg.g2 * v / (cfg.g3 * v + cfg.g4)


def _step_arrays(cfg: FHNConfig, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lap = np.empty_like(u)
    inv_dx2 = 1.0 / cfg.dx**2
    lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * inv_dx2
    lap[0] = 2.0 * (u[1] - u[0]) * inv_dx2
    lap[-1] = 2.0 * (u[-2] - u[-1]) * inv_dx2
    u_new = u + cfg.dt * (lap + _reaction_u(cfg, u, v))
    if cfg.freeze_v:
        v_new = v.copy()
    else:
        v_new = v + cfg.dt * _reaction_v(cfg, u, v)
        if np.min(v_new) < -1e-8:
            raise FHNBlowUp(f"recovery field went negative ({np.min(v_new):.3e})")
        np.maximum(v_new, 0.0, out=v_new)
    if np.max(np.abs(u_new)) > 10.0:
        raise FHNBlowUp("u exceeded the blow-up bound; scheme unstable")
    return u_new, v_new


def step_fhn(cfg: FHNConfig, s: FHNState) -> FHNState:
    """One explicit step: centered second difference plus pointwise reactions."""
    u_new, v_new = _step_arrays(cfg, s.u, s.v)
    return FHNState(x=s.x, u=u_new, v=v_new, t=s.t + cfg.dt)


def extract_interfaces(s: FHNState) -> np.ndarray:
    """Positions where u crosses 1/2, by linear interpolation, left to right."""
    d = s.u - 0.5
    sign_change = d[:-1] * d[1:] < 0.0
    idx = np.flatnonzero(sign_change)
    crossings = s.x[idx] + (s.x[idx + 1] - s.x[idx]) * (-d[idx]) / (d[idx + 1] - d[idx])
    exact = np.flatnonzero(d == 0.0)
    if exact.size:
        crossings = np.sort(np.concatenate([crossings, s.x[exact]]))
    return crossings


def run_fhn(
    cfg: FHNConfig,
    omega: IntervalSet,
    profile: Profile,
    t_end: float,
    *,
    sample_dt: float = 0.02,
) -> FHNTrace:
    """March to t_end, recording interface crossings every ~sample_dt."""
    state = init_fhn(cfg, omega, profile)
    u, v = state.u.copy(), state.v.copy()
    n_steps = int(math.ceil(t_end / cfg.dt))
    every = max(1, int(round(sample_dt / cfg.dt)))
    times = [0.0]
    interfaces = [extract_interfaces(state)]
    for n in range(1, n_steps + 1):
        u, v = _step_arrays(cfg, u, v)
        if n % every == 0 or n == n_steps:
            t = n * cfg.dt
            snap = FHNState(x=state.x, u=u, v=v, t=t)
            times.append(t)
            interfaces.append(extract_interfaces(snap))
    final = FHNState(x=state.x, u=u, v=v, t=n_steps * cfg.dt)
    return FHNTrace(times=np.asarray(times), interfaces=interfaces, final=final, eps=cfg.eps)


@dataclass
class ComparisonReport:
    eps: float
    times: np.ndarray
    abs_errors: np.ndarray       # sup over matched interfaces, per sample time
    sup_abs: float
    sup_rel: float
    skipped_times: int           # samples skipped near/after count changes


def compare_trajectories(
    trace: FHNTrace,
    weak: WeakSolution,
    t_max: float,
) -> ComparisonReport:
    """Matched-interface sup errors between a finite-difference run and the
    tracked solution.

    A count disagreement earlier than sqrt(eps) before the first tracked
    annihilation signals an under-resolved run and raises; disagreements near
    or after annihilations only skip the sample (the diffuse model loses its
    interfaces slightly early).
    """
    guard = math.sqrt(trace.eps)
    first_event = min((ev.time for ev in weak.events), default=math.inf)
    times, errs = [], []
    skipped = 0
    for t, pos_fhn in zip(trace.times, trace.interfaces):
        if t > t_max:
            break
        pos_w = weak.interface_positions(float(t))
        if len(pos_fhn) != len(pos_w):
            if t < first_event - guard:
                raise InterfaceCountMismatch(
                    f"{len(pos_fhn)} interfaces in the finite-difference run vs "
                    f"{len(pos_w)} tracked at t={t:g} (first annihilation at {first_event:g})"
                )
            skipped += 1
            continue
        if len(pos_w) == 0:
            continue
        diff = np.abs(np.sort(pos_fhn) - np.sort(pos_w))
        times.append(t)
        errs.append(float(np.max(diff)))
    times = np.asarray(times)
    errs = np.asarray(errs)
    sup_abs = float(np.max(errs)) if errs.size else 0.0
    sup_rel = 0.0
    for t, e in zip(times, errs):
        scale = float(np.min(np.abs(weak.interface_positions(float(t)))))
        sup_rel = max(sup_rel, e / max(scale, 1e-3))
    return ComparisonReport(
        eps=trace.eps,
        times=times,
        abs_errors=errs,
        sup_abs=sup_abs,
        sup_rel=sup_rel,
        skipped_times=skipped,
    )


def eps_sweep(
    p: Parameters,
    omega: IntervalSet,
    profile: Profile,
    weak: WeakSolution,
    eps_list,
    t_end: float,
    *,
    sample_dt: float = 0.02,
) -> list[ComparisonReport]:
    """Run the finite-difference model for each eps and compare with `weak`."""
    reports = []
    speed = p.a + p.b * max(1.0, profile.bound)
    for eps in eps_list:
        lo = min(l for l, _ in omega.pairs) - (10.0 * eps + speed * t_end + 1.0)
        hi = max(r for _, r in omega.pairs) + (10.0 * eps + speed * t_end + 1.0)
        cfg = FHNConfig.for_front_model(p, eps, lo, hi)
        trace = run_fhn(cfg, omega, profile, t_end, sample_dt=sample_dt)
        reports.append(compare_trajectories(trace, weak, t_end))
    return reports

"""Independent cross-validation against the underlying reaction-diffusion model.

The front-tracking dynamics is the small-parameter limit of the two-component
system

    u_t = u_xx + (f_eps(u) - eps*beta*v) / eps^2,
    v_t = g(u, v),                    f_eps(u) = u*(1-u)*(u - 1/2 + eps*alpha),

with the wave-speed coefficients related by a = sqrt(2)*alpha and
b = 6*sqrt(2)*beta.  This module solves that system directly with explicit Euler
and the fourth-order five-point Laplacian (Neumann boundaries) on a grid of
dx = eps (one step, its buffers and its checks: _stepper), extracts the
half-level crossings of u as interface positions, and compares them with
tracked fronts.

The truncated domain needs only the outward front speed a: no front leaves
the fronts' reach IntervalSet.hull(a*t), so eps_sweep's grid spans
hull(a*t_end + 1 + 10*eps), the last two terms for the diffuse front's lag
and tanh tail.
"""
from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .kinetics import Parameters, _constants
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
    "run_fhn",
    "extract_interfaces",
    "compare_trajectories",
    "eps_sweep",
]

SQRT2 = math.sqrt(2.0)


class FHNBlowUp(RuntimeError):
    """The explicit scheme left its range: v reached the pole of the recovery
    kinetics, or |u| exceeded the blow-up bound."""


class DomainTooSmall(ValueError):
    """Initial intervals too close to the truncated domain boundary."""


class InterfaceCountMismatch(RuntimeError):
    """Solver and tracker disagree on interface count before any annihilation."""


@dataclass(frozen=True)
class FHNConfig:
    """Discretization of the two-component model on a truncated line with
    homogeneous Neumann boundaries, for the front model's parameters.

    Its sharp-interface limit carries params' wave speeds: alpha = a/sqrt(2)
    and beta = b/(6*sqrt(2)).  dx defaults to eps and dt to
    min(0.3375*dx^2, eps^2/4), which on the default grid is eps^2/4; then
    every value must be finite, and stability requires dt <= 3*dx^2/8
    (explicit diffusion: the five-point Laplacian's spectral radius is
    16/(3*dx^2)) and dt <= eps^2/4 (stiff reaction), both enforced.
    """

    params: Parameters
    eps: float
    x_left: float
    x_right: float
    _: KW_ONLY
    dx: float | None = None
    dt: float | None = None

    def __post_init__(self) -> None:
        if self.dx is None:
            object.__setattr__(self, "dx", self.eps)
        if self.dt is None:
            object.__setattr__(self, "dt", min(0.3375 * self.dx**2, 0.25 * self.eps**2))
        # nan fails every comparison below, so it would pass them all
        for name in ("eps", "dx", "dt", "x_left", "x_right"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.x_right <= self.x_left:
            raise ValueError("empty domain")
        if self.dx <= 0 or self.dt <= 0:
            raise ValueError("dx and dt must be positive")
        if self.dt > 0.375 * self.dx**2:
            raise ValueError("stability requires dt <= 3*dx^2/8")
        if self.dt > 0.25 * self.eps**2:
            raise ValueError("stiff reaction requires dt <= eps^2/4")

    @property
    def alpha(self) -> float:
        return self.params.a / SQRT2

    @property
    def beta(self) -> float:
        return self.params.b / (6.0 * SQRT2)

    @property
    def grid(self) -> np.ndarray:
        n = int(round((self.x_right - self.x_left) / self.dx)) + 1
        return self.x_left + self.dx * np.arange(n)


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


def _stepper(cfg: FHNConfig, u: np.ndarray, v: np.ndarray):
    """(step, u, v): step() takes one explicit step in place on buffers
    allocated once, and u and v are views of the fields it steps (copies of
    the u and v given, which stay as they are).

    u and v are the interiors of the two rows of one (2, n + 4) buffer, so
    one reduction along the rows gives both minima the checks read.  Each
    step sets u's two ghost cells at each end by even reflection
    (U[0] = U[4], U[1] = U[3], U[-1] = U[-5], U[-2] = U[-4]), the Neumann
    boundary of the five-point Laplacian (-1, 16, -30, 16, -1)/(12*dx^2).
    Diffusion and the reaction cubic fold into

        u_new = ((p3*u + p2)*u + p1)*u
                + (r1*(U[i+1] + U[i-1]) - r2*(U[i+2] + U[i-2])) - kv*v,

    with r = dt/dx^2, r1 = 16r/12, r2 = r/12, k = dt/eps^2,
    c = 1/2 - eps*alpha, p3 = -k, p2 = k(1 + c), p1 = 1 - 2.5r - k*c and
    kv = k*eps*beta, and v += dt*g1*u - dt*g2*v/(g3*v + g4); both read the
    old u and v, and both land in place once every term is read.  The
    constants (and the clamp's 0) are read-only 0-d float64 arrays, not
    floats: a ufunc takes those at a smaller fixed cost with the same bits,
    and at a few hundred cells that fixed cost is most of a step.  step
    reads them, the buffers, their views and the ufuncs as closure
    variables bound here once.

    The checks run in a fixed order after the update: v at or past the pole
    of g2*v/(g3*v + g4) raises FHNBlowUp, that is when min(v)*g3 + g4 is not
    > 0 (so nan raises too); then v is clamped at 0, but only when min(v) is
    not > 0, where the clamp is the identity; then |u| above 10 raises
    FHNBlowUp.
    """
    p = cfg.params
    r = cfg.dt / cfg.dx**2
    k = cfg.dt / cfg.eps**2
    c = 0.5 - cfg.eps * cfg.alpha
    r1, r2, kv, p3, p2, p1, dt_g1, dt_g2, g3, g4, zero = _constants(
        16.0 * r / 12.0, r / 12.0, k * cfg.eps * cfg.beta, -k, k * (1.0 + c), 1.0 - 2.5 * r - k * c,
        cfg.dt * p.g1, cfg.dt * p.g2, p.g3, p.g4, 0.0,
    )
    fields = np.zeros((2, u.size + 4))
    both = fields[:, 2:-2]
    both[0], both[1] = u, v
    u, v = both
    U = fields[0]
    right, left, right2, left2 = U[3:-1], U[1:-3], U[4:], U[:-4]
    s, t, q, z = (np.empty(u.size) for _ in range(4))
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    minimum, maximum = np.minimum, np.maximum

    def step() -> None:
        U[0] = U[4]
        U[1] = U[3]
        U[-1] = U[-5]
        U[-2] = U[-4]
        add(right, left, s)
        mul(s, r1, s)
        add(right2, left2, q)
        mul(q, r2, q)
        sub(s, q, s)
        mul(u, p3, t)
        add(t, p2, t)
        mul(t, u, t)
        add(t, p1, t)
        mul(t, u, t)
        add(t, s, t)
        mul(v, kv, s)
        mul(u, dt_g1, z)
        mul(v, g3, q)
        add(q, g4, q)
        div(v, q, q)
        mul(q, dt_g2, q)
        sub(z, q, z)
        add(v, z, v)
        sub(t, s, u)
        u_min, v_min = minimum.reduce(both, axis=1).tolist()
        if not v_min * p.g3 + p.g4 > 0.0:
            raise FHNBlowUp(f"recovery field reached the pole of g3*v + g4 = 0 (min v = {v_min:.3e})")
        if not v_min > 0.0:
            # numpy deprecates a third positional argument of np.maximum
            maximum(v, zero, out=v)
        if maximum.reduce(u) > 10.0 or u_min < -10.0:
            raise FHNBlowUp("u exceeded the blow-up bound; scheme unstable")

    return step, u, v


def extract_interfaces(s: FHNState) -> np.ndarray:
    """Positions where u crosses 1/2, left to right.

    A crossing lies between two samples on opposite sides of 1/2: between
    neighbours it is their linear interpolation, and across samples exactly
    at 1/2 it is the middle of those samples (the sample itself if only one).
    Samples that touch 1/2 without u crossing it give nothing.
    """
    d = s.u - 0.5
    off = np.flatnonzero(d)
    i, j = off[:-1], off[1:]
    flip = d[i] * d[j] < 0.0
    i, j = i[flip], j[flip]
    between = s.x[i] + (s.x[j] - s.x[i]) * (-d[i]) / (d[j] - d[i])
    return np.where(j == i + 1, between, 0.5 * (s.x[i + 1] + s.x[j - 1]))


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
    step, u, v = _stepper(cfg, state.u, state.v)
    n_steps = int(math.ceil(t_end / cfg.dt))
    every = max(1, int(round(sample_dt / cfg.dt)))
    times = [0.0]
    interfaces = [extract_interfaces(state)]
    for n in range(1, n_steps + 1):
        step()
        if n % every == 0 or n == n_steps:
            t = n * cfg.dt
            snap = FHNState(x=state.x, u=u, v=v, t=t)
            times.append(t)
            interfaces.append(extract_interfaces(snap))
    final = FHNState(x=state.x, u=u.copy(), v=v.copy(), t=n_steps * cfg.dt)
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
    sup_rel = 0.0
    # positions raises past the solution's end, so only times <= t_max
    sampled = trace.times[trace.times <= t_max]
    for t, pos_fhn, row in zip(sampled, trace.interfaces, weak.positions(sampled)):
        pos_w = row[~np.isnan(row)]
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
        err = float(np.max(np.abs(np.sort(pos_fhn) - np.sort(pos_w))))
        scale = float(np.min(np.abs(pos_w)))
        times.append(t)
        errs.append(err)
        sup_rel = max(sup_rel, err / max(scale, 1e-3))
    times = np.asarray(times)
    errs = np.asarray(errs)
    sup_abs = float(np.max(errs)) if errs.size else 0.0
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
    """Run the finite-difference model for each eps and compare with `weak`.

    Each grid spans omega.hull(a*t_end + 1 + 10*eps): no sharp front
    leaves omega.hull(a*t_end) (see IntervalSet.hull), and the 1 + 10*eps
    covers the diffuse front's O(eps) lag and its tanh tail (about 1e-9 at
    the boundary for eps = 0.05).
    """
    reports = []
    for eps in eps_list:
        cfg = FHNConfig(p, eps, *omega.hull(p.a * t_end + 1.0 + 10.0 * eps))
        trace = run_fhn(cfg, omega, profile, t_end, sample_dt=sample_dt)
        reports.append(compare_trajectories(trace, weak, t_end))
    return reports

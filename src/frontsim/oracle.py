"""Independent cross-validation against the underlying reaction-diffusion model.

The front-tracking dynamics is the small-parameter limit of the two-component
system

    u_t = u_xx + (f_eps(u) - eps*beta*v) / eps^2,
    v_t = g(u, v),                    f_eps(u) = u*(1-u)*(u - 1/2 + eps*alpha),

with the wave-speed coefficients related by a = sqrt(2)*alpha and
b = 6*sqrt(2)*beta.  This module solves that system directly with an explicit
centered finite-difference scheme (Neumann boundaries), extracts the half-level
crossings of u as interface positions, and compares them with tracked fronts.

The truncated domain needs only the outward front speed a: an endpoint moves
outward at W(v) = a - b*v <= a because v >= 0, inward motion stays inside
the initial hull and merges create no fronts, so eps_sweep pads the hull of
the initial intervals by a*t_end + 1 + 10*eps on each side, the last two
terms for the diffuse front's lag and tanh tail.

One kernel takes every step, in place on buffers allocated once per run: u
carries a ghost cell at each end, set by even reflection before each step
(the Neumann boundary), and the diffusion and reaction terms fold into one
Horner cubic in u plus the neighbour sum and the v coupling.
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

    A step reads u from a buffer of n + 2 cells whose ghost cells mirror the
    first interior neighbours, so the boundary stencil is 2(u_1 - u_0)/dx^2,
    and writes ((p3*u + p2)*u + p1)*u + (dt/dx^2)*(u_{i+1} + u_{i-1}) -
    (dt*beta/eps)*v into a second buffer, the coefficients fixed per run;
    the two buffers swap, and v is updated in place.
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


class _Kernel:
    """The explicit step, in place on buffers allocated once.

    u lives in the interior of a buffer of n + 2 cells; each step sets the
    two ghost cells by even reflection (U[0] = U[2], U[-1] = U[-3]), which is
    the Neumann stencil 2(u_1 - u_0)/dx^2 at the boundary.  Diffusion and the
    reaction cubic fold into

        u_new = ((p3*u + p2)*u + p1)*u + r*(U[i+1] + U[i-1]) - kv*v,

    with r = dt/dx^2, k = dt/eps^2, c = 1/2 - eps*alpha, p3 = -k,
    p2 = k(1 + c), p1 = 1 - 2r - k*c and kv = k*eps*beta, written into the
    second u buffer; the two buffers swap after each step.  v is updated in
    place from the old u, v += dt*g1*u - dt*g2*v/(g3*v + g4).
    """

    def __init__(self, cfg: FHNConfig, u: np.ndarray, v: np.ndarray) -> None:
        self.cfg = cfg
        r = cfg.dt / cfg.dx**2
        k = cfg.dt / cfg.eps**2
        c = 0.5 - cfg.eps * cfg.alpha
        self.r, self.kv = r, k * cfg.eps * cfg.beta
        self.p3, self.p2, self.p1 = -k, k * (1.0 + c), 1.0 - 2.0 * r - k * c
        self.dt_g1, self.dt_g2 = cfg.dt * cfg.g1, cfg.dt * cfg.g2
        self.g3, self.g4 = cfg.g3, cfg.g4
        # per u buffer: (whole, interior, right neighbours, left neighbours)
        bufs = [np.empty(u.size + 2) for _ in range(2)]
        self._cur, self._nxt = [(b, b[1:-1], b[2:], b[:-2]) for b in bufs]
        self._cur[1][:] = u
        self.v = np.array(v, dtype=float)
        self._s = np.empty(u.size)
        self._s2 = np.empty(u.size)

    @property
    def u(self) -> np.ndarray:
        return self._cur[1]

    def step(self) -> None:
        # ufuncs bound to locals and positional `out`: the per-call dispatch
        # is a sizeable share of a step at a few thousand cells
        mul, add, sub = np.multiply, np.add, np.subtract
        s, v = self._s, self.v
        U, u, right, left = self._cur
        U[0] = U[2]
        U[-1] = U[-3]
        un = self._nxt[1]
        mul(u, self.p3, un)
        add(un, self.p2, un)
        mul(un, u, un)
        add(un, self.p1, un)
        mul(un, u, un)
        add(right, left, s)
        mul(s, self.r, s)
        add(un, s, un)
        mul(v, self.kv, s)
        sub(un, s, un)
        if not self.cfg.freeze_v:
            s2 = self._s2
            mul(v, self.g3, s)
            add(s, self.g4, s)
            np.divide(v, s, s)
            mul(s, self.dt_g2, s)
            mul(u, self.dt_g1, s2)
            sub(s2, s, s2)
            add(v, s2, v)
            v_min = np.minimum.reduce(v)
            if v_min < -1e-8:
                raise FHNBlowUp(f"recovery field went negative ({v_min:.3e})")
            # numpy deprecates a third positional argument of np.maximum
            np.maximum(v, 0.0, out=v)
        if np.maximum.reduce(un) > 10.0 or np.minimum.reduce(un) < -10.0:
            raise FHNBlowUp("u exceeded the blow-up bound; scheme unstable")
        self._cur, self._nxt = self._nxt, self._cur


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
    kernel = _Kernel(cfg, state.u, state.v)
    n_steps = int(math.ceil(t_end / cfg.dt))
    every = max(1, int(round(sample_dt / cfg.dt)))
    times = [0.0]
    interfaces = [extract_interfaces(state)]
    for n in range(1, n_steps + 1):
        kernel.step()
        if n % every == 0 or n == n_steps:
            t = n * cfg.dt
            snap = FHNState(x=state.x, u=kernel.u, v=kernel.v, t=t)
            times.append(t)
            interfaces.append(extract_interfaces(snap))
    final = FHNState(x=state.x, u=kernel.u.copy(), v=kernel.v.copy(), t=n_steps * cfg.dt)
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

    Each grid spans the hull of `omega` padded on each side by
    a*t_end + 1 + 10*eps.  An endpoint moves outward at W(v) = a - b*v <= a,
    since v >= 0 everywhere; inward motion stays inside the initial hull,
    and merges create no fronts, so no sharp front leaves the hull widened
    by a*t_end.  The 1 + 10*eps covers the diffuse front's O(eps) lag and
    its tanh tail (about 1e-9 at the boundary for eps = 0.05).
    """
    reports = []
    for eps in eps_list:
        pad = p.a * t_end + 1.0 + 10.0 * eps
        lo = min(l for l, _ in omega.pairs) - pad
        hi = max(r for _, r in omega.pairs) + pad
        cfg = FHNConfig.for_front_model(p, eps, lo, hi)
        trace = run_fhn(cfg, omega, profile, t_end, sample_dt=sample_dt)
        reports.append(compare_trajectories(trace, weak, t_end))
    return reports

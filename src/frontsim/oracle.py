"""Independent cross-validation against the underlying reaction-diffusion model.

The front-tracking dynamics is the small-parameter limit of the two-component
system

    u_t = u_xx + (f_eps(u) - eps*beta*v) / eps^2,
    v_t = g(u, v),                    f_eps(u) = u*(1-u)*(u - 1/2 + eps*alpha),

with the wave-speed coefficients related by a = sqrt(2)*alpha and
b = 6*sqrt(2)*beta.  This module solves that system directly with explicit Euler
and the fourth-order five-point Laplacian (Neumann boundaries) on a grid of
dx = eps (the step and its checks are stated once, in _stepper), extracts
the half-level crossings of u as interface positions, and compares them
with tracked fronts.

run_fhn takes its steps in a compiled kernel, _fhn_step.c beside this file,
one call per sample interval.  The kernel performs _stepper's IEEE
operations and checks in _stepper's order, so both give the same bits: the
same sample times, interfaces, final fields and FHNBlowUp.  It is built on
the first run_fhn call of a process with sysconfig's CC (or cc) and
_CFLAGS, into __pycache__ beside this file (a private temporary directory
when that is not writable), under a name that carries a hash of the source
and the command; a later process loads that file.  Where it cannot be built
or loaded (no C compiler), run_fhn takes _stepper's numpy step instead; that
is decided once per process.

The truncated domain needs only the outward front speed a: no front leaves
the fronts' reach IntervalSet.hull(a*t), so eps_sweep's grid spans
hull(a*t_end + 1 + 10*eps), the last two terms for the diffuse front's lag
and tanh tail.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import KW_ONLY, dataclass

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


def _step_constants(cfg: FHNConfig) -> tuple[float, ...]:
    """r1, r2, kv, p3, p2, p1, dt*g1, dt*g2, g3, g4: the ten constants of one
    step (see _stepper), for the numpy step and the compiled one alike."""
    p = cfg.params
    r = cfg.dt / cfg.dx**2
    k = cfg.dt / cfg.eps**2
    c = 0.5 - cfg.eps * cfg.alpha
    return (
        16.0 * r / 12.0, r / 12.0, k * cfg.eps * cfg.beta, -k, k * (1.0 + c), 1.0 - 2.5 * r - k * c,
        cfg.dt * p.g1, cfg.dt * p.g2, p.g3, p.g4,
    )


_POLE, _U_BOUND = 1, 2  # the compiled kernel's failure codes


def _blow_up(cfg: FHNConfig, kind: int, n: int, v_min: float) -> FHNBlowUp:
    """The FHNBlowUp of step n (counted from the run's start) failing check
    `kind`; its message carries eps, n and t = n*dt."""
    where = f"at step {n}, t = {n * cfg.dt:.9g}, eps = {cfg.eps!r}"
    if kind == _POLE:
        return FHNBlowUp(f"recovery field reached the pole of g3*v + g4 = 0 (min v = {v_min:.3e}) {where}")
    return FHNBlowUp(f"u exceeded the blow-up bound |u| <= 10 {where}; scheme unstable")


def _stepper(cfg: FHNConfig, u: np.ndarray, v: np.ndarray):
    """(advance, u, v): advance(k) takes k explicit steps in place on copies
    of the u and v given, which stay as they are, and u and v are those
    copies.  This is the step, stated once: _fhn_step.c performs its IEEE
    operations and checks in its order, and so gives the same bits.

    u lives in a row U with two ghost cells a side, set by even reflection
    before each step: the Neumann boundary of the five-point Laplacian
    (-1, 16, -30, 16, -1)/(12*dx^2), whose centre weight enters p1 as -2.5r
    beside the reaction cubic's linear term (_step_constants).  Both
    updates read the old u and v.

    The checks run in this order after the update: v at or past the pole of
    g2*v/(g3*v + g4) raises FHNBlowUp (min(v)*g3 + g4 not > 0, which nan
    fails too); v is clamped at 0 only when min(v) is not > 0, since
    elsewhere the clamp is the identity; |u| above 10 raises FHNBlowUp.
    advance counts steps from the start of the run, and an FHNBlowUp names
    the step.
    """
    r1, r2, kv, p3, p2, p1, dt_g1, dt_g2, g3, g4 = _step_constants(cfg)
    U = np.zeros(u.size + 4)
    U[2:-2] = u
    u, v = U[2:-2], v.copy()
    R, L, R2, L2 = U[3:-1], U[1:-3], U[4:], U[:-4]
    n = 0

    def advance(k: int) -> None:
        nonlocal n
        for _ in range(k):
            n += 1
            U[0] = U[4]
            U[1] = U[3]
            U[-1] = U[-5]
            U[-2] = U[-4]
            lap = (R + L) * r1 - (R2 + L2) * r2
            u_new = ((u * p3 + p2) * u + p1) * u + lap - v * kv
            v[:] = v + (u * dt_g1 - v / (v * g3 + g4) * dt_g2)
            u[:] = u_new
            v_min = v.min()
            if not v_min * g3 + g4 > 0.0:
                raise _blow_up(cfg, _POLE, n, v_min)
            if not v_min > 0.0:
                np.maximum(v, 0.0, out=v)
            if u.max() > 10.0 or u.min() < -10.0:
                raise _blow_up(cfg, _U_BOUND, n, v_min)

    return advance, u, v


_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _compiler() -> list[str]:
    """The C compiler command: sysconfig's CC, else cc."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


@functools.cache
def _kernel():
    """_fhn_step.c's fhn_steps as a ctypes function, or None when it cannot be
    built or loaded; called once per process, on the first run_fhn.

    The shared object is named by a hash of the source and the compiler
    command, so a source or compiler change builds a new one, and a later
    process loads the one it finds.  It lives in __pycache__ beside this
    file, else (not writable) in a private temporary directory removed once
    the file is loaded.
    """
    import ctypes
    import hashlib
    import subprocess
    import tempfile

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(here, "_fhn_step.c")
    cache = os.path.join(here, "__pycache__")
    cmd = [*_compiler(), *_CFLAGS]

    def load(directory, name):
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            # compiled to a temporary name and moved into place, so no
            # process loads a file that another is still writing
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
            os.close(fd)
            try:
                subprocess.run([*cmd, "-o", tmp, src], check=True, capture_output=True, timeout=120)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
        return ctypes.CDLL(path).fhn_steps

    try:
        with open(src, "rb") as fh:
            digest = hashlib.sha256(fh.read() + "\0".join(cmd).encode()).hexdigest()
        name = f"_fhn_step-{digest[:16]}.so"
        try:
            os.makedirs(cache, exist_ok=True)
        except OSError:
            pass  # os.access below finds it not writable
        if os.path.exists(os.path.join(cache, name)) or os.access(cache, os.W_OK):
            fn = load(cache, name)
        else:
            with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as private:
                fn = load(private, name)
    except (OSError, subprocess.SubprocessError):
        return None
    fn.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_long,
        ctypes.POINTER(ctypes.c_long), ctypes.POINTER(ctypes.c_double),
    ]
    fn.restype = ctypes.c_int
    return fn


def _compiled(kernel, cfg: FHNConfig, u: np.ndarray, v: np.ndarray):
    """(advance, u, v) as _stepper's, where advance(k) takes its k steps in
    one call of the compiled kernel."""
    import ctypes

    U = np.zeros(u.size + 4)
    U[2:-2] = u
    u, v = U[2:-2], v.copy()
    scratch = np.empty(u.size)
    consts = np.array(_step_constants(cfg))
    # data_as pointers hold their arrays, so the buffers live as long as advance
    ptr = ctypes.c_void_p
    args = (U.ctypes.data_as(ptr), v.ctypes.data_as(ptr), scratch.ctypes.data_as(ptr), u.size,
            consts.ctypes.data_as(ptr))
    done, v_min = ctypes.c_long(), ctypes.c_double()
    out = (ctypes.byref(done), ctypes.byref(v_min))
    n = 0

    def advance(k: int) -> None:
        nonlocal n
        kind = kernel(*args, k, *out)
        n += done.value
        if kind:
            raise _blow_up(cfg, kind, n, v_min.value)

    return advance, u, v


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
    """March to t_end, recording interface crossings every ~sample_dt: after
    every round(sample_dt/dt) steps (at least 1) and after the last, each
    stretch between samples one advance(k) of the compiled kernel, or of
    _stepper where it does not build.  t_end and sample_dt must be finite
    and > 0 (ValueError)."""
    for name, value in (("t_end", t_end), ("sample_dt", sample_dt)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    state = init_fhn(cfg, omega, profile)
    kernel = _kernel()
    if kernel is None:
        advance, u, v = _stepper(cfg, state.u, state.v)
    else:
        advance, u, v = _compiled(kernel, cfg, state.u, state.v)
    n_steps = int(math.ceil(t_end / cfg.dt))
    every = max(1, int(round(sample_dt / cfg.dt)))
    times = [0.0]
    interfaces = [extract_interfaces(state)]
    n = 0
    while n < n_steps:
        k = min(every, n_steps - n)
        advance(k)
        n += k
        t = n * cfg.dt
        times.append(t)
        interfaces.append(extract_interfaces(FHNState(x=state.x, u=u, v=v, t=t)))
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

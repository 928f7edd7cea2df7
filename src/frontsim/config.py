"""Run configuration: flat INI-style config files, presets, validation."""
from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass

import numpy as np

from .kinetics import Parameters
from .state import IntervalSet, Profile

__all__ = [
    "ConfigError",
    "RunConfig",
    "PRESETS",
    "preset_config",
    "validate_config",
    "load_config_file",
    "apply_env_overrides",
    "ENV_PREFIX",
]

ENV_PREFIX = "FRONTSIM_"

_KNOWN_KEYS = {
    "parameters": {"g1", "g2", "g3", "g4", "a", "b", "m"},
    "initial": {"intervals", "profile", "profile_value", "profile_samples", "profile_file", "profile_span"},
    "run": {"t_end", "tol_step", "tol_event", "eta"},
    "output": {"dir", "trajectory_samples", "field_x", "field_t"},
    "oracle": {"eps", "sample_dt"},
}


class ConfigError(ValueError):
    """Aggregated configuration problems; `errors` lists one message per issue."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


@dataclass
class RunConfig:
    params: Parameters
    omega: IntervalSet
    profile: Profile
    t_end: float
    tol_step: float = 1e-8
    tol_event: float = 1e-10
    eta: float | None = None
    out_dir: str = "out"
    scenario: str | None = None
    oracle_eps: tuple[float, ...] = ()
    oracle_sample_dt: float = 0.02
    trajectory_samples: int = 401
    field_x: tuple[float, float, int] | None = None
    field_t: int = 21

    def __post_init__(self) -> None:
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.tol_step <= 0 or self.tol_event <= 0:
            raise ValueError("tolerances must be positive")


def _auto_span(pairs, pad: float) -> tuple[float, float]:
    lo = min(l for l, _ in pairs)
    hi = max(r for _, r in pairs)
    return lo - pad, hi + pad


_PRESET_PARAMS = Parameters(g1=1, g2=1, g3=3, g4=1, a=1, b=2)

# per-preset fields of the RunConfig; the illposed demo builds its half-line
# start (0, inf) with the degenerate endpoint and its arctan profile itself,
# so its omega and profile below are placeholders the demo never reads
PRESETS = {
    "expanding": dict(
        omega=IntervalSet((-1.0, 1.0)),
        profile=Profile.constant(0.0, (-16.0, 16.0)),
        t_end=2.0,
        field_x=(-5.0, 5.0, 101),
    ),
    "shrinking": dict(
        omega=IntervalSet((-1.0, 1.0)),
        profile=Profile.constant(1.0, (-16.0, 16.0)),
        t_end=2.0,
        field_x=(-3.0, 3.0, 101),
    ),
    "merge": dict(
        omega=IntervalSet((-3.0, -1.0, 1.0, 3.0)),
        profile=Profile.constant(0.0, (-16.0, 16.0)),
        t_end=3.0,
        field_x=(-7.0, 7.0, 141),
    ),
    "illposed": dict(
        omega=IntervalSet.empty(),
        profile=Profile.constant(_PRESET_PARAMS.v_star, (-1.0, 1.0)),
        t_end=0.1,
        field_x=(-0.5, 0.5, 101),
    ),
}


def preset_config(name: str, out_dir: str = "out") -> RunConfig:
    try:
        fields = PRESETS[name]
    except KeyError:
        raise ConfigError([f"unknown preset {name!r}; choose from {sorted(PRESETS)}"]) from None
    return RunConfig(params=_PRESET_PARAMS, **fields, out_dir=out_dir, scenario=name)


def apply_env_overrides(cp: configparser.ConfigParser, environ=None) -> None:
    """Apply FRONTSIM_<SECTION>__<KEY>=value overrides onto parsed config."""
    env = os.environ if environ is None else environ
    for name, value in env.items():
        if not name.startswith(ENV_PREFIX) or "__" not in name:
            continue
        section, key = name[len(ENV_PREFIX):].split("__", 1)
        section, key = section.lower(), key.lower()
        if section not in _KNOWN_KEYS:
            continue
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value)


class _Collector:
    def __init__(self, cp: configparser.ConfigParser):
        self.cp = cp
        self.errors: list[str] = []

    def fail(self, sec: str, key: str, msg: str) -> None:
        self.errors.append(f"{sec}.{key}: {msg}")

    def get_float(self, sec, key, default=None, *, required=False, positive=False):
        raw = self.cp.get(sec, key, fallback=None)
        if raw is None:
            if required:
                self.fail(sec, key, "required value is missing")
            return default
        try:
            val = float(raw)
        except ValueError:
            self.fail(sec, key, f"not a number: {raw!r}")
            return default
        if positive and not val > 0:
            self.fail(sec, key, f"must be positive, got {val!r}")
            return default
        return val

    def get_int(self, sec, key, default=None, *, minimum=None):
        raw = self.cp.get(sec, key, fallback=None)
        if raw is None:
            return default
        try:
            val = int(raw)
        except ValueError:
            self.fail(sec, key, f"not an integer: {raw!r}")
            return default
        if minimum is not None and val < minimum:
            self.fail(sec, key, f"must be >= {minimum}")
            return default
        return val

    def get_floats(self, sec, key, default=None):
        raw = self.cp.get(sec, key, fallback=None)
        if raw is None:
            return default
        try:
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        except ValueError:
            self.fail(sec, key, f"expected a list of numbers, got {raw!r}")
            return default


def validate_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse and validate a config; collects all violations before raising."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"parse error: {exc}"]) from None
    apply_env_overrides(cp)
    col = _Collector(cp)

    for sec in cp.sections():
        if sec not in _KNOWN_KEYS:
            col.errors.append(f"{sec}: unknown section")
            continue
        for key in cp.options(sec):
            if key not in _KNOWN_KEYS[sec]:
                col.fail(sec, key, "unknown key")

    g1 = col.get_float("parameters", "g1", required=True, positive=True)
    g2 = col.get_float("parameters", "g2", required=True, positive=True)
    g3 = col.get_float("parameters", "g3", required=True, positive=True)
    g4 = col.get_float("parameters", "g4", required=True, positive=True)
    a = col.get_float("parameters", "a", required=True, positive=True)
    b = col.get_float("parameters", "b", required=True, positive=True)
    m_raw = cp.get("parameters", "m", fallback="auto")

    intervals = col.get_floats("initial", "intervals")
    if intervals is None:
        col.fail("initial", "intervals", "required value is missing")

    kind = cp.get("initial", "profile", fallback="constant").strip().lower()
    profile = None
    span = col.get_floats("initial", "profile_span", default=None)
    if kind == "constant":
        value = col.get_float("initial", "profile_value", default=0.0)
        if value is not None and value < 0:
            col.fail("initial", "profile_value", "profile values must be non-negative")
            value = 0.0
        if span is not None and len(span) != 2:
            col.fail("initial", "profile_span", "expected two numbers")
            span = None
    elif kind == "samples":
        samples = cp.get("initial", "profile_samples", fallback=None)
        file_ref = cp.get("initial", "profile_file", fallback=None)
        pts = []
        if samples is not None:
            for tok in samples.split(";"):
                tok = tok.strip()
                if not tok:
                    continue
                parts = tok.replace(",", " ").split()
                if len(parts) != 2:
                    col.fail("initial", "profile_samples", f"bad sample pair {tok!r}")
                    continue
                pts.append((float(parts[0]), float(parts[1])))
        elif file_ref is not None:
            path = os.path.join(base_dir, file_ref)
            try:
                data = np.loadtxt(path, delimiter=",", ndmin=2)
                pts = [(float(x), float(v)) for x, v in data]
            except OSError:
                col.fail("initial", "profile_file", f"cannot read {path!r}")
            except ValueError:
                col.fail("initial", "profile_file", f"{path!r} is not two-column numeric CSV")
        else:
            col.fail("initial", "profile_samples", "profile=samples needs profile_samples or profile_file")
        if pts:
            try:
                profile = Profile(np.array([x for x, _ in pts]), np.array([v for _, v in pts]))
            except ValueError as exc:
                col.fail("initial", "profile_samples", str(exc))
    else:
        col.fail("initial", "profile", f"unknown profile kind {kind!r} (constant or samples)")

    t_end = col.get_float("run", "t_end", required=True, positive=True)
    tol_step = col.get_float("run", "tol_step", default=1e-8, positive=True)
    tol_event = col.get_float("run", "tol_event", default=1e-10, positive=True)
    eta_raw = cp.get("run", "eta", fallback="auto").strip().lower()
    eta = None
    if eta_raw != "auto":
        eta = col.get_float("run", "eta", positive=True)

    out_dir = cp.get("output", "dir", fallback="out")
    traj_samples = col.get_int("output", "trajectory_samples", default=401, minimum=2)
    field_t = col.get_int("output", "field_t", default=21, minimum=2)
    field_x_raw = col.get_floats("output", "field_x", default=None)
    field_x = None
    if field_x_raw is not None:
        if len(field_x_raw) != 3 or field_x_raw[0] >= field_x_raw[1] or field_x_raw[2] < 2:
            col.fail("output", "field_x", "expected 'xmin xmax n' with xmin < xmax and n >= 2")
        else:
            field_x = (field_x_raw[0], field_x_raw[1], int(field_x_raw[2]))

    oracle_eps = col.get_floats("oracle", "eps", default=())
    if oracle_eps and any(e <= 0 for e in oracle_eps):
        col.fail("oracle", "eps", "all eps must be positive")
        oracle_eps = ()
    oracle_sample_dt = col.get_float("oracle", "sample_dt", default=0.02, positive=True)

    omega = None
    if intervals is not None:
        if len(intervals) == 0 or len(intervals) % 2 != 0:
            col.fail("initial", "intervals", "need a non-empty, even-length endpoint list")
        else:
            try:
                omega = IntervalSet(tuple(intervals))
            except ValueError as exc:
                col.fail("initial", "intervals", str(exc))

    if profile is None and kind == "constant":
        if span is None:
            pad = 2.0 + (abs(a or 1.0) + abs(b or 1.0)) * (t_end or 1.0)
            span = _auto_span(omega.pairs, pad) if omega is not None and omega.m else (-10.0, 10.0)
        profile = Profile.constant(max(value or 0.0, 0.0), tuple(span))

    params = None
    if None not in (g1, g2, g3, g4, a, b):
        m_ref = None
        if m_raw.strip().lower() == "auto":
            m_ref = max(1.0, profile.bound) if profile is not None else 1.0
        else:
            m_ref = col.get_float("parameters", "m", positive=True)
        if m_ref is not None:
            try:
                params = Parameters(g1=g1, g2=g2, g3=g3, g4=g4, a=a, b=b, M=m_ref)
            except ValueError as exc:
                col.errors.append(f"parameters: {exc}")

    if col.errors:
        raise ConfigError(col.errors)
    assert params is not None and omega is not None and profile is not None
    return RunConfig(
        params=params,
        omega=omega,
        profile=profile,
        t_end=t_end,
        tol_step=tol_step,
        tol_event=tol_event,
        eta=eta,
        out_dir=out_dir,
        oracle_eps=tuple(oracle_eps),
        oracle_sample_dt=oracle_sample_dt,
        trajectory_samples=traj_samples,
        field_x=field_x,
        field_t=field_t,
    )


def load_config_file(path: str) -> RunConfig:
    with io.open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return validate_config(text, base_dir=os.path.dirname(os.path.abspath(path)))

"""Run configuration: flat INI-style config files, presets, validation.

Each config key is one _SCHEMA entry: its parser, its check and its default
(a RunConfig field's own default where the key fills that field).
"""
from __future__ import annotations

import configparser
import os
import textwrap
from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable, Mapping

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
    "schema_help",
    "ENV_PREFIX",
]

ENV_PREFIX = "FRONTSIM_"


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
    eta: float | None = None
    out_dir: str = "out"
    scenario: str | None = None
    oracle_eps: tuple[float, ...] = ()
    oracle_sample_dt: float = 0.02
    trajectory_samples: int = 401
    field_x: tuple[float, float, int] | None = None
    field_t: int = 21

    def __post_init__(self) -> None:
        # written so that nan fails them
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end!r}")
        if not self.tol_step > 0:
            raise ValueError(f"tol_step must be positive, got {self.tol_step!r}")
        if self.eta is not None and not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta!r}")


_PRESET_PARAMS = Parameters(g1=1, g2=1, g3=3, g4=1, a=1, b=2)

# per-preset fields of the RunConfig; the illposed demo builds its two data
# itself (ill_posedness_demo: (0, R) with the arctan profile raised or
# lowered off the degenerate endpoint), so its omega and profile below are
# placeholders the demo never reads
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


def preset_config(name: str, out_dir: str = RunConfig.out_dir) -> RunConfig:
    try:
        fields_ = PRESETS[name]
    except KeyError:
        raise ConfigError([f"unknown preset {name!r}; choose from {sorted(PRESETS)}"]) from None
    return RunConfig(params=_PRESET_PARAMS, **fields_, out_dir=out_dir, scenario=name)


# --- the schema --------------------------------------------------------------
# A parser turns a key's text into its value or raises ValueError with the
# message; a check returns the message for a parsed value it rejects.

def _parser(convert: Callable[[str], Any], message: str) -> Callable[[str], Any]:
    """convert(raw), or ValueError(message with raw as {0!r}); floats must be finite."""

    def parse(raw: str) -> Any:
        try:
            val = convert(raw)
        except ValueError:
            raise ValueError(message.format(raw)) from None
        if isinstance(val, int) or np.all(np.isfinite(val)):
            return val
        raise ValueError(f"must be finite, got {raw!r}")

    return parse


_number = _parser(float, "not a number: {0!r}")
_integer = _parser(int, "not an integer: {0!r}")
_numbers = _parser(
    lambda raw: tuple(map(float, raw.replace(",", " ").split())), "expected a list of numbers, got {0!r}"
)


def _grid(raw: str) -> tuple[float, float, int]:
    vals = _numbers(raw)
    if len(vals) != 3 or vals[0] >= vals[1] or vals[2] < 2:
        raise ValueError("expected 'xmin xmax n' with xmin < xmax and n >= 2")
    if not vals[2].is_integer():
        raise ValueError(f"n must be an integer, got {vals[2]!r}")
    return vals[0], vals[1], int(vals[2])


def _check(ok: Callable[[Any], bool], message: str) -> Callable[[Any], str | None]:
    """A check giving message, with the value in place of {0!r}, unless ok(value)."""
    return lambda val: None if ok(val) else message.format(val)


_POSITIVE = _check(lambda v: v > 0, "must be positive, got {0!r}")
_AT_LEAST_2 = _check(lambda n: n >= 2, "must be >= 2")
_EPS_POSITIVE = _check(lambda eps: all(e > 0 for e in eps), "all eps must be positive")
# each eps names its own oracle/errors_eps_<eps>.csv, so a repeat would overwrite one
_EPS_ONCE = _check(lambda eps: len(set(eps)) == len(eps), "each eps must be given once, got {0!r}")
_RUN_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _key(parse, check=None, field: str | None = None, default: Any = MISSING) -> tuple:
    """A schema entry (parse, check, field, default).  A key that fills
    RunConfig field takes that field's default; MISSING marks a required key."""
    return parse, check, field, _RUN_DEFAULTS[field] if field else default


_KINETICS = ("g1", "g2", "g3", "g4", "a", "b")

_SCHEMA = {
    **{("parameters", name): _key(_number, _POSITIVE) for name in _KINETICS},
    ("initial", "intervals"): _key(
        _numbers, _check(lambda xs: xs and len(xs) % 2 == 0, "need a non-empty, even-length endpoint list")
    ),
    ("initial", "profile"): _key(
        lambda raw: raw.strip().lower(),
        _check(lambda kind: kind in ("constant", "samples"), "unknown profile kind {0!r} (constant or samples)"),
        default="constant",
    ),
    ("initial", "profile_value"): _key(
        _number, _check(lambda v: v >= 0, "profile values must be non-negative"), default=0.0
    ),
    ("initial", "profile_samples"): _key(str, default=None),
    ("initial", "profile_file"): _key(str, default=None),
    ("run", "t_end"): _key(_number, _POSITIVE, "t_end"),
    ("run", "tol_step"): _key(_number, _POSITIVE, "tol_step"),
    ("run", "eta"): _key(_number, _POSITIVE, "eta"),
    ("output", "dir"): _key(str, field="out_dir"),
    ("output", "trajectory_samples"): _key(_integer, _AT_LEAST_2, "trajectory_samples"),
    ("output", "field_x"): _key(_grid, field="field_x"),
    ("output", "field_t"): _key(_integer, _AT_LEAST_2, "field_t"),
    ("oracle", "eps"): _key(_numbers, lambda eps: _EPS_POSITIVE(eps) or _EPS_ONCE(eps), "oracle_eps"),
    ("oracle", "sample_dt"): _key(_number, _POSITIVE, "oracle_sample_dt"),
}
_SECTIONS = dict.fromkeys(sec for sec, _ in _SCHEMA)


def schema_help() -> str:
    """The keys of each section: a bare key is required, [key=default] is
    optional, and a [key] left out is computed from the other keys or not used."""

    def entry(key: str, default) -> str:
        if default is MISSING:
            return key
        return f"[{key}]" if default in (None, ()) else f"[{key}={default}]"

    return "\n".join(
        textwrap.fill(
            " ".join(entry(key, default) for (s, key), (_, _, _, default) in _SCHEMA.items() if s == sec),
            initial_indent=f"  [{sec}]".ljust(15),
            subsequent_indent=" " * 15,
            break_on_hyphens=False,
        )
        for sec in _SECTIONS
    )


def apply_env_overrides(cp: configparser.ConfigParser, environ: Mapping[str, str]) -> None:
    """Apply the FRONTSIM_<SECTION>__<KEY>=value entries of environ onto parsed config."""
    for name, value in environ.items():
        section, _, key = name[len(ENV_PREFIX):].lower().partition("__")
        if name.startswith(ENV_PREFIX) and key and section in _SECTIONS:
            if not cp.has_section(section):
                cp.add_section(section)
            cp.set(section, key, value)


def _sampled_profile(values: dict, base_dir: str, errors: list[str]) -> Profile | None:
    """The profile of profile_samples, else of profile_file; None after an error."""
    samples, file_ref = values["profile_samples"], values["profile_file"]
    if samples is not None:
        pts, n_errors = [], len(errors)
        for tok in filter(None, map(str.strip, samples.split(";"))):
            try:
                x, v = map(float, tok.replace(",", " ").split())
                pts.append((x, v))
            except ValueError:
                errors.append(f"initial.profile_samples: bad sample pair {tok!r}")
        if len(errors) > n_errors:
            return None
    elif file_ref is not None:
        path = os.path.join(base_dir, file_ref)
        try:
            pts = [(float(x), float(v)) for x, v in np.loadtxt(path, delimiter=",", ndmin=2)]
        except OSError:
            errors.append(f"initial.profile_file: cannot read {path!r}")
            return None
        except ValueError:
            errors.append(f"initial.profile_file: {path!r} is not two-column numeric CSV")
            return None
    else:
        errors.append("initial.profile_samples: profile=samples needs profile_samples or profile_file")
        return None
    try:
        return Profile(np.array([x for x, _ in pts]), np.array([v for _, v in pts]))
    except ValueError as exc:
        key = "profile_samples" if samples is not None else "profile_file"
        errors.append(f"initial.{key}: {exc}")


def validate_config(text: str, base_dir: str = ".", environ: Mapping[str, str] | None = None) -> RunConfig:
    """Parse and validate a config; collects all violations before raising.
    environ holds FRONTSIM_<SECTION>__<KEY> overrides; nothing else but a
    profile_file under base_dir is read."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"parse error: {exc}"]) from None
    apply_env_overrides(cp, environ or {})

    errors: list[str] = []
    for sec in cp.sections():
        if sec not in _SECTIONS:
            errors.append(f"{sec}: unknown section")
            continue
        errors += [f"{sec}.{key}: unknown key" for key in cp.options(sec) if (sec, key) not in _SCHEMA]
    values = {}
    for (sec, key), (parse, check, _, default) in _SCHEMA.items():
        try:
            raw = cp.get(sec, key, fallback=None)
            if raw is None and default is MISSING:
                raise ValueError("required value is missing")
            val = default if raw is None else parse(raw)
            problem = check and val is not None and check(val)
            if problem:
                raise ValueError(problem)
            values[key] = val
        except (ValueError, configparser.Error) as exc:
            errors.append(f"{sec}.{key}: {exc}")

    # the parts built from several keys; a value that failed is absent
    omega = profile = params = None
    if "intervals" in values:
        try:
            omega = IntervalSet(values["intervals"])
        except ValueError as exc:
            errors.append(f"initial.intervals: {exc}")
    # 1 beyond the fronts' reach (IntervalSet.hull), where a constant
    # profile's two knots lie, so that no front comes near these kinks
    hull = None
    if omega is not None and "a" in values and "t_end" in values:
        hull = omega.hull(values["a"] * values["t_end"] + 1.0)
        if not np.all(np.isfinite(hull)):
            errors.append("run.t_end: the fronts' reach a*t_end + 1 overflows")
            hull = None
    kind = values.get("profile")
    if kind == "samples":
        profile = _sampled_profile(values, base_dir, errors)
    elif kind == "constant" and hull is not None and "profile_value" in values:
        profile = Profile.constant(values["profile_value"], hull)
    if all(name in values for name in _KINETICS):
        try:
            params = Parameters(**{name: values[name] for name in _KINETICS})
        except ValueError as exc:
            errors.append(f"parameters: {exc}")

    if errors:
        raise ConfigError(errors)
    return RunConfig(
        params=params,
        omega=omega,
        profile=profile,
        **{field: values[key] for (_, key), (_, _, field, _) in _SCHEMA.items() if field},
    )


def load_config_file(path: str, environ: Mapping[str, str] | None = None) -> RunConfig:
    """validate_config of the file's text, with profile_file relative to the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read configuration: {exc}"]) from None
    return validate_config(text, os.path.dirname(os.path.abspath(path)), environ)

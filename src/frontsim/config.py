"""Run configuration: flat INI-style config files, presets, validation.

Each config key is one _SCHEMA entry: its parser, its rules and its default
(a RunConfig field's own default where the key fills that field).  The rules
of a key that fills a RunConfig field hold for every RunConfig, however built.
"""
from __future__ import annotations

import configparser
import os
import textwrap
from dataclasses import MISSING, dataclass, fields
from numbers import Integral
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
        _check_fields(self)


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
# message.  A key's rules, (ok, message) pairs, define its valid values, be
# they parsed from text (validate_config) or set on a RunConfig (_check_fields).

def _problem(rules, val, text: str | None = None) -> str | None:
    """The message of the first rule val fails, with val (or the text it was
    read from, when given) in place of {0!r}; None if it passes them all."""
    return next((message.format(val if text is None else text) for ok, message in rules if not ok(val)), None)


_FINITE = ((lambda v: isinstance(v, int) or np.all(np.isfinite(v)), "must be finite, got {0!r}"),)
# nan fails the comparisons, so it reads as out of range
_POSITIVE = ((lambda v: v > 0, "must be positive, got {0!r}"), *_FINITE)
_COUNT = ((lambda n: isinstance(n, Integral), "must be an integer, got {0!r}"), (lambda n: n >= 2, "must be >= 2"))
_GRID = (
    (lambda g: len(g) == 3 and g[0] < g[1] and g[2] >= 2, "expected 'xmin xmax n' with xmin < xmax and n >= 2"),
    (lambda g: isinstance(g[2], Integral), "n must be an integer, got {0[2]!r}"),
    *_FINITE,
)
_EPS = (
    (lambda eps: all(e > 0 for e in eps), "all eps must be positive"),
    # each eps names its own oracle/errors_eps_<eps>.csv, so a repeat would overwrite one
    (lambda eps: len(set(eps)) == len(eps), "each eps must be given once, got {0!r}"),
    *_FINITE,
)


def _parser(convert: Callable[[str], Any], message: str) -> Callable[[str], Any]:
    """convert(raw), or ValueError(message with raw as {0!r}); a non-finite value quotes its text."""

    def parse(raw: str) -> Any:
        try:
            val = convert(raw)
        except ValueError:
            raise ValueError(message.format(raw)) from None
        if _problem(_FINITE, val):
            raise ValueError(_problem(_FINITE, val, raw))
        return val

    return parse


_number = _parser(float, "not a number: {0!r}")
_integer = _parser(int, "not an integer: {0!r}")
_numbers = _parser(
    lambda raw: tuple(map(float, raw.replace(",", " ").split())), "expected a list of numbers, got {0!r}"
)


def _grid(raw: str) -> tuple:
    """field_x's numbers, with n an int where it is integral (_GRID rejects any other n)."""
    vals = _numbers(raw)
    return (*vals[:2], int(vals[2])) if len(vals) == 3 and vals[2].is_integer() else vals


_RUN_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _key(parse, *rules, field: str | None = None, default: Any = MISSING) -> tuple:
    """A schema entry (parse, rules, field, default).  A key that fills
    RunConfig field takes that field's default; MISSING marks a required key."""
    return parse, rules, field, _RUN_DEFAULTS[field] if field else default


_KINETICS = ("g1", "g2", "g3", "g4", "a", "b")

_SCHEMA = {
    **{("parameters", name): _key(_number, *_POSITIVE) for name in _KINETICS},
    ("initial", "intervals"): _key(
        _numbers, (lambda xs: xs and len(xs) % 2 == 0, "need a non-empty, even-length endpoint list")
    ),
    ("initial", "profile"): _key(
        lambda raw: raw.strip().lower(),
        (lambda kind: kind in ("constant", "samples"), "unknown profile kind {0!r} (constant or samples)"),
        default="constant",
    ),
    ("initial", "profile_value"): _key(
        _number, (lambda v: v >= 0, "profile values must be non-negative"), default=0.0
    ),
    ("initial", "profile_samples"): _key(str, default=None),
    ("initial", "profile_file"): _key(str, default=None),
    ("run", "t_end"): _key(_number, *_POSITIVE, field="t_end"),
    ("run", "tol_step"): _key(_number, *_POSITIVE, field="tol_step"),
    ("run", "eta"): _key(_number, *_POSITIVE, field="eta"),
    ("output", "dir"): _key(str, field="out_dir"),
    ("output", "trajectory_samples"): _key(_integer, *_COUNT, field="trajectory_samples"),
    ("output", "field_x"): _key(_grid, *_GRID, field="field_x"),
    ("output", "field_t"): _key(_integer, *_COUNT, field="field_t"),
    ("oracle", "eps"): _key(_numbers, *_EPS, field="oracle_eps"),
    ("oracle", "sample_dt"): _key(_number, *_POSITIVE, field="oracle_sample_dt"),
}
_SECTIONS = dict.fromkeys(sec for sec, _ in _SCHEMA)


def _check_fields(cfg: RunConfig) -> None:
    """ValueError "section.key: message" for the first field that fails its key's rules."""
    for (sec, key), (_, rules, field, _) in _SCHEMA.items():
        problem = field and getattr(cfg, field) is not None and _problem(rules, getattr(cfg, field))
        if problem:
            raise ValueError(f"{sec}.{key}: {problem}")


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
    for (sec, key), (parse, rules, _, default) in _SCHEMA.items():
        try:
            raw = cp.get(sec, key, fallback=None)
            if raw is None and default is MISSING:
                raise ValueError("required value is missing")
            val = default if raw is None else parse(raw)
            problem = val is not None and _problem(rules, val)
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
    # a key the chosen kind never reads is a mistake, not a default
    unread = {"constant": ("profile_samples", "profile_file"), "samples": ("profile_value",)}.get(kind, ())
    errors += [f"initial.{key}: not read when profile = {kind}" for key in unread if cp.has_option("initial", key)]
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

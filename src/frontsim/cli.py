"""Command-line entry point: run scenarios, write CSV/JSON/SVG artifacts.

Exit codes: 0 success, 1 configuration error (the illposed preset with
--oracle among them: it runs no oracle), 2 degenerate initial data or a
degenerate speed (a front that stops or turns back mid-run; the message
names the front's label, its end slope, t and h), 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .state import H2Violation
from .classical import DegenerateSpeed, StepFailure
from .weak import (
    SurgeryH2Failure,
    events_as_json,
    ill_posedness_demo,
    run_weak,
)
from .oracle import DomainTooSmall, FHNBlowUp, InterfaceCountMismatch, eps_sweep
from .config import (
    ConfigError,
    PRESETS,
    RunConfig,
    _SCHEMA,
    _check_fields,
    _problem,
    load_config_file,
    preset_config,
    schema_help,
)
from .render import path_curves, spacetime_svg, weak_solution_curves

_NUMERICAL_ERRORS = (
    StepFailure,
    SurgeryH2Failure,
    FHNBlowUp,
    DomainTooSmall,
    InterfaceCountMismatch,
)

_EPILOG = f"""\
presets: {", ".join(PRESETS)}

config file keys (INI): a bare key is required, [key=default] is optional,
and a [key] left out is computed from the other keys or not used:
{schema_help()}

values: intervals = x1 x2 [x3 x4 ...]; profile = constant|samples;
  profile_samples = x v; x v; ... or profile_file = a two-column CSV;
  field_x = xmin xmax n; eps = 0.05 0.02 ...

environment overrides, for config files and sweeps (not --preset):
  FRONTSIM_<SECTION>__<KEY>=value, e.g.
  FRONTSIM_RUN__TOL_STEP=1e-9 frontsim run config.ini
"""


def _csv(header: str, *columns) -> str:
    """The header line, then one row per entry of the columns (1-D arrays,
    or 2-D blocks of columns), each value as "%.17g" (the text of
    format(x, ".17g")), all rows in one formatting operation."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return header + "\n" + (row * table.shape[0]) % tuple(table.ravel().tolist())


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _field_csv(value_at, xs, ts) -> str:
    """Rows t,x,v on the grid ts x xs, t-major: the text of _csv("t,x,v",
    T, X, v) on the flattened meshgrid.

    The field comes from one value_at call on the outer grid (xs[None, :],
    ts[:, None]): evaluate_v's x-only work runs once per point of x; the
    flows run on the broadcast shape.  Each t and each x is formatted once;
    the v column is formatted as _csv does, all of it in one operation.
    """
    v = np.asarray(value_at(xs[None, :], ts[:, None]), dtype=float)
    # a row's text after its t, with the slot of its v; each t joins them
    after_t = ["", *(",%.17g,%%.17g\n" % x for x in xs.tolist())]
    rows = "".join(("%.17g" % t).join(after_t) for t in ts.tolist())
    return "t,x,v\n" + rows % tuple(v.ravel().tolist())


def _field_grid(cfg: RunConfig):
    if cfg.field_x is not None:
        lo, hi, n = cfg.field_x
    else:
        lo, hi = cfg.omega.hull(cfg.params.a * cfg.t_end + 1.0)
        n = 101
    return np.linspace(lo, hi, int(n))


def _write_run(cfg: RunConfig, out_dir: str, times, labels, positions, value_at, events: str,
               curves, polygons, title: str) -> None:
    """Write the four artifacts of every run: trajectories.csv (the columns
    of positions, one per label, at times), field.csv (value_at on the
    field grid), events.json (the text events) and spacetime.svg (curves
    and polygons over the field grid's x range)."""
    header = "t," + ",".join(f"x_{lab}" for lab in labels)
    _write_text(os.path.join(out_dir, "trajectories.csv"), _csv(header, times, positions))
    xs = _field_grid(cfg)
    ts = np.linspace(0.0, cfg.t_end, cfg.field_t)
    _write_text(os.path.join(out_dir, "field.csv"), _field_csv(value_at, xs, ts))
    _write_text(os.path.join(out_dir, "events.json"), events)
    svg = spacetime_svg(
        curves,
        polygons,
        x_range=(float(xs[0]), float(xs[-1])),
        t_range=(0.0, cfg.t_end),
        title=title,
    )
    _write_text(os.path.join(out_dir, "spacetime.svg"), svg)


def _run_standard(cfg: RunConfig, out_dir: str) -> None:
    w = run_weak(
        cfg.params,
        cfg.omega,
        cfg.profile,
        cfg.t_end,
        tol_step=cfg.tol_step,
        margin=cfg.eta,
    )
    times = np.linspace(0.0, cfg.t_end, cfg.trajectory_samples)
    curves, polygons = weak_solution_curves(w)
    _write_run(
        cfg, out_dir, times, w.segments[0].labels, w.positions(times), w.evaluate_v, events_as_json(w),
        curves, polygons, cfg.scenario or "front-tracking run",
    )

    if cfg.oracle_eps:
        oracle_dir = os.path.join(out_dir, "oracle")
        os.makedirs(oracle_dir, exist_ok=True)
        reports = eps_sweep(
            cfg.params,
            cfg.omega,
            cfg.profile,
            w,
            cfg.oracle_eps,
            cfg.t_end,
            sample_dt=cfg.oracle_sample_dt,
        )
        summary = []
        for report in reports:
            summary.append(
                {
                    "eps": report.eps,
                    "sup_abs_error": report.sup_abs,
                    "sup_rel_error": report.sup_rel,
                    "samples": int(report.times.size),
                    "skipped_samples": report.skipped_times,
                }
            )
            _write_text(
                os.path.join(oracle_dir, f"errors_eps_{float(report.eps)!r}.csv"),
                _csv("t,error", report.times, report.abs_errors),
            )
        _write_text(
            os.path.join(oracle_dir, "summary.json"),
            json.dumps(summary, sort_keys=True, indent=2) + "\n",
        )


def _run_illposed(cfg: RunConfig, out_dir: str) -> None:
    recede, advance = ill_posedness_demo(cfg.params, cfg.t_end)
    times = np.linspace(0.0, cfg.t_end, cfg.trajectory_samples)
    x_recede, x_advance = (w.positions(times)[:, 0] for w in (recede, advance))
    _write_text(os.path.join(out_dir, "divergence.csv"), _csv("t,separation", times, x_recede - x_advance))
    curves = [(k, path_curves(w.segments[0]._path)[0]) for k, w in ((1, recede), (2, advance))]
    _write_run(
        cfg, out_dir, times, (1, 2), np.column_stack([x_recede, x_advance]), recede.evaluate_v,
        events_as_json(recede), curves, [], "illposed: two continuations from degenerate data",
    )


def run_scenario(cfg: RunConfig) -> None:
    """Execute one configuration and write its artifacts under cfg.out_dir.
    A field set after construction that fails its schema check, or an
    oracle eps on the illposed scenario, which runs no oracle, raises
    ValueError ("section.key: message") before anything runs."""
    _check_fields(cfg)
    illposed = cfg.scenario == "illposed"
    if illposed and cfg.oracle_eps:
        raise ValueError("oracle.eps: the illposed scenario runs no oracle")
    os.makedirs(cfg.out_dir, exist_ok=True)
    (_run_illposed if illposed else _run_standard)(cfg, cfg.out_dir)


def _parse_oracle_arg(raw: str) -> tuple[float, ...]:
    """--oracle's eps=LIST: not empty, and parsed and checked as oracle.eps."""
    if not raw.startswith("eps="):
        raise ConfigError([f"--oracle expects eps=<comma-list>, got {raw!r}"])
    parse, rules, _, _ = _SCHEMA[("oracle", "eps")]
    try:
        values = parse(raw[4:])
        problem = _problem(rules, values) if values else f"needs positive eps values, got {raw!r}"
    except ValueError as exc:
        problem = str(exc)
    if problem:
        raise ConfigError([f"--oracle eps: {problem}"])
    return values


def _sweep(args) -> int:
    configs = sorted(
        f for f in os.listdir(args.sweep) if f.endswith(".ini")
    )
    if not configs:
        print(f"no .ini configs in {args.sweep}", file=sys.stderr)
        return 1
    base_out = args.out or RunConfig.out_dir

    codes = []
    for name in configs:
        try:
            cfg = load_config_file(os.path.join(args.sweep, name), environ=os.environ)
        except ConfigError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            codes.append(1)
            continue
        cfg.out_dir = os.path.join(base_out, os.path.splitext(name)[0])
        codes.append(_dispatch(cfg, name))
    return max(codes)


def _dispatch(cfg: RunConfig, what: str) -> int:
    try:
        run_scenario(cfg)
    except H2Violation as exc:
        print(f"{what}: degenerate initial data: {exc}", file=sys.stderr)
        return 2
    except DegenerateSpeed as exc:
        print(f"{what}: degenerate speed: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"{what}: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="frontsim",
        description="Front-tracking simulator for 1-D excitable media",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser(
        "run",
        help="run one config, preset, or a sweep directory",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run_p.add_argument("config", nargs="?", help="INI config file")
    run_p.add_argument("--preset", choices=sorted(PRESETS), help="built-in scenario")
    run_p.add_argument("--out", help="output directory (overrides config)")
    run_p.add_argument("--oracle", metavar="eps=LIST", help="cross-validate, e.g. eps=0.05,0.02")
    run_p.add_argument("--sweep", metavar="DIR", help="run every .ini in DIR, one after another")

    args = parser.parse_args(argv)

    try:
        if args.sweep:
            if args.config or args.preset:
                raise ConfigError(["--sweep excludes a config file or --preset"])
            return _sweep(args)
        if args.preset and args.config:
            raise ConfigError(["give either a config file or --preset, not both"])
        if args.preset:
            cfg = preset_config(args.preset)
        elif args.config:
            cfg = load_config_file(args.config, environ=os.environ)
        else:
            raise ConfigError(["nothing to run: give a config file, --preset, or --sweep"])
        if args.out:
            cfg.out_dir = args.out
        if args.oracle:
            if cfg.scenario == "illposed":
                raise ConfigError(["--oracle: the illposed preset runs no oracle"])
            cfg.oracle_eps = _parse_oracle_arg(args.oracle)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    return _dispatch(cfg, cfg.scenario or args.config or "run")


if __name__ == "__main__":
    sys.exit(main())

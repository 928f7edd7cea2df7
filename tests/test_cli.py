import json
import math
import re

import numpy as np
import pytest

import frontsim.cli
import frontsim.config
from frontsim.classical import DegeneracyWarning
from frontsim.cli import _csv, main, run_scenario
from frontsim.config import ConfigError, RunConfig, preset_config, validate_config
from frontsim import IntervalSet, Parameters, Profile
from frontsim.weak import ill_posedness_demo, run_weak

GOOD_CONFIG = """\
[parameters]
g1 = 1
g2 = 1
g3 = 3
g4 = 1
a = 1
b = 2

[initial]
intervals = -1 1
profile = constant
profile_value = 0.0

[run]
t_end = 1.0
"""


SAMPLES = "profile = constant\nprofile_value = 0.0"
REQUIRE_G = "parameters: require g1*g3 > g2 so the excited reaction rate stays positive"

# config text (from GOOD_CONFIG by (old, new) replacements, then appended
# text), an optional profile.csv beside it, and the exact ConfigError.errors;
# {path} stands for the CSV's path
MESSAGE_CASES = {
    "missing": ((("g3 = 3\n", ""),), "", None, ["parameters.g3: required value is missing"]),
    "not a number": ((("g3 = 3", "g3 = x"),), "", None, ["parameters.g3: not a number: 'x'"]),
    "eta not a number": ((), "eta = x\n", None, ["run.eta: not a number: 'x'"]),
    "not an integer": ((), "[output]\nfield_t = 2.5\n", None, ["output.field_t: not an integer: '2.5'"]),
    "not positive": ((("t_end = 1.0", "t_end = -2"),), "", None, ["run.t_end: must be positive, got -2.0"]),
    "retired m": ((("b = 2", "b = 2\nm = 2"),), "", None, ["parameters.m: unknown key"]),
    "at least two": ((), "[output]\ntrajectory_samples = 1\n", None, ["output.trajectory_samples: must be >= 2"]),
    "list of numbers": (
        (), "[oracle]\neps = 0.05 x\n", None, ["oracle.eps: expected a list of numbers, got '0.05 x'"],
    ),
    "unknown section": ((), "[extra]\nk = 1\n", None, ["extra: unknown section"]),
    "unknown key": ((), "typo_key = 1\n", None, ["run.typo_key: unknown key"]),
    "unknown profile kind": (
        (("profile = constant", "profile = spline"),), "", None,
        ["initial.profile: unknown profile kind 'spline' (constant or samples)"],
    ),
    "negative profile value": (
        (("profile_value = 0.0", "profile_value = -1"),), "", None,
        ["initial.profile_value: profile values must be non-negative"],
    ),
    "retired profile_span": (
        (("profile_value = 0.0", "profile_value = 0.0\nprofile_span = -12 12"),), "", None,
        ["initial.profile_span: unknown key"],
    ),
    "retired tol_event": ((), "tol_event = 1e-11\n", None, ["run.tol_event: unknown key"]),
    "retired eta auto": ((), "eta = auto\n", None, ["run.eta: not a number: 'auto'"]),
    "bad sample pair": (
        ((SAMPLES, "profile = samples\nprofile_samples = -2 0; 1; 2 1"),), "", None,
        ["initial.profile_samples: bad sample pair '1'"],
    ),
    "no samples": (
        ((SAMPLES, "profile = samples"),), "", None,
        ["initial.profile_samples: profile=samples needs profile_samples or profile_file"],
    ),
    "samples not increasing": (
        ((SAMPLES, "profile = samples\nprofile_samples = 1 0; 0 1"),), "", None,
        ["initial.profile_samples: profile abscissae must be strictly increasing"],
    ),
    "file unreadable": (
        ((SAMPLES, "profile = samples\nprofile_file = profile.csv"),), "", None,
        ["initial.profile_file: cannot read {path!r}"],
    ),
    "file not two columns": (
        ((SAMPLES, "profile = samples\nprofile_file = profile.csv"),), "", "0,0,0\n1,1,1\n",
        ["initial.profile_file: {path!r} is not two-column numeric CSV"],
    ),
    "file not increasing": (
        ((SAMPLES, "profile = samples\nprofile_file = profile.csv"),), "", "1,0\n0,1\n",
        ["initial.profile_file: profile abscissae must be strictly increasing"],
    ),
    "samples with no kind": (
        ((SAMPLES, "profile_samples = -4 0.3; 4 0.3"),), "", None,
        ["initial.profile_samples: not read when profile = constant"],
    ),
    "file with constant": (
        ((SAMPLES, "profile = constant\nprofile_file = profile.csv"),), "", None,
        ["initial.profile_file: not read when profile = constant"],
    ),
    "value with samples": (
        ((SAMPLES, "profile = samples\nprofile_value = 0.2\nprofile_samples = -2 0; 2 1"),), "", None,
        ["initial.profile_value: not read when profile = samples"],
    ),
    "field_x shape": (
        (), "[output]\nfield_x = 1 0 5\n", None,
        ["output.field_x: expected 'xmin xmax n' with xmin < xmax and n >= 2"],
    ),
    "eps positive": ((), "[oracle]\neps = 0.05 0\n", None, ["oracle.eps: all eps must be positive"]),
    "eps repeated": (
        (), "[oracle]\neps = 0.05 0.02 0.05\n", None, ["oracle.eps: each eps must be given once, got (0.05, 0.02, 0.05)"],
    ),
    "odd intervals": (
        (("intervals = -1 1", "intervals = -1 1 2"),), "", None,
        ["initial.intervals: need a non-empty, even-length endpoint list"],
    ),
    "intervals out of order": (
        (("intervals = -1 1", "intervals = 1 -1"),), "", None,
        ["initial.intervals: endpoints must be strictly increasing; got 1.0 >= -1.0 (overlapping or degenerate intervals)"],
    ),
    "parameters": (
        (("g3 = 3", "g3 = 0.5"),), "", None,
        [REQUIRE_G + " (got g1*g3 = 0.5, g2 = 1.0)"],
    ),
    "parse error": (
        (), "t_end = 2\n", None,
        ["parse error: While reading from '<string>' [line 16]: option 't_end' in section 'run' already exists"],
    ),
    "aggregated": (
        (("g3 = 3\n", ""), ("t_end = 1.0", "t_end = -2")), "", None,
        ["parameters.g3: required value is missing", "run.t_end: must be positive, got -2.0"],
    ),
}


# malformed or non-finite values, each a ConfigError on its key; same layout
FIXED_CASES = {
    "bad sample number": (
        ((SAMPLES, "profile = samples\nprofile_samples = -2 x; 1 0.5"),), "", None,
        ["initial.profile_samples: bad sample pair '-2 x'"],
    ),
    "empty samples": (
        ((SAMPLES, "profile = samples\nprofile_samples = ;"),), "", None,
        ["initial.profile_samples: profile needs matching 1-D sample arrays"],
    ),
    "automatic span overflows": (
        (("a = 1", "a = 1e10"), ("t_end = 1.0", "t_end = 1e300")), "", None,
        ["run.t_end: the fronts' reach a*t_end + 1 overflows"],
    ),
    "profile value inf": (
        (("profile_value = 0.0", "profile_value = inf"),), "", None,
        ["initial.profile_value: must be finite, got 'inf'"],
    ),
    "t_end inf": ((("t_end = 1.0", "t_end = inf"),), "", None, ["run.t_end: must be finite, got 'inf'"]),
    "t_end nan": ((("t_end = 1.0", "t_end = nan"),), "", None, ["run.t_end: must be finite, got 'nan'"]),
    "tol_step inf": ((), "tol_step = inf\n", None, ["run.tol_step: must be finite, got 'inf'"]),
    "eta inf": ((), "eta = inf\n", None, ["run.eta: must be finite, got 'inf'"]),
    "eps inf": ((), "[oracle]\neps = 0.05 inf\n", None, ["oracle.eps: must be finite, got '0.05 inf'"]),
    "sample_dt inf": ((), "[oracle]\nsample_dt = inf\n", None, ["oracle.sample_dt: must be finite, got 'inf'"]),
    "field_x inf": (
        (), "[output]\nfield_x = -inf 1 5\n", None, ["output.field_x: must be finite, got '-inf 1 5'"],
    ),
    "field_x fractional n": (
        (), "[output]\nfield_x = -1 1 2.5\n", None, ["output.field_x: n must be an integer, got 2.5"],
    ),
    "interpolation": (
        (), "[output]\ndir = out%\n", None, ["output.dir: '%' must be followed by '%' or '(', found: '%'"],
    ),
}


# for each RunConfig field a config key fills: its key, and values its file
# form rejects, each with the message its key's rules give on the value
FIELD_CASES = [
    *(
        (field, key, bad, message)
        for field, key in (
            ("t_end", "run.t_end"), ("tol_step", "run.tol_step"), ("eta", "run.eta"),
            ("oracle_sample_dt", "oracle.sample_dt"),
        )
        for bad, message in (
            (math.nan, "must be positive, got nan"),
            (math.inf, "must be finite, got inf"),
            (-math.inf, "must be positive, got -inf"),
            (0.0, "must be positive, got 0.0"),
            (-1.0, "must be positive, got -1.0"),
        )
    ),
    *(
        (field, key, bad, message)
        for field, key in (("trajectory_samples", "output.trajectory_samples"), ("field_t", "output.field_t"))
        for bad, message in (
            (1, "must be >= 2"),
            (0, "must be >= 2"),
            (2.5, "must be an integer, got 2.5"),
            (21.0, "must be an integer, got 21.0"),
            (math.nan, "must be an integer, got nan"),
            (math.inf, "must be an integer, got inf"),
        )
    ),
    *(
        ("field_x", "output.field_x", bad, message)
        for bad, message in (
            ((1.0, -1.0, 5), "expected 'xmin xmax n' with xmin < xmax and n >= 2"),
            ((-1.0, 1.0, 1), "expected 'xmin xmax n' with xmin < xmax and n >= 2"),
            ((-1.0, 1.0), "expected 'xmin xmax n' with xmin < xmax and n >= 2"),
            ((math.nan, 1.0, 5), "expected 'xmin xmax n' with xmin < xmax and n >= 2"),
            ((-1.0, 1.0, 2.5), "n must be an integer, got 2.5"),
            ((-math.inf, 1.0, 5), "must be finite, got (-inf, 1.0, 5)"),
            ((-1.0, math.inf, 5), "must be finite, got (-1.0, inf, 5)"),
        )
    ),
    *(
        ("oracle_eps", "oracle.eps", bad, message)
        for bad, message in (
            ((0.05, 0.05), "each eps must be given once, got (0.05, 0.05)"),
            ((0.05, 0.0), "all eps must be positive"),
            ((-0.05,), "all eps must be positive"),
            ((math.nan,), "all eps must be positive"),
            ((0.05, math.inf), "must be finite, got (0.05, inf)"),
        )
    ),
]
FIELD_IDS = [f"{field}={bad!r}" for field, _, bad, _ in FIELD_CASES]


def config_text(edits, tail: str) -> str:
    text = GOOD_CONFIG
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return text + tail


def check_errors(case, tmp_path) -> None:
    edits, tail, csv, want = case
    path = str(tmp_path / "profile.csv")
    if csv is not None:
        (tmp_path / "profile.csv").write_text(csv)
    with pytest.raises(ConfigError) as err:
        validate_config(config_text(edits, tail), base_dir=str(tmp_path))
    assert err.value.errors == [msg.format(path=path) for msg in want]


class TestValidateConfig:
    @pytest.mark.parametrize("case", MESSAGE_CASES)
    def test_error_messages(self, case, tmp_path):
        check_errors(MESSAGE_CASES[case], tmp_path)

    @pytest.mark.parametrize("case", FIXED_CASES)
    def test_malformed_values_are_config_errors(self, case, tmp_path):
        check_errors(FIXED_CASES[case], tmp_path)

    def test_integral_field_x_n(self):
        cfg = validate_config(GOOD_CONFIG + "[output]\nfield_x = -1 1 1e2\n")
        assert cfg.field_x == (-1.0, 1.0, 100) and type(cfg.field_x[2]) is int

    def test_every_key(self, tmp_path):
        (tmp_path / "profile.csv").write_text("9,9\n")
        text = """\
[parameters]
g1 = 2
g2 = 1.5
g3 = 3
g4 = 0.5
a = 1.25
b = 2.5

[initial]
intervals = -3, -1, 1, 3
profile = samples
profile_samples = -10 0.1; 0 0.3; 10 0.2
profile_file = profile.csv

[run]
t_end = 1.5
tol_step = 1e-7
eta = 0.05

[output]
dir = results
trajectory_samples = 11
field_x = -8 8 33
field_t = 5

[oracle]
eps = 0.05, 0.02
sample_dt = 0.1
"""
        cfg = validate_config(text, base_dir=str(tmp_path))
        p = cfg.params
        assert (p.g1, p.g2, p.g3, p.g4, p.a, p.b) == (2.0, 1.5, 3.0, 0.5, 1.25, 2.5)
        assert cfg.omega.pairs == ((-3.0, -1.0), (1.0, 3.0))
        # profile_samples wins over profile_file
        assert cfg.profile.xs.tolist() == [-10.0, 0.0, 10.0]
        assert cfg.profile.vs.tolist() == [0.1, 0.3, 0.2]
        assert (cfg.t_end, cfg.tol_step, cfg.eta) == (1.5, 1e-7, 0.05)
        assert (cfg.out_dir, cfg.trajectory_samples, cfg.field_t) == ("results", 11, 5)
        assert cfg.field_x == (-8.0, 8.0, 33) and type(cfg.field_x[2]) is int
        assert (cfg.oracle_eps, cfg.oracle_sample_dt, cfg.scenario) == ((0.05, 0.02), 0.1, None)
        # profile_value belongs to the constant kind, which reads neither samples key
        text = text.replace("profile = samples\nprofile_samples = -10 0.1; 0 0.3; 10 0.2\nprofile_file = profile.csv",
                            "profile_value = 0.25")
        assert validate_config(text, base_dir=str(tmp_path)).profile.vs.tolist() == [0.25, 0.25]

    def test_constant_knots_and_default_field_grid_lie_beyond_the_reach(self):
        # both span intervals.hull(a*t_end + 1): (-1, 1) padded by 1*1 + 1
        cfg = validate_config(GOOD_CONFIG)
        assert cfg.profile.xs.tolist() == [-3.0, 3.0]
        xs = frontsim.cli._field_grid(cfg)
        assert (xs[0], xs[-1], xs.size) == (-3.0, 3.0, 101)

    def test_good_config(self):
        cfg = validate_config(GOOD_CONFIG)
        assert cfg.t_end == 1.0
        assert cfg.omega.pairs == ((-1.0, 1.0),)
        assert cfg.params.g3 == 3.0

    def test_missing_field_named(self):
        text = GOOD_CONFIG.replace("g3 = 3\n", "")
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert any("parameters.g3" in e for e in err.value.errors)

    def test_weak_assumption_accepted_with_warning(self):
        text = GOOD_CONFIG.replace("g3 = 3", "g3 = 1.5")
        with pytest.warns(UserWarning):
            cfg = validate_config(text)
        assert not cfg.params.strong_A

    def test_negative_tolerance_rejected(self):
        text = GOOD_CONFIG + "tol_step = -1e-9\n"
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert any("tol_step" in e for e in err.value.errors)

    @pytest.mark.parametrize("field", ["t_end", "tol_step", "eta"])
    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
    def test_run_config_rejects_non_positive_and_nan(self, field, bad):
        # nan fails every comparison, so each check must be one nan fails
        kw = dict(t_end=1.0, tol_step=1e-8, eta=1e-6)
        kw[field] = bad
        with pytest.raises(ValueError, match="must be positive"):
            RunConfig(Parameters(1, 1, 3, 1, 1, 2), IntervalSet((-1.0, 1.0)), Profile.constant(0.0), **kw)

    def test_errors_are_aggregated(self):
        text = GOOD_CONFIG.replace("g3 = 3\n", "").replace("t_end = 1.0", "t_end = -2")
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert len(err.value.errors) >= 2

    def test_unknown_key_flagged(self):
        with pytest.raises(ConfigError) as err:
            validate_config(GOOD_CONFIG + "typo_key = 1\n")
        assert any("typo_key" in e for e in err.value.errors)

    def test_sampled_profile(self):
        text = GOOD_CONFIG.replace(
            "profile = constant\nprofile_value = 0.0",
            "profile = samples\nprofile_samples = -2 0; -1 0.25; 1 0.75; 2 1",
        )
        cfg = validate_config(text)
        assert cfg.profile.eval(0.0) == pytest.approx(0.5)

    def test_env_override(self):
        cfg = validate_config(GOOD_CONFIG, environ={"FRONTSIM_RUN__T_END": "0.25"})
        assert cfg.t_end == 0.25
        # a section the file lacks is added
        assert "[output]" not in GOOD_CONFIG
        cfg = validate_config(GOOD_CONFIG, environ={"FRONTSIM_OUTPUT__FIELD_T": "5"})
        assert cfg.field_t == 5

    def test_unread_profile_key_from_an_override(self):
        # an override makes a key present as the file's text does
        with pytest.raises(ConfigError) as err:
            validate_config(GOOD_CONFIG, environ={"FRONTSIM_INITIAL__PROFILE_FILE": "profile.csv"})
        assert err.value.errors == ["initial.profile_file: not read when profile = constant"]

    def test_env_names_outside_the_schema_are_ignored(self):
        environ = {"FRONTSIM__RUN": "2", "FRONTSIM_NOPE__T_END": "2", "FRONTSIM_RUN": "2", "PATH": "/"}
        assert validate_config(GOOD_CONFIG, environ=environ).t_end == 1.0

    def test_process_environment_not_read(self, monkeypatch):
        monkeypatch.setenv("FRONTSIM_RUN__T_END", "0.25")
        assert validate_config(GOOD_CONFIG).t_end == 1.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("nope")


class TestFieldChecks:
    """The schema's checks hold for every RunConfig, not only for config text."""

    @pytest.mark.parametrize("field, key, bad, message", FIELD_CASES, ids=FIELD_IDS)
    def test_construction_rejects(self, field, key, bad, message):
        kw = dict(params=Parameters(1, 1, 3, 1, 1, 2), omega=IntervalSet((-1.0, 1.0)), profile=Profile.constant(0.0))
        with pytest.raises(ValueError, match=f"^{re.escape(key + ': ' + message)}$"):
            RunConfig(**{"t_end": 1.0, **kw, field: bad})

    @pytest.mark.parametrize("field, key, bad, message", FIELD_CASES, ids=FIELD_IDS)
    def test_assigned_after_construction_raises_before_the_run(self, tmp_path, monkeypatch, field, key, bad, message):
        # RunConfig stays mutable, so run_scenario checks again before it
        # creates the output directory or solves anything
        def solve(*args, **kwargs):
            raise AssertionError("solved before the check")

        monkeypatch.setattr(frontsim.cli, "run_weak", solve)
        cfg = preset_config("expanding", out_dir=str(tmp_path / "out"))
        setattr(cfg, field, bad)
        with pytest.raises(ValueError, match=f"^{re.escape(key + ': ' + message)}$"):
            run_scenario(cfg)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, key, bad, message", FIELD_CASES, ids=FIELD_IDS)
    def test_the_file_form_names_the_same_key(self, field, key, bad, message):
        # the same value written in a config file fails on the same key
        sec, name = key.split(".")
        text = " ".join(map(repr, bad)) if isinstance(bad, tuple) else repr(bad)
        with pytest.raises(ConfigError) as err:
            validate_config(GOOD_CONFIG, environ={f"FRONTSIM_{sec.upper()}__{name.upper()}": text})
        assert [e.split(":")[0] for e in err.value.errors] == [key]

    def test_valid_values_pass(self, tmp_path):
        cfg = RunConfig(
            Parameters(1, 1, 3, 1, 1, 2), IntervalSet((-1.0, 1.0)), Profile.constant(0.0, (-4.0, 4.0)), 0.5,
            eta=None, trajectory_samples=np.int64(5), field_x=(-2.0, 2.0, np.int64(9)), field_t=2,
            oracle_eps=[0.05], out_dir=str(tmp_path),
        )
        run_scenario(cfg)
        assert len((tmp_path / "trajectories.csv").read_text().splitlines()) == 6


class TestRunScenario:
    def test_expanding_artifacts(self, tmp_path):
        cfg = preset_config("expanding", out_dir=str(tmp_path))
        run_scenario(cfg)
        for name in ("trajectories.csv", "field.csv", "events.json", "spacetime.svg"):
            assert (tmp_path / name).exists()
        assert json.loads((tmp_path / "events.json").read_text()) == []
        rows = (tmp_path / "trajectories.csv").read_text().splitlines()
        assert rows[0] == "t,x_1,x_2"
        last = rows[-1].split(",")
        assert float(last[0]) == 2.0
        assert float(last[2]) == pytest.approx(3.0, abs=1e-9)
        svg = (tmp_path / "spacetime.svg").read_text()
        assert "<polyline" in svg and "<polygon" in svg

    def test_merge_event_record(self, tmp_path):
        cfg = preset_config("merge", out_dir=str(tmp_path))
        run_scenario(cfg)
        events = json.loads((tmp_path / "events.json").read_text())
        assert len(events) == 1
        assert events[0]["kind"] == "merge"
        assert abs(events[0]["time"] - 1.0) <= 1e-6
        # the dead pair reads as nan afterwards
        rows = (tmp_path / "trajectories.csv").read_text().splitlines()
        assert rows[0] == "t,x_1,x_2,x_3,x_4"
        assert "nan" in rows[-1]

    def test_illposed_artifacts(self, tmp_path):
        cfg = preset_config("illposed", out_dir=str(tmp_path))
        run_scenario(cfg)
        div = (tmp_path / "divergence.csv").read_text().splitlines()
        assert div[0] == "t,separation"
        seps = [float(r.split(",")[1]) for r in div[1:]]
        assert all(b >= a for a, b in zip(seps, seps[1:]))
        assert seps[-1] > 0
        # one polyline per branch through its path's knots, and no polygon
        svg = (tmp_path / "spacetime.svg").read_text()
        branches = ill_posedness_demo(cfg.params, cfg.t_end)
        lines = re.findall(r'<polyline points="([^"]*)"', svg)
        assert [len(pts.split()) for pts in lines] == [len(w.segments[0]._path) for w in branches]
        assert "<polygon" not in svg

    def test_csv_text_is_the_per_value_format(self, rng):
        # all rows in one formatting operation read as format(x, ".17g")
        table = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300, (50, 3))
        table[0] = [math.nan, math.inf, -0.0]
        table[1] = [-math.inf, 5e-324, 0.0]
        want = "t,a,b\n" + "".join(",".join(format(float(x), ".17g") for x in row) + "\n" for row in table)
        assert _csv("t,a,b", table[:, 0], table[:, 1:]) == want
        assert _csv("t,a", np.zeros(0), np.zeros(0)) == "t,a\n"

    @pytest.mark.parametrize("source", ["cascade", "illposed_front", "illposed_back"])
    def test_field_csv_is_the_meshgrid_csv(self, source):
        # one read on the outer grid, and one text per t and per x, give the
        # text of _csv over the flattened meshgrid
        params = Parameters(g1=1.0, g2=1.0, g3=3.0, g4=1.0, a=1.0, b=2.0)
        t_end = 3.0
        if source == "cascade":
            rng = np.random.default_rng(4)
            ends = np.cumsum(rng.uniform(0.5, 2.0, 16))
            v0 = Profile.constant(0.0, (ends[0] - 20.0, ends[-1] + 20.0))
            w = run_weak(params, IntervalSet(tuple(ends)), v0, t_end)
            assert len(w.events) >= 3
            value_at, xs = w.evaluate_v, np.linspace(ends[0] - 4.0, ends[-1] + 4.0, 101)
        else:
            recede, advance = ill_posedness_demo(params, t_end)
            value_at = (recede if source == "illposed_front" else advance).evaluate_v
            xs = np.linspace(-6.0, 6.0, 101)
        ts = np.linspace(0.0, t_end, 21)
        X, T = np.meshgrid(xs, ts)
        v = np.asarray(value_at(X.ravel(), T.ravel()))
        assert frontsim.cli._field_csv(value_at, xs, ts) == _csv("t,x,v", T.ravel(), X.ravel(), v)

    @pytest.mark.parametrize(
        "eps, message",
        [
            ((0.05, 0.05), "each eps must be given once, got (0.05, 0.05)"),
            ((0.05, 0.0), "all eps must be positive"),
        ],
    )
    def test_bad_eps_set_in_code_raises_before_the_run(self, tmp_path, monkeypatch, eps, message):
        # set in code, not through a config file or --oracle, whose schema
        # check rejects it first: a repeated eps would write its CSV twice
        # under one name, and eps 0 failed only after the run's artifacts
        def solve(*args, **kwargs):
            raise AssertionError("solved before the check")

        monkeypatch.setattr(frontsim.cli, "run_weak", solve)
        cfg = preset_config("expanding", out_dir=str(tmp_path / "out"))
        cfg.oracle_eps = eps
        with pytest.raises(ValueError, match=f"^{re.escape('oracle.eps: ' + message)}$"):
            run_scenario(cfg)
        assert not (tmp_path / "out").exists()

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_scenario(preset_config("shrinking", out_dir=str(out1)))
        run_scenario(preset_config("shrinking", out_dir=str(out2)))
        for name in ("trajectories.csv", "events.json", "field.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestMainExitCodes:
    def test_preset_ok(self, tmp_path):
        assert main(["run", "--preset", "expanding", "--out", str(tmp_path)]) == 0

    def test_config_error_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(GOOD_CONFIG.replace("g3 = 3\n", ""))
        assert main(["run", str(bad)]) == 1
        assert "g3" in capsys.readouterr().err

    def test_degenerate_start_is_two(self, tmp_path):
        cfg = tmp_path / "stall.ini"
        cfg.write_text(GOOD_CONFIG.replace("profile_value = 0.0", "profile_value = 0.5"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_degenerate_surgery_is_three(self, tmp_path, capsys):
        # the fronts that survive the t = 1 merge stand where |W| < eta = 0.5
        cfg = tmp_path / "ramp.ini"
        cfg.write_text(
            GOOD_CONFIG.replace("intervals = -1 1", "intervals = -3 -1 1 3")
            .replace(
                "profile = constant\nprofile_value = 0.0",
                "profile = samples\nprofile_samples = -8 0.45; -3.5 0.45; -3 0; 3 0; 3.5 0.45; 8 0.45",
            )
            .replace("t_end = 1.0", "t_end = 3.0\neta = 0.5")
        )
        with pytest.warns(DegeneracyWarning):
            assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert "post-surgery data" in capsys.readouterr().err

    def test_invariant_violation_propagates(self, tmp_path, monkeypatch):
        # a plain RuntimeError is a bug, not a numerical failure with exit 3
        def violated(cfg):
            raise RuntimeError("invariant violated")

        monkeypatch.setattr(frontsim.cli, "run_scenario", violated)
        with pytest.raises(RuntimeError, match="invariant violated"):
            main(["run", "--preset", "expanding", "--out", str(tmp_path)])

    def test_missing_target(self):
        assert main(["run"]) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--sweep", "{sweep}", "{config}"], "--sweep excludes a config file or --preset"),
            (["--sweep", "{sweep}", "--preset", "expanding"], "--sweep excludes a config file or --preset"),
            (["{config}", "--preset", "expanding"], "give either a config file or --preset, not both"),
            (["--sweep", "{empty}"], "no .ini configs in {empty}"),
        ],
    )
    def test_conflicting_or_empty_targets_are_one(self, tmp_path, capsys, argv, message):
        paths = {"sweep": tmp_path / "configs", "empty": tmp_path / "empty", "config": tmp_path / "configs" / "a.ini"}
        for d in ("sweep", "empty"):
            paths[d].mkdir()
        paths["config"].write_text(GOOD_CONFIG)
        (paths["empty"] / "notes.txt").write_text("not a config")
        out = tmp_path / "out"
        argv = [arg.format(**paths) for arg in argv]
        assert main(["run", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message.format(**paths) in err and "Traceback" not in err
        assert not out.exists()

    def test_oracle_flag_validation(self, tmp_path, capsys):
        # a bad list fails as a config file's oracle.eps does: exit 1 before
        # the run, with no traceback and no output directory
        for eps in ("0,1", "nan", "inf", "0.05,1e400", "", "0.05,0.02,0.05"):
            out = tmp_path / "out"
            assert main(["run", "--preset", "expanding", "--out", str(out), "--oracle", f"eps={eps}"]) == 1
            assert "Traceback" not in capsys.readouterr().err
            assert not out.exists()
        assert main(["run", "--preset", "expanding", "--out", str(out), "--oracle", "0.05"]) == 1

    def test_sweep(self, tmp_path):
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        for name in ("a.ini", "b.ini"):
            (sweep_dir / name).write_text(GOOD_CONFIG)
        out = tmp_path / "sweepout"
        assert main(["run", "--sweep", str(sweep_dir), "--out", str(out)]) == 0
        assert (out / "a" / "trajectories.csv").exists()
        assert (out / "b" / "trajectories.csv").exists()

    def test_malformed_config_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(GOOD_CONFIG.replace("t_end = 1.0", "t_end = inf"))
        assert main(["run", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "run.t_end: must be finite" in err and "Traceback" not in err

    def test_sweep_runs_past_a_bad_config(self, tmp_path):
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        (sweep_dir / "a.ini").write_text(
            GOOD_CONFIG.replace("profile_value = 0.0", "profile_value = -1")
        )
        (sweep_dir / "b.ini").write_bytes(b"[run]\nt_end = \xff\n")
        (sweep_dir / "c.ini").write_text(GOOD_CONFIG)
        out = tmp_path / "sweepout"
        assert main(["run", "--sweep", str(sweep_dir), "--out", str(out)]) == 1
        assert not (out / "a").exists() and not (out / "b").exists()
        assert (out / "c" / "trajectories.csv").exists()

    def test_env_override_reaches_config_files(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.ini"
        cfg.write_text(GOOD_CONFIG)
        monkeypatch.setenv("FRONTSIM_RUN__T_END", "0.5")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "trajectories.csv").read_text().splitlines()
        assert float(rows[-1].split(",")[0]) == 0.5
        # presets take no overrides
        assert main(["run", "--preset", "expanding", "--out", str(tmp_path / "preset")]) == 0
        rows = (tmp_path / "preset" / "trajectories.csv").read_text().splitlines()
        assert float(rows[-1].split(",")[0]) == 2.0

    def test_help_lists_the_schema(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = capsys.readouterr().out
        for sec, key in frontsim.config._SCHEMA:
            assert f"[{sec}]" in out and key in out
        assert "[tol_step=1e-08]" in out and "[trajectory_samples=401]" in out

    def test_oracle_outputs(self, tmp_path):
        code = main([
            "run", "--preset", "expanding", "--out", str(tmp_path), "--oracle", "eps=0.05",
        ])
        assert code == 0
        summary = json.loads((tmp_path / "oracle" / "summary.json").read_text())
        assert summary[0]["eps"] == 0.05
        assert summary[0]["sup_abs_error"] > 0
        assert sorted(p.name for p in (tmp_path / "oracle").iterdir()) == ["errors_eps_0.05.csv", "summary.json"]

    def test_oracle_csv_per_eps(self, tmp_path):
        # eps values that agree to 6 significant digits still get a CSV each,
        # named by repr, and each CSV holds its own run's errors
        out = tmp_path / "out"
        assert main(["run", "--preset", "expanding", "--out", str(out), "--oracle", "eps=0.05,0.05000001"]) == 0
        summary = json.loads((out / "oracle" / "summary.json").read_text())
        assert [r["eps"] for r in summary] == [0.05, 0.05000001]
        for r in summary:
            rows = (out / "oracle" / f"errors_eps_{r['eps']!r}.csv").read_text().splitlines()
            errors = [float(row.split(",")[1]) for row in rows[1:]]
            assert len(errors) == r["samples"] and max(errors) == r["sup_abs_error"]

    def test_oracle_repeated_eps_is_one(self, tmp_path, capsys):
        # a repeated eps would write its CSV twice under one name
        out = tmp_path / "out"
        assert main(["run", "--preset", "expanding", "--out", str(out), "--oracle", "eps=0.05,0.05"]) == 1
        err = capsys.readouterr().err
        assert "--oracle eps: each eps must be given once, got (0.05, 0.05)" in err and "Traceback" not in err
        assert not out.exists()

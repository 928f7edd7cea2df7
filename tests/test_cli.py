import json
import math

import numpy as np
import pytest

import frontsim.cli
from frontsim.classical import DegeneracyWarning
from frontsim.cli import _csv, main, run_scenario
from frontsim.config import ConfigError, preset_config, validate_config

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


class TestValidateConfig:
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

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("FRONTSIM_RUN__T_END", "0.25")
        cfg = validate_config(GOOD_CONFIG)
        assert cfg.t_end == 0.25

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("nope")


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

    def test_csv_text_is_the_per_value_format(self, rng):
        # all rows in one formatting operation read as format(x, ".17g")
        table = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300, (50, 3))
        table[0] = [math.nan, math.inf, -0.0]
        table[1] = [-math.inf, 5e-324, 0.0]
        want = "t,a,b\n" + "".join(",".join(format(float(x), ".17g") for x in row) + "\n" for row in table)
        assert _csv("t,a,b", table[:, 0], table[:, 1:]) == want
        assert _csv("t,a", np.zeros(0), np.zeros(0)) == "t,a\n"

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

    def test_oracle_flag_validation(self, tmp_path):
        assert main(["run", "--preset", "expanding", "--out", str(tmp_path), "--oracle", "eps=0,1"]) == 1

    def test_sweep(self, tmp_path):
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        for name in ("a.ini", "b.ini"):
            (sweep_dir / name).write_text(GOOD_CONFIG)
        out = tmp_path / "sweepout"
        assert main(["run", "--sweep", str(sweep_dir), "--out", str(out)]) == 0
        assert (out / "a" / "trajectories.csv").exists()
        assert (out / "b" / "trajectories.csv").exists()

    def test_oracle_outputs(self, tmp_path):
        code = main([
            "run", "--preset", "expanding", "--out", str(tmp_path), "--oracle", "eps=0.05",
        ])
        assert code == 0
        summary = json.loads((tmp_path / "oracle" / "summary.json").read_text())
        assert summary[0]["eps"] == 0.05
        assert summary[0]["sup_abs_error"] > 0

import csv
import json
import sys

import pytest

from poissonforms import harness
from poissonforms.harness import (
    EXPERIMENTS,
    ConfigError,
    RunRecord,
    emit,
    load_config_file,
    main,
    resolve_config,
    run_experiment,
)
from poissonforms.report import CheckResult


# values the schema's types admit but no experiment can run on
OUT_OF_RANGE = [("n_samples", 0), ("n_samples", -5), ("n_configs", 0), ("seed", -1),
                ("dt", 0.0), ("dt", -0.1)]


def small_cfg(experiment="laplace", **over):
    over.setdefault("n_samples", 2000)
    return resolve_config(experiment, overrides=over)


class TestResolveConfig:
    def test_defaults_are_spelled_out(self):
        cfg = resolve_config("laplace")
        assert cfg["experiment"] == "laplace"
        assert cfg["n_samples"] == 100_000
        assert cfg["seed"] == 42
        assert cfg["format"] == "json"
        assert set(cfg) == set(harness._SCHEMA)

    def test_file_then_cli_precedence(self):
        cfg = resolve_config(
            "mecke",
            file_values={"n_samples": 5000, "seed": 7},
            overrides={"seed": 9},
        )
        assert cfg["n_samples"] == 5000
        assert cfg["seed"] == 9

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            resolve_config("heat-kernel")

    def test_unknown_key_reports_line(self):
        text = '{\n  "n_samples": 100,\n  "n_sample": 5\n}\n'
        with pytest.raises(ConfigError, match=r"n_sample.*line 3"):
            resolve_config("laplace", json.loads(text), text)

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            resolve_config("laplace", {"n_samples": True})

    def test_wrong_type_reports_line(self):
        text = '{\n  "dt": "fast"\n}\n'
        with pytest.raises(ConfigError, match=r"dt.*line 2"):
            resolve_config("laplace", json.loads(text), text)

    def test_bad_choice(self):
        with pytest.raises(ConfigError, match="must be one of"):
            resolve_config("laplace", {"format": "yaml"})

    def test_removed_keys_are_unknown(self):
        # these keys had one value each in use and were dropped
        for key, value in (
            ("space", "euclidean2"), ("window", "all"), ("batteries", "default"),
            ("det_tol", 1e-8), ("sphere_tol", 1e-4),
        ):
            with pytest.raises(ConfigError, match="unknown config key"):
                resolve_config("laplace", {key: value})

    def test_t_grid_positive(self):
        with pytest.raises(ConfigError, match="positive"):
            resolve_config("semigroup-ou", {"t_grid": [0.25, -0.5]})
        with pytest.raises(ConfigError, match="positive"):
            resolve_config("semigroup-ou", {"t_grid": []})

    def test_generator_ts_needs_two_distinct_horizons(self):
        for ts in ([0.01], [0.01, 0.01], [0.02, 0.01, 0.01]):
            text = '{\n  "generator_ts": %s\n}\n' % json.dumps(ts)
            with pytest.raises(ConfigError, match=r"generator_ts.*distinct.*line 2"):
                resolve_config("generator", json.loads(text), text)
        cfg = resolve_config("generator", {"generator_ts": [0.02, 0.01]})
        assert cfg["generator_ts"] == [0.02, 0.01]

    def test_experiment_mismatch(self):
        text = '{\n  "experiment": "mecke"\n}\n'
        with pytest.raises(ConfigError, match=r"mecke.*laplace.*line 2"):
            resolve_config("laplace", json.loads(text), text)

    def test_int_promoted_to_float(self):
        cfg = resolve_config("laplace", {"dt": 1})
        assert cfg["dt"] == 1.0 and isinstance(cfg["dt"], float)

    @pytest.mark.parametrize("key, value", OUT_OF_RANGE)
    def test_out_of_range_value_reports_line(self, key, value):
        text = '{\n  "%s": %s\n}\n' % (key, json.dumps(value))
        with pytest.raises(ConfigError, match=rf"{key}.*line 2"):
            resolve_config("laplace", json.loads(text), text)

    def test_least_values_accepted(self):
        cfg = resolve_config("laplace", {"n_samples": 1, "n_configs": 1, "seed": 0,
                                         "dt": 1e-6})
        assert (cfg["n_samples"], cfg["n_configs"], cfg["seed"]) == (1, 1, 0)


class TestConfigFile:
    def test_json_error_is_line_precise(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n  "n_samples": 100,\n}\n')
        with pytest.raises(ConfigError, match="line 3"):
            load_config_file(str(p))

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]\n")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config_file(str(p))


class TestRunRecord:
    def test_reruns_are_byte_identical(self):
        cfg = small_cfg()
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1.canonical_json() == r2.canonical_json()
        # the timed serialization parses back to the same record body
        assert RunRecord.from_json(r1.json()).checks == r1.checks

    def test_config_echo_complete(self):
        rec = run_experiment(small_cfg())
        assert set(rec.to_dict()["config"]) == set(harness._SCHEMA)

    def test_timing_only_in_full_json(self):
        rec = run_experiment(small_cfg())
        assert "timing" in json.loads(rec.json())
        assert "timing" not in json.loads(rec.canonical_json())
        assert rec.canonical_json().endswith("\n")

    def test_versions_recorded(self):
        rec = run_experiment(small_cfg())
        assert set(rec.versions) == {"poissonforms", "numpy", "scipy", "python"}

    def test_versions_record_null_scipy_when_absent(self, monkeypatch):
        # scipy is a test dependency only: a run without it records null
        import scipy

        assert harness._versions()["scipy"] == scipy.__version__
        monkeypatch.setitem(sys.modules, "scipy", None)  # import scipy now raises
        versions = harness._versions()
        assert versions["scipy"] is None and set(versions) == {
            "poissonforms", "numpy", "scipy", "python"}


class TestEmit:
    def test_csv_shape(self, tmp_path):
        rec = run_experiment(small_cfg())
        out = tmp_path / "rows.csv"
        emit(rec, "csv", str(out))
        data = out.read_bytes().decode("utf-8")
        assert data.endswith("\n")
        rows = list(csv.reader(data.splitlines()))
        assert rows[0] == ["check", "lhs", "rhs", "stderr", "tol", "pass"]
        assert len(rows) == 1 + len(rec.checks)
        for row in rows[1:]:
            float(row[1]), float(row[2]), float(row[3]), float(row[4])
            assert row[5] in ("True", "False")

    def test_json_round_trip(self, tmp_path):
        rec = run_experiment(small_cfg())
        out = tmp_path / "rec.json"
        emit(rec, "json", str(out))
        back = RunRecord.from_json(out.read_text())
        assert back.experiment == rec.experiment
        assert back.checks == rec.checks
        assert back.config == {k: rec.config[k] for k in harness._SCHEMA}

    def test_unknown_format(self, tmp_path):
        rec = run_experiment(small_cfg())
        with pytest.raises(ConfigError):
            emit(rec, "yaml", str(tmp_path / "x"))


class TestMain:
    def test_exit_zero_and_output(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["laplace", "--samples", "2000", "--out", str(out)])
        assert code == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "laplace: 5/5 checks passed" in text
        assert text.count("[pass]") == 5

    def test_exit_two_no_output_written(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text('{"n_samples": "many"}\n')
        out = tmp_path / "never.json"
        code = main(
            ["laplace", "--config", str(cfgfile), "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_exit_two_on_one_generator_horizon(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text('{"generator_ts": [0.01]}\n')
        out = tmp_path / "never.json"
        assert main(["generator", "--config", str(cfgfile), "--out", str(out)]) == 2
        assert not out.exists()
        assert "generator_ts" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, key, value", [
        ("semigroup-ou", "dt", -0.1), ("laplace", "n_samples", 0),
        ("laplace", "n_samples", -5), ("laplace", "seed", -1), ("weitzenbock", "n_configs", 0),
    ])
    def test_exit_two_on_out_of_range_value(self, tmp_path, capsys, experiment, key, value):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({key: value}) + "\n")
        out = tmp_path / "never.json"
        assert main([experiment, "--config", str(cfgfile), "--out", str(out)]) == 2
        assert not out.exists()
        assert f"{key!r} must be" in capsys.readouterr().err

    def test_exit_two_on_out_of_range_flag(self, capsys):
        assert main(["laplace", "--samples", "0"]) == 2
        assert main(["laplace", "--seed", "-1"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_exit_one_prints_failing_rows(self, tmp_path, monkeypatch, capsys):
        def failing(cfg, rng):
            return [
                CheckResult.deterministic("always-bad", 1.0, 0.0, 1e-8),
                CheckResult.deterministic("fine", 0.0, 0.0, 1e-8),
            ]

        monkeypatch.setitem(EXPERIMENTS, "laplace", failing)
        out = tmp_path / "fail.json"
        code = main(["laplace", "--out", str(out)])
        assert code == 1
        assert out.exists()  # the failing report is still persisted
        err = capsys.readouterr().err
        assert "always-bad" in err and "fine" not in err

    def test_seed_changes_draws_but_not_schema(self):
        r1 = run_experiment(small_cfg(seed=1))
        r2 = run_experiment(small_cfg(seed=2))
        assert [c["check"] for c in r1.checks] == [c["check"] for c in r2.checks]
        assert any(
            a["lhs"] != b["lhs"] for a, b in zip(r1.checks, r2.checks)
        )

    def test_experiment_names_registered(self):
        assert set(EXPERIMENTS) == {
            "laplace", "series-vs-mc", "mecke", "ibp", "dirichlet",
            "factorization", "weitzenbock", "semigroup-ou", "generator",
            "acceptance-all",
        }

"""CLI contract tests: exit codes, output files, determinism."""

import json

import numpy as np
import pytest

from sensel import model
from sensel.cli import main


@pytest.fixture
def small_scenario_path(tmp_path):
    system = model.tracking_system(1.0)
    h = model.position_h()
    rng = np.random.default_rng(5)
    sensors = [model.SensorModel.build(h, rng.uniform(0, 100, 2)) for _ in range(4)]
    noise = model.NoiseModel.build(
        [2] * 4, base_blocks=[np.diag(rng.uniform(5, 10, 2)) for _ in range(4)]
    )
    scenario = model.make_scenario(
        system, sensors, noise,
        model.ConstraintSet.build([2, 2], energy=[1, 1, 1, 1]),
        [0.5, 0.5], [50.0, 0.0, 50.0, 0.0], np.diag([25.0, 4.0, 25.0, 4.0]),
    )
    path = tmp_path / "small.json"
    model.save_scenario(scenario, path)
    return path


@pytest.fixture
def correlated_scenario_path(tmp_path):
    scenario = model.load_scenario("src/sensel/scenarios/example4.json")
    path = tmp_path / "jammed.json"
    model.save_scenario(scenario, path)
    return path


class TestSelect:
    def test_lp_certificate_json(self, small_scenario_path, tmp_path):
        out = tmp_path / "cert.json"
        code = main([
            "select", str(small_scenario_path),
            "--algo", "lp", "--objective", "f3", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert {"f_lp", "f_blp_hat", "gap", "schedule", "feasible"} <= set(payload)
        assert payload["feasible"] is True
        assert payload["gap"] >= -1e-8

    def test_sdr_deterministic_schedule(self, correlated_scenario_path, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            code = main([
                "select", str(correlated_scenario_path),
                "--algo", "sdr", "--samples", "50", "--seed", "7",
                "--out", str(out),
            ])
            assert code == 0
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert a["schedule"] == b["schedule"]
        assert {"sdp_objective", "duality_gap", "samples", "best_objective"} <= set(a)

    def test_exhaustive_too_large_maps_to_exit_2(self, tmp_path):
        scenario = model.load_scenario("src/sensel/scenarios/example3.json")
        path = tmp_path / "big.json"
        model.save_scenario(scenario, path)
        code = main(["select", str(path), "--algo", "exhaustive"])
        assert code == 2

    def test_topk_on_correlated_maps_to_exit_2(self, correlated_scenario_path):
        code = main(["select", str(correlated_scenario_path), "--algo", "topk"])
        assert code == 2

    def test_missing_file_exit_1(self):
        code = main(["select", "nope.json", "--algo", "topk"])
        assert code == 1

    @pytest.mark.parametrize("samples", ["0", "-3", "many"])
    def test_bad_samples_is_usage_error(self, samples, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["select", "example4", "--algo", "sdr", "--samples", samples])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err

    def test_bundled_name_resolves(self, tmp_path):
        out = tmp_path / "sel.json"
        code = main([
            "select", "example1", "--algo", "topk", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["schedule"][0]) == 10


class TestThreadsDefault:
    def test_env_var_fallback(self, monkeypatch):
        from sensel.cli import build_parser

        monkeypatch.setenv("SENSEL_THREADS", "3")
        args = build_parser().parse_args(
            ["simulate", "x.json", "--algo", "topk"]
        )
        assert args.threads == 3

    def test_flag_overrides_env(self, monkeypatch):
        from sensel.cli import build_parser

        monkeypatch.setenv("SENSEL_THREADS", "3")
        args = build_parser().parse_args(
            ["simulate", "x.json", "--algo", "topk", "--threads", "2"]
        )
        assert args.threads == 2


class TestSimulate:
    def test_csv_written(self, small_scenario_path, tmp_path):
        out = tmp_path / "run.csv"
        code = main([
            "simulate", str(small_scenario_path),
            "--algo", "lp", "--runs", "3", "--seed", "1",
            "--threads", "1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("step,")
        assert len(lines) == 3  # header + one row per step

    def test_single_run(self, small_scenario_path, tmp_path):
        out = tmp_path / "one.csv"
        code = main([
            "simulate", str(small_scenario_path),
            "--algo", "topk", "--runs", "1", "--threads", "1",
            "--out", str(out),
        ])
        assert code == 0

    def test_missing_file_exit_1(self):
        assert main(["simulate", "absent.json", "--algo", "topk"]) == 1


class TestSweep:
    def test_jammer_power_sweep(self, correlated_scenario_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", str(correlated_scenario_path),
            "--algo", "ignore-dep", "--param", "jammer_power",
            "--values", "1e5,3e5", "--runs", "1", "--threads", "1",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3  # header + one row per value (horizon 1)

    def test_unknown_param_exit_1_and_lists_names(self, small_scenario_path, capsys):
        code = main([
            "sweep", str(small_scenario_path),
            "--algo", "topk", "--param", "bogus", "--values", "1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "jammer_power" in err

    def test_single_value(self, small_scenario_path, tmp_path):
        code = main([
            "sweep", str(small_scenario_path),
            "--algo", "topk", "--param", "m_per_step", "--values", "1",
            "--runs", "1", "--threads", "1",
        ])
        assert code == 0

"""CLI contract tests: exit codes, output files, determinism."""

import argparse
import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sensel import cli, model, plan, select_sdr, sim
from sensel.cli import build_parser, main
from sensel.errors import NotSeparableNoise
from sensel.plan import ALGORITHMS
from sensel.select_sdr import bqp_objective, build_bqp, build_sdp, relaxation_bound, solve_sdp

from conftest import noise_block, sensor_measure


def save_small_scenario(path, energy):
    """Four sensors, two steps of two; ``energy`` as ConstraintSet takes it."""
    system = model.tracking_system(1.0)
    h = model.position_h()
    rng = np.random.default_rng(5)
    sensors = model.SensorModel.build_all([h] * 4, [rng.uniform(0, 100, 2) for _ in range(4)])
    noise = model.NoiseModel.build(
        [2] * 4, base_blocks=[np.diag(rng.uniform(5, 10, 2)) for _ in range(4)]
    )
    scenario = model.make_scenario(
        system, sensors, noise,
        model.ConstraintSet.build([2, 2], energy=energy),
        [0.5, 0.5], [50.0, 0.0, 50.0, 0.0], np.diag([25.0, 4.0, 25.0, 4.0]),
    )
    model.save_scenario(scenario, path)
    return path


@pytest.fixture
def small_scenario_path(tmp_path):
    """Every sensor has a budget of 1, which binds: top-k cannot plan it."""
    return save_small_scenario(tmp_path / "small.json", [1, 1, 1, 1])


@pytest.fixture
def unbudgeted_scenario_path(tmp_path):
    return save_small_scenario(tmp_path / "unbudgeted.json", None)


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

    @pytest.mark.parametrize("name", ["example4", "example5", "example6"])
    def test_sdr_certificate_bounds_the_rounded_schedule(self, name, tmp_path):
        """The sdr JSON carries the relaxation's lower bound and the drawn
        schedule's quadratic value, and the bound holds."""
        out = tmp_path / "sdr.json"
        argv = ["select", name, "--algo", "sdr", "--seed", "7", "--samples", "100"]
        assert main(argv + ["--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        scenario = model.load_scenario(f"src/sensel/scenarios/{name}.json")
        gamma = np.zeros((scenario.num_sensors, scenario.horizon), dtype=np.int8)
        for n, chosen in enumerate(payload["schedule"]):
            gamma[chosen, n] = 1
        bqp = build_bqp(scenario)
        bqp_value = bqp_objective(bqp, model.SelectionSchedule.build(gamma))
        assert payload["bqp_objective"] == pytest.approx(bqp_value, rel=1e-12)
        bound = payload["relaxation_bound"]
        assert bound <= payload["bqp_objective"] + 1e-6 * (1 + abs(bound))

    def test_sdr_certificate_reuses_the_solved_problem(self, monkeypatch, tmp_path):
        """One ``select --algo sdr`` builds the quadratic problem once: the
        certificate reads the planned problem and bound, and they equal
        what a fresh rebuild of the problem and its relaxation gives."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return build_bqp(*args, **kwargs)

        for module in (cli, plan, select_sdr):
            monkeypatch.setattr(module, "build_bqp", counted, raising=False)
        out = tmp_path / "sdr.json"
        argv = ["select", "example4", "--algo", "sdr", "--seed", "3", "--samples", "50"]
        assert main(argv + ["--out", str(out)]) == 0
        assert len(calls) == 1
        monkeypatch.undo()
        payload = json.loads(out.read_text())
        scenario = model.load_scenario("src/sensel/scenarios/example4.json")
        bqp = build_bqp(scenario)
        sdp = build_sdp(bqp)
        assert payload["relaxation_bound"] == relaxation_bound(solve_sdp(sdp), sdp)
        gamma = np.zeros((scenario.num_sensors, scenario.horizon), dtype=np.int8)
        for n, chosen in enumerate(payload["schedule"]):
            gamma[chosen, n] = 1
        assert payload["bqp_objective"] == bqp_objective(bqp, model.SelectionSchedule.build(gamma))

    @pytest.mark.parametrize("name", ["example4", "example5"])
    def test_sdr_step_that_selects_every_sensor(self, name, tmp_path):
        """A first step that selects all 25 sensors, which the loader
        allows, and no budgets: the solve meets its tolerance and the
        schedule takes every sensor there.  The solver's start clips that
        step inside the box; on example5 the start from a multiple of I
        raised NotConverged."""
        scenario = model.load_scenario(f"src/sensel/scenarios/{name}.json")
        every = [scenario.num_sensors, *scenario.constraints.per_step[1:]]
        path = tmp_path / "every.json"
        model.save_scenario(replace(scenario, constraints=model.ConstraintSet.build(every)), path)
        out = tmp_path / "sdr.json"
        argv = ["select", str(path), "--algo", "sdr", "--seed", "7", "--samples", "50"]
        assert main(argv + ["--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["duality_gap"] <= select_sdr._TOL
        assert payload["schedule"][0] == list(range(scenario.num_sensors))

    def test_exhaustive_too_large_maps_to_exit_2(self, tmp_path):
        scenario = model.load_scenario("src/sensel/scenarios/example3.json")
        path = tmp_path / "big.json"
        model.save_scenario(scenario, path)
        code = main(["select", str(path), "--algo", "exhaustive"])
        assert code == 2

    def test_topk_on_correlated_maps_to_exit_2(self, correlated_scenario_path):
        code = main(["select", str(correlated_scenario_path), "--algo", "topk"])
        assert code == 2

    @pytest.mark.parametrize("target", ["example2", "budgeted"])
    def test_topk_against_binding_budget_maps_to_exit_2(
        self, target, small_scenario_path, capsys
    ):
        target = str(small_scenario_path) if target == "budgeted" else target
        assert main(["select", target, "--algo", "topk"]) == 2
        assert "energy budget" in capsys.readouterr().err

    def test_topk_keeps_schedules_that_meet_the_budgets(self, tmp_path):
        """A budget top-k happens to meet leaves its output unchanged."""
        paths = [
            save_small_scenario(tmp_path / "loose.json", [2, 2, 2, 2]),
            save_small_scenario(tmp_path / "free.json", None),
        ]
        outs = [tmp_path / "loose-sel.json", tmp_path / "free-sel.json"]
        for path, out in zip(paths, outs):
            assert main(["select", str(path), "--algo", "topk", "--out", str(out)]) == 0
        loose, free = (json.loads(out.read_text()) for out in outs)
        assert loose["schedule"] == free["schedule"]

    def test_missing_file_exit_1(self):
        code = main(["select", "nope.json", "--algo", "topk"])
        assert code == 1

    @pytest.mark.parametrize("relation, b", [("<=", np.nan), ("=", np.inf)], ids=["nan", "inf"])
    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_non_finite_row_right_side_exit_1(self, algo, relation, b, tmp_path, capsys):
        """A linear row whose right side is not finite is rejected when the
        scenario is loaded, before any algorithm runs."""
        data = json.loads(open("src/sensel/scenarios/example1.json").read())
        nl = len(data["sensors"]) * len(data["constraints"]["per_step"])
        data["constraints"]["linear"] = [{"a": [1.0] * nl, "relation": relation, "b": b}]
        path = tmp_path / "row.json"
        path.write_text(json.dumps(data))
        assert main(["select", str(path), "--algo", algo]) == 1
        assert "constraint rows contain non-finite entries" in capsys.readouterr().err

    @pytest.mark.parametrize("per_step, weights, message", [
        pytest.param([], [], "horizon needs at least one step", id="empty"),
        pytest.param([1.7], [1.0], "is not an integer", id="fractional"),
    ])
    @pytest.mark.parametrize("algo", ["lp", "sdr"])
    def test_bad_horizon_exit_1(self, algo, per_step, weights, message, tmp_path, capsys):
        """An empty or fractional per-step count list is a ScenarioError at
        load: no empty schedule, no truncation, no traceback."""
        data = json.loads(open("src/sensel/scenarios/example1.json").read())
        data["constraints"]["per_step"] = per_step
        data["weights"] = weights
        path = tmp_path / "horizon.json"
        path.write_text(json.dumps(data))
        assert main(["select", str(path), "--algo", algo]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("path, value, message", [
        pytest.param(("seed",), 1.5, "seed=1.5 is not an integer", id="fractional-seed"),
        pytest.param(("seed",), None, "missing field scenario.seed", id="no-seed"),
        pytest.param(("constraints", "per_step", 0), True, "per_step[0]=True", id="true-count"),
        pytest.param(("constraints", "energy", 4), False, "energy[4]=False", id="false-budget"),
        pytest.param(("position_indices", 1), True, "position_indices[1]=True",
                     id="true-position-index"),
    ])
    def test_schema_integer_violation_exit_1(self, path, value, message, tmp_path, capsys):
        """The schema's integers are the loader's: a fractional seed is not
        truncated, JSON true and false are not counts, budgets or position
        indices (although true == 1), and the required seed has no
        default."""
        data = json.loads(open("src/sensel/scenarios/example2.json").read())
        *parents, key = path
        target = data
        for part in parents:
            target = target[part]
        if value is None:
            del target[key]
        else:
            target[key] = value
        scenario = tmp_path / "integers.json"
        scenario.write_text(json.dumps(data))
        assert main(["select", str(scenario), "--algo", "lp"]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("matrix", ["R0", "noise block", "P0"])
    def test_non_square_matrix_exit_1(self, matrix, tmp_path, capsys):
        """A non-square matrix is a shape error at load.  Broadcast against
        its transpose, a 1x2 jammer R0 would load as the indefinite
        [[1, 0.5], [0.5, 0]]."""
        data = json.loads(open("src/sensel/scenarios/example4.json").read())
        if matrix == "R0":
            data["noise"]["jammer"].update({"R0": [[1.0, 0.0]], "p0": 1.0})
        elif matrix == "noise block":
            data["noise"]["blocks"][1] = [[1.0, 0.0]]
        else:
            data["P0"] = data["P0"][:1]
        path = tmp_path / "non_square.json"
        path.write_text(json.dumps(data))
        assert main(["select", str(path), "--algo", "sdr"]) == 1
        err = capsys.readouterr().err
        assert "must be square" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag, value", [
        pytest.param("select", "--samples", "0", id="0"),
        pytest.param("select", "--samples", "-3", id="-3"),
        pytest.param("select", "--samples", "many", id="many"),
        pytest.param("simulate", "--runs", "0", id="runs-0"),
        pytest.param("sweep", "--runs", "-3", id="sweep-runs--3"),
        pytest.param("simulate", "--threads", "0", id="threads-0"),
        pytest.param("sweep", "--threads", "-3", id="sweep-threads--3"),
        pytest.param("select", "--seed", "-1", id="select-seed--1"),
        pytest.param("simulate", "--seed", "-1", id="simulate-seed--1"),
        pytest.param("sweep", "--seed", "-1", id="sweep-seed--1"),
    ])
    def test_bad_samples_is_usage_error(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "example4", "--algo", "sdr", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["select", "simulate", "sweep"])
    @pytest.mark.parametrize("where", ["missing/dir/x.json", "."])
    def test_bad_out_is_usage_error_before_any_solve(
        self, command, where, tmp_path, monkeypatch, capsys
    ):
        """An --out in a missing directory, or naming a directory, used to
        fail with a traceback after every solve had run."""
        from sensel import cli

        def never(*args, **kwargs):
            raise AssertionError("planned before the arguments were checked")

        monkeypatch.setattr(cli, "prepare", never)
        monkeypatch.setattr(cli, "run_closed_loop", never)
        monkeypatch.setattr(cli, "sweep", never)
        argv = [command, "example4", "--algo", "sdr", "--out", str(tmp_path / where)]
        if command == "sweep":
            argv += ["--param", "s_count", "--values", "5"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_bundled_name_resolves(self, tmp_path):
        out = tmp_path / "sel.json"
        code = main([
            "select", "example1", "--algo", "topk", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["schedule"][0]) == 10


class TestOnePlanner:
    def test_algo_choices_are_the_registry(self):
        commands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(commands.choices) == {"select", "simulate", "sweep"}
        for command in commands.choices.values():
            algo = next(a for a in command._actions if a.dest == "algo")
            assert tuple(algo.choices) == tuple(ALGORITHMS)

    @pytest.mark.parametrize("algo", ["topk", "lp", "exhaustive", "ignore-dep"])
    def test_select_schedule_is_the_simulated_one(
        self, algo, small_scenario_path, unbudgeted_scenario_path, tmp_path, monkeypatch
    ):
        # Top-k cannot plan under the binding budget of small_scenario_path.
        path = unbudgeted_scenario_path if algo == "topk" else small_scenario_path
        out = tmp_path / "sel.json"
        argv = [str(path), "--algo", algo, "--objective", "f1"]
        assert main(["select", *argv, "--out", str(out)]) == 0
        # One stacked update per step filters every run: read each run's
        # column out of it.
        filtered = [[], []]
        original = sim.update_gif

        def recording(state, scenario, columns, *rest, **kw):
            assert np.shape(columns) == (2, scenario.num_sensors)
            for run, column in enumerate(columns):
                filtered[run].append(np.flatnonzero(column).tolist())
            return original(state, scenario, columns, *rest, **kw)

        monkeypatch.setattr(sim, "update_gif", recording)
        assert main(["simulate", *argv, "--runs", "2", "--threads", "1"]) == 0
        selected = json.loads(out.read_text())["schedule"]
        assert filtered == [selected] * 2


def _schedule(payload, scenario) -> model.SelectionSchedule:
    gamma = np.zeros((scenario.num_sensors, scenario.horizon), dtype=np.int8)
    for n, chosen in enumerate(payload["schedule"]):
        gamma[chosen, n] = 1
    return model.SelectionSchedule.build(gamma)


def readme_quick_start() -> list[str]:
    """The Python blocks of the README's quick start, in order."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    return [block.split("```", 1)[0] for block in section.split("```python\n")[1:]]


@pytest.mark.parametrize("name", ["example6", "example7"])
class TestScenarioOnlyCalls:
    """On the distance-noise scenarios, the library called with the scenario
    alone computes what ``sensel select`` plans: every call reads the
    per-step noise from the scenario, none takes it as an argument."""

    def test_measures_and_baseline_match_select(self, name, tmp_path):
        from sensel.filter import open_loop_predictions
        from sensel.measure import info_table, objective_f3, objective_value

        scenario = model.load_scenario(f"src/sensel/scenarios/{name}.json")
        predictions = open_loop_predictions(scenario.system, scenario.x0, scenario.horizon)
        steps = model.distance_noise(scenario, predictions, scenario.noise.distance_alpha1)
        expected = [
            [sensor_measure(sensor.h_at(n), noise_block(steps[n], i, i)) for n in range(len(steps))]
            for i, sensor in enumerate(scenario.sensors)
        ]
        assert np.array_equal(info_table(scenario), expected)
        schedule = select_sdr.select_ignore_dependence(scenario)
        for kind in ("f1", "f2", "f3"):
            out = tmp_path / f"{kind}.json"
            argv = ["select", name, "--algo", "ignore-dep", "--objective", kind]
            assert main(argv + ["--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            assert _schedule(payload, scenario).key() == schedule.key()
            assert objective_value(kind, schedule, scenario) == payload["value"]
            if kind == "f3":
                assert objective_f3(schedule, scenario) == payload["value"]

    def test_bqp_matches_select(self, name, tmp_path):
        scenario = model.load_scenario(f"src/sensel/scenarios/{name}.json")
        bqp = build_bqp(scenario)
        planned = plan.prepare(scenario, "sdr", "f3").bqp
        assert all(map(np.array_equal, bqp.b_blocks, planned.b_blocks))
        out = tmp_path / "sdr.json"
        argv = ["select", name, "--algo", "sdr", "--samples", "30", "--seed", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert bqp_objective(bqp, _schedule(payload, scenario)) == payload["bqp_objective"]

    def test_readme_quick_start(self, name, tmp_path):
        """The LP block refuses the correlated noise as ``select --algo lp``
        does; the SDR block draws the schedule ``select --algo sdr`` draws."""
        lp_block, sdr_block = readme_quick_start()
        assert "example3.json" in lp_block and "example4.json" in sdr_block
        namespace = {}
        with pytest.raises(NotSeparableNoise):
            exec(lp_block.replace("example3.json", f"{name}.json"), namespace)
        assert main(["select", name, "--algo", "lp"]) == 2
        exec(sdr_block.replace("example4.json", f"{name}.json"), namespace)
        out = tmp_path / "sdr.json"
        argv = ["select", name, "--algo", "sdr", "--samples", "100", "--seed", "7"]
        assert main(argv + ["--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        best = namespace["best"]
        assert best.schedule.key() == _schedule(payload, namespace["scenario"]).key()
        assert best.objective == payload["best_objective"]


class TestThreadsDefault:
    def test_one_worker_without_env_var(self, monkeypatch):
        from sensel.cli import build_parser

        monkeypatch.delenv("SENSEL_THREADS", raising=False)
        for command in ("simulate", "sweep"):
            argv = [command, "x.json", "--algo", "topk"]
            if command == "sweep":
                argv += ["--param", "s_count", "--values", "5"]
            assert build_parser().parse_args(argv).threads == 1

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

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_malformed_env_is_a_usage_error(self, monkeypatch, capsys, value):
        from sensel.cli import build_parser

        monkeypatch.setenv("SENSEL_THREADS", value)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["simulate", "x.json", "--algo", "topk"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
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

    def test_single_run(self, unbudgeted_scenario_path, tmp_path):
        out = tmp_path / "one.csv"
        code = main([
            "simulate", str(unbudgeted_scenario_path),
            "--algo", "topk", "--runs", "1", "--threads", "1",
            "--out", str(out),
        ])
        assert code == 0

    def test_missing_file_exit_1(self):
        assert main(["simulate", "absent.json", "--algo", "topk"]) == 1

    def test_off_symmetric_process_noise_runs(self, tmp_path):
        """Q is symmetrized on load, so the simulator's Cholesky factor of
        Q never meets an off-symmetric matrix."""
        data = json.loads(open("src/sensel/scenarios/example2.json").read())
        data["Q"][0][1] += 0.01
        path = tmp_path / "off_symmetric.json"
        path.write_text(json.dumps(data))
        code = main([
            "simulate", str(path), "--algo", "lp", "--runs", "2",
            "--threads", "1", "--out", str(tmp_path / "run.csv"),
        ])
        assert code == 0


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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_jammer_power_is_scenario_error(self, value, capsys):
        """A NaN power used to run with no jammer at all and exit 0."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "sweep", "example4", "--algo", "ignore-dep",
                "--param", "jammer_power", "--values", value, "--threads", "1",
            ])
        assert code == 1
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and "must be finite" in out.err
        assert "jammer_power=" not in out.out
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_unknown_param_exit_1_and_lists_names(self, small_scenario_path, capsys):
        code = main([
            "sweep", str(small_scenario_path),
            "--algo", "topk", "--param", "bogus", "--values", "1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "jammer_power" in err

    def test_zero_samples_is_scenario_error(self, small_scenario_path, capsys):
        code = main([
            "sweep", str(small_scenario_path),
            "--algo", "topk", "--param", "s_count", "--values", "0",
        ])
        assert code == 1
        assert "randomization sample" in capsys.readouterr().err

    @pytest.mark.parametrize("param", ["m_per_step", "s_count"])
    def test_fractional_count_is_scenario_error(self, param, small_scenario_path, capsys):
        code = main([
            "sweep", str(small_scenario_path),
            "--algo", "topk", "--param", param, "--values", "1,2.5",
            "--threads", "1",
        ])
        assert code == 1
        assert "whole numbers" in capsys.readouterr().err

    def test_single_value(self, unbudgeted_scenario_path, tmp_path):
        code = main([
            "sweep", str(unbudgeted_scenario_path),
            "--algo", "topk", "--param", "m_per_step", "--values", "1",
            "--runs", "1", "--threads", "1",
        ])
        assert code == 0


SCHEMA_KEYWORDS = ("required", "type", "minItems", "maxItems", "minimum", "exclusiveMinimum", "enum")
# Keys that shape the walk or only annotate it, and state no rule.
SCHEMA_STRUCTURE = {"$schema", "title", "description", "properties", "items", "definitions", "$ref"}
# One value of each JSON type, for breaking a "type" keyword.
JSON_VALUES = {
    "null": None, "boolean": True, "integer": 1, "number": 1.5,
    "string": "x", "array": [], "object": {},
}


def schema_sites(schema, node, path=()):
    """(instance path, keyword, node) for every rule the schema states; an
    ``items`` rule is walked at its array's first element."""
    if "$ref" in node:
        name = node["$ref"].rsplit("/", 1)[1]
        node = {**schema["definitions"][name], **node}
    for keyword in node:
        if keyword not in SCHEMA_STRUCTURE:
            yield path, keyword, node
    for field, sub in node.get("properties", {}).items():
        yield from schema_sites(schema, sub, path + (field,))
    if "items" in node:
        yield from schema_sites(schema, node["items"], path + (0,))


def schema_violations(keyword, node, value):
    """(label, replacement) pairs, each of which breaks ``keyword`` of
    ``node`` when put in place of ``value``, a value that meets it."""
    if keyword == "required":
        return [(f"no {field}", {k: v for k, v in value.items() if k != field})
                for field in node["required"]]
    if keyword == "type":
        allowed = {node["type"]} if isinstance(node["type"], str) else set(node["type"])
        if "number" in allowed:
            allowed.add("integer")
        return [(kind, bad) for kind, bad in JSON_VALUES.items() if kind not in allowed]
    if keyword == "minItems":
        return [("short", value[: node["minItems"] - 1])]
    if keyword == "maxItems":
        return [("long", value + value[-1:] * (node["maxItems"] + 1 - len(value)))]
    if keyword == "minimum":
        return [("below", node["minimum"] - 1)]
    if keyword == "exclusiveMinimum":
        return [("at bound", node["exclusiveMinimum"])]
    if keyword == "enum":
        return [("outside", "".join(map(str, node["enum"])))]
    raise AssertionError(f"the schema walker cannot break keyword {keyword!r}")


class TestSchemaContract:
    def test_every_schema_rule_is_the_loaders(self, tmp_path, capsys):
        """Walk scenario.schema.json and break each of its rules in turn on
        example7, with one linear row added so that every optional field is
        present, or on the same scenario with its noise given as one full
        matrix: every mutation must exit 1 through ``cli.main`` with no
        traceback.  A keyword the walker does not know, or a rule no base
        reaches, fails the test."""
        schema = json.loads(open("src/sensel/scenario.schema.json").read())
        blocked = json.loads(open("src/sensel/scenarios/example7.json").read())
        nl = len(blocked["sensors"]) * len(blocked["constraints"]["per_step"])
        blocked["constraints"]["linear"] = [
            {"a": [1.0] + [0.0] * (nl - 1), "relation": "<=", "b": 1.0}
        ]
        full = json.loads(json.dumps(blocked))
        full["noise"]["full"] = model.load_scenario(
            "src/sensel/scenarios/example7.json"
        ).noise.r_full.tolist()
        full["noise"]["blocks"] = None
        path = tmp_path / "mutated.json"

        def exit_code(document):
            path.write_text(json.dumps(document))
            code = main(["select", str(path), "--algo", "ignore-dep", "--out", str(tmp_path / "o")])
            return code, capsys.readouterr().err

        def at(document, where):
            for key in where:
                if isinstance(document, dict) and document.get(key) is not None:
                    document = document[key]
                elif isinstance(document, list) and len(document) > key:
                    document = document[key]
                else:
                    return None
            return document

        for base in (blocked, full):
            assert exit_code(base)[0] == 0
        keywords, failures = set(), []
        for where, keyword, node in schema_sites(schema, schema):
            keywords.add(keyword)
            base = next((b for b in (blocked, full) if at(b, where) is not None), None)
            assert base is not None, f"no base scenario reaches {where} for {keyword!r}"
            for label, bad in schema_violations(keyword, node, at(base, where)):
                holder = {"root": json.loads(json.dumps(base))}
                *parents, key = ("root",) + where
                at(holder, parents)[key] = bad
                code, err = exit_code(holder["root"])
                if code != 1 or "Traceback" in err:
                    failures.append((where, keyword, label, code, err))
        assert keywords == set(SCHEMA_KEYWORDS)
        assert not failures

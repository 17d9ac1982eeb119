"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured evidence.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
The randomized criteria pin their generator seeds, so the suite is
deterministic end to end.
"""

import itertools
import time

import numpy as np

from sensel import linalg, measure, model
from sensel.filter import (
    FilterState,
    update_gif,
    update_kalman,
)
from sensel.model import SelectionSchedule
from sensel.select_lp import build_lp, round_energy, solve_lp
from sensel.select_sdr import (
    bqp_objective,
    build_bqp,
    build_sdp,
    randomize_round,
    relaxation_bound,
    select_ignore_dependence,
    solve_sdp,
)
from sensel.select_separable import exhaustive_opt, topk_schedule
from sensel.sim import RunConfig, run_closed_loop

from conftest import (
    enumerate_feasible,
    noise_block,
    rand_scenario,
    rand_spd,
    selection_gain,
    sensor_measure,
)

EXAMPLE4 = "src/sensel/scenarios/example4.json"
EXAMPLE7 = "src/sensel/scenarios/example7.json"

JAMMER_POWERS = [1e5, 3e5, 6e5, 10e5, 12e5, 15e5, 20e5]


def _report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_c1_update_equivalence():
    """C1: gain-form and information-form updates agree to 1e-8 relative
    on 200 randomized instances, within 10 seconds."""
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst_x = 0.0
    worst_p = 0.0
    for _ in range(200):
        state_dim = int(rng.integers(1, 5))
        num = int(rng.integers(1, 6))
        scenario = rand_scenario(
            rng, num_sensors=num, horizon=1, state_dim=state_dim,
            correlated=bool(rng.integers(0, 2)),
        )
        gamma = rng.integers(0, 2, size=num)
        state = FilterState(
            x=rng.normal(size=state_dim), p=rand_spd(state_dim, rng)
        )
        z = rng.normal(size=scenario.noise.dim)
        a = update_kalman(state, scenario, gamma, z)
        b = update_gif(state, scenario, gamma, z)
        worst_x = max(
            worst_x,
            np.linalg.norm(a.x - b.x) / (1.0 + np.linalg.norm(a.x)),
        )
        worst_p = max(
            worst_p,
            np.linalg.norm(a.p - b.p) / np.linalg.norm(a.p),
        )
    elapsed = time.perf_counter() - started
    ok = worst_x <= 1e-8 and worst_p <= 1e-8 and elapsed < 10.0
    assert _report(
        "C1 update equivalence",
        ok,
        f"200 instances, worst x {worst_x:.2e}, worst P {worst_p:.2e}, {elapsed:.1f}s",
    )


def _stepwise_regular(scenario) -> bool:
    """True when, at every step, the selection with the largest gain trace
    dominates every alternative in the semidefinite order.

    This is the regularity that makes the step-by-step decomposition of
    the covariance objectives valid; dominance of the final covariance
    alone is not enough (incomparable per-step gains can still produce a
    dominant final matrix, with the per-step trace rule picking another
    schedule).
    """
    num = scenario.num_sensors
    for n, m in enumerate(scenario.constraints.per_step):
        gains = []
        for combo in itertools.combinations(range(num), m):
            col = np.zeros(num, dtype=np.int8)
            col[list(combo)] = 1
            gains.append(selection_gain(scenario, col, n))
        traces = [float(np.trace(g)) for g in gains]
        best = int(np.argmax(traces))
        scale = 1.0 + abs(traces[best])
        if not all(
            linalg.min_eigenvalue(gains[best] - g) >= -1e-9 * scale
            for g in gains
        ):
            return False
    return True


def _c2_instance(rng):
    """Mixed instance classes: scalar states and proportional noises are
    always stepwise-regular; fully random ones mostly are not."""
    kind = rng.integers(0, 3)
    num = int(rng.integers(2, 9))
    horizon = int(rng.integers(1, 4))
    per_step = [int(rng.integers(1, min(num, 3) + 1)) for _ in range(horizon)]
    while np.prod([
        len(list(itertools.combinations(range(num), m))) for m in per_step
    ]) > 4000:
        per_step = [max(1, m - 1) for m in per_step]
    if kind == 0:
        return rand_scenario(
            rng, num_sensors=num, horizon=horizon, correlated=False,
            per_step=per_step, state_dim=1,
        )
    if kind == 1:
        # shared measurement map, per-sensor noise a scalar multiple of a
        # common diagonal: gains are totally ordered
        state_dim = int(rng.integers(2, 4))
        system = model.DynamicSystem.build(
            np.eye(state_dim) + 0.1 * rng.normal(size=(state_dim, state_dim)),
            rand_spd(state_dim, rng),
        )
        h = rng.normal(size=(2, state_dim))
        base = np.diag(rng.uniform(0.5, 2.0, size=2))
        sensors = model.SensorModel.build_all(
            [h] * num, [rng.uniform(0, 100, 2) for _ in range(num)]
        )
        noise = model.NoiseModel.build(
            [2] * num,
            base_blocks=[float(rng.uniform(0.5, 5.0)) * base for _ in range(num)],
        )
        return model.make_scenario(
            system, sensors, noise, model.ConstraintSet.build(per_step),
            rng.uniform(0.1, 1.0, size=horizon), np.zeros(state_dim),
            rand_spd(state_dim, rng), seed=0,
        )
    return rand_scenario(
        rng, num_sensors=num, horizon=horizon, correlated=False,
        per_step=per_step, state_dim=int(rng.integers(2, 4)),
    )


def test_c2_topk_optimality():
    """C2: on uncorrelated count-constrained instances that are regular
    (a semidefinite-dominant selection exists at every step), the analytic
    selection attains the enumerated minima of both covariance traces;
    non-regular instances are reported, not failed."""
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    checked = 0
    non_regular = 0
    worst = 0.0
    for _ in range(100):
        scenario = _c2_instance(rng)
        if not _stepwise_regular(scenario):
            non_regular += 1
            continue
        _, f1_min = exhaustive_opt(scenario, "f1")
        _, f2_min = exhaustive_opt(scenario, "f2")
        schedule = topk_schedule(scenario)
        mine_f1 = measure.objective_value("f1", schedule, scenario)
        mine_f2 = measure.objective_value("f2", schedule, scenario)
        worst = max(
            worst,
            abs(mine_f1 - f1_min) / (1.0 + abs(f1_min)),
            abs(mine_f2 - f2_min) / (1.0 + abs(f2_min)),
        )
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked >= 30 and worst <= 1e-12 and elapsed < 60.0
    assert _report(
        "C2 analytic-selection optimality",
        ok,
        f"{checked} regular instances exact (worst dev {worst:.1e}), "
        f"{non_regular} non-regular reported, {elapsed:.1f}s",
    )


def test_c3_lp_sandwich():
    """C3: rounded value <= Boolean optimum <= LP bound on 100 random
    energy-constrained instances, tolerance 1e-8."""
    rng = np.random.default_rng(303)
    started = time.perf_counter()
    done = 0
    while done < 100:
        num = int(rng.integers(3, 11))
        horizon = int(rng.integers(1, 4))
        per_step = [int(rng.integers(1, 4)) for _ in range(horizon)]
        per_step = [min(m, num - 1) for m in per_step]
        energy = [int(rng.integers(1, horizon + 1)) for _ in range(num)]
        # keep a few unconstrained sensors so greedy rounding cannot strand
        for i in range(max(per_step)):
            energy[i] = horizon
        if sum(per_step) > sum(energy):
            continue
        if np.prod([
            len(list(itertools.combinations(range(num), m))) for m in per_step
        ]) > 20000:
            continue
        scenario = rand_scenario(
            rng, num_sensors=num, horizon=horizon, correlated=False,
            per_step=per_step, energy=energy,
        )
        problem = build_lp(scenario)
        solution = solve_lp(problem)
        rounded = round_energy(solution, scenario, problem)
        boolean_best = max(
            float(problem.c @ s.gamma_vec())
            for s in enumerate_feasible(scenario)
        )
        assert rounded.objective <= boolean_best + 1e-8
        assert boolean_best <= solution.objective + 1e-8
        assert rounded.schedule.satisfies(scenario.constraints)
        done += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0
    assert _report(
        "C3 LP sandwich",
        ok,
        f"100 instances satisfied rounded <= Boolean <= LP, {elapsed:.1f}s",
    )


def test_c4_desk_scale_grid_gap():
    """C4: 100-sensor grid with budgets solves in under 5 seconds, the
    rounded schedule is feasible, and the certified gap is reported."""
    scenario = model.gen_grid_scenario(
        10, 100.0, [(5.0, 10.0), (5.0, 10.0)], seed=33,
        model="tracking", per_step=[10] * 5, energy=2, weights=[0.2] * 5,
        x0=[50.0, 0.0, 50.0, 0.0], p0=np.diag([100.0, 10.0, 100.0, 10.0]),
    )
    problem = build_lp(scenario)
    started = time.perf_counter()
    solution = solve_lp(problem)
    solve_seconds = time.perf_counter() - started
    rounded = round_energy(solution, scenario, problem)
    relative = rounded.gap / max(1.0, abs(solution.objective))
    ok = (
        rounded.gap >= -1e-8
        and rounded.schedule.satisfies(scenario.constraints)
        and solve_seconds < 5.0
    )
    assert _report(
        "C4 desk-scale grid",
        ok,
        f"LP solve {solve_seconds:.2f}s, gap {rounded.gap:.3e} "
        f"(relative {relative:.2e}); feasible schedule",
    )


def test_c5_sdr_lower_bound():
    """C5: the semidefinite bound never exceeds the enumerated quadratic
    optimum on 50 random correlated instances; lifted matrices keep a unit
    diagonal to 1e-6."""
    rng = np.random.default_rng(505)
    started = time.perf_counter()
    worst_diag = 0.0
    worst_slack = -np.inf
    for _ in range(50):
        num = int(rng.integers(2, 7))
        horizon = int(rng.integers(1, 3))
        energy = None
        per_step = [int(rng.integers(1, num)) for _ in range(horizon)]
        if rng.random() < 0.4:
            energy = [int(rng.integers(1, horizon + 1)) for _ in range(num)]
            # exactly exhausted budgets pin the lifted variables onto a
            # face with no interior; keep some slack in the budget total
            if sum(per_step) >= sum(energy):
                energy = [horizon] * num
        scenario = rand_scenario(
            rng, num_sensors=num, horizon=horizon, correlated=True,
            per_step=per_step, energy=energy,
        )
        bqp = build_bqp(scenario)
        sdp = build_sdp(bqp)
        solution = solve_sdp(sdp)
        diagonal = np.diagonal(solution.blocks, axis1=1, axis2=2)
        worst_diag = max(worst_diag, float(np.abs(diagonal - 1).max()))
        best = min(
            bqp_objective(bqp, s)
            for s in enumerate_feasible(scenario)
        )
        slack = relaxation_bound(solution, sdp) - best  # must stay <= ~0
        worst_slack = max(worst_slack, slack / (1.0 + abs(best)))
    elapsed = time.perf_counter() - started
    ok = worst_slack <= 1e-6 and worst_diag <= 1e-6 and elapsed < 120.0
    assert _report(
        "C5 SDR lower bound",
        ok,
        f"50 instances, worst bound slack {worst_slack:.2e}, "
        f"worst diagonal error {worst_diag:.2e}, {elapsed:.1f}s",
    )


def test_c6_jammer_power_orderings():
    """C6: across the jammer power sweep, enumeration dominates the
    randomized rounding, which beats the correlation-blind baseline in at
    least 90% of seeds at the three strongest powers."""
    base = model.load_scenario(EXAMPLE4)
    jam = base.noise.jammer
    started = time.perf_counter()
    win_rates = []
    all_bounded = True
    for power in JAMMER_POWERS:
        scenario = model.apply_jammer(
            base, power, jam.alpha, jam.n_exp, jam.position, jam.r0
        )
        _, exhaustive_f3 = exhaustive_opt(scenario, "f3")
        blind = select_ignore_dependence(scenario)
        blind_f3 = measure.objective_f3(blind, scenario)
        solution = solve_sdp(build_sdp(build_bqp(scenario)))
        wins = 0
        for seed in range(20):
            rounded = randomize_round(solution, scenario, 100, seed=seed)
            if rounded.objective > exhaustive_f3 + 1e-9:
                all_bounded = False
            if rounded.objective >= blind_f3 - 1e-12:
                wins += 1
        win_rates.append(wins / 20.0)
        print(
            f"  power {power:.0e}: exhaustive {exhaustive_f3:.5f} "
            f"blind {blind_f3:.5f} sdr wins {wins}/20"
        )
    elapsed = time.perf_counter() - started
    strong_ok = all(rate >= 0.9 for rate in win_rates[-3:])
    ok = all_bounded and strong_ok and elapsed < 300.0
    assert _report(
        "C6 jammer power sweep orderings",
        ok,
        f"exhaustive bound held; strongest-power win rates "
        f"{[f'{r:.0%}' for r in win_rates[-3:]]}, {elapsed:.1f}s",
    )


def test_c7_sample_count_monotonicity():
    """C7: the best objective over nested randomization streams is
    non-decreasing in the sample count, exactly."""
    scenario = model.load_scenario(EXAMPLE4)  # bundled at power 1.5e6
    solution = solve_sdp(build_sdp(build_bqp(scenario)))
    values = [
        randomize_round(solution, scenario, s, seed=2024).objective
        for s in (20, 100, 2000)
    ]
    ok = values[0] <= values[1] <= values[2]
    assert _report(
        "C7 sample-count monotonicity",
        ok,
        f"best f3 at S=20/100/2000: {values[0]:.6f} <= {values[1]:.6f} "
        f"<= {values[2]:.6f}",
    )


def test_c8_rmse_study():
    """C8: over 200 Monte Carlo runs of the tracking study, the
    correlation-aware scheduler achieves a run-averaged position RMSE no
    worse than the correlation-blind baseline."""
    scenario = model.load_scenario(EXAMPLE7)
    started = time.perf_counter()
    aware = run_closed_loop(
        RunConfig(scenario=scenario, algorithm="sdr", runs=200, seed=88,
                  s_count=2000)
    )
    blind = run_closed_loop(
        RunConfig(scenario=scenario, algorithm="ignore-dep", runs=200, seed=88)
    )
    elapsed = time.perf_counter() - started
    aware_mean = float(aware.rmse.mean())
    blind_mean = float(blind.rmse.mean())
    ok = aware_mean <= blind_mean and elapsed < 600.0
    assert _report(
        "C8 tracking RMSE study",
        ok,
        f"mean RMSE aware {aware_mean:.3f} vs blind {blind_mean:.3f} "
        f"over 200 runs, {elapsed:.0f}s",
    )


def test_c9_uncorrelated_reduction_identities():
    """C9: with block-diagonal noise the stack measure equals the sum of
    selected per-sensor measures and the quadratic objective equals minus
    the linear one, on 100 random instances."""
    rng = np.random.default_rng(909)
    worst_gain = 0.0
    worst_obj = 0.0
    for _ in range(100):
        num = int(rng.integers(2, 7))
        horizon = int(rng.integers(1, 4))
        scenario = rand_scenario(
            rng, num_sensors=num, horizon=horizon, correlated=False,
        )
        gamma = rng.integers(0, 2, size=(num, horizon))
        schedule = SelectionSchedule.build(gamma)
        for n in range(horizon):
            stacked = float(np.trace(selection_gain(scenario, schedule.column(n), step=n)))
            split = sum(
                sensor_measure(
                    scenario.sensors[i].h_at(n), noise_block(scenario.step_noise[n], i, i)
                )
                for i in range(num)
                if gamma[i, n]
            )
            worst_gain = max(worst_gain, abs(stacked - split))
        bqp = build_bqp(scenario)
        problem = build_lp(scenario)
        quad = bqp_objective(bqp, schedule)
        lin = float(problem.c @ schedule.gamma_vec())
        worst_obj = max(worst_obj, abs(quad + lin))
    ok = worst_gain <= 1e-9 and worst_obj <= 1e-9
    assert _report(
        "C9 uncorrelated reduction identities",
        ok,
        f"worst additivity error {worst_gain:.2e}, "
        f"worst quadratic/linear mismatch {worst_obj:.2e}",
    )

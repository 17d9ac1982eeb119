#!/usr/bin/env python3
"""Regenerate the scenario JSONs bundled with the package.

Each file corresponds to one of the numbered studies the CLI and the
acceptance suite refer to.  Layout seeds are fixed here so the files are
reproducible; rerunning this script must leave the repository unchanged.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from sensel import model

OUT = Path(__file__).resolve().parent.parent / "src" / "sensel" / "scenarios"

TRACK_X0 = [600.0, -20.0, 200.0, 0.0]
TRACK_P0 = np.diag([100.0, 10.0, 100.0, 10.0])
JAMMER_POS = [550.0, 200.0]


def with_jammer(scenario, power):
    return model.apply_jammer(scenario, power, 1.0, 2.0, JAMMER_POS, np.eye(2))


def with_distance(scenario, alpha1=0.05):
    noise = model.NoiseModel.build(
        scenario.noise.block_sizes,
        base_blocks=scenario.noise.base_blocks,
        jammer=scenario.noise.jammer,
        distance_alpha1=alpha1,
        sensor_positions=scenario.sensor_positions(),
    )
    return replace(scenario, noise=noise)


def example1():
    """40 sensors, direct position observation, one-step count selection."""
    return model.gen_uniform_scenario(
        40, 100.0, [(5.0, 7.0), (10.0, 12.0)], seed=1,
        model="random_walk", per_step=10, weights=[1.0],
        x0=[50.0, 50.0], p0=10.0 * np.eye(2),
    )


def example2():
    """9 sensors, tracking model, 3 steps of 2 with per-sensor budget 2."""
    return model.gen_uniform_scenario(
        9, 100.0, [(5.0, 10.0), (5.0, 10.0)], seed=2,
        model="tracking", per_step=[2, 2, 2], energy=2,
        weights=[1.0 / 3.0] * 3, x0=[50.0, 0.0, 50.0, 0.0], p0=TRACK_P0,
    )


def example3():
    """20x20 grid, 5 steps of 10 with per-sensor budget 2."""
    return model.gen_grid_scenario(
        20, 100.0, [(5.0, 10.0), (5.0, 10.0)], seed=3,
        model="tracking", per_step=[10] * 5, energy=2,
        weights=[0.2] * 5, x0=[50.0, 0.0, 50.0, 0.0], p0=TRACK_P0,
    )


def example4():
    """25 sensors with a jammer, one-step selection of 2."""
    scenario = model.gen_uniform_scenario(
        25, 600.0, [(10.0, 10.0), (10.0, 10.0)], seed=4,
        model="tracking", per_step=2, weights=[1.0],
        x0=TRACK_X0, p0=TRACK_P0,
    )
    return with_jammer(scenario, 1.5e6)


def example5():
    """5x5 grid with a jammer, 5 steps of 2 with budget 2."""
    scenario = model.gen_grid_scenario(
        5, 600.0, [(10.0, 10.0), (10.0, 10.0)], seed=6,
        model="tracking", per_step=[2] * 5, energy=2,
        weights=[0.2] * 5, x0=TRACK_X0, p0=TRACK_P0,
    )
    return with_jammer(scenario, 1.5e6)


def example6():
    """Example 5 plus distance-dependent noise."""
    return with_distance(example5())


def example7():
    """RMSE study configuration (same physics as example 6)."""
    return example6()


def main(out: Path = OUT):
    out.mkdir(parents=True, exist_ok=True)
    for name, build in sorted(globals().items()):
        if name.startswith("example") and callable(build):
            path = out / f"{name}.json"
            model.save_scenario(build(), path)
            print(f"wrote {path}")


if __name__ == "__main__":
    main()

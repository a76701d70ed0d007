from dataclasses import replace

import numpy as np
import pytest

from emberwatch.baseline import GradientConfig, gradient_coverage_step
from emberwatch.coordination import UavAgent


def make_agent(agent_id=0, xy=(0.0, 0.0), z=40.0, speed=10.0):
    return UavAgent(
        id=agent_id, pose=np.array([xy[0], xy[1], z]), speed=speed, half_angle=0.6,
        mode="coverage",
    )


CFG = GradientConfig(step_size=0.5, separation_weight=1.0, separation_radius=50.0, kernel_bandwidth=25.0)


def test_fire_directly_below_is_a_fixed_point():
    agent = make_agent(xy=(10.0, 10.0))
    gradient_coverage_step([agent], np.array([[10.0, 10.0]]), CFG, dt=1.0)
    assert agent.pose[:2] == pytest.approx([10.0, 10.0])


def test_offset_fire_pulls_straight_toward_it():
    agent = make_agent(xy=(0.0, 0.0))
    gradient_coverage_step([agent], np.array([[30.0, 0.0]]), CFG, dt=1.0)
    assert agent.pose[0] > 0.0
    assert agent.pose[1] == pytest.approx(0.0, abs=1e-12)
    assert agent.pose[0] == pytest.approx(CFG.step_size, abs=1e-9)


def test_coincident_agents_separate():
    a = make_agent(0, xy=(5.0, 5.0))
    b = make_agent(1, xy=(5.0, 5.0))
    gradient_coverage_step([a, b], np.zeros((0, 2)), CFG, dt=1.0)
    first = np.linalg.norm(a.pose[:2] - b.pose[:2])
    assert first > 0.0
    gradient_coverage_step([a, b], np.zeros((0, 2)), CFG, dt=1.0)
    second = np.linalg.norm(a.pose[:2] - b.pose[:2])
    assert second > first


def test_step_capped_by_vehicle_speed():
    cfg = replace(CFG, step_size=100.0, separation_weight=0.0)
    agent = make_agent(speed=3.0)
    gradient_coverage_step([agent], np.array([[40.0, 0.0]]), cfg, dt=1.0)
    assert np.linalg.norm(agent.pose[:2]) <= 3.0 + 1e-9


def test_single_fire_convergence_within_200_steps():
    cfg = replace(CFG, separation_weight=0.0)
    agent = make_agent(xy=(60.0, -40.0))
    fire = np.array([[0.0, 0.0]])
    for _ in range(200):
        gradient_coverage_step([agent], fire, cfg, dt=1.0)
    assert np.linalg.norm(agent.pose[:2]) < 1.0


def test_deterministic():
    def run():
        agents = [make_agent(0, xy=(0.0, 0.0)), make_agent(1, xy=(3.0, 1.0))]
        fires = np.array([[20.0, 5.0], [-10.0, 30.0]])
        for _ in range(50):
            gradient_coverage_step(agents, fires, CFG, dt=1.0)
        return np.stack([a.pose for a in agents])

    assert np.array_equal(run(), run())

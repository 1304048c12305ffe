"""Shared fixtures: small task graphs and executor factories."""

from __future__ import annotations

import pytest

from repro.rt import ConstantExecTime, SimConfig, TaskGraph, TaskSpec, UniformExecTime


def build_chain_graph(
    rate: float = 20.0,
    rate_range=(10.0, 50.0),
    exec_times=(0.002, 0.004, 0.003),
    deadlines=(0.05, 0.06, 0.05),
) -> TaskGraph:
    """source -> middle -> sink, constant execution times."""
    g = TaskGraph()
    g.add_task(
        TaskSpec(
            "source",
            priority=3,
            relative_deadline=deadlines[0],
            exec_model=ConstantExecTime(exec_times[0]),
            rate=rate,
            rate_range=rate_range,
        )
    )
    g.add_task(
        TaskSpec(
            "middle",
            priority=2,
            relative_deadline=deadlines[1],
            exec_model=ConstantExecTime(exec_times[1]),
        )
    )
    g.add_task(
        TaskSpec(
            "sink",
            priority=1,
            relative_deadline=deadlines[2],
            exec_model=ConstantExecTime(exec_times[2]),
        )
    )
    g.add_edge("source", "middle")
    g.add_edge("middle", "sink")
    g.validate()
    return g


def build_chain_or_diamond(
    rate: float, exec_scale: float, fan_out: bool, deadline: float = 0.08
) -> TaskGraph:
    """src -> mid -> sink, or src fanning out to left/right that join at sink.

    Costs scale with ``exec_scale`` (the source's is uniform, the rest
    constant); every task has the relative deadline ``deadline``.
    """
    c = 0.004 * exec_scale
    g = TaskGraph()
    g.add_task(TaskSpec("src", priority=4, relative_deadline=deadline,
                        exec_model=UniformExecTime(0.5 * c, c),
                        rate=rate, rate_range=(5.0, 50.0)))
    middle = ("left", "right") if fan_out else ("mid",)
    for name in middle:
        g.add_task(TaskSpec(name, priority=3 if fan_out else 2, relative_deadline=deadline,
                            exec_model=ConstantExecTime(c)))
        g.add_edge("src", name)
    g.add_task(TaskSpec("sink", priority=1, relative_deadline=deadline,
                        exec_model=ConstantExecTime(0.5 * c)))
    for name in middle:
        g.add_edge(name, "sink")
    g.validate()
    return g


def build_diamond_graph(rate: float = 10.0) -> TaskGraph:
    """source fans out to two branches that join at the sink."""
    g = TaskGraph()
    g.add_task(
        TaskSpec(
            "source",
            priority=4,
            relative_deadline=0.1,
            exec_model=ConstantExecTime(0.001),
            rate=rate,
            rate_range=(5.0, 20.0),
        )
    )
    for name in ("left", "right"):
        g.add_task(
            TaskSpec(
                name,
                priority=3,
                relative_deadline=0.1,
                exec_model=ConstantExecTime(0.002),
            )
        )
        g.add_edge("source", name)
    g.add_task(
        TaskSpec("sink", priority=1, relative_deadline=0.1, exec_model=ConstantExecTime(0.001))
    )
    g.add_edge("left", "sink")
    g.add_edge("right", "sink")
    g.validate()
    return g


@pytest.fixture
def chain_graph() -> TaskGraph:
    return build_chain_graph()


@pytest.fixture
def diamond_graph() -> TaskGraph:
    return build_diamond_graph()


@pytest.fixture
def small_config() -> SimConfig:
    return SimConfig(n_processors=2, horizon=2.0, coordination_period=0.25, seed=42)

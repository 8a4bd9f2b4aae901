"""The artifact table: each entry's task list is exactly what it reads."""

import pytest

from repro.core.config import SolarCoreConfig
from repro.harness.artifacts import ARTIFACTS
from repro.harness.runner import SimulationRunner


@pytest.fixture(scope="module")
def runner():
    return SimulationRunner(SolarCoreConfig(solver="table", step_minutes=10.0))


@pytest.fixture
def looked_up(runner, monkeypatch):
    """The set of tasks the runner's day lookups ask for during the test."""
    tasks = set()
    lookup = runner._get

    def record(task):
        tasks.add(task)
        return lookup(task)

    monkeypatch.setattr(runner, "_get", record)
    return tasks


def test_the_table_is_in_paper_order():
    assert list(ARTIFACTS) == [
        "fig01", "fig04", "fig06", "fig07", "fig13", "fig14", "table7",
        "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
        "headlines",
    ]


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_tasks_are_exactly_what_the_build_reads(name, runner, looked_up):
    artifact = ARTIFACTS[name]
    data = artifact.build(runner)
    assert looked_up == set(artifact.tasks)
    assert len(artifact.tasks) == len(looked_up)  # no task listed twice
    assert artifact.render(data).strip()

"""Job specs and the state machine — the service's sync core."""

from __future__ import annotations

import pytest

from repro.environment.irradiance import default_seed
from repro.environment.locations import OAK_RIDGE_TN, PHOENIX_AZ
from repro.harness.parallel import SweepTask
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    VALID_TRANSITIONS,
    InvalidTransition,
    JobSpec,
    JobSpecError,
    JobTable,
)


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
def test_single_task_shape():
    spec = JobSpec.from_dict({"mix": "HM2", "site": "AZ", "month": 7})
    assert len(spec.tasks) == 1
    task = spec.tasks[0]
    assert (task.mix_name, task.month) == ("HM2", 7)
    assert task.location_code == "PFCI"  # canonicalized alias
    assert spec.solver == "exact"


def test_task_list_shape_deduplicates_preserving_order():
    spec = JobSpec.from_dict({"tasks": [
        {"mix": "HM2", "site": "AZ", "month": 7},
        {"mix": "H1", "site": "TN", "month": 1},
        {"mix": "HM2", "site": "PFCI", "month": 7},  # alias of the first
    ]})
    assert len(spec.tasks) == 2
    assert spec.tasks[0].mix_name == "HM2"
    assert spec.tasks[1].mix_name == "H1"


def test_campaign_shape_expands_seeds():
    """A campaign job simulates ``run_campaign``'s realizations: seeds
    ``default_seed(station, month) + i``, so ``repro campaign`` and the
    service share one answer and one set of cache entries."""
    spec = JobSpec.from_dict({"campaign": {
        "mix": "HM2", "sites": ["AZ", "TN"], "months": [1, 7], "days": 3,
    }})
    # 2 sites x 2 months x 3 seeds, in (station, month, realization) order
    assert [(t.location_code, t.month, t.seed) for t in spec.tasks] == [
        (location.code, month, default_seed(location, month) + i)
        for location in (PHOENIX_AZ, OAK_RIDGE_TN)
        for month in (1, 7)
        for i in range(3)
    ]


def test_solver_and_label_fields():
    spec = JobSpec.from_dict({
        "mix": "HM2", "site": "AZ", "month": 7,
        "solver": "table", "label": "figure 18",
    })
    assert spec.solver == "table"
    assert spec.label == "figure 18"


def test_faults_field_reaches_the_task():
    spec = JobSpec.from_dict({
        "mix": "HM2", "site": "AZ", "month": 7,
        "faults": "sensor_dropout@600-660",
    })
    assert spec.tasks[0].faults is not None


@pytest.mark.parametrize("doc,match", [
    ([], "must be an object"),
    ({"site": "AZ"}, "month"),
    ({"month": 7}, "site"),
    ({"site": "AZ", "month": "7"}, "month"),
    ({"site": "AZ", "month": 7, "bogus": 1}, "bogus"),
    ({"site": "AZ", "month": 7, "solver": "magic"}, "solver"),
    ({"site": "AZ", "month": 7, "label": 5}, "label"),
    ({"tasks": []}, "non-empty"),
    ({"tasks": [{"site": "AZ", "month": 7}], "campaign": {}}, "not both"),
    ({"campaign": {"sites": [], "months": [7]}}, "non-empty"),
    ({"campaign": {"sites": ["AZ"], "months": [7], "days": 0}}, "days"),
    ({"site": "NOWHERE", "month": 7}, "NOWHERE"),
    ({"kind": "mppt", "site": "AZ", "month": 7, "derating": 0.5}, "derating"),
])
def test_malformed_specs_name_the_offense(doc, match):
    with pytest.raises(JobSpecError, match=match):
        JobSpec.from_dict(doc)


def test_describe_is_compact():
    spec = JobSpec.from_dict({"mix": "HM2", "site": "AZ", "month": 7})
    assert "HM2" in spec.describe()
    many = JobSpec.from_dict({"campaign": {
        "sites": ["AZ"], "months": [7], "days": 2,
    }})
    assert "2 task(s)" in many.describe()


# ----------------------------------------------------------------------
# The state machine
# ----------------------------------------------------------------------
def spec() -> JobSpec:
    return JobSpec(tasks=(SweepTask("mppt", "HM2", "AZ", 7),))


def test_transition_relation_is_complete_and_terminal_states_closed():
    assert set(VALID_TRANSITIONS) == set(JOB_STATES)
    for state in TERMINAL_STATES:
        assert not VALID_TRANSITIONS[state]


def test_happy_path_and_status_document():
    table = JobTable()
    job = table.create(spec())
    assert job.state == QUEUED
    assert job.job_id == "job-000001"
    table.transition(job, RUNNING)
    table.transition(job, DONE, result=[{"ptp": 1.0}])
    doc = job.status()
    assert doc["state"] == DONE
    assert doc["result"] == [{"ptp": 1.0}]
    assert "error" not in doc


def test_every_invalid_transition_raises_and_leaves_state_untouched():
    for state in JOB_STATES:
        for target in JOB_STATES - VALID_TRANSITIONS[state]:
            table = JobTable()
            job = table.create(spec())
            job.state = state
            with pytest.raises(InvalidTransition, match=f"{state} -> {target}"):
                table.transition(job, target)
            assert job.state == state


def test_unknown_state_rejected():
    table = JobTable()
    job = table.create(spec())
    with pytest.raises(InvalidTransition, match="unknown state"):
        table.transition(job, "paused")


def test_cancel_is_noop_on_terminal_jobs():
    table = JobTable()
    job = table.create(spec())
    table.transition(job, RUNNING)
    table.transition(job, DONE)
    assert table.cancel(job) is False
    assert job.state == DONE
    fresh = table.create(spec())
    assert table.cancel(fresh) is True
    assert fresh.state == CANCELLED


def test_failed_jobs_carry_their_error():
    table = JobTable()
    job = table.create(spec())
    table.transition(job, RUNNING)
    table.transition(job, FAILED, error="ValueError: no sun")
    assert job.status()["error"] == "ValueError: no sun"


def test_counts_and_transition_counters():
    table = JobTable()
    a, b, c = table.create(spec()), table.create(spec()), table.create(spec())
    table.transition(a, RUNNING)
    table.transition(a, DONE)
    table.transition(b, RUNNING)
    table.cancel(c)
    assert table.counts() == {
        "queued": 0, "running": 1, "done": 1, "failed": 0, "cancelled": 1,
        "interrupted": 0, "deadline_exceeded": 0,
    }
    assert table.transitions["queued"] == 3
    assert table.transitions["done"] == 1
    assert table.transitions["cancelled"] == 1


def test_unknown_job_lookup_is_a_clear_keyerror():
    with pytest.raises(KeyError, match="unknown job"):
        JobTable().get("job-999999")


# ----------------------------------------------------------------------
# Subscriptions
# ----------------------------------------------------------------------
def test_subscribers_see_every_transition_in_order():
    table = JobTable()
    job = table.create(spec())
    sub = table.subscribe(job.job_id)
    table.transition(job, RUNNING)
    table.transition(job, DONE)
    states = [n["state"] for n in sub.drain()]
    assert states == [RUNNING, DONE]
    assert sub.drain() == []  # drained means drained


def test_subscribe_after_terminal_delivers_immediately():
    # The guarantee: no client can miss the end of a job by racing it.
    table = JobTable()
    job = table.create(spec())
    table.transition(job, RUNNING)
    table.transition(job, DONE)
    sub = table.subscribe(job.job_id)
    notes = sub.drain()
    assert [n["state"] for n in notes] == [DONE]


def test_listener_fires_synchronously_on_push():
    table = JobTable()
    job = table.create(spec())
    sub = table.subscribe(job.job_id)
    seen: list[str] = []
    sub.listener = lambda n: seen.append(n["state"])
    table.transition(job, RUNNING)
    assert seen == [RUNNING]


def test_unsubscribe_stops_delivery():
    table = JobTable()
    job = table.create(spec())
    sub = table.subscribe(job.job_id)
    table.unsubscribe(sub)
    table.unsubscribe(sub)  # idempotent
    table.transition(job, RUNNING)
    assert sub.drain() == []

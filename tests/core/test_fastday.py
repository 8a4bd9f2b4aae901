"""The batched day path: the per-minute loop's bytes, on either solver.

A batched day equals the per-minute loop (forced by patching
:func:`fastday.run_fast`) byte for byte, exact or table, for every day
kind it batches.  What the day is picks the path, never the hub: every
day that keeps the per-minute loop says why
(``fastday.declined.<reason>``), and a day that batches runs the same
path, returns the same bytes and emits the same events under the null
hub, an enabled hub and a profiling hub.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest

from repro.core import fastday
from repro.core.config import SolarCoreConfig
from repro.core.simulation import mppt_day_engine, run_day, run_day_fixed
from repro.environment.locations import PHOENIX_AZ
from repro.fullsystem.simulation import run_day_fullsystem
from repro.harness.parallel import SweepTask, compute_task, run_parallel
from repro.pv.shading import ShadedSeriesString
from repro.telemetry import NULL_TELEMETRY, RingBufferSink, Telemetry, telemetry_session
from repro.telemetry.events import event_to_dict

TABLE = SolarCoreConfig(step_minutes=10.0, solver="table")
FAULTS = "sensor_dropout@600-660,seed=7"

#: Minute-stepped table mode: long spans between the event steps.
TABLE_1MIN = SolarCoreConfig(solver="table")

#: A sunny and an overcast cell.
CELLS = (("AZ", 7), ("TN", 1))

#: Every batched day kind, each as a sweep task.
KINDS = {
    "MPPT&IC": dict(kind="mppt", policy="MPPT&IC"),
    "MPPT&RR": dict(kind="mppt", policy="MPPT&RR"),
    "MPPT&Opt": dict(kind="mppt", policy="MPPT&Opt"),
    "Fixed-75W": dict(kind="fixed", budget_w=75.0),
    "Battery-L": dict(kind="battery", derating=0.81),
}

DAYS = [
    pytest.param(kind, cell, id=f"{kind}-{cell[0]}{cell[1]}")
    for kind in KINDS
    for cell in CELLS
]

#: The days whose results record per-step series (not the battery's).
SERIES_DAYS = [day for day in DAYS if KINDS[day.values[0]]["kind"] != "battery"]


def task(kind: str, cell: tuple[str, int]) -> SweepTask:
    return SweepTask(mix_name="HM2", location_code=cell[0], month=cell[1],
                     **KINDS[kind])


def run(kind: str, cell: tuple[str, int]):
    """One minute-stepped table-mode day of ``kind`` at ``cell``."""
    return compute_task(task(kind, cell), TABLE_1MIN)


def assert_same_bytes(expected, actual) -> None:
    """Arrays byte-identical (dtype, shape, bytes); scalars exactly equal."""
    assert type(expected) is type(actual)
    for field in dataclasses.fields(expected):
        left, right = getattr(expected, field.name), getattr(actual, field.name)
        if isinstance(left, np.ndarray):
            assert (left.dtype, left.shape) == (right.dtype, right.shape), field.name
            assert left.tobytes() == right.tobytes(), field.name
        else:
            assert left == right, field.name


@pytest.fixture
def fast_runs(monkeypatch) -> list[bool]:
    """What every ``fastday.run_fast`` call of the test returned."""
    ran = []
    real = fastday.run_fast

    def spy(engine, tel):
        ran.append(real(engine, tel))
        return ran[-1]

    monkeypatch.setattr(fastday, "run_fast", spy)
    return ran


def declines(run) -> dict[str, float]:
    """The ``fastday.declined.*`` counters of ``run()`` under a fresh hub."""
    with telemetry_session() as hub:
        run()
    return {
        name.rsplit(".", 1)[1]: value
        for name, value in hub.snapshot()["counters"].items()
        if name.startswith("fastday.declined.")
    }


class TestDeclineCounters:
    def test_enabled_hub_books_no_decline(self):
        assert declines(lambda: run_day("HM2", PHOENIX_AZ, 7, config=TABLE)) == {}

    def test_faults_named_before_telemetry(self):
        def run():
            run_day("HM2", PHOENIX_AZ, 7, config=TABLE, faults=FAULTS)

        assert declines(run) == {"faults": 1}

    def test_unsupported_policy(self):
        def run():
            run_day_fullsystem("HM2", PHOENIX_AZ, 7, config=TABLE)

        assert declines(run) == {"policy": 1}

    def test_device_without_surface(self, fast_runs):
        # A table day on a device the surface cannot represent batches,
        # with exact events; only its faults would keep the loop.
        shaded = ShadedSeriesString((1.0, 0.4))
        assert declines(lambda: run_day(
            "HM2", PHOENIX_AZ, 7, config=TABLE, array=shaded,
        )) == {}
        assert fast_runs == [True]
        assert declines(lambda: run_day(
            "HM2", PHOENIX_AZ, 7, config=TABLE, array=shaded, faults=FAULTS,
        )) == {"faults": 1}

    def test_exact_mode_counts_nothing(self):
        exact = SolarCoreConfig(step_minutes=10.0)
        assert declines(lambda: run_day("HM2", PHOENIX_AZ, 7, config=exact)) == {}


class TestDeclineReason:
    def test_null_hub_day_batches(self, fast_runs):
        engine = mppt_day_engine("HM2", PHOENIX_AZ, 7, config=TABLE)
        assert engine.fastday_decline is None
        assert fastday.decline_reason(engine) is None
        engine.run()
        assert fast_runs == [True]

    @pytest.mark.parametrize("hub", [
        NULL_TELEMETRY, Telemetry(), Telemetry(profile=True),
    ], ids=["null", "enabled", "profiling"])
    def test_every_hub_batches(self, hub, fast_runs):
        with telemetry_session(hub):
            engine = mppt_day_engine("HM2", PHOENIX_AZ, 7, config=TABLE)
            assert fastday.decline_reason(engine) is None
            engine.run()
        assert fast_runs == [True]


class TestHubIndependence:
    @pytest.mark.parametrize("kind, cell", DAYS)
    def test_day_identical_under_every_hub(self, kind, cell):
        plain = run(kind, cell)
        for hub in (Telemetry(), Telemetry(profile=True)):
            with telemetry_session(hub):
                observed = run(kind, cell)
            assert_same_bytes(plain, observed)

    def test_parallel_sweep_identical_under_enabled_hub(self):
        tasks = [task(kind, cell) for kind in KINDS for cell in CELLS]
        plain = run_parallel(tasks, TABLE_1MIN, jobs=2)
        with telemetry_session() as hub:
            observed = run_parallel(tasks, TABLE_1MIN, jobs=2)
        for spec in tasks:
            assert_same_bytes(plain[spec], observed[spec])
        counters = hub.snapshot()["counters"]
        assert counters["sim.days"] == len(tasks)
        assert not [name for name in counters if name.startswith("fastday.declined.")]


@functools.cache
def observed(kind: str, cell: tuple[str, int], batched: bool):
    """``(events, snapshot)`` of one day under an enabled hub."""
    sink = RingBufferSink(capacity=100_000)
    with pytest.MonkeyPatch.context() as patch:
        if not batched:
            patch.setattr(fastday, "run_fast", lambda engine, tel: False)
        with telemetry_session(sinks=[sink]) as hub:
            run(kind, cell)
    snap = hub.snapshot()
    assert not [n for n in snap["counters"] if n.startswith("fastday.declined.")]
    return [event_to_dict(event) for event in sink], snap


class TestEventParity:
    """The batched day against the per-minute loop as the reference."""

    @pytest.mark.parametrize("kind, cell", DAYS)
    def test_same_events_in_same_order(self, kind, cell):
        batched, _ = observed(kind, cell, True)
        reference, _ = observed(kind, cell, False)
        assert [e["type"] for e in batched] == [e["type"] for e in reference]
        # Every field too: the battery's depletion minute comes from a
        # harvest added in the loop's order.
        assert batched == reference

    @pytest.mark.parametrize("kind, cell", DAYS)
    def test_same_sim_and_controller_counters(self, kind, cell):
        _, batched = observed(kind, cell, True)
        _, reference = observed(kind, cell, False)

        def counters(snap):
            return {
                name: value for name, value in snap["counters"].items()
                if name.startswith(("sim.", "controller."))
            }

        assert counters(batched) == counters(reference)
        assert counters(batched)["sim.days"] == 1
        assert (batched["histograms"].get("controller.track_iterations")
                == reference["histograms"].get("controller.track_iterations"))

    @pytest.mark.parametrize("kind, cell", DAYS)
    def test_power_fields_agree(self, kind, cell):
        batched, _ = observed(kind, cell, True)
        reference, _ = observed(kind, cell, False)
        switches = 0
        for got, want in zip(batched, reference):
            if got["type"] == "supply_switch":
                switches += 1
                assert got["source"] == want["source"]
                for name in ("available_solar_w", "load_floor_w"):
                    assert got[name] == want[name]
            elif got["type"] == "energy_balance":
                # The ledger adds its terms in the loop's order.
                for name in ("solar_wh", "utility_wh", "load_wh", "residual_wh"):
                    assert got[name] == want[name]
        if KINDS[kind]["kind"] == "mppt":
            assert switches > 0


class TestSeriesParity:
    """The batched day and the scalar loop read one MPP series."""

    @pytest.mark.parametrize("kind, cell", SERIES_DAYS)
    def test_mpp_and_supply_series_byte_identical(self, kind, cell, monkeypatch):
        batched = run(kind, cell)
        monkeypatch.setattr(fastday, "run_fast", lambda engine, tel: False)
        reference = run(kind, cell)
        for name in ("mpp_w", "on_solar"):
            left, right = getattr(batched, name), getattr(reference, name)
            assert (left.dtype, left.shape) == (right.dtype, right.shape), name
            assert left.tobytes() == right.tobytes(), name


def per_minute(monkeypatch, day):
    """``day()`` with the batched path declined, so the loop steps it."""
    with monkeypatch.context() as patch:
        patch.setattr(fastday, "run_fast", lambda engine, tel: False)
        return day()


#: The configurations of the matrix: minute steps unless named.
MATRIX_CONFIGS = {
    "default": {},
    "featureful": dict(
        supply_change_fraction=0.1, adaptive_margin=True, realloc_after_track=True,
    ),
    "no-pcpg-10min": dict(enable_pcpg=False, step_minutes=10.0),
    "biglittle": dict(chip_spec="biglittle"),
}

MATRIX = [
    pytest.param(solver, config, kind, cell,
                 id=f"{solver}-{config}-{kind}-{cell[0]}{cell[1]}")
    for solver in ("exact", "table")
    for config in MATRIX_CONFIGS
    for kind in KINDS
    for cell in CELLS
]


class TestBatchedEqualsPerMinute:
    """Every batched day holds the per-minute loop's bytes."""

    @pytest.mark.parametrize("solver, config, kind, cell", MATRIX)
    def test_day_byte_identical(self, solver, config, kind, cell, fast_runs,
                                monkeypatch):
        cfg = SolarCoreConfig(solver=solver, **MATRIX_CONFIGS[config])
        spec = task(kind, cell)
        batched = compute_task(spec, cfg)
        assert fast_runs == [True]
        reference = per_minute(monkeypatch, lambda: compute_task(spec, cfg))
        assert_same_bytes(reference, batched)

    @pytest.mark.parametrize("day", [run_day, run_day_fixed],
                             ids=["mppt", "fixed"])
    def test_shaded_string_table_day(self, day, fast_runs, monkeypatch):
        # No surface represents the shaded string: the table day's events
        # run the exact solvers, and its spans still batch.
        def run():
            args = (75.0,) if day is run_day_fixed else ()
            return day("HM2", PHOENIX_AZ, 7, *args, config=TABLE,
                       array=ShadedSeriesString((1.0, 0.4)))

        batched = run()
        assert fast_runs == [True]
        assert_same_bytes(per_minute(monkeypatch, run), batched)

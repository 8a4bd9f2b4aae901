"""The day-environment stage: a shared environment gives the bytes a fresh one gives.

Every day of a (station, month) cell reads one environment -- the trace,
the per-step cell temperature and the per-step MPP -- solved once per
process.  These tests pin that sharing it changes no result, that the
memo key tells apart devices whose MPPs differ, that its arrays cannot
be written, that concurrent first uses build once, and the work it
saves, counted on the hub.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.core import dayenv
from repro.core.config import SolarCoreConfig
from repro.core.dayenv import DayEnvironment, clear_environments, day_environment
from repro.core.simulation import run_day
from repro.environment.irradiance import default_seed, generate_trace
from repro.environment.locations import PHOENIX_AZ
from repro.faults import FaultSchedule, FaultScheduler, FaultyArray
from repro.harness.parallel import SweepTask, compute_task, grid_tasks, run_parallel
from repro.power import surface as surface_mod
from repro.power.surface import get_surfaces
from repro.pv.array import PVArray
from repro.pv.module import PVModule
from repro.pv.params import bp3180n
from repro.pv.shading import ShadedSeriesString
from repro.pv.vector import device_scaling
from repro.telemetry import telemetry_session

EXACT = SolarCoreConfig(step_minutes=10.0)
TABLE = SolarCoreConfig(solver="table")
SOLVERS = {"exact": EXACT, "table": TABLE}

KINDS = {
    "MPPT&IC": dict(kind="mppt", policy="MPPT&IC"),
    "Fixed-75W": dict(kind="fixed", budget_w=75.0),
    "Battery-L": dict(kind="battery", derating=0.81),
}

#: One fault of each class: sensor, PV string, soiling, converter,
#: transfer switch and trace.
FAULTS = (
    "sensor_dropout@600-660,seed=7",
    "pv_string@600-660:0.5",
    "soiling@480-:0.85",
    "conv_eff@600-700:0.9",
    "ats_stuck@550-650",
    "trace_gap@700-760",
)


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


def cold_and_warm(task: SweepTask, config: SolarCoreConfig):
    """``task`` on an empty memo, then again after another day of its cell."""
    clear_environments()
    cold = compute_task(task, config)
    clear_environments()
    compute_task(SweepTask("mppt", "L1", task.location_code, task.month), config)
    warm = compute_task(task, config)
    return cold, warm


class TestSharedEqualsFresh:
    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_day_on_warm_memo_matches_cold(self, kind, solver):
        task = SweepTask(mix_name="HM2", location_code="AZ", month=7, **KINDS[kind])
        assert_same_bytes(*cold_and_warm(task, SOLVERS[solver]))

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("faults", FAULTS, ids=lambda spec: spec.split("@")[0])
    def test_fault_day_on_warm_memo_matches_cold(self, faults, solver):
        task = SweepTask("mppt", "HM2", "AZ", 7, policy="MPPT&Opt", faults=faults)
        assert_same_bytes(*cold_and_warm(task, SOLVERS[solver]))

    def test_explicit_trace_matches_named_cell(self):
        trace = generate_trace(PHOENIX_AZ, 7, step_minutes=EXACT.step_minutes)
        clear_environments()
        named = run_day("HM2", PHOENIX_AZ, 7, config=EXACT)
        assert_same_bytes(named, run_day("HM2", PHOENIX_AZ, 7, config=EXACT, trace=trace))


class TestEnvironment:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_arrays_are_read_only(self, solver):
        env = day_environment(PHOENIX_AZ, 7, PVArray(), solver=solver).solve()
        arrays = [
            env.minutes, env.irradiance, env.ambient_c, env.cell_temp,
            env.pmpp, env.trace.minutes, env.trace.irradiance, env.trace.ambient_c,
        ]
        if solver == "exact":
            assert isinstance(env.mpp, tuple)
        # Fastday's spans read the powers of the points the loop reads.
        assert env.pmpp.tolist() == [point.power for point in env.mpp]
        for values in arrays:
            assert not values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0
        assert len(env.mpp) == env.steps == len(env.trace.minutes) - 1

    def test_table_cell_temperatures_match_the_scalar_model(self):
        array = PVArray()
        env = day_environment(PHOENIX_AZ, 7, array, solver="table").solve()
        scalar = [
            array.cell_temperature_from_ambient(g, t)
            for g, t in zip(env.irradiance.tolist(), env.ambient_c.tolist())
        ]
        assert env.cell_temp.tobytes() == np.array(scalar).tobytes()

    def test_table_points_match_the_surface(self):
        clear_environments()
        env = day_environment(PHOENIX_AZ, 7, PVArray(), solver="table").solve()
        surfaces = get_surfaces(PVArray())
        assert len(env.mpp) == env.steps
        for index in (0, env.steps // 2, env.steps - 1):
            expected = surfaces.mpp(float(env.irradiance[index]), float(env.cell_temp[index]))
            assert env.mpp[index] == expected
            assert env.mpp[index] is env.mpp[index]  # looked up once

    def test_series_array_and_long_module_are_told_apart(self):
        # Same closed form, so one describe() string; different exact MPPs.
        array = PVArray(modules_series=3)
        module = PVModule(dataclasses.replace(bp3180n(), cells_series=216))
        assert device_scaling(array).describe() == device_scaling(module).describe()
        clear_environments()
        first = day_environment(PHOENIX_AZ, 7, array, step_minutes=10.0).solve()
        second = day_environment(PHOENIX_AZ, 7, module, step_minutes=10.0).solve()
        assert first is not second
        assert [p.power for p in first.mpp] != [p.power for p in second.mpp]

    def test_key_resolves_the_default_seed(self):
        clear_environments()
        default = day_environment(PHOENIX_AZ, 7, PVArray())
        assert day_environment(PHOENIX_AZ, 7, PVArray()) is default
        assert day_environment(
            PHOENIX_AZ, 7, PVArray(), seed=default_seed(PHOENIX_AZ, 7),
        ) is default
        assert day_environment(PHOENIX_AZ, 7, PVArray(), seed=1) is not default
        assert day_environment(PHOENIX_AZ, 7, PVArray(), step_minutes=5.0) is not default
        assert day_environment(PHOENIX_AZ, 7, PVArray(), solver="table") is not default

    def test_unshareable_days_get_their_own(self):
        trace = generate_trace(PHOENIX_AZ, 7)
        faulty = FaultyArray(PVArray(), FaultScheduler(FaultSchedule.parse("pv_string@600-")))
        for kwargs in (
            dict(device=PVArray(), trace=trace),
            dict(device=faulty),
            dict(device=ShadedSeriesString((1.0, 0.4))),
            dict(device=PVArray(), solve_mpp=False),
        ):
            first = day_environment(PHOENIX_AZ, 7, **kwargs)
            assert day_environment(PHOENIX_AZ, 7, **kwargs) is not first

    def test_trace_only_environment_solves_no_mpp(self):
        env = day_environment(PHOENIX_AZ, 7, PVArray(), step_minutes=10.0, solve_mpp=False)
        with telemetry_session() as hub:
            env.solve()
        assert env.mpp is None and env.cell_temp is None and env.pmpp is None
        assert env.steps == len(env.trace.minutes) - 1
        assert "pv.mpp_solves" not in hub.snapshot()["counters"]

    def test_memo_is_bounded(self):
        clear_environments()
        named = [
            day_environment(PHOENIX_AZ, 7, PVArray(), seed=seed)
            for seed in range(dayenv.MEMO_MAX + 1)
        ]
        assert len(dayenv._MEMO) == dayenv.MEMO_MAX
        # The newest stays; the oldest went first.
        assert day_environment(PHOENIX_AZ, 7, PVArray(), seed=dayenv.MEMO_MAX) is named[-1]
        assert day_environment(PHOENIX_AZ, 7, PVArray(), seed=0) is not named[0]
        clear_environments()
        assert not dayenv._MEMO

    def test_concurrent_first_uses_build_once(self):
        clear_environments()
        barrier = threading.Barrier(8)
        got: list[DayEnvironment] = []

        def ask() -> None:
            barrier.wait()
            got.append(day_environment(PHOENIX_AZ, 7, PVArray(), step_minutes=10.0).solve())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with telemetry_session() as hub:
                threads = [threading.Thread(target=ask) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 8
        assert all(env is got[0] for env in got)
        counters = hub.snapshot()["counters"]
        assert counters["environment.builds"] == 1
        assert counters["pv.mpp_solves"] == got[0].steps


class TestCountedWork:
    """The solves a shared environment removes, counted on the hub."""

    CELLS = ("AZ", "TN")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exact_grid_solves_each_cell_once(self, jobs):
        tasks = grid_tasks(
            ("HM2", "L1"), self.CELLS, (7,),
            policies=("MPPT&Opt", "MPPT&IC"), deratings=(0.81,),
        )
        assert len(tasks) == 12
        # Pool workers fork and inherit this process's memo.
        clear_environments()
        with telemetry_session() as hub:
            results = run_parallel(tasks, EXACT, jobs=jobs)
        assert len(results) == len(tasks)
        steps = len(generate_trace(PHOENIX_AZ, 7, step_minutes=EXACT.step_minutes).minutes) - 1
        counters = hub.snapshot()["counters"]
        assert counters["environment.builds"] == len(self.CELLS)
        assert counters["pv.mpp_solves"] == len(self.CELLS) * steps
        assert counters["sim.days"] == len(tasks)
        # One set of diode terms per MPP solve and per tracking event: every
        # probe of an event's root-finds reuses its (G, T) terms (per probe,
        # this grid would compute them 73,386 times).
        assert counters["pv.term_builds"] == (
            counters["pv.mpp_solves"] + counters["sim.tracking_events"]
        ) == 472

    #: A table day's counted work on the same 12 tasks, at any ``jobs``.
    TABLE_WORK = {
        "environment.builds": 2,
        "sim.days": 12,
        "sim.tracking_events": 364,
        "controller.align_solves": 364,
        "controller.load_raises": 1531,
        "controller.load_sheds": 1812,
        "sim.dvfs_transitions": 3631,
    }

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_table_grid_counts_its_work(self, jobs, monkeypatch):
        tasks = grid_tasks(
            ("HM2", "L1"), self.CELLS, (7,),
            policies=("MPPT&Opt", "MPPT&IC"), deratings=(0.81,),
        )
        assert len(tasks) == 12
        # Every process that runs a table day builds its surface in the
        # session; pool workers fork with this empty registry too.
        monkeypatch.setattr(surface_mod, "_REGISTRY", {})
        clear_environments()
        with telemetry_session() as hub:
            results = run_parallel(tasks, TABLE, jobs=jobs)
        assert len(results) == len(tasks)
        counters = hub.snapshot()["counters"]
        assert {name: counters[name] for name in self.TABLE_WORK} == self.TABLE_WORK
        assert "surface.fallbacks" not in counters
        # One build per process that got a chunk.
        builds = counters["surface.builds"]
        assert 1 <= builds <= jobs
        # A build's 512-sample self-check is a table day's only exact MPP work.
        assert counters["pv.mpp_solves"] == 512 * builds
        # Each self-check sample solves its MPP and operating point on one
        # set of diode terms.
        assert counters["pv.term_builds"] == 512 * builds

    @pytest.mark.parametrize("faults, solves", [
        ("sensor_dropout@600-660,seed=7", False),
        ("ats_latency@500-600:3", False),
        ("soiling@480-:0.85", True),
        ("trace_gap@700-760", True),
        ("pv_string@600-660:0.5", True),
    ], ids=lambda value: value.split("@")[0] if isinstance(value, str) else None)
    def test_fault_day_shares_unless_it_changes_the_panel(self, faults, solves):
        clear_environments()
        run_day("HM2", PHOENIX_AZ, 7, config=EXACT)  # warms the cell
        with telemetry_session() as hub:
            run_day("HM2", PHOENIX_AZ, 7, config=EXACT, faults=faults)
        counters = hub.snapshot()["counters"]
        steps = len(generate_trace(PHOENIX_AZ, 7, step_minutes=EXACT.step_minutes).minutes) - 1
        # A day that solves each step builds its own trace-only environment.
        assert counters.get("environment.builds", 0) == int(solves)
        assert counters.get("pv.mpp_solves", 0) == (steps if solves else 0)
        assert counters["faults.injected"] >= 1

"""Golden serial-vs-parallel-vs-disk-cache equivalence suite.

The parallel sweep engine's contract is *bit-identical determinism*: a
grid computed serially, fanned out over worker processes, or read back
from the persistent disk cache must produce byte-identical
:class:`DayResult` arrays and identical scalar metrics.  These tests are
the enforcement mechanism, alongside the cache-invalidation rules (a
bumped code fingerprint recomputes; a corrupt entry recomputes loudly,
never silently returns garbage) and the worker-failure contract (a
failing task names its grid coordinates).
"""

from __future__ import annotations

import dataclasses
import logging
import pickle

import numpy as np
import pytest

from repro.core.campaign import run_campaign
from repro.core.config import SolarCoreConfig
from repro.core.simulation import BatteryDayResult, DayResult
from repro.environment.locations import location_by_code
from repro.harness.parallel import (
    CACHE_FORMAT_VERSION,
    DiskResultCache,
    SweepError,
    SweepTask,
    config_key,
    grid_tasks,
    run_parallel,
)
from repro.harness.runner import SimulationRunner
from repro.telemetry import RingBufferSink, telemetry_session

#: Coarse steps keep one day cheap; the determinism contract is
#: resolution-independent.
CFG = SolarCoreConfig(step_minutes=10.0)

#: The acceptance grid: 2 locations x 2 months x 2 mixes.
GRID_MIXES = ("H1", "L1")
GRID_LOCATIONS = ("AZ", "TN")
GRID_MONTHS = (1, 7)

#: MPPT grid plus one fixed-budget and one battery task per cell, so all
#: three simulation kinds cross the worker/disk boundary.
ALL_TASKS = grid_tasks(
    GRID_MIXES, GRID_LOCATIONS, GRID_MONTHS,
    budgets_w=(75.0,), deratings=(0.81,),
)

ARRAY_FIELDS = ("minutes", "mpp_w", "consumed_w", "throughput_gips", "on_solar")


def assert_identical(a, b) -> None:
    """Byte-identical arrays and exactly equal scalars."""
    assert type(a) is type(b)
    if isinstance(a, BatteryDayResult):
        assert a == b
        return
    assert isinstance(a, DayResult)
    for name in ARRAY_FIELDS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert left.tobytes() == right.tobytes(), name
    for name in (
        "mix_name", "location_code", "month", "policy",
        "retired_ginst_solar", "retired_ginst_total", "utility_wh",
        "tracking_events", "dvfs_transitions", "dvfs_transition_volts",
    ):
        assert getattr(a, name) == getattr(b, name), name


@pytest.fixture(scope="module")
def serial_results():
    """The golden reference: the grid computed serially in-process."""
    return SimulationRunner(CFG).prefetch(ALL_TASKS)


class TestGoldenEquivalence:
    def test_parallel_matches_serial_byte_for_byte(self, serial_results):
        parallel = SimulationRunner(CFG, jobs=4).prefetch(ALL_TASKS)
        assert set(parallel) == set(serial_results)
        for task in ALL_TASKS:
            assert_identical(serial_results[task], parallel[task])

    def test_disk_cache_roundtrip_byte_for_byte(self, serial_results, tmp_path):
        cold = SimulationRunner(CFG, cache_dir=tmp_path)
        cold.prefetch(ALL_TASKS)
        assert cold.disk.misses > 0 and cold.disk.hits == 0

        warm = SimulationRunner(CFG, cache_dir=tmp_path)
        results = warm.prefetch(ALL_TASKS)
        assert warm.disk.hits == len(ALL_TASKS)
        assert warm.disk.misses == 0
        for task in ALL_TASKS:
            assert_identical(serial_results[task], results[task])

    def test_parallel_workers_populate_disk_cache(self, tmp_path):
        first = SimulationRunner(CFG, jobs=2, cache_dir=tmp_path)
        first.prefetch(ALL_TASKS)
        warm = SimulationRunner(CFG, cache_dir=tmp_path)
        warm.prefetch(ALL_TASKS)
        assert warm.disk.hits == len(ALL_TASKS)

    def test_cached_results_are_frozen_on_every_path(self, tmp_path):
        day_task = ALL_TASKS[0]
        for runner in (
            SimulationRunner(CFG, jobs=2),
            SimulationRunner(CFG, cache_dir=tmp_path),
            SimulationRunner(CFG, cache_dir=tmp_path),  # warm disk read
        ):
            day = runner.prefetch([day_task])[day_task]
            assert not day.mpp_w.flags.writeable

    def test_campaign_aggregates_identical(self):
        locations = [location_by_code(code) for code in GRID_LOCATIONS]
        serial = run_campaign(
            "H1", locations, (7,), days_per_cell=2, config=CFG,
        )
        parallel = run_campaign(
            "H1", locations, (7,), days_per_cell=2,
            runner=SimulationRunner(CFG, jobs=2),
        )
        assert serial.overall_utilization == parallel.overall_utilization
        for cell_s, cell_p in zip(serial.cells, parallel.cells):
            assert (cell_s.location_code, cell_s.month) == (
                cell_p.location_code, cell_p.month)
            for attribute in ("energy_utilization", "ptp", "utility_wh"):
                assert cell_s.mean(attribute) == cell_p.mean(attribute)
                assert cell_s.std(attribute) == cell_p.std(attribute)
            for day_s, day_p in zip(cell_s.days, cell_p.days):
                assert_identical(day_s, day_p)

    def test_campaign_rejects_conflicting_config(self):
        locations = [location_by_code("AZ")]
        with pytest.raises(ValueError, match="conflicting config"):
            run_campaign(
                "H1", locations, (7,), days_per_cell=1,
                config=SolarCoreConfig(step_minutes=5.0),
                runner=SimulationRunner(CFG),
            )


class TestCacheInvalidation:
    TASK = SweepTask("battery", "L1", "AZ", 7, derating=0.81)

    def test_bumped_code_fingerprint_recomputes(self, tmp_path):
        old = DiskResultCache(tmp_path, fingerprint="code-v1")
        key = self.TASK.cache_key(config_key(CFG))
        result = SimulationRunner(CFG).battery_day("L1", "AZ", 7, 0.81)
        old.store(key, result)
        assert old.load(key) == result

        new = DiskResultCache(tmp_path, fingerprint="code-v2")
        assert new.load(key) is None  # different address: cold cache
        assert new.stats()["misses"] == 1

    def test_corrupt_entry_recomputes_loudly(self, tmp_path, caplog):
        cache = DiskResultCache(tmp_path)
        key = self.TASK.cache_key(config_key(CFG))
        result = SimulationRunner(CFG).battery_day("L1", "AZ", 7, 0.81)
        path = cache.store(key, result)

        path.write_bytes(b"not a pickle at all")
        with caplog.at_level(logging.WARNING, logger="repro.harness.parallel"):
            assert cache.load(key) is None
        assert "corrupt disk-cache entry" in caplog.text
        assert not path.exists(), "corrupt entry must be deleted"

        # The runner recomputes and repairs the entry.
        runner = SimulationRunner(CFG, cache_dir=tmp_path)
        assert runner.battery_day("L1", "AZ", 7, 0.81) == result
        assert path.exists()

    def test_wrong_key_payload_rejected(self, tmp_path):
        """A hash collision / tampered file cannot serve a wrong result."""
        cache = DiskResultCache(tmp_path)
        key = self.TASK.cache_key(config_key(CFG))
        result = SimulationRunner(CFG).battery_day("L1", "AZ", 7, 0.81)
        path = cache.store(key, result)
        entry = pickle.loads(path.read_bytes())
        entry["key"] = ("battery", "H1", "AZ", 7, 0.81, None, config_key(CFG))
        path.write_bytes(pickle.dumps(entry))
        assert cache.load(key) is None

    def test_stale_format_version_rejected(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        key = self.TASK.cache_key(config_key(CFG))
        result = SimulationRunner(CFG).battery_day("L1", "AZ", 7, 0.81)
        path = cache.store(key, result)
        entry = pickle.loads(path.read_bytes())
        entry["format"] = CACHE_FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(entry))
        assert cache.load(key) is None

    def test_pre_v2_cache_directory_purged_loudly(self, tmp_path, caplog):
        """A warm pre-refactor cache (no format marker) is deleted, not served.

        Format-v1 entries live at different content addresses, so without
        the marker sweep they would be silently orphaned on disk and — had
        the addresses collided — silently served.  The constructor must
        instead purge them with a warning and stamp the directory.
        """
        (tmp_path / "deadbeef01.pkl").write_bytes(b"pre-refactor entry")
        (tmp_path / "deadbeef02.pkl").write_bytes(b"pre-refactor entry")

        with caplog.at_level(logging.WARNING, logger="repro.harness.parallel"):
            cache = DiskResultCache(tmp_path)

        assert not list(tmp_path.glob("*.pkl")), "stale entries must be deleted"
        assert "deleting 2 stale entr" in caplog.text
        marker = tmp_path / "CACHE_FORMAT"
        assert marker.read_text().strip() == str(CACHE_FORMAT_VERSION)

        # The purged directory is immediately usable again.
        key = self.TASK.cache_key(config_key(CFG))
        result = SimulationRunner(CFG).battery_day("L1", "AZ", 7, 0.81)
        cache.store(key, result)
        assert cache.load(key) == result

    def test_mismatched_format_marker_purged_loudly(self, tmp_path, caplog):
        (tmp_path / "CACHE_FORMAT").write_text("1\n")
        (tmp_path / "deadbeef01.pkl").write_bytes(b"format-1 entry")

        with caplog.at_level(logging.WARNING, logger="repro.harness.parallel"):
            DiskResultCache(tmp_path)

        assert not list(tmp_path.glob("*.pkl"))
        assert "written by format 1" in caplog.text
        assert (tmp_path / "CACHE_FORMAT").read_text().strip() == str(
            CACHE_FORMAT_VERSION
        )

    def test_current_format_marker_preserves_entries(self, tmp_path, caplog):
        key = self.TASK.cache_key(config_key(CFG))
        result = SimulationRunner(CFG).battery_day("L1", "AZ", 7, 0.81)
        DiskResultCache(tmp_path).store(key, result)

        with caplog.at_level(logging.WARNING, logger="repro.harness.parallel"):
            warm = DiskResultCache(tmp_path)
        assert caplog.text == ""
        assert warm.load(key) == result

    def test_config_change_addresses_different_entry(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        a = self.TASK.cache_key(config_key(CFG))
        b = self.TASK.cache_key(config_key(SolarCoreConfig(step_minutes=5.0)))
        assert cache.path_for(a) != cache.path_for(b)


class TestWorkerFailures:
    def test_worker_exception_names_grid_coordinates(self):
        # "AZ" canonicalizes to station code "PFCI" at task construction.
        bad = SweepTask("mppt", "NOPE", "AZ", 7)
        with pytest.raises(
            SweepError, match=r"mix=NOPE location=PFCI month=7"
        ):
            run_parallel([bad], CFG, jobs=2)

    def test_prefetch_surfaces_worker_failure(self):
        runner = SimulationRunner(CFG, jobs=2)
        with pytest.raises(SweepError, match=r"location=ORNL month=1"):
            runner.prefetch([SweepTask("mppt", "NOPE", "TN", 1)])


class TestSweepTask:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SweepTask("warp", "H1", "AZ", 7)

    def test_fixed_requires_budget(self):
        """A fixed task needs a budget, and no other kind takes one."""
        for kind, extra in (
            ("fixed", {}),
            ("mppt", {"budget_w": 50.0}),
            ("battery", {"derating": 0.81, "budget_w": 50.0}),
        ):
            with pytest.raises(ValueError, match="budget_w"):
                SweepTask(kind, "H1", "AZ", 7, **extra)

    def test_battery_requires_derating(self):
        """A battery task needs a derating, and no other kind takes one."""
        for kind, extra in (
            ("battery", {}),
            ("mppt", {"derating": 0.5}),
            ("fixed", {"budget_w": 75.0, "derating": 0.81}),
        ):
            with pytest.raises(ValueError, match="derating"):
                SweepTask(kind, "H1", "AZ", 7, **extra)

    def test_only_mppt_tasks_take_a_policy(self):
        """A baseline task keeps the default policy, which its cache key
        ignores; any other policy would make equal work unequal."""
        for kind, extra in (("fixed", {"budget_w": 75.0}),
                            ("battery", {"derating": 0.81})):
            with pytest.raises(ValueError, match="policy"):
                SweepTask(kind, "H1", "AZ", 7, policy="MPPT&RR", **extra)
            SweepTask(kind, "H1", "AZ", 7, policy="MPPT&Opt", **extra)

    def test_station_aliases_canonicalize_to_one_identity(self):
        """Regression: 'AZ' is an alias of station 'PFCI'; a task built from
        either name must hash to the same cache entry, or alias-addressed
        and runner-addressed caches silently diverge."""
        alias = SweepTask("mppt", "H1", "AZ", 7)
        canonical = SweepTask("mppt", "H1", "PFCI", 7)
        assert alias == canonical
        assert alias.cache_key(config_key(CFG)) == canonical.cache_key(config_key(CFG))

    def test_unknown_location_rejected_at_construction(self):
        with pytest.raises(KeyError, match="ZZZ"):
            SweepTask("mppt", "H1", "ZZZ", 7)

    def test_cache_key_distinguishes_every_coordinate(self):
        cfg_key = config_key(CFG)
        base = SweepTask("mppt", "H1", "AZ", 7, policy="MPPT&Opt", seed=3)
        variants = [
            SweepTask("mppt", "L1", "AZ", 7, policy="MPPT&Opt", seed=3),
            SweepTask("mppt", "H1", "TN", 7, policy="MPPT&Opt", seed=3),
            SweepTask("mppt", "H1", "AZ", 1, policy="MPPT&Opt", seed=3),
            SweepTask("mppt", "H1", "AZ", 7, policy="MPPT&RR", seed=3),
            SweepTask("mppt", "H1", "AZ", 7, policy="MPPT&Opt", seed=4),
            SweepTask("mppt", "H1", "AZ", 7, policy="MPPT&Opt", seed=None),
            SweepTask("fixed", "H1", "AZ", 7, budget_w=75.0, seed=3),
            SweepTask("battery", "H1", "AZ", 7, derating=0.81, seed=3),
        ]
        keys = {v.cache_key(cfg_key) for v in variants}
        keys.add(base.cache_key(cfg_key))
        assert len(keys) == len(variants) + 1


class TestTelemetryFromWorkers:
    def test_worker_counters_and_spans_reach_parent_summary(self):
        tasks = grid_tasks(("L1",), ("AZ", "TN"), (7,))
        with telemetry_session() as tel:
            SimulationRunner(CFG, jobs=2).prefetch(tasks)
            snapshot = tel.snapshot()
        assert snapshot["counters"]["sim.days"] == len(tasks)
        assert snapshot["timers"]["run_day"]["count"] == len(tasks)
        assert snapshot["timers"]["run_day"]["total"] > 0.0

    def test_workers_stay_silent_when_parent_hub_disabled(self, monkeypatch):
        merged = []
        monkeypatch.setattr(
            "repro.telemetry.hub.NullTelemetry.merge_snapshot",
            lambda self, data: merged.append(data),
        )
        tasks = [SweepTask("mppt", "L1", "AZ", 7)]
        assert set(run_parallel(tasks, CFG, jobs=2)) == set(tasks)
        assert merged == []


class TestInProcessSweep:
    def test_jobs1_runs_in_process_under_the_callers_hub(self, monkeypatch):
        """``jobs=1`` creates no pool, and its events reach the caller's
        sinks directly (no snapshot hop)."""

        def no_pool(*args, **kwargs):
            raise AssertionError("jobs=1 must not create a process pool")

        monkeypatch.setattr(
            "repro.harness.parallel.ProcessPoolExecutor", no_pool
        )
        sink = RingBufferSink()
        tasks = grid_tasks(("L1", "H1"), ("AZ",), (7,))
        stored = []
        with telemetry_session(sinks=[sink]) as hub:
            results = run_parallel(
                tasks, CFG, jobs=1, store=lambda t, r: stored.append(t)
            )
        assert set(results) == set(tasks) == set(stored)
        assert hub.snapshot()["counters"]["sim.days"] == len(tasks)
        assert len(sink.events("tracking")) > 0


class TestConfigKeyRoundTrip:
    #: A valid alternate value per SolarCoreConfig field.  The coverage
    #: assertion below makes a newly added config field fail this test
    #: until it gets an alternate — the cache key must cover every field.
    ALTERNATES = {
        "rail_voltage": 1.3,
        "rail_tolerance_v": 0.5,
        "tracking_interval_min": 15.0,
        "supply_change_fraction": 0.2,
        "power_margin": 0.08,
        "max_track_iterations": 65,
        "step_minutes": 2.5,
        "ats_margin": 0.07,
        "sensor_averaging": 2,
        "adaptive_margin": True,
        "adaptive_margin_floor": 0.02,
        "realloc_after_track": True,
        "enable_pcpg": False,
        "sensor_staleness_min": 8.0,
        "degraded_budget_fraction": 0.4,
        "solver": "table",
        "chip_spec": "biglittle",
    }

    def test_every_field_alters_the_key(self):
        base_cfg = SolarCoreConfig()
        base_key = config_key(base_cfg)
        field_names = [f.name for f in dataclasses.fields(SolarCoreConfig)]
        assert set(field_names) == set(self.ALTERNATES), (
            "SolarCoreConfig fields changed; update ALTERNATES so the "
            "cache key is proven to cover every field"
        )
        for name in field_names:
            alternate = self.ALTERNATES[name]
            assert alternate != getattr(base_cfg, name), name
            changed = dataclasses.replace(base_cfg, **{name: alternate})
            assert config_key(changed) != base_key, (
                f"changing SolarCoreConfig.{name} must change the cache key"
            )

    def test_equal_configs_equal_keys(self):
        assert config_key(SolarCoreConfig()) == config_key(SolarCoreConfig())


class TestPrefetchIsIdempotent:
    def test_second_prefetch_runs_nothing(self):
        runner = SimulationRunner(CFG, jobs=2)
        tasks = grid_tasks(("L1",), ("AZ",), (7,))
        first = runner.prefetch(tasks)
        cached = runner.cached_runs
        second = runner.prefetch(tasks)
        assert runner.cached_runs == cached
        for task in tasks:
            assert first[task] is second[task]

    def test_mixed_warm_and_cold_tasks(self, tmp_path):
        runner = SimulationRunner(CFG, jobs=2, cache_dir=tmp_path)
        warm_task = SweepTask("mppt", "L1", "AZ", 7)
        runner.prefetch([warm_task])
        cold_task = SweepTask("mppt", "H1", "AZ", 7)
        results = runner.prefetch([warm_task, cold_task])
        assert set(results) == {warm_task, cold_task}

    def test_numpy_arrays_intact_after_pickle_roundtrip(self, tmp_path):
        """The disk format must preserve dtype and bytes exactly."""
        runner = SimulationRunner(CFG, cache_dir=tmp_path)
        day = runner.day("L1", "AZ", 7)
        warm = SimulationRunner(CFG, cache_dir=tmp_path).day("L1", "AZ", 7)
        for name in ARRAY_FIELDS:
            assert getattr(day, name).dtype == getattr(warm, name).dtype
        assert isinstance(warm.on_solar[0], np.bool_)

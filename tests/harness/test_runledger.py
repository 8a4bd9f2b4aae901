"""Run provenance ledger: manifest assembly, atomic record/load, diff."""

from __future__ import annotations

import json

import pytest

from repro.core.config import SolarCoreConfig
from repro.core.simulation import run_day
from repro.environment.locations import PHOENIX_AZ
from repro.harness.parallel import code_fingerprint, config_key
from repro.harness.runledger import (
    MANIFEST_SCHEMA_VERSION,
    RunLedger,
    build_manifest,
    diff_manifests,
    host_info,
    render_manifest,
    render_run_list,
)
from repro.telemetry import Telemetry, telemetry_session

CFG = SolarCoreConfig(step_minutes=10.0)


def simulated_manifest(**overrides):
    """A manifest built from a real profiled day, for realistic sections."""
    hub = Telemetry(profile=True)
    with telemetry_session(hub):
        run_day("HM2", PHOENIX_AZ, 7, config=CFG)
    kwargs = dict(
        command="simulate",
        argv=["--mix", "HM2", "--site", "AZ"],
        config=CFG,
        seeds=[None],
        faults=None,
        jobs=1,
        duration_s=1.5,
        telemetry=hub,
    )
    kwargs.update(overrides)
    return build_manifest(**kwargs)


class TestBuildManifest:
    def test_identity_fields(self):
        manifest = simulated_manifest()
        assert manifest["schema"] == MANIFEST_SCHEMA_VERSION
        assert manifest["command"] == "simulate"
        assert manifest["argv"] == ["--mix", "HM2", "--site", "AZ"]
        assert manifest["code_fingerprint"] == code_fingerprint()
        assert manifest["config_key"] == repr(config_key(CFG))
        assert manifest["host"] == host_info()
        assert manifest["host"]["cpu_count"] is not None

    def test_execution_sections(self):
        manifest = simulated_manifest()
        assert manifest["days"] == 1
        assert manifest["duration_s"] == 1.5
        assert manifest["phases"]  # profiler was armed
        assert all(
            set(data) == {"count", "total_s"}
            for data in manifest["phases"].values()
        )
        assert manifest["solver"]["power.brentq_calls"] > 0

    def test_null_hub_contributes_empty_sections(self):
        manifest = build_manifest("simulate", config=CFG)
        assert manifest["cache"] == {}
        assert manifest["sweep"] == {}
        assert manifest["phases"] == {}
        assert manifest["days"] == 0.0

    def test_counter_prefixes_are_stripped(self):
        hub = Telemetry()
        hub.count("runner.computes", 4.0)
        hub.count("sweep.retries", 2.0)
        hub.count("unrelated.counter", 9.0)
        manifest = build_manifest("sweep", telemetry=hub)
        assert manifest["cache"] == {"computes": 4.0}
        assert manifest["sweep"] == {"retries": 2.0}

    def test_extra_fields_ride_along(self):
        manifest = build_manifest("campaign", extra={"figure": "fig13"})
        assert manifest["extra"] == {"figure": "fig13"}

    def test_manifest_is_json_serializable(self):
        manifest = simulated_manifest()
        assert json.loads(json.dumps(manifest)) == manifest


class TestRunLedger:
    def test_record_load_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        manifest = simulated_manifest()
        path = ledger.record(manifest)
        assert path.is_file()
        (run_id,) = ledger.run_ids()
        loaded = ledger.load(run_id)
        assert loaded["run_id"] == run_id
        assert loaded["command"] == "simulate"
        assert loaded["config_key"] == manifest["config_key"]

    def test_record_does_not_mutate_input(self, tmp_path):
        manifest = build_manifest("simulate")
        RunLedger(tmp_path).record(manifest)
        assert "run_id" not in manifest

    def test_same_second_runs_get_unique_ids(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for _ in range(3):
            ledger.record(build_manifest("simulate"))
        ids = ledger.run_ids()
        assert len(set(ids)) == 3

    def test_no_leftover_temp_files(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.record(build_manifest("simulate"))
        assert not list(tmp_path.glob("*.tmp"))

    def test_load_unknown_run_names_known_ids(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.record(build_manifest("simulate"))
        (known,) = ledger.run_ids()
        with pytest.raises(FileNotFoundError, match=known):
            ledger.load("nonexistent")

    def test_load_empty_ledger(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="none recorded"):
            RunLedger(tmp_path / "absent").load("anything")

    def test_schema_mismatch_refused(self, tmp_path):
        ledger = RunLedger(tmp_path)
        path = ledger.record(build_manifest("simulate"))
        doc = json.loads(path.read_text())
        doc["schema"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema 99"):
            ledger.load(path.stem)

    def test_latest_returns_newest_first(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.record(build_manifest("simulate"))
        ledger.record(build_manifest("sweep"))
        newest, older = ledger.latest(2)
        assert newest["run_id"] == ledger.run_ids()[-1]
        assert older["run_id"] == ledger.run_ids()[0]
        (only,) = ledger.latest(1)
        assert only["run_id"] == newest["run_id"]

    def test_empty_ledger_lists_nothing(self, tmp_path):
        ledger = RunLedger(tmp_path / "never-created")
        assert ledger.run_ids() == []
        assert ledger.latest() == []


class TestRendering:
    def test_run_list_table(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.record(simulated_manifest())
        text = render_run_list(ledger.latest(5))
        assert "simulate" in text
        assert "run" in text and "days" in text

    def test_render_manifest_sections(self):
        text = render_manifest(simulated_manifest())
        assert "command   simulate --mix HM2 --site AZ" in text
        assert "config    (" in text
        assert "cpus=" in text
        assert "solver" in text
        assert "phases" in text
        assert "step.policy" in text

    def test_render_manifest_minimal(self):
        text = render_manifest(build_manifest("simulate"))
        assert "seeds     [standard trace]" in text
        assert "faults    -" in text
        assert "phases" not in text


class TestDiff:
    def test_identical_runs_all_same(self):
        manifest = simulated_manifest()
        text = diff_manifests(manifest, manifest)
        assert "DIFFERS" not in text
        assert "same" in text

    def test_identity_change_flagged(self):
        a = simulated_manifest()
        b = dict(a, code_fingerprint="f" * 64, run_id="later")
        text = diff_manifests(a, b)
        assert "DIFFERS" in text
        assert "ffffffffffffffff" in text  # truncated to 16 chars

    def test_numeric_delta_rendered(self):
        a = simulated_manifest(duration_s=2.0)
        b = dict(simulated_manifest(duration_s=3.0), run_id="b")
        text = diff_manifests(a, b)
        assert "+50.0%" in text

    def test_section_keys_union(self):
        a = build_manifest("sweep")
        hub = Telemetry()
        hub.count("sweep.retries", 2.0)
        b = build_manifest("sweep", telemetry=hub)
        text = diff_manifests(a, b)
        assert "sweep.retries" in text

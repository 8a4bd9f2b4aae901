"""Fastday declines: every table-mode day that keeps the scalar loop says why."""

from __future__ import annotations

import pytest

from repro.core import fastday
from repro.core.config import SolarCoreConfig
from repro.core.simulation import mppt_day_engine, run_day
from repro.environment.locations import PHOENIX_AZ
from repro.fullsystem.simulation import run_day_fullsystem
from repro.pv.shading import ShadedSeriesString
from repro.telemetry import NULL_TELEMETRY, Telemetry, telemetry_session

TABLE = SolarCoreConfig(step_minutes=10.0, solver="table")
FAULTS = "sensor_dropout@600-660,seed=7"


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
    def test_enabled_hub_declines_for_telemetry(self):
        assert declines(lambda: run_day("HM2", PHOENIX_AZ, 7, config=TABLE)) == {
            "telemetry": 1
        }

    def test_faults_named_before_telemetry(self):
        def run():
            run_day("HM2", PHOENIX_AZ, 7, config=TABLE, faults=FAULTS)

        assert declines(run) == {"faults": 1}

    def test_unsupported_policy(self):
        def run():
            run_day_fullsystem("HM2", PHOENIX_AZ, 7, config=TABLE)

        assert declines(run) == {"policy": 1}

    def test_device_without_surface(self):
        def run():
            run_day(
                "HM2", PHOENIX_AZ, 7, config=TABLE,
                array=ShadedSeriesString((1.0, 0.4)), faults=FAULTS,
            )

        assert declines(run) == {"surfaces": 1}

    def test_exact_mode_counts_nothing(self):
        exact = SolarCoreConfig(step_minutes=10.0)
        assert declines(lambda: run_day("HM2", PHOENIX_AZ, 7, config=exact)) == {}


class TestDeclineReason:
    def test_null_hub_day_batches(self, monkeypatch):
        engine = mppt_day_engine("HM2", PHOENIX_AZ, 7, config=TABLE)
        assert engine.fastday_decline is None
        assert fastday.decline_reason(engine, NULL_TELEMETRY) is None
        ran = []
        real = fastday.run_fast

        def spy(engine, tel):
            ran.append(real(engine, tel))
            return ran[-1]

        monkeypatch.setattr(fastday, "run_fast", spy)
        engine.run()
        assert ran == [True]

    @pytest.mark.parametrize("hub, reason", [
        (NULL_TELEMETRY, None),
        (Telemetry(), "telemetry"),
    ])
    def test_reason_follows_the_hub(self, hub, reason):
        engine = mppt_day_engine("HM2", PHOENIX_AZ, 7, config=TABLE)
        assert fastday.decline_reason(engine, hub) == reason

"""Unit tests for the automatic transfer switch."""

import pytest

from repro.power.psu import AutomaticTransferSwitch, PowerSource


class TestAutomaticTransferSwitch:
    def test_starts_on_utility(self):
        assert AutomaticTransferSwitch().source is PowerSource.UTILITY

    def test_engages_solar_with_margin(self):
        ats = AutomaticTransferSwitch(margin_fraction=0.1)
        assert ats.update(100.0, 95.0) is PowerSource.UTILITY  # needs 104.5
        assert ats.update(110.0, 95.0) is PowerSource.SOLAR

    def test_releases_below_minimum(self):
        ats = AutomaticTransferSwitch(margin_fraction=0.1)
        ats.update(200.0, 100.0)
        assert ats.source is PowerSource.SOLAR
        assert ats.update(99.0, 100.0) is PowerSource.UTILITY

    def test_hysteresis_prevents_chatter(self):
        ats = AutomaticTransferSwitch(margin_fraction=0.1)
        ats.update(200.0, 100.0)  # -> solar
        # Supply in the hysteresis band [100, 110): stays on solar.
        assert ats.update(105.0, 100.0) is PowerSource.SOLAR
        # Back on utility, same band does not re-engage.
        ats.update(50.0, 100.0)
        assert ats.update(105.0, 100.0) is PowerSource.UTILITY

    def test_switch_count(self):
        ats = AutomaticTransferSwitch()
        ats.update(200.0, 100.0)
        ats.update(50.0, 100.0)
        ats.update(200.0, 100.0)
        assert ats.switch_count == 3

    def test_rejects_negative_margin(self):
        with pytest.raises(ValueError):
            AutomaticTransferSwitch(margin_fraction=-0.1)


"""Additional controller behaviours: margin override, sensor averaging,
transition accounting."""

import pytest

from repro.core.config import SolarCoreConfig
from repro.core.controller import SolarCoreController
from repro.core.load_tuning import make_tuner
from repro.multicore.chip import MultiCoreChip
from repro.power.converter import DCDCConverter
from repro.power.sensors import IVSensor
from repro.pv.array import PVArray
from repro.pv.mpp import find_mpp
from repro.workloads.mixes import mix


def make_controller(config=None, sensor=None):
    chip = MultiCoreChip(mix("HM2"))
    chip.set_all_levels(0)
    cfg = config or SolarCoreConfig()
    controller = SolarCoreController(
        PVArray(), DCDCConverter(), chip, make_tuner("MPPT&Opt"), cfg, sensor
    )
    return controller, chip


def track(controller, irradiance, temp, minute):
    """One tracking event, handed the panel's exact MPP as the engine does."""
    mpp = find_mpp(controller.array, irradiance, temp)
    return controller.track(irradiance, temp, minute, mpp)


class TestMarginOverride:
    def test_override_changes_backoff(self):
        ctl_wide, chip_wide = make_controller()
        ctl_wide.margin_override = 0.15
        track(ctl_wide, 700, 40, 100.0)
        demand_wide = chip_wide.total_power_at(100.0)

        ctl_tight, chip_tight = make_controller()
        ctl_tight.margin_override = 0.01
        track(ctl_tight, 700, 40, 100.0)
        demand_tight = chip_tight.total_power_at(100.0)

        assert demand_tight > demand_wide

    def test_none_uses_config_margin(self):
        ctl_default, chip_default = make_controller()
        track(ctl_default, 700, 40, 100.0)

        ctl_same, chip_same = make_controller()
        ctl_same.margin_override = SolarCoreConfig().power_margin
        track(ctl_same, 700, 40, 100.0)

        assert chip_same.total_power_at(100.0) == pytest.approx(
            chip_default.total_power_at(100.0), rel=0.05
        )


class TestSensorAveraging:
    def test_averaged_reads_reduce_noise_impact(self):
        mpp = find_mpp(PVArray(), 700, 40)
        outcomes = {}
        for averaging in (1, 16):
            cfg = SolarCoreConfig(sensor_averaging=averaging)
            sensor = IVSensor(noise_fraction=0.05, seed=11)
            controller, chip = make_controller(cfg, sensor)
            track(controller, 700, 40, 100.0)
            outcomes[averaging] = chip.total_power_at(100.0)
        # The burst-averaged controller lands closer to the margin band.
        target = mpp.power * (1.0 - SolarCoreConfig().power_margin)
        assert abs(outcomes[16] - target) <= abs(outcomes[1] - target) + 3.0


class TestTransitionAccounting:
    def test_tracking_counts_transitions(self):
        controller, chip = make_controller()
        before = chip.total_transitions  # setup itself moved levels
        track(controller, 700, 40, 100.0)
        assert chip.total_transitions > before
        assert chip.total_transition_volts > 0.0

    def test_same_level_set_is_free(self):
        _, chip = make_controller()
        before = chip.total_transitions
        chip.cores[0].set_level(chip.cores[0].level)
        assert chip.total_transitions == before

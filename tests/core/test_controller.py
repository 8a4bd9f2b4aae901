"""Unit tests for the SolarCore three-step MPPT controller."""

import pytest

from repro.core.config import SolarCoreConfig
from repro.core.controller import SolarCoreController
from repro.core.load_tuning import make_tuner
from repro.multicore.chip import MultiCoreChip
from repro.power.converter import DCDCConverter
from repro.pv.array import PVArray
from repro.pv.mpp import find_mpp
from repro.workloads.mixes import mix


def make_controller(mix_name="HM2", policy="MPPT&Opt", **config_kwargs):
    array = PVArray()
    chip = MultiCoreChip(mix(mix_name))
    chip.set_all_levels(0)
    converter = DCDCConverter()
    config = SolarCoreConfig(**config_kwargs)
    controller = SolarCoreController(
        array, converter, chip, make_tuner(policy, config.enable_pcpg), config
    )
    return controller, chip, converter


def track(controller, irradiance, temp, minute):
    """One tracking event, handed the panel's exact MPP as the engine does."""
    mpp = find_mpp(controller.array, irradiance, temp)
    return controller.track(irradiance, temp, minute, mpp)


class TestTrackingConvergence:
    @pytest.mark.parametrize("irradiance,temp", [(900, 45), (600, 35), (350, 25)])
    def test_tracks_close_to_mpp(self, irradiance, temp):
        controller, chip, _ = make_controller()
        result = track(controller, irradiance, temp, 100.0)
        mpp = find_mpp(controller.array, irradiance, temp)
        # Either the chip saturated below the MPP, or we sit within the
        # margin band below the MPP.
        if result.load_saturated:
            assert result.power_w <= mpp.power + 1e-6
        else:
            assert result.power_w >= mpp.power * 0.80
            assert result.power_w <= mpp.power * 1.001

    def test_demand_respects_margin(self):
        controller, chip, _ = make_controller(power_margin=0.05)
        result = track(controller, 700, 40, 100.0)
        if not result.load_saturated:
            demand = chip.total_power_at(100.0)
            assert demand <= result.best_power_w * 1.001

    def test_rail_near_nominal_after_tracking(self):
        controller, chip, _ = make_controller()
        result = track(controller, 800, 40, 100.0)
        assert abs(result.rail_voltage - 12.0) < 1.5

    def test_dark_panel_short_circuits(self):
        controller, _, _ = make_controller()
        result = track(controller, 0.0, 25.0, 100.0)
        assert result.power_w == 0.0
        assert result.iterations == 0

    def test_saturation_flag_when_panel_exceeds_chip(self):
        # A 4-module array dwarfs the chip's max draw.
        array = PVArray(modules_series=2, modules_parallel=2)
        chip = MultiCoreChip(mix("L1"))
        chip.set_all_levels(0)
        config = SolarCoreConfig()
        controller = SolarCoreController(
            array, DCDCConverter(k_max=20.0), chip, make_tuner("MPPT&Opt"), config
        )
        result = track(controller, 1000, 45, 100.0)
        assert result.load_saturated
        assert chip.levels == (chip.table.max_level,) * 8

    def test_tracking_recovers_from_collapsed_branch(self):
        """A deep supply drop must not strand the system near short circuit."""
        controller, chip, converter = make_controller()
        track(controller, 950, 45, 100.0)  # tune at high supply
        # Supply collapses; previous k and levels are now far too aggressive.
        result = track(controller, 250, 25, 100.0)
        mpp = find_mpp(controller.array, 250, 25)
        assert result.power_w >= mpp.power * 0.5
        assert result.rail_voltage > 8.0


class TestTrackingMechanics:
    def test_iterations_bounded(self):
        controller, _, _ = make_controller(max_track_iterations=5)
        result = track(controller, 800, 40, 100.0)
        assert result.iterations <= 5

    def test_k_stays_on_grid_bounds(self):
        controller, _, converter = make_controller()
        track(controller, 800, 40, 100.0)
        assert converter.k_min <= converter.k <= converter.k_max

    def test_solve_consistent_with_chip_state(self):
        controller, chip, _ = make_controller()
        track(controller, 700, 35, 50.0)
        op = controller.solve(700, 35, 50.0)
        resistance = chip.effective_resistance(50.0)
        assert op.output_current == pytest.approx(
            op.output_voltage / resistance, rel=1e-6
        )

    @pytest.mark.parametrize("policy", ["MPPT&IC", "MPPT&RR", "MPPT&Opt"])
    def test_all_policies_track(self, policy):
        controller, _, _ = make_controller(policy=policy)
        result = track(controller, 600, 35, 100.0)
        mpp = find_mpp(controller.array, 600, 35)
        assert result.power_w >= mpp.power * 0.7

"""Unit tests for multi-day campaigns."""

import pytest

from repro.core.campaign import run_campaign
from repro.core.config import SolarCoreConfig
from repro.environment.locations import OAK_RIDGE_TN, PHOENIX_AZ


@pytest.fixture(scope="module")
def campaign():
    return run_campaign(
        "L1",
        [PHOENIX_AZ, OAK_RIDGE_TN],
        months=(7,),
        days_per_cell=3,
        config=SolarCoreConfig(step_minutes=10.0),
    )


class TestRunCampaign:
    def test_cell_grid(self, campaign):
        assert len(campaign.cells) == 2
        assert campaign.cell("PFCI", 7).month == 7
        with pytest.raises(KeyError):
            campaign.cell("PFCI", 4)

    def test_days_per_cell(self, campaign):
        assert all(len(cell.days) == 3 for cell in campaign.cells)
        assert len(campaign.all_days) == 6

    def test_realizations_are_independent(self, campaign):
        ptps = [day.ptp for day in campaign.cell("PFCI", 7).days]
        assert len(set(ptps)) > 1

    def test_deterministic_given_base_seed(self):
        cfg = SolarCoreConfig(step_minutes=10.0)
        a = run_campaign("L1", [PHOENIX_AZ], (7,), 2, config=cfg, base_seed=5)
        b = run_campaign("L1", [PHOENIX_AZ], (7,), 2, config=cfg, base_seed=5)
        assert [d.ptp for d in a.all_days] == [d.ptp for d in b.all_days]

    def test_cell_statistics(self, campaign):
        cell = campaign.cell("PFCI", 7)
        mean = cell.mean("energy_utilization")
        assert 0.5 < mean <= 1.0
        assert cell.std("energy_utilization") >= 0.0
        assert cell.quantile("energy_utilization", 0.0) <= mean

    def test_overall_utilization_between_sites(self, campaign):
        az = campaign.cell("PFCI", 7).mean("energy_utilization")
        tn = campaign.cell("ORNL", 7).mean("energy_utilization")
        assert tn <= campaign.overall_utilization * 1.2
        assert az >= tn

    def test_carbon_report(self, campaign):
        carbon = campaign.carbon()
        assert carbon.solar_kwh > 0.0
        assert carbon.avoided_kg > 0.0
        assert 0.0 < carbon.green_fraction <= 1.0

    def test_days_are_the_runners_frozen_results(self, campaign):
        """Without a runner the campaign still runs through one, so its
        days share the runner's read-only arrays."""
        assert not campaign.cell("PFCI", 7).days[0].mpp_w.flags.writeable

    def test_rejects_zero_days(self):
        with pytest.raises(ValueError):
            run_campaign("L1", [PHOENIX_AZ], (7,), days_per_cell=0)

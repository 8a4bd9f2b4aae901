"""Property-based tests for the MPPT controller's core invariant."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SolarCoreConfig
from repro.core.controller import SolarCoreController
from repro.core.load_tuning import make_tuner
from repro.multicore.chip import MultiCoreChip
from repro.power.converter import DCDCConverter
from repro.pv.array import PVArray
from repro.pv.mpp import find_mpp
from repro.workloads.mixes import ALL_MIX_NAMES, mix

mix_names = st.sampled_from(ALL_MIX_NAMES)
policies = st.sampled_from(("MPPT&IC", "MPPT&RR", "MPPT&Opt"))
irradiances = st.floats(min_value=250.0, max_value=1100.0)
temperatures = st.floats(min_value=0.0, max_value=55.0)
minutes = st.floats(min_value=0.0, max_value=599.0)


@given(
    mix_name=mix_names,
    policy=policies,
    g=irradiances,
    t=temperatures,
    minute=minutes,
)
@settings(max_examples=25, deadline=None)
def test_tracking_lands_in_safe_productive_band(mix_name, policy, g, t, minute):
    """The paper's validated invariant: after a tracking event, the system
    draws a large fraction of the available MPP power without exceeding it,
    and the rail is electrically sane."""
    array = PVArray()
    chip = MultiCoreChip(mix(mix_name))
    chip.set_all_levels(0)
    config = SolarCoreConfig()
    controller = SolarCoreController(
        array, DCDCConverter(), chip, make_tuner(policy), config
    )
    mpp = find_mpp(array, g, t)
    result = controller.track(g, t, minute, mpp)

    assert result.power_w <= mpp.power * (1.0 + 1e-6)
    if result.load_saturated:
        assert chip.levels == (chip.table.max_level,) * chip.n_cores
    else:
        assert result.power_w >= 0.6 * mpp.power
    assert 6.0 < result.rail_voltage < 20.0


@given(mix_name=mix_names, g=irradiances, t=temperatures)
@settings(max_examples=15, deadline=None)
def test_tracking_idempotent_when_settled(mix_name, g, t):
    """A second tracking event under unchanged conditions stays put (within
    one DVFS quantum of drift)."""
    array = PVArray()
    chip = MultiCoreChip(mix(mix_name))
    chip.set_all_levels(0)
    controller = SolarCoreController(
        array, DCDCConverter(), chip, make_tuner("MPPT&Opt"), SolarCoreConfig()
    )
    mpp = find_mpp(array, g, t)
    first = controller.track(g, t, 100.0, mpp)
    second = controller.track(g, t, 100.0, mpp)
    assert abs(second.power_w - first.power_w) <= 0.15 * max(first.power_w, 1.0)

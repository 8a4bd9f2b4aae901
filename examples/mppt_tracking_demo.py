"""Watch the three-step MPPT controller converge, step by step.

Run:  python examples/mppt_tracking_demo.py

Drives a single tracking event by hand at several irradiance levels and
prints the operating point after every knob movement — the transfer ratio
``k``, the per-core DVFS levels, the rail voltage, and how close the drawn
power sits to the true maximum power point.
"""

from repro import MultiCoreChip, PVArray, find_mpp, mix
from repro.core import SolarCoreConfig, SolarCoreController, make_tuner
from repro.power import DCDCConverter


def show(label: str, controller, chip, converter, irradiance, cell_temp) -> None:
    op = controller.solve(irradiance, cell_temp, minute=0.0)
    mpp = find_mpp(controller.array, irradiance, cell_temp)
    print(
        f"  {label:24s} k={converter.k:5.2f}  rail={op.output_voltage:6.2f} V  "
        f"P={op.output_power:6.1f} W ({op.output_power / mpp.power:6.1%} of MPP)  "
        f"levels={chip.levels}"
    )


def main() -> None:
    array = PVArray()
    for irradiance, cell_temp in ((950.0, 48.0), (600.0, 38.0), (320.0, 28.0)):
        chip = MultiCoreChip(mix("HM2"))
        chip.set_all_levels(0)
        converter = DCDCConverter()
        config = SolarCoreConfig()
        controller = SolarCoreController(
            array, converter, chip, make_tuner("MPPT&Opt"), config
        )
        mpp = find_mpp(array, irradiance, cell_temp)
        print(
            f"\nG = {irradiance:.0f} W/m^2, cell {cell_temp:.0f} C "
            f"-> panel MPP = {mpp.power:.1f} W at {mpp.voltage:.1f} V"
        )
        show("before tracking", controller, chip, converter, irradiance, cell_temp)
        result = controller.track(irradiance, cell_temp, 0.0, mpp)
        show(
            f"after {result.iterations:2d} iterations",
            controller, chip, converter, irradiance, cell_temp,
        )
        if result.load_saturated:
            print("  (chip saturated at max V/F below the panel's MPP)")


if __name__ == "__main__":
    main()

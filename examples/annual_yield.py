"""Annual solar-computing yield for a candidate installation.

Run:  python examples/annual_yield.py [site]

Extends the paper's four evaluated months to the full year (seasonal
interpolation of the weather regimes) and reports, month by month, the
panel's insolation and the SolarCore-managed chip's green-energy share —
the numbers behind a yearly total-cost / carbon projection.
"""

import sys

from repro import location_by_code, run_day
from repro.environment.irradiance import generate_trace
from repro.harness.reporting import format_table
from repro.metrics import GRID_INTENSITY_KG_PER_KWH, carbon_report

MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


def main() -> None:
    site = sys.argv[1] if len(sys.argv) > 1 else "AZ"
    location = location_by_code(site)
    print(f"Annual yield projection: {location.name} "
          f"({location.potential} resource), mix ML2, MPPT&Opt\n")

    rows = []
    days = []
    for month in range(1, 13):
        trace = generate_trace(location, month)
        day = run_day("ML2", location, month, "MPPT&Opt", trace=trace)
        days.append(day)
        rows.append([
            MONTHS[month - 1],
            f"{trace.daily_insolation_kwh_m2():.2f}",
            f"{day.solar_used_wh:.0f}",
            f"{day.energy_utilization:.0%}",
            f"{day.effective_duration_fraction:.0%}",
        ])

    print(format_table(
        ["month", "kWh/m^2/day", "solar Wh/day", "utilization", "solar duration"],
        rows,
    ))

    report = carbon_report(days, GRID_INTENSITY_KG_PER_KWH.get(location.code))
    # Scale the 12 mid-month days to a ~365-day year.
    annual_solar_kwh = report.solar_kwh / 12.0 * 365.0
    annual_avoided = report.avoided_kg / 12.0 * 365.0
    print(f"\nprojected yearly harvest  {annual_solar_kwh:7.1f} kWh")
    print(f"projected CO2 avoided     {annual_avoided:7.1f} kg/year "
          f"({report.reduction_fraction:.0%} footprint reduction)")


if __name__ == "__main__":
    main()

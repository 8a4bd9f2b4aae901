"""SolarCore: solar energy driven multi-core architecture power management.

A full reproduction of Li, Zhang, Cho & Li (HPCA 2011).  The package builds
every layer of the paper's system from scratch:

* :mod:`repro.pv` — single-diode PV cell/module/array models (BP3180N),
  I-V/P-V curves, exact MPP solving.
* :mod:`repro.environment` — the NREL-MIDC-style meteorological substrate:
  four US stations, solar geometry, seeded stochastic weather, day traces.
* :mod:`repro.power` — DC/DC converter, PV-converter-load operating-point
  solving, I/V sensors, and the automatic transfer switch.
* :mod:`repro.multicore` — the 8-core chip: per-core DVFS (VID), power
  model (EPI/IPC based with uncore), power gating.
* :mod:`repro.workloads` — SPEC2000-class benchmarks with phase-level IPC
  traces and the paper's Table 5 multi-programmed mixes.
* :mod:`repro.core` — the paper's contribution: the SolarCore three-step
  MPPT controller, throughput-power-ratio load optimization, the IC/RR/Opt
  scheduling policies, the Fixed-Power and battery-equipped baselines,
  and day-long simulation.
* :mod:`repro.metrics` — PTP, energy utilization, tracking error.
* :mod:`repro.harness` — one experiment per paper table/figure.

Quickstart::

    from repro import run_day, PHOENIX_AZ

    day = run_day("HM2", PHOENIX_AZ, month=7, policy="MPPT&Opt")
    print(f"utilization {day.energy_utilization:.0%}, "
          f"tracking error {day.mean_tracking_error:.1%}")
"""

from repro.core import (
    DayResult,
    SolarCoreConfig,
    SolarCoreController,
    run_day,
    run_day_battery,
    run_day_fixed,
)
from repro.environment import (
    ALL_LOCATIONS,
    ELIZABETH_CITY_NC,
    GOLDEN_CO,
    OAK_RIDGE_TN,
    PHOENIX_AZ,
    generate_trace,
    location_by_code,
)
from repro.multicore import MultiCoreChip
from repro.pv import PVArray, PVCell, PVModule, bp3180n, find_mpp
from repro.workloads import ALL_MIX_NAMES, mix

__version__ = "1.0.0"

__all__ = [
    "run_day",
    "run_day_fixed",
    "run_day_battery",
    "DayResult",
    "SolarCoreConfig",
    "SolarCoreController",
    "PVCell",
    "PVModule",
    "PVArray",
    "bp3180n",
    "find_mpp",
    "MultiCoreChip",
    "mix",
    "ALL_MIX_NAMES",
    "generate_trace",
    "location_by_code",
    "ALL_LOCATIONS",
    "PHOENIX_AZ",
    "GOLDEN_CO",
    "ELIZABETH_CITY_NC",
    "OAK_RIDGE_TN",
    "__version__",
]

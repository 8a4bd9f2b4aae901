"""Multi-core processor substrate: DVFS, power model, cores, chip."""

from repro.multicore.chip import NOMINAL_RAIL_V, MultiCoreChip
from repro.multicore.core import Core
from repro.multicore.dvfs import DVFSTable, OperatingPoint, default_dvfs_table
from repro.multicore.power_model import CorePowerModel
from repro.multicore.vrm import VRMBank, VRMParameters, VoltageRegulator

__all__ = [
    "OperatingPoint",
    "DVFSTable",
    "default_dvfs_table",
    "CorePowerModel",
    "Core",
    "MultiCoreChip",
    "NOMINAL_RAIL_V",
    "VoltageRegulator",
    "VRMBank",
    "VRMParameters",
]

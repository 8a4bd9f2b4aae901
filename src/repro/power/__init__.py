"""Power-electronics substrate: converter, operating point, sensors, ATS."""

from repro.power.battery_economics import (
    BatteryCostAnalysis,
    CycleLifeModel,
    battery_cost_analysis,
    required_capacity_wh,
)
from repro.power.converter import DCDCConverter
from repro.power.gridtie import GridTieDayResult, run_day_gridtie
from repro.power.operating_point import OperatingPoint, solve_operating_point
from repro.power.psu import AutomaticTransferSwitch, PowerSource
from repro.power.sensors import IVSensor, SensorReading

__all__ = [
    "DCDCConverter",
    "OperatingPoint",
    "solve_operating_point",
    "IVSensor",
    "SensorReading",
    "PowerSource",
    "AutomaticTransferSwitch",
    "required_capacity_wh",
    "CycleLifeModel",
    "BatteryCostAnalysis",
    "battery_cost_analysis",
    "GridTieDayResult",
    "run_day_gridtie",
]

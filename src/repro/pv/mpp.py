"""Exact maximum power point (MPP) solving for PV devices (paper Section 2.2).

Under fixed irradiance and temperature the P-V characteristic is unimodal on
[0, Voc]: power rises roughly linearly (current-source region), peaks at the
MPP, then collapses (diode region).  Bounded scalar maximization finds it to
high precision.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy.optimize import minimize_scalar

from repro.pv.curves import PVDevice
from repro.telemetry import hub as telemetry_hub

__all__ = ["MaxPowerPoint", "find_mpp"]


@dataclass(frozen=True)
class MaxPowerPoint:
    """The maximum power point of a PV device at fixed (G, T).

    Attributes:
        voltage: MPP terminal voltage ``Vmpp`` [V].
        current: MPP output current ``Impp`` [A].
        power: Maximum output power ``Pmax`` [W].
        irradiance: Irradiance [W/m^2] at which the MPP holds.
        temperature_c: Cell temperature [C] at which the MPP holds.
    """

    voltage: float
    current: float
    power: float
    irradiance: float
    temperature_c: float


def find_mpp(
    device: PVDevice,
    irradiance: float,
    temperature_c: float,
    tolerance: float = 1e-6,
) -> MaxPowerPoint:
    """Locate the maximum power point of ``device`` at fixed (G, T).

    Args:
        device: Cell, module, or array.
        irradiance: Plane-of-array irradiance [W/m^2].  Non-positive
            irradiance yields a zero-power MPP (the panel is dark).
        temperature_c: Cell temperature [C].
        tolerance: Absolute voltage tolerance of the bounded maximization.

    Returns:
        The exact :class:`MaxPowerPoint`.
    """
    tel = telemetry_hub.current()
    if tel.enabled:
        tel.count("pv.mpp_solves")
    if irradiance <= 0.0:
        return MaxPowerPoint(0.0, 0.0, 0.0, irradiance, temperature_c)
    voc = device.open_circuit_voltage(irradiance, temperature_c)

    result = minimize_scalar(
        lambda v: -v * device.current(v, irradiance, temperature_c),
        bounds=(0.0, voc),
        method="bounded",
        options={"xatol": tolerance},
    )
    v_mpp = float(result.x)
    i_mpp = device.current(v_mpp, irradiance, temperature_c)
    return MaxPowerPoint(
        voltage=v_mpp,
        current=i_mpp,
        power=v_mpp * i_mpp,
        irradiance=irradiance,
        temperature_c=temperature_c,
    )

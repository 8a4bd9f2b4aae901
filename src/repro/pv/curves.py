"""I-V and P-V curve sampling for PV devices (paper Figures 4, 6, 7).

A *device* is anything exposing ``current(voltage, irradiance, temperature_c)``
and ``open_circuit_voltage(irradiance, temperature_c)`` — cells (with cell
temperature), modules, and arrays all qualify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

__all__ = ["PVDevice", "IVCurve", "sample_iv_curve"]


class PVDevice(Protocol):
    """Structural interface shared by PVCell, PVModule and PVArray."""

    def current(self, voltage: float, irradiance: float, temperature_c: float) -> float:
        """Output current [A] at a terminal voltage."""

    def open_circuit_voltage(self, irradiance: float, temperature_c: float) -> float:
        """Open-circuit voltage [V]."""


@dataclass(frozen=True)
class IVCurve:
    """A sampled I-V (and derived P-V) characteristic at fixed (G, T).

    Attributes:
        voltage: Terminal voltages [V], ascending from 0 to Voc.
        current: Output currents [A] at each voltage.
        irradiance: Irradiance [W/m^2] the curve was sampled at.
        temperature_c: Cell temperature [C] the curve was sampled at.
    """

    voltage: np.ndarray
    current: np.ndarray
    irradiance: float
    temperature_c: float

    @property
    def power(self) -> np.ndarray:
        """Output power [W] at each sampled voltage."""
        return self.voltage * self.current

    @property
    def isc(self) -> float:
        """Short-circuit current [A] (first sample, V = 0)."""
        return float(self.current[0])

    @property
    def voc(self) -> float:
        """Open-circuit voltage [V] (last sample)."""
        return float(self.voltage[-1])

    @property
    def approximate_mpp(self) -> tuple[float, float, float]:
        """Grid-resolution (V, I, P) of the maximum-power sample.

        For an exact MPP use :func:`repro.pv.mpp.find_mpp`.
        """
        idx = int(np.argmax(self.power))
        return (
            float(self.voltage[idx]),
            float(self.current[idx]),
            float(self.power[idx]),
        )


def sample_iv_curve(
    device: PVDevice,
    irradiance: float,
    temperature_c: float,
    n_points: int = 200,
) -> IVCurve:
    """Sample a device's I-V characteristic from short to open circuit.

    Args:
        device: Cell, module, or array.
        irradiance: Plane-of-array irradiance [W/m^2]; must be positive.
        temperature_c: Cell temperature [C].
        n_points: Number of voltage samples (>= 2).

    Returns:
        An :class:`IVCurve` with ``n_points`` samples spanning [0, Voc].
    """
    if irradiance <= 0.0:
        raise ValueError(f"irradiance must be positive, got {irradiance}")
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    voc = device.open_circuit_voltage(irradiance, temperature_c)
    voltages = np.linspace(0.0, voc, n_points)
    currents = np.array(
        [device.current(float(v), irradiance, temperature_c) for v in voltages]
    )
    # Clamp the tiny negative tail at Voc caused by float rounding.
    currents[-1] = max(currents[-1], 0.0)
    return IVCurve(
        voltage=voltages,
        current=currents,
        irradiance=irradiance,
        temperature_c=temperature_c,
    )

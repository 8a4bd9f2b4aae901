"""Coupled PV-converter-load operating-point solving (paper Figure 5).

The actual operating point of the direct-coupled system is the intersection
of the PV generator's I-V curve with the chip's load line reflected through
the DC/DC converter.  With the chip modeled as a resistance ``R`` at the
converter output, the PV terminal voltage ``V`` satisfies

    I_pv(V) = V / (k^2 * eta * R)

``I_pv`` is strictly decreasing in ``V`` while the right side is strictly
increasing, so the equilibrium is unique; Brent's method brackets it on
``(0, Voc)``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from repro.brent import brentq
from repro.power.converter import DCDCConverter
from repro.pv.curves import PVDevice
from repro.telemetry import hub as telemetry_hub

__all__ = ["OperatingPoint", "OperatingPointError", "solve_operating_point"]

log = logging.getLogger(__name__)


class OperatingPointError(RuntimeError):
    """The coupled PV-converter-load solve failed.

    Raised instead of the root-finder's bare ``ValueError`` when it
    cannot bracket an equilibrium (NaN inputs, a degenerate I-V curve);
    the message names the full (G, T, k, load) coordinates so a failing
    sweep cell can be reproduced in isolation.
    """


@dataclass(frozen=True)
class OperatingPoint:
    """The electrical state of the PV-converter-load system.

    Attributes:
        pv_voltage: PV terminal voltage [V].
        pv_current: PV output current [A].
        output_voltage: Converter output (chip rail) voltage [V].
        output_current: Converter output current [A].
    """

    pv_voltage: float
    pv_current: float
    output_voltage: float
    output_current: float

    @property
    def pv_power(self) -> float:
        """Power drawn from the panel [W]."""
        return self.pv_voltage * self.pv_current

    @property
    def output_power(self) -> float:
        """Power delivered to the load [W]."""
        return self.output_voltage * self.output_current


def solve_operating_point(
    device: PVDevice,
    converter: DCDCConverter,
    load_resistance: float,
    irradiance: float,
    cell_temp_c: float,
) -> OperatingPoint:
    """Solve the equilibrium of panel, converter, and resistive load.

    Args:
        device: PV module or array.
        converter: The DC/DC matching network (its current ``k`` is used).
        load_resistance: Chip resistance at the converter output [ohm];
            ``inf`` (all cores gated) yields the open-circuit point.
        irradiance: Plane-of-array irradiance [W/m^2].
        cell_temp_c: PV cell temperature [C].

    Returns:
        The unique :class:`OperatingPoint`.

    Raises:
        OperatingPointError: NaN inputs, or the root-find could not
            bracket an equilibrium; the message carries (G, T, k, load).
    """
    def coordinates() -> str:
        return (
            f"G={irradiance!r} W/m^2, T={cell_temp_c!r} C, "
            f"k={converter.k!r}, load={load_resistance!r} ohm"
        )

    if math.isnan(load_resistance) or math.isnan(irradiance) or math.isnan(cell_temp_c):
        raise OperatingPointError(f"NaN operating-point input ({coordinates()})")
    if load_resistance <= 0:
        raise ValueError(f"load_resistance must be positive, got {load_resistance}")
    if irradiance <= 0.0:
        # Dark panel: no power flows.
        return OperatingPoint(0.0, 0.0, 0.0, 0.0)

    voc = device.open_circuit_voltage(irradiance, cell_temp_c)
    if load_resistance == float("inf"):
        return OperatingPoint(voc, 0.0, converter.output_voltage(voc), 0.0)

    tel = telemetry_hub.current()
    reflected = converter.reflected_resistance(load_resistance)

    def mismatch(v: float) -> float:
        return device.current(v, irradiance, cell_temp_c) - v / reflected

    # mismatch(0+) = Isc > 0, mismatch(Voc) = -Voc/reflected < 0.
    if tel.enabled:
        lap = tel.laps()
    try:
        v_pv, iterations = brentq(mismatch, 1e-9, voc, xtol=1e-9, rtol=1e-12)
    except ValueError as exc:
        # brentq's "f(a) and f(b) must have different signs" with no hint
        # of which grid cell produced it is undebuggable mid-sweep.
        raise OperatingPointError(
            f"operating-point solve failed on (0, Voc={voc!r} V): {exc} "
            f"({coordinates()})"
        ) from exc
    if tel.enabled:
        lap("power.operating_point")
        tel.count("power.brentq_calls")
        tel.count("power.brentq_iterations", iterations)
    if math.isnan(v_pv):
        raise OperatingPointError(
            f"operating-point solve returned NaN ({coordinates()})"
        )
    i_pv = device.current(v_pv, irradiance, cell_temp_c)
    return OperatingPoint(
        pv_voltage=v_pv,
        pv_current=i_pv,
        output_voltage=converter.output_voltage(v_pv),
        output_current=converter.output_current(i_pv),
    )

"""Partial shading: series strings under non-uniform irradiance.

When series-connected modules see different irradiance (a cloud edge, roof
shadow, soiling), the string current is pinned by the weakest module unless
its bypass diode conducts — producing a *multi-peaked* P-V characteristic.
Hill-climbing MPPT (P&O, incremental conductance, and SolarCore's
perturb-observe stage alike) can lock onto a local peak; only a periodic
global sweep recovers the true optimum.  This module models the physics
and provides the global-search reference.

``ShadedSeriesString`` satisfies the :class:`repro.pv.curves.PVDevice`
protocol, so every existing tool (curve sampling, operating-point solving,
trackers) works on it unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.brent import brentq, minimize_bounded
from repro.pv.module import PVModule
from repro.pv.mpp import MaxPowerPoint
from repro.pv.params import ModuleParameters, bp3180n
from repro.telemetry import hub as telemetry_hub

__all__ = ["ShadedSeriesString", "find_global_mpp"]

#: Forward drop of a conducting bypass diode [V].
_BYPASS_DROP_V = 0.5


class ShadedSeriesString:
    """Series-connected modules with bypass diodes under per-module irradiance.

    The irradiance argument of the device protocol is interpreted as the
    irradiance on the *unshaded* modules; each module's actual irradiance is
    scaled by its entry in ``shading_factors``.

    Args:
        shading_factors: One multiplicative factor in (0, 1] per module;
            1.0 = unshaded.
        module_params: Module type (defaults to the BP3180N).
    """

    def __init__(
        self,
        shading_factors: tuple[float, ...],
        module_params: ModuleParameters | None = None,
    ) -> None:
        if not shading_factors:
            raise ValueError("need at least one module")
        if any(not 0.0 < f <= 1.0 for f in shading_factors):
            raise ValueError(
                f"shading factors must be in (0, 1], got {shading_factors}"
            )
        self.shading_factors = tuple(shading_factors)
        params = module_params or bp3180n()
        # One module object per position: each keeps the diode terms of its
        # own irradiance, so the probes of a string solve reuse them.
        self.modules = tuple(PVModule(params) for _ in self.shading_factors)
        self.module = self.modules[0]

    @property
    def n_modules(self) -> int:
        """Modules in the string."""
        return len(self.shading_factors)

    def cell_temperature_from_ambient(
        self, irradiance: float, ambient_c: float
    ) -> float:
        """NOCT conversion using the unshaded irradiance (conservative)."""
        return self.module.cell_temperature_from_ambient(irradiance, ambient_c)

    # ------------------------------------------------------------------
    # String characteristics
    # ------------------------------------------------------------------
    def string_voltage(
        self, current: float, irradiance: float, cell_temp_c: float
    ) -> float:
        """String voltage [V] at a string current.

        Each module contributes its own V(I); a module that cannot carry
        the current is bypassed at a fixed diode drop.
        """
        if current < 0:
            raise ValueError(f"current must be >= 0, got {current}")
        total = 0.0
        for module, factor in zip(self.modules, self.shading_factors):
            local_g = irradiance * factor
            try:
                v_module = module.voltage(current, local_g, cell_temp_c)
            except ValueError:  # current exceeds this module's capability
                v_module = -_BYPASS_DROP_V
            total += max(v_module, -_BYPASS_DROP_V)
        return total

    def max_string_current(self, irradiance: float, cell_temp_c: float) -> float:
        """Short-circuit current of the *brightest* module [A]."""
        brightest = max(self.shading_factors)
        module = self.modules[self.shading_factors.index(brightest)]
        return module.short_circuit_current(irradiance * brightest, cell_temp_c)

    def open_circuit_voltage(self, irradiance: float, cell_temp_c: float) -> float:
        """String Voc [V]: the sum of module Vocs at their local irradiance."""
        if irradiance <= 0.0:
            return 0.0
        return sum(
            module.open_circuit_voltage(irradiance * f, cell_temp_c)
            for module, f in zip(self.modules, self.shading_factors)
        )

    def current(self, voltage: float, irradiance: float, cell_temp_c: float) -> float:
        """String current [A] at a terminal voltage (inverts V(I)).

        ``V(I)`` is non-increasing, so the inversion brackets on
        ``[0, Isc_max]``.
        """
        if irradiance <= 0.0:
            return 0.0
        i_max = self.max_string_current(irradiance, cell_temp_c)
        v_at_zero = self.string_voltage(0.0, irradiance, cell_temp_c)
        if voltage >= v_at_zero:
            return 0.0
        v_at_max = self.string_voltage(i_max, irradiance, cell_temp_c)
        if voltage <= v_at_max:
            return i_max

        def mismatch(i: float) -> float:
            return self.string_voltage(i, irradiance, cell_temp_c) - voltage

        # Same solver contract as repro.power.operating_point: the root
        # work is booked on the shared brentq counters, and bracketing
        # failures surface as OperatingPointError with full coordinates
        # instead of the root-finder's bare ValueError.
        try:
            root, iterations = brentq(mismatch, 0.0, i_max, xtol=1e-9)
        except ValueError as exc:
            from repro.power.operating_point import OperatingPointError

            raise OperatingPointError(
                f"shaded-string current solve failed on (0, Isc={i_max!r} A): "
                f"{exc} (V={voltage!r} V, G={irradiance!r} W/m^2, "
                f"T={cell_temp_c!r} C, shading={self.shading_factors!r})"
            ) from exc
        tel = telemetry_hub.current()
        if tel.enabled:
            tel.count("power.brentq_calls")
            tel.count("power.brentq_iterations", iterations)
        return root

    def power(self, voltage: float, irradiance: float, cell_temp_c: float) -> float:
        """String power [W] at a terminal voltage."""
        return voltage * self.current(voltage, irradiance, cell_temp_c)


def find_global_mpp(
    device: ShadedSeriesString,
    irradiance: float,
    cell_temp_c: float,
    n_samples: int = 120,
) -> MaxPowerPoint:
    """Global MPP of a (possibly multi-peaked) shaded string.

    Samples the P-V surface densely, then refines around the best sample by
    bounded maximization — the "global sweep" real inverters periodically
    run to escape local peaks.
    """
    if irradiance <= 0.0:
        return MaxPowerPoint(0.0, 0.0, 0.0, irradiance, cell_temp_c)
    voc = device.open_circuit_voltage(irradiance, cell_temp_c)
    voltages = np.linspace(1e-3, voc * 0.999, n_samples)
    powers = np.array(
        [device.power(float(v), irradiance, cell_temp_c) for v in voltages]
    )
    best = int(np.argmax(powers))
    lo = voltages[max(0, best - 1)]
    hi = voltages[min(n_samples - 1, best + 1)]
    v_mpp = minimize_bounded(
        lambda v: -device.power(v, irradiance, cell_temp_c),
        float(lo),
        float(hi),
        xatol=1e-5,
    )
    i_mpp = device.current(v_mpp, irradiance, cell_temp_c)
    return MaxPowerPoint(
        voltage=v_mpp,
        current=i_mpp,
        power=v_mpp * i_mpp,
        irradiance=irradiance,
        temperature_c=cell_temp_c,
    )

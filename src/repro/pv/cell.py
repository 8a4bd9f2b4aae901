"""Single-diode PV cell model with series resistance (paper Section 2.1).

The electrical behaviour is the implicit characteristic

    I = Iph - I0 * (exp(q*(V + I*Rs) / (n*k*T)) - 1)

with the photocurrent ``Iph`` proportional to irradiance and weakly increasing
with temperature, and the diode saturation current ``I0`` strongly increasing
with temperature.  This module solves the characteristic *exactly* using the
Lambert-W function, so ``current(V)`` and ``voltage(I)`` are closed-form.
"""

from __future__ import annotations

import math

import numpy as np

from repro.pv.params import (
    BOLTZMANN,
    ELEMENTARY_CHARGE,
    STC_IRRADIANCE,
    STC_TEMPERATURE_C,
    CellParameters,
    celsius_to_kelvin,
)
from repro.telemetry import hub as telemetry_hub

__all__ = ["DiodeTerms", "PVCell", "lambertw_of_exp"]


def lambertw_of_exp(log_argument: float) -> float:
    """Compute ``W(exp(y))`` for real ``y`` without ever forming ``exp(y)``.

    Solves ``w + ln(w) = y`` by Newton iteration (the equation is monotone
    for ``w > 0``, so convergence is global from a positive start).  Working
    in log space keeps the evaluation overflow-free for arbitrarily large
    ``y`` — the diode equation produces ``y`` well beyond 700 at high bias.
    This pure-Python solver is also ~10x faster than calling out to SciPy's
    complex-valued ``lambertw``, which matters: it sits on the hot path of
    every operating-point solve.
    """
    y = log_argument
    exp = math.exp
    # Substitute u = ln(w): solve g(u) = exp(u) + u - y = 0.  g is convex and
    # strictly increasing, so Newton converges globally (after the first step
    # it approaches the root monotonically from above).
    if y > 2.0:
        u = math.log(y - math.log(y))  # from W(e^y) ~ y - ln y
    elif y < -2.0:
        u = y  # W(x) ~ x for small x, so ln W ~ y
    else:
        u = -0.5671432904097838 + 0.5 * y  # smooth bridge through ln W(1)
    for _ in range(64):
        ew = exp(u)
        step = (ew + u - y) / (ew + 1.0)
        u -= step
        # abs(step) <= 1e-15 * max(abs(u), 1.0), with the builtins inlined:
        # a NaN fails both comparisons, and -0.0 compares as 0.0.
        size = u if u >= 0.0 else -u
        if (step if step >= 0.0 else -step) <= 1e-15 * (1.0 if 1.0 > size else size):
            break
    return exp(u)


class DiodeTerms:
    """The single-diode terms of one cell at one (G, T).

    Everything in the characteristic except the one Lambert-W (or log)
    that depends on the operating point: ``Vt``, ``Iph``, ``I0`` and, with
    series resistance, ``ln(I0*Rs/Vt)``, ``(Iph+I0)*Rs`` and ``Vt/Rs``.
    :meth:`current` and :meth:`voltage` evaluate the characteristic's
    expressions in their original order, so they return the same bits as
    computing every term on every call.  Kept apart from the NumPy terms
    of :mod:`repro.power.surface`, whose ``exp`` and ``log`` need not
    match libm's.  Instances are never mutated after construction.

    Construction takes ``ln(I0*Rs/Vt)``, so below about -258 C, where
    ``I0`` underflows to zero, it raises ``ValueError`` for every call at
    that (G, T).
    """

    __slots__ = (
        "irradiance", "temperature_c", "vt", "iph", "i0", "source", "rs",
        "vt_over_rs", "log_base", "rs_term",
    )

    def __init__(self, cell: PVCell, irradiance: float, temperature_c: float) -> None:
        p = cell.params
        self.irradiance = irradiance
        self.temperature_c = temperature_c
        self.vt = vt = p.thermal_voltage(temperature_c)
        self.iph = iph = cell.photocurrent(irradiance, temperature_c)
        self.i0 = i0 = cell.saturation_current(temperature_c)
        self.source = iph + i0
        self.rs = rs = p.series_resistance
        if rs != 0.0:
            # I = Iph + I0 - (Vt/Rs) * W((I0*Rs/Vt) * exp((V + (Iph+I0)*Rs)/Vt))
            self.vt_over_rs = vt / rs
            self.log_base = math.log(i0 * rs / vt)
            self.rs_term = (iph + i0) * rs

    def current(self, voltage: float) -> float:
        """Output current [A] at the given terminal voltage."""
        if self.rs == 0.0:
            return self.iph - self.i0 * math.expm1(voltage / self.vt)
        return self.source - self.vt_over_rs * lambertw_of_exp(
            self.log_base + (voltage + self.rs_term) / self.vt
        )

    def voltage(self, current: float) -> float:
        """Terminal voltage [V] at the given output current."""
        headroom = self.source - current
        if headroom <= 0.0:
            raise ValueError(
                f"current {current} A exceeds the cell's source capability "
                f"({self.source:.6g} A); no forward operating point exists"
            )
        return self.vt * math.log(headroom / self.i0) - current * self.rs


class PVCell:
    """A photovoltaic cell following the single-diode + Rs equivalent circuit.

    All voltages/currents are terminal quantities of one cell.  Irradiance is
    in W/m^2 and temperatures are *cell* temperatures in Celsius.

    The cell keeps the :class:`DiodeTerms` of the last (G, T) it saw and
    reuses them while (G, T) is unchanged, so a root-find that probes one
    curve a dozen times computes its terms once.  The terms sit in one
    attribute that a call reads once into a local and replaces with one
    store: threads sharing the cell at different (G, T) can cost each other
    a rebuild, never an answer.  Only ``float`` inputs are reused (a
    ``numpy.float32`` equal to a float computes in its own precision), and
    a NaN input never matches, so it rebuilds on every call.
    """

    def __init__(self, params: CellParameters) -> None:
        self.params = params
        # Saturation current calibrated so that I(Voc) = 0 at STC.
        vt_ref = params.thermal_voltage(STC_TEMPERATURE_C)
        self._i0_ref = params.isc_ref / math.expm1(params.voc_ref / vt_ref)
        self._terms = DiodeTerms(self, math.nan, math.nan)  # matches no (G, T)

    # ------------------------------------------------------------------
    # Environment-dependent source terms
    # ------------------------------------------------------------------
    def photocurrent(self, irradiance: float, temperature_c: float) -> float:
        """Light-generated current ``Iph`` [A] (zero in darkness)."""
        if irradiance <= 0.0:
            return 0.0
        p = self.params
        thermal_term = p.isc_ref + p.isc_temp_coeff * (temperature_c - STC_TEMPERATURE_C)
        return (irradiance / STC_IRRADIANCE) * max(thermal_term, 0.0)

    def saturation_current(self, temperature_c: float) -> float:
        """Diode reverse saturation current ``I0(T)`` [A].

        Uses the standard ``T^3 * exp(-q*Eg/(n*k*T))`` law, normalized to the
        STC-calibrated reference value.
        """
        p = self.params
        t = celsius_to_kelvin(temperature_c)
        t_ref = celsius_to_kelvin(STC_TEMPERATURE_C)
        exponent = (
            ELEMENTARY_CHARGE
            * p.bandgap_ev
            / (p.ideality * BOLTZMANN)
            * (1.0 / t_ref - 1.0 / t)
        )
        return self._i0_ref * (t / t_ref) ** 3 * math.exp(exponent)

    def _terms_at(self, irradiance: float, temperature_c: float) -> DiodeTerms:
        terms = self._terms
        if (
            irradiance != terms.irradiance
            or temperature_c != terms.temperature_c
            or type(irradiance) is not float
            or type(temperature_c) is not float
        ):
            terms = self._build_terms(irradiance, temperature_c)
        return terms

    def _build_terms(self, irradiance: float, temperature_c: float) -> DiodeTerms:
        terms = DiodeTerms(self, irradiance, temperature_c)
        tel = telemetry_hub.current()
        if tel.enabled:
            tel.count("pv.term_builds")
        if type(irradiance) is float and type(temperature_c) is float:
            self._terms = terms
        return terms

    # ------------------------------------------------------------------
    # Terminal characteristics
    # ------------------------------------------------------------------
    def current(
        self, voltage: float, irradiance: float, temperature_c: float
    ) -> float:
        """Output current [A] at the given terminal voltage.

        Exact Lambert-W solution of the implicit single-diode equation.  The
        returned current may be negative beyond open circuit (the diode
        conducts); physical operation clamps to the first quadrant.
        """
        # _terms_at inlined: this is every root-finder's innermost call.
        terms = self._terms
        if (
            irradiance != terms.irradiance
            or temperature_c != terms.temperature_c
            or type(irradiance) is not float
            or type(temperature_c) is not float
        ):
            terms = self._build_terms(irradiance, temperature_c)
        return terms.current(voltage)

    def voltage(self, current: float, irradiance: float, temperature_c: float) -> float:
        """Terminal voltage [V] at the given output current (exact inverse)."""
        return self._terms_at(irradiance, temperature_c).voltage(current)

    def currents(
        self,
        voltages: np.ndarray,
        irradiance: float,
        temperature_c: float,
    ) -> np.ndarray:
        """Vectorized :meth:`current` over an array of terminal voltages."""
        return np.array(
            [self.current(float(v), irradiance, temperature_c) for v in voltages]
        )

    # ------------------------------------------------------------------
    # Landmark points
    # ------------------------------------------------------------------
    def short_circuit_current(self, irradiance: float, temperature_c: float) -> float:
        """``Isc`` [A]: output current with the terminals shorted."""
        return self.current(0.0, irradiance, temperature_c)

    def open_circuit_voltage(self, irradiance: float, temperature_c: float) -> float:
        """``Voc`` [V]: terminal voltage at zero output current."""
        if irradiance <= 0.0:
            return 0.0
        return self._terms_at(irradiance, temperature_c).voltage(0.0)

    def power(self, voltage: float, irradiance: float, temperature_c: float) -> float:
        """Output power [W] at the given terminal voltage."""
        return voltage * self.current(voltage, irradiance, temperature_c)

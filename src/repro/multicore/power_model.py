"""Core-level power estimation (the Wattch/CACTI substitute).

The paper extends Wattch and CACTI to take (V, f) as inputs.  At the
granularity the SolarCore controller observes (I/V sensors at 10-minute
tracking periods), per-core power is captured by the standard
activity-based model:

    P_dynamic = EPI_ref * (V / Vmax)^2 * IPC * f        [switching energy]
    P_leakage = P_leak_ref * (V / Vmax)^2               [subthreshold/gate]

``EPI_ref`` is the benchmark's energy-per-instruction measured at the top
operating point — exactly how the paper classifies workloads (Table 5).
Since f scales ~linearly with V, total core power is ~cubic in V, matching
the paper's ``P = c * V^3`` assumption (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.multicore.dvfs import DVFSTable

__all__ = ["CorePowerModel"]

#: Default per-core leakage at the top voltage [W].
DEFAULT_LEAKAGE_W = 1.0


@dataclass(frozen=True)
class CorePowerModel:
    """Maps (DVFS level, activity) to core power.

    Attributes:
        table: The DVFS operating-point table.
        leakage_ref_w: Leakage power at the top voltage [W].
    """

    table: DVFSTable
    leakage_ref_w: float = DEFAULT_LEAKAGE_W

    def __post_init__(self) -> None:
        # Per-level constants, hoisted once: the controller evaluates these
        # formulas tens of thousands of times per simulated day, and the
        # table indexing + voltage-ratio arithmetic dominated the profile.
        # Each cached value is the same product in the same order as the
        # inline expression it replaces, so results are bit-identical.
        vmax = self.table.max_voltage
        scale = tuple(
            (self.table.voltage(level) / vmax) ** 2
            for level in range(len(self.table))
        )
        object.__setattr__(self, "_v_scale", scale)
        object.__setattr__(
            self,
            "_freq",
            tuple(self.table.frequency(level) for level in range(len(self.table))),
        )
        object.__setattr__(
            self, "_leak", tuple(self.leakage_ref_w * s for s in scale)
        )

    def _check(self, level: int) -> int:
        if not 0 <= level < len(self._freq):
            raise IndexError(
                f"DVFS level {level} out of range [0, {len(self._freq) - 1}]"
            )
        return level

    def dynamic_power(self, level: int, epi_nj: float, ipc: float) -> float:
        """Dynamic power [W] of a core running at ``level``.

        Args:
            level: DVFS level index.
            epi_nj: Energy per instruction at the top operating point [nJ].
            ipc: Instructions per cycle at the current program phase.
        """
        # nJ/inst * inst/cycle * Gcycles/s = W
        return epi_nj * self._v_scale[self._check(level)] * ipc * self._freq[level]

    def leakage_power(self, level: int) -> float:
        """Leakage power [W] at a DVFS level (zero only if power-gated)."""
        return self._leak[self._check(level)]

    def total_power(self, level: int, epi_nj: float, ipc: float) -> float:
        """Total (dynamic + leakage) core power [W]."""
        if not 0 <= level < len(self._freq):
            raise IndexError(
                f"DVFS level {level} out of range [0, {len(self._freq) - 1}]"
            )
        return (
            epi_nj * self._v_scale[level] * ipc * self._freq[level]
            + self._leak[level]
        )

    def coefficients(
        self, level: int, epi_nj: float
    ) -> tuple[float, float, float]:
        """``(a, freq, leak)`` at ``level`` for a benchmark of ``epi_nj``.

        At IPC ``x`` the core draws ``(a * x) * freq + leak`` and retires
        ``x * freq``: the floats of :meth:`total_power` and
        :meth:`throughput_gips`, for array programs over many ``x``.
        """
        self._check(level)
        return epi_nj * self._v_scale[level], self._freq[level], self._leak[level]

    def throughput_gips(self, level: int, ipc: float) -> float:
        """Core throughput [giga-instructions/s] at a level and phase IPC.

        Voltage scaling leaves IPC unchanged (paper assumption 3); throughput
        is proportional to frequency.
        """
        return ipc * self._freq[self._check(level)]

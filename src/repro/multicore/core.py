"""A single core: DVFS state + workload phase behaviour + power model.

Each core runs one program (trace-driven phase IPC), sits at one DVFS level,
and can be power-gated (PCPG).  The core exposes both its *actual*
power/throughput at a time instant and *predictions* for neighbouring DVFS
levels — the observables the SolarCore controller derives from performance
counters and I/V sensors when computing throughput-power ratios.
"""

from __future__ import annotations

import numpy as np

from repro.multicore.dvfs import DVFSTable
from repro.multicore.power_model import CorePowerModel
from repro.workloads.benchmarks import Benchmark
from repro.workloads.phases import cached_phase_trace

__all__ = ["Core"]


class Core:
    """One core of the multi-core chip.

    Args:
        core_id: Index of this core on the chip.
        bench: The program this core runs.
        power_model: This core type's power model (shared across cores of
            the same type on the same chip).
        seed: Seed for the program's phase trace.
        initial_level: Starting DVFS level (defaults to the top level).
        epi_scale: Multiplier on the benchmark's energy per instruction —
            the core type's POWER base folded with any tech-node
            dynamic-energy scaling.
        ipc_scale: Multiplier on the benchmark's phase IPC — the core
            type's PERF base (microarchitectural width).
        type_name: Core-type name from the owning :class:`ChipSpec`.
    """

    def __init__(
        self,
        core_id: int,
        bench: Benchmark,
        power_model: CorePowerModel,
        seed: int | None = None,
        initial_level: int | None = None,
        epi_scale: float = 1.0,
        ipc_scale: float = 1.0,
        type_name: str = "alpha",
    ) -> None:
        self.core_id = core_id
        self.bench = bench
        self.power_model = power_model
        self.type_name = type_name
        self.phase_trace = cached_phase_trace(bench, seed=seed)
        table = power_model.table
        self._level = table.max_level if initial_level is None else initial_level
        table[self._level]  # validate
        self._gated = False
        self._retired_ginst = 0.0
        self._transitions = 0
        self._transition_volts = 0.0
        # Monotone state version: bumped on every real level/gating change.
        # Memo layers (chip aggregates, TPR tables) key on it to reuse
        # bit-identical values while the state is frozen mid-track-event.
        self._version = 0
        self._tpr_memo: dict = {}
        self._min_level = table.min_level
        self._max_level = table.max_level
        self._epi_nj = bench.epi_nj * epi_scale
        self._ipc_scale = ipc_scale

    # ------------------------------------------------------------------
    # DVFS / gating state
    # ------------------------------------------------------------------
    @property
    def table(self) -> DVFSTable:
        """The chip's DVFS table."""
        return self.power_model.table

    @property
    def level(self) -> int:
        """Current DVFS level."""
        return self._level

    def set_level(self, level: int) -> None:
        """Move the core to a DVFS level (validates the index).

        Real transitions (level actually changes) are counted, along with
        the cumulative voltage swing — the inputs to VRM overhead
        accounting (:mod:`repro.multicore.vrm`).
        """
        self.table[level]  # raises IndexError when out of range
        if level != self._level:
            self._transitions += 1
            self._transition_volts += abs(
                self.table.voltage(level) - self.table.voltage(self._level)
            )
            self._version += 1
        self._level = level

    @property
    def transitions(self) -> int:
        """Number of real DVFS transitions performed so far."""
        return self._transitions

    @property
    def transition_volts(self) -> float:
        """Cumulative voltage swing across all transitions [V]."""
        return self._transition_volts

    @property
    def gated(self) -> bool:
        """Whether the core is power-gated (PCPG)."""
        return self._gated

    def gate(self) -> None:
        """Power-gate the core: zero power, zero throughput."""
        if not self._gated:
            self._version += 1
        self._gated = True

    def ungate(self) -> None:
        """Restore the core from the gated state (at its stored level)."""
        if self._gated:
            self._version += 1
        self._gated = False

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    def ipc_at(self, minute: float) -> float:
        """Effective IPC at an absolute time [minutes].

        The benchmark's phase IPC scaled by the core type's PERF base —
        what the performance counters on *this* core would report.
        """
        return self._ipc_scale * self.phase_trace.ipc_at(minute)

    def ipc_array(self, minutes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`ipc_at`: the effective IPC at each minute."""
        return self._ipc_scale * self.phase_trace.ipc_array(minutes)

    def coefficients(self, level: int | None = None) -> tuple[float, float, float]:
        """``(a, freq, leak)``: at effective IPC ``x`` the core draws
        ``(a * x) * freq + leak`` and retires ``x * freq``.

        ``level`` defaults to the core's own state, where a gated core
        reads all zeros (it draws and retires nothing).  The floats are
        those of :meth:`power_at_level` and :meth:`throughput_at_level`.
        """
        if level is None:
            if self._gated:
                return 0.0, 0.0, 0.0
            level = self._level
        return self.power_model.coefficients(level, self._epi_nj)

    def power_at(self, minute: float) -> float:
        """Core power [W] at a time instant (zero when gated)."""
        if self._gated:
            return 0.0
        return self.power_model.total_power(
            self._level, self._epi_nj,
            self._ipc_scale * self.phase_trace.ipc_at(minute),
        )

    def throughput_at(self, minute: float) -> float:
        """Core throughput [GIPS] at a time instant (zero when gated)."""
        if self._gated:
            return 0.0
        return self.power_model.throughput_gips(
            self._level, self._ipc_scale * self.phase_trace.ipc_at(minute)
        )

    def power_at_level(self, level: int, minute: float) -> float:
        """Predicted core power [W] if the core ran at ``level`` now."""
        return self.power_model.total_power(
            level, self._epi_nj,
            self._ipc_scale * self.phase_trace.ipc_at(minute),
        )

    def throughput_at_level(self, level: int, minute: float) -> float:
        """Predicted throughput [GIPS] if the core ran at ``level`` now."""
        return self.power_model.throughput_gips(
            level, self._ipc_scale * self.phase_trace.ipc_at(minute)
        )

    # ------------------------------------------------------------------
    # Progress accounting
    # ------------------------------------------------------------------
    def advance(self, minute: float, dt_minutes: float) -> float:
        """Retire instructions over ``[minute, minute + dt)``.

        Returns the giga-instructions retired in the interval and adds them
        to the core's running total.
        """
        if dt_minutes < 0:
            raise ValueError(f"dt_minutes must be non-negative, got {dt_minutes}")
        retired = self.throughput_at(minute) * dt_minutes * 60.0
        self._retired_ginst += retired
        return retired

    @property
    def retired_ginst(self) -> float:
        """Total giga-instructions retired so far.

        The batched day path (:mod:`repro.core.fastday`) sets it once per
        day: the total before the day plus every step's :meth:`advance`
        term, added in step order.
        """
        return self._retired_ginst

    @retired_ginst.setter
    def retired_ginst(self, ginst: float) -> None:
        if ginst < 0:
            raise ValueError(f"ginst must be non-negative, got {ginst}")
        self._retired_ginst = ginst

"""The 8-core chip: aggregate power/throughput and the electrical load view.

The chip is the DC load of the direct-coupled PV system.  Its electrical
characteristic at the converter output is modeled as the effective resistance
``R = Vrail^2 / P(w)`` where ``w`` is the vector of per-core DVFS states —
raising frequencies lowers the impedance and draws more current, exactly the
load-line behaviour of the paper's Figure 5.
"""

from __future__ import annotations

import zlib

from repro.fold import left_sum
from repro.multicore.core import Core
from repro.multicore.dvfs import DVFSTable, default_dvfs_table
from repro.multicore.power_model import CorePowerModel
from repro.multicore.spec import ChipSpec, power_model_for, resolve_chip_spec
from repro.workloads.mixes import WorkloadMix

__all__ = ["MultiCoreChip", "NOMINAL_RAIL_V"]

#: Nominal PSU rail voltage feeding the processor VRMs [V] (paper Section 4.1).
NOMINAL_RAIL_V = 12.0


class MultiCoreChip:
    """An N-core chip running a multi-programmed workload mix.

    Args:
        workload: Benchmark-per-core assignment (Table 5 mix).  When the
            spec has more cores than the mix has programs, benchmarks
            wrap round-robin; with fewer cores the leading programs run.
        table: Legacy homogeneous override — a DVFS table shared by all
            cores.  Mutually exclusive with ``spec``; when given, the
            chip is one core per workload program, all the same type
            (the pre-ChipSpec constructor contract).
        leakage_ref_w: Legacy homogeneous override — per-core leakage at
            the top voltage [W].  Only meaningful with ``table``.
        uncore_power_w: Constant chip power [W] outside the cores' DVFS
            domains — L2 caches, clock distribution, I/O, and uncore
            leakage.  Drawn whenever the chip is powered; substantial at
            the paper's 90 nm node, and the reason low-power-budget
            operation is less efficient per instruction than full speed.
            ``None`` takes the spec's value.
        seed: Base seed for the per-core phase traces.
        spec: The chip description (a :class:`ChipSpec`, a spec string,
            or ``None`` for the default ``alpha8`` — the paper chip).
    """

    def __init__(
        self,
        workload: WorkloadMix,
        table: DVFSTable | None = None,
        leakage_ref_w: float | None = None,
        uncore_power_w: float | None = None,
        seed: int | None = None,
        spec: ChipSpec | str | None = None,
    ) -> None:
        legacy = table is not None or leakage_ref_w is not None
        if legacy and spec is not None:
            raise ValueError(
                "pass either a chip spec or a legacy table/leakage override, "
                "not both"
            )
        self.workload = workload
        if seed is None:
            seed = zlib.crc32(f"chip:{workload.name}".encode())
        if legacy:
            # Pre-ChipSpec contract: one shared table, one core per program.
            self.spec = None
            resolved_uncore = 45.0 if uncore_power_w is None else uncore_power_w
            shared_model = CorePowerModel(
                table=table if table is not None else default_dvfs_table(),
                leakage_ref_w=1.0 if leakage_ref_w is None else leakage_ref_w,
            )
            core_plan = [
                (bench, shared_model, 1.0, 1.0, "alpha")
                for bench in workload.benchmarks
            ]
        else:
            self.spec = resolve_chip_spec(spec)
            resolved_uncore = (
                self.spec.uncore_power_w if uncore_power_w is None
                else uncore_power_w
            )
            scaling = self.spec.scaling()
            benches = workload.benchmarks
            core_plan = [
                (
                    benches[i % len(benches)],
                    power_model_for(ct, scaling),
                    ct.epi_scale * scaling.dynamic_power,
                    ct.ipc_scale,
                    ct.name,
                )
                for i, ct in enumerate(self.spec.expand())
            ]
        if resolved_uncore < 0:
            raise ValueError(
                f"uncore_power_w must be >= 0, got {resolved_uncore}"
            )
        self.uncore_power_w = resolved_uncore
        self.cores = [
            Core(
                i, bench, model, seed=seed + i,
                epi_scale=epi_scale, ipc_scale=ipc_scale, type_name=type_name,
            )
            for i, (bench, model, epi_scale, ipc_scale, type_name)
            in enumerate(core_plan)
        ]
        self.power_model = self.cores[0].power_model
        self._homogeneous = all(
            core.power_model is self.power_model for core in self.cores
        )
        # One-entry memos for the aggregate observables, keyed on
        # (minute, state version): the controller queries them repeatedly
        # at the same frozen minute between core moves.
        self._power_memo: tuple = (None, -1, 0.0)
        self._throughput_memo: tuple = (None, -1, 0.0)

    @property
    def n_cores(self) -> int:
        """Number of cores."""
        return len(self.cores)

    @property
    def homogeneous(self) -> bool:
        """True when every core shares one power model (and DVFS table)."""
        return self._homogeneous

    @property
    def table(self) -> DVFSTable:
        """The shared DVFS table — only defined for homogeneous chips.

        Heterogeneous callers must use ``core.table`` per core (or the
        :meth:`set_all_min` / :meth:`set_all_max` helpers).
        """
        if not self._homogeneous:
            raise ValueError(
                "heterogeneous chip has no single shared DVFS table; "
                "use per-core tables"
            )
        return self.power_model.table

    @property
    def levels(self) -> tuple[int, ...]:
        """Current per-core DVFS levels."""
        return tuple(core.level for core in self.cores)

    def set_levels(self, levels: tuple[int, ...] | list[int]) -> None:
        """Set every core's DVFS level at once."""
        if len(levels) != self.n_cores:
            raise ValueError(
                f"expected {self.n_cores} levels, got {len(levels)}"
            )
        for core, level in zip(self.cores, levels):
            core.set_level(level)

    def set_all_levels(self, level: int) -> None:
        """Set every core to the same DVFS level."""
        for core in self.cores:
            core.set_level(level)

    def set_all_min(self) -> None:
        """Drop every core to its own table's bottom level.

        The heterogeneity-safe spelling of
        ``set_all_levels(table.min_level)`` — per-core tables may have
        different depths.
        """
        for core in self.cores:
            core.set_level(core.table.min_level)

    def set_all_max(self) -> None:
        """Raise every core to its own table's top level."""
        for core in self.cores:
            core.set_level(core.table.max_level)

    # ------------------------------------------------------------------
    # Aggregate observables
    # ------------------------------------------------------------------
    def _state_version(self) -> int:
        """Monotone chip-state token: strictly increases on any core's
        level/gating change, so ``(minute, version)`` keys stay valid."""
        version = 0
        for core in self.cores:
            version += core._version
        return version

    def total_power_at(self, minute: float) -> float:
        """Chip power [W] at a time instant (cores + uncore)."""
        version = self._state_version()
        memo = self._power_memo
        if memo[0] == minute and memo[1] == version:
            return memo[2]
        cores = 0.0
        for core in self.cores:
            cores += core.power_at(minute)
        value = self.uncore_power_w + cores
        self._power_memo = (minute, version, value)
        return value

    def total_throughput_at(self, minute: float) -> float:
        """Chip throughput [GIPS] at a time instant."""
        version = self._state_version()
        memo = self._throughput_memo
        if memo[0] == minute and memo[1] == version:
            return memo[2]
        value = 0.0
        for core in self.cores:
            value += core.throughput_at(minute)
        self._throughput_memo = (minute, version, value)
        return value

    def min_power_at(self, minute: float) -> float:
        """Chip power [W] with every active core at the lowest level.

        This is the floor the load can reach without power gating — the
        reference for the direct-coupled system's power-transfer threshold.
        """
        return self.uncore_power_w + left_sum(
            core.power_at_level(core.table.min_level, minute)
            for core in self.cores
            if not core.gated
        )

    def floor_power_at(self, minute: float, with_gating: bool = True) -> float:
        """The minimum sustainable chip power [W].

        With per-core power gating (PCPG) the floor is a single core — the
        cheapest one — at the bottom DVFS level; without gating it is every
        core at the bottom level (:meth:`min_power_at`).
        """
        if not with_gating:
            return self.min_power_at(minute)
        return self.uncore_power_w + min(
            core.power_at_level(core.table.min_level, minute) for core in self.cores
        )

    def active_cores(self) -> list[Core]:
        """The cores that are not power-gated."""
        return [core for core in self.cores if not core.gated]

    def ungate_all(self) -> None:
        """Bring every core back online (levels are preserved)."""
        for core in self.cores:
            core.ungate()

    def max_power_at(self, minute: float) -> float:
        """Chip power [W] with every active core at the highest level."""
        return self.uncore_power_w + left_sum(
            core.power_at_level(core.table.max_level, minute)
            for core in self.cores
            if not core.gated
        )

    # ------------------------------------------------------------------
    # Electrical load view
    # ------------------------------------------------------------------
    def effective_resistance(self, minute: float, rail_v: float = NOMINAL_RAIL_V) -> float:
        """DC resistance [ohm] the chip presents at the converter output.

        ``R = Vrail^2 / P``; returns ``inf`` if the chip draws no power
        (all cores gated).
        """
        if rail_v <= 0:
            raise ValueError(f"rail_v must be positive, got {rail_v}")
        power = self.total_power_at(minute)
        if power <= 0.0:
            return float("inf")
        return rail_v * rail_v / power

    # ------------------------------------------------------------------
    # Progress accounting
    # ------------------------------------------------------------------
    def advance(self, minute: float, dt_minutes: float) -> float:
        """Retire instructions on every core over ``[minute, minute + dt)``.

        Returns total giga-instructions retired in the interval.
        """
        retired = 0.0
        for core in self.cores:
            retired += core.advance(minute, dt_minutes)
        return retired

    @property
    def retired_ginst(self) -> float:
        """Total giga-instructions retired by all cores so far."""
        return left_sum(core.retired_ginst for core in self.cores)

    @property
    def total_transitions(self) -> int:
        """DVFS transitions performed across all cores."""
        return sum(core.transitions for core in self.cores)

    @property
    def total_transition_volts(self) -> float:
        """Cumulative DVFS voltage swing across all cores [V]."""
        return left_sum(core.transition_volts for core in self.cores)

"""Whole-server load coordination (the paper's Section 8 future work).

``FullSystemLoad`` bundles the multi-core chip with the tunable platform
components (memory, disk, NIC) behind the same electrical and tuning
interface the controller already speaks, so SolarCore's MPP tracking drives
the *entire server* rather than the processor alone.

Cross-component allocation generalizes the throughput-power ratio: each
candidate move (a core's DVFS step, a memory state, a disk speed, a link
rate) is scored by marginal *system utility* per watt, where a component's
utility is its normalized service level scaled by an importance weight.
The chip's utility is its normalized throughput.
"""

from __future__ import annotations

from repro.core.load_tuning import LoadTuner
from repro.core.tpr import downgrade_tpr, upgrade_tpr
from repro.fold import left_sum
from repro.fullsystem.component import TunableComponent
from repro.multicore.chip import NOMINAL_RAIL_V, MultiCoreChip

__all__ = ["FullSystemLoad", "SystemTuner", "DEFAULT_WEIGHTS"]

#: Relative importance of each subsystem's service in system utility.
DEFAULT_WEIGHTS = {"chip": 1.0, "memory": 0.35, "disk": 0.2, "nic": 0.1}


class FullSystemLoad:
    """A server: chip + platform components as one electrical load.

    Args:
        chip: The multi-core processor.
        components: Tunable platform components.
        weights: Importance weight per subsystem name (``"chip"`` plus each
            component's ``name``); missing names default to 0.
    """

    def __init__(
        self,
        chip: MultiCoreChip,
        components: list[TunableComponent],
        weights: dict[str, float] | None = None,
    ) -> None:
        names = [c.name for c in components]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate component names: {names}")
        self.chip = chip
        self.components = list(components)
        self.weights = dict(DEFAULT_WEIGHTS if weights is None else weights)

    # ------------------------------------------------------------------
    # Electrical view (chip-compatible interface for the controller)
    # ------------------------------------------------------------------
    def total_power_at(self, minute: float) -> float:
        """Server power [W]: chip plus every platform component."""
        return self.chip.total_power_at(minute) + left_sum(
            c.power for c in self.components
        )

    def floor_power_at(self, minute: float, with_gating: bool = True) -> float:
        """Minimum sustainable server power [W]: chip floor plus every
        component at its bottom level."""
        return self.chip.floor_power_at(minute, with_gating) + left_sum(
            c.power_at_level(0) for c in self.components
        )

    def effective_resistance(
        self, minute: float, rail_v: float = NOMINAL_RAIL_V
    ) -> float:
        """DC resistance [ohm] the server presents at the converter output."""
        power = self.total_power_at(minute)
        if power <= 0.0:
            return float("inf")
        return rail_v * rail_v / power

    # ------------------------------------------------------------------
    # System utility
    # ------------------------------------------------------------------
    def _chip_weight(self, minute: float) -> float:
        """Chip utility per GIPS: weight normalized by peak throughput."""
        peak = left_sum(
            core.throughput_at_level(core.table.max_level, minute)
            for core in self.chip.cores
        )
        if peak <= 0.0:
            return 0.0
        return self.weights.get("chip", 0.0) / peak

    def utility_at(self, minute: float) -> float:
        """Weighted normalized service across the whole server in [0, ~1]."""
        utility = self._chip_weight(minute) * self.chip.total_throughput_at(minute)
        for component in self.components:
            top = component.service_at_level(component.n_levels - 1)
            if top > 0.0:
                utility += (
                    self.weights.get(component.name, 0.0) * component.service / top
                )
        return utility

    # ------------------------------------------------------------------
    # Cross-component candidate scoring
    # ------------------------------------------------------------------
    def best_upgrade(self, minute: float):
        """(mover, utility-per-watt) of the best single upgrade, or None."""
        best = None
        best_score = float("-inf")
        chip_scale = self._chip_weight(minute)
        for core in self.chip.cores:
            tpr = upgrade_tpr(core, minute)
            if tpr is not None and tpr * chip_scale > best_score:
                best, best_score = core, tpr * chip_scale
        for component in self.components:
            ratio = component.upgrade_ratio()
            top = component.service_at_level(component.n_levels - 1)
            if ratio is None or top <= 0.0:
                continue
            score = self.weights.get(component.name, 0.0) * ratio / top
            if score > best_score:
                best, best_score = component, score
        return best

    def best_downgrade(self, minute: float):
        """(mover) shedding the least utility per watt, or None."""
        best = None
        best_score = float("inf")
        chip_scale = self._chip_weight(minute)
        for core in self.chip.cores:
            tpr = downgrade_tpr(core, minute)
            if tpr is not None and tpr * chip_scale < best_score:
                best, best_score = core, tpr * chip_scale
        for component in self.components:
            ratio = component.downgrade_ratio()
            top = component.service_at_level(component.n_levels - 1)
            if ratio is None or top <= 0.0:
                continue
            score = self.weights.get(component.name, 0.0) * ratio / top
            if score < best_score:
                best, best_score = component, score
        return best


class SystemTuner(LoadTuner):
    """Load tuner driving a :class:`FullSystemLoad` by marginal utility.

    Passed to :class:`~repro.core.controller.SolarCoreController` in place
    of a per-chip tuner; the ``chip`` argument of ``increase``/``decrease``
    is the :class:`FullSystemLoad`.
    """

    name = "System&Opt"

    def increase(self, system: FullSystemLoad, minute: float) -> bool:
        mover = system.best_upgrade(minute)
        if mover is None:
            return False
        # Cores and components share the set_level/level contract.
        mover.set_level(mover.level + 1)
        return True

    def decrease(self, system: FullSystemLoad, minute: float) -> bool:
        mover = system.best_downgrade(minute)
        if mover is None:
            return False
        mover.set_level(mover.level - 1)
        return True

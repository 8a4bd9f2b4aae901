"""Power-delivery path: the automatic transfer switch between panel and grid.

Paper Figure 8: the processor is fed from the solar panel through the DC/DC
matching network; when solar supply drops below the power-transfer threshold
an automatic transfer switch (ATS) falls back to grid utility (through an
AC/DC stage), and an uninterruptible supply bridges the switchover.  Only the
processor rail is solar-powered; the rest of the system always runs from the
utility.  The day engine books each step's energy per source in
:class:`repro.core.engine.EnergyLedger`.
"""

from __future__ import annotations

import logging
from enum import Enum

__all__ = ["PowerSource", "AutomaticTransferSwitch"]

log = logging.getLogger(__name__)


class PowerSource(Enum):
    """Which supply currently feeds the processor rail."""

    SOLAR = "solar"
    UTILITY = "utility"


class AutomaticTransferSwitch:
    """Selects between the solar panel and the grid with hysteresis.

    The switch engages the panel when its available (MPP) power exceeds the
    load's minimum sustainable draw by ``margin_fraction``; it releases back
    to the utility when available power falls below that minimum.  The small
    hysteresis band prevents chattering on cloud edges.

    Args:
        margin_fraction: Extra headroom (fraction of the minimum load power)
            required before switching *to* solar.
    """

    def __init__(self, margin_fraction: float = 0.05) -> None:
        if margin_fraction < 0:
            raise ValueError(f"margin_fraction must be >= 0, got {margin_fraction}")
        self.margin_fraction = margin_fraction
        self._source = PowerSource.UTILITY
        self._switch_count = 0

    @property
    def source(self) -> PowerSource:
        """Currently selected supply."""
        return self._source

    @property
    def switch_count(self) -> int:
        """Number of transfers performed so far."""
        return self._switch_count

    def update(self, available_solar_w: float, min_load_w: float) -> PowerSource:
        """Re-evaluate the selection given current supply and load floors.

        Args:
            available_solar_w: Panel maximum (MPP) power right now [W].
            min_load_w: The load's minimum sustainable power draw [W].

        Returns:
            The (possibly changed) active source.
        """
        engage_at = min_load_w * (1.0 + self.margin_fraction)
        if self._source is PowerSource.UTILITY and available_solar_w >= engage_at:
            self._source = PowerSource.SOLAR
            self._switch_count += 1
            log.debug(
                "ATS -> solar (available %.1f W >= engage %.1f W)",
                available_solar_w, engage_at,
            )
        elif self._source is PowerSource.SOLAR and available_solar_w < min_load_w:
            self._source = PowerSource.UTILITY
            self._switch_count += 1
            log.debug(
                "ATS -> utility (available %.1f W < floor %.1f W)",
                available_solar_w, min_load_w,
            )
        return self._source

"""One timer table: where did the wall-time of a run go?

Every timed quantity of a hub lands here, one :class:`Timer` per name:

* **regions** — ``with telemetry.span("controller.track"):`` blocks.
  Regions nest per thread, so a region's *self* time is its duration
  minus the time spent in regions opened inside it.
* **phases** — durations a hot path measured with its own clock reads
  and booked with :meth:`TimerTable.add`, usually through a
  :meth:`TimerTable.laps` stopwatch (the engine's ``--profile`` phases).
  A phase is a leaf: it never reduces the self time of the region around
  it.

Names follow one rule.  ``step.*`` and ``day.*`` phases form an
**exclusive partition** of a day's wall-time: they never overlap, so
their share of the measured day wall is the profile's *coverage* (the
acceptance bar is >= 95%).  Every other timer is **nested** — inside the
partition (``controller.track``, ``power.operating_point``) or around
whole days (``run_day``) — and is never added to coverage.

A region opened with ``day=(label, cell)`` on a profiling hub is a
simulated day: when it closes it records a :class:`DayProfile` — its own
duration as the day wall, plus what every timer booked on its thread
while it was open.

Snapshots are plain data and merge exactly across worker processes:
counts, totals and self times add, maxima take the maximum, and the
fixed duration buckets add (so merged percentiles equal single-process
ones).  A ``jobs=N`` sweep therefore reports one coherent table covering
every worker's days.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.telemetry.metrics import DEFAULT_DURATION_BUCKETS_S, Histogram

__all__ = [
    "PARTITION_PREFIXES",
    "DayProfile",
    "Region",
    "Timer",
    "TimerTable",
    "is_partition",
]

#: Timer-name prefixes that partition a day's wall-time exclusively.
PARTITION_PREFIXES = ("step.", "day.")


def is_partition(name: str) -> bool:
    """Whether ``name`` is one of the exclusive ``step.*``/``day.*`` phases."""
    return name.startswith(PARTITION_PREFIXES)


class Timer(Histogram):
    """One timed name: a fixed-bucket duration histogram plus self time.

    ``count``, ``total`` [s], ``max`` [s], the bucket counts and the
    percentile estimates come from :class:`Histogram`; ``self_s`` sums
    each occurrence's duration minus its child regions.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name, DEFAULT_DURATION_BUCKETS_S)
        self.self_s = 0.0

    def snapshot(self) -> dict:
        data = super().snapshot()
        data["self_s"] = self.self_s
        return data

    def merge(self, data: dict) -> None:
        super().merge(data)
        self.self_s += data["self_s"]


@dataclass
class DayProfile:
    """One simulated day's breakdown, recorded by the day's own region.

    Attributes:
        name: Timer name of the day region (``run_day``, ...).
        label: Human-readable day identity (``run_day mix=HM2``).
        cell: The (location, month) sweep cell, or None outside a sweep.
        wall_s: The day region's duration [s].
        phases: Per-timer ``{name: (count, total_s)}`` booked on the
            day's thread while the day was open.
    """

    name: str
    label: str
    cell: tuple | None
    wall_s: float
    phases: dict[str, tuple[int, float]] = field(default_factory=dict)

    @property
    def attributed_s(self) -> float:
        """Summed wall-time of the partition (``step.*``/``day.*``) phases."""
        return sum(t for name, (_, t) in self.phases.items() if is_partition(name))

    @property
    def coverage(self) -> float:
        """Fraction of the day wall the partition phases account for."""
        return self.attributed_s / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "label": self.label,
            "cell": list(self.cell) if self.cell is not None else None,
            "wall_s": self.wall_s,
            "phases": {name: list(entry) for name, entry in self.phases.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> DayProfile:
        cell = data.get("cell")
        return cls(
            name=data["name"],
            label=data["label"],
            cell=tuple(cell) if cell is not None else None,
            wall_s=data["wall_s"],
            phases={
                name: (int(entry[0]), float(entry[1]))
                for name, entry in data.get("phases", {}).items()
            },
        )


class _ThreadState:
    """One thread's open regions and open day (phase accumulator)."""

    __slots__ = ("stack", "day")

    def __init__(self) -> None:
        self.stack: list[Region] = []
        self.day: dict[str, list] | None = None


class Region:
    """A ``with`` block timed under one name; see :meth:`TimerTable.region`."""

    __slots__ = ("table", "name", "day", "child_s", "_start", "_phases")

    def __init__(self, table: TimerTable, name: str, day: tuple | None) -> None:
        self.table = table
        self.name = name
        self.day = day
        self.child_s = 0.0
        self._start = 0.0
        self._phases: dict[str, list] | None = None

    def __enter__(self) -> Region:
        table = self.table
        state = table._thread()
        state.stack.append(self)
        # Days never nest in practice (one engine runs one day); a nested
        # day region records nothing of its own rather than corrupting
        # the outer day's accounting.
        if self.day is not None and state.day is None:
            state.day = self._phases = {}
        self._start = table.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        table = self.table
        duration = table.clock() - self._start
        state = table._thread()
        stack = state.stack
        popped = stack.pop()
        if popped is not self:  # defensive: exits must nest properly
            raise RuntimeError(
                f"span stack corrupted: exiting {self.name!r} "
                f"but innermost is {popped.name!r}"
            )
        if stack:
            stack[-1].child_s += duration
        phases = self._phases
        if phases is not None:
            state.day = None
            label, cell = self.day
            day = DayProfile(
                self.name, label, cell, duration,
                {name: (entry[0], entry[1]) for name, entry in phases.items()},
            )
            with table._lock:
                table._append_day(day)
        table._book(state, self.name, duration, max(0.0, duration - self.child_s))


class TimerTable(dict):
    """Every :class:`Timer` of one hub by name, plus the day profiles.

    Nesting is per thread (the service runs day simulations on several
    compute threads against one shared hub); the timers and day list are
    shared, guarded by a lock.

    Args:
        clock: Monotonic time source [s] (injectable for tests).
        max_days: Day profiles kept; later days still feed the timers,
            and :attr:`truncated_days` counts the profiles dropped.
    """

    def __init__(self, clock=time.perf_counter, max_days: int = 1024) -> None:
        super().__init__()
        self.clock = clock
        self.max_days = max_days
        self.days: list[DayProfile] = []
        self.truncated_days = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _thread(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
        return state

    # -- recording -------------------------------------------------------
    def region(self, name: str, day: tuple | None = None) -> Region:
        """A new (not yet entered) region timed under ``name``.

        Args:
            day: ``(label, cell)`` makes the region a simulated day that
                records a :class:`DayProfile` when it closes.
        """
        return Region(self, name, day)

    def add(self, name: str, seconds: float) -> None:
        """Book a phase of ``seconds`` the caller timed itself."""
        self._book(self._thread(), name, seconds, seconds)

    def laps(self):
        """A stopwatch started now: ``lap(phase)`` books the time since the
        previous lap (or since this call) as one occurrence of ``phase``.

        Consecutive laps cover the time between them without gaps or
        overlap, which is what the ``step.*``/``day.*`` partition needs.
        """
        clock, add = self.clock, self.add
        mark = clock()

        def lap(phase: str) -> None:
            nonlocal mark
            now = clock()
            add(phase, now - mark)
            mark = now

        return lap

    def _book(self, state: _ThreadState, name: str, seconds: float, self_s: float) -> None:
        with self._lock:
            timer = self.get(name)
            if timer is None:
                timer = self[name] = Timer(name)
            timer.observe(seconds)
            timer.self_s += self_s
        day = state.day
        if day is not None:
            entry = day.get(name)
            if entry is None:
                day[name] = [1, seconds]
            else:
                entry[0] += 1
                entry[1] += seconds

    def _append_day(self, day: DayProfile) -> None:
        if len(self.days) < self.max_days:
            self.days.append(day)
        else:
            self.truncated_days += 1

    @property
    def depth(self) -> int:
        """Regions open on the calling thread."""
        return len(self._thread().stack)

    @property
    def current(self) -> Region | None:
        """The calling thread's innermost open region, if any."""
        stack = self._thread().stack
        return stack[-1] if stack else None

    # -- day rollups -----------------------------------------------------
    def by_cell(self) -> dict[tuple | None, list[DayProfile]]:
        """Recorded day profiles grouped by sweep cell (None = no cell)."""
        groups: dict[tuple | None, list[DayProfile]] = {}
        for day in self.days:
            groups.setdefault(day.cell, []).append(day)
        return groups

    @property
    def total_wall_s(self) -> float:
        """Summed wall-clock of every recorded day [s]."""
        return sum(day.wall_s for day in self.days)

    @property
    def coverage(self) -> float:
        """Partition-phase share of the summed day wall (0 with no days)."""
        wall = self.total_wall_s
        if wall <= 0:
            return 0.0
        return sum(day.attributed_s for day in self.days) / wall

    # -- cross-process plumbing ------------------------------------------
    def snapshot(self) -> dict:
        """Timers (by total, descending) and day profiles as plain data."""
        with self._lock:
            ordered = sorted(self.values(), key=lambda t: t.total, reverse=True)
            return {
                "timers": {timer.name: timer.snapshot() for timer in ordered},
                "days": [day.to_dict() for day in self.days],
                "truncated_days": self.truncated_days,
            }

    def merge(self, data: dict) -> None:
        """Fold another table's :meth:`snapshot` (or a hub snapshot) in."""
        with self._lock:
            for name, stats in data.get("timers", {}).items():
                timer = self.get(name)
                if timer is None:
                    timer = self[name] = Timer(name)
                timer.merge(stats)
            for day in data.get("days", ()):
                self._append_day(DayProfile.from_dict(day))
            self.truncated_days += int(data.get("truncated_days", 0))

    def reset(self) -> None:
        """Drop every timer and day profile; open regions are unaffected."""
        with self._lock:
            self.clear()
            self.days.clear()
            self.truncated_days = 0

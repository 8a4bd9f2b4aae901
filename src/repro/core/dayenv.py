"""The day-environment stage: each (station, month) cell's environment, solved once.

In the paper the panel's maximum power point depends only on irradiance
and cell temperature (Section 2.2), and every evaluation day replays one
seeded weather trace per station and month (Section 5).  So every day of
a cell -- each mix, policy, budget and de-rating swept over it -- steps
through the same environment.  A :class:`DayEnvironment` holds it: the
trace, the per-step cell temperature, and the per-step MPP.  In exact
mode the MPP comes from :func:`~repro.pv.mpp.find_mpp`.  In table mode
it comes from one vectorized lookup of the interpolation surface, and
the MPP points are built from the same powers and voltages.  On either
solver the ``pmpp`` array holds the points' powers: fastday's spans read
it, and the per-minute loop and fastday's event steps read the points.
Both paths therefore see one MPP series.

:func:`prepare_day` is the one prologue behind every ``*_day_engine``
factory and the only place a day's environment is resolved.  It names
the environment; :meth:`DayEnvironment.solve` builds it when the day
runs, so a profiled cold day books the build as its ``day.environment``
phase.  Solved environments live in a bounded, locked process memo keyed
by everything their values depend on: the station's trace inputs, the
month, the seed (``None`` resolved to the station-month default), the
step, the solver, and the device's electrical composition.  Each value
comes from the same pure function on the same inputs as when every day
solved its own, so a day on a shared environment is byte-identical to
one on a fresh environment.

Solved per day, as before, and never shared:

* an explicit ``trace=``;
* a device :func:`~repro.pv.vector.device_scaling` rejects (shaded
  strings, fault wrappers, subclasses);
* a fault day whose schedule touches irradiance (``trace_gap``,
  ``soiling``) or the array (``pv_string``).  Its environment holds only
  the trace, and the engine solves each step after
  :meth:`~repro.faults.scheduler.FaultScheduler.begin_step`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.config import SolarCoreConfig
from repro.core.engine import DayEngine
from repro.environment.irradiance import default_seed, generate_trace
from repro.environment.locations import Location
from repro.environment.trace import EnvironmentTrace
from repro.faults import FaultKit, build_fault_kit
from repro.pv.array import PVArray
from repro.pv.module import PVModule
from repro.pv.mpp import MaxPowerPoint, find_mpp
from repro.telemetry import hub as telemetry_hub

__all__ = [
    "MEMO_MAX",
    "DayEnvironment",
    "DayPrologue",
    "clear_environments",
    "day_environment",
    "prepare_day",
]

#: Solved environments kept per process.  The standard grid has 16 cells
#: and ``figures_exact`` 8; a campaign over weather seeds evicts the
#: oldest first.
MEMO_MAX = 64

_MEMO: OrderedDict[tuple, DayEnvironment] = OrderedDict()

#: Guards :data:`_MEMO`: threads asking for one cell get one environment.
_MEMO_LOCK = threading.Lock()


def _readonly(values: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` samples as a read-only float64 view."""
    view = np.asarray(values, dtype=np.float64)[:n]
    view.flags.writeable = False
    return view


class _SurfacePoints:
    """A table environment's MPP points, each built on first read.

    A point repeats its step of the environment's vectorized MPP power
    and voltage, so every reader of the environment sees one series.
    Fastday reads only its event steps, a few dozen a day; the per-minute
    loop reads every step.  A point is a pure function of its step, so
    two threads filling one slot store equal values.
    """

    __slots__ = ("_power", "_voltage", "_irradiance", "_cell_temp", "_points")

    def __init__(
        self, power: list, voltage: list, irradiance: list, cell_temp: list
    ) -> None:
        self._power = power
        self._voltage = voltage
        self._irradiance = irradiance
        self._cell_temp = cell_temp
        self._points = [None] * len(irradiance)

    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(self, index: int):
        point = self._points[index]
        if point is None:
            irradiance = self._irradiance[index]
            cell_temp = self._cell_temp[index]
            if irradiance > 0.0:
                power = self._power[index]
                voltage = self._voltage[index]
                point = MaxPowerPoint(
                    voltage, power / voltage, power, irradiance, cell_temp
                )
            else:
                point = MaxPowerPoint(0.0, 0.0, 0.0, irradiance, cell_temp)
            self._points[index] = point
        return point


class DayEnvironment:
    """The environment one day steps through, solved once.

    Named by :func:`day_environment` and built by the first
    :meth:`solve`; after that every attribute below is set and every
    array is read-only.

    Attributes:
        trace: The day's environment trace.
        steps: Simulated steps (one fewer than the trace's samples).
        minutes: Step start times [minutes since midnight].
        irradiance: Per-step irradiance [W/m^2].
        ambient_c: Per-step ambient temperature [C].
        cell_temp: Per-step cell temperature [C] (None when the day
            solves each step itself).
        mpp: Per-step :class:`~repro.pv.mpp.MaxPowerPoint` sequence:
            exact, or in table mode built on first read from the
            surface's vectorized lookup (None likewise).
        pmpp: Per-step MPP power [W], the powers of ``mpp`` (None
            likewise).
    """

    def __init__(
        self,
        location: Location,
        month: int,
        seed: int,
        step_minutes: float,
        device,
        solver: str,
        trace: EnvironmentTrace | None = None,
        solve_mpp: bool = True,
    ) -> None:
        self.location = location
        self.month = month
        self.seed = seed
        self.step_minutes = step_minutes
        self.device = device
        self.solver = solver
        self.trace = trace
        self.solve_mpp = solve_mpp
        self.solved = False
        self._lock = threading.Lock()

    def solve(self) -> DayEnvironment:
        """Build the environment on first use; return it, solved."""
        if not self.solved:
            with self._lock:
                if not self.solved:
                    self._build()
                    self.solved = True
        return self

    def _build(self) -> None:
        trace = self.trace
        if trace is None:
            trace = generate_trace(
                self.location, self.month, seed=self.seed,
                step_minutes=self.step_minutes,
            )
            for values in (trace.minutes, trace.irradiance, trace.ambient_c):
                values.flags.writeable = False
            self.trace = trace
        n = len(trace.minutes) - 1
        self.steps = n
        self.minutes = _readonly(trace.minutes, n)
        self.irradiance = _readonly(trace.irradiance, n)
        self.ambient_c = _readonly(trace.ambient_c, n)
        self.cell_temp = self.mpp = self.pmpp = None
        if self.solve_mpp:
            self._solve_mpp()
        tel = telemetry_hub.current()
        if tel.enabled:
            tel.count("environment.builds")

    def _solve_mpp(self) -> None:
        device = self.device
        irradiance = self.irradiance.tolist()
        surfaces = None
        if self.solver == "table":
            from repro.power.surface import get_surfaces

            surfaces = get_surfaces(device)
        if surfaces is None:
            cell_temp = [
                device.cell_temperature_from_ambient(g, t)
                for g, t in zip(irradiance, self.ambient_c.tolist())
            ]
            self.mpp = tuple(
                find_mpp(device, g, t) for g, t in zip(irradiance, cell_temp)
            )
            pmpp = np.array([point.power for point in self.mpp])
        else:
            # The NOCT model over the whole day: the scalar model's floats.
            cell_temp = surfaces.vectorized.cell_temperature_from_ambient(
                self.irradiance, self.ambient_c
            )
            pmpp, vmpp = surfaces.mpp_arrays(self.irradiance, cell_temp)
            self.mpp = _SurfacePoints(
                pmpp.tolist(), vmpp.tolist(), irradiance, cell_temp.tolist()
            )
        self.pmpp = _readonly(pmpp, self.steps)
        self.cell_temp = _readonly(cell_temp, self.steps)


def _device_key(device) -> tuple | None:
    """The device's electrical composition, or None if it is not shared.

    Only the exact library classes :func:`~repro.pv.vector.device_scaling`
    accepts are shared; wrappers and subclasses may behave differently.
    ``describe()`` is not enough: a 3-module series :class:`PVArray` and a
    216-cell :class:`PVModule` describe alike, yet their exact MPPs differ.
    """
    if type(device) is PVArray:
        return (
            "PVArray", device.modules_series, device.modules_parallel,
            device.module.params,
        )
    if type(device) is PVModule:
        return ("PVModule", device.params)
    return None


def day_environment(
    location: Location,
    month: int,
    device,
    *,
    seed: int | None = None,
    step_minutes: float = 1.0,
    solver: str = "exact",
    trace: EnvironmentTrace | None = None,
    solve_mpp: bool = True,
) -> DayEnvironment:
    """The (unsolved until run) environment of one day at ``location``.

    Shared through the process memo unless ``trace`` is given, the device
    cannot be shared, or ``solve_mpp`` is off (the day solves each step).
    """
    if seed is None:
        seed = default_seed(location, month)
    args = (location, month, seed, step_minutes, device, solver)
    device_key = _device_key(device)
    if trace is not None or device_key is None or not solve_mpp:
        return DayEnvironment(*args, trace=trace, solve_mpp=solve_mpp)
    key = (
        location.code, location.latitude_deg,
        tuple(sorted(location.regimes.items())),
        tuple(sorted(location.temps_c.items())),
        month, seed, step_minutes, solver, device_key,
    )
    with _MEMO_LOCK:
        environment = _MEMO.get(key)
        if environment is None:
            environment = _MEMO[key] = DayEnvironment(*args)
            if len(_MEMO) > MEMO_MAX:
                _MEMO.popitem(last=False)
        else:
            _MEMO.move_to_end(key)
    return environment


def clear_environments() -> None:
    """Empty the process memo (the next day of every cell solves cold)."""
    with _MEMO_LOCK:
        _MEMO.clear()


@dataclass(frozen=True)
class DayPrologue:
    """What every day-engine factory resolves before it builds a policy.

    Attributes:
        config: Simulation parameters.
        array: The PV device, wrapped when the fault schedule touches it.
        environment: The day's (shared or own) environment.
        kit: The fault kit, or None for a fault-free day.
    """

    config: SolarCoreConfig
    array: object
    environment: DayEnvironment
    kit: FaultKit | None

    def engine(self, policy, recorder, span_name: str, span_attrs: dict) -> DayEngine:
        """The :class:`DayEngine` running ``policy`` in this environment."""
        return DayEngine(
            array=self.array,
            environment=self.environment,
            config=self.config,
            policy=policy,
            recorder=recorder,
            span_name=span_name,
            span_attrs=span_attrs,
            faults=self.kit.scheduler if self.kit is not None else None,
        )


def prepare_day(
    location: Location,
    month: int,
    config: SolarCoreConfig | None = None,
    array=None,
    trace: EnvironmentTrace | None = None,
    seed: int | None = None,
    faults=None,
) -> DayPrologue:
    """The shared prologue of the ``*_day_engine`` factories.

    Defaults the config and the array (one BP3180N module), wraps the
    array for the fault schedule, and names the day's environment.
    """
    cfg = config or SolarCoreConfig()
    array = array or PVArray()
    kit = build_fault_kit(faults)
    if kit is not None:
        # Wrap before the policy is built so engine MPP solves, controller
        # operating-point solves, and sensor reads all see the faulted view.
        array = kit.wrap_array(array)
    environment = day_environment(
        location, month, array,
        seed=seed, step_minutes=cfg.step_minutes, solver=cfg.solver,
        trace=trace, solve_mpp=kit is None or not kit.solves_each_step,
    )
    return DayPrologue(cfg, array, environment, kit)

"""The unified day-simulation engine.

Every Section-6/8 figure in the paper is driven by the same minute-stepped
day co-simulation — panel -> converter -> chip(s) -> controller.  This
module owns that loop *once*: :class:`DayEngine` steps the day's
environment (the trace with its per-step cell temperature and MPP, solved
once per cell by :mod:`repro.core.dayenv`), runs the
automatic-transfer-switch (ATS) bookkeeping, books energy into a
conservation ledger, and emits the shared telemetry (supply-switch events,
the end-of-day counters, and the span wrapping the run).

What differs between scenarios — how the load reacts to the available
supply — is expressed as a :class:`SupplyPolicy` strategy:

* :class:`~repro.core.policies.MPPTPolicy` — the SolarCore controller
  (IC / RR / Opt load tuning) of :func:`repro.core.simulation.run_day`.
* :class:`~repro.core.policies.FixedBudgetPolicy` — the Fixed-Power
  baseline of :func:`repro.core.simulation.run_day_fixed`.
* :class:`~repro.core.policies.BatteryPolicy` — the battery-equipped
  baseline of :func:`repro.core.simulation.run_day_battery`.
* :class:`~repro.fullsystem.simulation.FullSystemPolicy` — the whole-server
  scenario of :func:`repro.fullsystem.simulation.run_day_fullsystem`.
* :class:`~repro.rack.simulation.RackPolicy` — N per-node allocators under
  one coordinator, :func:`repro.rack.simulation.run_day_rack`.

What is *remembered* about each step is expressed as a
:class:`SeriesRecorder`: the base recorder accumulates the series every
result shares (minutes, MPP power, consumed power, throughput, on-solar
flags, utility energy, solar-retired instructions); result-specific
recorders extend it and build the public result dataclasses.

Adding a new supply policy is therefore a ~100-line plugin — subclass
:class:`SupplyPolicy`, pick or extend a recorder, and wire a thin public
``run_day_*`` shim — instead of a forked copy of the stepping loop.  See
DESIGN.md section 9 for a walkthrough.

The per-minute loop is the reference.  The MPPT, fixed-budget and
battery days of a fault-free run take the batched path of
:mod:`repro.core.fastday` instead, on either solver: it runs the real
policy code at the event steps and evaluates the minutes between them as
array programs, with the loop's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.config import SolarCoreConfig
from repro.power.psu import AutomaticTransferSwitch, PowerSource
from repro.pv.array import PVArray
from repro.pv.mpp import find_mpp
from repro.telemetry import hub as telemetry_hub
from repro.telemetry.events import EnergyBalanceEvent, SupplySwitchEvent

if TYPE_CHECKING:
    from repro.core.dayenv import DayEnvironment

__all__ = [
    "StepContext",
    "StepSample",
    "EnergyLedger",
    "SupplyPolicy",
    "SeriesRecorder",
    "DayEngine",
]


@dataclass(frozen=True)
class StepContext:
    """Everything the engine knows about the current minute step.

    Attributes:
        index: Step index into the environment trace.
        minute: Sample time [minutes since midnight].
        irradiance: Plane-of-array irradiance [W/m^2].
        ambient_c: Ambient temperature [C].
        cell_temp: PV cell temperature [C] (NOCT model).
        mpp: Panel maximum-power operating point at this step.
        dt: Step length [minutes].
    """

    index: int
    minute: float
    irradiance: float
    ambient_c: float
    cell_temp: float
    mpp: object
    dt: float


@dataclass
class StepSample:
    """What a policy reports back about one executed step.

    Attributes:
        consumed_w: Power drawn from the panel this step [W] (zero while
            the load runs from the utility).
        throughput_gips: Load throughput after the step [GIPS].
        utility_w: Power drawn from the grid this step [W] (zero while
            solar-powered).
        retired_ginst: Instructions retired this step while solar-powered
            [Ginst].
        system_utility: Weighted service level (full-system scenario only).
    """

    consumed_w: float
    throughput_gips: float
    utility_w: float = 0.0
    retired_ginst: float = 0.0
    system_utility: float | None = None


@dataclass
class EnergyLedger:
    """Per-day energy conservation bookkeeping.

    The engine books every step into this ledger independently of the
    recorder's series, so the invariant *solar energy in + utility energy
    in == load energy out* can be checked against a second accumulation
    path (the result's numpy-summed series).

    Attributes:
        solar_wh: Energy delivered by the panel to the load [Wh].
        utility_wh: Energy delivered by the grid to the load [Wh].
        load_wh: Energy the load consumed [Wh].
    """

    solar_wh: float = 0.0
    utility_wh: float = 0.0
    load_wh: float = 0.0

    def book(self, solar: bool, sample: StepSample, dt: float) -> None:
        """Book one step's energy flows over ``dt`` minutes."""
        delivered_solar = sample.consumed_w if solar else 0.0
        self.solar_wh += delivered_solar * dt / 60.0
        self.utility_wh += sample.utility_w * dt / 60.0
        self.load_wh += (delivered_solar + sample.utility_w) * dt / 60.0

    @property
    def residual_wh(self) -> float:
        """Conservation residual: supply booked minus load booked [Wh]."""
        return (self.solar_wh + self.utility_wh) - self.load_wh


class SupplyPolicy:
    """Strategy protocol: how the load follows (or ignores) the supply.

    A policy owns the load model (chip / server / rack) and every control
    decision — tracking triggers, budget allocation, DVFS settings — while
    the :class:`DayEngine` owns the loop, the trace, the ATS, the ledger,
    and shared telemetry.  A policy that emits telemetry of its own reads
    the process-wide hub (``repro.telemetry.current()``).

    Subclasses implement the per-step hooks below.  ATS-governed policies
    (``uses_ats = True``) provide :meth:`floor_power`; self-governed ones
    (the Fixed-Power threshold rule, the battery's always-harvest rule)
    set ``uses_ats = False`` and provide :meth:`solar_eligible`.
    """

    #: Human-readable policy name recorded into results.
    name: str = "policy"

    #: Whether the engine's automatic transfer switch picks the source.
    uses_ats: bool = True

    def floor_power(self, ctx: StepContext) -> float:
        """Minimum sustainable load power [W] offered to the ATS."""
        raise NotImplementedError

    def solar_eligible(self, ctx: StepContext) -> bool:
        """Source rule for non-ATS policies: run from the panel now?"""
        raise NotImplementedError

    def enter_solar(self, ctx: StepContext) -> None:
        """Soft-start hook: the step transitions utility -> solar."""

    def solar_step(self, ctx: StepContext) -> StepSample:
        """Run one solar-powered step; return what to record."""
        raise NotImplementedError

    def utility_step(self, ctx: StepContext) -> StepSample:
        """Run one grid-powered step; return what to record."""
        raise NotImplementedError

    def final_telemetry(self, tel) -> None:
        """End-of-day counters (called only when telemetry is enabled)."""


class SeriesRecorder:
    """Accumulates the per-step series every day result shares.

    Subclasses add scenario-specific series and implement :meth:`build`,
    turning the accumulated state (plus the policy's own accounting) into
    the public result dataclass.
    """

    def __init__(self) -> None:
        self.minutes: list[float] = []
        self.mpp_w: list[float] = []
        self.consumed_w: list[float] = []
        self.throughput: list[float] = []
        self.on_solar: list[bool] = []
        self.retired_solar: float = 0.0
        self.utility_wh: float = 0.0

    def record(self, ctx: StepContext, solar: bool, sample: StepSample) -> None:
        self.minutes.append(ctx.minute)
        self.mpp_w.append(ctx.mpp.power)
        self.consumed_w.append(sample.consumed_w)
        self.throughput.append(sample.throughput_gips)
        self.on_solar.append(solar)
        self.retired_solar += sample.retired_ginst
        self.utility_wh += sample.utility_w * ctx.dt / 60.0

    def build(self, engine: "DayEngine"):
        """The scenario's result object for the finished day."""
        raise NotImplementedError


@dataclass
class DayEngine:
    """One minute-stepped day co-simulation, parameterized by policy.

    The single stepping loop behind ``run_day``, ``run_day_fixed``,
    ``run_day_battery``, ``run_day_fullsystem``, and ``run_day_rack``.

    Attributes:
        array: The PV array (panel or farm).
        environment: The day's environment (see :mod:`repro.core.dayenv`),
            solved when the day runs.
        config: Simulation parameters.
        policy: The supply policy driving the load.
        recorder: The accumulator building the day's result.
        span_name: Span wrapping the run (None disables the span).
        span_attrs: Attributes attached to the span.
        faults: Optional :class:`~repro.faults.scheduler.FaultScheduler`
            driving deterministic fault injection (None = fault-free fast
            path; the loop pays one ``is not None`` check per step).
    """

    array: PVArray
    environment: DayEnvironment
    config: SolarCoreConfig
    policy: SupplyPolicy
    recorder: SeriesRecorder
    span_name: str | None = None
    span_attrs: dict = field(default_factory=dict)
    faults: object | None = None

    def __post_init__(self) -> None:
        self.ats = (
            AutomaticTransferSwitch(self.config.ats_margin)
            if self.policy.uses_ats
            else None
        )
        if (
            self.ats is not None
            and self.faults is not None
            and self.faults.has("ats_stuck", "ats_latency")
        ):
            from repro.faults.injectors import FaultyATS

            self.ats = FaultyATS(self.ats, self.faults)
        self.ledger = EnergyLedger()
        # Table-solver mode: resolve the interpolation surfaces for the
        # engine's per-step MPP solves (fault days that need them).  A
        # policy's controller resolves its own.  get_surfaces returns None —
        # with one warning per device type — for devices the closed form
        # cannot represent (fault wrappers, shaded strings), in which case
        # the run silently stays on the exact solvers.
        self.surfaces = None
        if self.config.solver == "table":
            from repro.power.surface import get_surfaces

            self.surfaces = get_surfaces(self.array)
        from repro.core import fastday

        #: Why this day keeps the per-minute loop instead of the batched
        #: day path (None: it batches).
        self.fastday_decline = fastday.decline_reason(self)

    def run(self):
        """Step the whole day; return the recorder's built result.

        The day reports to the process-wide telemetry hub; which hub that
        is never changes the path the day takes or its result.
        """
        tel = telemetry_hub.current()
        if self.span_name is None:
            return self._run(tel)
        day = None
        if tel.profiling:
            # The day's own timer records its profile when it closes.
            attrs = self.span_attrs
            label = self.span_name
            if "mix" in attrs:
                label = f"{label} mix={attrs['mix']}"
            cell = (
                (str(attrs["location"]), attrs["month"])
                if "location" in attrs and "month" in attrs
                else None
            )
            day = (label, cell)
        with tel.span(self.span_name, day=day):
            return self._run(tel)

    def _run(self, tel):
        policy = self.policy
        recorder = self.recorder
        array = self.array
        surfaces = self.surfaces
        faults = self.faults
        dt = self.config.step_minutes
        on_solar_prev = False
        # Per-phase profiling: `profiling` is hoisted once, so the default
        # path pays one local-bool check per phase site; a profiling hub
        # laps each region into an exclusive `step.*`/`day.*` partition
        # phase (see repro.telemetry.timers).  A cold environment's build
        # is the day's `day.environment` phase.
        profiling = tel.profiling
        lap = tel.laps()
        env = self.environment.solve()
        lap("day.environment")
        # Batched day path, on either solver: when nothing requires
        # per-step hooks (no fault injection) and the policy is one it
        # knows, the minutes between events run as NumPy array programs,
        # byte-identical to this loop.  An enabled hub counts every day
        # that keeps the loop under ``fastday.declined.<reason>``.
        if self.fastday_decline is None:
            from repro.core import fastday

            if fastday.run_fast(self, tel):
                return self._finish(tel)
        elif tel.enabled:
            tel.count(f"fastday.declined.{self.fastday_decline}")

        minutes = env.minutes.tolist()
        irradiances = env.irradiance.tolist()
        ambients = env.ambient_c.tolist()
        # The environment carries every step's MPP, unless the day's faults
        # change the irradiance or the array: then the day solves each step
        # itself, once the fault clock has advanced.
        solves = env.mpp is None
        if not solves:
            cell_temps = env.cell_temp.tolist()
            mpps = env.mpp
        for index in range(env.steps):
            minute = minutes[index]
            irradiance = irradiances[index]
            ambient = ambients[index]
            if faults is not None:
                irradiance = faults.begin_step(minute, irradiance, tel)
            if not solves:
                cell_temp = cell_temps[index]
                mpp = mpps[index]
                if profiling:
                    lap("step.trace")
            else:
                cell_temp = array.cell_temperature_from_ambient(irradiance, ambient)
                if profiling:
                    lap("step.trace")
                mpp = (
                    surfaces.mpp(irradiance, cell_temp)
                    if surfaces is not None
                    else find_mpp(array, irradiance, cell_temp)
                )
                if profiling:
                    lap("step.mpp_solve")
            ctx = StepContext(
                index=index,
                minute=minute,
                irradiance=irradiance,
                ambient_c=ambient,
                cell_temp=cell_temp,
                mpp=mpp,
                dt=dt,
            )

            if self.ats is not None:
                floor_w = policy.floor_power(ctx)
                source = self.ats.update(mpp.power, floor_w)
                on_solar = source is PowerSource.SOLAR
                if on_solar is not on_solar_prev and tel.enabled:
                    tel.count("sim.supply_switches")
                    tel.emit(
                        SupplySwitchEvent(
                            minute=minute,
                            source=source.value,
                            available_solar_w=mpp.power,
                            load_floor_w=floor_w,
                        )
                    )
            else:
                on_solar = policy.solar_eligible(ctx)
            if profiling:
                lap("step.supply")

            if on_solar:
                if not on_solar_prev:
                    policy.enter_solar(ctx)
                sample = policy.solar_step(ctx)
            else:
                sample = policy.utility_step(ctx)
            if profiling:
                lap("step.policy")
            recorder.record(ctx, on_solar, sample)
            self.ledger.book(on_solar, sample, dt)
            if profiling:
                lap("step.record")
            on_solar_prev = on_solar

        return self._finish(tel)

    def _finish(self, tel):
        """End-of-day bookkeeping shared by the scalar and batched loops."""
        policy = self.policy
        recorder = self.recorder
        lap = tel.laps()
        if tel.enabled:
            tel.count("sim.days")
            tel.emit(
                EnergyBalanceEvent(
                    minute=float(self.environment.minutes[0]),
                    policy=policy.name,
                    solar_wh=self.ledger.solar_wh,
                    utility_wh=self.ledger.utility_wh,
                    load_wh=self.ledger.load_wh,
                    residual_wh=self.ledger.residual_wh,
                )
            )
            policy.final_telemetry(tel)
        result = recorder.build(self)
        lap("day.build")
        return result

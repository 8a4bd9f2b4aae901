"""Batched day evaluation: the minutes between events as array programs.

A SolarCore day is a minute-stepped co-simulation, but the chip's DVFS
and gating state moves only at *events*: supply switches, tracking events
and budget reallocations, about every 10 minutes (paper Sections 4.2 and
5).  Between events every per-step observable is a fixed function of the
per-core phase IPCs.  This module finds the event steps with the
policies' own trigger predicates (``MPPTPolicy.track_due``,
``FixedBudgetPolicy.alloc_due``), runs the *real* policy code at those
steps on the day's solver (so tracking, tuning, DVFS transition counting
and sensor behaviour are the per-minute loop's code), and keeps the chip
state each event leaves.  Then it evaluates every step's chip accounting
for the whole day at once, as NumPy programs over whole-day arrays: the
MPP power of the day's shared environment (:mod:`repro.core.dayenv`),
the per-core IPCs, and each span's chip state.

The arithmetic repeats the float operations of
:meth:`~repro.core.engine.DayEngine._run` in the same order, so a batched
day equals the per-minute loop byte for byte, exact or table:

* per core, power is ``((epi * v_scale) * ipc) * freq + leak`` and
  throughput ``ipc * freq`` (:meth:`Core.coefficients`); cores add left
  to right, starting from 0;
* a core retires ``(throughput * dt) * 60`` per step;
* every running sum (each core's retired total, the recorder's
  ``retired_solar`` and ``utility_wh``, the energy ledger and the battery
  harvest) adds its per-step terms left to right in step order, folded
  once per day (:func:`_fold`).

An event step is the first step of the span its new state covers, so the
same programs give its accounting too.  The event's own accounting (the
policy's sample and ``chip.advance``) is discarded: no event code reads a
running sum, and each sum is folded from its value before the day.

A day batches unless it needs per-step hooks.  :func:`decline_reason`
names why one keeps the per-minute loop: ``faults`` (a fault schedule)
or ``policy`` (:func:`supports` rejects the policy/recorder pair, as for
the full-system and rack policies).  The telemetry hub never picks the
path: every event the per-minute loop emits falls on an event step,
supply switches included.  A profiling hub gets the day's own
``day.*``/``step.*`` phases.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import SeriesRecorder, StepContext
from repro.power.psu import PowerSource
from repro.telemetry.events import SupplySwitchEvent

__all__ = ["decline_reason", "run_fast", "supports"]


def supports(engine) -> str | None:
    """Classify the engine for the batched path; ``None`` = unsupported.

    Policies are matched by exact type (a subclass may override hooks the
    batching assumes frozen), and the recorder must accumulate only the
    base series (``SeriesRecorder.record`` unoverridden), which the
    batched path fills itself.
    """
    from repro.core.policies import (
        BatteryPolicy,
        BatteryRecorder,
        FixedBudgetPolicy,
        MPPTPolicy,
    )

    policy = engine.policy
    base_record = type(engine.recorder).record is SeriesRecorder.record
    if type(policy) is MPPTPolicy and base_record:
        return "mppt"
    if type(policy) is FixedBudgetPolicy and base_record:
        return "fixed"
    if type(policy) is BatteryPolicy and type(engine.recorder) is BatteryRecorder:
        return "battery"
    return None


def decline_reason(engine) -> str | None:
    """Why a day keeps the per-minute loop, or None if it can batch.

    ``faults`` (a fault schedule needs per-step hooks) or ``policy``
    (:func:`supports` rejects the policy/recorder pair).
    """
    if engine.faults is not None:
        return "faults"
    if supports(engine) is None:
        return "policy"
    return None


def _fold(start, terms: np.ndarray):
    """``start`` plus each term along the last axis, left to right.

    ``np.add.accumulate`` adds in order with one rounding per term, as a
    running ``+=`` does; ``np.sum`` adds pairwise and would not.
    """
    start = np.asarray(start, dtype=np.float64)
    column = start[..., None]
    return np.add.accumulate(np.concatenate((column, terms), axis=-1), axis=-1)[..., -1]


def _cores_left_to_right(rows: np.ndarray) -> np.ndarray:
    """Per-step total over the cores (rows), added in core order from 0."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def _power(coefficients: np.ndarray, ipc: np.ndarray) -> np.ndarray:
    """Per-core power ``((a * ipc) * freq) + leak`` from ``(a, freq, leak)``
    arrays that broadcast against the per-core IPC rows."""
    a, freq, leak = coefficients
    return a * ipc * freq + leak


def _floor_array(chip, ipc: np.ndarray, with_gating: bool) -> np.ndarray:
    """``chip.floor_power_at`` for every step at once.

    With PCPG the floor is the cheapest core at its bottom level, a
    minimum over *all* cores whatever their gating.  Without PCPG no
    tuner ever gates a core (``make_tuner(allow_gating=False)``), so the
    floor is every core at its bottom level, added in core order.  Either
    way the array depends only on the phase IPCs, never on chip state.
    """
    bottom = np.array(
        [core.coefficients(core.table.min_level) for core in chip.cores]
    ).T[:, :, None]
    per_core = _power(bottom, ipc)
    folded = per_core.min(axis=0) if with_gating else _cores_left_to_right(per_core)
    return chip.uncore_power_w + folded


def _evaluate(engine, env, ipc, spans, retired_before, budget_w) -> None:
    """Every step's chip accounting, recorded and folded into the sums.

    ``spans`` is ``(starts, solar, states)``: span ``k`` runs from event
    step ``starts[k]`` to the next event, on the supply ``solar[k]`` and
    the chip state ``states[k]``.  Each core's retired total is folded
    from ``retired_before``, its value before the day.
    """
    starts, solar, states = spans
    if not starts:
        return
    chip = engine.policy.chip
    recorder = engine.recorder
    ledger = engine.ledger
    dt = engine.config.step_minutes
    lengths = np.diff(np.append(starts, env.steps))
    # (3, n_cores, n_steps): each step's (a, freq, leak) per core.
    coefficients = np.repeat(np.array(states), lengths, axis=0).transpose(2, 1, 0)
    on_solar = np.repeat(np.array(solar), lengths)

    power = chip.uncore_power_w + _cores_left_to_right(_power(coefficients, ipc))
    per_core_throughput = ipc * coefficients[1]
    throughput = _cores_left_to_right(per_core_throughput)
    per_core_retired = per_core_throughput * dt * 60.0
    cap = env.pmpp if budget_w is None else budget_w
    consumed = np.where(on_solar, np.minimum(power, cap), 0.0)
    utility_w = np.where(on_solar, 0.0, power)
    retired_solar = np.where(on_solar, _cores_left_to_right(per_core_retired), 0.0)
    utility_wh = utility_w * dt / 60.0

    recorder.minutes.extend(env.minutes.tolist())
    recorder.mpp_w.extend(env.pmpp.tolist())
    recorder.consumed_w.extend(consumed.tolist())
    recorder.throughput.extend(throughput.tolist())
    recorder.on_solar.extend(on_solar.tolist())
    recorder.retired_solar = float(_fold(recorder.retired_solar, retired_solar))
    recorder.utility_wh = float(_fold(recorder.utility_wh, utility_wh))
    ledger.solar_wh = float(_fold(ledger.solar_wh, consumed * dt / 60.0))
    ledger.utility_wh = float(_fold(ledger.utility_wh, utility_wh))
    ledger.load_wh = float(_fold(ledger.load_wh, (consumed + utility_w) * dt / 60.0))
    retired = _fold(retired_before, per_core_retired)
    for core, total in zip(chip.cores, retired.tolist()):
        core.retired_ginst = total


def _run_stepped(engine, tel, env, mode: str, lap) -> None:
    """The MPPT / fixed-budget day: event steps real, the rest batched."""
    policy = engine.policy
    chip = policy.chip
    cfg = engine.config
    dt = cfg.step_minutes
    ats = engine.ats
    predictor = getattr(policy, "predictor", None)
    budget_w = policy.budget_w if mode == "fixed" else None
    # The events' own chip.advance calls are recounted from these.
    retired_before = [core.retired_ginst for core in chip.cores]

    ipc = np.stack([core.ipc_array(env.minutes) for core in chip.cores])
    floor = _floor_array(chip, ipc, cfg.enable_pcpg)
    if mode == "fixed":
        eligible = ((env.pmpp >= budget_w) & (budget_w >= floor)).tolist()
    minutes = env.minutes.tolist()
    pmpps = env.pmpp.tolist()
    floors = floor.tolist()
    lap("day.chip_arrays")

    starts: list[int] = []
    solar: list[bool] = []
    states: list[list[tuple[float, float, float]]] = []
    on_solar_prev = False
    for index in range(env.steps):
        minute = minutes[index]
        pmpp = pmpps[index]
        if mode == "mppt":
            source = ats.update(pmpp, floors[index])
            on_solar = source is PowerSource.SOLAR
            event = (
                (not on_solar_prev) or policy.track_due(minute, pmpp)
                if on_solar
                else on_solar_prev or index == 0
            )
        else:
            on_solar = eligible[index]
            event = (
                policy.alloc_due(minute)
                if on_solar
                else on_solar_prev or index == 0
            )
        if event:
            lap("step.scan")
            ctx = StepContext(
                index=index,
                minute=minute,
                irradiance=float(env.irradiance[index]),
                ambient_c=float(env.ambient_c[index]),
                cell_temp=float(env.cell_temp[index]),
                mpp=env.mpp[index],
                dt=dt,
            )
            if mode == "mppt" and on_solar is not on_solar_prev and tel.enabled:
                # The engine's own event, where its per-minute loop emits it.
                tel.count("sim.supply_switches")
                tel.emit(
                    SupplySwitchEvent(
                        minute=minute,
                        source=source.value,
                        available_solar_w=ctx.mpp.power,
                        load_floor_w=floors[index],
                    )
                )
            if on_solar:
                if not on_solar_prev:
                    policy.enter_solar(ctx)
                policy.solar_step(ctx)
            else:
                policy.utility_step(ctx)
            starts.append(index)
            solar.append(on_solar)
            states.append([core.coefficients() for core in chip.cores])
            lap("step.events")
        elif on_solar and predictor is not None:
            predictor.observe(minute, pmpp)
        on_solar_prev = on_solar
    lap("step.scan")
    _evaluate(engine, env, ipc, (starts, solar, states), retired_before, budget_w)
    lap("step.spans")


def run_fast(engine, tel) -> bool:
    """Run the whole day batched; ``False`` = caller keeps the per-minute loop.

    On ``True`` the recorder, the energy ledger, and the policy/chip state
    hold the bytes the per-minute loop would have left, and ``tel`` has
    seen the same events and counters; the engine's shared end-of-day
    bookkeeping still runs in :meth:`DayEngine._finish`.
    """
    mode = supports(engine)
    if mode is None:
        return False
    lap = tel.laps()
    env = engine.environment
    if mode == "battery":
        # The harvest loop integrates MPP power and records nothing; the
        # spend phase runs in BatteryPolicy.finalize via recorder.build.
        policy = engine.policy
        harvest = env.pmpp * engine.config.step_minutes / 60.0
        policy.harvested_wh = float(_fold(policy.harvested_wh, harvest))
        lap("step.spans")
    else:
        _run_stepped(engine, tel, env, mode, lap)
    return True

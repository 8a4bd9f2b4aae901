"""Batched table-mode day evaluation: spans of minutes as array programs.

The scalar :meth:`DayEngine._run` loop pays Python-interpreter overhead at
every minute even when nothing interesting happens at that minute.  In
table-solver mode the expensive electrical solves are already microsecond
lookups, so the remaining cost is the per-step chip accounting — and that
is vectorizable, because between *events* (supply switches, tracking
events, budget reallocations) the chip's DVFS/gating state is frozen and
every per-step observable is an affine function of the per-core phase
IPCs:

    power[t]      = uncore + sum_c dyn_c * ipc_c[t] + leak
    throughput[t] = sum_c f_c * ipc_c[t]

This module finds the event steps with the policies' own trigger
predicates (``MPPTPolicy.track_due``, ``FixedBudgetPolicy.alloc_due``),
runs the *real* policy code at those steps (so tracking, tuning, DVFS
transition counting, and sensor behaviour are exactly the scalar-loop
code paths), and evaluates every span in between as NumPy programs over
arrays precomputed once per day (cell temperature, MPP power from the
interpolation surface, per-core IPC, the ATS floor).

The fast path runs only when nothing needs per-step hooks: table solver
active, no fault injection, event telemetry disabled, and a policy /
recorder pair this module knows how to batch.  Anything else keeps the
engine's scalar loop — which in table mode is still surface-backed, just
stepped per minute — and :func:`decline_reason` names why, so an enabled
hub can count ``fastday.declined.<reason>``.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import SeriesRecorder, StepContext
from repro.power.psu import PowerSource

__all__ = ["decline_reason", "run_fast", "supports"]


def supports(engine) -> str | None:
    """Classify the engine for the batched path; ``None`` = unsupported.

    Policies are matched by exact type (a subclass may override hooks the
    batching assumes frozen), and the recorder must accumulate only the
    base series (``SeriesRecorder.record`` unoverridden) so spans can be
    bulk-appended.
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


def decline_reason(engine, tel) -> str | None:
    """Why a table-mode day keeps the scalar loop, or None if it can batch.

    ``surfaces`` (the device has no interpolation surface), ``faults``,
    ``policy`` (:func:`supports` rejects the policy/recorder pair), or
    ``telemetry`` (event telemetry needs per-step hooks).  Telemetry is
    checked last, so the reason names the decline that would remain with
    telemetry off.
    """
    if engine.surfaces is None:
        return "surfaces"
    if engine.faults is not None:
        return "faults"
    if supports(engine) is None:
        return "policy"
    if tel.enabled:
        return "telemetry"
    return None


class _DayArrays:
    """Whole-day environment arrays, computed once per run."""

    def __init__(self, engine) -> None:
        trace = engine.trace
        n = len(trace.minutes) - 1
        self.n = n
        self.minutes = np.asarray(trace.minutes, dtype=np.float64)[:n]
        self.irr = np.asarray(trace.irradiance, dtype=np.float64)[:n]
        self.amb = np.asarray(trace.ambient_c, dtype=np.float64)[:n]
        vd = engine.surfaces.vectorized
        self.tcell = vd.cell_temperature_from_ambient(self.irr, self.amb)
        self.pmpp, self.vmpp = engine.surfaces.mpp_arrays(self.irr, self.tcell)


def _ipc_matrix(chip, minutes: np.ndarray) -> np.ndarray:
    """Per-core *effective* IPC at every step: shape ``(n_cores, n_steps)``.

    The benchmark's phase IPC scaled by each core type's PERF base, so
    every downstream array program sees what the core's performance
    counters would report (for the homogeneous default the scale is
    exactly 1.0 and the matrix is bit-identical to the raw phase IPCs).
    """
    return np.stack(
        [
            core._ipc_scale * core.phase_trace.ipc_array(minutes)
            for core in chip.cores
        ]
    )


def _floor_array(chip, ipc: np.ndarray, with_gating: bool) -> np.ndarray:
    """``chip.floor_power_at`` for every step at once.

    With PCPG the floor is the cheapest core at the bottom level — a
    minimum over *all* cores, independent of gating state.  Without PCPG
    no tuner ever gates a core (``make_tuner(allow_gating=False)``), so
    the floor is the all-cores sum at the bottom level.  Either way the
    array depends only on the phase IPCs, never on mutable chip state.

    Heterogeneity: every coefficient is per-core — each core's own table
    bottom, voltage ratio, and leakage reference.  For the homogeneous
    default the per-core values equal the old shared-table scalars, and
    broadcasting the same float64 multiply per element keeps the result
    bit-identical.
    """
    vr2f = np.empty(len(chip.cores))
    leak = np.empty(len(chip.cores))
    epi = np.empty(len(chip.cores))
    for i, core in enumerate(chip.cores):
        table = core.table
        level = table.min_level
        vr2 = (table.voltage(level) / table.max_voltage) ** 2
        vr2f[i] = vr2 * table.frequency(level)
        leak[i] = core.power_model.leakage_ref_w * vr2
        epi[i] = core._epi_nj
    per_core = epi[:, None] * vr2f[:, None] * ipc + leak[:, None]
    folded = per_core.min(axis=0) if with_gating else per_core.sum(axis=0)
    return chip.uncore_power_w + folded


def _span_coefficients(chip) -> tuple[np.ndarray, np.ndarray, float]:
    """Affine chip coefficients for the *current* (frozen) DVFS state.

    Returns ``(dyn, freq, leak)`` with per-core dynamic-power slopes
    [W per effective IPC], per-core frequencies [GHz] (zero where
    gated), and the total active leakage [W].  Each core contributes
    through its own DVFS table and power model.
    """
    dyn = np.zeros(len(chip.cores))
    freq = np.zeros(len(chip.cores))
    leak = 0.0
    for i, core in enumerate(chip.cores):
        if core.gated:
            continue
        table = core.table
        point = table[core.level]
        vr2 = (point.voltage_v / table.max_voltage) ** 2
        dyn[i] = core._epi_nj * vr2 * point.frequency_ghz
        freq[i] = point.frequency_ghz
        leak += core.power_model.leakage_ref_w * vr2
    return dyn, freq, leak


def _flush_span(
    engine,
    arrays: _DayArrays,
    ipc: np.ndarray,
    start: int,
    end: int,
    solar: bool,
    budget_w: float | None,
) -> None:
    """Evaluate steps ``[start, end)`` with frozen chip state and record them.

    Fills the base recorder series, books the energy ledger, and credits
    each core's retired-instruction total — everything the scalar loop
    would have accumulated over the same steps, as one array program.
    """
    if start >= end:
        return
    chip = engine.policy.chip
    recorder = engine.recorder
    ledger = engine.ledger
    dt = engine.config.step_minutes
    count = end - start
    dyn, freq, leak = _span_coefficients(chip)
    segment = ipc[:, start:end]
    power = chip.uncore_power_w + leak + dyn @ segment
    throughput = freq @ segment
    retired_per_core = (freq[:, None] * segment).sum(axis=1) * dt * 60.0
    for core, retired in zip(chip.cores, retired_per_core):
        core.credit_retired(float(retired))

    recorder.minutes.extend(arrays.minutes[start:end].tolist())
    recorder.mpp_w.extend(arrays.pmpp[start:end].tolist())
    recorder.throughput.extend(throughput.tolist())
    recorder.on_solar.extend([solar] * count)
    if solar:
        cap = arrays.pmpp[start:end] if budget_w is None else budget_w
        consumed = np.minimum(power, cap)
        recorder.consumed_w.extend(consumed.tolist())
        recorder.retired_solar += float(throughput.sum()) * dt * 60.0
        solar_wh = float(consumed.sum()) * dt / 60.0
        ledger.solar_wh += solar_wh
        ledger.load_wh += solar_wh
    else:
        recorder.consumed_w.extend([0.0] * count)
        utility_wh = float(power.sum()) * dt / 60.0
        recorder.utility_wh += utility_wh
        ledger.utility_wh += utility_wh
        ledger.load_wh += utility_wh


def _run_stepped(engine, tel, arrays: _DayArrays, mode: str) -> None:
    """The MPPT / fixed-budget day: event steps real, spans vectorized."""
    policy = engine.policy
    chip = policy.chip
    cfg = engine.config
    dt = cfg.step_minutes
    surfaces = engine.surfaces
    recorder = engine.recorder
    ledger = engine.ledger
    ats = engine.ats
    predictor = getattr(policy, "predictor", None)
    budget_w = policy.budget_w if mode == "fixed" else None

    ipc = _ipc_matrix(chip, arrays.minutes)
    floor = _floor_array(chip, ipc, cfg.enable_pcpg)
    if mode == "fixed":
        solar_mask = (arrays.pmpp >= policy.budget_w) & (policy.budget_w >= floor)

    on_solar_prev = False
    pending_start = 0
    pending_solar = False
    for index in range(arrays.n):
        minute = float(arrays.minutes[index])
        pmpp = float(arrays.pmpp[index])
        if mode == "mppt":
            source = ats.update(pmpp, float(floor[index]))
            on_solar = source is PowerSource.SOLAR
            event = (
                (not on_solar_prev) or policy.track_due(minute, pmpp)
                if on_solar
                else on_solar_prev or index == 0
            )
        else:
            on_solar = bool(solar_mask[index])
            event = (
                policy.alloc_due(minute)
                if on_solar
                else on_solar_prev or index == 0
            )
        if event:
            _flush_span(
                engine, arrays, ipc, pending_start, index, pending_solar, budget_w
            )
            ctx = StepContext(
                index=index,
                minute=minute,
                irradiance=float(arrays.irr[index]),
                ambient_c=float(arrays.amb[index]),
                cell_temp=float(arrays.tcell[index]),
                mpp=surfaces.mpp(float(arrays.irr[index]), float(arrays.tcell[index])),
                dt=dt,
                telemetry=tel,
            )
            if on_solar:
                if not on_solar_prev:
                    policy.enter_solar(ctx)
                sample = policy.solar_step(ctx)
            else:
                sample = policy.utility_step(ctx)
            recorder.record(ctx, on_solar, sample)
            ledger.book(on_solar, sample, dt)
            pending_start = index + 1
        else:
            if index == pending_start:
                pending_solar = on_solar
            if on_solar and predictor is not None:
                predictor.observe(minute, pmpp)
        on_solar_prev = on_solar
    _flush_span(
        engine, arrays, ipc, pending_start, arrays.n, pending_solar, budget_w
    )


def run_fast(engine, tel) -> bool:
    """Run the whole day batched; ``False`` = caller keeps the scalar loop.

    On ``True`` the recorder, the energy ledger, and the policy/chip state
    are exactly as if the scalar loop had stepped the day (modulo the
    table solver's documented error bound and floating-point summation
    order); the engine's shared end-of-day bookkeeping still runs in
    :meth:`DayEngine._finish`.
    """
    mode = supports(engine)
    if mode is None:
        return False
    arrays = _DayArrays(engine)
    if mode == "battery":
        # The harvest loop integrates MPP power and records nothing; the
        # spend phase runs in BatteryPolicy.finalize via recorder.build.
        engine.policy.harvested_wh += (
            float(arrays.pmpp.sum()) * engine.config.step_minutes / 60.0
        )
    else:
        _run_stepped(engine, tel, arrays, mode)
    return True

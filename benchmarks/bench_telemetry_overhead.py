"""Telemetry overhead guard: the disabled hub must stay effectively free.

The observability layer's contract is that an uninstalled (null) hub costs
one attribute check per instrumentation site.  This benchmark times the
same day simulation with the null hub, with a fully enabled hub (ring
buffer sink, metrics, timers), and with a profiled hub (per-step phases
and day profiles too), and asserts the disabled path is not paying for
instrumentation it did not ask for.  It also records the line counts of
``src/`` and ``src/repro/telemetry/`` so "least code" has a trajectory.

Host noise on a shared machine moves wall time by more than the bound
under test, so each round runs the three hubs back to back and the
comparison uses the best thread CPU time (``time.thread_time``) of each
hub over the rounds: a slow spell then hits every hub of a round alike,
and time the thread spends descheduled is not counted at all.
"""

import contextlib
import pathlib
import time

from benchjson import write_bench_json
from conftest import emit

from repro.core.config import SolarCoreConfig
from repro.core.dayenv import clear_environments
from repro.core.simulation import run_day
from repro.environment.locations import PHOENIX_AZ
from repro.telemetry import RingBufferSink, Telemetry, telemetry_session

CFG = SolarCoreConfig()  # full 1-minute cadence: the real hot path

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


#: Rounds; every round times each hub once.
ROUNDS = 5

#: The hubs under comparison (None: the null hub stays installed).
HUBS = {
    "disabled": None,
    "enabled": lambda: Telemetry(sinks=[RingBufferSink()]),
    "profiled": lambda: Telemetry(sinks=[RingBufferSink()], profile=True),
}


def _day_cpu_s(hub) -> float:
    """Thread CPU time [s] of one day under a fresh ``hub()``.

    The day starts from an empty environment memo, so every hub times the
    day's whole solve, its MPP series included.
    """
    clear_environments()
    with telemetry_session(hub()) if hub is not None else contextlib.nullcontext():
        start = time.thread_time()
        run_day("HM2", PHOENIX_AZ, 7, config=CFG)
        return time.thread_time() - start


def _time_hubs() -> dict[str, float]:
    """Best-of-``ROUNDS`` thread CPU time per hub, interleaved per round."""
    best = dict.fromkeys(HUBS, float("inf"))
    for _ in range(ROUNDS):
        for name, hub in HUBS.items():
            best[name] = min(best[name], _day_cpu_s(hub))
    return best


def _line_count(root: pathlib.Path) -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in root.rglob("*.py")
    )


def test_disabled_telemetry_overhead(benchmark, out_dir):
    best = benchmark.pedantic(_time_hubs, rounds=1, iterations=1)
    disabled, enabled, profiled = (best[name] for name in HUBS)

    ratio = enabled / disabled
    profiled_ratio = profiled / disabled
    src_lines = _line_count(SRC)
    telemetry_lines = _line_count(SRC / "repro" / "telemetry")
    emit(
        out_dir,
        "telemetry_overhead",
        "\n".join(
            [
                f"disabled (null hub) best-of-{ROUNDS} CPU: {disabled * 1e3:.1f} ms",
                f"enabled (full hub)  best-of-{ROUNDS} CPU: {enabled * 1e3:.1f} ms",
                f"profiled (+phases)  best-of-{ROUNDS} CPU: {profiled * 1e3:.1f} ms",
                f"enabled/disabled ratio: {ratio:.3f}",
                f"profiled/disabled ratio: {profiled_ratio:.3f}",
                f"lines: src/ {src_lines}, src/repro/telemetry/ {telemetry_lines}",
            ]
        ),
    )
    write_bench_json(
        out_dir,
        "telemetry_overhead",
        # Every number is thread CPU time or a code-size trajectory; the
        # hard guard on the ratio is the assertions below, so the JSON
        # trajectory only warns.
        timings_s={"disabled": disabled, "enabled": enabled, "profiled": profiled},
        extra={
            "ratio": ratio,
            "profiled_ratio": profiled_ratio,
            "src_lines": src_lines,
            "telemetry_lines": telemetry_lines,
        },
    )

    # The disabled path must not be slower than the instrumented one
    # beyond timing noise: if it is, a hot path stopped guarding on
    # ``tel.enabled`` and is doing telemetry work unconditionally.
    assert disabled <= enabled * 1.05, (
        f"null-hub run ({disabled:.3f}s) slower than enabled run "
        f"({enabled:.3f}s); a hot path lost its enabled-guard"
    )
    # And turning everything on must stay cheap in absolute terms.
    assert ratio < 1.5, f"enabled telemetry costs {ratio:.2f}x"

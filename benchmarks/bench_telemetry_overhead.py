"""Telemetry overhead guard: the disabled hub must stay effectively free.

The observability layer's contract is that an uninstalled (null) hub costs
one attribute check per instrumentation site.  This benchmark times the
same day simulation with the null hub, with a fully enabled hub (ring
buffer sink, metrics, timers), and with a profiled hub (per-step phases
and day profiles too), and asserts the disabled path is not paying for
instrumentation it did not ask for.  It also records the line counts of
``src/`` and ``src/repro/telemetry/`` so "least code" has a trajectory.
"""

import pathlib
import time

from benchjson import write_bench_json
from conftest import emit

from repro.core.config import SolarCoreConfig
from repro.core.simulation import run_day
from repro.environment.locations import PHOENIX_AZ
from repro.telemetry import RingBufferSink, Telemetry, telemetry_session

CFG = SolarCoreConfig()  # full 1-minute cadence: the real hot path

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _time_run(repeats=3, hub=None):
    """Best-of-``repeats`` day wall [s] under a fresh ``hub()`` (None: null hub)."""
    best = float("inf")
    for _ in range(repeats):
        if hub is not None:
            with telemetry_session(hub()):
                start = time.perf_counter()
                run_day("HM2", PHOENIX_AZ, 7, config=CFG)
                best = min(best, time.perf_counter() - start)
        else:
            start = time.perf_counter()
            run_day("HM2", PHOENIX_AZ, 7, config=CFG)
            best = min(best, time.perf_counter() - start)
    return best


def _line_count(root: pathlib.Path) -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in root.rglob("*.py")
    )


def test_disabled_telemetry_overhead(benchmark, out_dir):
    disabled = benchmark.pedantic(_time_run, rounds=1, iterations=1)
    enabled = _time_run(hub=lambda: Telemetry(sinks=[RingBufferSink()]))
    profiled = _time_run(
        hub=lambda: Telemetry(sinks=[RingBufferSink()], profile=True)
    )

    ratio = enabled / disabled
    profiled_ratio = profiled / disabled
    src_lines = _line_count(SRC)
    telemetry_lines = _line_count(SRC / "repro" / "telemetry")
    emit(
        out_dir,
        "telemetry_overhead",
        "\n".join(
            [
                f"disabled (null hub) best-of-3: {disabled * 1e3:.1f} ms",
                f"enabled (full hub)  best-of-3: {enabled * 1e3:.1f} ms",
                f"profiled (+phases)  best-of-3: {profiled * 1e3:.1f} ms",
                f"enabled/disabled ratio: {ratio:.3f}",
                f"profiled/disabled ratio: {profiled_ratio:.3f}",
                f"lines: src/ {src_lines}, src/repro/telemetry/ {telemetry_lines}",
            ]
        ),
    )
    write_bench_json(
        out_dir,
        "telemetry_overhead",
        # Every number is wall-clock or a code-size trajectory; the hard
        # guard on the ratio is the assertions below, so the JSON
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

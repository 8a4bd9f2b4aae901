"""Shared infrastructure for the per-figure benchmark suite.

Every benchmark regenerates one table or figure of the paper at full
resolution (1-minute steps, the complete evaluation grid unless noted).
Results are cached in a session-wide runner — the grid is simulated once
and sliced by every figure — and each bench writes the rows/series it
reproduces to ``benchmarks/out/``.  A paper artifact's bench goes through
the :func:`reproduce` fixture, the same table entry
(:data:`repro.harness.artifacts.ARTIFACTS`) ``repro experiment`` uses.

The session runner also rides the parallel sweep engine: set
``SOLARCORE_JOBS=N`` to fan each artifact's prefetch out over N worker
processes, and
``SOLARCORE_CACHE_DIR=DIR`` to move the persistent result cache (default:
``benchmarks/out/cache/``, content-addressed and invalidated whenever the
``repro`` source changes, so re-running the suite only pays for
simulations the current code has never done).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.harness.artifacts import ARTIFACTS
from repro.harness.runner import SimulationRunner

OUT_DIR = pathlib.Path(__file__).parent / "out"


def sweep_jobs() -> int:
    """Worker-process count for the benchmark suite (SOLARCORE_JOBS)."""
    return max(1, int(os.environ.get("SOLARCORE_JOBS", "1")))


def sweep_cache_dir() -> pathlib.Path:
    """Persistent result-cache directory (SOLARCORE_CACHE_DIR)."""
    return pathlib.Path(
        os.environ.get("SOLARCORE_CACHE_DIR", str(OUT_DIR / "cache"))
    )


@pytest.fixture(scope="session")
def runner() -> SimulationRunner:
    """Session-wide cache of full-resolution day simulations."""
    return SimulationRunner(jobs=sweep_jobs(), cache_dir=sweep_cache_dir())


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def emit(out_dir: pathlib.Path, name: str, text: str) -> None:
    """Print a reproduced artifact and persist it under benchmarks/out/."""
    print(f"\n===== {name} =====\n{text}")
    (out_dir / f"{name}.txt").write_text(text + "\n")


@pytest.fixture
def reproduce(benchmark, runner, out_dir, request):
    """``reproduce(name)`` runs one paper artifact on the session runner.

    It prefetches the artifact's tasks, times its build (auto-calibrated
    rounds for a device figure, one round over the prefetched days for
    the rest), emits its rendering as ``benchmarks/out/<bench file name
    without bench_>.txt`` and returns the data for the bench's asserts.
    """

    def run(name: str):
        artifact = ARTIFACTS[name]
        runner.prefetch(artifact.tasks)
        if artifact.tasks:
            data = benchmark.pedantic(
                artifact.build, args=(runner,), rounds=1, iterations=1
            )
        else:
            data = benchmark(artifact.build, runner)
        emit(out_dir, request.path.stem.removeprefix("bench_"),
             artifact.render(data))
        return data

    return run

"""Shared machinery for the service concurrency suite.

The container ships no ``pytest-asyncio``, so every async test here is a
plain sync test function that drives its coroutine with
:func:`run_async` — one event loop per test, a hard timeout around the
whole thing so a deadlocked service fails the test instead of hanging
the suite.

The star fixture is :class:`GatedCompute`: a fake
``repro.harness.runner.compute_task`` whose calls *block* on a
threading gate until the test releases them.  Holding N concurrent jobs
mid-compute deterministically is what turns "the coalescer probably
works" into "exactly one compute ran, and here is the counter".
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass

import pytest

from repro.service.app import SolarCoreService
from repro.service.client import ServiceClient

DEFAULT_TIMEOUT_S = 30.0


def run_async(coro, timeout: float = DEFAULT_TIMEOUT_S):
    """Drive ``coro`` on a fresh event loop with a hard overall timeout."""

    async def bounded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(bounded())


@dataclass(frozen=True)
class FakeDayResult:
    """A tiny picklable, dataclass-shaped stand-in for a day result.

    ``SimulationRunner._freeze`` iterates dataclass fields and
    ``summarize_result`` serializes the scalar ones, so any dataclass
    with scalar fields walks through the whole service stack.
    """

    mix_name: str
    location_code: str
    month: int
    ptp: float = 1234.0
    energy_utilization: float = 0.5


class GatedCompute:
    """A blocking, counting fake ``compute_task``.

    Every call records itself, then waits on the gate.  The test decides
    when computes may finish (:meth:`release`), how many have *started*
    (:attr:`started`), how many ever ran (:attr:`calls`), and how many
    ran at once at most (:attr:`peak`).
    """

    def __init__(self) -> None:
        self._gate = threading.Event()
        self._lock = threading.Lock()
        self.calls = 0
        self.started = threading.Event()
        self.finished = 0
        self.peak = 0

    def __call__(self, task, config):
        with self._lock:
            self.calls += 1
            self.peak = max(self.peak, self.calls - self.finished)
        self.started.set()
        assert self._gate.wait(DEFAULT_TIMEOUT_S), "gate never released"
        result = FakeDayResult(task.mix_name, task.location_code, task.month)
        with self._lock:
            self.finished += 1
        return result

    def release(self) -> None:
        """Let every current and future compute finish."""
        self._gate.set()


@pytest.fixture
def gated_compute(monkeypatch) -> GatedCompute:
    """Replace the real compute with a :class:`GatedCompute` (auto-undone)."""
    fake = GatedCompute()
    monkeypatch.setattr("repro.harness.runner.compute_task", fake)
    return fake


class ServiceHarness:
    """One in-process service plus its client, for ``async with`` tests."""

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("snapshot_interval_s", 0.0)
        self.service = SolarCoreService(**kwargs)
        self.client: ServiceClient | None = None

    async def __aenter__(self) -> ServiceHarness:
        await self.service.start()
        self.client = ServiceClient(self.service.host, self.service.port)
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.service.aclose()


@pytest.fixture
def harness_factory():
    """``factory(**service_kwargs)`` -> an ``async with``-able harness."""
    return ServiceHarness

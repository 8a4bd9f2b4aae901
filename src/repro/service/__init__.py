"""SolarCore as a service: async job API with live telemetry streaming.

The package turns the batch harness into a long-running server without
changing the simulation stack:

* :mod:`repro.service.jobs` — job specs (the :class:`SweepTask` config
  surface as JSON) and the strict queued → running → terminal state
  machine (plus the durability states ``interrupted`` /
  ``deadline_exceeded``), pure-sync so property tests can drive it;
* :mod:`repro.service.journal` — the crash-safe append-only job journal,
  compacted in place by one atomic rename (``--journal-dir``);
* :mod:`repro.service.coalesce` — exactly-one in-flight compute per task
  cache key, with orphaned computes running to completion and follower
  re-election when a leader dies;
* :mod:`repro.service.stream` — bounded drop-oldest fan-out to
  subscribed clients;
* :mod:`repro.service.wsproto` — the hand-rolled RFC 6455 subset
  (the image ships no websocket library);
* :mod:`repro.service.app` — the HTTP + WebSocket server tying the
  above onto one :class:`~repro.harness.runner.SimulationRunner` per
  (solver, chip), whose misses run on one shared compute thread pool;
* :mod:`repro.service.client` — the matching asyncio client used by the
  tests, the load bench, and ``repro serve`` consumers.

Start one with ``repro serve`` or programmatically::

    async with SolarCoreService(cache_dir="cache") as service:
        client = ServiceClient(service.host, service.port)
        job = await client.submit({"mix": "HM2", "site": "PHX", "month": 6},
                                  wait=True)
"""

from repro.service.app import (
    ServiceDraining,
    ServiceOverloaded,
    SolarCoreService,
    summarize_result,
)
from repro.service.client import ServiceClient, ServiceError, WSClient
from repro.service.coalesce import Coalescer, InFlight
from repro.service.jobs import (
    CANCELLED,
    DEADLINE_EXCEEDED,
    DONE,
    FAILED,
    INTERRUPTED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    VALID_TRANSITIONS,
    InvalidTransition,
    Job,
    JobSpec,
    JobSpecError,
    JobTable,
    Subscription,
)
from repro.service.journal import JobJournal, JournalCorruption, ReplayReport
from repro.service.stream import ClientStream, StreamHub

__all__ = [
    "SolarCoreService",
    "ServiceOverloaded",
    "ServiceDraining",
    "summarize_result",
    "ServiceClient",
    "ServiceError",
    "WSClient",
    "Coalescer",
    "InFlight",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "INTERRUPTED",
    "DEADLINE_EXCEEDED",
    "TERMINAL_STATES",
    "VALID_TRANSITIONS",
    "InvalidTransition",
    "Job",
    "JobSpec",
    "JobSpecError",
    "JobTable",
    "Subscription",
    "JobJournal",
    "JournalCorruption",
    "ReplayReport",
    "ClientStream",
    "StreamHub",
]

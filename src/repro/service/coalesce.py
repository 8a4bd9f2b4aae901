"""Request coalescing: one in-flight compute per cache key, N waiters.

The service's scaling story is "millions of users asking for the same
thing": when N concurrent jobs name the same simulation cell, exactly one
compute may run — everyone else attaches to its future.  The unit of
coalescing is the *task cache key* (the same tuple the memory and disk
caches use, so "identical" here means identical down to config, seed,
faults, and solver), which also coalesces jobs that merely *overlap*.

Cancellation semantics: detaching a waiter never interrupts the compute.
A thread already running a day simulation cannot be preempted safely, and
killing it would waste the work — so an entry whose last waiter detached
is *orphaned*: it runs to completion, stores its result into the shared
cache (keeping cache and ledger consistent for the cancellation tests),
and only then disappears.  A failed compute removes its entry immediately
so a later identical request retries instead of being served the stale
exception forever.

Loop affinity: every method must be called from the event-loop thread.
The compute itself runs wherever the supplied factory puts it (the
service hands :meth:`~repro.harness.runner.SimulationRunner.run_task`
to its compute thread pool); only the bookkeeping is loop-bound.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, field

__all__ = ["Coalescer", "InFlight"]

log = logging.getLogger(__name__)


@dataclass
class InFlight:
    """One in-flight compute and everyone waiting on it."""

    key: tuple
    future: asyncio.Future
    waiters: int = 1
    #: True once every waiter detached while the compute still ran.
    orphaned: bool = False
    #: The asyncio task driving the compute (held so it cannot be GC'd).
    runner_task: asyncio.Task | None = field(default=None, repr=False)


class Coalescer:
    """Exactly-once in-flight computes, keyed by task cache key."""

    def __init__(self) -> None:
        self._inflight: dict[tuple, InFlight] = {}
        #: Computes actually started (the service's "computes" truth —
        #: counted on the loop, so immune to thread races).
        self.computed = 0
        #: Requests that attached to an existing in-flight compute.
        self.coalesced = 0
        #: Entries whose every waiter detached before completion.
        self.orphans = 0
        #: Waiters that survived a dead leader by starting a new compute.
        self.reelected = 0
        #: Entries whose compute was truly cancelled on last-waiter exit.
        self.hard_cancels = 0

    def stats(self) -> dict[str, int]:
        """Loop-side counters for ``/stats`` and the load bench."""
        return {
            "computed": self.computed,
            "coalesced": self.coalesced,
            "orphans": self.orphans,
            "reelected": self.reelected,
            "hard_cancels": self.hard_cancels,
            "inflight": len(self._inflight),
        }

    def acquire(self, key: tuple, start) -> tuple[InFlight, bool]:
        """Attach to the in-flight compute for ``key``, starting one if needed.

        Args:
            key: The task's full cache key.
            start: Zero-argument callable returning an *awaitable* that
                performs the compute; invoked only when this key has no
                compute in flight.

        Returns:
            ``(entry, attached)`` — the (possibly shared)
            :class:`InFlight` entry, and whether this call *attached* to
            an existing compute (True) or started the one compute
            (False).  Await ``entry.future`` for the result; always pair
            with :meth:`release` (normally via :meth:`wait`).
        """
        entry = self._inflight.get(key)
        if entry is not None:
            entry.waiters += 1
            self.coalesced += 1
            return entry, True
        loop = asyncio.get_running_loop()
        entry = InFlight(key=key, future=loop.create_future())
        self._inflight[key] = entry
        self.computed += 1
        entry.runner_task = loop.create_task(self._drive(entry, start))
        return entry, False

    async def _drive(self, entry: InFlight, start) -> None:
        """Run the compute and resolve the shared future."""
        try:
            result = await start()
        except BaseException as exc:  # noqa: BLE001 — delivered to waiters
            # Failed computes must not be sticky: drop the entry first so
            # a retry submitted from a waiter's error handler recomputes.
            self._inflight.pop(entry.key, None)
            if not entry.future.done():
                if isinstance(exc, asyncio.CancelledError):
                    entry.future.cancel()
                else:
                    entry.future.set_exception(exc)
            else:
                log.warning("orphaned compute for %r failed: %s", entry.key, exc)
        else:
            self._inflight.pop(entry.key, None)
            if not entry.future.done():
                entry.future.set_result(result)

    def release(self, entry: InFlight, *, hard: bool = False) -> None:
        """Detach one waiter (a cancelled or finished job).

        ``hard=True`` changes what happens when the *last* waiter leaves
        an unfinished compute: instead of orphaning it (run to
        completion, warm the cache), the driving task is cancelled — if
        the underlying work has not started yet (a queued executor
        future) it never runs.  Deadline enforcement and drain use this;
        plain job cancellation keeps the warm-the-cache default.
        """
        entry.waiters -= 1
        if entry.waiters <= 0 and not entry.future.done() and not entry.orphaned:
            if hard and entry.runner_task is not None:
                entry.orphaned = True
                self.hard_cancels += 1
                entry.future.add_done_callback(_consume_exception)
                entry.runner_task.cancel()
                log.info("compute for %r hard-cancelled (last waiter left)",
                         entry.key)
                return
            entry.orphaned = True
            self.orphans += 1
            # Swallow the eventual result so "everyone cancelled" does not
            # surface an 'exception was never retrieved' warning; the
            # compute itself keeps running and still warms the cache.
            entry.future.add_done_callback(_consume_exception)
            log.info(
                "compute for %r orphaned (all waiters cancelled); "
                "letting it finish to keep the cache warm", entry.key,
            )

    async def wait(self, entry: InFlight, start=None, *, hard: bool = False):
        """Await the shared result, detaching cleanly on cancellation.

        Leader-death safety: if the shared future is *cancelled* — the
        leader's driving task died without delivering a result — a
        follower must not be collateral damage.  When ``start`` is
        given, the follower re-elects: it re-acquires the key (becoming
        the new leader, or attaching to whichever racer won) and keeps
        waiting.  Without ``start`` the cancellation propagates.

        A waiter whose *own* task is cancelled still detaches cleanly:
        the shield keeps the shared future alive for everyone else.
        ``hard`` is forwarded to :meth:`release` (see there).
        """
        while True:
            try:
                result = await asyncio.shield(entry.future)
            except asyncio.CancelledError:
                self.release(entry, hard=hard)
                if entry.future.cancelled() and start is not None:
                    # The leader died, not us: start (or join) a new compute.
                    self.reelected += 1
                    log.info("re-electing compute for %r after leader death",
                             entry.key)
                    entry, _ = self.acquire(entry.key, start)
                    continue
                raise
            except BaseException:
                self.release(entry, hard=hard)
                raise
            else:
                self.release(entry, hard=hard)
                return result


def _consume_exception(future: asyncio.Future) -> None:
    if future.cancelled():
        return
    exc = future.exception()
    if exc is not None:
        log.warning("orphaned compute failed: %s: %s", type(exc).__name__, exc)

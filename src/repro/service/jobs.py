"""The service's job model: specs, a strict state machine, and a table.

Everything in this module is *synchronous and loop-free* on purpose: the
job lifecycle (``queued -> running -> done/failed/cancelled``, plus the
durability states ``interrupted`` and ``deadline_exceeded``) and its
notification guarantee are the most safety-critical part of the service,
so they live in plain objects that a Hypothesis state machine can drive
through arbitrary interleavings (``tests/service/test_property_lifecycle``)
without an event loop in the way.  The asyncio layer
(:mod:`repro.service.app`) owns all concurrency and calls into this table
from the event-loop thread only.

* :class:`JobSpec` — a validated, immutable description of what to
  simulate, parsed from the JSON a client POSTs.  A spec is a set of
  :class:`~repro.harness.parallel.SweepTask` cells plus a solver choice,
  so its cache identity is exactly the runner's cache identity — the
  property request coalescing keys on.
* :class:`Job` — one submitted job: id, spec, state, timing, outcome.
* :class:`JobTable` — creates jobs, enforces transitions, and fans every
  state change out to subscribers.  Subscribing to a job that is already
  terminal *immediately* delivers the terminal notification: a client can
  never miss the end of a job by racing its completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.campaign import campaign_tasks
from repro.harness.parallel import SweepTask
from repro.multicore.spec import ChipSpec

__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "INTERRUPTED",
    "DEADLINE_EXCEEDED",
    "JOB_STATES",
    "TERMINAL_STATES",
    "VALID_TRANSITIONS",
    "InvalidTransition",
    "JobSpecError",
    "JobSpec",
    "Job",
    "Subscription",
    "JobTable",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
#: The job was running (or queued behind a drain) when its process went
#: away — a crash, a SIGKILL, or a drain timeout.  Non-terminal: journal
#: replay moves it to ``queued`` (retry) or ``failed`` per the server's
#: ``--recover`` policy.
INTERRUPTED = "interrupted"
#: The job's ``deadline_s`` elapsed before it produced a result.
DEADLINE_EXCEEDED = "deadline_exceeded"

JOB_STATES = frozenset({
    QUEUED, RUNNING, DONE, FAILED, CANCELLED, INTERRUPTED,
    DEADLINE_EXCEEDED,
})

#: States a job can never leave.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED, DEADLINE_EXCEEDED})

#: The complete transition relation.  Anything not listed here raises
#: :class:`InvalidTransition` — there is no "forgiving" path that would
#: let a terminal job silently resurrect or a queued job skip to done
#: without having run.  ``interrupted`` is the one state that may go
#: *back* to ``queued``: it exists precisely so a crashed or drained
#: server can re-enqueue the work it was holding.
VALID_TRANSITIONS: dict[str, frozenset[str]] = {
    QUEUED: frozenset({RUNNING, CANCELLED, FAILED, DEADLINE_EXCEEDED}),
    RUNNING: frozenset({
        DONE, FAILED, CANCELLED, DEADLINE_EXCEEDED, INTERRUPTED,
    }),
    INTERRUPTED: frozenset({QUEUED, FAILED, CANCELLED}),
    DONE: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
    DEADLINE_EXCEEDED: frozenset(),
}


class InvalidTransition(RuntimeError):
    """An illegal job state transition was attempted (and not applied)."""


class JobSpecError(ValueError):
    """A submitted job document failed validation; the message says how."""


#: Solver modes a spec may request (mirrors ``SolarCoreConfig.solver``).
_SOLVERS = ("exact", "table")

#: Keys allowed in a single task document.
_TASK_KEYS = frozenset({
    "kind", "mix", "site", "location", "month", "policy",
    "budget_w", "derating", "seed", "faults",
})


def _parse_task(doc: dict, where: str) -> SweepTask:
    """One task document -> a validated :class:`SweepTask`."""
    if not isinstance(doc, dict):
        raise JobSpecError(f"{where}: task must be an object, got {type(doc).__name__}")
    unknown = set(doc) - _TASK_KEYS
    if unknown:
        raise JobSpecError(
            f"{where}: unknown task field(s) {sorted(unknown)}; "
            f"known: {sorted(_TASK_KEYS)}"
        )
    site = doc.get("site", doc.get("location"))
    if site is None:
        raise JobSpecError(f"{where}: a task requires 'site' (or 'location')")
    month = doc.get("month")
    if not isinstance(month, int) or isinstance(month, bool):
        raise JobSpecError(f"{where}: 'month' must be an integer, got {month!r}")
    kind = doc.get("kind", "mppt")
    try:
        return SweepTask(
            kind,
            doc.get("mix", "HM2"),
            site,
            month,
            policy=doc.get("policy", "MPPT&Opt"),
            budget_w=doc.get("budget_w"),
            derating=doc.get("derating"),
            seed=doc.get("seed"),
            faults=doc.get("faults"),
        )
    except (ValueError, KeyError) as exc:
        raise JobSpecError(f"{where}: {exc}") from exc


def _parse_campaign(doc: dict) -> list[SweepTask]:
    """A campaign document -> its per-seed task grid.

    Expands through :func:`repro.core.campaign.campaign_tasks` (base seed
    0), so the job simulates the days ``repro campaign`` simulates for the
    same mix, sites, months, days, policy and faults.
    """
    if not isinstance(doc, dict):
        raise JobSpecError("'campaign' must be an object")
    days = doc.get("days", 3)
    if not isinstance(days, int) or isinstance(days, bool) or days < 1:
        raise JobSpecError(f"campaign 'days' must be a positive integer, got {days!r}")
    sites = doc.get("sites", doc.get("locations"))
    months = doc.get("months")
    if not sites or not months:
        raise JobSpecError("campaign requires non-empty 'sites' and 'months'")
    try:
        return campaign_tasks(
            doc.get("mix", "HM2"),
            tuple(sites),
            tuple(months),
            days,
            policy=doc.get("policy", "MPPT&Opt"),
            faults=doc.get("faults"),
        )
    except (ValueError, KeyError) as exc:
        raise JobSpecError(f"campaign: {exc}") from exc


def _task_doc(task: SweepTask) -> dict:
    """One :class:`SweepTask` -> the task document ``_parse_task`` accepts."""
    doc: dict = {
        "kind": task.kind,
        "mix": task.mix_name,
        "site": task.location_code,
        "month": task.month,
        "policy": task.policy,
    }
    for key in ("budget_w", "derating", "seed", "faults"):
        value = getattr(task, key)
        if value is not None:
            doc[key] = value
    return doc


@dataclass(frozen=True)
class JobSpec:
    """A validated, immutable job description.

    Attributes:
        tasks: The day-simulation cells the job asks for (deduplicated,
            submission order preserved).
        solver: Electrical solver mode (``exact`` or ``table``).
        label: Free-form client label echoed in status responses.
        chip: Canonical :class:`~repro.multicore.spec.ChipSpec` string —
            the chip every task in the job simulates.  Part of the job's
            cache identity: two jobs coalesce only when they agree on it.
        deadline_s: Optional wall-clock budget for the whole job.  When it
            elapses the service cancels the work and the job lands in the
            terminal ``deadline_exceeded`` state.
    """

    tasks: tuple[SweepTask, ...]
    solver: str = "exact"
    label: str = ""
    chip: str = "alpha8"
    deadline_s: float | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> JobSpec:
        """Parse the JSON document a client POSTs to ``/jobs``.

        Three shapes are accepted:

        * a single task — ``{"mix": "HM2", "site": "AZ", "month": 7}``;
        * a sweep — ``{"tasks": [{...}, {...}]}``;
        * a campaign — ``{"campaign": {"mix": ..., "sites": [...],
          "months": [...], "days": N}}`` (expands to one seeded task per
          cell per day, exactly like ``repro campaign``).

        Raises:
            JobSpecError: The document is malformed; the message names
                the offending field.
        """
        if not isinstance(doc, dict):
            raise JobSpecError(f"job spec must be an object, got {type(doc).__name__}")
        solver = doc.get("solver", "exact")
        if solver not in _SOLVERS:
            raise JobSpecError(
                f"'solver' must be one of {list(_SOLVERS)}, got {solver!r}"
            )
        label = doc.get("label", "")
        if not isinstance(label, str):
            raise JobSpecError(f"'label' must be a string, got {label!r}")
        chip = doc.get("chip", "alpha8")
        if not isinstance(chip, str):
            raise JobSpecError(f"'chip' must be a spec string, got {chip!r}")
        try:
            chip = ChipSpec.parse(chip).canonical()
        except ValueError as exc:
            raise JobSpecError(f"'chip': {exc}") from exc
        deadline_s = doc.get("deadline_s")
        if deadline_s is not None:
            if (isinstance(deadline_s, bool)
                    or not isinstance(deadline_s, (int, float))
                    or deadline_s <= 0):
                raise JobSpecError(
                    f"'deadline_s' must be a positive number, got {deadline_s!r}"
                )
            deadline_s = float(deadline_s)
        shapes = [key for key in ("tasks", "campaign") if key in doc]
        if len(shapes) > 1:
            raise JobSpecError("give either 'tasks' or 'campaign', not both")
        if "tasks" in doc:
            raw = doc["tasks"]
            if not isinstance(raw, list) or not raw:
                raise JobSpecError("'tasks' must be a non-empty list")
            tasks = [_parse_task(t, f"tasks[{i}]") for i, t in enumerate(raw)]
        elif "campaign" in doc:
            tasks = _parse_campaign(doc["campaign"])
        else:
            task_doc = {k: v for k, v in doc.items()
                        if k not in ("solver", "label", "chip", "deadline_s")}
            tasks = [_parse_task(task_doc, "job")]
        return cls(
            tasks=tuple(dict.fromkeys(tasks)), solver=solver, label=label,
            chip=chip, deadline_s=deadline_s,
        )

    def to_dict(self) -> dict:
        """A JSON-safe document that :meth:`from_dict` round-trips exactly.

        This is the journal's wire format for specs: a replayed server
        re-parses it through the same validation path a client submission
        takes, so a journal can never smuggle in a spec the API would
        have rejected.
        """
        doc: dict = {
            "tasks": [_task_doc(task) for task in self.tasks],
            "solver": self.solver,
            "label": self.label,
            "chip": self.chip,
        }
        if self.deadline_s is not None:
            doc["deadline_s"] = self.deadline_s
        return doc

    def describe(self) -> str:
        """Short human-readable identity for logs and status payloads."""
        chip = "" if self.chip == "alpha8" else f" chip={self.chip}"
        if len(self.tasks) == 1:
            return f"{self.tasks[0].describe()} solver={self.solver}{chip}"
        return f"{len(self.tasks)} task(s) solver={self.solver}{chip}"


@dataclass
class Job:
    """One submitted job and everything the API reports about it.

    State is mutated exclusively through :meth:`JobTable.transition`, so
    every change is validated and every subscriber notified.
    """

    job_id: str
    spec: JobSpec
    state: str = QUEUED
    #: ``TypeName: message`` of the failure (``state == failed`` only).
    error: str | None = None
    #: Per-task scalar summaries (``state == done`` only).
    result: list[dict] | None = None
    #: How many of the job's tasks were answered without a fresh compute.
    cache_hits: int = 0
    #: How many of the job's tasks attached to another job's in-flight
    #: compute instead of starting their own.
    coalesced: int = 0

    def status(self) -> dict:
        """The JSON-safe status document served by the API."""
        doc = {
            "job_id": self.job_id,
            "state": self.state,
            "label": self.spec.label,
            "spec": self.spec.describe(),
            "tasks": len(self.spec.tasks),
            "solver": self.spec.solver,
            "chip": self.spec.chip,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
        }
        if self.spec.deadline_s is not None:
            doc["deadline_s"] = self.spec.deadline_s
        if self.error is not None:
            doc["error"] = self.error
        if self.result is not None:
            doc["result"] = self.result
        return doc


@dataclass(eq=False)
class Subscription:
    """A subscriber's private, ordered view of one job's state changes.

    Notifications are plain dicts (``{"job_id", "state", ...}``) appended
    by the table; the consumer drains :attr:`pending` at its own pace.
    The asyncio layer additionally sets :attr:`listener` to push each
    notification into a bounded WebSocket stream the moment it happens.

    ``eq=False`` is load-bearing: two drained subscriptions to the same
    job are value-equal, and :meth:`JobTable.unsubscribe` must detach
    *this* subscriber, not the first look-alike in the list.
    """

    job_id: str
    pending: list[dict] = field(default_factory=list)
    #: Optional ``listener(notification)`` callable invoked on every push.
    listener: object = field(default=None, repr=False, compare=False)

    def drain(self) -> list[dict]:
        """All undelivered notifications, oldest first (and forget them)."""
        out, self.pending = self.pending, []
        return out


class JobTable:
    """All known jobs plus the state machine and notification fan-out.

    Not thread-safe by design: the service mutates it from the event-loop
    thread only, and the property suite drives it single-threaded.

    The optional ``observer`` is the journal hook: it is called
    ``observer("submit", job)`` the moment a job is created and
    ``observer("transition", job)`` after every state change is applied
    but *before* subscribers are notified — so a record reaches durable
    storage before any client can learn the state it describes.
    """

    def __init__(self, observer=None) -> None:
        self._jobs: dict[str, Job] = {}
        self._subs: dict[str, list[Subscription]] = {}
        self._next_id = 1
        #: Optional ``observer(event, job)`` hook (the journal).
        self.observer = observer
        #: Transition counters by target state (service /stats section).
        self.transitions: dict[str, int] = dict.fromkeys(JOB_STATES, 0)

    # -- creation and lookup -------------------------------------------
    def create(self, spec: JobSpec) -> Job:
        """Register a new queued job."""
        job = Job(job_id=f"job-{self._next_id:06d}", spec=spec)
        self._next_id += 1
        self._jobs[job.job_id] = job
        self.transitions[QUEUED] += 1
        if self.observer is not None:
            self.observer("submit", job)
        return job

    def restore(self, job: Job) -> None:
        """Re-insert a job reconstructed from the journal.

        No observer call (the journal already knows this job) and no
        subscriber notification (nobody can have subscribed yet — this
        runs before the server starts accepting connections).  The id
        counter is bumped past the restored id so new submissions never
        collide with replayed ones.
        """
        if job.job_id in self._jobs:
            raise ValueError(f"duplicate restore of {job.job_id!r}")
        self._jobs[job.job_id] = job
        suffix = job.job_id.rsplit("-", 1)[-1]
        if suffix.isdigit():
            self._next_id = max(self._next_id, int(suffix) + 1)

    def get(self, job_id: str) -> Job:
        """The job, or raise ``KeyError`` with the known ids."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job {job_id!r}") from None

    def jobs(self) -> list[Job]:
        """Every job, oldest first."""
        return list(self._jobs.values())

    def counts(self) -> dict[str, int]:
        """How many jobs currently sit in each state."""
        counts = dict.fromkeys(sorted(JOB_STATES), 0)
        for job in self._jobs.values():
            counts[job.state] += 1
        return counts

    # -- the state machine ---------------------------------------------
    def transition(self, job: Job, new_state: str, *,
                   error: str | None = None,
                   result: list[dict] | None = None) -> None:
        """Move ``job`` to ``new_state`` and notify every subscriber.

        Raises:
            InvalidTransition: ``new_state`` is not reachable from the
                job's current state; the job is left untouched.
        """
        if new_state not in JOB_STATES:
            raise InvalidTransition(
                f"{job.job_id}: unknown state {new_state!r}"
            )
        if new_state not in VALID_TRANSITIONS[job.state]:
            raise InvalidTransition(
                f"{job.job_id}: cannot go {job.state} -> {new_state}"
            )
        job.state = new_state
        if error is not None:
            job.error = error
        if result is not None:
            job.result = result
        self.transitions[new_state] += 1
        if self.observer is not None:
            self.observer("transition", job)
        self._notify(job)

    def cancel(self, job: Job) -> bool:
        """Cancel ``job`` if it is still live.

        Returns:
            True if this call cancelled the job, False if it was already
            terminal (cancelling a finished job is an API no-op, not an
            error — clients race completions all the time).
        """
        if job.state in TERMINAL_STATES:
            return False
        self.transition(job, CANCELLED)
        return True

    # -- subscriptions ---------------------------------------------------
    def subscribe(self, job_id: str) -> Subscription:
        """Follow a job's state changes from now on.

        The guarantee the property suite pins: if the job is *already*
        terminal, the terminal notification is delivered immediately —
        a subscriber can never block forever on a job that finished just
        before it subscribed.
        """
        job = self.get(job_id)
        sub = Subscription(job_id=job_id)
        self._subs.setdefault(job_id, []).append(sub)
        if job.state in TERMINAL_STATES:
            self._push(sub, self._notification(job))
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Stop delivering to ``sub`` (idempotent)."""
        subs = self._subs.get(sub.job_id, [])
        if sub in subs:
            subs.remove(sub)
            if not subs:
                del self._subs[sub.job_id]

    def _notification(self, job: Job) -> dict:
        return {"type": "job", **job.status()}

    def _push(self, sub: Subscription, notification: dict) -> None:
        sub.pending.append(notification)
        if sub.listener is not None:
            sub.listener(notification)

    def _notify(self, job: Job) -> None:
        notification = self._notification(job)
        for sub in self._subs.get(job.job_id, []):
            self._push(sub, notification)

"""Run provenance ledger: one atomic JSON manifest per harness run.

"Which code, which config, which seeds produced these numbers — and how
much of the work came from cache?"  Every ``simulate``/``sweep``/
``campaign`` invocation can answer that forever by writing a manifest
into a runs directory:

* **identity** — the config cache key, the source-tree fingerprint
  (:func:`~repro.harness.parallel.code_fingerprint`), seeds, and the
  canonical fault-schedule spec;
* **execution** — cache tier counts (memory / disk / compute), retry-wave
  and timeout stats, wall-clock, the timer table (``phases``: every
  timed region, plus the per-step phases when the profile was armed),
  and the solver work counters (``solver``);
* **environment** — host platform, Python version, and CPU count (the
  committed 0.95x parallel-speedup record taught us runs without the
  core count attached are uninterpretable).

Manifests are written atomically (same-directory temp file +
``os.replace``) so a killed run never leaves a half-written JSON, and
read back by ``solarcore runs list|show|diff``.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from pathlib import Path

from repro.telemetry import hub as telemetry_hub
from repro.telemetry.summary import WORK_COUNTER_PREFIXES

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "RunLedger",
    "build_manifest",
    "render_manifest",
    "render_run_list",
    "diff_manifests",
]

#: Bump when the manifest layout changes incompatibly; readers refuse
#: (with a clear message) rather than misinterpret a future layout.
MANIFEST_SCHEMA_VERSION = 1

#: Default runs directory, relative to the working directory.
DEFAULT_RUNS_DIR = "runs"

#: Telemetry counters summarized into the manifest's ``cache`` section.
_CACHE_COUNTERS = (
    "runner.cache_hits",
    "runner.cache_misses",
    "runner.computes",
    "cache.disk_hits",
    "cache.disk_misses",
    "cache.disk_stores",
)

#: Telemetry counters summarized into the manifest's ``sweep`` section.
_SWEEP_COUNTERS = (
    "sweep.retries",
    "sweep.timeouts",
    "sweep.salvaged_failures",
)


def host_info() -> dict:
    """The execution environment facts every manifest carries."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def build_manifest(
    command: str,
    argv: list[str] | None = None,
    *,
    config=None,
    seeds=None,
    faults: str | None = None,
    jobs: int | None = None,
    duration_s: float | None = None,
    telemetry=None,
    extra: dict | None = None,
) -> dict:
    """Assemble a schema-versioned manifest for one finished run.

    Args:
        command: The CLI subcommand (or harness entry point) that ran.
        argv: The invocation's arguments, verbatim.
        config: The run's :class:`~repro.core.config.SolarCoreConfig`
            (captured as its cache key, so two manifests compare equal
            exactly when the sweeps would share cache entries).
        seeds: Weather seeds used (None entries mean the standard trace).
        faults: Canonical fault-schedule spec, or None for fault-free.
        jobs: Worker processes requested.
        duration_s: End-to-end wall-clock of the run [s].
        telemetry: Hub whose counters and timers summarize the execution
            (the process-wide hub when omitted; the null hub contributes
            empty sections).
        extra: Free-form scenario fields merged in under ``extra``.
    """
    # Imported here: parallel imports telemetry, and keeping runledger
    # import-light lets the CLI load it before the simulation stack.
    from repro.harness.parallel import code_fingerprint, config_key
    from repro.multicore.spec import ChipSpec

    chip = getattr(config, "chip_spec", None)
    chip_identity = (
        ChipSpec.parse(chip).identity() if chip is not None else None
    )

    tel = telemetry if telemetry is not None else telemetry_hub.current()
    snap = tel.snapshot() if tel.enabled else {}
    counters = snap.get("counters", {})

    cache = {
        name.split(".", 1)[1]: counters[name]
        for name in _CACHE_COUNTERS
        if name in counters
    }
    sweep = {
        name.split(".", 1)[1]: counters[name]
        for name in _SWEEP_COUNTERS
        if name in counters
    }
    phases = {
        name: {"count": data["count"], "total_s": data["total"]}
        for name, data in snap.get("timers", {}).items()
    }
    solver = {
        name: value
        for name, value in counters.items()
        if name.startswith(WORK_COUNTER_PREFIXES)
    }

    manifest = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": command,
        "argv": list(argv) if argv is not None else [],
        "code_fingerprint": code_fingerprint(),
        "config_key": repr(config_key(config)) if config is not None else None,
        "chip": chip,
        "chip_identity": chip_identity,
        "seeds": list(seeds) if seeds is not None else [],
        "faults": faults,
        "jobs": jobs,
        "duration_s": duration_s,
        "cache": cache,
        "sweep": sweep,
        "phases": phases,
        "solver": solver,
        "days": counters.get("sim.days", 0.0),
        "host": host_info(),
    }
    if extra:
        manifest["extra"] = dict(extra)
    return manifest


class RunLedger:
    """A directory of run manifests, one atomic JSON file per run.

    Args:
        root: The runs directory (created on first record).
    """

    def __init__(self, root: str | Path = DEFAULT_RUNS_DIR) -> None:
        self.root = Path(root)

    def _unique_run_id(self, command: str) -> str:
        base = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
        run_id = f"{base}-{command}"
        n = 1
        # Same-second runs of the same command get a numeric suffix
        # instead of silently overwriting each other's manifest.
        while (self.root / f"{run_id}.json").exists():
            n += 1
            run_id = f"{base}-{command}-{n}"
        return run_id

    def record(self, manifest: dict) -> Path:
        """Atomically persist ``manifest``; returns the file written.

        The manifest gains a ``run_id`` field (derived from timestamp and
        command, uniquified against existing files).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        run_id = self._unique_run_id(manifest.get("command", "run"))
        manifest = dict(manifest, run_id=run_id)
        payload = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        path = self.root / f"{run_id}.json"
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def run_ids(self) -> list[str]:
        """Recorded run ids, oldest first."""
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.json"))

    def load(self, run_id: str) -> dict:
        """The manifest for ``run_id``.

        Raises:
            FileNotFoundError: No such run in this ledger.
            ValueError: The manifest was written by an unknown schema.
        """
        path = self.root / f"{run_id}.json"
        if not path.is_file():
            known = ", ".join(self.run_ids()) or "none recorded"
            raise FileNotFoundError(
                f"no run {run_id!r} under {self.root} (known: {known})"
            )
        manifest = json.loads(path.read_text(encoding="utf-8"))
        schema = manifest.get("schema")
        if schema != MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"run {run_id!r} has manifest schema {schema!r}; this build "
                f"reads schema {MANIFEST_SCHEMA_VERSION}"
            )
        return manifest

    def latest(self, n: int = 1) -> list[dict]:
        """The ``n`` most recent manifests, newest first."""
        ids = self.run_ids()
        return [self.load(run_id) for run_id in reversed(ids[-n:])]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_run_list(manifests: list[dict]) -> str:
    """One line per run: id, command, days, duration, cache shape."""
    from repro.harness.reporting import format_table

    rows = []
    for m in manifests:
        cache = m.get("cache", {})
        rows.append([
            m.get("run_id", "?"),
            m.get("command", "?"),
            _fmt(m.get("days")),
            _fmt(m.get("duration_s")),
            _fmt(cache.get("computes")),
            _fmt(cache.get("cache_hits")),
            _fmt(m.get("jobs")),
        ])
    return format_table(
        ["run", "command", "days", "wall [s]", "computed", "mem hits", "jobs"],
        rows,
    )


def render_manifest(manifest: dict) -> str:
    """The full manifest as readable key/value + phase sections."""
    from repro.harness.reporting import format_table
    from repro.telemetry.summary import format_duration

    lines = [
        f"run       {manifest.get('run_id', '?')}",
        f"created   {manifest.get('created', '?')}",
        f"command   {manifest.get('command', '?')} "
        + " ".join(manifest.get("argv", [])),
        f"code      {manifest.get('code_fingerprint', '?')[:16]}",
        f"config    {manifest.get('config_key') or '-'}",
        f"chip      {manifest.get('chip') or '-'}"
        + (
            f" ({manifest['chip_identity'][:16]})"
            if manifest.get("chip_identity")
            else ""
        ),
        f"seeds     {manifest.get('seeds') or '[standard trace]'}",
        f"faults    {manifest.get('faults') or '-'}",
        f"jobs      {_fmt(manifest.get('jobs'))}",
        f"days      {_fmt(manifest.get('days'))}",
        f"duration  {_fmt(manifest.get('duration_s'))} s",
    ]
    host = manifest.get("host", {})
    lines.append(
        f"host      {host.get('platform', '?')} "
        f"python={host.get('python', '?')} cpus={host.get('cpu_count', '?')}"
    )
    for section in ("cache", "sweep", "solver"):
        data = manifest.get(section, {})
        if data:
            rows = [[name, _fmt(value)] for name, value in sorted(data.items())]
            lines.append(f"\n{section}\n" + format_table(["key", "value"], rows))
    phases = manifest.get("phases", {})
    if phases:
        rows = [
            [name, _fmt(data["count"]), format_duration(data["total_s"])]
            for name, data in sorted(
                phases.items(), key=lambda kv: kv[1]["total_s"], reverse=True
            )
        ]
        lines.append("\nphases\n" + format_table(["phase", "calls", "total"], rows))
    return "\n".join(lines)


def diff_manifests(a: dict, b: dict) -> str:
    """A field-by-field comparison of two runs.

    Identity fields (fingerprint, config, seeds, faults) are compared
    exactly; numeric execution fields show both values plus the relative
    change, so "same code, same config, 2x slower" is one glance.
    """
    from repro.harness.reporting import format_table

    id_a = a.get("run_id", "a")
    id_b = b.get("run_id", "b")
    rows = []

    def identity(label: str, key: str) -> None:
        va, vb = a.get(key), b.get(key)
        rows.append([
            label,
            _fmt(va if key != "code_fingerprint" or va is None else va[:16]),
            _fmt(vb if key != "code_fingerprint" or vb is None else vb[:16]),
            "same" if va == vb else "DIFFERS",
        ])

    def numeric(label: str, va, vb) -> None:
        delta = "-"
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)) and va:
            delta = f"{(vb - va) / va:+.1%}"
        rows.append([label, _fmt(va), _fmt(vb), delta])

    identity("command", "command")
    identity("code", "code_fingerprint")
    identity("config", "config_key")
    identity("chip", "chip")
    identity("seeds", "seeds")
    identity("faults", "faults")
    numeric("days", a.get("days"), b.get("days"))
    numeric("duration_s", a.get("duration_s"), b.get("duration_s"))
    numeric("jobs", a.get("jobs"), b.get("jobs"))
    numeric(
        "cpu_count",
        a.get("host", {}).get("cpu_count"),
        b.get("host", {}).get("cpu_count"),
    )
    for section in ("cache", "sweep", "solver"):
        keys = sorted(set(a.get(section, {})) | set(b.get(section, {})))
        for key in keys:
            numeric(
                f"{section}.{key}",
                a.get(section, {}).get(key),
                b.get(section, {}).get(key),
            )
    phase_keys = sorted(set(a.get("phases", {})) | set(b.get("phases", {})))
    for key in phase_keys:
        numeric(
            f"phase.{key} [s]",
            a.get("phases", {}).get(key, {}).get("total_s"),
            b.get("phases", {}).get(key, {}).get("total_s"),
        )
    return format_table(["field", id_a, id_b, "delta"], rows)

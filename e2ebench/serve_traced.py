"""Launcher for a traced ``repro serve``: install the layer wrappers, then
run the CLI in this process.

Usage, from the checkout root::

    python3 e2ebench/serve_traced.py --trace-dir DIR serve [serve flags...]

The trace records are written to ``DIR/pid-<pid>.jsonl`` when the server
returns after its graceful drain (SIGTERM).
"""

from __future__ import annotations

import sys

import common

common.require_source()

import tracing  # noqa: E402


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--trace-dir":
        print("usage: serve_traced.py --trace-dir DIR serve [flags...]", file=sys.stderr)
        return 2
    tracer = tracing.install(sys.argv[2])
    from repro.cli import main as cli_main

    with tracer.span("service.process"):
        code = cli_main(sys.argv[3:])
    tracer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())

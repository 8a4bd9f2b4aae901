"""Every module under ``src/repro`` has a caller outside the tests.

A module that only tests import is a shadow: a second implementation of
something no simulation, CLI command, service path, benchmark or example
runs.  This test walks the import graph statically (stdlib :mod:`ast`; it
imports none of the modules it checks) from the program's entry points:

* ``repro.cli``, ``repro.__main__`` and the top-level ``repro`` API;
* every ``repro`` import in ``benchmarks/``, ``examples/`` and
  ``e2ebench/``.

From there it follows the imports of every reached module, function-level
imports included.  ``from package import name`` resolves through the
package ``__init__``'s re-exports to the module that defines ``name``, but
a package ``__init__`` importing a module is not itself a use: re-exporting
a shadow model does not make anything run it.

The modules left unreached must be exactly :data:`ALLOWLIST`.  A new
orphan fails, and so does an allowlisted module that gains a caller (it
must then leave the list).

The same walk checks that the package has no environment knobs: no module
reads or sets an environment variable (``os.environ``, ``os.getenv``,
``os.putenv``), so arguments and config alone decide what a run does.

A last check starts a fresh interpreter, imports every program entry, runs
a short day on each solver and an MPP solve, and finds no ``scipy`` module
loaded: SciPy is a test-time reference, not a start-up cost.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO / "src" / "repro"

#: Modules with no caller outside the tests, each with why it stays.
ALLOWLIST = {
    "repro.environment.midc": (
        "the documented path for measured NREL MIDC data: a user with "
        "downloaded station CSV exports feeds measured days through it"
    ),
    "repro.workloads.characterization": (
        "the Table 5 EPI oracle: measures each benchmark's energy per "
        "instruction on the simulated core and re-derives its class"
    ),
    "repro.harness.validation": (
        "the paper's Section 5 MATLAB/Simulink validation step: the "
        "standalone MPPT correctness gate over environments and loads"
    ),
}

#: Program files outside the package that count as callers.
CALLER_DIRS = ("benchmarks", "examples", "e2ebench")


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


#: ``{dotted name: source file}`` for every module of the package.
MODULES = {_module_name(p): p for p in sorted(PACKAGE_ROOT.rglob("*.py"))}
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(path: Path):
    """``(module, name)`` for every import in the file, at any depth.

    ``import a.b`` yields ``("a.b", None)``; ``from a import b`` yields
    ``("a", "b")``.
    """
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.module, alias.name


@lru_cache(maxsize=None)
def _reexports(package: str) -> dict[str, tuple[str, str | None]]:
    """``{bound name: (module, name)}`` for a package ``__init__``'s
    top-level imports."""
    bound = {}
    for node in _tree(MODULES[package]).body:
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = (alias.name, None)
    return bound


def _target(module: str, name: str | None) -> str | None:
    """The ``repro`` module an import uses, or None for other packages."""
    if name is not None:
        if f"{module}.{name}" in MODULES:
            return f"{module}.{name}"
        if module in PACKAGES and name in _reexports(module):
            return _target(*_reexports(module)[name])
    return module if module in MODULES else None


def _root_files() -> list[Path]:
    roots = [PACKAGE_ROOT / "cli.py", PACKAGE_ROOT / "__main__.py",
             PACKAGE_ROOT / "__init__.py"]
    for directory in CALLER_DIRS:
        roots.extend(sorted((REPO / directory).rglob("*.py")))
    return roots


def reached_modules() -> set[str]:
    """Every module the entry points reach through their imports."""
    reached = {"repro.cli", "repro.__main__"}
    todo = _root_files()
    while todo:
        for module, name in _imports(todo.pop()):
            target = _target(module, name)
            if target is None or target in reached:
                continue
            reached.add(target)
            if target not in PACKAGES:
                todo.append(MODULES[target])
    return reached


def unreached_modules() -> set[str]:
    """Non-package modules no entry point reaches."""
    return set(MODULES) - PACKAGES - reached_modules()


def test_every_module_has_a_caller_outside_the_tests():
    unreached = unreached_modules()
    orphans = sorted(unreached - set(ALLOWLIST))
    stale = sorted(set(ALLOWLIST) - unreached)
    assert not orphans and not stale, (
        f"modules only tests import (delete them, or allowlist one with "
        f"its reason): {orphans}; allowlisted modules that gained a caller "
        f"or are gone (drop them from ALLOWLIST): {stale}"
    )


#: The ``os`` names through which code reads or sets the environment.
ENVIRONMENT_NAMES = {"environ", "getenv", "putenv"}


def environment_uses(path: Path) -> list[str]:
    """``file:line os.name`` for every environment access in the file."""
    tree = _tree(path)
    os_names = set()
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "os":
                    os_names.add(alias.asname or "os")
                elif alias.name.startswith("os.") and alias.asname is None:
                    os_names.add("os")  # ``import os.path`` binds ``os``
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            uses.extend(
                (node.lineno, alias.name) for alias in node.names
                if alias.name in ENVIRONMENT_NAMES
            )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENVIRONMENT_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id in os_names
        ):
            uses.append((node.lineno, node.attr))
    where = path.relative_to(PACKAGE_ROOT)
    return [f"{where}:{line} os.{name}" for line, name in sorted(uses)]


def test_the_package_reads_no_environment_variables():
    uses = [use for path in MODULES.values() for use in environment_uses(path)]
    assert not uses, f"environment variable uses in src/repro: {uses}"


#: Imports every program entry, runs one short day on each solver and an
#: MPP solve, then prints the ``scipy`` packages that got loaded.
STARTUP_SCRIPT = """
import sys

import repro
import repro.cli
import repro.harness.experiments
import repro.harness.paper_summary
import repro.harness.runner
import repro.service.app
from repro.core.config import SolarCoreConfig
from repro.core.simulation import run_day
from repro.environment.locations import location_by_code
from repro.pv.array import PVArray
from repro.pv.mpp import find_mpp

site = location_by_code("AZ")
for solver in ("exact", "table"):
    day = run_day("HM2", site, 7, config=SolarCoreConfig(step_minutes=30.0, solver=solver))
    assert day.retired_ginst_solar > 0.0, solver
assert find_mpp(PVArray(), 800.0, 40.0).power > 0.0
print(sorted({
    ".".join(name.split(".")[:2]) for name in sys.modules
    if name.partition(".")[0] == "scipy"
}))
"""


def test_starting_and_running_the_package_loads_no_scipy():
    path = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT.parent), os.environ.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]", run.stdout

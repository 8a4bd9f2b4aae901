"""Shared fixtures for the SolarCore reproduction test suite."""

from __future__ import annotations

import logging

import pytest

from repro.core.config import SolarCoreConfig
from repro.core.dayenv import clear_environments
from repro.multicore.chip import MultiCoreChip
from repro.pv.array import PVArray
from repro.pv.module import PVModule
from repro.pv.params import bp3180n
from repro.workloads.mixes import mix


@pytest.fixture(autouse=True)
def _restore_repro_logger():
    """Undo any logging configuration a test installs on ``repro``.

    ``configure_logging`` (and the CLI's ``--log-level``) attach a stream
    handler and turn ``propagate`` off; left in place, every later
    ``caplog`` test would stop seeing ``repro`` records.
    """
    logger = logging.getLogger("repro")
    saved = (list(logger.handlers), logger.level, logger.propagate)
    yield
    handlers, level, propagate = saved
    for handler in logger.handlers:
        if handler not in handlers:
            handler.close()
    logger.handlers[:] = handlers
    logger.setLevel(level)
    logger.propagate = propagate


@pytest.fixture(autouse=True)
def _empty_environment_memo():
    """Run every test on an empty day-environment memo, and leave it empty.

    A process solves each cell's environment once; without this a test's
    solve and build counts would depend on which tests ran before it in
    the same process (and pool workers fork with the parent's memo).
    """
    clear_environments()
    yield
    clear_environments()


@pytest.fixture
def module() -> PVModule:
    """A BP3180N module."""
    return PVModule(bp3180n())


@pytest.fixture
def array() -> PVArray:
    """A single-module BP3180N array."""
    return PVArray()


@pytest.fixture
def chip_hm2() -> MultiCoreChip:
    """An 8-core chip running the heterogeneous HM2 mix."""
    return MultiCoreChip(mix("HM2"))


@pytest.fixture
def chip_h1() -> MultiCoreChip:
    """An 8-core chip running the homogeneous high-EPI H1 mix."""
    return MultiCoreChip(mix("H1"))


@pytest.fixture
def fast_config() -> SolarCoreConfig:
    """A coarse-step configuration for fast day simulations in tests."""
    return SolarCoreConfig(step_minutes=5.0)

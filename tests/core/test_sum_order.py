"""Day results do not depend on how the interpreter's ``sum()`` adds floats.

From Python 3.12 the builtin ``sum()`` adds floats with compensated
(Neumaier) summation; up to 3.11 it added them in order.  Every sum that
feeds a day result adds in order itself (``repro.fold.left_sum``, or a
loop), so golden cells computed with ``builtins.sum`` replaced by a
compensated sum must still give the committed fixture bytes.
"""

from __future__ import annotations

import builtins
import math
import pickle

import pytest

from repro.core.simulation import run_day, run_day_battery, run_day_fixed
from repro.environment.locations import location_by_code
from repro.fold import left_sum
from repro.fullsystem.simulation import run_day_fullsystem
from repro.rack.simulation import run_day_rack

from tests.golden.capture_fixtures import (
    BATTERY_CELLS,
    CONFIGS,
    FIXED_CELLS,
    FIXTURE_PATH,
    FULLSYSTEM_CELLS,
    MPPT_CELLS,
    RACK_CELLS,
)
from tests.golden.test_golden_equivalence import assert_bytes_identical

_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """Python 3.12's ``sum()`` of floats: Neumaier's compensated sum.

    Anything but an all-float iterable with a number start goes to the
    interpreter's own ``sum()``.
    """
    items = list(iterable)
    if (
        not items
        or type(start) not in (int, float)
        or any(type(item) is not float for item in items)
    ):
        return _builtin_sum(items, start)
    total = float(start)
    compensation = 0.0
    for item in items:
        step = total + item
        if abs(total) >= abs(item):
            compensation += (total - step) + item
        else:
            compensation += (item - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


#: (kind, cell, day function): one golden cell of every day kind.
DAYS = [
    ("mppt", MPPT_CELLS[0], run_day),
    ("mppt", next(cell for cell in MPPT_CELLS if cell[-1] == "featureful"), run_day),
    ("fixed", FIXED_CELLS[0], run_day_fixed),
    ("battery", BATTERY_CELLS[0], run_day_battery),
    ("fullsystem", FULLSYSTEM_CELLS[0], run_day_fullsystem),
    *(("rack", cell, run_day_rack) for cell in RACK_CELLS),
]


def test_compensated_sum_differs_from_an_ordered_sum():
    values = [1e16, 1.0, -1e16]
    assert left_sum(values) == 0.0
    assert compensated_sum(values) == 1.0
    assert compensated_sum([0.1] * 10) == 1.0 != left_sum([0.1] * 10)


@pytest.mark.parametrize(
    "kind, cell, day", DAYS, ids=[f"{kind}-{i}" for i, (kind, *_) in enumerate(DAYS)]
)
def test_golden_cell_under_a_compensated_sum(kind, cell, day, monkeypatch):
    with open(FIXTURE_PATH, "rb") as handle:
        expected = pickle.load(handle)[(kind, *cell)]
    first, site, month, *params, cfg = cell
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    actual = day(first, location_by_code(site), month, *params, config=CONFIGS[cfg])
    monkeypatch.undo()
    assert_bytes_identical(expected, actual)

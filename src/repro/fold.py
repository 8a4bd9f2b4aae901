"""Float sums whose bits do not depend on the Python version.

From Python 3.12 the builtin ``sum()`` adds floats with compensated
(Neumaier) summation, so a quantity summed with it differs in its last
bits between interpreters.  :func:`left_sum` adds in order, one rounding
per term, as ``sum()`` did up to 3.11.  Every sum that feeds a day result
goes through it, or through a loop of the same order; the batched day
path (:mod:`repro.core.fastday`) folds its running sums the same way.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = ["left_sum"]


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, starting from 0.0."""
    total = 0.0
    for value in values:
        total += value
    return total

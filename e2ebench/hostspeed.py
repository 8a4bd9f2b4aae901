"""Host speed, sampled beside every untraced run, and the rescaling of the
benchmark's times to a fixed reference speed.

The benchmark runs on a share of a machine whose CPU speed drifts: the
same pure-Python loop takes between 1x and 2x its fastest time, in spells
of seconds to minutes, in CPU time as well as wall time.  Raw host times
of the same code therefore move between runs by more than the bounds in
``BENCHMARK.json``.

So ``run.py`` starts this file as a separate process for every untraced
run.  Every ``PERIOD_S`` it times a fixed loop, which runs no program
code, in thread CPU time, and appends ``<perf_counter> <ms>`` to a file.
``run.py`` divides each interval it measures by the host's slowdown over
that interval::

    slowdown(t0, t1) = mean loop time over [t0, t1] / REFERENCE_MS

A reported time is thus the time the interval would have taken at the
reference speed, where the loop takes ``REFERENCE_MS``; a rate is scaled
the other way.  The loop runs in its own process so that it never holds
the load generator's GIL, and it costs about 1.5% of one core.  The raw
times are printed on stderr beside the metrics.

The loop reads a fixed sequence of random entries of a 1M-entry list,
once untimed and then timed, so it waits on memory and the caches as the
program does.  Against batch iterations of the same code, it left less
spread than a loop of integer arithmetic did: 0.047 against 0.079 of the
iteration time on ``figures_exact``, 0.075 against 0.111 on
``grid_table``.

Usage: ``python3 e2ebench/hostspeed.py FILE`` samples until SIGTERM.
"""

from __future__ import annotations

import bisect
import random
import subprocess
import sys
import time
from pathlib import Path

#: Random reads per timed pass (about 1 ms on the benchmark's host).
READS = 20_000
PERIOD_S = 0.1
#: The loop's time at the reference speed, about this host's usual speed.
REFERENCE_MS = 0.75
#: Fewest samples a slowdown averages; a shorter interval takes the
#: samples nearest to it.
MIN_SAMPLES = 10


def _reads(table: list[int], indices: list[int]) -> int:
    acc = 0
    for i in indices:
        acc += table[i]
    return acc


def loop_ms(table: list[int], indices: list[int]) -> float:
    """Thread CPU time of the second of two passes of the fixed reads, in ms."""
    _reads(table, indices)
    start = time.thread_time_ns()
    _reads(table, indices)
    return (time.thread_time_ns() - start) / 1e6


class HostSpeed:
    """The samples of one run, and the slowdown over any interval of it."""

    def __init__(self, samples: list[tuple[float, float]]) -> None:
        if len(samples) < MIN_SAMPLES:
            raise RuntimeError(f"only {len(samples)} host-speed samples")
        samples = sorted(samples)
        self.times = [t for t, _ in samples]
        self._sums = [0.0]
        for _, ms in samples:
            self._sums.append(self._sums[-1] + ms)

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean loop time over ``[t0, t1]`` (``perf_counter`` times) as a
        multiple of ``REFERENCE_MS``."""
        times = self.times
        lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
        while hi - lo < MIN_SAMPLES:
            if hi == len(times) or (lo > 0 and t0 - times[lo - 1] < times[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return (self._sums[hi] - self._sums[lo]) / (hi - lo) / REFERENCE_MS

    def scaled(self, t0: float, t1: float) -> float:
        """The interval's length at the reference speed, in seconds."""
        return (t1 - t0) / self.slowdown(t0, t1)


class Sampler:
    """The sampling process, for the duration of a ``with`` block."""

    def __init__(self, path: Path, env: dict[str, str]) -> None:
        self.path = path
        self._env = env

    def __enter__(self) -> "Sampler":
        self._proc = subprocess.Popen([sys.executable, __file__, str(self.path)],
                                      env=self._env)
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        self._proc.wait()

    def read(self) -> HostSpeed:
        """Every sample written so far (the text after the last newline
        may be a half-written line)."""
        lines = self.path.read_text().split("\n")[:-1]
        return HostSpeed([tuple(map(float, line.split())) for line in lines])


def main() -> None:
    table = list(range(1 << 20))
    indices = [random.Random(1).randrange(len(table)) for _ in range(READS)]
    with open(sys.argv[1], "w", buffering=1) as out:
        while True:
            out.write(f"{time.perf_counter():.6f} {loop_ms(table, indices):.6f}\n")
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main()

"""Host pace: fixed reference tasks timed beside the workload.

On a shared cloud VM the speed of one vCPU swings by up to 1.6x over
seconds to minutes as other tenants load its physical core (the two vCPUs
of the calibration VM swing independently), and an fsync waits 2-3x
longer when they load the disk. Raw wall times of the same code then
spread by 25-65% between runs, more than any bound a metric may have. So
every part runs two fixed reference tasks — one on the core
(pure Python and numpy, no program code, ~0.6 ms), one on the disk (a
1 KiB append and fsync, as a WAL sync does) — every ``EVERY_NS`` of
workload time, and reports each time *at the reference pace*::

    reported = on-core time * CORE_NS / (core reference time around it)
             + disk wait    * DISK_NS / (disk reference time around it)

where the disk wait is the time spent in ``WriteAheadLog.sync()`` and the
on-core time is the rest. ``CORE_NS`` and ``DISK_NS`` are the references'
times on the calibration VM in a quiet period, so reported times read as
that VM's at its quiet speed. A slower program makes the workload slower
and leaves the references alone, so it shows in full; a slower host slows
both and mostly cancels out. The references run between requests, never
while one is in flight, and their own time is left out of every interval.
Raw wall times stay in the result file.
"""

from __future__ import annotations

import bisect
import os
import random
import time
from typing import Callable, List, Sequence

import numpy as np

#: The references' median times on the calibration VM (2-core Intel Xeon
#: KVM guest, ext4 on a virtio disk, Python 3.11, numpy 2) in a quiet period.
CORE_NS = 600_000
DISK_NS = 200_000
#: Workload time between two reference runs.
EVERY_NS = 100_000_000
#: Reference runs on each side of a mark whose median sets its pace.
HALF_WINDOW = 3


class Reference:
    """The core task: random reads of 4,096 float objects and of a
    1,024-entry dict, numpy binary searches and a small sort. Its working
    set (~0.3 MB) stays in the core's own caches, so its time follows the
    core's speed and not what the workload left in memory."""

    def __init__(self):
        rng = random.Random(7)
        n = 1 << 12
        self.objs = [rng.random() for _ in range(n)]
        order = list(range(n))
        rng.shuffle(order)
        self.probe = order[:3000]
        self.table = {rng.randrange(1 << 40): i for i in range(n // 4)}
        self.table_keys = list(self.table)[:1000] + [rng.randrange(1 << 40) for _ in range(1000)]
        self.column = np.sort(np.array([rng.randrange(1 << 40) for _ in range(n // 4)], dtype=np.int64))
        self.needles = np.array(self.table_keys[:16], dtype=np.int64)
        self.small = [rng.randrange(1 << 30) for _ in range(1500)]

    def run(self) -> float:
        total = 0.0
        objs = self.objs
        for i in self.probe:
            total += objs[i]
        table = self.table
        for key in self.table_keys:
            total += table.get(key, 0)
        for _ in range(50):
            np.searchsorted(self.column, self.needles)
        sorted(self.small)
        return total


class Pace:
    """Reference runs of one process and the pace they give each interval.

    ``disk_path`` names the disk reference's file, next to the workload's
    WAL so that both share a file system. With ``every_core`` the core
    reference runs once on each core this process may use, pinned in turn,
    and its time is their mean: the pace of work in another process, which
    the scheduler may put on any of them."""

    def __init__(self, disk_path: str, every_core: bool = False):
        self.clock = time.perf_counter_ns
        self.disk_path = disk_path
        self.cores = sorted(os.sched_getaffinity(0)) if every_core else []
        self.block = bytes(1024)
        self.reference = Reference()
        self.reference.run()  # first touch of its memory
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.took: List[int] = []
        self.synced: List[int] = []
        self._factors: List[tuple] = []

    def _core_run_ns(self) -> int:
        """One timed run of the core reference, after an untimed one, so it
        finds its own data in the caches whatever the workload left there:
        a program that pollutes the caches more does not slow the reference
        and so is not excused by it."""
        self.reference.run()
        start = self.clock()
        self.reference.run()
        return self.clock() - start

    def mark(self, times: int = 1) -> None:
        """Time each reference ``times`` times."""
        clock = self.clock
        for _ in range(times):
            start = clock()
            if self.cores:
                took = 0
                for core in self.cores:
                    os.sched_setaffinity(0, {core})
                    took += self._core_run_ns()
                os.sched_setaffinity(0, self.cores)
                took //= len(self.cores)
            else:
                took = self._core_run_ns()
            with open(self.disk_path, "ab", buffering=0) as fobj:
                fobj.write(self.block)
                sync_start = clock()
                os.fsync(fobj.fileno())
                end = clock()
            self.starts.append(start)
            self.ends.append(end)
            self.took.append(took)
            self.synced.append(end - sync_start)

    def tick(self) -> None:
        """Run the references if ``EVERY_NS`` has passed since the last run."""
        if not self.ends or self.clock() - self.ends[-1] >= EVERY_NS:
            self.mark()

    def factors(self) -> List[tuple]:
        """(core, disk) factor of each reference run: the nominal time over
        the median time of the runs around it."""
        if len(self._factors) != len(self.took):
            self._factors = [
                (CORE_NS / _median(self.took[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1]),
                 DISK_NS / _median(self.synced[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1]))
                for i in range(len(self.took))
            ]
        return self._factors

    def factor_at(self, t_ns: int) -> tuple:
        """The (core, disk) factor of the reference run nearest to ``t_ns``."""
        if not self.took:
            raise ValueError("no reference run recorded")
        i = bisect.bisect_left(self.starts, t_ns)
        if i == len(self.starts) or (i > 0 and t_ns - self.ends[i - 1] < self.starts[i] - t_ns):
            i -= 1
        return self.factors()[i]

    def scale(self, intervals: Sequence[tuple]) -> List[int]:
        """The length of each interval at the pace around it. An interval is
        (start, end) on the core, or (start, mid, end) when [mid, end] is
        spent waiting on the disk."""
        out = []
        for x in intervals:
            start, end = x[0], x[-1]
            core, disk = self.factor_at((start + end) // 2)
            if len(x) == 3:
                out.append(round((x[1] - start) * core + (end - x[1]) * disk))
            else:
                out.append(round((end - start) * core))
        return out

    def span_ns(self, t0: int, t1: int, waits: Sequence[tuple] = ()) -> float:
        """The interval [t0, t1] at the reference pace, reference runs left out.

        Each stretch between two reference runs counts at the core pace at
        its middle, except the (start, end) ``waits`` on the disk within it,
        which count at the disk pace."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        total = 0.0
        at = t0
        for i in range(lo, hi):
            if self.starts[i] > at:
                total += (self.starts[i] - at) * self.factor_at((self.starts[i] + at) // 2)[0]
            at = max(at, self.ends[i])
        if t1 > at:
            total += (t1 - at) * self.factor_at((t1 + at) // 2)[0]
        for start, end in waits:
            core, disk = self.factor_at((start + end) // 2)
            total += (end - start) * (disk - core)
        return total

    def measure(self, fn: Callable[[], object], marks: int = HALF_WINDOW + 1) -> tuple:
        """Call ``fn`` between two groups of reference runs; return its
        result, its raw duration and its duration at the core pace (s)."""
        self.mark(marks)
        start = self.clock()
        out = fn()
        end = self.clock()
        self.mark(marks)
        return out, (end - start) / 1e9, self.span_ns(start, end) / 1e9


def _median(values: Sequence[int]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0

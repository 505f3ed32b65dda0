"""Host-speed calibration for the end-to-end timings.

The benchmark host is shared: other tenants slow it down in phases lasting
from a tenth of a second to tens of seconds, so a raw figure from one run
mostly says how much of the run fell into slow phases.  The harness therefore
times every operation next to a fixed pure-Python kernel: a burst of
``BURST`` kernel calls right before the operation and another right after.
The operation's time at nominal host speed is its wall time multiplied by
``NOMINAL_S`` over the median kernel time of those two bursts.  A median of
nearby samples follows the slow phases; a mean over the whole run did not,
because the kernel's times have a long tail of stalls.  Over 60 CLI
invocations, the interquartile range of single invocations fell from 14 % of
the median raw to 7 % calibrated, and the medians of blocks of ten varied
by 2.5 % calibrated against 9 % raw.

The kernel belongs to the benchmark, not to factorcrit, so no change to the
program moves it.  It stresses what the program stresses: a memoised
recursion over vertex bitsets, as in the perfect-matching memo, and small
tuple, list and string building.
"""

from __future__ import annotations

import multiprocessing
import random
import statistics
from time import perf_counter

NOMINAL_S = 0.002  # kernel time that defines nominal host speed
BURST = 5  # kernel calls on each side of a timed operation
_ORDER = 16


def _graph() -> tuple[int, ...]:
    rng = random.Random(2207)
    adj = [0] * _ORDER
    for u in range(_ORDER):
        for v in range(u + 1, _ORDER):
            if rng.random() < 0.4:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return tuple(adj)


_ADJ = _graph()


def kernel() -> int:
    adj = _ADJ
    full = (1 << _ORDER) - 1
    memo = {0: True}

    def matchable(mask: int) -> bool:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        found = False
        if not mask.bit_count() & 1:
            low = mask & -mask
            rest = mask ^ low
            nbrs = adj[low.bit_length() - 1] & rest
            while nbrs and not found:
                w = nbrs & -nbrs
                nbrs ^= w
                found = matchable(rest ^ w)
        memo[mask] = found
        return found

    hits = sum(matchable(full & ~(1 << a) & ~(1 << b)) for a in range(_ORDER) for b in range(a + 1, _ORDER))
    rows = [tuple(sorted((i * 7919) % 1009 for i in range(j, j + 40))) for j in range(200)]
    text = "".join(chr(63 + (row[0] & 63)) for row in rows)
    return hits + len(text) + len(memo)


def _burst(_index: int = 0) -> list[float]:
    times = []
    for _ in range(BURST):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return times


class Calibration:
    """Kernel bursts taken through one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def burst(self, processes: int = 1) -> list[float]:
        """Times of ``BURST`` kernel calls made now, in each of ``processes``
        processes at once: an operation that keeps several CPUs busy is
        calibrated on as many."""
        if processes == 1:
            times = _burst()
        else:
            with multiprocessing.get_context("fork").Pool(processes) as pool:
                times = [t for part in pool.map(_burst, range(processes), chunksize=1) for t in part]
        self.samples.extend(times)
        return times

    @staticmethod
    def nominal(seconds: float, before: list[float], after: list[float]) -> float:
        """``seconds`` of wall time between two bursts, at nominal host speed."""
        return seconds * NOMINAL_S / statistics.median(before + after)

    def timed(self, call, processes: int = 1):
        """``call()`` between two bursts: (result, nominal seconds)."""
        before = self.burst(processes)
        start = perf_counter()
        result = call()
        elapsed = perf_counter() - start
        return result, self.nominal(elapsed, before, self.burst(processes))

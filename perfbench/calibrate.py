"""A fixed piece of interpreter work that gauges how fast the machine is right now.

On a shared machine other tenants slow this process by up to about two
times, in phases that last from under a second to minutes; a median over
one run cannot remove a slow phase that covers the whole run.  The kernel
below is timed between consecutive operations.  It runs the same kinds of
work the operations do -- bytecode loops, float arithmetic, small objects,
NumPy scalar reads and CSV formatting -- so it slows with them, if not
fully, and an operation's time scaled by ``REFERENCE_S`` over the mean
kernel time just before and after it is close to its time on the machine
at its usual speed.

``REFERENCE_S`` is roughly the kernel's time on a 2-vCPU 2.0 GHz x86-64 VM
with Python 3.11 and NumPy 2.4 when nothing else runs there.  It only
sets the scale of the reported numbers, which compare across commits
measured on the same machine.
"""

from __future__ import annotations

import csv
import io
from time import perf_counter

import numpy as np

REFERENCE_S = 0.05

_TABLE = np.random.default_rng(0).random(4096)


class _Rec:
    __slots__ = ("i", "p", "a", "r")

    def __init__(self, i, p, a, r):
        self.i, self.p, self.a, self.r = i, p, a, r


def _work() -> int:
    s = 0.0
    for i in range(200_000):
        s += i * 0.5
    writer = csv.writer(io.StringIO())
    ledger: list[tuple[int, float]] = []
    recs = []
    for i in range(1, 6000):
        a = float(_TABLE[i & 4095]) * 0.2
        acc = 0.0
        for j, level in ledger[-8:]:
            acc += level * float(_TABLE[(i - j) & 4095])
        rec = _Rec(i, a * 0.5, a + acc, a < 0.05)
        recs.append(rec)
        if rec.r:
            ledger.append((i, rec.a))
        if i % 4 == 0:
            writer.writerow([rec.i, repr(rec.p), repr(rec.a), int(rec.r)])
    return len(recs) + int(s)


def kernel_seconds() -> float:
    """Wall time of one pass of the kernel."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0

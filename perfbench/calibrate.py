"""A fixed pure-Python workload that measures the machine's current speed.

On a shared machine the same code runs slower or faster from one
second to the next, as other programs load the cores and caches.  The
kernel here does a fixed amount of the kind of work the simulator does,
an interpreter loop over a binary heap of timestamped events, with
slotted event objects and per-key queues in a dict.  It is written
here, independent of the program under test, so its CPU time moves
only with the machine.
"""

from __future__ import annotations

import gc
import heapq
from typing import Callable


class _Event:
    __slots__ = ("t", "key", "value")

    def __init__(self, t: float, key: int, value: int):
        self.t = t
        self.key = key
        self.value = value


def kernel(steps: int = 30_000) -> int:
    """Process ``steps`` events; returns a checksum of the final state."""
    heap = []
    queues = {}
    x = 12345
    seq = 0
    for i in range(64):
        heapq.heappush(heap, (i * 0.5, seq, _Event(i * 0.5, i % 16, i)))
        seq += 1
    for _ in range(steps):
        t, _, event = heapq.heappop(heap)
        queue = queues.get(event.key)
        if queue is None:
            queue = queues[event.key] = []
        queue.append(event.value)
        if len(queue) > 32:
            del queue[:16]
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (t + (x % 1000) / 1000.0, seq,
                              _Event(t, x % 16, x)))
        seq += 1
    return x + len(heap) + sum(len(q) for q in queues.values())


#: The kernel's result at its default size: a wrong result means the
#: kernel did not do the work it is timed for.
CHECKSUM = 1736574201


def sample(cpu_s: Callable[[], float]) -> float:
    """CPU seconds of one kernel run, read with the clock ``cpu_s``.

    Garbage is collected first and collection held off, so the program
    that ran before leaves the kernel no work.
    """
    gc.collect()
    gc.disable()
    try:
        c0 = cpu_s()
        result = kernel()
        seconds = cpu_s() - c0
    finally:
        gc.enable()
    if result != CHECKSUM:
        raise RuntimeError("calibration kernel returned a wrong checksum")
    return seconds

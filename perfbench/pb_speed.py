"""Host-speed reference for the simulator workloads: a fixed pure-Python
loop timed next to the work.

On a shared host the CPU time of unchanged code drifts with the load on
sibling cores: one simulation repetition took 190-300 ms within a
minute on the 2-vCPU reference host. The reference loop (heap, dict and
slotted-object work, like the simulator's) drifts with it. Times are
therefore reported at *reference speed*: multiplied by
``NOMINAL_S / measured reference``, as if the loop had taken exactly
``NOMINAL_S``. The loop is part of the benchmark, never of the program,
so it is identical on both sides of any comparison. Raw values are
printed beside the normalized ones.
"""

from __future__ import annotations

import heapq
import time

#: CPU seconds the reference loop is normalized to.
NOMINAL_S = 0.030


class _Node:
    __slots__ = ("key", "value", "hits")

    def __init__(self, key: int, value: str) -> None:
        self.key = key
        self.value = value
        self.hits = 0

    def bump(self, by: int) -> int:
        self.hits += by
        return self.hits


def _reference_loop(rounds: int = 20_000) -> int:
    heap: list = []
    table: dict = {}
    for i in range(rounds):
        heapq.heappush(heap, ((i * 7919) % 1000 / 1000.0, i, _Node(i, str(i))))
        if len(heap) > 64:
            __, __, node = heapq.heappop(heap)
            table[node.key % 512] = node
            node.bump(len(table))
    return len(table)


def reference_s() -> float:
    """CPU seconds of one pass of the reference loop."""
    start = time.process_time()
    _reference_loop()
    return time.process_time() - start


def scale(reference: float) -> float:
    """Factor that converts a time measured next to *reference*."""
    return NOMINAL_S / reference


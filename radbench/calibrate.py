"""Fixed reference kernel that measures how fast this machine runs Python now.

``python3 radbench/calibrate.py`` prints the CPU seconds the kernel took.
The run script executes it in a fresh interpreter before and after every
pass and scales host times by ``reference / measured``, so a machine that
is slower for a while (shared cores, frequency changes) does not read as a
regression.  The kernel imitates the simulator's hot loop (a timer heap of
slotted events, a generator fed with string keys, dict-of-dict updates) and
imports nothing from the program, so no change to the program moves it.
"""

from __future__ import annotations

import heapq
import random
import time

ITERATIONS = 300_000
KEYS = 40_000


class _Event:
    __slots__ = ("at", "key", "seq")

    def __init__(self, at: float, key: str, seq: int) -> None:
        self.at = at
        self.key = key
        self.seq = seq


def _consumer(store: dict):
    while True:
        key = yield
        item = store.get(key)
        if item is None:
            store[key] = item = {"value": 0, "history": []}
        item["value"] += 1
        if len(item["history"]) < 8:
            item["history"].append(key)


def kernel_cpu_s() -> float:
    rng = random.Random(7)
    keys = [f"user:{i}:{i * 7919 % 1000}" for i in range(KEYS)]
    consumer = _consumer({})
    next(consumer)
    heap: list = []
    started = time.process_time()
    for i in range(ITERATIONS):
        heapq.heappush(heap, (rng.random() * 1000.0 + i, i, _Event(i, keys[rng.randrange(KEYS)], i)))
        if len(heap) > 2000:
            consumer.send(heapq.heappop(heap)[2].key)
    return time.process_time() - started


if __name__ == "__main__":
    print(repr(kernel_cpu_s()))

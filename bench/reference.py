"""A fixed reference task, timed beside every call to gauge the host's speed.

On a virtual machine that shares its host with other jobs, the same Python
code runs up to 1.8 times slower for seconds to minutes at a time, and no
statistic of one run's own timings removes a slow stretch that lasts the
whole run. The reference task is plain Python object work of the kind the
program does — a dict of float lists, dot products, a sort — written here
and never changed by a change to the program. It slows with the host as
the program does: on such a host, ten-second medians of
``retrieval.query``, ``GraphStore.load`` and ``GraphStore.save`` spread
35%, 35% and 25% raw, and 3%, 5% and 6% as multiples of this task's time.
"""

from __future__ import annotations

import random
from time import perf_counter

ROWS = 600
DIM = 64
TOP = 20
REPEATS = 2


class Reference:
    def __init__(self):
        rng = random.Random(0)  # the same task for every seed and commit
        self.rows = {f"r{i}": [rng.random() for _ in range(DIM)] for i in range(ROWS)}
        self.query = [rng.random() for _ in range(DIM)]

    def task(self) -> list[tuple[str, float]]:
        q = self.query
        scores = {key: sum(a * b for a, b in zip(row, q)) for key, row in self.rows.items()}
        return sorted(scores.items(), key=lambda kv: -kv[1])[:TOP]

    def seconds(self) -> float:
        """Fastest of ``REPEATS`` runs of the task, about 2 ms each."""
        best = float("inf")
        for _ in range(REPEATS):
            start = perf_counter()
            self.task()
            best = min(best, perf_counter() - start)
        return best

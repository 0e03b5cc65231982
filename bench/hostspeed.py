"""Host-speed probe: scales measured seconds to a fixed reference speed.

The benchmark host is a shared 2-vCPU virtual machine whose speed drifts by
about ±20% in phases of 20-30 s, and CPU time rises and falls with wall
time.  A 15 s run sits inside one phase, so raw times of the same inputs
differ by up to 1.7x between runs.  The probe is a fixed piece of
pure-Python graph work, written apart from nodeloc: the benchmark's own CSP
reachability search on a fixed 40-node graph, about 4 ms.  It is timed
between ops.  A stretch of measured time is multiplied by
``REFERENCE_S / probe``, where ``probe`` is the mean of the probe times
just before and just after the stretch.  A nodeloc change leaves the probe
alone, so it still moves the scaled times; host drift moves both and
cancels.
"""

from __future__ import annotations

import random
import time

from observe import csp_measurable

#: Probe time at the reference speed: about this host's typical probe time,
#: so scaled seconds read close to raw seconds.  Changing the probe or this
#: constant changes every reported time.
REFERENCE_S = 0.004

#: Probe at least this often during the timed phase.
EVERY_S = 0.2


class HostSpeed:
    def __init__(self) -> None:
        rng = random.Random("host-speed probe")
        n = 40
        self.adj = [set() for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.15:
                    self.adj[u].add(v)
                    self.adj[v].add(u)
        self.monitors = frozenset(range(6))
        self.failed = frozenset({10, 11})
        self.samples: list[float] = []

    def probe(self) -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            csp_measurable(self.adj, self.monitors, self.failed)
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def scale(before: float, after: float) -> float:
        return REFERENCE_S / ((before + after) / 2)

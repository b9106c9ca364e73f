"""The host's current speed, from a fixed pure-Python kernel.

The machine this benchmark runs on is shared, and its speed drifts: on an
otherwise idle 2-core virtual machine, a fixed pure-Python loop took from
10 to 20 ms per call within five minutes, in phases of seconds to minutes.
The benchmark therefore times the kernel between ops, off the clock, and
reports every op time scaled to a reference speed, at which one kernel call
takes ``REFERENCE_S``: a time t measured while the kernel took k is reported
as t * REFERENCE_S / k.  The kernel does the kind of work the package does
(frozenset algebra, dict and tuple traffic, small calls) and uses nothing
from the package, so a change to the package moves the scaled times and a
change in the host's speed does not.
"""
from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_S = 0.005
# Re-time the kernel before the next op once this much wall time has passed.
INTERVAL_S = 0.25


def _step(states: frozenset, relation: dict, k: int) -> frozenset:
    return frozenset(w for w in states if relation[w] & states and (w * k) % 3)


def kernel() -> int:
    states = frozenset(range(24))
    relation = {w: frozenset(v for v in states if (v - w) % 5 < 2) for w in states}
    seen: dict = {}
    for k in range(300):
        reached = _step(states, relation, k)
        seen[(k % 61, len(reached))] = reached | {k % 24}
    return len(seen)


def measure() -> float:
    """Seconds one kernel call takes now: the middle of three calls, with
    the garbage collector off so that the heap the caller built up does not
    slow them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[1]

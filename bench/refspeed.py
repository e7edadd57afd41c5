"""Reference-speed probe: scales measured times to a machine of fixed speed.

A shared host's speed changes while the benchmark runs: on a 2-vCPU
cloud VM (Python 3.11.7) the same ``fixed_subgroup`` call read anywhere
from 44 to 79 ms within two minutes, and a pure-Python loop slowed by the
same factor at the same moments, in CPU time as in wall time.  So every
timed region is followed by a probe, a fixed pure-Python loop in the
style of fixlab's hot code (small tuples built from zips and generator
expressions, objects with ``__slots__``, dict counting), and the
region's time is multiplied by ``REF_S`` over the mean of the probes
before and after it.  The result is what the region would have taken on
a machine where the probe takes exactly ``REF_S``; on that VM the probe
reads about 4.5 ms when the host is quiet and up to 9 ms when it is
busy.  Over two minutes of repeated fix-sweep calls, the median raw time
in 15-second windows ranged over 1.4x and the median scaled time over
4%.  Over calls of a second or more the host's speed changes within the
call, and scaled times spread more (11-16% for the same inertia search).

The probe does not touch fixlab, so a change to fixlab moves scaled and
raw times alike.  Garbage collection is off while it runs, so objects
that fixlab leaves alive do not slow it.
"""

from __future__ import annotations

import gc
import time

REF_S = 0.005  # probe time of the reference machine
ROUNDS = 1500  # loop rounds of one probe
WARM_UP = 20  # untimed probes first: the interpreter specialises the loop


class _Word:
    __slots__ = ("pairs", "bits")

    def __init__(self, pairs, bits):
        self.pairs, self.bits = pairs, bits

    def __mul__(self, other):
        pairs = tuple((s + (s2 if t % 2 == 0 else -s2), (t + t2) % 5)
                      for (s, t), (s2, t2) in zip(self.pairs, other.pairs))
        return _Word(pairs, tuple(e ^ e2 for e, e2 in zip(self.bits, other.bits)))


def _work(rounds: int) -> int:
    gens = [_Word(((1, i % 3), (i, 1), (-1, 2)), (i & 1, (i >> 1) & 1)) for i in range(4)]
    seen: dict = {}
    x = gens[0]
    for i in range(rounds):
        x = x * gens[i & 3]
        if abs(x.pairs[0][0]) > 1000:
            x = gens[1]
        key = (x.pairs, x.bits)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def probe() -> float:
    """Seconds one probe takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work(ROUNDS)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedScale:
    """Probes taken between timed regions; ``scale(t)`` probes once more
    and returns region time t at reference speed."""

    def __init__(self):
        for _ in range(WARM_UP):
            probe()
        self.last = probe()
        self.probes = [self.last]

    def scale(self, seconds: float) -> float:
        now = probe()
        factor = 2 * REF_S / (self.last + now)
        self.last = now
        self.probes.append(now)
        return seconds * factor

"""Machine-speed references shared by run.py and worker.py.

On a shared machine the same code can run twice as fast at one moment as
at another, in phases of seconds to minutes.  A rep therefore runs
``reference_job`` (benchmark code, never changed with the package) about
every REF_EVERY_S of timed work, outside the clock, and reports its time
scaled by REF_NOMINAL_S / (median job time): the time the rep would have
taken at the speed at which the job takes REF_NOMINAL_S.  ``run.py`` scales
each ``import dtorus.cli`` spawn the same way by a bare interpreter spawn
(``python3 -c pass``) made just before it, against SPAWN_NOMINAL_S.

The job mixes tuple arithmetic into a small dict with probes of a
10000-key dict (about 2.5 MB), because the workloads' dict-heavy code slows
down more than pure arithmetic when the machine is busy.  The job shares
the rep's process, so it is kept out of the package's garbage collection:
the large dict holds only tuples of ints, which one collection at import
untracks, so the package's full collections never scan it; and the
collector is off while the job runs, so no collection that the package's
allocations have made due is ever timed as the job's.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

REF_EVERY_S = 0.05
# Medians on the 2-CPU machine the benchmark was tuned on.
REF_NOMINAL_S = 0.0017
SPAWN_NOMINAL_S = 0.055

_KEYS = [tuple((7 * i + 3 * k) % 11 - 5 for k in range(16)) for i in range(24)]
_rng = random.Random(0)
TABLE = {tuple(_rng.randrange(-50, 50) for _ in range(12)): i for i in range(10000)}
_PROBES = [tuple(_rng.randrange(-50, 50) for _ in range(12)) for _ in range(300)] + list(TABLE)[::33]
gc.collect()  # untracks TABLE and its keys: they hold nothing but ints


def reference_job() -> float:
    """Seconds taken by a fixed mix of tuple sums and dict probes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc: dict = {}
        for a in _KEYS[:8]:
            for b in _KEYS:
                key = tuple(x + y for x, y in zip(a, b))
                acc[key] = acc.get(key, 0) + 1
        hits = 0
        for p in _PROBES:
            if tuple(x + 1 for x in p) in TABLE:
                hits += 1
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def to_nominal(seconds: float, measured_s: float, nominal_s: float = REF_NOMINAL_S) -> float:
    """A time taken while a reference took measured_s, at the speed where it takes nominal_s."""
    return seconds * nominal_s / measured_s

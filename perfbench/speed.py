"""The host's speed, measured next to each repetition, to time it at a fixed reference speed.

The benchmark's host shares its CPUs with other machines.  Each vCPU
changes speed every few seconds, independently of the other: pure-Python
code ran up to twice as fast in some spells as in others.  The raw wall
time of a repetition therefore depends on the spell it fell into, and
the median over a 35 s run depends on how the spells fell in that run.

Each repetition's worker process runs a fixed pure-Python loop (the
probe) in a block just before the jobs and just after them, and the
median timing of each block says how fast the host ran then.  The probe
takes REF_PROBE_S at the reference speed (a fast spell of the 2-core
Xeon VM on which the benchmark was written).  A repetition whose two
blocks took p1 and p2 has its wall time multiplied by
(REF_PROBE_S / mean(p1, p2)) ** SENSITIVITY.  The power is below 1
because the jobs gain less than the probe from a fast spell: fitted per
35 s run, the jobs' time moved as the 0.4th to 0.9th power of the
probe's, lowest on sweep and highest on tables.  In two sets of ten 35 s runs per workload, a power
of 1 left the run medians of sweep spread by 10-13% (quartile distance
over median); 0.75 kept every workload and set within 7.3%.
Spells change on a scale of seconds and a repetition takes one to three,
so a repetition that spans a change is mis-scaled; the median over a
run's repetitions drops it.

The probe looks up binary-string keys in a 4096-entry dict, sorts and
joins each key's characters and tallies the lengths in a small dict:
string, dict and list work, as in the program, and the same work on
every call.  In a process that alternated it with counting (the 1324
and the generic engine), table building and encoding while the host's
speed ranged over 2x, the program's speed relative to the probe's stayed
within 5% from the fastest fifth of the samples to the slowest.  A probe
of dict arithmetic alone drifted by 10%, and one that replaced tuples in
a pool alternated between two timings as its own state changed.  Timed
from a signal handler while the jobs ran, a probe over-corrected by up
to 1.6x, as it then ran on caches the jobs had just filled.
"""

from __future__ import annotations

import statistics
from time import perf_counter

PROBE_ITERATIONS = 500
BLOCK_TIMINGS = 31
REF_PROBE_S = 0.00045
SENSITIVITY = 0.75

_WORDS = {format(i, "b"): i for i in range(4096)}
_KEYS = list(_WORDS)


def probe_s() -> float:
    """Run the fixed loop once; returns its duration."""
    start = perf_counter()
    words, keys = _WORDS, _KEYS
    tally: dict[int, int] = {}
    x = 7
    total = 0
    for i in range(PROBE_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        key = keys[x & 4095]
        total += words[key]
        tally[i & 63] = tally.get(i & 63, 0) + len("".join(sorted(key)))
    return perf_counter() - start


def block_s() -> float:
    """Median probe duration over one block, after an untimed pass that warms the caches."""
    probe_s()
    return statistics.median(probe_s() for _ in range(BLOCK_TIMINGS))


def at_reference(wall_s: float, before_s: float, after_s: float) -> float:
    """`wall_s` rescaled to the reference speed, from the probe blocks around it."""
    return wall_s * (2 * REF_PROBE_S / (before_s + after_s)) ** SENSITIVITY

"""Host-speed probe: a fixed unit of work that does not touch cluekit.

The benchmark shares a few cores of a host with other tenants.  Their load
changes how fast the same instructions run, by up to 1.8x, in spells from
under a second to over a minute, and it slows process CPU time as much as
wall time.  The worker probes between jobs, about every 0.1 s, and divides
each pass's times by the pass's mean slowness: a timing metric reads the
time the work would take on a host of slowness 1.  The raw timings are
printed too.

A probe times three parts that stand for what the jobs do: a bytecode loop
with dict updates, numpy calls on small arrays, and passes over an 8 MiB
array, which slow the most under a neighbour's cache and memory traffic.
Slowness is the mean over the parts of the part's time over its
``REFERENCE_S``, so each part weighs the same whatever it costs.  The probe
is fixed: changing it changes every timing metric, so it is part of the
benchmark, not of the program, and a change to cluekit cannot change it.
"""
from __future__ import annotations

import time

import numpy as np

_BIG = np.random.default_rng(0).random(1 << 20)
_SMALL = np.random.default_rng(1).random(2048)


def _bytecode() -> float:
    s = 0
    for i in range(6000):
        s += i * i
    d: dict[int, int] = {}
    for i in range(1500):
        d[i % 97] = d.get(i % 97, 0) + i
    return float(s + len(d))


def _small_arrays() -> float:
    acc = 0.0
    for _ in range(60):
        acc += float((_SMALL * 1.5 + _SMALL).sum())
    return acc


def _big_array() -> float:
    x = _BIG * 1.5
    x += _BIG
    return float(x.sum())


PARTS = (_bytecode, _small_arrays, _big_array)
# Median part times on a 2-vCPU x86-64 guest (Python 3.11, numpy 2 with
# OpenBLAS) over a few thousand probes taken while the benchmark ran.
REFERENCE_S = (0.0006, 0.0004, 0.0024)


def _work() -> None:
    for part in PARTS:
        part()


def probe() -> float:
    """Slowness of the host now (1 on the reference host).  An untimed
    probe runs first, so what ran before (a job that filled the caches)
    does not change the result."""
    _work()
    ratios = []
    for part, ref in zip(PARTS, REFERENCE_S):
        t = time.perf_counter()
        part()
        ratios.append((time.perf_counter() - t) / ref)
    return sum(ratios) / len(ratios)


def warm_up(count: int = 5) -> None:
    for _ in range(count):
        _work()

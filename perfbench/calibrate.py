"""A fixed reference loop that measures how fast the machine is right now.

On a shared host the same work can take 1.5x longer from one minute to
the next. The loop mixes what hetsim spends its time on: interpreted
Python, many small NumPy calls, a BLAS matrix product, elementwise work
on vectors the size of a wide network's parameters, and batches stacked
from small arrays scattered in memory, as replay sampling does. Its time,
measured between passes in the same process, tracks those swings, so
pass times divided by it are steady across runs; ``REFERENCE_S`` turns
the ratio back into seconds on the machine the benchmark was tuned on.
It never calls hetsim, so no change to the program can move it.
"""
from __future__ import annotations

import time

import numpy as np

# median loop time on the machine the benchmark was tuned on (x86-64,
# 2 vCPUs, one BLAS thread)
REFERENCE_S = 0.022

_rng = np.random.default_rng(0)
_x = _rng.standard_normal((32, 64))
_w = _rng.standard_normal((64, 64))
_a = _rng.standard_normal((128, 256))
_b = _rng.standard_normal((256, 128))
_u = _rng.standard_normal(100_000)
_states = [_rng.standard_normal(25) for _ in range(4000)]
_batches = _rng.integers(0, 4000, size=(150, 32))


def loop_s() -> float:
    """Seconds one pass of the reference loop takes."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i
    for _ in range(200):
        y = _x @ _w
        y = y * (y > 0)
        y.sum(axis=0)
    for _ in range(20):
        _a @ _b
    v = _u.copy()
    for _ in range(20):
        v = v * 0.999 + _u
    for rows in _batches:
        np.stack([_states[i] for i in rows])
    return time.perf_counter() - t0

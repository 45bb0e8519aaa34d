"""Contention correction: a fixed reference kernel timed around every operation.

The benchmark shares its host with other tenants, whose load slows a vCPU by
up to 2x for seconds to minutes at a time; run length and medians do not
remove that. The reference kernel below does the same kinds of work as the
program (a pure-Python byte-hash loop, many small numpy ops, scatter-adds into
a 4096x32 table) and does not depend on the program's code, so its time
measured right before and right after an operation tracks the slowdown that
operation suffered. Dividing the operation's time by that slowdown brought
the quartile spread (IQR / median) of ten 30-second runs per workload from
0.05-0.44 down to 0.04-0.15 on the 2-vCPU KVM guest (Xeon Sapphire Rapids)
the benchmark was built on.

`REFERENCE_S` is the kernel's time on an idle vCPU of that machine, so a
corrected time reads as wall time on the idle reference machine. Raw wall
times are reported beside the corrected ones.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.017

_WORDS = [f"w{i}x{i * 7919 % 1000}" for i in range(2000)]
_RNG = np.random.default_rng(0)
_TABLE = _RNG.normal(size=(4096, 32))
_IDS = _RNG.integers(0, 4096, size=2000)
_SMALL = _RNG.normal(size=(12, 32))
_WEIGHT = _RNG.normal(size=(32, 32))


def _kernel() -> float:
    h = 0xCBF29CE484222325
    for word in _WORDS:
        for byte in word.encode():
            h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    acc = 0.0
    for _ in range(600):
        y = np.maximum(_SMALL @ _WEIGHT, 0.0)
        acc += float((y - y.mean(axis=-1, keepdims=True)).sum())
    for _ in range(8):
        grad = np.zeros_like(_TABLE)
        np.add.at(grad, _IDS, 1.0)
        acc += float(grad.sum())
    return acc + h % 7


def measure(repeats: int = 3) -> float:
    """Seconds the reference kernel takes right now (median of `repeats`)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


class Corrector:
    """Times the kernel between operations to correct each operation's time."""

    def __init__(self):
        self.last = measure()

    def around(self, fn):
        """Run fn(); return (its result, the slowdown measured around it).

        The slowdown is the mean of the kernel times just before and just
        after fn, over REFERENCE_S; a time divided by it is corrected.
        """
        before = self.last
        result = fn()
        self.last = measure()
        return result, (before + self.last) / (2.0 * REFERENCE_S)

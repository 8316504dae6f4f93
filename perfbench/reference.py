"""A fixed reference workload that tells how fast the host runs at the moment.

The benchmark's host is a few vCPUs shared with other machines' work. For
minutes at a time it runs the same code up to ~1.7x slower, in every
segment of a call, so keeping the fastest repeat of each segment does not
remove it. The harness therefore runs this reference work after every call
and folds its short blocks into a best-of-repeats array, as it does the
program's segments: the same number of repeats at the same host moments.
``host_speed`` is the reference's time on an unloaded host divided by its
time in this run; the end-to-end times are scaled by it.

The reference is the benchmark's own code, so no change to the program
moves it. It mixes what the program spends its time on: tape nodes with
closures, an id-keyed gradient dict, and small numpy ops on 32-wide rows.
"""

from __future__ import annotations

import time

import numpy as np

BLOCKS = 32
NODES = 400
NUMPY_OPS = 40

# Best-of-repeats seconds of one pass over all blocks on an unloaded host:
# 2 x86_64 vCPUs, Python 3.11, numpy 2.4, OpenBLAS pinned to one thread.
UNLOADED_S = 0.0195

_rng = np.random.default_rng(20250730)
_WEIGHTS = [_rng.standard_normal((32, 32)) / np.sqrt(32) for _ in range(4)]
_INPUT = _rng.standard_normal((4, 32))


class _Node:
    __slots__ = ("value", "parents", "backward")

    def __init__(self, value, parents, backward):
        self.value = value
        self.parents = parents
        self.backward = backward


def _block() -> float:
    """A scalar tape built and walked backwards, then small matrix ops."""
    x = _Node(0.5, (), None)
    tape = []
    for i in range(NODES):
        y = x.value * 0.99 + (i & 7) * 1e-3
        x = _Node(y, (x,), lambda g, y=y: (g * (1.0 - y * y),))
        tape.append(x)
    grads = {id(tape[-1]): 1.0}
    for node in reversed(tape):
        g = grads.pop(id(node))
        for parent, pg in zip(node.parents, node.backward(g)):
            grads[id(parent)] = grads.get(id(parent), 0.0) + pg
    h = _INPUT
    for i in range(NUMPY_OPS):
        h = np.tanh(h @ _WEIGHTS[i % len(_WEIGHTS)]) + 0.01
    return sum(grads.values()) + float(h.sum())


def segments() -> np.ndarray:
    """Runs the reference work once; seconds taken by each block."""
    times = np.empty(BLOCKS + 1)
    times[0] = time.perf_counter()
    for b in range(BLOCKS):
        _block()
        times[b + 1] = time.perf_counter()
    return np.diff(times)


def host_speed(best_segments: np.ndarray) -> float:
    """Unloaded-host reference time over this run's best-of-repeats time."""
    return UNLOADED_S / float(np.sum(best_segments))

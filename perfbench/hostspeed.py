"""The host's current speed, measured with a fixed reference probe.

On a shared host the speed of one core drifts: on the reference host
a fixed pure-Python loop has taken anywhere from 0.16 to 0.54 s within
a few hours, in phases of seconds to minutes, and thread CPU time
drifts with wall time (no steal is reported, so it is contention, not
descheduling).  Such drift moves every wall-time figure of a run,
whatever the program does.

So each workload runs :func:`probe` -- a fixed mix of interpreter work,
JSON frames, small NumPy calls and a random gather from a 4 MB array,
none of it from the program -- between ops, off the clock.  An op's
wall time is then divided by the host's slowness around it: the median
probe time of its neighbourhood over :data:`REFERENCE_S`, the probe
time of the reference host (2 cores, no numba) at its quiet speed.  The
result is the op's wall time at reference speed; a faster program
still shows as faster, while a slower host moves it far less than it
moves plain wall time.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Median probe time on the reference host at its quiet speed.
REFERENCE_S = 1.25e-3
#: Probes in the rolling median that gives one epoch's slowness.
WINDOW = 15

_rng = np.random.default_rng(20260417)
_BIG = _rng.integers(0, 1 << 30, size=1 << 19)
_GATHER = _rng.integers(0, _BIG.size, size=4096)
_KEYS = _rng.integers(0, 512, size=4096)
_SMALL = [_rng.integers(0, 100, size=64) for _ in range(20)]
_FRAME = {"type": "step", "id": 7, "op": "mixed", "variables": [11, 22, 33, 44], "values": [5, 6, 7, 8]}


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key = key
        self.value = value
        self.next = nxt


def _work() -> int:
    head = None
    table: dict = {}
    for i in range(400):
        head = _Node(i, i * 7 % 13, head)
        table[i % 37] = table.get(i % 37, 0) + head.value
    for _ in range(10):
        json.loads(json.dumps(_FRAME))
    for a in _SMALL:
        u = np.unique(a)
        a[np.argsort(a, kind="stable")]
        np.searchsorted(u, a)
    _BIG[_GATHER].sum()
    np.argsort(_KEYS, kind="stable")
    return head.key


def probe() -> float:
    """Wall seconds of one run of the fixed reference work."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def slowness(probes) -> np.ndarray:
    """Per epoch, the host's slowness against the reference host.

    Epoch ``e`` is the time between probe ``e - 1`` and probe ``e``;
    its slowness is the median of the :data:`WINDOW` probes centred on
    it, over :data:`REFERENCE_S`.
    """
    p = np.asarray(probes, dtype=float)
    half = WINDOW // 2
    padded = np.pad(p, half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, WINDOW)
    return np.median(windows, axis=1)[: p.size] / REFERENCE_S

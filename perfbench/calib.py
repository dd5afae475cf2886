"""Host-speed calibration: a fixed kernel timed beside the workload.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes (other tenants, frequency changes).  Timings are
therefore reported at a nominal host speed: each measured time is scaled
by REFERENCE_MS / (time of one kernel call measured at about the same
moment).  The kernel does the kind of work the workloads do: many numpy
calls on small arrays, as the estimation optimizer (400 directions) and
the chain solver's coordinate sweeps (one ion against the rest) make
them, and element-wise work on a posterior-sized array.  Its inputs are
fixed here, so it is the same work in every run and on every commit; the
library is not called.
"""

import time

import numpy as np

REFERENCE_MS = 2.5      # kernel() on the 2-vCPU host the benchmark was written on
REPS = 3                # kernel calls per sample
STEP_SAMPLES = 5        # samples on each side of a single long step (a set-up)

_rng = np.random.default_rng(20030516)
_DIRS = _rng.standard_normal((400, 3))
_Q = _rng.standard_normal((3, 3))
_S = _rng.standard_normal(3)
_CHAIN = np.sort(_rng.standard_normal(60))
_NODES = _rng.standard_normal((8192, 3))
_AXIS = _rng.standard_normal(3)


def kernel():
    """About 2.5 ms of fixed work on the reference host."""
    acc = 0.0
    for _ in range(40):
        values = np.linalg.norm(_S[None, :] + _DIRS @ _Q.T, axis=1)
        acc += float(values[int(np.argmax(values))])
    x = _CHAIN.copy()
    for k in range(150):
        i = k % x.size
        d = x[i] - x
        d[i] = np.inf
        acc += float(np.sum(np.sign(d) / (d * d)))
    proj = _NODES @ _AXIS
    weights = np.exp(-0.5 * proj * proj)
    return acc + float(weights.sum()) + float((weights[:, None] * _NODES).sum())


def sample():
    """Seconds per kernel call, averaged over REPS calls.

    An average, not a median: an op's time includes the host's short
    stalls, so the sample that scales it must include them too.
    """
    start = time.perf_counter()
    for _ in range(REPS):
        kernel()
    return (time.perf_counter() - start) / REPS


def scale(before, after):
    """Factor that converts a time measured between two samples to the
    nominal host speed."""
    return REFERENCE_MS * 2e-3 / (before + after)


def median_sample(count):
    """Median of `count` samples, for timing a single long step."""
    return float(np.median([sample() for _ in range(count)]))

"""Wall time rescaled by the machine's current speed.

On a shared machine the same code runs 30-70% faster for stretches of
seconds to minutes, depending on what other tenants do; CPU time tracks wall
time, so it is the core's speed that changes, not scheduling. A fixed
kernel of the kind of work moldiff does at its sizes (small numpy ops behind
Python calls, dicts and loops) is timed right before and right after each
timed call. The call's wall time is then scaled by ``REFERENCE_S`` over the
kernel's mean time: the result is in reference seconds, the time the call
would take on this machine when the kernel takes ``REFERENCE_S``. The kernel
does not touch moldiff, so a change to the program moves the result in full.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.005
_A = np.arange(64.0).reshape(8, 8) * 1e-3
_ROWS = np.arange(8)


def kernel_seconds() -> float:
    """Wall time of one fixed calibration kernel (about 5 ms here)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(400):
        b = np.maximum(_A @ _A.T, 0.0)
        acc += float(b[_ROWS[i % 8]].sum())
        acc += sum(j * 0.5 for j in range(24))
        acc += len({k: k + 1 for k in range(8)})
    return time.perf_counter() - t0


def timed(fn, *args):
    """Run ``fn(*args)``; return (result, wall seconds, reference seconds)."""
    k0 = kernel_seconds()
    t0 = time.perf_counter()
    out = fn(*args)
    wall = time.perf_counter() - t0
    return out, wall, wall * REFERENCE_S / (0.5 * (k0 + kernel_seconds()))

"""A fixed reference kernel that measures the machine's current speed.

The benchmark runs on a shared machine whose speed drifts: the same
operation takes up to 1.5 times as long during a slow spell, and spells
last from seconds to minutes, longer than a run.  ``run.py`` therefore
times this kernel next to every operation (and ``setup_probe.py`` in every
set-up process) and divides the operation's time by the kernel's.  The
ratio is what the program changes and the machine does not; multiplied
by ``NOMINAL_S`` it reads again as seconds, on a machine where the kernel
takes ``NOMINAL_S``.

The kernel mixes what glassland's own code does: an interpreted Python
loop, numpy ufuncs on small arrays, small dense linear algebra, and
row-wise ufuncs over a (4096, 6) batch, the shape of a scan's batches.  It
never touches glassland, so no change to the package moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# the kernel's time on the pinned core of a shared 2-vCPU x86 virtual
# machine with OpenBLAS on one thread; a scale only, the ratios do not
# depend on it
NOMINAL_S = 0.02
# a sample runs the kernel at least this many times, and for at least this
# share of the time of the operation before it
MIN_PASSES = 8
SHARE = 0.1

_RNG = np.random.default_rng(20230818)
_MAT = _RNG.standard_normal((48, 48))
_MAT = _MAT + _MAT.T
_VEC = _RNG.standard_normal(4096)
_BATCH = _RNG.standard_normal((4096, 6))


def kernel() -> float:
    """One pass of the mixed kernel; returns a checksum so nothing is skipped."""
    acc = 0.0
    for i in range(26000):
        acc += (i % 7) * 0.5 - acc * 1e-4
    v = _VEC
    for _ in range(60):
        v = np.tanh(v * 1.01) + 0.1 * np.sin(v)
    acc += float(v.sum())
    for _ in range(11):
        w, vecs = np.linalg.eigh(_MAT)
        acc += float(w[0]) + float(vecs[0, 0] ** 2)
    b = _BATCH
    for _ in range(6):
        b = np.tanh(b * 1.01) + 0.1 * np.sin(b)
        b = b / np.abs(b).max(axis=1, keepdims=True)
    acc += float(b[0, 0])
    return acc


def sample(after_s: float = 0.0) -> tuple:
    """Run the kernel back to back, at least MIN_PASSES times and for at
    least ``SHARE * after_s`` seconds; return (passes, seconds).

    ``after_s`` is the time of the operation just before.  Sampling for a
    fixed share of it weights the machine's state over the run as the
    operations' own times weight it: the machine flips between a fast and
    a slow state within seconds, and a long operation integrates over both.
    """
    passes, start = 0, perf_counter()
    while True:
        kernel()
        passes += 1
        elapsed = perf_counter() - start
        if passes >= MIN_PASSES and elapsed >= SHARE * after_s:
            return passes, elapsed


def seconds(samples) -> float:
    """Mean kernel time over ``(passes, seconds)`` samples."""
    return sum(s for _, s in samples) / sum(n for n, _ in samples)

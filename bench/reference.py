"""The reference block: fixed exact arithmetic that measures the host's speed.

The host this benchmark was tuned on changes speed by up to 2x, for
seconds to minutes at a time, while the guest sees no steal time (see
DESIGN.md, "Known limits").  The run times this block between items and
scales every item latency by the block's time around it.  The block is
Gaussian elimination over ``Fraction`` on a fixed 7x7 matrix: the same
kind of interpreted exact arithmetic that zhat spends its time in, and no
zhat code, so a change to the program cannot change it.

Only ``fractions`` and ``time`` are imported, so the set-up probe can use
it after its clock has stopped.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The block's time on the host speed that scaled timings refer to: about
# its time in the fast periods of a 2 vCPU Xeon VM at 2.0 GHz.
NOMINAL_S = 0.003

_N = 7
_MATRIX = [
    [Fraction((i * 7 + j * 3) % 11 - 5 + (3 if i == j else 0), 1 + (i + j) % 3) for j in range(_N)]
    for i in range(_N)
]
_ROUNDS = 2
_TRIES = 3


def _eliminate() -> Fraction:
    m = [row[:] for row in _MATRIX]
    for k in range(_N):
        p = m[k][k] or Fraction(1)
        for i in range(k + 1, _N):
            f = m[i][k] / p
            for j in range(k, _N):
                m[i][j] -= f * m[k][j]
    return m[-1][-1]


def sample() -> tuple[float, float, float]:
    """(start, end, seconds) of one timing of the block.

    The block runs in ``_TRIES`` parts; its time is that of the fastest
    part times their number, so that an interrupt during one part is
    ignored.  ``end - start`` is the time the whole timing took.
    """
    best = float("inf")
    start = perf_counter()
    for _ in range(_TRIES):
        t0 = perf_counter()
        for _ in range(_ROUNDS):
            _eliminate()
        best = min(best, perf_counter() - t0)
    return start, perf_counter(), best * _TRIES

"""The reference: how fast this machine runs Python at the moment.

It is a fixed pointer chase through a list and a dict of 1024 entries
each, one cycle through all of them.  Its data is warmed into the cache
before it is timed and it allocates nothing, with the garbage collector
off, so what the program under test leaves in the cache or on the heap
does not change its time; only the machine's speed does.  The module
imports nothing but `gc` and `time`, so a child interpreter can time it
before importing the package without importing anything for it.
"""

import gc
import time

SIZE = 1 << 10
STEPS = 40_000
NOMINAL_S = 0.0025  # its time on a quiet 2-vCPU Xeon VM, Python 3.11

# One step, x -> _AFTER[_SUCC[x]], is x -> 250905 x + 647 (mod 1024): one
# cycle through all residues, as the multiplier is 1 (mod 4) and the
# constant is odd.
_SUCC = [(389 * i + 1) % SIZE for i in range(SIZE)]
_AFTER = {i: (645 * i + 2) % SIZE for i in range(SIZE)}


def reference_s() -> float:
    """Time of one run of the reference, in seconds."""
    gc.disable()
    try:
        succ, after = _SUCC, _AFTER
        x = 0
        for _ in range(2 * SIZE):  # warm-up, untimed
            x = after[succ[x]]
        start = time.perf_counter()
        for _ in range(STEPS):
            x = after[succ[x]]
        return time.perf_counter() - start
    finally:
        gc.enable()

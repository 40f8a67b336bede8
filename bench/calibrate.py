"""A fixed reference computation that measures how fast this machine runs
Python at the moment.

On a shared host the speed of a core drifts by tens of percent over
minutes, and the two cores of one VM can differ by as much at the
same moment.  The benchmark runs this loop before the first pass and after
each pass, and scales its set-up and pass times by REFERENCE_S / (median
loop time of the run): a scaled time is the time the work would take on a
machine that runs the loop in REFERENCE_S seconds.  The loop is the
benchmark's own code and imports nothing from charthree, so a change to
the package does not change it.

Its instruction mix follows charthree's: products of packed 16-bit-limb
integers with a limb-by-limb mod-3 pass (the large-n kernel), and many
small objects with operator methods and dict lookups (the n = 8 census).
"""

from __future__ import annotations

import random
import statistics
import time

REFERENCE_S = 0.2

_W = 16
_MASK = (1 << _W) - 1
_LIMB_ROUNDS = 150      # about 0.1 s per half on a shared 2-core VM
_OBJECT_ROUNDS = 1500


def _operands() -> list[int]:
    rng = random.Random(0)
    return [sum(rng.randrange(3) << (_W * i) for i in range(24)) for _ in range(64)]


def _canon(p: int) -> int:
    acc, i = 0, 0
    while p:
        c = (p & _MASK) % 3
        if c:
            acc |= c << (_W * i)
        p >>= _W
        i += 1
    return acc


class _Elem:
    """A small immutable value with operator methods, like a field element."""

    __slots__ = ("pk",)

    def __init__(self, pk: int):
        self.pk = pk

    def __add__(self, other: "_Elem") -> "_Elem":
        return _Elem(_canon(self.pk + other.pk))


def reference_seconds(operands: list[int]) -> float:
    """Wall time of one run of the reference loop over `operands`: large
    packed products, then many small objects, operator calls and dict
    lookups."""
    t0 = time.perf_counter()
    seen: dict[int, int] = {}
    for _ in range(_LIMB_ROUNDS):
        for x, y in zip(operands, operands[1:]):
            k = _canon(x * y) & _MASK
            seen[k] = seen.get(k, 0) + 1
    small = [_Elem(x & 0x00FF00FF) for x in operands]
    buckets: dict[tuple[int, int], int] = {}
    for _ in range(_OBJECT_ROUNDS):
        acc = small[0]
        for e in small:
            acc = acc + e
            key = (acc.pk & 0xFF, e.pk & 0xF)
            buckets[key] = buckets.get(key, 0) + 1
    return time.perf_counter() - t0


class Speed:
    """Reference loop times of one run."""

    def __init__(self):
        self._operands = _operands()
        self.samples: list[float] = []

    def sample(self):
        self.samples.append(reference_seconds(self._operands))

    def factor(self) -> float:
        """Multiply a time measured in this run by this to scale it."""
        return REFERENCE_S / statistics.median(self.samples)

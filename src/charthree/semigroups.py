"""Numerical semigroup combinatorics: gaps, genus, conductor.

A semigroup is either presented by generators (gap set enumerated by
exact reachability up to a Frobenius-safe bound) or given directly as an
explicit gap set, which can be validated as the complement of a cofinite
monoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple[int, ...]
    gaps: tuple[int, ...]
    genus: int = field(init=False)
    conductor: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "genus", len(self.gaps))
        object.__setattr__(self, "conductor",
                           self.gaps[-1] + 1 if self.gaps else 0)

    @classmethod
    def from_generators(cls, gens) -> "NumericalSemigroup":
        gens = tuple(sorted(set(int(g) for g in gens)))
        if not gens or gens[0] <= 0:
            raise ValueError("generators must be positive integers")
        if math.gcd(*gens) != 1:
            raise ValueError("gcd of generators must be 1 (finite gap set)")
        # initial bound: product of the two smallest generators covers the
        # Frobenius number whenever they are coprime; the tail-window check
        # below makes the enumeration exact regardless, doubling if needed
        bound = gens[0] * (gens[1] if len(gens) > 1 else 1) + 1
        while True:
            reachable = [False] * bound
            reachable[0] = True
            for g in gens:
                for k in range(g, bound):
                    if reachable[k - g]:
                        reachable[k] = True
            if all(reachable[bound - gens[0]:]):
                break
            bound *= 2
        gaps = tuple(k for k in range(bound) if not reachable[k])
        return cls(gens, gaps)

    def contains(self, n: int) -> bool:
        if n < 0:
            raise ValueError("semigroup membership is defined for n >= 0")
        return n >= self.conductor or (n not in set(self.gaps))

    def gap_set(self) -> "GapSet":
        return GapSet(self.gaps)


@dataclass(frozen=True)
class GapSet:
    gaps: tuple[int, ...]

    def __init__(self, gaps):
        object.__setattr__(self, "gaps", tuple(sorted(set(int(g) for g in gaps))))

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @property
    def conductor(self) -> int:
        return self.gaps[-1] + 1 if self.gaps else 0


def is_cofinite_monoid(g) -> bool:
    """True iff the complement of the gap set is an additive monoid.

    Checks that 0 is not a gap and that no sum of two positive non-gaps
    is a gap, on int bitsets: a non-gap x fails when the non-gaps below
    max(gaps), shifted up by x, meet the gaps.  Sums above max(gaps) are
    never gaps.
    """
    gaps = set(g.gaps if isinstance(g, GapSet) else g)
    if not gaps:
        return True
    if 0 in gaps or min(gaps) < 0:
        return False
    top = max(gaps)
    gapmask = sum(1 << x for x in gaps)
    nongaps = ~gapmask & ((1 << top) - 2)    # the non-gaps in [1, top)
    return not any((nongaps << x) & gapmask
                   for x in range(1, top) if not gapmask >> x & 1)

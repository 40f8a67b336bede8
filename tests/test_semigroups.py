import math
import random
from types import SimpleNamespace

import pytest

from charthree.semigroups import GapSet, NumericalSemigroup, is_cofinite_monoid
from charthree.weierstrass import generic_gap_set, special_gap_set


def closure_gaps(gens, bound):
    reach = [False] * (bound + 1)
    reach[0] = True
    # saturate by repeated passes (order-independent, unlike the module's
    # single forward sweep per generator)
    changed = True
    while changed:
        changed = False
        for v in range(1, bound + 1):
            if not reach[v] and any(v >= g and reach[v - g] for g in gens):
                reach[v] = True
                changed = True
    return [v for v in range(bound + 1) if not reach[v]]


def test_golden_infinity_q9():
    # oracle first: closure up to 60, then frozen literal
    gaps = closure_gaps([6, 9, 10], 60)
    assert gaps == [1, 2, 3, 4, 5, 7, 8, 11, 13, 14, 17, 23]
    sg = NumericalSemigroup.from_generators({6, 9, 10})
    assert list(sg.gaps) == gaps
    assert sg.genus == 12
    assert sg.conductor == 24


def test_golden_beta_zero_q9():
    gaps = closure_gaps([8, 9, 10, 14], 80)
    expected = [1, 2, 3, 4, 5, 6, 7, 11, 12, 13, 15, 21]
    assert gaps == expected
    sg = NumericalSemigroup.from_generators({8, 9, 10, 14})
    assert list(sg.gaps) == expected
    assert sg.genus == 12


def test_unit_semigroup():
    sg = NumericalSemigroup.from_generators({1})
    assert sg.gaps == () and sg.genus == 0 and sg.conductor == 0


def test_rejects_gcd_above_one():
    with pytest.raises(ValueError, match="gcd"):
        NumericalSemigroup.from_generators({6, 9})
    with pytest.raises(ValueError):
        NumericalSemigroup.from_generators({0, 3})


def test_contains():
    sg = NumericalSemigroup.from_generators({6, 9, 10})
    assert sg.contains(15)
    assert not sg.contains(23)
    assert sg.contains(0)
    assert all(sg.contains(n) for n in range(24, 100))
    with pytest.raises(ValueError):
        sg.contains(-1)


def test_non_coprime_smallest_pair():
    # two smallest generators not coprime: bound doubling still exact
    sg = NumericalSemigroup.from_generators({6, 10, 15})
    gaps = closure_gaps([6, 10, 15], 120)
    assert list(sg.gaps) == gaps
    assert sg.gaps[-1] == 29


def test_is_cofinite_monoid():
    assert is_cofinite_monoid(GapSet([1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 19]))
    assert not is_cofinite_monoid(GapSet([2]))
    assert is_cofinite_monoid(GapSet([]))
    assert not is_cofinite_monoid([0, 1])
    # complement of a legal gap set is closed; poke a hole to break it
    sg = NumericalSemigroup.from_generators({6, 9, 10})
    assert is_cofinite_monoid(sg.gap_set())
    broken = set(sg.gaps) | {15}   # 15 = 6 + 9 must be a non-gap
    assert not is_cofinite_monoid(broken)


def cofinite_by_sets(g):
    """The set-based reference: every sum of two non-gaps up to
    max(gaps) + the smallest positive non-gap must be a non-gap."""
    gaps = set(g.gaps if isinstance(g, GapSet) else g)
    if not gaps:
        return True
    if 0 in gaps or any(x < 0 for x in gaps):
        return False
    top = max(gaps)
    mingen = next(k for k in range(1, top + 2) if k not in gaps)
    bound = top + mingen
    nongaps = [k for k in range(1, bound + 1) if k not in gaps]
    for x in nongaps:
        for y in nongaps:
            s = x + y
            if s > bound:
                break
            if s in gaps:
                return False
    return True


def test_cofinite_bitsets_match_sets_on_random_sets():
    for gaps in (set(), {0}, {0, 1}, {-1, 2}, {-2}):
        assert is_cofinite_monoid(gaps) == cofinite_by_sets(gaps) == (not gaps)
    rng = random.Random(13)
    seen = set()
    for _ in range(3000):
        lo = rng.choice((-3, 0, 1))    # negative members, 0, or neither
        gaps = {rng.randrange(lo, 30) for _ in range(rng.randrange(12))}
        want = cofinite_by_sets(gaps)
        assert is_cofinite_monoid(gaps) == want, sorted(gaps)
        seen.add((want, min(gaps, default=1) <= 0))
    assert seen == {(True, False), (False, False), (False, True)}
    for _ in range(100):   # true gap sets, and each with one member toggled
        gens = rng.sample(range(2, 25), 3)
        if math.gcd(*gens) != 1:
            continue
        gaps = set(NumericalSemigroup.from_generators(gens).gaps)
        poked = gaps ^ {rng.randrange(1, max(gaps) + 2)}
        assert is_cofinite_monoid(gaps) and cofinite_by_sets(gaps)
        assert is_cofinite_monoid(poked) == cofinite_by_sets(poked)


def test_cofinite_bitsets_match_sets_at_q81():
    curve = SimpleNamespace(q=81, m=27)
    for gaps in (generic_gap_set(curve), special_gap_set(curve, 12, 3),
                 special_gap_set(curve, 25, 16)):
        assert gaps.genus == 1080
        assert is_cofinite_monoid(gaps) is cofinite_by_sets(gaps) is True


def test_random_generator_sets_properties():
    rng = random.Random(41)
    for _ in range(40):
        gens = sorted(rng.sample(range(2, 40), rng.randrange(2, 5)))
        if math.gcd(*gens) != 1:
            continue
        sg = NumericalSemigroup.from_generators(gens)
        gaps = set(sg.gaps)
        assert is_cofinite_monoid(sg.gap_set())
        # complement closed under addition, exhaustively below
        # conductor + max generator
        bound = sg.conductor + max(gens)
        nongaps = [v for v in range(bound + 1) if v not in gaps]
        for x in nongaps:
            for y in nongaps:
                if x + y <= bound:
                    assert x + y not in gaps
        assert sg.conductor == (max(gaps) + 1 if gaps else 0)
        # independent closure oracle agrees
        assert closure_gaps(gens, sg.conductor + max(gens)) == list(sg.gaps)


def test_family_genus_at_both_field_sizes():
    # the three rational generator families all have q(q-1)/6 gaps
    for q in (9, 27):
        genus = q * (q - 1) // 6
        m = q // 3
        fams = [
            (2 * q // 3, q, q + 1),
            (q - 1, q, q + 1, 2 * q - 4),
            (q, q + 1) + tuple((q - 1) + j * (q - 2) for j in range(m)),
        ]
        for gens in fams:
            assert NumericalSemigroup.from_generators(gens).genus == genus

import random

import pytest

from charthree.curve import Curve
from charthree.fields import (MAX_DEGREE, FieldTower, make_tower, mult_order, sqrt,
                              trace_p, _p3_canon, _p3_pack, _p3_gcd, _p3_deg)


def test_make_tower_levels():
    tw = make_tower(2, {3})
    assert sorted(tw.levels) == [1, 2, 4, 12]
    tw = make_tower(3, {2, 3})
    assert sorted(tw.levels) == [1, 3, 6, 12, 18]


def test_make_tower_rejects_t1():
    with pytest.raises(ValueError, match="t must be >= 2"):
        make_tower(1)


def test_level_cap(curve9):
    tw = FieldTower(max_degree=10)
    with pytest.raises(ValueError, match="outside"):
        tw.ensure_level(12)
    # one cap for the tower, make_tower and Curve
    assert FieldTower().max_degree == make_tower(2).max_degree == MAX_DEGREE
    assert curve9.tower.max_degree == MAX_DEGREE
    with pytest.raises(ValueError, match="cap"):
        FieldTower(max_degree=MAX_DEGREE + 1)
    with pytest.raises(ValueError, match="cap"):
        Curve(2, max_degree=MAX_DEGREE + 1)


def _canon_by_limbs(p):
    """The per-limb loop that `_p3_canon` replaced, kept as its reference."""
    acc, i = 0, 0
    while p:
        c = (p & 0xFFFF) % 3
        if c:
            acc |= c << (16 * i)
        p >>= 16
        i += 1
    return acc


def _pack_limbs(limbs):
    return sum(c << (16 * i) for i, c in enumerate(limbs))


def test_p3_canon_matches_limb_loop():
    cap = 2 * MAX_DEGREE - 1   # a raw product of two top-level elements
    rng = random.Random(29)
    edges = (0, 3, 0xFFFF)
    for _ in range(1500):
        k = rng.randint(1, cap)
        uniform = [rng.randrange(1 << 16) for _ in range(k)]
        mixed = [rng.choice(edges) if rng.randrange(2) else c for c in uniform]
        for limbs in (uniform, mixed):
            p = _pack_limbs(limbs)
            assert _p3_canon(p) == _canon_by_limbs(p)
    for c in edges:
        p = _pack_limbs([c] * cap)
        assert _p3_canon(p) == _canon_by_limbs(p)
    # every limb value 0..0xFFFF, packed cap limbs at a time
    values = list(range(1 << 16))
    for start in range(0, len(values), cap):
        p = _pack_limbs(values[start:start + cap])
        assert _p3_canon(p) == _canon_by_limbs(p)


def test_p3_canon_rejects_wide_or_negative_input():
    cap = 2 * MAX_DEGREE - 1
    assert _p3_canon((1 << (16 * cap)) - 1) == _canon_by_limbs((1 << (16 * cap)) - 1)
    with pytest.raises(ValueError):
        _p3_canon(1 << (16 * cap))
    with pytest.raises(ValueError):
        _p3_canon(-3)


def test_moduli_irreducible_gcd_criterion(tower9):
    # independent irreducibility check: gcd(f, X^(3^k) - X) = 1 for k < n
    for n, lvl in sorted(tower9.levels.items()):
        if n > 12:
            continue
        f = _p3_pack(lvl.modulus)
        x_pow = 1 << 16  # X
        for k in range(1, n):
            # X^(3^k) mod f via repeated cubing
            from charthree.fields import _p3_mul, _p3_rem
            x_pow = _p3_rem(_p3_mul(_p3_mul(x_pow, x_pow), x_pow), f, n)
            diff = x_pow + 2 * (1 << 16)
            from charthree.fields import _p3_canon
            g = _p3_gcd(_p3_canon(diff), f)
            assert _p3_deg(g) == 0, f"degree-{n} modulus has a factor of degree {k}"
        x_pow = 1


def test_field_axioms_sampled(tower9):
    rng = random.Random(11)
    for n in (1, 2, 4, 8, 12):
        lvl = tower9.level(n)
        count = 1000 if n <= 8 else 300
        for _ in range(count):
            a = lvl.random_element(rng)
            b = lvl.random_element(rng)
            c = lvl.random_element(rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == 1
        z = lvl.random_element(rng)
        assert z - z == 0 and z + (-z) == 0


def test_frobenius_additive_multiplicative(tower9):
    rng = random.Random(5)
    for n in (2, 4, 8, 12):
        lvl = tower9.level(n)
        for _ in range(200):
            a, b = lvl.random_element(rng), lvl.random_element(rng)
            assert (a + b).cube() == a.cube() + b.cube()
            assert (a * b).cube() == a.cube() * b.cube()


def test_frobenius_identity_exhaustive_small(tower9):
    # x^(3^n) = x for every x, exhaustively for n <= 8
    for n in (1, 2, 4, 8):
        lvl = tower9.level(n)
        for x in lvl.iter_elements():
            assert x.pow3(n) == x


def test_embedding_compatibility(tower9):
    rng = random.Random(17)
    for (n, N) in ((2, 4), (4, 8), (4, 12), (2, 12)):
        for _ in range(60):
            x = tower9.level(n).random_element(rng)
            y = tower9.level(n).random_element(rng)
            X, Y = tower9.embed(x, N), tower9.embed(y, N)
            assert tower9.embed(x * y, N) == X * Y
            assert tower9.embed(x + y, N) == X + Y
            assert tower9.embed(x.cube(), N) == X.cube()
            # section undoes the embedding
            assert tower9.section(X, n) == x
        # embedding fixes F_3
        assert tower9.embed(tower9.level(n).one(), N) == tower9.level(N).one()


def test_embedding_maps_root_to_root(tower9):
    from charthree.fields import _eval_f3_poly
    for (n, N) in ((2, 4), (4, 12)):
        gen = tower9.level(n).gen()
        img = tower9.embed(gen, N)
        assert _eval_f3_poly(tower9.level(n).modulus, img).is_zero()


def test_section_rejects_outsiders(tower9):
    lvl12 = tower9.level(12)
    # a generator of F_{3^12} is not in F_{3^4}
    x = lvl12.gen()
    with pytest.raises(ValueError, match="subfield"):
        tower9.section(x, 4)


def test_trace_p_examples(tower9):
    L4 = tower9.level(4)
    assert trace_p(L4.zero(), 2) == 0
    assert trace_p(L4.one(), 2) == 2
    # p maps F_q into F_3 (trace from F_q to F_3)
    L2 = tower9.level(2)
    for b in L2.iter_elements():
        pb = trace_p(b, 2)
        assert pb.cube() == pb  # fixed by Frobenius: lies in F_3


def test_sqrt_deterministic_and_correct(tower9):
    L4 = tower9.level(4)
    one = L4.one()
    r, ext = sqrt(one)
    assert r == one and not ext
    rng = random.Random(23)
    for _ in range(40):
        x = L4.random_element(rng)
        if x.is_zero():
            continue
        r, ext = sqrt(x * x)
        assert not ext
        assert r * r == x * x
        assert r.coeffs <= (-r).coeffs  # deterministic branch
    # nonsquare goes to the quadratic extension
    nonsq = next(z for z in L4.iter_elements()
                 if not z.is_zero() and z ** 40 != 1)
    r, ext = sqrt(nonsq)
    assert ext and r.level.n == 8
    assert r * r == tower9.embed(nonsq, 8)


def test_squares_count_f81(tower9):
    # exactly 40 nonzero squares in F_81, by exhaustive Euler criterion
    L4 = tower9.level(4)
    count = sum(1 for z in L4.iter_elements()
                if not z.is_zero() and z ** 40 == 1)
    assert count == 40


def test_mult_order(tower9):
    L4 = tower9.level(4)
    assert mult_order(L4.one()) == 1
    assert mult_order(-L4.one()) == 2
    rng = random.Random(31)
    found_generator = False
    for _ in range(60):
        x = L4.random_element(rng)
        if x.is_zero():
            continue
        o = mult_order(x)
        assert 80 % o == 0
        assert x ** o == 1
        if o == 80:
            assert x ** 40 != 1 and x ** 16 != 1
            found_generator = True
    assert found_generator
    with pytest.raises(ValueError):
        mult_order(L4.zero())

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import charthree.fields as fields
from charthree.errors import CertificateError
from charthree.factorint import factorize
from charthree.fields import (MAX_DEGREE, FieldLevel, FieldTower, make_tower, mult_order,
                              sqrt, trace_p, _p3_canon, _p3_pack, _p3_gcd, _p3_deg)


def test_make_tower_levels():
    assert sorted(make_tower(2).levels) == [1, 2, 4]
    tw = make_tower(3)
    assert sorted(tw.levels) == [1, 3, 6]
    tw.level(18)
    assert sorted(tw.levels) == [1, 3, 6, 18]


def test_make_tower_rejects_t1():
    with pytest.raises(ValueError, match="t must be >= 2"):
        make_tower(1)


def test_level_cap(curve9):
    # one cap, MAX_DEGREE, for every tower
    for tw in (FieldTower(), curve9.tower):
        for n in (0, MAX_DEGREE + 1):
            with pytest.raises(ValueError, match="outside"):
                tw.level(n)


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


def _reduce_by_long_division(raw, modulus):
    """Plain long division of a raw packed value (limbs taken mod 3) by the
    monic modulus over F_3, the reference for `reduce_raw`."""
    n = len(modulus) - 1
    limbs = []
    while raw:
        limbs.append((raw & 0xFFFF) % 3)
        raw >>= 16
    for k in range(len(limbs) - 1, n - 1, -1):
        c = limbs[k]
        if c:
            for j, m in enumerate(modulus):
                limbs[k - n + j] = (limbs[k - n + j] - c * m) % 3
    return _pack_limbs(limbs[:n])


REDUCE_DEGREES = (1, 2, 3, 4, 5, 8, 16, 48, 72, 96)


@pytest.mark.parametrize("n", REDUCE_DEGREES)
def test_reduce_raw_matches_long_division(n):
    lvl = FieldLevel(None, n)
    rng = random.Random(n)
    top = (1 << 16) - 4 * (n - 1) - 1   # the largest limb `reduce_raw` accepts
    width = 2 * n - 1
    raws = [lvl.random_element(rng).pk * lvl.random_element(rng).pk for _ in range(40)]
    raws += [_pack_limbs(rng.randrange(top + 1) for _ in range(width)) for _ in range(40)]
    raws += [_pack_limbs([top] * width), _pack_limbs([top - 1] * width),
             _pack_limbs([top - 2] * width), top << (16 * (width - 1)), 0, 1]
    for raw in raws:
        assert lvl.reduce_raw(raw) == _reduce_by_long_division(raw, lvl.modulus)
    assert all(len(tab) == 3 ** min(4, n - 1 - 4 * k) for k, tab in enumerate(lvl._fold))


def test_reduce_raw_rejects_a_value_wider_than_a_product():
    for n in (1, 4, 9):
        lvl = FieldLevel(None, n)
        for raw in (1 << (16 * (2 * n - 1)), -1):
            with pytest.raises(ValueError, match="negative or wider"):
                lvl.reduce_raw(raw)


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


def _assert_inverse(lvl, a):
    inv = a.inverse()
    assert a * inv == 1
    assert inv == a ** (lvl.order() - 2)  # Fermat


@pytest.mark.parametrize("n", range(1, 7))
def test_inv_packed_every_element_small_levels(n):
    lvl = FieldLevel(None, n)
    for a in lvl.iter_elements():
        if not a.is_zero():
            _assert_inverse(lvl, a)
    with pytest.raises(ZeroDivisionError):
        lvl.inv_packed(0)


@pytest.mark.parametrize("n", (8, 24, 48, 72, 96))
def test_inv_packed_random_elements_large_levels(n):
    rng = random.Random(n)
    lvl = FieldLevel(None, n)
    for _ in range(4):
        a = lvl.random_element(rng)
        if not a.is_zero():
            _assert_inverse(lvl, a)
    # sparse and constant elements take the shortest and longest Euclid runs
    for a in (lvl.one(), lvl.from_int(2), lvl.basis_element(n - 1), lvl.gen() + 1):
        _assert_inverse(lvl, a)


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


# -- the modulus search: Ben-Or against the Rabin test it replaced ----------

def _rabin_reference(f, n):
    """The Rabin test (F_3-root pre-check, then gcds at n/p and
    X^(3^n) = X) that Ben-Or's test replaced, kept as its reference."""
    from charthree.fields import _X_PACKED, _p3_mul, _p3_rem

    def at(c):
        acc = 0
        for k in range(n, -1, -1):
            acc = (acc * c + ((f >> (16 * k)) & 0xFFFF)) % 3
        return acc

    if n == 1:
        return True
    if at(0) == 0 or at(1) == 0 or at(2) == 0:
        return False
    checkpoints = {n // p for p in factorize(n)}
    h = _X_PACKED
    for k in range(1, n + 1):
        h = _p3_rem(_p3_mul(_p3_rem(_p3_mul(h, h), f, n), h), f, n)
        if k in checkpoints and _p3_deg(_p3_gcd(_p3_canon(h + 2 * _X_PACKED), f)) > 0:
            return False
    return h == _X_PACKED


def _monic_polys(n):
    for low in itertools.product(range(3), repeat=n):
        yield _p3_pack(low + (1,))


def test_ben_or_matches_rabin_reference():
    for n in range(1, 7):
        for f in _monic_polys(n):
            assert fields._p3_is_irreducible(f, n) == _rabin_reference(f, n), (n, f)


def test_irreducible_counts_match_gauss_formula():
    def mobius(d):
        fact = factorize(d)
        return 0 if any(e > 1 for e in fact.values()) else (-1) ** len(fact)

    for n in range(1, 8):
        expected = sum(mobius(d) * 3 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
        assert sum(fields._p3_is_irreducible(f, n) for f in _monic_polys(n)) == expected


def test_lex_smallest_moduli_match_rabin_scan(monkeypatch):
    degrees = list(range(1, 25)) + [48, 72, 96]
    moduli = {n: fields._lex_smallest_irreducible(n) for n in degrees}
    monkeypatch.setattr(fields, "_p3_is_irreducible", _rabin_reference)
    for n in degrees:
        assert moduli[n] == fields._lex_smallest_irreducible(n), n


# -- the embedding: packed root search and Frobenius rows against references

def _ref_trim(p):
    while p and p[-1].is_zero():
        p.pop()
    return p


def _ref_mul(a, b, lvl):
    if not a or not b:
        return []
    out = [lvl.zero()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _ref_trim(out)


def _ref_divmod(a, b, lvl):
    a = a[:]
    db, inv_lb = len(b) - 1, b[-1].inverse()
    q = [lvl.zero()] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        lead = a[-1] * inv_lb
        shift = len(a) - 1 - db
        q[shift] = lead
        for i in range(db + 1):
            a[shift + i] = a[shift + i] - lead * b[i]
        _ref_trim(a)
    return _ref_trim(q), a


def _ref_powmod(a, e, mod, lvl):
    result, base = [lvl.one()], _ref_divmod(a, mod, lvl)[1]
    while e:
        if e & 1:
            result = _ref_divmod(_ref_mul(result, base, lvl), mod, lvl)[1]
        base = _ref_divmod(_ref_mul(base, base, lvl), mod, lvl)[1]
        e >>= 1
    return result


def _ref_gcd(a, b, lvl):
    while b:
        a, b = b, _ref_divmod(a, b, lvl)[1]
    inv = a[-1].inverse()
    return [c * inv for c in a]


def _ref_find_root(f, lvl):
    """Cantor-Zassenhaus on lists of `FieldElement`, the root search that
    the packed one replaced, kept as its reference."""
    g = [lvl.from_int(c) for c in f]
    half = (lvl.order() - 1) // 2
    deltas = lvl.iter_elements()
    while len(g) > 2:
        h = _ref_powmod([next(deltas), lvl.one()], half, g, lvl)
        h = _ref_trim([(h[0] - 1 if h else -lvl.one())] + h[1:])
        d = _ref_gcd(h, g, lvl)
        if 2 <= len(d) < len(g):
            other = _ref_divmod(g, d, lvl)[0]
            g = d if len(d) <= len(other) else other
    return -g[0] / g[1]


def test_packed_root_search_matches_fieldelement_reference(monkeypatch):
    calls = []
    find_root = fields._find_root

    def recording(f, model):
        root = find_root(f, model)
        calls.append((f, model, root))
        return root

    monkeypatch.setattr(fields, "_find_root", recording)
    tw = FieldTower()
    for n, N in ((8, 16), (8, 24), (12, 24), (16, 48), (24, 72)):
        calls.clear()
        tw._embedding(n, N)
        assert len(calls) == 1, (n, N)     # the generator's minpoly is not the modulus
        f, model, root = calls[0]
        assert model.n == n and f == tw.level(n).modulus
        assert root == _ref_find_root(f, model).pk, (n, N)


def test_frobenius_rows_match_per_basis_pow3():
    for n, N in ((4, 12), (8, 24)):
        lvl = FieldTower().level(N)
        expected = [[0] * N for _ in range(N)]
        for j in range(N):
            img = lvl.basis_element(j).pow3(n) - lvl.basis_element(j)
            for i, c in enumerate(img.coeffs):
                expected[i][j] = c
        assert fields._frobenius_rows(lvl, n) == expected


def test_root_search_rejects_slot_overflow():
    # 8 * n * m + 2 must stay below 2^16 - 4(n - 1): at n = 4, m <= 2047
    model = FieldTower().level(4)
    with pytest.raises(ValueError, match="overflows"):
        fields._find_root((1,) * 2049, model)
    assert fields._find_root((0, 1), model) == 0


def test_level_preconditions_raise():
    with pytest.raises(ValueError, match="monic"):
        FieldLevel(None, 2, (1, 0, 2))
    with pytest.raises(ValueError, match="monic"):
        FieldLevel(None, 2, (1, 1))
    with pytest.raises(ValueError, match="basis index"):
        FieldTower().level(4).basis_element(4)


def test_embedding_rejects_a_non_root(monkeypatch):
    calls = []

    def wrong(f, model):
        calls.append(model.n)
        return 0

    monkeypatch.setattr(fields, "_find_root", wrong)
    with pytest.raises(CertificateError, match="embedding root check failed"):
        FieldTower()._embedding(4, 8)
    assert calls == [4]


_NON_ROOT_SCRIPT = """
import sys
import charthree.fields as fields
from charthree.errors import CertificateError
fields._find_root = lambda f, model: 0
try:
    fields.FieldTower()._embedding(4, 8)
except CertificateError as exc:
    print("optimize", sys.flags.optimize, "rejected:", exc)
"""


def test_embedding_rejects_a_non_root_under_python_O():
    """`python -O` strips assert statements; the embedding root check must
    not depend on them."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", _NON_ROOT_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "optimize 1 rejected: embedding root check failed"

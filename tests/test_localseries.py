import random

import pytest

import charthree.localseries as localseries
from charthree.fields import FieldLevel
from charthree.localseries import (LocalData, TruncatedSeries,
                                   build_beta1_chain, expand_coordinates,
                                   expand_x_at_beta_zero)
from charthree.polyfamilies import eval_chain
from charthree.weierstrass import (CertEntry, class_representatives, semigroup_at,
                                   verify_gaps)


def series_from_ints(lvl, val, ints, prec):
    return TruncatedSeries.from_coeffs(lvl, val,
                                       [lvl.from_int(c) for c in ints], prec)


# -- TruncatedSeries unit behaviour ------------------------------------------


def test_series_normalization(tower9):
    lvl = tower9.level(2)
    s = series_from_ints(lvl, 1, [0, 0, 2, 0, 1, 0], 10)
    assert s.val == 3 and len(s.pk) == 3  # leading and trailing zeros gone
    z = series_from_ints(lvl, 2, [0, 0], 7)
    assert z.is_zero() and z.val == 7


def test_series_mul_valuation_additivity(tower9):
    rng = random.Random(13)
    lvl = tower9.level(4)
    for _ in range(40):
        va, vb = rng.randrange(0, 4), rng.randrange(0, 4)
        a = TruncatedSeries.from_coeffs(
            lvl, va, [lvl.random_element(rng) for _ in range(6)], 12)
        b = TruncatedSeries.from_coeffs(
            lvl, vb, [lvl.random_element(rng) for _ in range(6)], 12)
        if a.is_zero() or b.is_zero():
            continue
        p = a * b
        assert p.val == a.val + b.val
        # distributivity against addition
        c = TruncatedSeries.from_coeffs(
            lvl, vb, [lvl.random_element(rng) for _ in range(6)], 12)
        lhs = a * (b + c)
        rhs = a * b + a * c
        common = min(lhs.prec, rhs.prec)
        assert lhs.truncate(common) == rhs.truncate(common)


def _schoolbook_product(a, b):
    """Dense reference for a * b: every coefficient pair, in FieldElement
    arithmetic."""
    lvl = a.level
    val = a.val + b.val
    prec = min(a.val + b.prec, b.val + a.prec)
    coeffs = []
    for e in range(val, prec):
        acc = lvl.zero()
        for i in range(a.val, e - b.val + 1):
            acc = acc + a.coefficient(i) * b.coefficient(e - i)
        coeffs.append(acc)
    return TruncatedSeries.from_coeffs(lvl, val, coeffs, prec)


def _random_series(rng, lvl, density):
    val = rng.randrange(0, 5)
    prec = val + rng.randrange(1, 30)
    coeffs = [lvl.random_element(rng) if rng.random() < density else lvl.zero()
              for _ in range(prec - val)]
    return TruncatedSeries.from_coeffs(lvl, val, coeffs, prec)


@pytest.mark.parametrize("n", [1, 4, 24])
def test_sparse_series_product_matches_schoolbook(n):
    lvl = FieldLevel(None, n)
    rng = random.Random(31 + n)
    for _ in range(60):
        a = _random_series(rng, lvl, rng.choice((0.0, 0.1, 0.5, 1.0)))
        b = _random_series(rng, lvl, rng.choice((0.0, 0.1, 0.5, 1.0)))
        assert a * b == _schoolbook_product(a, b)
        assert b * a == _schoolbook_product(b, a)
    one_term = TruncatedSeries.monomial(lvl.gen() if n > 1 else -lvl.one(), 3, 20)
    dense = TruncatedSeries.from_coeffs(
        lvl, 0, [lvl.random_element(rng) or lvl.one() for _ in range(25)], 25)
    zero = TruncatedSeries.zero(lvl, 9)
    for a, b in [(one_term, dense), (dense, dense), (one_term, one_term),
                 (zero, dense), (dense, zero), (zero, zero)]:
        assert a * b == _schoolbook_product(a, b)


def test_series_precision_rules(tower9):
    lvl = tower9.level(2)
    a = series_from_ints(lvl, 2, [1, 1], 10)   # known to O(T^10)
    b = series_from_ints(lvl, 3, [2], 8)       # known to O(T^8)
    p = a * b
    assert p.val == 5
    assert p.prec == min(2 + 8, 3 + 10)
    s = a + b
    assert s.prec == 8
    with pytest.raises(ValueError, match="cannot extend precision"):
        a.truncate(12)


def test_series_cube_is_frobenius(tower9):
    rng = random.Random(17)
    lvl = tower9.level(4)
    a = TruncatedSeries.from_coeffs(
        lvl, 1, [lvl.random_element(rng) for _ in range(5)], 8)
    cubed = a.cube()
    assert cubed.prec == 24
    direct = (a * a * a).truncate(a.prec)  # plain product, lower precision
    assert cubed.truncate(direct.prec) == direct


def test_series_coefficient_access(tower9):
    lvl = tower9.level(2)
    s = series_from_ints(lvl, 1, [1, 0, 2], 9)
    assert s.coefficient(1) == 1
    assert s.coefficient(2) == 0
    assert s.coefficient(3) == 2
    assert s.coefficient(7) == 0   # implicit zero below precision
    with pytest.raises(ValueError):
        s.coefficient(9)


# -- coordinate expansion -----------------------------------------------------


def test_expand_coordinates_leading_terms(curve9, places9):
    place = next(p for p in places9
                 if p.place_class.kind == "rational_general")
    for which in range(3):
        lift = curve9.hermitian_lift(place, which)
        basis = expand_coordinates(curve9, lift, 2 * curve9.q + 1)
        one = lift.level.one()
        q = curve9.q
        assert basis.x_a.val == 1
        assert basis.x_a.coefficient(1) == one and basis.x_a.coefficient(2) == one
        # x_a = T + T^2 + O(T^q) with an exactly zero tail below q
        assert all(basis.x_a.coefficient(k).is_zero() for k in range(3, q))
        # y_b = T - beta T^3 exactly
        assert basis.y_b.coefficient(1) == one
        assert basis.y_b.coefficient(3) == -basis.beta
        assert all(basis.y_b.coefficient(k).is_zero()
                   for k in range(4, basis.prec))
        assert basis.y_b.coefficient(2).is_zero()
        # f0 = T^2 + beta T^3 + O(T^q), zero tail below q
        assert basis.f0.coefficient(2) == one
        assert basis.f0.coefficient(3) == basis.beta
        assert all(basis.f0.coefficient(k).is_zero() for k in range(4, q))
        assert basis.newton_steps <= 4


def test_expand_requires_min_precision(curve9, places9):
    place = next(p for p in places9 if p.place_class.kind == "beta_one")
    lift = curve9.hermitian_lift(place)
    with pytest.raises(ValueError, match="at least"):
        expand_coordinates(curve9, lift, curve9.q)
    # the limb guard prec * 4n + 4(n - 1) < 2^16 at the lift level is the
    # only upper bound: its last prec expands, the next one is refused
    n = lift.level.n
    first_bad = -(-((1 << 16) - 4 * (n - 1)) // (4 * n))
    assert expand_coordinates(curve9, lift, first_bad - 1).prec == first_bad - 1
    with pytest.raises(ValueError, match="bound"):
        expand_coordinates(curve9, lift, first_bad)


def test_f_chain_leading_pairs_and_paper_coeffs(curve9, places9):
    place = next(p for p in places9
                 if p.place_class.kind == "rational_general"
                 and p.place_class.i == 4)
    local = LocalData(curve9, place)
    f = local.f
    beta = local.basis.beta
    fam = eval_chain(3, beta)
    q = curve9.q
    for j, fj in enumerate(f):
        assert fj.val == 3 * j + 2
        assert fj.coefficient(3 * j + 2) == fam[j + 1].p_val
        if 3 * j + 3 < q:
            assert fj.coefficient(3 * j + 3) == fam[j + 1].q_val
    assert f[1].coefficient(5) == 2 * beta ** 3
    assert f[1].coefficient(6) == beta ** 4 - beta ** 3 - beta ** 2
    assert f[2].coefficient(8) == beta ** 3


def test_f_chain_final_valuation_jump(curve27):
    # at an i = 3 rational place (q = 27): v(f_0..f_3) = 2, 5, 8, 12
    place = next(p for p in curve27.enumerate_rational()
                 if p.place_class.kind == "rational_general"
                 and p.place_class.i == 3)
    local = LocalData(curve27, place)
    assert [fj.val for fj in local.f] == [2, 5, 8, 12]


def test_chain_lengths(curve9, places9):
    # f runs to min(i, m-1), g to min(K, m-2) and h to m-1
    m = curve9.m
    rational = next(p for p in places9
                    if p.place_class.kind == "rational_general"
                    and p.place_class.i == 4)
    assert len(LocalData(curve9, rational).f) == min(4, m - 1) + 1
    for order in (4, 8):     # (i, K) = (3, 0) special and (7, 4) generic
        place = curve9.sample_nonrational(order, count=1)[0]
        local = LocalData(curve9, place)
        i, K = place.place_class.i, place.place_class.K
        assert len(local.f) == min(i, m - 1) + 1
        assert len(local.g) == min(K, m - 2) + 1
    beta_one = next(p for p in places9 if p.place_class.kind == "beta_one")
    assert len(LocalData(curve9, beta_one).h) == m


def test_g_chain_special_and_generic(curve9):
    # special (3,0): v(g_0) = 4 (the R-zero sits at index 1)
    sp = curve9.sample_nonrational(4, count=1)[0]
    local = LocalData(curve9, sp)
    g = local.g
    assert g[0].val == 4
    beta = local.basis.beta
    fam = eval_chain(1, beta)
    assert g[0].coefficient(4) == fam[1].p_val  # leading pair (R_1=0, P_1)
    # generic (7,4): v(g_0, g_1) = 3, 6 and leading pairs (R, P)
    gen = curve9.sample_nonrational(8, count=1)[0]
    local2 = LocalData(curve9, gen)
    g2 = local2.g
    fam2 = eval_chain(curve9.m - 1, local2.basis.beta)
    for ell, gl in enumerate(g2):
        assert gl.val == 3 * ell + 3
        assert gl.coefficient(3 * ell + 3) == fam2[ell + 1].r_val
        assert gl.coefficient(3 * ell + 4) == fam2[ell + 1].p_val


def test_beta1_chain(curve9, places9):
    place = next(p for p in places9 if p.place_class.kind == "beta_one")
    local = LocalData(curve9, place)
    h = build_beta1_chain(curve9, local.basis)
    one = local.basis.x_a.level.one()
    assert [hj.val for hj in h] == [2, 5, 8]
    assert h[0].coefficient(2) == one and h[0].coefficient(3) == one
    assert h[1].coefficient(5) == one and h[1].coefficient(6) == one
    with pytest.raises(ValueError, match="beta = 1"):
        bad = next(p for p in places9
                   if p.place_class.kind == "rational_general")
        build_beta1_chain(curve9, LocalData(curve9, bad).basis)


def test_valuations_independent_of_lift_choice(curve9):
    sp = curve9.sample_nonrational(4, count=1)[0]
    records = []
    for which in range(3):
        local = LocalData(curve9, sp, which_lift=which)
        records.append(([x.val for x in local.f], [x.val for x in local.g]))
    assert records[0] == records[1] == records[2]


def test_gap_witness_index_validation(curve9):
    sp = curve9.sample_nonrational(4, count=1)[0]   # (i,K) = (3,0)
    local = LocalData(curve9, sp)
    with pytest.raises(ValueError, match="removed"):
        local.gap_witness(1, 4)    # the removed diagonal gap
    with pytest.raises(ValueError, match="not a gap|outside"):
        local.gap_witness(0, 26)
    w = local.gap_witness(1, 5)    # the added gap 14
    assert w.v_at_P == 13 and w.fp_exponent == 1
    with pytest.raises(ValueError, match="beyond"):
        local.gap_witness_generic(0, 7)    # would need g_1, but K = 0


def test_gap_witness_examples_from_theorem(curve9):
    # generic place: (0,1) -> 1 with v = 0; (0,2) -> x_a; (m-1,1) -> F^(m-1)
    gen = curve9.sample_nonrational(8, count=1)[0]
    local = LocalData(curve9, gen)
    w = local.gap_witness(0, 1)
    assert w.v_at_P == 0 and w.fp_exponent == 0
    w = local.gap_witness(0, 2)
    assert w.v_at_P == 1 and "x_a" in w.label
    w = local.gap_witness(curve9.m - 1, 1)
    assert w.v_at_P == (curve9.m - 1) * curve9.q
    assert w.fp_exponent == curve9.m - 1


def test_beta_zero_expansion(curve9, places9):
    for place in places9:
        if place.place_class.kind != "beta_zero":
            continue
        x = expand_x_at_beta_zero(curve9, place, 2 * curve9.q + 1)
        assert x.val == 2
        break
    with pytest.raises(ValueError):
        expand_x_at_beta_zero(curve9, curve9.infinity(), 19)


# -- chains built once, witness products shared ---------------------------------


@pytest.fixture(scope="module")
def gap_places(curve9, curve27):
    """One sampled place per non-rational class at q = 27, and the q = 9
    special place (3, 0)."""
    out = [(curve9, curve9.sample_nonrational(4, count=1)[0])]
    for order in curve27.feasible_gamma_orders():
        out += [(curve27, p) for p in curve27.sample_nonrational(order, count=1)]
    assert str(out[0][1].place_class) == "nonrational_special(i=3,K=0)"
    assert len({str(p.place_class) for _, p in out[1:]}) == 4
    return out


def test_shared_products_match_fresh_witnesses(gap_places):
    # verify_gaps shares one LocalData, its chains and its product memo
    # across all gaps; a fresh LocalData per gap shares nothing
    for curve, place in gap_places:
        certs = verify_gaps(curve, semigroup_at(curve, place))
        assert len(certs) == curve.genus
        for cert in certs:
            w = LocalData(curve, place).gap_witness(*divmod(cert.value, curve.q))
            assert cert == CertEntry(cert.value, w.label, w.v_at_P, "series", True)


def test_verify_gaps_builds_each_chain_once(gap_places, monkeypatch):
    builds = {"f": 0, "g": 0}

    def counting(name, build):
        def wrapper(*args, **kwargs):
            builds[name] += 1
            return build(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(localseries, "build_f_chain",
                        counting("f", localseries.build_f_chain))
    monkeypatch.setattr(localseries, "build_g_chain",
                        counting("g", localseries.build_g_chain))
    for curve, place in gap_places:
        builds.update(f=0, g=0)
        verify_gaps(curve, semigroup_at(curve, place))   # one LocalData
        assert builds == {"f": 1, "g": 1}, place.place_class


def test_chain_picks_the_class_chain_once(curve9, places9, monkeypatch):
    # every class that verify's valuations rows cover at q = 9: h at
    # beta = 1, f at the other rational places, g at a non-rational place
    builds = []
    for name in ("build_f_chain", "build_g_chain", "build_beta1_chain"):
        def counting(*args, _build=getattr(localseries, name), _name=name):
            builds.append(_name)
            return _build(*args)
        monkeypatch.setattr(localseries, name, counting)
    reps = class_representatives(places9)
    places = [reps[tag] for tag in sorted(reps)
              if tag not in ("infinity", "beta_zero")]
    places += [pls[0] for pls in curve9.sample_classes(1).values()]
    picked = {}
    for place in places:
        builds.clear()
        local = LocalData(curve9, place)
        chain = local.chain
        assert local.chain is chain
        kind = place.place_class.kind
        picked[kind] = next(name for name in "hfg" if vars(local).get(name) is chain)
        want = {"beta_one": ["build_beta1_chain"],
                "rational_general": ["build_f_chain"]}.get(
                    kind, ["build_f_chain", "build_g_chain"])
        assert builds == want, place.place_class
    assert picked == {"beta_one": "h", "rational_general": "f",
                      "nonrational_special": "g", "nonrational_generic": "g"}

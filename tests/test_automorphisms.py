import random

import pytest

from charthree import automorphisms as aut
from charthree.weierstrass import semigroup_at


def test_group_order_q9(curve9):
    elements = aut.group_elements(curve9)
    assert len(elements) == 54  # 2 q^2 / 3
    assert len({(s.a.pk, s.b.pk, s.eps) for s in elements}) == 54


def test_constructor_validation(curve9):
    lvl = curve9.base
    with pytest.raises(ValueError, match="a\\^q"):
        aut.make_automorphism(curve9, lvl.one(), lvl.zero(), 1)
    a = curve9.kernel_artin_schreier(2 * curve9.t)[0]
    with pytest.raises(ValueError, match="p\\(b\\)"):
        aut.make_automorphism(curve9, a, lvl.one(), 1)
    b = curve9.kernel_trace_p(2 * curve9.t)[0]
    sigma = aut.make_automorphism(curve9, a, b, -1)
    assert sigma.eps == -1


def test_group_axioms_exhaustive_q9(curve9):
    elements = aut.group_elements(curve9)
    ident = aut.identity(curve9)
    keys = {(s.a.pk, s.b.pk, s.eps) for s in elements}
    for s in elements:
        inv = aut.inverse(s)
        assert aut.compose(s, inv) == ident
        assert aut.compose(inv, s) == ident
        assert (inv.a.pk, inv.b.pk, inv.eps) in keys
    # closure and associativity, sampled
    rng = random.Random(3)
    for _ in range(300):
        s, t, u = (rng.choice(elements) for _ in range(3))
        st = aut.compose(s, t)
        assert (st.a.pk, st.b.pk, st.eps) in keys
        assert aut.compose(aut.compose(s, t), u) == aut.compose(s, aut.compose(t, u))


def test_sigma2_involution(curve9):
    lvl = curve9.base
    sigma2 = aut.Automorphism(lvl.zero(), lvl.zero(), -1)
    assert aut.compose(sigma2, sigma2) == aut.identity(curve9)


def test_translations_commute(curve9):
    elements = [s for s in aut.group_elements(curve9) if s.eps == 1]
    rng = random.Random(5)
    for _ in range(100):
        s, t = rng.choice(elements), rng.choice(elements)
        st, ts = aut.compose(s, t), aut.compose(t, s)
        assert st == ts
        assert st.a == s.a + t.a and st.b == s.b + t.b


def test_action_preserves_curve_even_on_extensions(curve9):
    # random on-curve points over F_{q^4}, images still on the curve
    rng = random.Random(7)
    elements = aut.group_elements(curve9)
    lvl = curve9.tower.level(8)
    kernel = curve9.kernel_artin_schreier(8)
    count = 0
    for _ in range(6000):
        b = lvl.random_element(rng)
        pb = curve9.p_map(b)
        a = curve9.solve_artin_schreier(-(pb * pb))
        if a is None:
            continue
        # vary the solution across the solution coset
        for v in kernel:
            if rng.randrange(2):
                a = a + v
        sigma = rng.choice(elements)
        a1, b1 = aut.apply_coords(curve9, sigma, a, b)
        pb1 = curve9.p_map(b1)
        assert (curve9.frob_q(a1) + a1 + pb1 * pb1).is_zero()
        count += 1
        if count >= 200:
            break
    assert count >= 200


def test_action_fixes_infinity_and_beta(curve9, places9):
    elements = aut.group_elements(curve9)
    sigma = elements[len(elements) // 2]
    assert aut.apply(curve9, sigma, curve9.infinity()).is_infinity()
    rng = random.Random(9)
    for _ in range(30):
        p = rng.choice(places9)
        if p.is_infinity():
            continue
        image = aut.apply(curve9, sigma, p)
        assert image.beta == p.beta


def test_sigma2_fixes_y_zero_places(curve9, places9):
    lvl = curve9.base
    sigma2 = aut.Automorphism(lvl.zero(), lvl.zero(), -1)
    for p in places9:
        if p.is_infinity() or not p.b.is_zero():
            continue
        assert (curve9.frob_q(p.a) + p.a).is_zero()
        image = aut.apply(curve9, sigma2, p)
        assert image.a == p.a and image.b == p.b


def test_orbit_of_origin_is_beta_zero_set(curve9, places9):
    p00 = next(p for p in places9
               if not p.is_infinity() and p.a.is_zero() and p.b.is_zero())
    orb = aut.orbit(curve9, p00)
    beta_zero = {(p.a.pk, p.b.pk) for p in places9
                 if p.place_class.kind == "beta_zero"}
    assert orb == beta_zero
    assert len(orb) == curve9.q * curve9.q // 3


def _keys(places):
    """The packed (a-pk, b-pk) keys of the affine places."""
    return [(p.a.pk, p.b.pk) for p in places if not p.is_infinity()]


def test_orbit_sizes_partition_q9(curve9, places9):
    keys = _keys(places9)
    orbits = aut.orbit_partition(curve9, keys)
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [27, 54, 54, 54, 54, 54]
    assert set().union(*orbits) == set(keys)


def test_semigroup_separation_facts_q9(curve9, places9):
    # 2q/3 is a non-gap only at infinity; 2q-3 is a gap exactly at beta = 0
    q = curve9.q
    cache = {}
    for p in places9:
        tag = str(p.place_class)
        if tag not in cache:
            cache[tag] = semigroup_at(curve9, p).semigroup
        sg = cache[tag]
        if p.is_infinity():
            assert sg.contains(2 * q // 3)
            assert sg.contains(2 * q - 3)
        else:
            assert not sg.contains(2 * q // 3)
            if p.place_class.kind == "beta_zero":
                assert not sg.contains(2 * q - 3)
            else:
                assert sg.contains(2 * q - 3)


def _brute_force_orbit(curve, place, elements):
    """The orbit from one `apply_coords` per group element."""
    out = set()
    for sigma in elements:
        a1, b1 = aut.apply_coords(curve, sigma, place.a, place.b)
        out.add((a1.pk, b1.pk))
    return out


@pytest.mark.parametrize("curve_name,places_name", [("curve9", "places9"),
                                                    ("curve27", "places27")])
def test_orbit_matches_brute_force(request, curve_name, places_name):
    curve = request.getfixturevalue(curve_name)
    places = request.getfixturevalue(places_name)
    elements = aut.group_elements(curve)
    orbits = aut.orbit_partition(curve, _keys(places), elements)
    by_key = {(p.a.pk, p.b.pk): p for p in places if not p.is_infinity()}
    seen = set()
    for orb in orbits:
        rep = by_key[min(orb)]
        assert rep.degree == 1
        brute = _brute_force_orbit(curve, rep, elements)
        assert aut.orbit(curve, rep, elements) == brute == orb
        seen |= orb
    assert len(seen) == len(places) - 1


def test_orbit_of_nonrational_place_matches_brute_force(curve9):
    place = curve9.sample_nonrational(8, count=1)[0]
    assert place.degree > 1 and place.a.level.n > curve9.base.n
    elements = aut.group_elements(curve9)
    orb = aut.orbit(curve9, place, elements)
    assert orb == _brute_force_orbit(curve9, place, elements)
    assert len(orb) == 2 * curve9.q * curve9.q // 3


def test_orbit_needs_the_full_product(curve9, places9):
    elements = aut.group_elements(curve9)
    with pytest.raises(ValueError, match="full product"):
        aut.orbit(curve9, places9[1], elements[:5])


def test_automorphism_rejects_bad_sign(curve9):
    lvl = curve9.base
    with pytest.raises(ValueError, match="eps"):
        aut.Automorphism(lvl.zero(), lvl.zero(), 0)

import pytest

from charthree import automorphisms as aut
from charthree.curve import Curve, PlaceClass
from charthree.errors import CertificateError
from charthree.semigroups import is_cofinite_monoid
from charthree.weierstrass import (class_representatives, full_census,
                                   generic_gap_set, interval_gap_set,
                                   semigroup_at, special_gap_set,
                                   verify_gaps, verify_nongaps)


def rep(places, kind, i=None):
    return next(p for p in places if p.place_class.kind == kind
                and (i is None or p.place_class.i == i))


GOLDEN_Q9 = {
    "infinity": [1, 2, 3, 4, 5, 7, 8, 11, 13, 14, 17, 23],
    "beta_zero": [1, 2, 3, 4, 5, 6, 7, 11, 12, 13, 15, 21],
    "beta_one": [1, 2, 3, 4, 5, 6, 7, 11, 12, 13, 14, 21],
    "generic": [1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 19],
}


def test_golden_gap_sets_q9(curve9, places9):
    for kind in ("infinity", "beta_zero", "beta_one"):
        a = semigroup_at(curve9, rep(places9, kind))
        assert list(a.gap_set.gaps) == GOLDEN_Q9[kind]
    # both high rational orders share the beta-one semigroup
    for i in (4, 9):
        a = semigroup_at(curve9, rep(places9, "rational_general", i))
        assert list(a.gap_set.gaps) == GOLDEN_Q9["beta_one"]
    assert list(generic_gap_set(curve9).gaps) == GOLDEN_Q9["generic"]


def test_special_gap_sets_q9(curve9):
    # (i,K) = (6,1): the single diagonal gap 7 moves to 8
    s61 = special_gap_set(curve9, 6, 1)
    assert list(s61.gaps) == [1, 2, 3, 4, 5, 6, 8, 10, 11, 12, 13, 19]
    # (i,K) = (3,0): the single diagonal gap 13 moves to 14
    s30 = special_gap_set(curve9, 3, 0)
    assert list(s30.gaps) == [1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 14, 19]
    for s in (s61, s30):
        assert is_cofinite_monoid(s)
        assert s.genus == curve9.genus


def test_special_differs_from_generic_by_shifts(curve9, curve27):
    for curve, pairs in ((curve9, [(6, 1), (3, 0)]),
                         (curve27, [(12, 3), (18, 5), (7, 4), (3, 0)])):
        ggen = set(generic_gap_set(curve).gaps)
        for (i, K) in pairs:
            gam = set(special_gap_set(curve, i, K).gaps)
            removed = sorted(ggen - gam)
            added = sorted(gam - ggen)
            expected = (curve.m - K - 2) // (i + 1) + 1
            assert len(removed) == len(added) == expected
            assert all(b == a + 1 for a, b in zip(removed, added))


def test_interval_oracle_matches_reachability(curve9, places9, curve27, places27):
    for curve, places in ((curve9, places9), (curve27, places27)):
        seen = set()
        for p in places:
            tag = str(p.place_class)
            if tag in seen or p.is_infinity():
                continue
            seen.add(tag)
            a = semigroup_at(curve, p)
            second = interval_gap_set(curve, p)
            assert second is not None
            assert second.gaps == a.gap_set.gaps, tag


def test_all_assignments_have_genus_gaps(curve9, places9):
    seen = set()
    for p in places9:
        tag = str(p.place_class)
        if tag in seen:
            continue
        seen.add(tag)
        a = semigroup_at(curve9, p)
        assert a.gap_set.genus == curve9.genus


def test_nongap_certificates_q9(curve9, places9):
    seen = set()
    for p in places9:
        tag = str(p.place_class)
        if tag in seen:
            continue
        seen.add(tag)
        a = semigroup_at(curve9, p)
        certs = verify_nongaps(curve9, a)
        assert all(c.verified for c in certs)
        certified = {c.value for c in certs}
        assert set(a.semigroup.generators) <= certified


def test_beta_one_generator_witness_example(curve9, places9):
    # generator 15 = (q-1) + (q-2): witness h_1/F^2 with v(h_1) = 5
    p = rep(places9, "beta_one")
    a = semigroup_at(curve9, p)
    certs = verify_nongaps(curve9, a)
    entry = next(c for c in certs if c.value == 15)
    assert "h_1" in entry.witness and entry.v_at_P == 5


def test_gap_certificates_special_and_generic_q9(curve9):
    for order, expect_cls in ((4, "nonrational_special"),
                              (8, "nonrational_generic")):
        p = curve9.sample_nonrational(order, count=1)[0]
        assert p.place_class.kind == expect_cls
        a = semigroup_at(curve9, p)
        certs = verify_gaps(curve9, a)
        assert len(certs) == curve9.genus
        assert all(c.verified for c in certs)
        assert {c.value for c in certs} == set(a.gap_set.gaps)


def test_gap_certificates_golden_special_class_q9(curve9):
    # the (6,1) class lives at coordinate degree 9; its gap set is the
    # golden "generic with 7 replaced by 8"
    pls = curve9.sample_nonrational(7, count=1, max_rel_degree=9)
    assert pls and (pls[0].place_class.i, pls[0].place_class.K) == (6, 1)
    a = semigroup_at(curve9, pls[0])
    assert list(a.gap_set.gaps) == [1, 2, 3, 4, 5, 6, 8, 10, 11, 12, 13, 19]
    certs = verify_gaps(curve9, a)
    assert all(c.verified for c in certs)
    gap8 = next(c for c in certs if c.value == 8)
    assert gap8.v_at_P == 7 and "g_1" in gap8.witness


def test_low_order_generator_witness_q27(curve27, places27):
    # i = 3 rational place at q = 27: generator (i+1)(q-2) = 100 comes
    # from f_3/F^4 with v(f_3) = 12
    p = rep(places27, "rational_general", 3)
    a = semigroup_at(curve27, p)
    assert 100 in a.semigroup.generators
    certs = verify_nongaps(curve27, a)
    entry = next(c for c in certs if c.value == 100)
    assert entry.v_at_P == 12 and "f_3" in entry.witness and entry.verified


def test_distinct_gap_sets_across_tags_q27(curve27, places27):
    """All theorem buckets yield pairwise distinct gap sets, except the
    provable coincidence of beta-one with the high rational P-orders."""
    gap_sets = {tag: semigroup_at(curve27, p).gap_set.gaps
                for tag, p in class_representatives(places27).items()}
    merged = {
        "infinity": gap_sets["infinity"],
        "beta_zero": gap_sets["beta_zero"],
        "ladder": gap_sets["beta_one"],
        "i3": gap_sets["rational_general(i=3)"],
        "i6": gap_sets["rational_general(i=6)"],
        "generic": generic_gap_set(curve27).gaps,
        "special(12,3)": special_gap_set(curve27, 12, 3).gaps,
        "special(18,5)": special_gap_set(curve27, 18, 5).gaps,
    }
    # the coincidence: i in {13, 27} repeats the beta-one ladder semigroup
    assert gap_sets["rational_general(i=13)"] == gap_sets["beta_one"]
    assert gap_sets["rational_general(i=27)"] == gap_sets["beta_one"]
    tags = sorted(merged)
    for a in range(len(tags)):
        for b in range(a + 1, len(tags)):
            assert merged[tags[a]] != merged[tags[b]], (tags[a], tags[b])


def test_class_representatives_q9(places9):
    reps = class_representatives(places9)
    assert sorted(reps) == ["beta_one", "beta_zero", "infinity",
                            "rational_general(i=4)", "rational_general(i=9)"]
    for tag, p in reps.items():
        assert p is next(x for x in places9 if str(x.place_class) == tag)


def test_full_census_q9(curve9):
    report = full_census(curve9)
    assert report.total_places == 298
    assert report.class_counts == {"infinity": 1, "beta_zero": 27,
                                   "beta_one": 54, "rational_general": 216}
    assert report.p_order_counts == {4: 108, 9: 108}
    assert report.orbit_sizes == [1, 27, 54, 54, 54, 54, 54]
    assert report.orbits_class_constant


def test_full_census_rejects_a_place_set_not_closed_under_g(curve9):
    rows = curve9.rational_rows()
    b, beta, a_values, cls = rows[-1]
    rows[-1] = (b, beta, a_values[:-1], cls)
    with pytest.raises(CertificateError, match="not a census place"):
        full_census(curve9, rows)


def _place_census(curve, places, elements):
    """The census on `Place` objects that the packed `full_census`
    replaced: per-place tallies, orbits from `orbit` and a set of classes
    per orbit."""
    class_counts, p_order_counts, by_key = {}, {}, {}
    for p in places:
        cls = p.place_class
        class_counts[cls.kind] = class_counts.get(cls.kind, 0) + 1
        if cls.kind == "rational_general":
            p_order_counts[cls.i] = p_order_counts.get(cls.i, 0) + 1
        by_key["infinity" if p.is_infinity() else (p.a.pk, p.b.pk)] = p
    seen, orbits = set(), []
    for p in places:
        key = "infinity" if p.is_infinity() else (p.a.pk, p.b.pk)
        if key not in seen:
            orb = aut.orbit(curve, p, elements)
            seen |= orb
            orbits.append(orb)
    constant = all(len({by_key[k].place_class for k in orb}) == 1 for orb in orbits)
    return (list(class_counts.items()), p_order_counts,
            sorted(len(o) for o in orbits), constant)


@pytest.mark.parametrize("curve_name,places_name", [("curve9", "places9"),
                                                    ("curve27", "places27")])
def test_packed_census_matches_place_census(request, curve_name, places_name):
    curve = request.getfixturevalue(curve_name)
    places = request.getfixturevalue(places_name)
    elements = aut.group_elements(curve)
    report = full_census(curve, curve.rational_rows(), elements)
    assert report.total_places == len(places)
    assert (list(report.class_counts.items()), report.p_order_counts,
            report.orbit_sizes, report.orbits_class_constant) == \
        _place_census(curve, places, elements)


def test_full_census_sees_a_row_with_another_class(curve9):
    rows = curve9.rational_rows()
    b, beta, a_values, cls = rows[5]
    assert cls.kind == "rational_general"
    rows[5] = (b, beta, a_values, PlaceClass("rational_general", cls.i + 1))
    assert not full_census(curve9, rows).orbits_class_constant


def test_full_census_compares_classes_by_value(curve9):
    # equal classes that are different objects are still one class
    rows = [(b, beta, a_values, PlaceClass(cls.kind, cls.i, cls.K))
            for b, beta, a_values, cls in curve9.rational_rows()]
    assert len({id(row[3]) for row in rows}) == len(rows)
    assert full_census(curve9, rows) == full_census(curve9)


def test_full_census_q81():
    report = full_census(Curve(4))
    assert report.total_places == 181522    # q^2 + 1 + 2q g
    assert report.class_counts == {"infinity": 1, "beta_zero": 2187,
                                   "beta_one": 4374, "rational_general": 174960}
    assert report.p_order_counts == {40: 87480, 81: 87480}
    assert report.orbit_sizes == [1, 2187] + [4374] * 41
    assert report.orbits_class_constant

import itertools
import json
from collections import Counter
from types import SimpleNamespace

import pytest

from charthree.cli import main
from charthree.curve import Curve, _roots_of_unity
from charthree.factorint import euler_phi
from charthree.fields import _linear_table, mult_order


def test_rejects_t1():
    with pytest.raises(ValueError, match="elliptic"):
        Curve(1)


def test_place_census_q9(curve9, places9):
    assert len(places9) == 298  # q^2 + 1 + 2q g = 81 + 1 + 216
    counts = Counter(p.place_class.kind for p in places9)
    assert counts == {"infinity": 1, "beta_zero": 27, "beta_one": 54,
                      "rational_general": 216}
    by_beta = Counter(p.beta.pk for p in places9
                      if p.place_class.kind == "rational_general")
    assert len(by_beta) == 4 and set(by_beta.values()) == {54}


def test_p_order_census_q9(curve9, places9):
    owners = Counter(p.place_class.i for p in places9
                     if p.place_class.kind == "rational_general")
    q = curve9.q
    assert owners == {i: (q * q // 3) * euler_phi(i + 1) for i in (4, 9)}
    assert owners == {4: 108, 9: 108}


def test_beta_rationality_both_directions_q9(curve9, places9):
    q = curve9.q
    seen_beta = set()
    for p in places9:
        if p.is_infinity():
            continue
        assert p.degree == 1
        beta = p.beta
        seen_beta.add(beta.pk)
        ok = beta.is_zero() or beta == 1 \
            or beta ** ((q - 1) // 2) == -beta.level.one()
        assert ok, "rational place with beta outside the criterion"
    # conversely, every beta in F_q satisfying the criterion is hit,
    # and carries its full quota of 2q^2/3 places
    lvl = curve9.base
    for beta in lvl.iter_elements():
        if beta.is_zero() or beta == 1:
            continue
        if beta ** ((q - 1) // 2) == -lvl.one():
            assert beta.pk in seen_beta
    per_beta = Counter(p.beta.pk for p in places9 if not p.is_infinity())
    assert all(c <= 2 * q * q // 3 for c in per_beta.values())


def test_place_from_coords_validation(curve9):
    lvl = curve9.base
    p = curve9.place_from_coords(lvl.zero(), lvl.zero())
    assert p.place_class.kind == "beta_zero" and p.degree == 1
    with pytest.raises(ValueError, match="curve equation"):
        curve9.place_from_coords(lvl.one(), lvl.zero())


def test_beta_one_convention(curve9, places9):
    # beta = 1 means a^q + a = -1 (beta := p(b)^2 = -(a^q + a))
    p = next(pl for pl in places9 if pl.place_class.kind == "beta_one")
    assert curve9.frob_q(p.a) + p.a == -curve9.base.one()
    pb = curve9.p_map(p.b)
    assert pb == 1 or pb == -curve9.base.one()


def test_frobenius_conjugates_are_equal_places(curve9):
    pls = curve9.sample_nonrational(4, count=1)
    p = pls[0]
    a2, b2 = curve9.frob_q2(p.a), curve9.frob_q2(p.b)
    again = curve9.place_from_coords(a2, b2)
    assert again == p  # canonical representative absorbs conjugation


def test_hermitian_lift_properties(curve9, places9):
    b1 = next(p for p in places9 if p.place_class.kind == "beta_one")
    lifts = [curve9.hermitian_lift(b1, w) for w in range(3)]
    bs = {lift.B.pk for lift in lifts}
    assert len(bs) == 3
    for lift in lifts:
        assert lift.B.cube() - lift.B == curve9.tower.embed(b1.b, lift.level.n)
        assert curve9.frob_q(lift.A) + lift.A == curve9.frob_q(lift.B) * lift.B
        # (B^q - B)^2 = beta = 1 at a beta-one place
        assert lift.pb * lift.pb == lift.level.one()
    # the three lifts differ by +-1
    b0 = lifts[0].B
    assert {(b0 + 1).pk, (b0 + 2).pk} == {lifts[1].B.pk, lifts[2].B.pk}


def test_hermitian_lift_rejections(curve9, places9):
    with pytest.raises(ValueError, match="infinity"):
        curve9.hermitian_lift(curve9.infinity())
    p0 = next(p for p in places9 if p.place_class.kind == "beta_zero")
    with pytest.raises(ValueError, match="beta != 0"):
        curve9.hermitian_lift(p0)


def test_classification_of_sampled_places(curve9):
    # gamma-order 4 (beta = -1): special with (i, K) = (3, 0)
    pls = curve9.sample_nonrational(4, count=3)
    assert len(pls) == 3
    for p in pls:
        assert p.place_class.kind == "nonrational_special"
        assert (p.place_class.i, p.place_class.K) == (3, 0)
        assert p.beta == -p.beta.level.one()
        assert p.degree > 1
    # gamma-order 8: generic with (i, K) = (7, 4) >= m-1 = 2
    pls8 = curve9.sample_nonrational(8, count=2)
    assert pls8 and all(p.place_class.kind == "nonrational_generic"
                        and (p.place_class.i, p.place_class.K) == (7, 4)
                        for p in pls8)


def test_sampled_places_distinct(curve9):
    pls = curve9.sample_nonrational(4, count=3)
    keys = {(p.a.pk, p.b.pk) for p in pls}
    assert len(keys) == 3


@pytest.mark.parametrize("n", [4, 6])
def test_roots_of_unity_match_brute_force(tower9, n):
    lvl = tower9.level(n)
    group = 3 ** n - 1
    by_order: dict[int, set[int]] = {}
    for z in lvl.iter_elements():
        if not z.is_zero():
            by_order.setdefault(mult_order(z), set()).add(z.pk)
    for o in (d for d in range(1, group + 1) if group % d == 0):
        roots = [y.pk for y in _roots_of_unity(lvl, o)]
        assert len(roots) == len(set(roots)) == euler_phi(o)
        assert set(roots) == by_order[o]
    assert list(_roots_of_unity(lvl, 7 if n == 4 else 5)) == []


def test_roots_of_unity_fail_loudly_when_scan_runs_out(tower9):
    # 5 divides 3^4 - 1, but no constant of F_81 has order 5
    lvl = tower9.level(4)
    constants_only = SimpleNamespace(
        order=lvl.order, iter_elements=lambda: itertools.islice(lvl.iter_elements(), 3))
    with pytest.raises(ArithmeticError, match="no element of order 5"):
        list(_roots_of_unity(constants_only, 5))


# First sampled place per gamma-order at q = 9, pinned so that any change in
# the order roots, signs or kernel offsets are tried in shows up here.
_FIRST_SAMPLED_Q9 = [
    (4, 4, [2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
     [0, 1, 0, 2, 2, 0, 1, 1, 1, 1, 1, 1]),
    (8, 4, [2, 2, 1, 1, 2, 0, 0, 1, 0, 1, 2, 0],
     [0, 2, 0, 2, 0, 2, 1, 1, 2, 2, 0, 2]),
    (7, 9, [0, 1, 1, 1, 0, 2, 0, 2, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1,
            1, 0, 2, 1, 2, 1, 1, 2, 1, 1, 2, 0, 2, 1, 1, 0, 0, 1],
     [0, 0, 1, 0, 0, 0, 0, 1, 0, 2, 1, 2, 2, 0, 2, 0, 1, 2,
      0, 1, 2, 2, 2, 2, 0, 1, 2, 2, 2, 1, 0, 0, 2, 2, 1, 0]),
]


@pytest.mark.parametrize("order,max_rel_degree,a,b", _FIRST_SAMPLED_Q9)
def test_first_sampled_place_pinned_q9(curve9, order, max_rel_degree, a, b):
    p = curve9.sample_nonrational(order, count=1, max_rel_degree=max_rel_degree)[0]
    assert (list(p.a.coeffs), list(p.b.coeffs)) == (a, b)


def test_feasible_orders_exclude_rational(curve9):
    orders = curve9.feasible_gamma_orders()
    assert all((curve9.q + 1) % o != 0 for o in orders)
    assert all(o % 3 != 0 for o in orders)
    assert 4 in orders and 8 in orders


def test_sample_classes_match_verify_q9(curve9, capsys):
    one = curve9.sample_classes(1)
    assert all(len(pls) == 1 for pls in one.values())
    assert main(["verify", "--t", "2", "--scope", "semigroups"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    sampled = next(r for r in rows if r["check"] == "nonrational.sampled")
    assert sampled["detail"] == f"{len(one)} places, classes {sorted(one)}"
    # the first place of a class does not depend on the count
    three = curve9.sample_classes(3)
    assert list(three) == list(one)
    assert all(three[tag][0] == one[tag][0] for tag in one)


def test_place_census_q27_class_counts(curve27, places27):
    assert len(places27) == 7048  # 729 + 1 + 2*27*117
    counts = Counter(p.place_class.kind for p in places27)
    assert counts == {"infinity": 1, "beta_zero": 243, "beta_one": 486,
                      "rational_general": 6318}
    owners = Counter(p.place_class.i for p in places27
                     if p.place_class.kind == "rational_general")
    assert owners == {3: 486, 6: 1458, 13: 1458, 27: 2916}


def _bucket_scan(curve):
    """The FieldElement scan `enumerate_rational` replaced: a^q + a and
    p(b)^2 computed element by element, a's bucketed by a^q + a."""
    lvl = curve.base
    buckets = {}
    for a in lvl.iter_elements():
        buckets.setdefault((curve.frob_q(a) + a).pk, []).append(a)
    rows = []
    for b in lvl.iter_elements():
        pb = curve.p_map(b)
        beta = pb * pb
        for a in buckets.get((-beta).pk, ()):
            rows.append((a.pk, b.pk, beta.pk, 1, curve.classify_beta(beta, 1)))
    return rows


@pytest.mark.parametrize("curve_name,places_name", [("curve9", "places9"),
                                                    ("curve27", "places27")])
def test_enumerate_rational_matches_bucket_scan(request, curve_name, places_name):
    curve = request.getfixturevalue(curve_name)
    places = request.getfixturevalue(places_name)
    assert places[0].is_infinity()
    assert [(p.a.pk, p.b.pk, p.beta.pk, p.degree, p.place_class)
            for p in places[1:]] == _bucket_scan(curve)


@pytest.mark.parametrize("curve_name", ["curve9", "curve27"])
def test_linear_table_matches_the_maps(request, curve_name):
    curve = request.getfixturevalue(curve_name)
    lvl = curve.base
    assert lvl.n == 2 * curve.t
    basis = [lvl.basis_element(j) for j in range(lvl.n)]
    elements = list(lvl.iter_elements())
    for f in (lambda x: curve.frob_q(x) + x, curve.p_map):
        table = _linear_table([f(x).pk for x in basis])
        assert table == [f(x).pk for x in elements]


@pytest.mark.parametrize("t", [2, 3])
def test_orbit_walk_matches_brute_force(t, curve9, curve27):
    # place_from_coords walks each q^2-Frobenius orbit once: from every
    # member it must find the orbit length and the member with the
    # lexicographically smallest (b, a) coefficients
    curve = {2: curve9, 3: curve27}[t]
    for places in curve.sample_classes(3).values():
        for p in places:
            orbit = [(p.a, p.b)]
            while True:
                x, y = (curve.frob_q2(c) for c in orbit[-1])
                if (x, y) == orbit[0]:
                    break
                orbit.append((x, y))
            a, b = min(orbit, key=lambda ab: (ab[1].coeffs, ab[0].coeffs))
            assert len(orbit) == p.degree > 1
            assert (p.a, p.b) == (a, b)
            assert all(curve.place_from_coords(x, y) == p for x, y in orbit)

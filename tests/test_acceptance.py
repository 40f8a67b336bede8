"""Acceptance suite: every exit criterion, exact tolerances, one printed
pass/fail line per criterion (see the terminal summary section)."""

import random
import time
from collections import Counter

import pytest

from charthree import automorphisms as aut
from charthree import polyfamilies as pf
from charthree.curve import Curve
from charthree.factorint import euler_phi
from charthree.fields import sqrt
from charthree.localseries import LocalData
from charthree.polyfamilies import eval_chain
from charthree.semigroups import is_cofinite_monoid
from charthree.weierstrass import (class_representatives, full_census,
                                   generic_gap_set, semigroup_at,
                                   special_gap_set, verify_gaps,
                                   verify_nongaps)

from conftest import ACCEPTANCE_LINES


def report(criterion: int, ok: bool, detail: str):
    line = f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# -- shared sampled data: three places per realizable non-rational class -------


@pytest.fixture(scope="module")
def sampled9(curve9):
    by_class = curve9.sample_classes(3)
    # gamma order 7 is only realized at relative degree 9
    place = curve9.sample_nonrational(7, count=1, max_rel_degree=9)[0]
    by_class[str(place.place_class)] = [place]
    return by_class


@pytest.fixture(scope="module")
def sampled27(curve27):
    return curve27.sample_classes(3)


# -- criteria -------------------------------------------------------------------


def test_criterion_1_place_census():
    t0 = time.monotonic()
    curve = Curve(2)
    n9 = len(curve.enumerate_rational())
    dt9 = time.monotonic() - t0
    t0 = time.monotonic()
    curve27 = Curve(3)
    n27 = len(curve27.enumerate_rational())
    dt27 = time.monotonic() - t0
    ok = (n9 == 298 == 9 * 9 + 1 + 2 * 9 * 12 and dt9 < 10
          and n27 == 7048 == 27 * 27 + 1 + 2 * 27 * 117 and dt27 < 300)
    report(1, ok, f"298 places q=9 in {dt9:.1f}s; 7048 places q=27 in {dt27:.1f}s")


def test_criterion_2_class_census(curve9, places9, curve27, places27):
    c9 = Counter(p.place_class.kind for p in places9)
    beta9 = Counter(p.beta.pk for p in places9
                    if p.place_class.kind == "rational_general")
    i9 = Counter(p.place_class.i for p in places9
                 if p.place_class.kind == "rational_general")
    i27 = Counter(p.place_class.i for p in places27
                  if p.place_class.kind == "rational_general")
    ok = (c9 == {"infinity": 1, "beta_zero": 27, "beta_one": 54,
                 "rational_general": 216}
          and len(beta9) == 4 and set(beta9.values()) == {54}
          and i9 == {i: 27 * euler_phi(i + 1) for i in (4, 9)}
          and i9 == {4: 108, 9: 108}
          and i27 == {i: 243 * euler_phi(i + 1) for i in (3, 6, 13, 27)}
          and i27 == {3: 486, 6: 1458, 13: 1458, 27: 2916})
    report(2, ok, f"q=9 {dict(c9)}, P-orders {dict(i9)}; q=27 P-orders {dict(i27)}")


def test_criterion_3_polynomial_engine(curve9, curve27):
    rng = random.Random(2024)
    checked = 0
    for curve in (curve9, curve27):
        for n in (2 * curve.t, 4 * curve.t):
            lvl = curve.tower.level(n)
            tested = 0
            while tested < 200:
                beta = lvl.random_element(rng)
                if beta.is_zero() or beta == 1:
                    continue
                tested += 1
                chain = eval_chain(50, beta)
                # independent closed-form sweep: incremental eigenvalue powers
                w, ext = sqrt(beta)
                b = curve.tower.embed(beta, w.level.n) if ext else beta
                one = w.level.one()
                lam, mu = b ** 3 + b * w, b ** 3 - b * w
                lam_i, mu_i = one, one
                inv_bw = (b * w).inverse()
                inv_bb1 = (b * (b - one)).inverse()
                inv_b2 = (b * b).inverse()
                for i in range(51):
                    p = (-lam_i + mu_i) * inv_bw
                    qv = ((w - one) * lam_i - (w + one) * mu_i) * inv_bb1
                    r = ((w + one) * lam_i - (w - one) * mu_i) * inv_b2
                    if ext:
                        tw = curve.tower
                        p, qv, r = (tw.section(v, n) for v in (p, qv, r))
                    assert p == chain[i].p_val and qv == chain[i].q_val \
                        and r == chain[i].r_val
                    lam_i, mu_i = lam_i * lam, mu_i * mu
                checked += 1
    # identities for all (i, j, l) <= 10 at 100 random beta (one chain per beta)
    lvl = curve9.base
    tested = 0
    while tested < 100:
        beta = lvl.random_element(rng)
        if beta.is_zero() or beta == 1:
            continue
        tested += 1
        ch = eval_chain(30, beta)
        factor_cache = {0: lvl.one()}
        base = beta ** 6 - beta ** 3
        for i in range(1, 11):
            factor_cache[i] = factor_cache[i - 1] * base
        for i in range(11):
            fi = factor_cache[i]
            for j in range(11):
                for ell in range(11):
                    assert ch[i + j].p_val * ch[i + ell].p_val \
                        - ch[i].p_val * ch[i + j + ell].p_val \
                        == fi * ch[j].p_val * ch[ell].p_val
                    assert ch[i + j].p_val * ch[i + ell].q_val \
                        - ch[i].p_val * ch[i + j + ell].q_val \
                        == fi * ch[j].p_val * ch[ell].q_val
                    assert ch[i + j].p_val * ch[i + ell].r_val \
                        - ch[i].p_val * ch[i + j + ell].r_val \
                        == fi * ch[j].p_val * ch[ell].r_val
    sym = pf.corollary_check_symbolic(12)
    report(3, sym and checked == 800,
           f"closed==recursive at {checked} beta (i<=50); identities (max 10) "
           f"at 100 beta; symbolic corollary i<=12")


def _valuation_sweep(curve, places9_or_27, sampled):
    """Criterion 4/5 workhorse: chains at 3 places x 3 lifts per class."""
    m, q = curve.m, curve.q
    worst = 0.0
    leading_ok = True
    rational = {}
    for p in places9_or_27:
        kind = p.place_class.kind
        if kind in ("beta_one", "rational_general"):
            rational.setdefault(str(p.place_class), []).append(p)
    class_places = {tag: pls[:3] for tag, pls in rational.items()}
    class_places.update(sampled)
    for tag, pls in sorted(class_places.items()):
        for place in pls[:3]:
            for which in range(3):
                t0 = time.monotonic()
                local = LocalData(curve, place, which_lift=which)
                cls = place.place_class
                if cls.kind == "beta_one":
                    assert [x.val for x in local.h] == [3 * j + 2 for j in range(m)]
                else:
                    i, K = cls.i, cls.K
                    fam = eval_chain(min(i, m - 1) + 1, local.basis.beta)
                    for j, fj in enumerate(local.f):
                        want = 3 * j + 3 if j == i else 3 * j + 2
                        assert fj.val == want
                        # leading pair (P_{j+1}, Q_{j+1}); P_{i+1} = 0 at j = i
                        if fj.coefficient(3 * j + 2) != fam[j + 1].p_val:
                            leading_ok = False
                        if 3 * j + 3 < q and j != i \
                                and fj.coefficient(3 * j + 3) != fam[j + 1].q_val:
                            leading_ok = False
                    if K is not None:
                        for ell, gl in enumerate(local.g):
                            want = 3 * ell + 4 if ell == K else 3 * ell + 3
                            assert gl.val == want
                            if gl.coefficient(3 * ell + 3) != fam[ell + 1].r_val:
                                leading_ok = False
                            if gl.coefficient(3 * ell + 4) != fam[ell + 1].p_val:
                                leading_ok = False
                worst = max(worst, time.monotonic() - t0)
    return worst, leading_ok, sorted(class_places)


def test_criterion_4_and_5_valuations(curve9, places9, sampled9,
                                      curve27, places27, sampled27):
    worst9, leading9, classes9 = _valuation_sweep(curve9, places9, sampled9)
    worst27, leading27, classes27 = _valuation_sweep(curve27, places27, sampled27)
    special9 = [c for c in classes9 if "special" in c]
    generic9 = [c for c in classes9 if "generic" in c]
    special27 = [c for c in classes27 if "special" in c]
    generic27 = [c for c in classes27 if "generic" in c]
    ok4 = worst27 < 60 and special9 and generic9 and special27 and generic27
    report(4, ok4,
           f"chains at 3 places x 3 lifts per class; q=9 classes {classes9}; "
           f"q=27 classes {classes27}; worst place {worst27:.1f}s (< 60s)")
    report(5, leading9 and leading27,
           "leading pairs (P,Q) for f and (R,P) for g at every sampled place")


def _closure_oracle(gens, bound):
    reach = [False] * (bound + 1)
    reach[0] = True
    changed = True
    while changed:
        changed = False
        for v in range(1, bound + 1):
            if not reach[v] and any(v >= g and reach[v - g] for g in gens):
                reach[v] = True
                changed = True
    return [v for v in range(bound + 1) if not reach[v]]


def test_criterion_6_semigroup_suite(curve9, places9, curve27, places27,
                                     sampled9, sampled27):
    golden = {
        "infinity": ((6, 9, 10), [1, 2, 3, 4, 5, 7, 8, 11, 13, 14, 17, 23]),
        "beta_zero": ((8, 9, 10, 14), [1, 2, 3, 4, 5, 6, 7, 11, 12, 13, 15, 21]),
        "beta_one": ((8, 9, 10, 15, 22), [1, 2, 3, 4, 5, 6, 7, 11, 12, 13, 14, 21]),
    }
    ok = True
    for kind, (gens, gaps) in golden.items():
        place = next(p for p in places9 if p.place_class.kind == kind)
        a = semigroup_at(curve9, place)
        oracle = _closure_oracle(gens, max(gaps) + max(gens) + 1)
        ok &= oracle == gaps == list(a.gap_set.gaps)
    ok &= list(generic_gap_set(curve9).gaps) == \
        [1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 19]
    # the special classes at q=9: (6,1) carries the 7->8 replacement,
    # (3,0) the 13->14 one; both complements must be monoids
    s61 = special_gap_set(curve9, 6, 1)
    s30 = special_gap_set(curve9, 3, 0)
    ok &= list(s61.gaps) == [1, 2, 3, 4, 5, 6, 8, 10, 11, 12, 13, 19]
    ok &= list(s30.gaps) == [1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 14, 19]
    ok &= is_cofinite_monoid(s61) and is_cofinite_monoid(s30)
    # every assignment carries exactly genus gaps (all classes, both q)
    for curve, places, sampled in ((curve9, places9, sampled9),
                                   (curve27, places27, sampled27)):
        reps = class_representatives(places)
        reps.update((tag, pls[0]) for tag, pls in sampled.items())
        for tag, p in reps.items():
            a = semigroup_at(curve, p)
            ok &= a.gap_set.genus == curve.genus
            if a.semigroup is not None:
                oracle = _closure_oracle(
                    list(a.semigroup.generators),
                    a.gap_set.conductor + max(a.semigroup.generators))
                ok &= oracle == list(a.gap_set.gaps)
    report(6, ok, "golden q=9 gap sets (incl. both special classes) and "
                  "genus-many gaps for every class at q=9 and q=27")


def test_criterion_7_gap_certificates(curve9, sampled9, curve27, sampled27):
    total = 0
    places_count = 0
    for curve, sampled in ((curve9, sampled9), (curve27, sampled27)):
        for tag, places in sorted(sampled.items()):
            for place in places:
                a = semigroup_at(curve, place)
                certs = verify_gaps(curve, a)
                assert len(certs) == curve.genus
                assert all(c.verified for c in certs)
                assert {c.value for c in certs} == set(a.gap_set.gaps)
                total += len(certs)
                places_count += 1
    report(7, total > 0,
           f"{total} gaps witnessed across {places_count} sampled "
           f"non-rational places (100%)")


def test_criterion_8_nongap_certificates(curve9, places9, curve27, places27):
    total = 0
    for curve, places in ((curve9, places9), (curve27, places27)):
        for tag, p in sorted(class_representatives(places).items()):
            a = semigroup_at(curve, p)
            certs = verify_nongaps(curve, a)
            assert all(c.verified for c in certs)
            assert set(a.semigroup.generators) <= {c.value for c in certs}
            total += len(certs)
    report(8, total > 0,
           f"{total} generator witnesses across every rational class, "
           f"q = 9 and 27 (100%)")


def test_criterion_9_automorphisms(curve9, places9, curve27, places27):
    ok = True
    details = []
    for curve, places in ((curve9, places9), (curve27, places27)):
        elements = aut.group_elements(curve)
        expected = 2 * curve.q * curve.q // 3
        ok &= len(elements) == expected
        ident = aut.identity(curve)
        keys = {(s.a.pk, s.b.pk, s.eps) for s in elements}
        for s in elements:
            inv = aut.inverse(s)
            ok &= aut.compose(s, inv) == ident
            ok &= (inv.a.pk, inv.b.pk, inv.eps) in keys
        rng = random.Random(99)
        for _ in range(200):
            s, t, u = (rng.choice(elements) for _ in range(3))
            st = aut.compose(s, t)
            ok &= (st.a.pk, st.b.pk, st.eps) in keys
            ok &= aut.compose(st, u) == aut.compose(s, aut.compose(t, u))
        p00 = next(p for p in places if not p.is_infinity()
                   and p.a.is_zero() and p.b.is_zero())
        orb = aut.orbit(curve, p00, elements)
        beta_zero = {(p.a.pk, p.b.pk) for p in places
                     if p.place_class.kind == "beta_zero"}
        ok &= orb == beta_zero and len(orb) == curve.q * curve.q // 3
        report_obj = full_census(curve)
        ok &= sum(report_obj.orbit_sizes) == len(places)
        ok &= report_obj.orbits_class_constant
        details.append(f"q={curve.q}: |G|={len(elements)}, "
                       f"orbit sizes {Counter(report_obj.orbit_sizes)}")
    report(9, ok, "; ".join(details))


def test_criterion_10_separation_facts(curve9, places9):
    q = curve9.q
    cache = {}
    ok = True
    for p in places9:
        tag = str(p.place_class)
        if tag not in cache:
            cache[tag] = semigroup_at(curve9, p).semigroup
        sg = cache[tag]
        if p.is_infinity():
            ok &= sg.contains(2 * q // 3)
        else:
            ok &= not sg.contains(2 * q // 3)
            beta_zero = p.place_class.kind == "beta_zero"
            ok &= sg.contains(2 * q - 3) != beta_zero
    report(10, ok, "2q/3 in H only at infinity; 2q-3 a gap exactly at "
                   "beta = 0 (exhaustive over all 298 places, q = 9)")

"""Weierstrass semigroups and gap sets at every place, with certificates.

Rational places get generator presentations (theorem dispatch on the
classification), whose gap sets are computed two independent ways:
reachability from the generators, and the interval bookkeeping that the
counting arguments use.  Non-rational places get explicit gap sets: the
generic set {jq + k | j = 0..m-1, k = 1..q-2-3j} when the R-order K is
at least m-1, else the same set with the [(m-K-2)/(i+1)]+1 diagonal gaps
(m-K-2-l(i+1))q + 3K+4+3l(i+1) each shifted up by one.

Certificates: every claimed generator of a rational semigroup is backed
by an explicit function with that exact pole order at the place (series
valuations verified where a local expansion exists, divisor facts for
x, y, F_P recorded as such), and every claimed gap of a sampled
non-rational place is backed by a pole-bounded function h with
v_P(h) = gap - 1, certified by exact series arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import automorphisms
from .curve import (BETA_ONE, BETA_ZERO, Curve, INFINITY, NONRATIONAL_GENERIC,
                    NONRATIONAL_SPECIAL, Place, PlaceClass, RATIONAL_GENERAL)
from .errors import CertificateError, require
from .localseries import LocalData, expand_x_at_beta_zero
from .semigroups import GapSet, NumericalSemigroup, is_cofinite_monoid


@dataclass(frozen=True)
class CertEntry:
    value: int          # the generator or gap being certified
    witness: str        # description of the function
    v_at_P: int         # its valuation at the place (pole order if negative)
    method: str         # "series", "divisor", "maximality", "fundamental-eq"
    verified: bool


@dataclass
class SemigroupAssignment:
    place: Place
    theorem_tag: str
    semigroup: NumericalSemigroup | None    # generator presentation (rational)
    gap_set: GapSet
    certificates: list[CertEntry] = field(default_factory=list)


# ---------------------------------------------------------------------------
# generator and gap-set formulas


def generators_for(curve: Curve, place: Place) -> tuple[int, ...] | None:
    q, m = curve.q, curve.m
    cls = place.place_class
    if cls.kind == INFINITY:
        return (2 * m, q, q + 1)
    if cls.kind == BETA_ZERO:
        return (q - 1, q, q + 1, 2 * q - 4)
    if cls.kind == BETA_ONE:
        return (q, q + 1) + tuple((q - 1) + j * (q - 2) for j in range(m))
    if cls.kind == RATIONAL_GENERAL:
        i = cls.i
        if i < m - 1:
            return ((q, q + 1) + tuple((q - 1) + j * (q - 2) for j in range(i))
                    + ((i + 1) * (q - 2),))
        require(i in ((q - 1) // 2, q), f"high rational P-order {i} unexpected")
        return (q, q + 1) + tuple((q - 1) + j * (q - 2) for j in range(m))
    return None


def generic_gap_set(curve: Curve) -> GapSet:
    q, m = curve.q, curve.m
    return GapSet(j * q + k for j in range(m) for k in range(1, q - 1 - 3 * j))


def special_gap_indices(curve: Curve, i: int, K: int) -> set[tuple[int, int]]:
    """(j, k) index pairs of the gap set of a special place (K <= m-2)."""
    q, m = curve.q, curve.m
    idx = {(j, k) for j in range(m) for k in range(1, q - 1 - 3 * j)}
    for ell in range((m - K - 2) // (i + 1) + 1):
        j = m - K - 2 - ell * (i + 1)
        k = 3 * K + 4 + 3 * ell * (i + 1)
        require((j, k) in idx, f"diagonal index ({j}, {k}) is not a generic gap")
        idx.remove((j, k))
        idx.add((j, k + 1))
    return idx


def special_gap_set(curve: Curve, i: int, K: int) -> GapSet:
    return GapSet(j * curve.q + k for j, k in special_gap_indices(curve, i, K))


def interval_gap_set(curve: Curve, place: Place) -> GapSet | None:
    """Second, independent derivation of rational gap sets: the interval
    bookkeeping of the counting arguments.

    The gaps lie in bands between consecutive generator ladders: band l
    (l = 0..m-1) is {l(q+1)+1, ..., (l+1)(q-2)}, except that when the
    extra generator (i+1)(q-2) exists (P-order i < m-1) the bands with
    (i+1) | (l+1) end one earlier and pick up (l+1)(q-2)+1 instead.
    """
    q, m = curve.q, curve.m
    cls = place.place_class
    if cls.kind == BETA_ZERO:
        i = 1
    elif cls.kind == BETA_ONE:
        i = None            # no extra generator: plain bands
    elif cls.kind == RATIONAL_GENERAL:
        i = cls.i if cls.i < m - 1 else None
    else:
        return None
    gaps = []
    for ell in range(m):
        lo = ell * (q + 1) + 1
        hi = (ell + 1) * (q - 2)
        if i is not None and (ell + 1) % (i + 1) == 0:
            gaps.extend(range(lo, hi))
            gaps.append(hi + 1)
        else:
            gaps.extend(range(lo, hi + 1))
    return GapSet(gaps)


def semigroup_at(curve: Curve, place: Place) -> SemigroupAssignment:
    """The semigroup/gap-set assignment of the matching theorem, with the
    gap count pinned to the genus and rational gap sets double-derived."""
    cls = place.place_class
    gens = generators_for(curve, place)
    if gens is not None:
        sg = NumericalSemigroup.from_generators(gens)
        gap_set = sg.gap_set()
        second = interval_gap_set(curve, place)
        if second is not None:
            require(second.gaps == gap_set.gaps,
                    "interval bookkeeping disagrees with reachability")
        tag = cls.kind if cls.i is None else f"{cls.kind}(i={cls.i})"
        assignment = SemigroupAssignment(place, tag, sg, gap_set)
    else:
        if cls.kind == NONRATIONAL_GENERIC:
            gap_set = generic_gap_set(curve)
            tag = NONRATIONAL_GENERIC
        else:
            require(cls.kind == NONRATIONAL_SPECIAL, f"unexpected class {cls.kind}")
            gap_set = special_gap_set(curve, cls.i, cls.K)
            tag = f"{NONRATIONAL_SPECIAL}(i={cls.i},K={cls.K})"
        require(is_cofinite_monoid(gap_set), "gap set complement must be a monoid")
        assignment = SemigroupAssignment(place, tag, None, gap_set)
    require(assignment.gap_set.genus == curve.genus,
            f"gap count {assignment.gap_set.genus} != genus {curve.genus}")
    return assignment


# ---------------------------------------------------------------------------
# certificates


def verify_nongaps(curve: Curve, assignment: SemigroupAssignment) -> list[CertEntry]:
    """A witness per stated generator: a function with exact pole order n
    at the place and no pole surplus at infinity.

    Witness shapes (F = F_P from the fundamental equation, pole q+1 at
    infinity, zero of order q+1 at rational P):
      infinity:  x (pole 2m), y (pole q), 1/F (pole q+1)
      beta zero: (x-a)/F, (y-b)/F, 1/F, (x-a)^3/F^2  (v(x-a) = 2 via the
                 y-adic expansion, v(y-b) = 1)
      beta one:  h_j/F^(j+1) for the ladder, (y-b)/F, 1/F
      general:   f_j/F^(j+1), f_i/F^(i+1) when i < m-1, (y-b)/F, 1/F
    """
    place = assignment.place
    cls = place.place_class
    q, m = curve.q, curve.m
    certs: list[CertEntry] = []
    sg = assignment.semigroup
    if sg is None:
        raise ValueError("non-gap certificates apply to rational places")

    def add(value, witness, v, method, numer_pole, denom_exp):
        ok = (denom_exp * (q + 1) - v == value) and numer_pole <= denom_exp * (q + 1)
        certs.append(CertEntry(value, witness, v, method, ok))

    if cls.kind == INFINITY:
        certs.append(CertEntry(2 * m, "x", -2 * m, "divisor", True))
        certs.append(CertEntry(q, "y", -q, "divisor", True))
        certs.append(CertEntry(q + 1, "1/F_P (P rational affine)", -(q + 1),
                               "fundamental-eq", True))
    elif cls.kind == BETA_ZERO:
        x = expand_x_at_beta_zero(curve, place, 2 * q + 1)
        require(x.val == 2, f"v(x - a) = {x.val}, want 2")
        add(q - 1, "(x-a)/F", 2, "series", 2 * m, 1)
        add(q, "(y-b)/F", 1, "series", q, 1)
        add(q + 1, "1/F", 0, "fundamental-eq", 0, 1)
        x3 = x * x * x
        require(x3.val == 6, f"v((x - a)^3) = {x3.val}, want 6")
        add(2 * q - 4, "(x-a)^3/F^2", 6, "series", 6 * m, 2)
    else:
        local = LocalData(curve, place)
        add(q, "(y-b)/F", local.basis.y_b.val, "series", q, 1)
        add(q + 1, "1/F", 0, "fundamental-eq", 0, 1)
        name = "h" if cls.kind == BETA_ONE else "f"
        # the ladder (q-1) + j(q-2), then f_i for (i+1)(q-2) when i < m-1
        for j, cj in enumerate(local.chain):
            value = (j + 1) * (q - 2) if j == cls.i < m - 1 else (q - 1) + j * (q - 2)
            add(value, f"{name}_{j}/F^{j + 1}", cj.val, "series", (j + 1) * q, j + 1)
    by_value = {c.value for c in certs}
    for g in sg.generators:
        require(g in by_value, f"generator {g} lacks a certificate")
    require(all(c.verified for c in certs), "a non-gap certificate failed")
    return certs


def verify_gaps(curve: Curve, assignment: SemigroupAssignment) -> list[CertEntry]:
    """A pole-bounded witness per claimed gap of a non-rational place."""
    place = assignment.place
    if place.degree <= 1:
        raise ValueError("gap witnesses are for non-rational places")
    local = LocalData(curve, place)
    q = curve.q
    certs = []
    for gap in assignment.gap_set.gaps:
        j, k = divmod(gap, q)
        w = local.gap_witness(j, k)
        ok = (w.v_at_P == gap - 1
              and w.pole_bound <= (curve.m - 1) * (curve.q + 2))
        certs.append(CertEntry(gap, w.label, w.v_at_P, "series", ok))
    require(all(c.verified for c in certs), "a gap certificate failed")
    return certs


# ---------------------------------------------------------------------------
# census


def class_representatives(places) -> dict[str, Place]:
    """The first of the given places in each class, keyed by class tag."""
    first: dict[str, Place] = {}
    for p in places:
        first.setdefault(str(p.place_class), p)
    return first


@dataclass
class CensusReport:
    q: int
    total_places: int
    class_counts: dict[str, int]
    p_order_counts: dict[int, int]
    orbit_sizes: list[int]
    orbits_class_constant: bool


def full_census(curve: Curve, rows: list[tuple] | None = None,
                elements: list[automorphisms.Automorphism] | None = None
                ) -> CensusReport:
    """Tally the rational places by class and P-order, compute the
    automorphism orbits and check assignments are orbit-constant.

    `rows` is the output of `curve.rational_rows()` and `elements` that of
    `automorphisms.group_elements(curve)`; either is computed here when not
    given, so a caller that already holds them does not pay twice.  Every
    orbit point is looked up among the census keys, so closure of the
    place set under G and class constancy are checked place by place.
    Classes are cached per beta, so they compare by identity first."""
    if rows is None:
        rows = curve.rational_rows()
    if elements is None:
        elements = automorphisms.group_elements(curve)
    class_counts: dict[str, int] = {INFINITY: 1}
    p_order_counts: dict[int, int] = {}
    census: dict[tuple[int, int], PlaceClass] = {}     # (a-pk, b-pk) -> class
    for b, _, a_values, cls in rows:
        count = len(a_values)
        class_counts[cls.kind] = class_counts.get(cls.kind, 0) + count
        if cls.kind == RATIONAL_GENERAL:
            p_order_counts[cls.i] = p_order_counts.get(cls.i, 0) + count
        bk = b.pk
        for a in a_values:
            census[a.pk, bk] = cls
    orbits = automorphisms.orbit_partition(curve, census, elements)
    constant = True
    for orb in orbits:
        try:
            classes = list(map(census.__getitem__, orb))
        except KeyError as exc:
            raise CertificateError(f"orbit point {exc} is not a census place") from None
        # list.count compares by identity before equality
        if classes.count(classes[0]) != len(classes):
            constant = False
    return CensusReport(
        q=curve.q,
        total_places=sum(class_counts.values()),
        class_counts=class_counts,
        p_order_counts=p_order_counts,
        orbit_sizes=sorted([1] + [len(o) for o in orbits]),   # 1: P_infinity
        orbits_class_constant=constant,
    )

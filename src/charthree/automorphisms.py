"""The automorphism group (x, y) -> (x + a, eps*y + b) of the curve.

Parameters: a with a^q + a = 0 (q choices), b with p(b) = 0 (q/3
choices, all in F_q), and a sign eps, giving 2q^2/3 elements.  The
translations form an elementary abelian 3-group acting sharply
transitively on each coset {p(y) = const}; the sign flips p(y).  Every
element fixes the place at infinity and preserves beta.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import Curve, Place
from .errors import require
from .fields import FieldElement, _linear_table, _p3_canon


@dataclass(frozen=True)
class Automorphism:
    a: FieldElement     # a^q + a = 0
    b: FieldElement     # p(b) = 0
    eps: int            # +1 or -1

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")


def make_automorphism(curve: Curve, a: FieldElement, b: FieldElement,
                      eps: int) -> Automorphism:
    if not (curve.frob_q(a) + a).is_zero():
        raise ValueError("a must satisfy a^q + a = 0")
    if not curve.p_map(b).is_zero():
        raise ValueError("b must satisfy p(b) = 0")
    return Automorphism(a, b, eps)     # which checks eps


def identity(curve: Curve) -> Automorphism:
    lvl = curve.base
    return Automorphism(lvl.zero(), lvl.zero(), 1)


def compose(sigma: Automorphism, tau: Automorphism) -> Automorphism:
    """sigma o tau (tau applied first): (a1+a2, b1+eps1*b2, eps1*eps2)."""
    a = sigma.a + tau.a
    b = sigma.b + (tau.b if sigma.eps == 1 else -tau.b)
    return Automorphism(a, b, sigma.eps * tau.eps)


def inverse(sigma: Automorphism) -> Automorphism:
    b = -sigma.b if sigma.eps == 1 else sigma.b
    return Automorphism(-sigma.a, b, sigma.eps)


def apply_coords(curve: Curve, sigma: Automorphism,
                 a0: FieldElement, b0: FieldElement):
    """Image of the point (a0, b0); embeds the group parameters up if the
    point lives in an extension level."""
    n = a0.level.n
    sa = curve.tower.embed(sigma.a, n) if sigma.a.level.n != n else sigma.a
    sb = curve.tower.embed(sigma.b, n) if sigma.b.level.n != n else sigma.b
    y = b0 if sigma.eps == 1 else -b0
    return a0 + sa, y + sb

def apply(curve: Curve, sigma: Automorphism, place: Place) -> Place:
    """Image place; the place at infinity is fixed by the whole group."""
    if place.is_infinity():
        return place
    a1, b1 = apply_coords(curve, sigma, place.a, place.b)
    return curve.place_from_coords(a1, b1)


def group_elements(curve: Curve) -> list[Automorphism]:
    """All 2q^2/3 automorphisms, in a deterministic order: eps, then a,
    then b, each kernel spanned in counter order (first basis vector
    fastest)."""
    n = 2 * curve.t
    a_kernel = curve.kernel_artin_schreier(n)
    b_kernel = curve.kernel_trace_p(n)
    require(len(a_kernel) == curve.t, "a^q + a = 0 must have q solutions")
    require(len(b_kernel) == curve.t - 1, "p(b) = 0 must have q/3 solutions")
    lvl = curve.base
    a_values = [FieldElement(lvl, pk) for pk in _linear_table([v.pk for v in a_kernel])]
    b_values = [FieldElement(lvl, pk) for pk in _linear_table([v.pk for v in b_kernel])]
    elements = [Automorphism(a, b, eps) for eps in (1, -1)
                for a in a_values for b in b_values]
    require(len(elements) == 2 * curve.q * curve.q // 3, "|G| must be 2q^2/3")
    return elements


def _shifts(curve: Curve, elements: list[Automorphism], n: int):
    """The distinct a-shifts and (eps, b)-shifts of the group, packed at
    level n (embedded from the base level when n is larger).

    Raises ValueError unless `elements` is the full product of the two
    shift sets, which is what `orbit` relies on."""
    a_set = {s.a for s in elements}
    eb_set = {(s.eps, s.b) for s in elements}
    if len(a_set) * len(eb_set) != len({(s.a, s.b, s.eps) for s in elements}):
        raise ValueError("the elements are not the full product of their "
                         "a- and (eps, b)-parameters")

    def pk(x):
        return (x if x.level.n == n else curve.tower.embed(x, n)).pk

    return [pk(a) for a in a_set], [(eps, pk(b)) for eps, b in eb_set]


def _product_orbit(pa: int, pb: int, threes: int, a_shifts, eb_shifts) -> set:
    """The orbit of the packed point (pa, pb), whose level has the packed
    all-threes constant `threes`, under the shift sets of `_shifts`."""
    neg_pb = _p3_canon(threes - pb)
    a_keys = [_p3_canon(pa + x) for x in a_shifts]
    b_keys = {_p3_canon((pb if eps == 1 else neg_pb) + y) for eps, y in eb_shifts}
    return {(x, y) for x in a_keys for y in b_keys}


def orbit(curve: Curve, place: Place,
          elements: list[Automorphism] | None = None) -> set:
    """The G-orbit of a place, as a set of coordinate keys ((a-pk, b-pk)
    pairs; the infinite place maps to a marker).

    G is the full product of its parameter sets and moves a and b
    independently, (a0, b0) -> (a0 + a, eps*b0 + b), so the orbit is the
    product {a0 + a} x {eps*b0 + b} over the q distinct a and the 2q/3
    distinct (eps, b): q + 2q/3 packed additions, not 2|G|."""
    if elements is None:
        elements = group_elements(curve)
    if place.is_infinity():
        return {"infinity"}
    lvl = place.a.level
    return _product_orbit(place.a.pk, place.b.pk, lvl._threes,
                          *_shifts(curve, elements, lvl.n))


def orbit_partition(curve: Curve, keys,
                    elements: list[Automorphism] | None = None) -> list[set]:
    """Partition of the affine rational places with the given packed
    (a-pk, b-pk) keys at the F_{q^2} level into G-orbits, as `orbit`
    computes them."""
    if elements is None:
        elements = group_elements(curve)
    threes = curve.base._threes
    a_shifts, eb_shifts = _shifts(curve, elements, curve.base.n)
    todo = set(keys)
    orbits = []
    while todo:
        orb = _product_orbit(*todo.pop(), threes, a_shifts, eb_shifts)
        todo -= orb
        orbits.append(orb)
    return orbits

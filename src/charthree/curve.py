"""The curve x^q + x + p(y)^2 = 0 over F_{q^2} (q = 3^t) and its places.

A place is the point at infinity or an affine point (a, b) over an
extension of F_{q^2}, carrying the invariant beta = p(b)^2 = -(a^q + a),
its degree (length of the q^2-Frobenius orbit) and a classification:

    Infinity | BetaZero | BetaOne | RationalGeneral(i)
             | NonRationalGeneric(i, K) | NonRationalSpecial(i, K)

where i and K are the P-order and R-order of beta, and Special means
K <= m - 2 (m = q/3).  Rational places are exactly those with beta in
{0, 1, infinity} or beta^((q-1)/2) = -1.

Local expansions live above the degree-3 cover u^q + u = v^(q+1); the
lift of an affine place with beta != 0 is a pair (A, B) with b = B^3 - B
and A = -a - B^2, one of three choices differing by B -> B +- 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import CertificateError, require
from .f3linalg import LinearSolver
from .factorint import factorize
from .fields import MAX_DEGREE, FieldElement, _linear_table, make_tower, trace_p
from .polyfamilies import p_order, r_order

INFINITY = "infinity"
BETA_ZERO = "beta_zero"
BETA_ONE = "beta_one"
RATIONAL_GENERAL = "rational_general"
NONRATIONAL_GENERIC = "nonrational_generic"
NONRATIONAL_SPECIAL = "nonrational_special"


@dataclass(frozen=True)
class PlaceClass:
    kind: str
    i: int | None = None
    K: int | None = None

    def __str__(self):
        if self.i is None:
            return self.kind
        if self.K is None:
            return f"{self.kind}(i={self.i})"
        return f"{self.kind}(i={self.i},K={self.K})"


@dataclass(frozen=True)
class Place:
    a: FieldElement | None         # a, b and beta are None at infinity,
    b: FieldElement | None         # where beta has its pole
    beta: FieldElement | None
    degree: int
    place_class: PlaceClass

    def is_infinity(self) -> bool:
        return self.a is None

    def __repr__(self):
        if self.is_infinity():
            return "Place(infinity)"
        return (f"Place(a={list(self.a.coeffs)}, b={list(self.b.coeffs)}, "
                f"deg={self.degree}, {self.place_class})")


@dataclass(frozen=True)
class HermitianLift:
    """One of the three points (A, B) of the cover above an affine place."""
    place: Place
    A: FieldElement
    B: FieldElement
    pb: FieldElement   # B^q - B = p(b), the local parameter scale
    which: int         # 0, 1, 2: B = B0 + which

    @property
    def level(self):
        return self.B.level


class Curve:
    """Context object: q = 3^t, the tower, and all place-level operations."""

    def __init__(self, t: int):
        if t < 2:
            raise ValueError("t must be >= 2 (t = 1 gives an elliptic curve "
                             "with infinite automorphism group)")
        self.t = t
        self.q = 3 ** t
        self.m = self.q // 3
        self.genus = self.q * (self.q - 1) // 6
        self.tower = make_tower(t)
        self.base = self.tower.level(2 * t)     # F_{q^2}
        self._beta_class_cache: dict[tuple[int, int], PlaceClass] = {}
        self._solver_cache: dict[tuple[str, int], LinearSolver] = {}
        self._infinity = Place(None, None, None, 1, PlaceClass(INFINITY))

    # -- basic maps -----------------------------------------------------------

    def p_map(self, x: FieldElement) -> FieldElement:
        """p(x) = x + x^3 + ... + x^(q/3)."""
        return trace_p(x, self.t)

    def frob_q(self, x: FieldElement) -> FieldElement:
        return x.pow3(self.t)

    def frob_q2(self, x: FieldElement) -> FieldElement:
        return x.pow3(2 * self.t)

    # -- linear solvers over the tower ----------------------------------------

    def _basis_images(self, name: str, n: int) -> list[FieldElement]:
        """Images of the basis X^0 .. X^(n-1) of the degree-n level under
        one of the additive maps."""
        lvl = self.tower.level(n)
        images = []
        for j in range(n):
            bj = lvl.basis_element(j)
            if name == "artin_schreier":      # a -> a^q + a
                images.append(self.frob_q(bj) + bj)
            elif name == "trace_p":           # b -> p(b)
                images.append(self.p_map(bj))
            elif name == "cube_minus":        # B -> B^3 - B
                images.append(bj.cube() - bj)
            else:
                raise ValueError(name)
        return images

    def _linear_solver(self, name: str, n: int) -> LinearSolver:
        """Solver for one of the additive maps, on the degree-n level."""
        key = (name, n)
        if key in self._solver_cache:
            return self._solver_cache[key]
        cols = [img.coeffs for img in self._basis_images(name, n)]
        rows = [[cols[j][i] for j in range(n)] for i in range(n)]
        solver = LinearSolver(rows)
        self._solver_cache[key] = solver
        return solver

    def solve_artin_schreier(self, c: FieldElement) -> FieldElement | None:
        """One a with a^q + a = c at c's level, or None."""
        sol = self._linear_solver("artin_schreier", c.level.n).solve(list(c.coeffs))
        return c.level.element(sol) if sol is not None else None

    def solve_trace_p(self, c: FieldElement) -> FieldElement | None:
        """One b with p(b) = c at c's level, or None."""
        sol = self._linear_solver("trace_p", c.level.n).solve(list(c.coeffs))
        return c.level.element(sol) if sol is not None else None

    def kernel_artin_schreier(self, n: int) -> list[FieldElement]:
        lvl = self.tower.level(n)
        return [lvl.element(v) for v in
                self._linear_solver("artin_schreier", n).kernel_basis()]

    def kernel_trace_p(self, n: int) -> list[FieldElement]:
        lvl = self.tower.level(n)
        return [lvl.element(v) for v in
                self._linear_solver("trace_p", n).kernel_basis()]

    # -- places ---------------------------------------------------------------

    def infinity(self) -> Place:
        return self._infinity

    def place_from_coords(self, a: FieldElement, b: FieldElement) -> Place:
        if a.level is not b.level:
            n = max(a.level.n, b.level.n)
            a, b = self.tower.embed(a, n), self.tower.embed(b, n)
        # one walk of the q^2-Frobenius orbit gives the degree and the
        # smallest representative, so conjugate coordinate pairs construct
        # equal Place objects (they are one place)
        best, degree = (a, b), 1
        x, y = self.frob_q2(a), self.frob_q2(b)
        while (x, y) != (a, b):
            if (y.coeffs, x.coeffs) < (best[1].coeffs, best[0].coeffs):
                best = (x, y)
            x, y, degree = self.frob_q2(x), self.frob_q2(y), degree + 1
            require(degree <= a.level.n, "Frobenius orbit longer than the level degree")
        a, b = best
        pb = self.p_map(b)
        beta = pb * pb
        if not (self.frob_q(a) + a + beta).is_zero():
            raise ValueError("coordinates do not satisfy the curve equation")
        return Place(a, b, beta, degree, self.classify_beta(beta, degree))

    def classify_beta(self, beta: FieldElement, degree: int) -> PlaceClass:
        key = (id(beta.level), beta.pk)
        cls = self._beta_class_cache.get(key)
        if cls is None:
            cls = self._classify_beta_uncached(beta)
            self._beta_class_cache[key] = cls
        # rationality of the place must agree with the beta criterion
        if not (degree == 1) == (cls.kind in (BETA_ZERO, BETA_ONE, RATIONAL_GENERAL)):
            raise CertificateError(f"beta rationality criterion ({cls.kind}) disagrees "
                                   f"with coordinate degree {degree}")
        return cls

    def _classify_beta_uncached(self, beta: FieldElement) -> PlaceClass:
        if beta.is_zero():
            return PlaceClass(BETA_ZERO)
        if beta == 1:
            return PlaceClass(BETA_ONE)
        i = p_order(beta)
        K = r_order(beta, i)
        if beta ** ((self.q - 1) // 2) == -beta.level.one():
            require((self.q + 1) % (i + 1) == 0,
                    "rational place P-order must satisfy (i+1) | (q+1)")
            return PlaceClass(RATIONAL_GENERAL, i)
        if K <= self.m - 2:
            return PlaceClass(NONRATIONAL_SPECIAL, i, K)
        return PlaceClass(NONRATIONAL_GENERIC, i, K)

    def rational_rows(self) -> list[tuple]:
        """The affine degree-one places, packed: one row (b, beta, a_values,
        cls) for each b of F_{q^2} in `iter_elements` order that has
        places, where beta = p(b)^2 and a_values are the a's with
        a^q + a = -beta, in `iter_elements` order.  Rows with equal beta
        share one a_values list and one class object.

        Both a -> a^q + a and b -> p(b) are F_3-linear, so their images on
        all of F_{q^2} come from `_linear_table`; the a's are bucketed by
        image, and each of the 3q distinct values of p(b) is squared and
        classified once."""
        lvl = self.base
        elements = list(lvl.iter_elements())
        buckets: dict[int, list[FieldElement]] = {}
        as_images = _linear_table(
            [x.pk for x in self._basis_images("artin_schreier", lvl.n)])
        for a, image in zip(elements, as_images):
            buckets.setdefault(image, []).append(a)
        # p(b) -> (beta, its a's or None, class or None)
        by_pb: dict[int, tuple] = {}
        rows = []
        p_images = _linear_table([x.pk for x in self._basis_images("trace_p", lvl.n)])
        for b, pb in zip(elements, p_images):
            entry = by_pb.get(pb)
            if entry is None:
                root = FieldElement(lvl, pb)
                beta = root * root
                a_values = buckets.get((-beta).pk)
                cls = self.classify_beta(beta, 1) if a_values else None
                entry = by_pb[pb] = (beta, a_values, cls)
            if entry[1]:
                rows.append((b, *entry))
        return rows

    def enumerate_rational(self) -> list[Place]:
        """All degree-one places as `Place` objects: P_infinity, then those
        of `rational_rows`, ordered by b, then by a.  Count must equal
        q^2 + 1 + 2q*genus by maximality."""
        return [self.infinity(), *row_places(self.rational_rows())]

    # -- Hermitian lift --------------------------------------------------------

    def hermitian_lift(self, place: Place, which: int = 0) -> HermitianLift:
        if place.is_infinity():
            raise ValueError("no affine lift at the place at infinity")
        if place.beta.is_zero():
            raise ValueError("lift requires beta != 0 (p(b) must not vanish)")
        if which not in (0, 1, 2):
            raise ValueError("which must be 0, 1 or 2")
        a, b = place.a, place.b
        n = b.level.n
        sol = self._linear_solver("cube_minus", n).solve(list(b.coeffs))
        if sol is None:
            N = 3 * n
            a = self.tower.embed(a, N)
            b = self.tower.embed(b, N)
            sol = self._linear_solver("cube_minus", N).solve(list(b.coeffs))
            require(sol is not None, "cube cover must split over the cubic extension")
        B = b.level.element(sol) + which
        A = -a - B * B
        require(B.cube() - B == b, "B^3 - B != b")
        require(self.frob_q(A) + A == self.frob_q(B) * B, "Hermitian equation fails")
        pb = self.frob_q(B) - B
        require(pb * pb == self.tower.embed(place.beta, B.level.n), "(B^q - B)^2 != beta")
        require(not pb.is_zero(), "B^q - B vanishes")
        return HermitianLift(place, A, B, pb, which)

    # -- sampling of non-rational places ---------------------------------------

    def feasible_gamma_orders(self, max_rel_degree: int = 4) -> list[int]:
        """gamma-orders o whose root of unity fits in some F_{q^(2d)}, d <= 4,
        and which belong to non-rational places (o does not divide q+1)."""
        out = []
        for o in range(4, self.q + 1):
            if o % 3 == 0 or (self.q + 1) % o == 0:
                continue
            e0 = _mult_order_int(3, o)
            if any((2 * self.t * d) % e0 == 0 for d in range(1, max_rel_degree + 1)):
                out.append(o)
        return out

    def sample_nonrational(self, order: int, count: int = 3,
                           max_rel_degree: int = 4) -> list[Place]:
        """Up to `count` distinct non-rational places whose gamma has the
        given multiplicative order, with coordinates in F_{q^(2d)},
        d <= max_rel_degree.

        Constructed, not searched for: each order-th root of unity gamma
        gives w = (gamma+1)/(gamma-1), then b with p(b) = +-w and a with
        a^q + a = -w^2, shifted by small combinations of the kernel bases.
        Deterministic; the first level F_{q^(2d)} that yields a place ends
        the search, and [] means the class is not realizable within the
        degree bound.
        """
        if order % 3 == 0 or order < 4:
            return []
        if (self.q + 1) % order == 0:
            return []   # such beta values only sit under rational places
        e0 = _mult_order_int(3, order)
        places: list[Place] = []
        seen: set[tuple] = set()
        for d in range(1, max_rel_degree + 1):
            N = 2 * self.t * d
            if N % e0 != 0 or N > MAX_DEGREE:
                continue
            lvl = self.tower.level(N)
            bker = self.kernel_trace_p(N)
            aker = self.kernel_artin_schreier(N)
            for gamma in _roots_of_unity(lvl, order):
                w = (gamma + 1) / (gamma - 1)
                beta = w * w
                if beta.is_zero() or beta == 1:
                    continue
                for sign in (w, -w):
                    b0 = self.solve_trace_p(sign)
                    if b0 is None:
                        continue
                    a0 = self.solve_artin_schreier(-beta)
                    if a0 is None:
                        continue
                    for boff, aoff in itertools.product(
                            _small_combinations(bker), _small_combinations(aker)):
                        b = b0 + boff if boff is not None else b0
                        a = a0 + aoff if aoff is not None else a0
                        pl = self.place_from_coords(a, b)
                        if pl.degree == 1:
                            continue
                        key = (id(pl.a.level), pl.a.pk, pl.b.pk)
                        if key in seen:
                            continue
                        seen.add(key)
                        places.append(pl)
                        if len(places) >= count:
                            return places
            if places:
                return places
        return places

    def sample_classes(self, count: int) -> dict[str, list[Place]]:
        """Up to `count` sampled places of each non-rational class that
        `sample_nonrational` realizes, keyed by class tag, in
        `feasible_gamma_orders` order.  A gamma order is one class (the
        P-order is the order minus 1), and the first place of a class does
        not depend on `count`."""
        by_class = {}
        for o in self.feasible_gamma_orders():
            places = self.sample_nonrational(o, count=count)
            if places:
                by_class[str(places[0].place_class)] = places
        return by_class


def row_places(rows):
    """The places of `Curve.rational_rows` rows, by row, then by a."""
    for b, beta, a_values, cls in rows:
        for a in a_values:
            yield Place(a, b, beta, 1, cls)


def _mult_order_int(base: int, mod: int) -> int:
    if math.gcd(base, mod) != 1:
        raise ValueError(f"{base} is not a unit mod {mod}")
    if mod == 1:
        return 1
    x, k = base % mod, 1
    while x != 1:
        x = x * base % mod
        k += 1
    return k


def _roots_of_unity(lvl, order: int):
    """The phi(order) elements of exact order `order`: y^k for k coprime to
    `order`, increasing, where y = z^cof for the first z in iter_elements
    order whose power has exact order (checked from factorize(order) alone)."""
    if (lvl.order() - 1) % order != 0:
        return
    cof = (lvl.order() - 1) // order
    primes = factorize(order)
    for z in lvl.iter_elements():
        y = z ** cof
        if y ** order == 1 and all(y ** (order // p) != 1 for p in primes):
            break
    else:
        raise ArithmeticError(f"no element of order {order} in {lvl}")
    yk = lvl.one()
    for k in range(1, order + 1):
        yk = yk * y
        if math.gcd(k, order) == 1:
            yield yk


def _small_combinations(kernel):
    """None (no offset), then single kernel vectors, then pairs."""
    yield None
    for v in kernel:
        yield v
    for v, w in itertools.combinations(kernel, 2):
        yield v + w
    for v in kernel:
        yield v + v

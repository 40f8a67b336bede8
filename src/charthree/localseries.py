"""Exact truncated power series at a lifted place, and the special
function chains used to certify Weierstrass gaps and non-gaps.

The local parameter is T = (v - B)/(B^q - B) at a point (A, B) of the
cover u^q + u = v^(q+1) above an affine place with beta != 0.  Writing
tau = v - B, the shifted coordinate w = u - A satisfies the exact
equation w^q + w = B^q tau + B tau^q + tau^(q+1), solved by a Newton
iteration whose error valuation multiplies by q each step.  From w we
get the normalized coordinates

    x_a = -(x - a)/beta = T + T^2 + O(T^q),
    y_b = -(y - b)/p(b) = T - beta T^3          (exact),

and the chains f_j, g_l (and h_j at beta = 1) whose leading coefficients
are values of the P/Q/R polynomial families.

A TrackedFunction is F_P^e times a series-backed part, where F_P is the
symbolic function with divisor qP + Phi(P) - (q+1)P_inf; it is never
expanded, only its valuation at P (q, or q+1 for rational P) and pole
order q+1 at P_inf enter the bookkeeping.  Pole bounds are subadditive
certified upper bounds, which is all that L(D)-membership needs.

A series product is a sparse schoolbook product: the chain series are
mostly zero (typically 31 of 140 coefficients at q = 81), so only pairs
of non-zero coefficients are multiplied, as raw packed products summed
per exponent, and each non-zero sum is reduced once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .curve import BETA_ONE, NONRATIONAL_SPECIAL, Curve, HermitianLift, Place
from .errors import require
from .fields import FieldElement, FieldLevel, _p3_canon
from .polyfamilies import eval_chain


class TruncatedSeries:
    """Series c_v T^v + ... + c_{prec-1} T^{prec-1} + O(T^prec), exact
    coefficients in one field level, packed representation."""

    __slots__ = ("level", "val", "pk", "prec")

    def __init__(self, level: FieldLevel, val: int, pk: tuple[int, ...], prec: int):
        # strip leading zeros (invariant c_val != 0) and trailing zeros
        # (coefficients past len(pk) are implicitly zero up to prec)
        k = 0
        while k < len(pk) and pk[k] == 0:
            k += 1
        if k == len(pk):
            val, pk = prec, ()
        else:
            end = len(pk)
            while pk[end - 1] == 0:
                end -= 1
            val, pk = val + k, pk[k:end]
        self.level = level
        self.val = val
        self.pk = tuple(pk)
        self.prec = prec

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_coeffs(cls, level, val, coeffs, prec):
        return cls(level, val, tuple(c.pk for c in coeffs), prec)

    @classmethod
    def zero(cls, level, prec):
        return cls(level, prec, (), prec)

    @classmethod
    def monomial(cls, c: FieldElement, e: int, prec: int):
        if e >= prec:
            return cls.zero(c.level, prec)
        return cls(c.level, e, (c.pk,), prec)

    def is_zero(self) -> bool:
        return not self.pk

    def coefficient(self, e: int) -> FieldElement:
        """Coefficient of T^e (e < prec)."""
        if e >= self.prec:
            raise ValueError(f"coefficient T^{e} beyond precision O(T^{self.prec})")
        if e < self.val or e - self.val >= len(self.pk):
            return FieldElement(self.level, 0)
        return FieldElement(self.level, self.pk[e - self.val])

    def leading(self) -> FieldElement:
        if not self.pk:
            raise ValueError("zero series has no leading coefficient")
        return FieldElement(self.level, self.pk[0])

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other):
        if self.level is not other.level:
            raise ValueError("series over different levels")

    def __add__(self, other):
        self._check(other)
        prec = min(self.prec, other.prec)
        if self.is_zero():
            return other.truncate(prec)
        if other.is_zero():
            return self.truncate(prec)
        val = min(self.val, other.val)
        out = []
        for e in range(val, prec):
            a = self.pk[e - self.val] if 0 <= e - self.val < len(self.pk) else 0
            b = other.pk[e - other.val] if 0 <= e - other.val < len(other.pk) else 0
            out.append(_p3_canon(a + b))
        return TruncatedSeries(self.level, val, tuple(out), prec)

    def __neg__(self):
        lvl = self.level
        return TruncatedSeries(lvl, self.val,
                               tuple(_canon_neg(c, lvl) for c in self.pk), self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        self._check(other)
        if self.is_zero() or other.is_zero():
            return TruncatedSeries.zero(self.level, min(
                self.val + other.prec, other.val + self.prec,
                self.prec + other.prec))
        lvl = self.level
        val = self.val + other.val
        prec = min(self.val + other.prec, other.val + self.prec)
        terms = prec - val
        # sparse schoolbook: only non-zero coefficient pairs below T^terms
        right = [(j, y) for j, y in enumerate(other.pk[:terms]) if y]
        acc = [0] * terms
        for i, x in enumerate(self.pk[:terms]):
            if x:
                room = terms - i
                for j, y in right:
                    if j >= room:
                        break
                    acc[i + j] += x * y
        out = [lvl.reduce_raw(s) if s else 0 for s in acc]
        res = TruncatedSeries(lvl, val, tuple(out), prec)
        # valuations add exactly in an integral domain
        require(res.is_zero() or res.val == self.val + other.val,
                "product valuation must be the sum of valuations")
        return res

    __rmul__ = __mul__

    def scale(self, c: FieldElement) -> "TruncatedSeries":
        if c.is_zero():
            return TruncatedSeries.zero(self.level, self.prec)
        lvl = self.level
        return TruncatedSeries(lvl, self.val,
                               tuple(lvl.mul_packed(p, c.pk) for p in self.pk),
                               self.prec)

    def cube(self) -> "TruncatedSeries":
        """Frobenius: (sum c T^k)^3 = sum c^3 T^(3k); fills known zeros,
        so precision triples."""
        lvl = self.level
        if self.is_zero():
            return TruncatedSeries.zero(lvl, 3 * self.prec)
        out = [0] * (3 * (len(self.pk) - 1) + 1)
        for k, c in enumerate(self.pk):
            if c:
                sq = lvl.mul_packed(c, c)
                out[3 * k] = lvl.mul_packed(sq, c)
        return TruncatedSeries(lvl, 3 * self.val, tuple(out), 3 * self.prec)

    def pow3(self, k: int, prec: int | None = None) -> "TruncatedSeries":
        s = self
        for _ in range(k):
            s = s.cube()
            if prec is not None and s.prec > prec:
                s = s.truncate(prec)
        return s

    def truncate(self, prec: int) -> "TruncatedSeries":
        if prec == self.prec:
            return self
        if prec > self.prec:
            raise ValueError("cannot extend precision")
        if self.val >= prec:
            return TruncatedSeries.zero(self.level, prec)
        return TruncatedSeries(self.level, self.val,
                               self.pk[:prec - self.val], prec)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.level is other.level and self.val == other.val
                and self.pk == other.pk and self.prec == other.prec)

    def __hash__(self):
        return hash((id(self.level), self.val, self.pk, self.prec))

    def __repr__(self):
        if self.is_zero():
            return f"O(T^{self.prec})"
        head = ", ".join(f"T^{self.val + k}:{list(FieldElement(self.level, c).coeffs)}"
                         for k, c in enumerate(self.pk[:4]) if c)
        return f"Series[v={self.val}; {head}; O(T^{self.prec})]"


def _canon_neg(a: int, lvl) -> int:
    return _p3_canon(lvl._threes - a)


# ---------------------------------------------------------------------------


@dataclass
class GeneratorBasis:
    """The expanded coordinate functions at one lift, with pole bounds."""
    lift: HermitianLift
    prec: int
    beta: FieldElement          # embedded into the lift level
    x_a: TruncatedSeries        # pole bound 2m
    y_b: TruncatedSeries        # pole bound q
    f0: TruncatedSeries         # pole bound q
    newton_steps: int


def expand_coordinates(curve: Curve, lift: HermitianLift, prec: int) -> GeneratorBasis:
    """Expand x_a, y_b, f0 in T to absolute precision O(T^prec)."""
    q, t = curve.q, curve.t
    if prec < q + 1:
        raise ValueError(f"prec must be at least q+1 = {q + 1}")
    lvl = lift.level
    if prec * 4 * lvl.n + 4 * (lvl.n - 1) >= (1 << 16):
        raise ValueError(f"prec {prec} exceeds the safe accumulation bound")
    beta = curve.tower.embed(lift.place.beta, lvl.n)
    B, pb = lift.B, lift.pb

    tau = TruncatedSeries.monomial(pb, 1, prec)          # v - B = p(b) T
    bq = curve.frob_q(B)
    pbq = curve.frob_q(pb)
    # rhs = B^q tau + B tau^q + tau^(q+1), exact polynomial
    rhs = (TruncatedSeries.monomial(bq * pb, 1, prec)
           + TruncatedSeries.monomial(B * pbq, q, prec)
           + TruncatedSeries.monomial(pbq * pb, q + 1, prec))
    w, steps = _newton(rhs, t)     # w = u - A
    residual = w.pow3(t, prec) + w - rhs
    require(residual.is_zero(), "cover equation not satisfied to precision")

    two_b = B + B
    # x - a = -(w + tau^2 + 2B tau), and x_a = -(x - a)/beta
    x_a = (w + tau * tau + tau.scale(two_b)).scale(beta.inverse())
    # y - b = tau^3 - tau exactly, so y_b = T - beta T^3 on the nose
    minus_beta = -beta
    y_b = TruncatedSeries(lvl, 1, (lvl.one().pk, 0, minus_beta.pk), prec)
    y_from_tau = (tau - tau.cube().truncate(prec)).scale(pb.inverse())
    require(y_from_tau == y_b, "closed form for y_b disagrees with the cover")
    f0 = x_a - y_b

    one = lvl.one()
    require(x_a.val == 1 and x_a.coefficient(1) == one and x_a.coefficient(2) == one,
            "x_a must start T + T^2")
    for k in range(3, q):
        require(x_a.coefficient(k).is_zero(), "x_a tail below T^q must vanish")
    require(f0.val == 2 and f0.coefficient(2) == one and f0.coefficient(3) == beta,
            "f0 must start T^2 + beta T^3")
    return GeneratorBasis(lift, prec, beta, x_a, y_b, f0, steps)


def _newton(rhs: TruncatedSeries, t: int) -> tuple[TruncatedSeries, int]:
    """The solution w of w^(3^t) + w = rhs, a series of positive valuation,
    to rhs's precision, and the number of Newton steps taken.

    The derivative is 1, so the step is w <- rhs - w^(3^t) from w = 0, and
    the error valuation multiplies by 3^t each step: ceil(log_3 prec) + 2
    steps are always enough."""
    prec = rhs.prec
    budget, p = 2, 1
    while p < prec:
        p *= 3
        budget += 1
    w = TruncatedSeries.zero(rhs.level, prec)
    steps = 0
    while True:
        w_next = rhs - w.pow3(t, prec)
        steps += 1
        if w_next == w:
            return w, steps
        w = w_next
        require(steps <= budget, "Newton iteration failed to settle")


# ---------------------------------------------------------------------------
# the function chains


def build_f_chain(curve: Curve, basis: GeneratorBasis) -> list[TruncatedSeries]:
    """f_0..f_up_to with f_j = P_{j+1}(beta) T^(3j+2) + Q_{j+1}(beta) T^(3j+3)
    + O(T^q); pole bound of f_j is (j+1) q.

    Always the whole chain, up_to = min(i, m-1) where i is the P-order of
    beta: the recursion divides by P_{j-2}(beta), nonzero exactly for
    j <= i, and the leading-term statement needs 3j+3 < q.
    """
    i = basis.lift.place.place_class.i
    if i is None:
        raise ValueError("f chain needs beta outside {0, 1}")
    up_to = min(i, curve.m - 1)
    beta = basis.beta
    x_a, f0 = basis.x_a, basis.f0
    chain = [f0]
    if up_to >= 1:
        f1 = f0 - x_a * x_a - (x_a * f0).scale(beta + 1) \
            + (f0 * f0).scale(beta * beta - beta - 1)
        chain.append(f1)
    if up_to >= 2:
        f1 = chain[1]
        f2 = (f0 * f1).scale(beta * beta - beta) + (f0 * f0 * x_a).scale(beta ** 3) \
            + f1 + (f0 * f0 * f0).scale(beta * beta)
        chain.append(f2)
    if up_to >= 3:
        fam = eval_chain(up_to + 1, beta)
        p2 = fam[2].p_val
        denom_base = (beta * (beta - 1)) ** 2
        for j in range(3, up_to + 1):
            num = (f0 * chain[j - 1]).scale(p2 * fam[j - 1].p_val) \
                - (chain[1] * chain[j - 2]).scale(fam[j].p_val)
            fj = num.scale((denom_base * fam[j - 2].p_val).inverse())
            chain.append(fj)
    _check_f_valuations(curve, chain, i)
    return chain


def _check_f_valuations(curve, chain, i):
    m = curve.m
    for j, fj in enumerate(chain):
        if j <= min(i - 1, m - 1):
            require(fj.val == 3 * j + 2, f"v(f_{j}) = {fj.val}, want {3 * j + 2}")
        elif j == i and i <= m - 1:
            require(fj.val == 3 * i + 3, f"v(f_{i}) = {fj.val}, want {3 * i + 3}")


def f_pole_bound(curve: Curve, j: int) -> int:
    return (j + 1) * curve.q


def build_g_chain(curve: Curve, basis: GeneratorBasis,
                  f_chain: list[TruncatedSeries]) -> list[TruncatedSeries]:
    """g_0..g_up_to with g_l = R_{l+1}(beta) T^(3l+3) + P_{l+1}(beta) T^(3l+4)
    + O(T^q); pole bound of g_l is (3l+4) m.

    Always the whole chain, up_to = min(K, m-2) (K the R-order): v(g_l) =
    3l+3 below K and v(g_K) = 3K+4.  For generic places (K >= m-1) the
    cap is m-2.
    """
    K = basis.lift.place.place_class.K
    if K is None:
        raise ValueError("g chain needs a place with an R-order")
    up_to = min(K, curve.m - 2)
    if len(f_chain) < up_to + 1:
        raise ValueError("f chain too short for the g chain")
    beta = basis.beta
    g = [basis.x_a * basis.x_a - basis.f0]
    fam = eval_chain(up_to + 1, beta)
    for ell in range(1, up_to + 1):
        num = (g[ell - 1] * basis.f0).scale(fam[ell + 1].p_val) \
            - f_chain[ell].scale(fam[ell].r_val)
        g.append(num.scale((fam[ell].p_val * beta).inverse()))
    for ell, gl in enumerate(g):
        want = 3 * ell + 4 if ell == K else 3 * ell + 3
        require(gl.val == want, f"v(g_{ell}) = {gl.val}, want {want}")
    return g


def g_pole_bound(curve: Curve, ell: int) -> int:
    return (3 * ell + 4) * curve.m


def build_beta1_chain(curve: Curve, basis: GeneratorBasis) -> list[TruncatedSeries]:
    """h_0..h_{m-1} at a beta = 1 place: h_j = T^(3j+2) + T^(3j+3) + O(T^q),
    pole bound (j+1) q."""
    if basis.beta != 1:
        raise ValueError("beta-1 chain requires beta = 1")
    x_a, y_b = basis.x_a, basis.y_b
    s = x_a + y_b
    h = [x_a - y_b, -x_a + y_b + s * s]    # m >= 3, as t >= 2
    mult = y_b * y_b - x_a * x_a
    for j in range(2, curve.m):
        h.append(mult * h[j - 2] - h[j - 1])
    one = basis.x_a.level.one()
    for j, hj in enumerate(h):
        require(hj.val == 3 * j + 2, f"v(h_{j}) = {hj.val}, want {3 * j + 2}")
        require(hj.leading() == one, f"h_{j} must lead with 1")
        if 3 * j + 3 < curve.q:  # the next coefficient is only pinned below T^q
            require(hj.coefficient(3 * j + 3) == one, f"h_{j}: T^{3 * j + 3} coefficient != 1")
    return h


# ---------------------------------------------------------------------------
# tracked functions and gap witnesses


@dataclass(frozen=True)
class TrackedFunction:
    """F_P^fp_exponent times a product of expanded series factors."""
    place: Place
    fp_exponent: int
    series_val: int               # valuation at P of the series part
    v_at_P: int                   # fp_exponent * v_P(F_P) + series_val
    pole_bound: int               # certified upper bound at P_inf
    label: str


class LocalData:
    """Per-(place, lift) bundle: basis, chains, and witness construction.

    The chains f (to min(i, m-1)), g (to min(K, m-2)) and h (to m-1, at
    beta = 1) are each built whole, once, on first use."""

    def __init__(self, curve: Curve, place: Place, which_lift: int = 0):
        if place.is_infinity() or place.beta.is_zero():
            raise ValueError("local expansion needs an affine place with beta != 0")
        self.curve = curve
        self.place = place
        self.prec = 2 * curve.q + 1
        self.lift = curve.hermitian_lift(place, which_lift)
        self.basis = expand_coordinates(curve, self.lift, self.prec)
        # product of each witness factor prefix, keyed by the ids of its series
        self._products: dict[tuple[int, ...], TruncatedSeries] = {}
        self._fp_val = curve.q + 1 if place.degree == 1 else curve.q

    @property
    def cls(self):
        return self.place.place_class

    @cached_property
    def f(self) -> list[TruncatedSeries]:
        return build_f_chain(self.curve, self.basis)

    @cached_property
    def g(self) -> list[TruncatedSeries]:
        return build_g_chain(self.curve, self.basis, self.f)

    @cached_property
    def h(self) -> list[TruncatedSeries]:
        return build_beta1_chain(self.curve, self.basis)

    @property
    def chain(self) -> list[TruncatedSeries]:
        """The chain of the place's class: h at beta = 1, f at the other
        rational places, g at a non-rational place.  Never empty."""
        if self.cls.kind == BETA_ONE:
            return self.h
        return self.f if self.cls.K is None else self.g

    # -- witness assembly -----------------------------------------------------

    def _assemble(self, j: int, factors, label: str) -> TrackedFunction:
        """F_P^j times the product of (series, pole_bound) factors.

        The product of every prefix of the factor list is memoised, keyed by
        the identities of its series.  The factors are the basis and chain
        series, which this object holds for its whole life and never
        rebuilds, so one product serves every row j, and the hat functions
        share their f_i powers.  The valuation is read from the product."""
        pole = j * (self.curve.q + 1) + sum(bound for _, bound in factors)
        prod, key = None, ()
        for ser, _ in factors:
            key += (id(ser),)
            if prod is None:
                prod = ser
            else:
                memo = self._products.get(key)
                if memo is None:
                    memo = self._products[key] = prod * ser
                prod = memo
        sval = 0
        if prod is not None:
            require(not prod.is_zero(), f"witness {label}: the series product vanishes")
            sval = prod.val
        v = j * self._fp_val + sval
        return TrackedFunction(self.place, j, sval, v, pole, label)

    def gap_witness_generic(self, j: int, k: int) -> TrackedFunction:
        """Witness for the gap jq + k of a place with generic gap set
        (R-order >= m-1): v_at_P = jq + k - 1, pole bound <= (m-1)(q+2)."""
        curve = self.curve
        q, m = curve.q, curve.m
        if not (0 <= j <= m - 1 and 1 <= k <= q - 2 - 3 * j):
            raise ValueError(f"(j,k)=({j},{k}) outside the generic gap index range")
        if j == m - 1:
            w = self._assemble(j, [], f"F^{m - 1}")
        elif k == 1:
            w = self._assemble(j, [], f"F^{j}")
        elif k == 2:
            w = self._assemble(j, [(self.basis.x_a, 2 * m)], f"F^{j} x_a")
        elif k == 3:
            w = self._assemble(j, [(self.basis.f0, q)], f"F^{j} f0")
        else:
            ell, g = k // 3, self.g
            if (k - 4) // 3 >= len(g):
                raise ValueError(f"(j,k)=({j},{k}) needs g_{(k - 4) // 3}, beyond "
                                 f"min(R-order, m-2) = {len(g) - 1}")
            if k % 3 == 0:
                w = self._assemble(j, [(g[ell - 2], g_pole_bound(curve, ell - 2)),
                                       (self.basis.f0, q)],
                                   f"F^{j} g_{ell - 2} f0")
            elif k % 3 == 1:
                w = self._assemble(j, [(g[ell - 1], g_pole_bound(curve, ell - 1))],
                                   f"F^{j} g_{ell - 1}")
            else:
                w = self._assemble(j, [(g[ell - 1], g_pole_bound(curve, ell - 1)),
                                       (self.basis.x_a, 2 * m)],
                                   f"F^{j} g_{ell - 1} x_a")
        self._check_witness(w, j * q + k)
        return w

    def gap_witness_special(self, j: int, k: int) -> TrackedFunction:
        """Witness for the gap jq + k of a special place (K <= m-2).

        Indices with k <= 3K+3 reuse the generic constructions (only
        g_0..g_{K-1} enter there, where the valuations are unchanged).
        k = 3K+4 at rows j <= m-K-3 takes the direct witness
        F^j g_{K-1} f0 x_a (or F^j x_a f0 when K = 0).  The remaining
        k >= 3K+4 cases follow the remainder decomposition
        k - 3K - 4 = 3(i+1)c + 3s + r with the f-chain products, wrapped
        as F^j g_K times the hat-function.
        """
        curve = self.curve
        q, m = curve.q, curve.m
        i, K = self.cls.i, self.cls.K
        if K is None or K > m - 2:
            raise ValueError("special gap witnesses need R-order K <= m-2")
        in_ggen = 0 <= j <= m - 1 and 1 <= k <= q - 2 - 3 * j
        in_added = (j <= m - K - 2 and k == 3 * K + 5 + (m - K - 2 - j) * 3
                    and (m - K - 2 - j) % (i + 1) == 0) if k > q - 2 - 3 * j else False
        if k <= 3 * K + 3:
            if not in_ggen:
                raise ValueError(f"(j,k)=({j},{k}) not a gap index here")
            return self.gap_witness_generic(j, k)
        if not (0 <= j <= m - K - 2):
            raise ValueError(f"(j,k)=({j},{k}) not a gap index of this place")
        if k == 3 * K + 4:
            # would be the removed diagonal gap at j = m-K-2
            if j > m - K - 3 or not in_ggen:
                raise ValueError(f"(j,k)=({j},{k}) is a removed gap index")
            factors = [(self.basis.f0, q), (self.basis.x_a, 2 * m)]
            label = f"F^{j} f0 x_a"
            if K >= 1:
                factors.insert(0, (self.g[K - 1], g_pole_bound(curve, K - 1)))
                label = f"F^{j} g_{K - 1} f0 x_a"
            w = self._assemble(j, factors, label)
            self._check_witness(w, j * q + k)
            return w
        # main branch: k >= 3K+5
        if not (in_ggen or in_added):
            raise ValueError(f"(j,k)=({j},{k}) not a gap index of this place")
        rem = k - 3 * K - 4
        c, d = rem // (3 * (i + 1)), rem // 3
        s = d - c * (i + 1)
        r = rem - 3 * d
        if s == 0 and r == 0 and 3 * j + k == q - 2:
            raise ValueError(f"(j,k)=({j},{k}) is a removed gap index")
        fs = self.f
        hat: list[tuple[TruncatedSeries, int]] = []
        label_parts = []

        def fi_times(count: int):
            if count > 0:
                hat.extend([(fs[i], f_pole_bound(curve, i))] * count)
                label_parts.append(f"f_{i}^{count}")

        if s > 0:
            fi_times(c)
            hat.append((fs[s - 1], f_pole_bound(curve, s - 1)))
            label_parts.append(f"f_{s - 1}")
            if r == 1:
                hat.append((self.basis.x_a, 2 * m))
                label_parts.append("x_a")
            elif r == 2:
                hat.append((self.basis.f0, q))
                label_parts.append("f0")
        else:
            if r == 0:
                # c = s = r = 0 is the k = 3K+4 case handled above, so c >= 1
                fi_times(c - 1)
                hat += [(fs[i - 1], f_pole_bound(curve, i - 1)),
                        (self.basis.f0, q), (self.basis.x_a, 2 * m)]
                label_parts.append(f"f_{i - 1} f0 x_a")
            elif r == 1:
                fi_times(c)
            else:
                fi_times(c)
                hat.append((self.basis.x_a, 2 * m))
                label_parts.append("x_a")
        factors = [(self.g[K], g_pole_bound(curve, K))] + hat
        w = self._assemble(j, factors, f"F^{j} g_{K} " + " ".join(label_parts))
        self._check_witness(w, j * q + k)
        return w

    def gap_witness(self, j: int, k: int) -> TrackedFunction:
        if self.cls.kind == NONRATIONAL_SPECIAL:
            return self.gap_witness_special(j, k)
        return self.gap_witness_generic(j, k)

    def _check_witness(self, w: TrackedFunction, gap: int):
        curve = self.curve
        cap = (curve.m - 1) * (curve.q + 2)
        require(w.v_at_P == gap - 1,
                f"witness {w.label}: v = {w.v_at_P}, want {gap - 1}")
        require(w.pole_bound <= cap,
                f"witness {w.label}: pole bound {w.pole_bound} > (m-1)(q+2) = {cap}")


# ---------------------------------------------------------------------------
# expansion at beta = 0 places (parameter y - b; no lift involved)


def expand_x_at_beta_zero(curve: Curve, place: Place, prec: int) -> TruncatedSeries:
    """(x - a) as a series in Y = y - b at a place with beta = 0.

    From the curve equation, (x-a)^q + (x-a) = -p(Y)^2, solved by the
    same Newton iteration `_newton`; the result has valuation 2.
    """
    if place.is_infinity() or not place.beta.is_zero():
        raise ValueError("expansion in y - b at beta = 0 places only")
    lvl = place.a.level
    t = curve.t
    coeffs = [lvl.zero()] * prec
    for ii in range(t):
        e = 3 ** ii
        if e < prec:
            coeffs[e] = lvl.one()
    pY = TruncatedSeries.from_coeffs(lvl, 0, coeffs, prec)
    x, _ = _newton((-(pY * pY)).truncate(prec), t)
    require(x.val == 2, f"v(x - a) = {x.val}, want 2")
    return x

"""The three recursive polynomial families P_i, Q_i, R_i over F_3.

All three satisfy the same second-order linear recursion
    V_{i+1} = P_2(s) V_i - (s(s-1))^3 V_{i-1},      P_2(s) = -s^3,
seeded by P_0 = 0, P_1 = 1, Q_0 = (s(s-1))^{-1}, Q_1 = s, R_0 = -1/s^2,
R_1 = -(s+1).  Values at field points are computed by the recursion and,
independently, by the closed eigenvalue formulas involving sqrt(s); the
symbolic engine works with Laurent polynomials carrying an explicit
(s-1)^{-1} exponent so the rational seeds stay exact.

The P-order of beta is the least i >= 1 with P_{i+1}(beta) = 0; it equals
ord(gamma) - 1 for gamma = (sqrt(beta)+1)/(sqrt(beta)-1), and the R-order
K follows from i by K = i/3 - 1 (i = 0 mod 3) or K = (2i-2)/3 (i = 1 mod 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldElement, mult_order, sqrt

_CHAIN_CHECK_LIMIT = 64  # full non-vanishing scan below this order


@dataclass(frozen=True)
class FamilyTriple:
    index: int
    p_val: FieldElement
    q_val: FieldElement
    r_val: FieldElement

    def consistent(self, beta: FieldElement) -> bool:
        """R_i = P_i - ((beta-1)/beta) Q_i (valid for beta not in {0,1})."""
        return self.r_val == self.p_val - ((beta - 1) / beta) * self.q_val


def _seed_values(beta: FieldElement):
    if beta.is_zero() or beta == 1:
        raise ValueError("beta must avoid 0 and 1 (Q_0, R_0 are undefined there)")
    one = beta.level.one()
    p0, p1 = beta.level.zero(), one
    q0, q1 = (beta * (beta - 1)).inverse(), beta
    r0, r1 = -(beta * beta).inverse(), -(beta + 1)
    return (p0, p1), (q0, q1), (r0, r1)


def eval_chain(i: int, beta: FieldElement) -> list[FamilyTriple]:
    """FamilyTriples for indices 0..i via the shared recursion."""
    if i < 0:
        raise ValueError("index must be >= 0")
    (p0, p1), (q0, q1), (r0, r1) = _seed_values(beta)
    mult = beta ** 3  # recursion multiplier -s^3, sign folded in below
    shift = (beta * (beta - 1)) ** 3
    triples = [FamilyTriple(0, p0, q0, r0)]
    if i >= 1:
        triples.append(FamilyTriple(1, p1, q1, r1))
    for j in range(2, i + 1):
        prev, prev2 = triples[-1], triples[-2]
        p = -mult * prev.p_val - shift * prev2.p_val
        q = -mult * prev.q_val - shift * prev2.q_val
        r = -mult * prev.r_val - shift * prev2.r_val
        triples.append(FamilyTriple(j, p, q, r))
    return triples


def eval_recursive(i: int, beta: FieldElement) -> FamilyTriple:
    return eval_chain(i, beta)[i]


def eval_closed(i: int, beta: FieldElement) -> FamilyTriple:
    """Closed eigenvalue formulas; the sqrt branch choice cancels."""
    if i < 0:
        raise ValueError("index must be >= 0")
    tower = beta.level.tower
    w, extended = sqrt(beta)
    lvl = w.level
    b = tower.embed(beta, lvl.n) if extended else beta
    one = lvl.one()
    lam = b ** 3 + b * w   # s^3 + s sqrt(s)
    mu = b ** 3 - b * w    # s^3 - s sqrt(s)
    lam_i, mu_i = lam ** i, mu ** i
    p = (-lam_i + mu_i) / (b * w)
    q = ((w - one) * lam_i - (w + one) * mu_i) / (b * (b - one))
    r = ((w + one) * lam_i - (w - one) * mu_i) / (b * b)
    if extended:
        n = beta.level.n
        p, q, r = (tower.section(v, n) for v in (p, q, r))
    return FamilyTriple(i, p, q, r)


def _companion_power(i: int, beta: FieldElement, v1: FieldElement,
                     v0: FieldElement) -> FieldElement:
    """V_i from seeds (V_0, V_1) via 2x2 companion-matrix power (log time)."""
    a = -beta ** 3
    b = -(beta * (beta - 1)) ** 3
    zero, one = beta.level.zero(), beta.level.one()
    # matrix [[a, b], [1, 0]]; result = M^?; track as tuples row-major
    m = (a, b, one, zero)
    acc = (one, zero, zero, one)

    def mul(x, y):
        return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
                x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])

    e = i
    while e:
        if e & 1:
            acc = mul(acc, m)
        m = mul(m, m)
        e >>= 1
    return acc[2] * v1 + acc[3] * v0  # bottom row of M^i applied to (V_1, V_0)


def identity_check(i: int, j: int, ell: int, beta: FieldElement) -> bool:
    """The three product identities tying shifted indices together."""
    if min(i, j, ell) < 0:
        raise ValueError("indices must be >= 0")
    tr = eval_chain(i + j + ell, beta)
    factor = (beta ** 6 - beta ** 3) ** i
    pij, pil, pi_, pjl = tr[i + j].p_val, tr[i + ell].p_val, tr[i].p_val, tr[i + j + ell].p_val
    ok1 = pij * pil - pi_ * pjl == factor * tr[j].p_val * tr[ell].p_val
    ok2 = pij * tr[i + ell].q_val - pi_ * tr[i + j + ell].q_val \
        == factor * tr[j].p_val * tr[ell].q_val
    ok3 = pij * tr[i + ell].r_val - pi_ * tr[i + j + ell].r_val \
        == factor * tr[j].p_val * tr[ell].r_val
    return ok1 and ok2 and ok3


def corollary_check(i: int, beta: FieldElement) -> bool:
    """R_i = R_{i-1} s (s-1)^2 + P_i / s at the point beta."""
    if i < 1:
        raise ValueError("index must be >= 1")
    tr = eval_chain(i, beta)
    lhs = tr[i].r_val
    rhs = tr[i - 1].r_val * beta * (beta - 1) ** 2 + tr[i].p_val / beta
    return lhs == rhs


# ---------------------------------------------------------------------------
# symbolic engine: Laurent polynomials with a tracked (s-1)^{-1} power


class LaurentPoly:
    """Laurent polynomial over F_3 in s (finite support, integer exponents)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = {e: c % 3 for e, c in (coeffs or {}).items() if c % 3}

    @classmethod
    def term(cls, c: int, e: int = 0) -> "LaurentPoly":
        return cls({e: c})

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = (out.get(e, 0) + c) % 3
        return LaurentPoly(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = (out.get(e, 0) - c) % 3
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = (out.get(e, 0) + c1 * c2) % 3
        return LaurentPoly(out)

    def __pow__(self, k: int) -> "LaurentPoly":
        assert k >= 0
        acc = LaurentPoly.term(1)
        for _ in range(k):
            acc = acc * self
        return acc

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def divisible_by_s_minus_1(self) -> bool:
        # s = 1 is a root iff the coefficient sum vanishes
        return sum(self.coeffs.values()) % 3 == 0

    def divide_s_minus_1(self) -> "LaurentPoly":
        """Exact division by (s - 1); requires divisibility."""
        if self.is_zero():
            return self
        lo = min(self.coeffs)
        hi = max(self.coeffs)
        dense = [self.coeffs.get(e, 0) for e in range(lo, hi + 1)]
        out = [0] * (len(dense) - 1)
        carry = 0
        for k in range(len(dense) - 1, 0, -1):
            carry = (dense[k] + carry) % 3
            out[k - 1] = carry
        assert (dense[0] + carry) % 3 == 0, "not divisible by (s-1)"
        return LaurentPoly({lo + k: c for k, c in enumerate(out)})

    def __repr__(self):
        if self.is_zero():
            return "0"
        return " + ".join(f"{c}*s^{e}" for e, c in sorted(self.coeffs.items()))


class SymbolicRational:
    """num / (s-1)^e with num a LaurentPoly; kept in lowest (s-1)-terms."""

    __slots__ = ("num", "e")

    def __init__(self, num: LaurentPoly, e: int = 0):
        while e > 0 and num.divisible_by_s_minus_1():
            num = num.divide_s_minus_1()
            e -= 1
        self.num = num
        self.e = e

    @classmethod
    def poly(cls, coeffs: dict[int, int]) -> "SymbolicRational":
        return cls(LaurentPoly(coeffs))

    def __add__(self, other):
        e = max(self.e, other.e)
        sm1 = LaurentPoly({1: 1, 0: -1})
        a = self.num * sm1 ** (e - self.e)
        b = other.num * sm1 ** (e - other.e)
        return SymbolicRational(a + b, e)

    def __sub__(self, other):
        return self + SymbolicRational(-other.num, other.e)

    def __mul__(self, other):
        return SymbolicRational(self.num * other.num, self.e + other.e)

    def __eq__(self, other):
        if not isinstance(other, SymbolicRational):
            return NotImplemented
        sm1 = LaurentPoly({1: 1, 0: -1})
        return self.num * sm1 ** other.e == other.num * sm1 ** self.e

    def __hash__(self):
        raise TypeError("unhashable")

    def __repr__(self):
        return f"({self.num})/(s-1)^{self.e}"


def symbolic_chain(i: int) -> tuple[list[SymbolicRational], list[SymbolicRational],
                                    list[SymbolicRational]]:
    """Exact symbolic P_j, Q_j, R_j for j = 0..i."""
    p = [SymbolicRational.poly({}), SymbolicRational.poly({0: 1})]
    q = [SymbolicRational(LaurentPoly({-1: 1}), 1), SymbolicRational.poly({1: 1})]
    r = [SymbolicRational.poly({-2: -1}), SymbolicRational.poly({1: -1, 0: -1})]
    p2 = SymbolicRational.poly({3: -1})
    shift = SymbolicRational.poly({6: 1, 5: -3, 4: 3, 3: -1})  # (s(s-1))^3
    for chain in (p, q, r):
        for j in range(2, i + 1):
            chain.append(p2 * chain[j - 1] - shift * chain[j - 2])
    return p[:i + 1], q[:i + 1], r[:i + 1]


def corollary_check_symbolic(max_i: int) -> bool:
    """R_i = R_{i-1} s (s-1)^2 + P_i / s as exact rational functions."""
    p, _, r = symbolic_chain(max_i)
    mult = SymbolicRational.poly({3: 1, 2: -2, 1: 1})  # s (s-1)^2
    s_inv = SymbolicRational.poly({-1: 1})
    for i in range(1, max_i + 1):
        if r[i] != r[i - 1] * mult + p[i] * s_inv:
            return False
    return True


# ---------------------------------------------------------------------------
# P-order and R-order


def gamma_of(beta: FieldElement) -> FieldElement:
    """(sqrt(beta)+1)/(sqrt(beta)-1), in beta's level or its quadratic ext.

    beta not in {0, 1} keeps sqrt(beta) away from {0, 1, -1}, so gamma is
    defined and different from 0, 1, -1.  Replacing the root by its
    negative inverts gamma, which preserves everything derived from its
    multiplicative order.
    """
    w, _ = sqrt(beta)
    return (w + 1) / (w - 1)


def p_order(beta: FieldElement) -> int:
    """Least i >= 1 with P_{i+1}(beta) = 0.

    Computed as ord(gamma) - 1 and cross-checked against the recursion:
    a full non-vanishing scan below _CHAIN_CHECK_LIMIT, a companion-matrix
    evaluation of P_{i+1}(beta) = 0 above it.  Any discrepancy is a hard
    error.
    """
    if beta.is_zero() or beta == 1:
        raise ValueError("P-order undefined for beta in {0, 1}")
    gamma = gamma_of(beta)
    i = mult_order(gamma) - 1
    if i < 2 or (i + 1) % 3 == 0:
        raise ArithmeticError(f"impossible P-order {i} (gamma order {i + 1})")
    if i <= _CHAIN_CHECK_LIMIT:
        chain = eval_chain(i + 1, beta)
        if not chain[i + 1].p_val.is_zero():
            raise ArithmeticError("gamma-order route disagrees: P_{i+1}(beta) != 0")
        for k in range(2, i + 1):
            if chain[k].p_val.is_zero():
                raise ArithmeticError(f"gamma-order route disagrees: P_{k}(beta) = 0")
    else:
        (p0, p1), _, _ = _seed_values(beta)
        if not _companion_power(i + 1, beta, p1, p0).is_zero():
            raise ArithmeticError("gamma-order route disagrees: P_{i+1}(beta) != 0")
    return i


def r_order(beta: FieldElement, i: int | None = None) -> int:
    """Least K >= 0 with R_{K+1}(beta) = 0, derived from the P-order.

    R_k(beta) vanishes exactly when gamma^(3k+1) = 1, so the zeros sit at
    k = K+1 + multiples of ord(gamma); solving 3(K+1)+1 = 0 mod (i+1)
    gives K = i/3 - 1 for i = 0 mod 3 and K = (2i-2)/3 for i = 1 mod 3.
    K = 0 occurs exactly at beta = -1 (where R_1 = -(beta+1) = 0).  The
    formula is cross-checked against the recursion; any disagreement is a
    hard error.
    """
    if i is None:
        i = p_order(beta)
    if i % 3 == 0:
        K = i // 3 - 1
    elif i % 3 == 1:
        K = (2 * i - 2) // 3
    else:
        raise ArithmeticError(f"P-order {i} = 2 mod 3 cannot occur")
    assert 0 <= K < i
    if K <= _CHAIN_CHECK_LIMIT:
        chain = eval_chain(K + 1, beta)
        if not chain[K + 1].r_val.is_zero():
            raise ArithmeticError("R-order formula disagrees: R_{K+1}(beta) != 0")
        for k in range(1, K + 1):
            if chain[k].r_val.is_zero():
                raise ArithmeticError(f"R-order formula disagrees: R_{k}(beta) = 0")
    else:
        _, _, (r0, r1) = _seed_values(beta)
        if not _companion_power(K + 1, beta, r1, r0).is_zero():
            raise ArithmeticError("R-order formula disagrees: R_{K+1}(beta) != 0")
    return K

"""The three recursive polynomial families P_i, Q_i, R_i over F_3.

All three satisfy the same second-order linear recursion
    V_{i+1} = P_2(s) V_i - (s(s-1))^3 V_{i-1},      P_2(s) = -s^3,
seeded by P_0 = 0, P_1 = 1, Q_0 = (s(s-1))^{-1}, Q_1 = s, R_0 = -1/s^2,
R_1 = -(s+1).  Values at field points are computed by the recursion and,
independently, by the closed eigenvalue formulas involving sqrt(s).  The
symbolic check of the corollary R_i = R_{i-1} s(s-1)^2 + P_i/s runs on
the polynomials P_i and s^2 R_i (s^2 R_0 = -1), packed like field
elements, so no negative power of s or (s - 1) is needed.

The P-order of beta is the least i >= 1 with P_{i+1}(beta) = 0; it equals
ord(gamma) - 1 for gamma = (sqrt(beta)+1)/(sqrt(beta)-1), and the R-order
K follows from i by K = i/3 - 1 (i = 0 mod 3) or K = (2i-2)/3 (i = 1 mod 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import require
from .fields import MAX_DEGREE, _W, FieldElement, _p3_canon, _p3_pack, mult_order, sqrt

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
# symbolic check on packed F_3[s] polynomials

# s^2 R_i has degree 3i, so building it takes a raw product of 3i + 1
# limbs, and _p3_canon accepts at most 2 * MAX_DEGREE - 1.
SYMBOLIC_MAX_I = (2 * MAX_DEGREE - 2) // 3
_P2 = _p3_pack((0, 0, 0, 2))                    # P_2 = -s^3
_NEG_SHIFT = _p3_pack((0, 0, 0, 1, 0, 0, 2))    # -(s(s-1))^3 = s^3 - s^6
_COROLLARY_MULT = _p3_pack((0, 1, 1, 1))        # s(s-1)^2 = s^3 + s^2 + s


def symbolic_chain(i: int) -> tuple[list[int], list[int]]:
    """P_j and s^2 R_j for j = 0..i as packed F_3[s] polynomials."""
    if not 0 <= i <= SYMBOLIC_MAX_I:
        raise ValueError(f"symbolic index must be in [0, {SYMBOLIC_MAX_I}]")
    p = [0, 1]
    r = [2, _p3_pack((0, 0, 2, 2))]     # -1, -(s^3 + s^2)
    for chain in (p, r):
        for j in range(2, i + 1):
            chain.append(_p3_canon(_P2 * chain[j - 1] + _NEG_SHIFT * chain[j - 2]))
    return p[:i + 1], r[:i + 1]


def corollary_check_symbolic(max_i: int) -> bool:
    """R_i = R_{i-1} s (s-1)^2 + P_i / s as exact polynomials, times s^2."""
    p, r = symbolic_chain(max_i)
    return all(r[i] == _p3_canon(_COROLLARY_MULT * r[i - 1] + (p[i] << _W))
               for i in range(1, max_i + 1))


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
    require(0 <= K < i, f"R-order {K} outside [0, {i})")
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

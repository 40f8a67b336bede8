import random

import pytest

from charthree import polyfamilies as pf
from charthree.fields import (MAX_DEGREE, _eval_f3_poly, _p3_canon, _p3_deg, _p3_pack,
                              _p3_unpack, mult_order, sqrt)


def rand_beta(lvl, rng):
    while True:
        b = lvl.random_element(rng)
        if not b.is_zero() and b != 1:
            return b


def gamma_with_order(lvl, order):
    return next(z for z in lvl.iter_elements()
                if not z.is_zero() and mult_order(z) == order)


def beta_from_gamma(g):
    w = (g + 1) / (g - 1)
    return w * w


def test_seed_values_match_definition(tower9):
    rng = random.Random(1)
    beta = rand_beta(tower9.level(4), rng)
    tr = pf.eval_chain(3, beta)
    assert tr[0].p_val == 0
    assert tr[0].q_val == (beta * (beta - 1)).inverse()
    assert tr[0].r_val == -(beta * beta).inverse()
    assert tr[1].p_val == 1 and tr[1].q_val == beta and tr[1].r_val == -(beta + 1)
    assert tr[2].p_val == -beta ** 3
    assert tr[2].q_val == beta ** 4 - beta ** 3 - beta ** 2
    assert tr[2].r_val == -(beta ** 4 - beta ** 3 + beta)
    assert tr[3].p_val == beta ** 3
    assert tr[3].q_val == beta ** 7 + beta ** 6 + beta ** 5 + beta ** 4


def test_rejects_bad_beta(tower9):
    lvl = tower9.level(4)
    for bad in (lvl.zero(), lvl.one()):
        with pytest.raises(ValueError):
            pf.eval_chain(3, bad)


def test_closed_equals_recursive(tower9):
    rng = random.Random(2)
    for n in (2, 4):
        lvl = tower9.level(n)
        for _ in range(25):
            beta = rand_beta(lvl, rng)
            chain = pf.eval_chain(15, beta)
            for i in (0, 1, 2, 3, 7, 15):
                assert pf.eval_closed(i, beta) == chain[i]


def test_closed_form_sqrt_branch_cancels(tower9):
    # evaluate the closed forms with both square roots by hand
    rng = random.Random(3)
    lvl = tower9.level(4)
    for _ in range(30):
        beta = rand_beta(lvl, rng)
        w, ext = sqrt(beta)
        tower = lvl.tower
        b = tower.embed(beta, w.level.n) if ext else beta
        one = w.level.one()
        vals = []
        for root in (w, -w):
            lam, mu = b ** 3 + b * root, b ** 3 - b * root
            i = 5
            p = (-lam ** i + mu ** i) / (b * root)
            q = ((root - one) * lam ** i - (root + one) * mu ** i) / (b * (b - one))
            r = ((root + one) * lam ** i - (root - one) * mu ** i) / (b * b)
            vals.append((p, q, r))
        assert vals[0] == vals[1]


def test_triple_consistency(tower9):
    rng = random.Random(4)
    lvl = tower9.level(4)
    for _ in range(20):
        beta = rand_beta(lvl, rng)
        for t in pf.eval_chain(10, beta):
            assert t.consistent(beta)


def test_identities(tower9):
    rng = random.Random(5)
    lvl = tower9.level(4)
    for _ in range(30):
        beta = rand_beta(lvl, rng)
        i, j, ell = rng.randrange(0, 8), rng.randrange(0, 8), rng.randrange(0, 8)
        assert pf.identity_check(i, j, ell, beta)
    # i = 0 degenerates through P_0 = 0
    assert pf.identity_check(0, 5, 3, rand_beta(lvl, rng))


def test_wronskian_and_no_common_zero(tower9):
    rng = random.Random(6)
    lvl = tower9.level(4)
    for _ in range(15):
        beta = rand_beta(lvl, rng)
        ch = pf.eval_chain(9, beta)
        for i in range(1, 8):
            lhs = ch[i + 1].p_val * ch[i].q_val - ch[i].p_val * ch[i + 1].q_val
            assert lhs == beta ** (3 * i - 1) * (beta - 1) ** (3 * i - 1)
            # hence P and Q (and P and R) never vanish together off {0,1}
            assert not (ch[i].p_val.is_zero() and ch[i].q_val.is_zero())
            assert not (ch[i].p_val.is_zero() and ch[i].r_val.is_zero())


def test_corollary_pointwise_and_symbolic(tower9):
    rng = random.Random(7)
    lvl = tower9.level(4)
    for _ in range(20):
        beta = rand_beta(lvl, rng)
        for i in (1, 2, 5, 9):
            assert pf.corollary_check(i, beta)
    assert pf.corollary_check_symbolic(12)


def _eval_packed(poly, x):
    """A packed F_3[s] polynomial evaluated at the field element x."""
    return _eval_f3_poly(_p3_unpack(poly, _p3_deg(poly) + 1), x)


def test_symbolic_chain_matches_pointwise(tower9):
    # the packed P_i and s^2 R_i at random beta of F_81 against the recursion
    rng = random.Random(8)
    lvl = tower9.level(4)
    p, r = pf.symbolic_chain(12)
    for _ in range(10):
        beta = rand_beta(lvl, rng)
        ch = pf.eval_chain(12, beta)
        for i in range(13):
            assert _eval_packed(p[i], beta) == ch[i].p_val
            assert _eval_packed(r[i], beta) == beta * beta * ch[i].r_val


def test_symbolic_corollary_detects_a_wrong_multiplier(monkeypatch):
    assert pf.corollary_check_symbolic(pf.SYMBOLIC_MAX_I)
    monkeypatch.setattr(pf, "_COROLLARY_MULT", _p3_pack((0, 1, 2, 1)))  # s(s+1)^2
    assert not pf.corollary_check_symbolic(12)


def test_symbolic_index_bounds():
    assert pf.SYMBOLIC_MAX_I == (2 * MAX_DEGREE - 2) // 3 == 63
    for bad in (-1, pf.SYMBOLIC_MAX_I + 1):
        with pytest.raises(ValueError, match="symbolic index"):
            pf.corollary_check_symbolic(bad)
    # the bound is the representation's: one more index overflows _p3_canon
    _, r = pf.symbolic_chain(pf.SYMBOLIC_MAX_I)
    with pytest.raises(ValueError, match="packed value"):
        _p3_canon(pf._NEG_SHIFT * r[-2])


def test_p_order_examples(tower9):
    lvl = tower9.level(4)
    cases = {5: 4, 4: 3, 8: 7, 10: 9, 16: 15}
    for order, want_i in cases.items():
        beta = beta_from_gamma(gamma_with_order(lvl, order))
        assert pf.p_order(beta) == want_i


def test_p_order_invariant_under_sqrt_branch(tower9):
    # gamma -> gamma^(-1) under the other root: same multiplicative order
    lvl = tower9.level(4)
    g = gamma_with_order(lvl, 5)
    for gg in (g, g.inverse()):
        beta = beta_from_gamma(gg)
        assert pf.p_order(beta) == 4


def test_r_order_formula_and_crosscheck(tower9):
    lvl = tower9.level(4)
    # (gamma order) -> (i, K): K = i/3 - 1 or (2i-2)/3, pinned by the zeros
    cases = {4: (3, 0), 5: (4, 2), 8: (7, 4), 10: (9, 2), 16: (15, 4)}
    for order, (want_i, want_K) in cases.items():
        beta = beta_from_gamma(gamma_with_order(lvl, order))
        i = pf.p_order(beta)
        K = pf.r_order(beta, i)
        assert (i, K) == (want_i, want_K)
        assert 0 <= K < i
        # the defining zero pattern, straight from the recursion
        ch = pf.eval_chain(K + 2, beta)
        assert ch[K + 1].r_val.is_zero()
        assert all(not ch[k].r_val.is_zero() for k in range(1, K + 1))


def test_p_order_never_two_mod_three(tower9):
    rng = random.Random(9)
    lvl = tower9.level(4)
    for _ in range(30):
        beta = rand_beta(lvl, rng)
        i = pf.p_order(beta)
        assert i >= 2 and (i + 1) % 3 != 0
        assert pf.r_order(beta, i) < i


def test_orders_beyond_chain_scan_limit(tower9):
    # gamma of order 80 pushes the cross-check onto the companion-matrix
    # path (i = 79 > the full-scan limit); K = (2*79 - 2)/3 = 52
    lvl = tower9.level(4)
    beta = beta_from_gamma(gamma_with_order(lvl, 80))
    i = pf.p_order(beta)
    assert i == 79
    assert pf.r_order(beta, i) == 52
    # spot-check the matrix evaluation against a direct chain run
    ch = pf.eval_chain(80, beta)
    assert ch[80].p_val.is_zero()
    assert ch[53].r_val.is_zero() and not ch[52].r_val.is_zero()


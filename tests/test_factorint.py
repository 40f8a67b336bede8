import random

from charthree.factorint import euler_phi, factorize, is_prime


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 97, 6481, 2**31 - 1}
    for p in primes:
        assert is_prime(p)
    for n in (0, 1, 4, 91, 561, 6601, 2**31):
        assert not is_prime(n)


def test_factorize_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(2, 10**9)
        fact = factorize(n)
        prod = 1
        for p, e in fact.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_group_orders():
    for n in (4, 12, 24, 36, 48):
        fact = factorize(3**n - 1)
        prod = 1
        for p, e in fact.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == 3**n - 1


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(5) == 4
    assert euler_phi(10) == 4
    assert euler_phi(28) == 12


def test_is_prime_rejects_the_strong_pseudoprime_to_bases_up_to_37():
    # psi_12 (OEIS A014233) passes Miller-Rabin for every base 2..37; base
    # 41 exposes it, which makes the 13 bases deterministic below psi_13
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    assert is_prime(399165290221) and is_prime(798330580441)
    assert not is_prime(psi_12)
    assert is_prime(41) and not is_prime(41 * 43)

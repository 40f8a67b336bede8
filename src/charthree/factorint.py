"""Integer factorization helpers: deterministic Miller-Rabin plus Brent's rho.

Miller-Rabin with the 13 prime bases 2..41 is deterministic below
psi_13 = 3317044064679887385961981 (about 3.3e24; OEIS A014233); the 12
bases 2..37 are not, since psi_12 = 318665857834031151167461 passes them.
The group orders 3^n - 1 of the tower (n <= MAX_DEGREE = 96) are far
larger, so a cofactor above psi_13 left after trial division to 10^6 is
only probably prime; Brent's cycle finding splits the composite ones.
"""

from __future__ import annotations

import math

_TRIAL_BOUND = 10**6

# Deterministic Miller-Rabin witness set for n < psi_13 (about 3.3e24).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Return a nontrivial factor of composite odd n (Brent's variant)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")


def factorize(n: int) -> dict[int, int]:
    """Full prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 7
    while d <= _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        g = _brent_rho(m)
        stack.append(g)
        stack.append(m // g)
    return factors


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi

"""Exact arithmetic in a compatible tower of finite fields F_{3^n}.

Elements are coefficient vectors over F_3 in the polynomial basis of a
fixed monic irreducible modulus per degree.  The modulus of each level is
the lexicographically smallest monic irreducible over F_3 (coefficients
compared constant term first), and compatibility between levels n | N is
supplied by explicitly computed embeddings: a root of the degree-n
modulus inside the degree-N field, found by subfield linear algebra plus
root extraction in a degree-n model of the subfield.

Internally a coefficient vector is packed into a single Python int, 16
bits per coefficient, so polynomial convolution rides on one bignum
multiply.  Levels are capped at n <= MAX_DEGREE = 96.  All bounds are
chosen so no 16-bit limb can overflow: a raw product limb is at most
4n < 2^16, and callers accumulating raw products (the series module) stay
below 2^16 as well.

Canonicalising a packed value (every limb mod 3) is one SWAR ("SIMD
within a register") pass over the whole int, not a loop over limbs.
Since 4 = 1 (mod 3), replacing each limb by the sum of its low and high
bits (split at an even position) keeps it mod 3; folding at 8 and then 4
bits takes every limb below 2^16 down to at most 46.  For x <= 46,
x // 3 = (43 x) >> 7, and 43 x < 2^11 stays inside its limb, so one
multiply, shift and mask give every quotient at once, and x - 3 (x // 3)
is the residue.  The masks span 2 * MAX_DEGREE - 1 limbs, the width of a
raw product of two top-level elements; a wider value is rejected.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .factorint import factorize
from .f3linalg import LinearSolver

MAX_DEGREE = 96  # the largest tower level n

_W = 16
_MASK = (1 << _W) - 1


def _repeat(limb: int, k: int) -> int:
    """`limb` in each of the limbs 0..k-1."""
    return limb * (((1 << (_W * k)) - 1) // _MASK)


_CANON_BITS = _W * (2 * MAX_DEGREE - 1)
_L8 = _repeat(0xFF, 2 * MAX_DEGREE - 1)
_L4 = _repeat(0xF, 2 * MAX_DEGREE - 1)

# ---------------------------------------------------------------------------
# packed polynomials over F_3 (used for modulus search and reduction rows)


def _p3_pack(coeffs: Iterable[int]) -> int:
    acc = 0
    for i, c in enumerate(coeffs):
        acc |= (c % 3) << (_W * i)
    return acc


def _p3_unpack(p: int, k: int) -> tuple[int, ...]:
    return tuple(((p >> (_W * i)) & _MASK) % 3 for i in range(k))


def _p3_canon(p: int) -> int:
    """Reduce every limb mod 3 (the SWAR fold of the module docstring).

    `p` must be non-negative and at most 2 * MAX_DEGREE - 1 limbs wide."""
    if p < 0 or p.bit_length() > _CANON_BITS:
        raise ValueError(f"packed value outside [0, 2^{_CANON_BITS})")
    p = (p & _L8) + ((p >> 8) & _L8)    # limbs <= 510
    p = (p & _L4) + ((p >> 4) & _L8)    # limbs <= 46
    return p - 3 * (((43 * p) >> 7) & _L4)


def _p3_deg(p: int) -> int:
    return -1 if p == 0 else (p.bit_length() - 1) // _W


def _p3_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _p3_canon(a * b)


def _p3_rem(a: int, f: int, df: int) -> int:
    """a mod f for monic f of degree df; a must have canonical limbs."""
    da = _p3_deg(a)
    while da >= df:
        lead = ((a >> (_W * da)) & _MASK) % 3
        if lead:
            a += (3 - lead) * (f << (_W * (da - df)))
        # top limb is now 0 mod 3; drop it exactly
        a -= ((a >> (_W * da)) & _MASK) << (_W * da)
        da -= 1
    return _p3_canon(a)


def _p3_monic(a: int) -> int:
    lead = ((a >> (_W * _p3_deg(a))) & _MASK) % 3
    return a if lead == 1 else _p3_canon(2 * a)


def _p3_gcd(a: int, b: int) -> int:
    a, b = _p3_canon(a), _p3_canon(b)
    while b:
        b = _p3_monic(b)
        a, b = b, _p3_rem(a, b, _p3_deg(b))
    return _p3_monic(a) if a else 0


_X_PACKED = 1 << _W


# list-based F_3[X] helpers (low-degree-first coefficient lists)


def _l_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _l_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % 3
    return _l_trim(out)


def _l_sub(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] = ai
    for i, bi in enumerate(b):
        out[i] = (out[i] - bi) % 3
    return _l_trim(out)


def _l_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    a = a[:]
    db = len(b) - 1
    inv_lead = b[-1]  # in {1,2}: self-inverse mod 3
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        lead = (a[-1] * inv_lead) % 3
        shift = len(a) - 1 - db
        q[shift] = lead
        for i in range(db + 1):
            a[shift + i] = (a[shift + i] - lead * b[i]) % 3
        _l_trim(a)
    return _l_trim(q), a


def _p3_eval_int(f: int, df: int, c: int) -> int:
    acc = 0
    for k in range(df, -1, -1):
        acc = (acc * c + ((f >> (_W * k)) & _MASK)) % 3
    return acc


def _p3_is_irreducible(f: int, n: int) -> bool:
    if n == 1:
        return True
    if _p3_eval_int(f, n, 0) == 0 or _p3_eval_int(f, n, 1) == 0 \
            or _p3_eval_int(f, n, 2) == 0:
        return False
    checkpoints = {n // p for p in factorize(n)}
    h = _X_PACKED
    for k in range(1, n + 1):
        h2 = _p3_rem(_p3_mul(h, h), f, n)
        h = _p3_rem(_p3_mul(h2, h), f, n)
        if k in checkpoints:
            diff = _p3_canon(h + 2 * _X_PACKED)
            if _p3_deg(_p3_gcd(diff, f)) > 0:
                return False
    return h == _X_PACKED


def _lex_smallest_irreducible(n: int) -> tuple[int, ...]:
    """Monic irreducible of degree n, lex-smallest by (c0, c1, ..., c_{n-1})."""
    if n == 1:
        return (0, 1)  # X itself
    top = 1 << (_W * n)
    # c0 = 0 gives X | f, so scan c0 in {1, 2}, then c1.. ascending.
    for c0 in (1, 2):
        for j in itertools.count():
            if j >= 3 ** (n - 1):
                break
            rest = j
            f = top | c0
            # digits of j, most significant digit -> c1
            for pos in range(n - 1, 0, -1):
                d = rest % 3
                rest //= 3
                if d:
                    f |= d << (_W * pos)
            if _p3_is_irreducible(f, n):
                return _p3_unpack(f, n + 1)
            if j > 400_000:
                break
    raise ArithmeticError(f"no irreducible of degree {n} found in scan budget")


# ---------------------------------------------------------------------------


class FieldElement:
    """Immutable element of one tower level, stored as packed coefficients."""

    __slots__ = ("level", "pk")

    def __init__(self, level: "FieldLevel", pk: int):
        self.level = level
        self.pk = pk

    @property
    def coeffs(self) -> tuple[int, ...]:
        return _p3_unpack(self.pk, self.level.n)

    def is_zero(self) -> bool:
        return self.pk == 0

    def __bool__(self) -> bool:
        return self.pk != 0

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.level is not self.level:
                raise ValueError("elements of different field levels; embed first")
            return other
        if isinstance(other, int):
            return self.level.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.level, _p3_canon(self.pk + o.pk))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.level, _p3_canon(self.pk + self.level._threes - o.pk))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return FieldElement(self.level, _p3_canon(self.level._threes - self.pk))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.level, self.level.mul_packed(self.pk, o.pk))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.level.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "FieldElement":
        if self.pk == 0:
            raise ZeroDivisionError("inverse of zero")
        return FieldElement(self.level, self.level.inv_packed(self.pk))

    def cube(self) -> "FieldElement":
        sq = self.level.mul_packed(self.pk, self.pk)
        return FieldElement(self.level, self.level.mul_packed(sq, self.pk))

    def pow3(self, k: int) -> "FieldElement":
        """Frobenius power x^(3^k)."""
        x = self
        for _ in range(k):
            x = x.cube()
        return x

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return other.level is self.level and other.pk == self.pk
        if isinstance(other, int):
            return self.pk == self.level.from_int(other).pk
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.level), self.pk))

    def __repr__(self) -> str:
        return f"GF(3^{self.level.n}){list(self.coeffs)}"


class FieldLevel:
    """F_{3^n} = F_3[X]/(modulus), with packed-int arithmetic kernels."""

    __slots__ = ("tower", "n", "modulus", "_red_rows", "_threes",
                 "_low_mask", "_nonresidue", "_mulorder_group")

    def __init__(self, tower: "FieldTower | None", n: int,
                 modulus: tuple[int, ...] | None = None):
        if modulus is None:
            modulus = _lex_smallest_irreducible(n)
        assert len(modulus) == n + 1 and modulus[n] == 1
        self.tower = tower
        self.n = n
        self.modulus = modulus
        self._threes = _repeat(3, n)
        self._low_mask = (1 << (_W * n)) - 1
        # reduction rows: X^(n+j) mod modulus, j = 0 .. n-2
        rows = []
        if n >= 1:
            row = _p3_pack((-c) % 3 for c in modulus[:n])
            rows.append(row)
            for _ in range(n - 2):
                shifted = row << _W
                top = ((shifted >> (_W * n)) & _MASK) % 3
                shifted &= (1 << (_W * n)) - 1
                row = _p3_canon(shifted + top * rows[0])
                rows.append(row)
        self._red_rows = rows
        self._nonresidue = None
        self._mulorder_group = None

    # -- constructors -------------------------------------------------------

    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def gen(self) -> FieldElement:
        """The class of X (a root of the modulus)."""
        if self.n == 1:
            return self.zero()  # modulus is X itself
        return FieldElement(self, _X_PACKED)

    def basis_element(self, j: int) -> FieldElement:
        """The class of X^j, 0 <= j < n."""
        assert 0 <= j < self.n
        return FieldElement(self, 1 << (_W * j))

    def from_int(self, c: int) -> FieldElement:
        return FieldElement(self, c % 3)

    def element(self, coeffs: Iterable[int]) -> FieldElement:
        cs = list(coeffs)
        if len(cs) != self.n:
            raise ValueError(f"need {self.n} coefficients, got {len(cs)}")
        return FieldElement(self, _p3_pack(cs))

    def order(self) -> int:
        return 3 ** self.n

    # -- arithmetic kernels --------------------------------------------------

    def reduce_raw(self, raw: int) -> int:
        """Canonical packed value of a raw (unreduced) product/accumulation
        of at most 2n - 1 limbs.

        Each high limb is folded in as c * X^(n+j) mod modulus with c in
        {1, 2}, adding at most 4 to a low limb per row, so input limbs
        must stay below 2^16 - 4(n - 1); accumulated convolution sums stay
        far below that.  The sum is canonicalised by the SWAR fold of
        `_p3_canon`.
        """
        acc = raw & self._low_mask
        high = raw >> (_W * self.n)
        j = 0
        while high:
            c = (high & _MASK) % 3
            if c:
                acc += c * self._red_rows[j]
            high >>= _W
            j += 1
        return _p3_canon(acc)

    def mul_packed(self, pa: int, pb: int) -> int:
        if pa == 0 or pb == 0:
            return 0
        return self.reduce_raw(pa * pb)

    def inv_packed(self, pk: int) -> int:
        # extended Euclid over F_3[X]: r0 = modulus, r1 = element
        r0 = list(self.modulus)
        r1 = _l_trim(list(_p3_unpack(pk, self.n)))
        t0: list[int] = [0]
        t1: list[int] = [1]
        while len(r1) > 1:
            q, r = _l_divmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, _l_sub(t0, _l_mul(q, t1))
            if not r1:
                raise ZeroDivisionError("gcd with modulus is non-constant")
        c = r1[0]  # nonzero constant; its inverse mod 3 is itself
        inv = _l_divmod(_l_mul([c], t1), list(self.modulus))[1]
        inv += [0] * (self.n - len(inv))
        return _p3_pack(inv[:self.n])

    # -- iteration -----------------------------------------------------------

    def iter_elements(self) -> Iterator[FieldElement]:
        """All elements, constants first (counter order, c0 fastest)."""
        for k in range(3 ** self.n):
            pk = 0
            rest, i = k, 0
            while rest:
                d = rest % 3
                rest //= 3
                if d:
                    pk |= d << (_W * i)
                i += 1
            yield FieldElement(self, pk)

    def random_element(self, rng) -> FieldElement:
        return FieldElement(self, _p3_pack(rng.randrange(3) for _ in range(self.n)))

    def __repr__(self) -> str:
        return f"FieldLevel(GF(3^{self.n}))"


class _Embedding:
    __slots__ = ("images", "solver")

    def __init__(self, images: list[int], solver: LinearSolver):
        self.images = images
        self.solver = solver


class FieldTower:
    """A family of F_{3^n} levels with compatible embeddings between them."""

    characteristic = 3

    def __init__(self, max_degree: int = MAX_DEGREE):
        if max_degree > MAX_DEGREE:
            raise ValueError(f"max_degree {max_degree} exceeds the tower cap {MAX_DEGREE}")
        self.max_degree = max_degree
        self.levels: dict[int, FieldLevel] = {}
        self._emb: dict[tuple[int, int], _Embedding] = {}
        self._orderfact: dict[int, dict[int, int]] = {}

    def level(self, n: int) -> FieldLevel:
        return self.ensure_level(n)

    def ensure_level(self, n: int) -> FieldLevel:
        if n not in self.levels:
            if n < 1 or n > self.max_degree:
                raise ValueError(f"level degree {n} outside [1, {self.max_degree}]")
            self.levels[n] = FieldLevel(self, n)
        return self.levels[n]

    # -- embeddings ----------------------------------------------------------

    def embed(self, x: FieldElement, N: int) -> FieldElement:
        n = x.level.n
        if n == N:
            return x
        if N % n != 0:
            raise ValueError(f"no embedding F_3^{n} -> F_3^{N}: {n} does not divide {N}")
        emb = self._embedding(n, N)
        acc = 0
        for j, c in enumerate(x.coeffs):
            if c:
                acc += c * emb.images[j]
        return FieldElement(self.ensure_level(N), _p3_canon(acc))

    def section(self, x: FieldElement, n: int) -> FieldElement:
        """Inverse of embed on the image; raises if x is not in the subfield."""
        N = x.level.n
        if N == n:
            return x
        emb = self._embedding(n, N)
        sol = emb.solver.solve(list(x.coeffs))
        if sol is None:
            raise ValueError(f"element not in the degree-{n} subfield")
        return self.ensure_level(n).element(sol)

    def _embedding(self, n: int, N: int) -> _Embedding:
        key = (n, N)
        if key in self._emb:
            return self._emb[key]
        lvl_n = self.ensure_level(n)
        lvl_N = self.ensure_level(N)
        if n == 1:
            images = [1]
        else:
            root = self._find_submodulus_root(lvl_n, lvl_N)
            images = [lvl_N.one().pk]
            acc = lvl_N.one()
            for _ in range(n - 1):
                acc = acc * root
                images.append(acc.pk)
        rows = [[0] * n for _ in range(N)]
        for j, img in enumerate(images):
            for i, c in enumerate(_p3_unpack(img, N)):
                rows[i][j] = c
        emb = _Embedding(images, LinearSolver(rows))
        self._emb[key] = emb
        return emb

    def _find_submodulus_root(self, lvl_n: FieldLevel, lvl_N: FieldLevel) -> FieldElement:
        """A root of lvl_n.modulus inside lvl_N (deterministic choice)."""
        n, N = lvl_n.n, lvl_N.n
        # subfield of lvl_N fixed by Frobenius^n, as kernel of (x -> x^(3^n)) - id
        rows = [[0] * N for _ in range(N)]
        for j in range(N):
            bj = FieldElement(lvl_N, 1 << (_W * j)) if j else lvl_N.one()
            img = bj.pow3(n)
            for i, c in enumerate(img.coeffs):
                rows[i][j] = c
            rows[j][j] = (rows[j][j] - 1) % 3
        kernel = LinearSolver(rows).kernel_basis()
        assert len(kernel) == n, "subfield dimension mismatch"
        kelems = [lvl_N.element(v) for v in kernel]
        gen_elem, powers = self._subfield_generator(kelems, lvl_N, n)
        minpoly = self._minpoly(gen_elem, powers, n)
        if minpoly == lvl_n.modulus:
            return gen_elem
        # find a root of lvl_n.modulus in the abstract model F_3[z]/(minpoly)
        model = FieldLevel(None, n, minpoly)
        target = [model.from_int(c) for c in lvl_n.modulus]
        rho = _poly_find_root(target, model)
        acc = lvl_N.zero()
        for k, c in enumerate(rho.coeffs):
            if c:
                acc = acc + c * powers[k]
        root = acc
        assert _eval_f3_poly(lvl_n.modulus, root).is_zero(), "embedding root check failed"
        return root

    def _subfield_generator(self, kelems, lvl_N, n):
        """First kernel combination whose powers span an n-dimensional space."""
        candidates = itertools.chain(
            kelems,
            (a + b for a, b in itertools.combinations(kelems, 2)),
            (a + b + c for a, b, c in itertools.combinations(kelems, 3)),
        )
        for cand in candidates:
            powers = [lvl_N.one()]
            for _ in range(n):
                powers.append(powers[-1] * cand)
            rows = [[0] * n for _ in range(lvl_N.n)]
            for j in range(n):
                for i, c in enumerate(powers[j].coeffs):
                    rows[i][j] = c
            solver = LinearSolver(rows)
            if solver.rank == n:
                return cand, powers
        raise ArithmeticError("no subfield generator found")

    def _minpoly(self, elem, powers, n) -> tuple[int, ...]:
        lvl = elem.level
        rows = [[0] * n for _ in range(lvl.n)]
        for j in range(n):
            for i, c in enumerate(powers[j].coeffs):
                rows[i][j] = c
        sol = LinearSolver(rows).solve(list(powers[n].coeffs))
        assert sol is not None
        return tuple((-c) % 3 for c in sol) + (1,)

    # -- factored group orders ------------------------------------------------

    def group_order_factors(self, n: int) -> dict[int, int]:
        if n not in self._orderfact:
            self._orderfact[n] = factorize(3 ** n - 1)
        return self._orderfact[n]


# ---------------------------------------------------------------------------
# generic dense polynomial helpers over a FieldLevel (for root finding)


def _poly_trim(p: list[FieldElement]) -> list[FieldElement]:
    while p and p[-1].is_zero():
        p.pop()
    return p


def _poly_mul(a, b, lvl):
    if not a or not b:
        return []
    out = [lvl.zero()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _poly_trim(out)


def _poly_divmod(a, b, lvl):
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    inv_lb = lb.inverse()
    q = [lvl.zero()] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        lead = a[-1] * inv_lb
        shift = len(a) - 1 - db
        q[shift] = lead
        for i in range(db + 1):
            a[shift + i] = a[shift + i] - lead * b[i]
        _poly_trim(a)
    return _poly_trim(q), a


def _poly_mulmod(a, b, mod, lvl):
    return _poly_divmod(_poly_mul(a, b, lvl), mod, lvl)[1]


def _poly_powmod(a, e: int, mod, lvl):
    result = [lvl.one()]
    base = _poly_divmod(a, mod, lvl)[1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, lvl)
        base = _poly_mulmod(base, base, mod, lvl)
        e >>= 1
    return result


def _poly_gcd(a, b, lvl):
    a, b = a[:], b[:]
    while b:
        a, b = b, _poly_divmod(a, b, lvl)[1]
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


def _poly_find_root(f: list[FieldElement], lvl: FieldLevel) -> FieldElement:
    """One root of f, all of whose roots lie in lvl (Cantor-Zassenhaus)."""
    g = f[:]
    inv = g[-1].inverse()
    g = [c * inv for c in g]
    half = (lvl.order() - 1) // 2
    deltas = lvl.iter_elements()
    while len(g) - 1 > 1:
        delta = next(deltas)
        shifted = [delta, lvl.one()]  # Y + delta
        h = _poly_powmod(shifted, half, g, lvl)
        h = _poly_trim([(h[0] - 1 if h else -lvl.one())] + h[1:])
        d = _poly_gcd(h, g, lvl)
        if 0 < len(d) - 1 < len(g) - 1:
            other = _poly_divmod(g, d, lvl)[0]
            g = d if len(d) <= len(other) else other
    assert len(g) == 2
    return -g[0] / g[1]


def _eval_f3_poly(coeffs: tuple[int, ...], x: FieldElement) -> FieldElement:
    acc = x.level.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# public operations


def make_tower(t: int, extra_degrees: Iterable[int] = (),
               max_degree: int = MAX_DEGREE) -> FieldTower:
    """Tower with levels for F_3, F_q, F_{q^2} (q = 3^t) and F_{q^(2d)} extras.

    t = 1 is rejected: the associated curve is elliptic and everything
    downstream (finite automorphism group, the place classification)
    breaks down there.
    """
    if t < 2:
        raise ValueError("t must be >= 2 (t = 1 gives an elliptic curve with "
                         "infinite automorphism group)")
    tower = FieldTower(max_degree=max_degree)
    tower.ensure_level(1)
    tower.ensure_level(t)
    tower.ensure_level(2 * t)
    for d in sorted(set(extra_degrees)):
        if d < 1:
            raise ValueError("extension degrees must be positive")
        tower.ensure_level(2 * t * d)
    return tower


def trace_p(b: FieldElement, t: int) -> FieldElement:
    """b + b^3 + ... + b^(3^(t-1))  (the map p of the curve equation)."""
    acc = b
    y = b
    for _ in range(t - 1):
        y = y.cube()
        acc = acc + y
    return acc


def sqrt(x: FieldElement) -> tuple[FieldElement, bool]:
    """Square root of x, deterministically chosen.

    Returns (root, extended): root lies in x's level when x is a square
    there, else in the quadratic extension (extended=True).  Of the two
    roots the one with lexicographically smaller coefficient vector is
    returned.
    """
    if x.is_zero():
        return x, False
    lvl = x.level
    half = (lvl.order() - 1) // 2
    e = x ** half
    if e == 1:
        r = _tonelli(x)
        return (r if r.coeffs <= (-r).coeffs else -r), False
    if x.level.tower is None:
        raise ValueError("nonsquare in a detached level; no extension available")
    big = x.level.tower.embed(x, 2 * lvl.n)
    r = _tonelli(big)
    return (r if r.coeffs <= (-r).coeffs else -r), True


def _nonresidue(lvl: FieldLevel) -> FieldElement:
    if lvl._nonresidue is not None:
        return lvl._nonresidue
    half = (lvl.order() - 1) // 2
    for z in lvl.iter_elements():
        if z.is_zero():
            continue
        if z ** half == -lvl.one():
            lvl._nonresidue = z
            return z
    raise ArithmeticError("no quadratic nonresidue found")


def _tonelli(x: FieldElement) -> FieldElement:
    """Tonelli-Shanks in F_{3^n}; x must be a nonzero square."""
    lvl = x.level
    q1 = lvl.order() - 1
    s = 0
    while q1 % 2 == 0:
        q1 //= 2
        s += 1
    z = _nonresidue(lvl)
    m = s
    c = z ** q1
    t = x ** q1
    r = x ** ((q1 + 1) // 2)
    one = lvl.one()
    while t != one:
        t2, i = t, 0
        while t2 != one:
            t2 = t2 * t2
            i += 1
            assert i < m
        b = c ** (2 ** (m - i - 1))
        m = i
        c = b * b
        t = t * c
        r = r * b
    assert r * r == x
    return r


def mult_order(x: FieldElement) -> int:
    """Least k >= 1 with x^k = 1, via the factored group order."""
    if x.is_zero():
        raise ValueError("multiplicative order of zero is undefined")
    lvl = x.level
    if lvl.tower is not None:
        fact = lvl.tower.group_order_factors(lvl.n)
    else:
        fact = factorize(lvl.order() - 1)
    order = lvl.order() - 1
    for p in fact:
        while order % p == 0 and x ** (order // p) == 1:
            order //= p
    return order

"""Exact arithmetic in a compatible tower of finite fields F_{3^n}.

Elements are coefficient vectors over F_3 in the polynomial basis of a
fixed monic irreducible modulus per degree.  The modulus of each level is
the lexicographically smallest monic irreducible over F_3 (coefficients
compared constant term first), found by a scan with Ben-Or's test: f of
degree n is irreducible iff gcd(X^(3^k) - X, f) = 1 for k = 1 .. n/2.
Compatibility between levels n | N is supplied by explicitly computed
embeddings: a root of the degree-n modulus inside the degree-N field,
found by subfield linear algebra plus a Cantor-Zassenhaus root search in
a degree-n model of the subfield, on packed coefficient lists.

Internally a coefficient vector is packed into a single Python int, 16
bits per coefficient, so polynomial convolution rides on one bignum
multiply.  Levels are capped at n <= MAX_DEGREE = 96.  All bounds are
chosen so no 16-bit limb can overflow: a raw product limb is at most
4n < 2^16, and callers accumulating raw products (the series module and
the root search) stay below 2^16 as well.

Canonicalising a packed value (every limb mod 3) is one SWAR ("SIMD
within a register") pass over the whole int, not a loop over limbs.
Since 4 = 1 (mod 3), replacing each limb by the sum of its low and high
bits (split at an even position) keeps it mod 3; folding at 8 and then 4
bits takes every limb below 2^16 down to at most 46.  For x <= 46,
x // 3 = (43 x) >> 7, and 43 x < 2^11 stays inside its limb, so one
multiply, shift and mask give every quotient at once, and x - 3 (x // 3)
is the residue.  The masks span 2 * MAX_DEGREE - 1 limbs, the width of a
raw product of two top-level elements; a wider value is rejected.

Reducing a raw product mod the modulus (`FieldLevel.reduce_raw`) folds
its n - 1 high limbs 4 at a time through tables built with the level:
one dict per chunk maps each of the 81 canonical chunks to the canonical
value of its X^(n+j) terms mod the modulus, so a product costs two SWAR
passes and ceil((n - 1)/4) lookups instead of a loop over limbs.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .errors import require
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
# packed polynomials over F_3, the one representation of F_3[X] (modulus
# search, reduction tables, inverses, root search and the symbolic families)


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


def _p3_is_irreducible(f: int, n: int) -> bool:
    """Ben-Or's test for monic f of degree n: a reducible f has a factor
    of degree k <= n/2, which divides gcd(X^(3^k) - X, f)."""
    h = _X_PACKED
    for _ in range(n // 2):
        h = _p3_rem(_p3_mul(_p3_rem(_p3_mul(h, h), f, n), h), f, n)
        if _p3_deg(_p3_gcd(_p3_canon(h + 2 * _X_PACKED), f)) > 0:
            return False
    return True


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


def _linear_table(cols: list[int]) -> list[int]:
    """Packed images of every element under the F_3-linear map whose basis
    images X^j -> cols[j] are given packed, in `iter_elements` order.

    Digit j of the counter has weight 3^j, so the table for the first
    j + 1 basis vectors is the table T for the first j, then T + col, then
    T + 2 col: one `_p3_canon` per entry."""
    table = [0]
    for col in cols:
        col2 = _p3_canon(2 * col)
        table += ([_p3_canon(x + col) for x in table]
                  + [_p3_canon(x + col2) for x in table])
    return table


_CHUNK = 4  # high limbs folded per table lookup in `reduce_raw`
_CHUNK_BITS = _W * _CHUNK
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1
# every canonical chunk, in `_linear_table` order: the keys of a fold table,
# whose values are `_linear_table` of its k <= _CHUNK rows (the first 3^k keys)
_CHUNK_KEYS = _linear_table([1 << (_W * j) for j in range(_CHUNK)])


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

    __slots__ = ("tower", "n", "modulus", "_fold", "_threes",
                 "_low_mask", "_raw_bits", "_nonresidue")

    def __init__(self, tower: "FieldTower | None", n: int,
                 modulus: tuple[int, ...] | None = None):
        if modulus is None:
            modulus = _lex_smallest_irreducible(n)
        if len(modulus) != n + 1 or modulus[n] != 1:
            raise ValueError(f"modulus of degree {n} must be monic with {n + 1} coefficients")
        self.tower = tower
        self.n = n
        self.modulus = modulus
        self._threes = _repeat(3, n)
        self._low_mask = (1 << (_W * n)) - 1
        self._raw_bits = _W * (2 * n - 1)
        # fold tables: X^(n+j) mod modulus for j = 0 .. n-2, then, per
        # chunk of 4 high limbs, every canonical chunk -> its reduced value
        rows = []
        if n >= 2:
            row = _p3_pack((-c) % 3 for c in modulus[:n])
            rows.append(row)
            for _ in range(n - 2):
                shifted = row << _W
                top = ((shifted >> (_W * n)) & _MASK) % 3
                shifted &= (1 << (_W * n)) - 1
                row = _p3_canon(shifted + top * rows[0])
                rows.append(row)
        self._fold = [dict(zip(_CHUNK_KEYS, _linear_table(rows[k:k + _CHUNK])))
                      for k in range(0, len(rows), _CHUNK)]
        self._nonresidue = None

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
        if not 0 <= j < self.n:
            raise ValueError(f"basis index {j} outside [0, {self.n})")
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
        of at most 2n - 1 limbs (a negative or wider value raises
        `ValueError`).

        The n - 1 high limbs are canonicalised and folded 4 at a time: each
        chunk c_0..c_3 is looked up in its table, which holds the canonical
        value of sum c_j X^(n+4k+j) mod modulus.  That adds at most 2 per
        table, 2 * ceil((n - 1)/4) <= 4(n - 1) in all, to a low limb, so
        input limbs must stay below 2^16 - 4(n - 1); accumulated
        convolution sums stay far below that.  The sum is canonicalised by
        the SWAR fold of `_p3_canon`.
        """
        if raw < 0 or raw.bit_length() > self._raw_bits:
            raise ValueError(f"raw value negative or wider than {2 * self.n - 1} limbs")
        acc = raw & self._low_mask
        # canonicalise the high limbs by the SWAR of `_p3_canon`, inlined
        # because this is the hottest kernel; the width is checked above
        high = raw >> (_W * self.n)
        high = (high & _L8) + ((high >> 8) & _L8)
        high = (high & _L4) + ((high >> 4) & _L8)
        high -= 3 * (((43 * high) >> 7) & _L4)
        for tab in self._fold:
            if not high:
                break
            acc += tab[high & _CHUNK_MASK]
            high >>= _CHUNK_BITS
        return _p3_canon(acc)

    def mul_packed(self, pa: int, pb: int) -> int:
        if pa == 0 or pb == 0:
            return 0
        return self.reduce_raw(pa * pb)

    def inv_packed(self, pk: int) -> int:
        """Extended Euclid on packed polynomials, r0 = modulus, r1 = pk.

        Each step cancels the top limb of the longer remainder,
        r0 -= c X^d r1 with c = lead(r0) lead(r1) (lead(r1) is its own
        inverse mod 3), and applies the same step to the cofactors, which
        keep t_k * pk = r_k mod modulus and degree below n."""
        r0, r1 = _p3_pack(self.modulus), pk
        t0, t1 = 0, 1
        d0, d1 = self.n, _p3_deg(pk)
        while d1 > 0:
            if d0 < d1:
                r0, r1, t0, t1, d0, d1 = r1, r0, t1, t0, d1, d0
                continue
            c = (r0 >> (_W * d0)) * (r1 >> (_W * d1)) % 3
            shift = _W * (d0 - d1)
            r0 = _p3_canon(r0 + (3 - c) * (r1 << shift))
            t0 = _p3_canon(t0 + (3 - c) * (t1 << shift))
            d0 = _p3_deg(r0)
        if r1 == 0:
            raise ZeroDivisionError("gcd with modulus is non-constant")
        return t1 if r1 == 1 else _p3_canon(2 * t1)

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

    def __init__(self):
        self.levels: dict[int, FieldLevel] = {}
        self._emb: dict[tuple[int, int], _Embedding] = {}
        self._orderfact: dict[int, dict[int, int]] = {}

    def level(self, n: int) -> FieldLevel:
        if n not in self.levels:
            if n < 1 or n > MAX_DEGREE:
                raise ValueError(f"level degree {n} outside [1, {MAX_DEGREE}]")
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
        return FieldElement(self.level(N), _p3_canon(acc))

    def section(self, x: FieldElement, n: int) -> FieldElement:
        """Inverse of embed on the image; raises if x is not in the subfield."""
        N = x.level.n
        if N == n:
            return x
        emb = self._embedding(n, N)
        sol = emb.solver.solve(list(x.coeffs))
        if sol is None:
            raise ValueError(f"element not in the degree-{n} subfield")
        return self.level(n).element(sol)

    def _embedding(self, n: int, N: int) -> _Embedding:
        key = (n, N)
        if key in self._emb:
            return self._emb[key]
        lvl_n = self.level(n)
        lvl_N = self.level(N)
        if n == 1:
            images = [1]
        else:
            root = self._find_submodulus_root(lvl_n, lvl_N)
            images = [lvl_N.one().pk]
            acc = lvl_N.one()
            for _ in range(n - 1):
                acc = acc * root
                images.append(acc.pk)
        emb = _Embedding(images, LinearSolver(_column_matrix(images, N)))
        self._emb[key] = emb
        return emb

    def _find_submodulus_root(self, lvl_n: FieldLevel, lvl_N: FieldLevel) -> FieldElement:
        """A root of lvl_n.modulus inside lvl_N (deterministic choice).

        The degree-n subfield of lvl_N is the kernel of x -> x^(3^n) - x.
        The first kernel combination that generates it has minimal
        polynomial `minpoly`; a root of lvl_n.modulus is found in the model
        F_3[z]/(minpoly) by the packed Cantor-Zassenhaus search `_find_root`
        and mapped back through the generator's powers.
        """
        n = lvl_n.n
        kernel = LinearSolver(_frobenius_rows(lvl_N, n)).kernel_basis()
        require(len(kernel) == n, "subfield dimension mismatch")
        kelems = [lvl_N.element(v) for v in kernel]
        gen_elem, powers, solver = self._subfield_generator(kelems, lvl_N, n)
        minpoly = _minpoly(powers, solver)
        if minpoly == lvl_n.modulus:
            return gen_elem
        rho = _find_root(lvl_n.modulus, FieldLevel(None, n, minpoly))
        acc = sum(c * powers[k].pk for k, c in enumerate(_p3_unpack(rho, n)))
        root = FieldElement(lvl_N, _p3_canon(acc))
        require(_eval_f3_poly(lvl_n.modulus, root).is_zero(), "embedding root check failed")
        return root

    def _subfield_generator(self, kelems, lvl_N, n):
        """First kernel combination whose powers span an n-dimensional space.

        Returns it, its powers 0..n and the rank-n solver over powers 0..n-1."""
        candidates = itertools.chain(
            kelems,
            (a + b for a, b in itertools.combinations(kelems, 2)),
            (a + b + c for a, b, c in itertools.combinations(kelems, 3)),
        )
        for cand in candidates:
            powers = [lvl_N.one()]
            for _ in range(n):
                powers.append(powers[-1] * cand)
            solver = LinearSolver(_column_matrix([p.pk for p in powers[:n]], lvl_N.n))
            if solver.rank == n:
                return cand, powers, solver
        raise ArithmeticError("no subfield generator found")

    # -- factored group orders ------------------------------------------------

    def group_order_factors(self, n: int) -> dict[int, int]:
        if n not in self._orderfact:
            self._orderfact[n] = factorize(3 ** n - 1)
        return self._orderfact[n]


# ---------------------------------------------------------------------------
# subfields and root finding (for embeddings)


def _frobenius_rows(lvl: FieldLevel, n: int) -> list[list[int]]:
    """Matrix of x -> x^(3^n) - x in the basis X^j of lvl.

    Column j is (X^j)^(3^n) - X^j = y^j - X^j with y = X^(3^n), so one
    Frobenius power and N - 1 products give every column."""
    y = lvl.gen().pow3(n)
    images = [lvl.one()]
    for _ in range(lvl.n - 1):
        images.append(images[-1] * y)
    return _column_matrix([(img - lvl.basis_element(j)).pk for j, img in enumerate(images)],
                          lvl.n)


def _column_matrix(columns: list[int], nrows: int) -> list[list[int]]:
    """Rows of the F_3 matrix whose column j is the packed vector columns[j]."""
    return [list(row) for row in zip(*(_p3_unpack(c, nrows) for c in columns))]


def _minpoly(powers: list[FieldElement], solver: LinearSolver) -> tuple[int, ...]:
    """Minimal polynomial of powers[1], given its powers 0..n and the
    solver over powers 0..n-1."""
    sol = solver.solve(list(powers[-1].coeffs))
    require(sol is not None, "minimal polynomial solve failed")
    return tuple((-c) % 3 for c in sol) + (1,)


def _find_root(f: tuple[int, ...], model: FieldLevel) -> int:
    """Packed root in `model` of the monic F_3 polynomial f, all of whose
    roots lie in `model` (Cantor-Zassenhaus, deterministic).

    For delta = 0, 1, 2, z, ... (`iter_elements` order) the factor g of f
    still to split is cut by gcd((Y + delta)^((3^n - 1)/2) - 1, g), keeping
    the smaller side, until g is linear.

    A polynomial is a list of canonical packed coefficients, lowest degree
    first, with no zero top coefficient.  For products the coefficients are
    Kronecker-packed into slots of 2n - 1 limbs, so one bignum multiply
    gives every raw coefficient product; the remainder by a monic g then
    adds (-c) * G, G = g without its leading 1, for each top coefficient c
    in turn, and `model.reduce_raw` canonicalises a slot when it is read.
    With m = deg f, a slot limb collects at most m raw products and m
    remainder terms of at most 4n each, so it stays at most 8nm + 2; this
    must be below the 2^16 - 4(n - 1) that `reduce_raw` accepts.
    """
    n, m = model.n, len(f) - 1
    if 8 * n * m + 2 >= (1 << _W) - 4 * (n - 1):
        raise ValueError(f"a degree-{m} root search over degree {n} overflows 16-bit limbs")
    width = _W * (2 * n - 1)
    slot = (1 << width) - 1
    reduce = model.reduce_raw

    def pack(a):
        acc = 0
        for c in reversed(a):
            acc = (acc << width) | c
        return acc

    def trim(a):
        while a and not a[-1]:
            a.pop()
        return a

    def divmod_packed(acc, top, g):
        """Quotient and remainder by monic g of the slots 0..top of acc."""
        dg = len(g) - 1
        G = pack(g[:-1])
        q = [0] * (top - dg + 1)
        for k in range(top, dg - 1, -1):
            c = reduce((acc >> (width * k)) & slot)
            if c:
                q[k - dg] = c
                acc += (_p3_canon(2 * c) * G) << (width * (k - dg))
        r = [reduce((acc >> (width * k)) & slot) for k in range(min(dg, top + 1))]
        return trim(q), trim(r)

    def mulmod(a, b, g):
        return divmod_packed(pack(a) * pack(b), len(a) + len(b) - 2, g)[1]

    def monic(a):
        if a[-1] == 1:
            return a
        inv = model.inv_packed(a[-1])
        return [model.mul_packed(c, inv) for c in a]

    def gcd(a, b):  # a monic
        while b:
            b = monic(b)
            a, b = b, divmod_packed(pack(a), len(a) - 1, b)[1]
        return a

    g = list(f)
    bits = bin((model.order() - 1) // 2)[3:]
    deltas = model.iter_elements()
    while len(g) > 2:
        base = [next(deltas).pk, 1]  # Y + delta
        h = base
        for bit in bits:
            h = mulmod(h, h, g)
            if bit == "1":
                h = mulmod(h, base, g)
        h = trim([_p3_canon(h[0] + 2) if h else 2] + h[1:])  # h - 1
        d = gcd(g, h)
        if 1 < len(d) < len(g):
            other = divmod_packed(pack(g), len(g) - 1, d)[0]
            g = d if len(d) <= len(other) else other
    require(len(g) == 2, "root search did not end on a linear factor")
    return _p3_canon(2 * g[0])


def _eval_f3_poly(coeffs: tuple[int, ...], x: FieldElement) -> FieldElement:
    acc = x.level.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# public operations


def make_tower(t: int) -> FieldTower:
    """Tower with levels for F_3, F_q and F_{q^2} (q = 3^t); every other
    level is built when first asked for.

    t = 1 is rejected: the associated curve is elliptic and everything
    downstream (finite automorphism group, the place classification)
    breaks down there.
    """
    if t < 2:
        raise ValueError("t must be >= 2 (t = 1 gives an elliptic curve with "
                         "infinite automorphism group)")
    tower = FieldTower()
    for n in (1, t, 2 * t):
        tower.level(n)
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
            require(i < m, "Tonelli-Shanks: x is not a square")
        b = c ** (2 ** (m - i - 1))
        m = i
        c = b * b
        t = t * c
        r = r * b
    require(r * r == x, "Tonelli-Shanks root check failed")
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

"""Dense linear algebra over F_3: row reduction, solving, kernels.

Matrices come in as lists of row lists with entries in {0, 1, 2}.  Inside,
a row is bit-sliced into two ints (Boothby and Bradshaw, "Bitslicing and
the Method of Four Russians over larger finite fields", 2009): one masks
the entries equal to 1, the other the entries equal to 2.  A row operation
is then a few bitwise operations on whole rows, and a dot product is read
off `int.bit_count` of the masks.
"""

from __future__ import annotations


def _pack(row) -> tuple[int, int]:
    """(mask of entries equal to 1, mask of entries equal to 2), bit j for
    entry j."""
    ones = twos = 0
    for j, e in enumerate(row):
        if e == 1:
            ones |= 1 << j
        elif e == 2:
            twos |= 1 << j
    return ones, twos


class LinearSolver:
    """Row-reduced form of a matrix A, reusable for many right-hand sides.

    Solves A x = b over F_3 and exposes a kernel basis.  A has shape
    (nrows, ncols).  Gauss-Jordan runs on the rows of [A | I], so row i
    ends as R_i in bits 0..ncols-1 (R the reduced row echelon form of A)
    and T_i above them, with T A = R; each solve is then T b by popcounts.
    """

    def __init__(self, rows: list[list[int]]):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        ones, twos = [], []
        for i, row in enumerate(rows):
            r1, r2 = _pack(row)
            ones.append(r1 | 1 << (ncols + i))
            twos.append(r2)
        pivots: list[int] = []
        rank = 0
        for col in range(ncols):
            bit = 1 << col
            piv = next((i for i in range(rank, nrows) if (ones[i] | twos[i]) & bit), None)
            if piv is None:
                continue
            ones[rank], ones[piv] = ones[piv], ones[rank]
            twos[rank], twos[piv] = twos[piv], twos[rank]
            if twos[rank] & bit:  # scale the pivot row by 2 = 1/2
                ones[rank], twos[rank] = twos[rank], ones[rank]
            p1, p2 = ones[rank], twos[rank]
            for i in range(nrows):
                if i == rank:
                    continue
                a1, a2 = ones[i], twos[i]
                if a1 & bit:      # row - pivot row
                    b1, b2 = p2, p1
                elif a2 & bit:    # row + pivot row
                    b1, b2 = p1, p2
                else:
                    continue
                # a + b entrywise: (a1|b1) ^ (a2|b2) marks the non-zero
                # sums, and among them a1 ^ b1 ^ (a2 & b2) marks the 1s
                nonzero = (a1 | b1) ^ (a2 | b2)
                r1 = nonzero & (a1 ^ b1 ^ (a2 & b2))
                ones[i], twos[i] = r1, nonzero ^ r1
            pivots.append(col)
            rank += 1
            if rank == nrows:
                break
        self.nrows = nrows
        self.ncols = ncols
        self.pivots = pivots
        self.rank = rank
        self._ones = ones
        self._twos = twos

    def solve(self, b: list[int]) -> list[int] | None:
        """One solution of A x = b (free variables 0), or None if
        inconsistent."""
        b1, b2 = _pack(b)
        b1 <<= self.ncols
        b2 <<= self.ncols

        def tb(i):
            t1, t2 = self._ones[i], self._twos[i]
            return ((t1 & b1).bit_count() + (t2 & b2).bit_count()
                    - (t1 & b2).bit_count() - (t2 & b1).bit_count()) % 3

        if any(tb(i) for i in range(self.rank, self.nrows)):
            return None
        x = [0] * self.ncols
        # R_i has 1 at its pivot, 0 at the other pivots, and the free
        # variables are 0, so x at pivot i is (T b)_i
        for i, col in enumerate(self.pivots):
            x[col] = tb(i)
        return x

    def kernel_basis(self) -> list[list[int]]:
        pivots = set(self.pivots)
        basis = []
        for f in range(self.ncols):
            if f in pivots:
                continue
            v = [0] * self.ncols
            v[f] = 1
            for i, col in enumerate(self.pivots):  # v[col] = -R_i[f]
                if self._ones[i] >> f & 1:
                    v[col] = 2
                elif self._twos[i] >> f & 1:
                    v[col] = 1
            basis.append(v)
        return basis

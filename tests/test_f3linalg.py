import itertools
import random

import pytest

from charthree.f3linalg import LinearSolver


def _reference_rref(rows):
    """The list-based Gauss-Jordan elimination the bit-sliced solver
    replaced, kept as its oracle: (rref, transform, pivots)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    r = [row[:] for row in rows]
    t = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, nrows) if r[i][col]), None)
        if piv is None:
            continue
        r[rank], r[piv] = r[piv], r[rank]
        t[rank], t[piv] = t[piv], t[rank]
        inv = r[rank][col]   # 1 and 2 are their own inverses mod 3
        r[rank] = [inv * x % 3 for x in r[rank]]
        t[rank] = [inv * x % 3 for x in t[rank]]
        for i in range(nrows):
            if i != rank and r[i][col]:
                f = r[i][col]
                r[i] = [(a - f * b) % 3 for a, b in zip(r[i], r[rank])]
                t[i] = [(a - f * b) % 3 for a, b in zip(t[i], t[rank])]
        pivots.append(col)
        if len(pivots) == nrows:
            break
    return r, t, pivots


def _reference_solve(rows, b):
    r, t, pivots = _reference_rref(rows)
    tb = [sum(x * y for x, y in zip(row, b)) % 3 for row in t]
    if any(tb[len(pivots):]):
        return None
    x = [0] * (len(rows[0]) if rows else 0)
    for i, col in enumerate(pivots):
        x[col] = tb[i]
    return x


def _reference_kernel(rows):
    r, _, pivots = _reference_rref(rows)
    ncols = len(rows[0]) if rows else 0
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [0] * ncols
        v[f] = 1
        for i, col in enumerate(pivots):
            v[col] = -r[i][f] % 3
        basis.append(v)
    return basis


def _rank(rows):
    return len(_reference_rref(rows)[2])


def _apply(rows, x):
    return [sum(a * b for a, b in zip(row, x)) % 3 for row in rows]


def _random_matrix(rng, nrows, ncols):
    density = rng.choice((0.0, 0.2, 0.5, 1.0))
    rows = [[rng.randrange(1, 3) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and rng.random() < 0.5:
        # rank-deficient: one row is a combination of two others
        i, j, k = (rng.randrange(nrows) for _ in range(3))
        c = rng.randrange(3)
        rows[k] = [(x + c * y) % 3 for x, y in zip(rows[i], rows[j])]
    return rows


SHAPES = [(1, 1), (1, 5), (5, 1), (3, 3), (4, 9), (9, 4), (7, 7), (12, 12), (6, 20), (20, 6)]


@pytest.mark.parametrize("nrows,ncols", SHAPES)
def test_solver_matches_the_reference_elimination(nrows, ncols):
    rng = random.Random(1000 * nrows + ncols)
    for _ in range(60):
        rows = _random_matrix(rng, nrows, ncols)
        solver = LinearSolver(rows)
        pivots = _reference_rref(rows)[2]
        assert solver.pivots == pivots and solver.rank == len(pivots)
        assert solver.kernel_basis() == _reference_kernel(rows)
        for _ in range(5):
            x = [rng.randrange(3) for _ in range(ncols)]
            for b in (_apply(rows, x), [rng.randrange(3) for _ in range(nrows)]):
                sol = solver.solve(b)
                assert sol == _reference_solve(rows, b)
                in_column_space = _rank([row + [c] for row, c in zip(rows, b)]) == solver.rank
                assert (sol is not None) == in_column_space
                if sol is not None:
                    assert _apply(rows, sol) == b


@pytest.mark.parametrize("nrows,ncols", SHAPES)
def test_kernel_basis_spans_the_kernel(nrows, ncols):
    rng = random.Random(7 * nrows + ncols)
    for _ in range(30):
        rows = _random_matrix(rng, nrows, ncols)
        solver = LinearSolver(rows)
        kernel = solver.kernel_basis()
        assert len(kernel) == ncols - solver.rank
        assert all(_apply(rows, v) == [0] * nrows for v in kernel)
        if kernel:
            assert _rank(kernel) == len(kernel)


def test_every_small_system_exhaustively():
    # all 2 x 2 matrices and right-hand sides: solvable exactly when some x hits b
    for entries in itertools.product(range(3), repeat=4):
        rows = [list(entries[:2]), list(entries[2:])]
        solver = LinearSolver(rows)
        images = {tuple(_apply(rows, x)) for x in itertools.product(range(3), repeat=2)}
        for b in itertools.product(range(3), repeat=2):
            sol = solver.solve(list(b))
            assert (sol is not None) == (b in images)
            if sol is not None:
                assert tuple(_apply(rows, sol)) == b


def test_empty_and_zero_matrices():
    empty = LinearSolver([])
    assert (empty.rank, empty.pivots, empty.kernel_basis(), empty.solve([])) == (0, [], [], [])
    zero = LinearSolver([[0, 0, 0], [0, 0, 0]])
    assert zero.rank == 0 and zero.pivots == []
    assert zero.kernel_basis() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert zero.solve([0, 0]) == [0, 0, 0]
    assert zero.solve([0, 2]) is None

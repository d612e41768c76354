import random
from itertools import product

import pytest

from quiverhall.errors import ShapeError
from quiverhall.linalg import (
    FpMatrix,
    coset_points,
    echelon_subspaces,
    gaussian_binomial,
    line_index,
    projective_points,
)


def test_kernel_identity_empty():
    assert FpMatrix.identity(2, 3).kernel_basis() == []


def test_kernel_zero_matrix():
    K = FpMatrix.zero(3, 2, 3).kernel_basis()
    assert len(K) == 3


def test_kernel_rank_one_derived():
    M = FpMatrix(2, [[1, 1], [1, 1]])
    # oracle: brute force over all 4 vectors of F_2^2
    expected = [v for v in product(range(2), repeat=2)
                if all(x == 0 for x in M.mul_vec(v)) and any(v)]
    assert expected == [(1, 1)]
    assert M.kernel_basis() == [(1, 1)]


def test_solve_identity():
    M = FpMatrix.identity(5, 3)
    assert M.solve((1, 2, 3)) == (1, 2, 3)


def test_solve_inconsistent():
    M = FpMatrix.zero(3, 2, 2)
    assert M.solve((1, 0)) is None


def test_solve_deterministic_representative():
    M = FpMatrix(2, [[1, 1]])
    # oracle: enumerate all four candidates
    sols = [v for v in product(range(2), repeat=2)
            if M.mul_vec(v) == (1,)]
    assert set(sols) == {(1, 0), (0, 1)}
    # free variable set to zero picks (1, 0)
    assert M.solve((1,)) == (1, 0)


def test_solve_shape_error():
    with pytest.raises(ShapeError):
        FpMatrix.identity(2, 2).solve((1, 0, 0))
    with pytest.raises(ShapeError):
        FpMatrix.block(2, [[FpMatrix.identity(2, 2)], [FpMatrix.identity(2, 1)]])


def test_solve_matrix_matches_columnwise_solve():
    """One elimination of [A | B] gives each column that solve gives alone,
    and None exactly when some column is inconsistent."""
    rng = random.Random(11)
    shapes = [(0, 3, 2), (3, 0, 2), (0, 0, 2), (3, 4, 0), (0, 3, 0), (0, 0, 0)]
    shapes += [(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)) for _ in range(300)]
    seen = set()
    for r, c, k in shapes:
        p = rng.choice((2, 3, 5))
        inner = rng.randint(0, min(r, c))   # rank at most inner
        A = (FpMatrix(p, [[rng.randrange(p) for _ in range(inner)] for _ in range(r)], cols=inner)
             @ FpMatrix(p, [[rng.randrange(p) for _ in range(c)] for _ in range(inner)], cols=c))
        if rng.random() < 0.5:
            B = A @ FpMatrix(p, [[rng.randrange(p) for _ in range(k)] for _ in range(c)], cols=k)
        else:
            B = FpMatrix(p, [[rng.randrange(p) for _ in range(k)] for _ in range(r)], cols=k)
        cols = [A.solve(col) for col in B.transpose().data]
        X = A.solve_matrix(B)
        if None in cols:
            assert X is None, (A, B)
            seen.add("inconsistent")
        else:
            assert X == FpMatrix.from_columns(p, cols, c), (A, B)
            assert A @ X == B
            seen.add("consistent")
        if A.rank() < min(r, c):
            seen.add("rank-deficient")
    assert seen == {"consistent", "inconsistent", "rank-deficient"}
    with pytest.raises(ShapeError):
        FpMatrix.identity(2, 2).solve_matrix(FpMatrix.zero(2, 3, 1))


def test_rank_nullity_seeded():
    rng = random.Random(3)
    for _ in range(200):
        p = rng.choice((2, 3))
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        M = FpMatrix(p, [[rng.randrange(p) for _ in range(c)] for _ in range(r)])
        assert M.rank() + len(M.kernel_basis()) == c


def test_inverse_matrix():
    M = FpMatrix(5, [[2, 1], [1, 1]])
    I = M @ M.inverse()
    assert I == FpMatrix.identity(5, 2)


def test_echelon_subspace_count_matches_gaussian_binomial():
    for p in (2, 3):
        for n in range(4):
            for d in range(n + 1):
                subs = list(echelon_subspaces(p, n, d))
                assert len(subs) == gaussian_binomial(n, d, p)
                assert len(set(subs)) == len(subs)


def test_lines_in_f2_squared():
    # q + 1 = 3 lines
    assert gaussian_binomial(2, 1, 2) == 3
    assert len(list(echelon_subspaces(2, 2, 1))) == 3


def test_ops_match_naive_formulas_seeded():
    """Each op's result equals the checked constructor applied to the
    entrywise formula, empty shapes included."""
    rng = random.Random(4)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        r, c, k = (rng.randrange(4) for _ in range(3))
        rand = lambda nr, nc: FpMatrix(p, [[rng.randrange(p) for _ in range(nc)]
                                           for _ in range(nr)], cols=nc)
        A, B, C = rand(r, c), rand(r, c), rand(c, k)
        ent = lambda M, i, j: M.data[i][j]
        naive = lambda f, nr, nc: FpMatrix(p, [[f(i, j) for j in range(nc)]
                                               for i in range(nr)], cols=nc)
        s = rng.randrange(-7, 8)
        assert A + B == naive(lambda i, j: ent(A, i, j) + ent(B, i, j), r, c)
        assert A - B == naive(lambda i, j: ent(A, i, j) - ent(B, i, j), r, c)
        assert -A == naive(lambda i, j: -ent(A, i, j), r, c)
        assert A.scale(s) == naive(lambda i, j: s * ent(A, i, j), r, c)
        assert A @ C == naive(lambda i, j: sum(ent(A, i, t) * ent(C, t, j)
                                               for t in range(c)), r, k)
        assert A.transpose() == naive(lambda i, j: ent(A, j, i), c, r)
        assert FpMatrix.hstack([A, B]) == naive(
            lambda i, j: ent(A, i, j) if j < c else ent(B, i, j - c), r, 2 * c)
        assert FpMatrix.vstack([A, B]) == naive(
            lambda i, j: ent(A, i, j) if i < r else ent(B, i - r, j), 2 * r, c)
        AC, BC = A @ C, B @ C
        assert FpMatrix.block(p, [[A, AC], [B, BC]]) == FpMatrix.vstack(
            [FpMatrix.hstack([A, AC]), FpMatrix.hstack([B, BC])])
        R, piv = A.rref()
        assert R.rows == r and R.cols == c and len(piv) == A.rank()
        assert R == FpMatrix(p, R.data, cols=c)
        for M in (A + B, A @ C, A.transpose(), R, FpMatrix.zero(p, r, c),
                  FpMatrix.identity(p, r)):
            assert hash(M) == hash(FpMatrix(p, M.data, rows=M.rows, cols=M.cols))


def test_projective_points_cover_each_line_once():
    for p in (2, 3, 5):
        assert list(projective_points(p, 0)) == [((), 1)]
        for k in range(1, 4):
            points = list(projective_points(p, k))
            assert sum(w for _, w in points) == p ** k
            assert points[0] == ((0,) * k, 1)
            assert all(w == p - 1 for _, w in points[1:])
            # every nonzero vector is a multiple of exactly one point
            lines = {}
            for i, (c, _w) in enumerate(points[1:], 1):
                for lam in range(1, p):
                    v = tuple(lam * x % p for x in c)
                    assert v not in lines
                    lines[v] = i
            nonzero = [v for v in product(range(p), repeat=k) if any(v)]
            assert sorted(lines) == nonzero
            # the points keep itertools.product order, and line_index finds them
            assert [c for c, _ in points] == sorted(c for c, _ in points)
            assert all(line_index(p, v) == lines[v] for v in nonzero)
            assert line_index(p, (0,) * k) == 0


def test_coset_points_meet_each_coset_on_one_line():
    # span(basis) = F_3^3 with the coordinate basis; sub = span{(1, 1, 0)}
    p = 3
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    sub = [(1, 1, 0)]
    points = list(coset_points(p, basis, sub))
    assert sum(w for _, w in points) == p ** 2
    cosets = set()
    for c, _w in points:
        for lam in range(1, p) if any(c) else (1,):
            v = tuple(lam * x % p for x in c)
            coset = min(tuple((a + t * b) % p for a, b in zip(v, sub[0]))
                        for t in range(p))
            assert coset not in cosets
            cosets.add(coset)
    assert len(cosets) == p ** 2
    with pytest.raises(ShapeError):
        list(coset_points(p, basis[:2], [(0, 0, 1)]))
    # an empty basis has one coset, the zero combination
    assert list(coset_points(p, [], [])) == [([], 1)]

"""Scalar backends and exact rank/determinant machinery."""

import random
from fractions import Fraction

import pytest

from defectk.linalg import Echelon, IntForwardEchelon, det, rank
from defectk.scalars import Fp, as_scalar, is_prime, validate_characteristic


def test_fp_arithmetic():
    p = 1_000_003
    a, b = Fp(7, p), Fp(p - 2, p)
    assert a + b == Fp(5, p)
    assert a * b == Fp(-14, p)
    assert (a / b) * b == a
    assert -a == Fp(p - 7, p)
    assert a ** -1 * a == Fp(1, p)
    assert bool(Fp(0, p)) is False
    assert Fp(3, p) == 3 and Fp(3, p) != 4


def test_fp_refuses_mixed_characteristics():
    with pytest.raises(TypeError):
        Fp(1, 7) + Fp(1, 11)
    with pytest.raises(TypeError):
        as_scalar(Fp(1, 7), None)


def test_fp_fraction_coercion():
    assert Fp(1, 7) + Fraction(1, 2) == Fp(1 + 4, 7)  # 1/2 = 4 mod 7
    with pytest.raises(ZeroDivisionError):
        as_scalar(Fraction(1, 7), 7)


def test_validate_characteristic():
    validate_characteristic(11)
    for bad in (2, 4, 9, 1, 2**31 + 11):
        with pytest.raises(ValueError):
            validate_characteristic(bad)
    assert is_prime(1_000_003) and not is_prime(1_000_001)


def test_rank_examples():
    assert rank([[1 if i == j else 0 for j in range(5)] for i in range(5)]) == 5
    assert rank([[0] * 4 for _ in range(3)]) == 0
    assert rank([[Fraction(1, 2), 1], [1, 2]]) == 1


def test_rank_transpose_on_random_shapes():
    rng = random.Random(7)
    for rows, cols in [(3, 8), (8, 3), (20, 35), (35, 20), (60, 60)]:
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        mt = [[m[i][j] for i in range(rows)] for j in range(cols)]
        assert rank(m) == rank(mt)


def test_rank_matches_naive_fraction_elimination():
    def naive_rank_det(mat):
        """Rank, and for a square matrix the determinant: the product of
        the pivots times the sign of the row swaps (0 below full rank)."""
        mat = [[Fraction(x) for x in row] for row in mat]
        r, det_val = 0, Fraction(1)
        for c in range(len(mat[0])):
            piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
            if piv is None:
                continue
            if piv != r:
                mat[r], mat[piv] = mat[piv], mat[r]
                det_val = -det_val
            det_val *= mat[r][c]
            for i in range(len(mat)):
                if i != r and mat[i][c]:
                    f = mat[i][c] / mat[r][c]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
            r += 1
        return r, det_val if r == len(mat) else Fraction(0)

    def check(m):
        want_rank, want_det = naive_rank_det(m)
        assert rank(m) == want_rank, m
        if len(m) == len(m[0]):
            assert det(m) == want_det, m
            for p in (3, 7):
                assert det(m, char=p) == as_scalar(want_det, p), (m, p)

    rng = random.Random(21)
    squares = 0
    for _ in range(25):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        check([[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
        squares += rows == cols
    # sparse rows: a row with a zero in an early pivot column must still be
    # rescaled before the next exact division
    for _ in range(200):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        check([[rng.choice((0, 0, 0, rng.randint(-4, 4))) for _ in range(cols)]
               for _ in range(rows)])
        squares += rows == cols
    assert squares >= 20
    assert rank([[0, 0, 0, 0, 0, 1], [0, 0, 4, 0, -2, 1], [0, 0, 1, 0, 0, 0]]) == 3


def test_rank_rational_vs_prime_field_drop():
    """Reduction mod p can only lower the rank; for random large primes the
    two agree almost always (at least 95 of 100 here)."""
    rng = random.Random(3)
    m = [[rng.randint(-50, 50) for _ in range(18)] for _ in range(12)]
    r_qq = rank(m)
    agree = 0
    for _ in range(100):
        p = rng.randint(10**6, 2 * 10**6) | 1
        while not is_prime(p):
            p += 2
        r_fp = rank(m, char=p)
        assert r_fp <= r_qq
        agree += r_fp == r_qq
    assert agree >= 95


def test_det_values():
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[Fraction(1, 2), 0], [0, 4]]) == 2
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[2, 0], [0, 3]], char=5) == Fp(1, 5)
    assert det([[1, 1], [1, 1]], char=7) == Fp(0, 7)


def test_rank_independent_of_row_order_and_transpose():
    rng = random.Random(5)
    m = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(6)]
    shuffled = m[:]
    rng.shuffle(shuffled)
    transpose = [list(col) for col in zip(*m)]
    assert rank(m) == rank(shuffled) == rank(transpose)


def test_echelon_reduced_invariants():
    ech = Echelon(5)
    assert ech.add({0: 1, 1: 2})
    assert ech.add({1: 1, 2: 3})
    assert not ech.add({0: 2, 1: 5, 2: 3})  # dependent on the first two
    assert ech.dim == 2 and ech.codim() == 3
    # rows are fully reduced: no row contains another's pivot
    for p, row in ech.rows.items():
        assert row[p] == 1
        for q in ech.rows:
            if q != p:
                assert q not in row
    assert ech.contains({0: 3, 1: 7, 2: 3})
    assert not ech.contains({3: 1})


def test_echelon_kernel_of_rows():
    ech = Echelon(4)
    ech.add({0: 1, 1: 1})
    ech.add({2: 1, 3: -1})
    kernel = ech.kernel_of_rows()
    assert len(kernel) == 2
    for vec in kernel:
        for row in ech.rows.values():
            dot = sum(row.get(c, Fraction(0)) * v for c, v in vec.items())
            assert dot == 0


def test_echelon_over_prime_field():
    ech = Echelon(3, char=7)
    ech.add({0: 3, 1: 1})
    ech.add({0: 10, 1: 1})  # same first entry mod 7
    assert ech.dim == 1
    ech.add({2: 1})
    assert ech.dim == 2


def test_int_forward_echelon_matches_rank():
    rng = random.Random(11)
    for _ in range(20):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        m = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
        ech = IntForwardEchelon(cols)
        for row in m:
            ech.add(row)
        assert ech.dim == rank(m)


def test_echelon_membership_fuzz_against_rank():
    rng = random.Random(17)
    for _ in range(30):
        ncols = rng.randint(2, 9)
        rows = [
            {c: rng.randint(-5, 5) for c in rng.sample(range(ncols), rng.randint(1, ncols))}
            for _ in range(rng.randint(1, 7))
        ]
        ech = Echelon(ncols)
        dense = []
        for row in rows:
            ech.add(dict(row))
            dense.append([row.get(c, 0) for c in range(ncols)])
        assert ech.dim == rank(dense)
        probe = {c: rng.randint(-5, 5) for c in rng.sample(range(ncols), rng.randint(1, ncols))}
        dense_probe = [probe.get(c, 0) for c in range(ncols)]
        in_span = rank(dense + [dense_probe]) == rank(dense)
        assert ech.contains(probe) == in_span


def test_bareiss_on_structured_low_rank():
    rng = random.Random(23)
    for _ in range(10):
        n, m, inner = rng.randint(4, 10), rng.randint(4, 10), rng.randint(1, 3)
        a = [[rng.randint(-7, 7) for _ in range(inner)] for _ in range(n)]
        b = [[rng.randint(-7, 7) for _ in range(m)] for _ in range(inner)]
        prod = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(m)] for i in range(n)]
        assert rank(prod) <= inner
        assert rank(prod) == rank([list(r) for r in zip(*prod)])

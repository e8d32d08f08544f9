"""Characteristics and exact rank/determinant machinery."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectk.ideals import IdealPiece
from defectk.linalg import Echelon, IntForwardEchelon, det, dets, rank
from defectk.scalars import is_prime, validate_characteristic


def test_fp_fraction_coercion():
    """A rank mod p reads a Fraction as numerator * denominator^-1: with
    1/2 = 4 mod 7 the rows (1/2, 1) and (4, 1) coincide mod 7 only."""
    rows = [[Fraction(1, 2), 1], [4, 1]]
    assert rank(rows) == 2 and rank(rows, 7) == 1 and rank(rows, 11) == 2
    with pytest.raises(ValueError):
        rank([[Fraction(1, 7), 1]], 7)


def test_validate_characteristic():
    validate_characteristic(11)
    for bad in (2, 4, 9, 1, 2**31 + 11):
        with pytest.raises(ValueError):
            validate_characteristic(bad)
    assert is_prime(1_000_003) and not is_prime(1_000_001)


def test_is_prime_matches_trial_division():
    """Miller-Rabin on the bases 2, 3, 5, 7 against trial division below
    10^5, on strong pseudoprimes to base 2 (2047) and to bases 2, 3
    (1373653), on the largest allowed characteristic, and refused at its
    bound."""

    def trial_division(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert all(is_prime(n) == trial_division(n) for n in range(10**5))
    for n in (2047, 3277, 4033, 1_373_653, 25_326_001, 2**31 - 1, 2**31 + 11):
        assert is_prime(n) == trial_division(n)
    with pytest.raises(ValueError):
        is_prime(3_215_031_751)


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


def _square_matrix(rng, m, kind):
    """A random m x m integer matrix: "dense", "sparse", "singular" (one row
    a combination of the others), "zero-pivot" (zero diagonal, so Bareiss
    needs a row lift at every step it reaches with that zero) or
    "zero-column" (singular, with no row to lift at that column)."""
    if kind == "sparse":
        return [[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(m)] for _ in range(m)]
    rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(m)]
    if kind == "singular" and m:
        r = rng.randrange(m)
        weights = [rng.randint(-2, 2) for _ in range(m)]
        rows[r] = [sum(w * row[j] for w, row in zip(weights, rows) if row is not rows[r])
                   for j in range(m)]
    elif kind == "zero-pivot":
        for a in range(m):
            rows[a][a] = 0
    elif kind == "zero-column" and m:
        c = rng.randrange(m)
        for row in rows:
            row[c] = 0
    return rows


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.sampled_from((1, 5, 130)),
       st.integers(min_value=0, max_value=2**32))
def test_batched_dets_match_det(m, count, seed):
    """``dets`` against ``det`` one matrix at a time, on batches that mix
    dense, sparse, singular and zero-pivot matrices."""
    rng = random.Random(seed)
    kinds = ("dense", "sparse", "singular", "zero-pivot", "zero-column")
    mats = [_square_matrix(rng, m, rng.choice(kinds)) for _ in range(count)]
    entries = [[[rows[a][b] for rows in mats] for b in range(m)] for a in range(m)]
    got = dets(entries, count)
    assert all(type(x) is int for x in got)
    assert got == [det(rows) for rows in mats]


def test_batched_dets_lift_and_singular_examples():
    """[[0, 1], [1, 0]] needs the row lift (det -1); a zero column and a
    repeated row are singular; the empty matrix has det 1."""
    mats = [[[0, 1], [1, 0]], [[0, 2], [0, 3]], [[1, 2], [1, 2]], [[2, 0], [0, 3]]]
    entries = [[[rows[a][b] for rows in mats] for b in range(2)] for a in range(2)]
    assert dets(entries, 4) == [-1, 0, 0, 6]
    assert dets([], 3) == [1, 1, 1]


def test_rank_independent_of_row_order_and_transpose():
    rng = random.Random(5)
    m = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(6)]
    shuffled = m[:]
    rng.shuffle(shuffled)
    transpose = [list(col) for col in zip(*m)]
    assert rank(m) == rank(shuffled) == rank(transpose)


def test_echelon_forward_invariants():
    ech = Echelon(5)
    assert ech.add({0: 1, 1: 2})
    assert ech.add({1: 1, 2: 3})
    assert not ech.add({0: 2, 1: 5, 2: 3})  # dependent on the first two
    assert ech.dim == 2 and ech.codim() == 3
    # each row is monic at its pivot and nothing comes before it; an insertion
    # leaves the stored rows as they are, so row 0 keeps column 1, a pivot
    for p, row in ech.rows.items():
        assert row[p] == 1 and min(row) == p and all(row.values())
    assert ech.rows[0] == {0: 1, 1: 2}
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


def test_int_forward_echelon_matches_rank():
    rng = random.Random(11)
    for char in (None, 3, 7, 2**31 - 1):
        for _ in range(20):
            rows, cols = rng.randint(1, 10), rng.randint(1, 10)
            m = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
            ech = IntForwardEchelon(cols, char)
            for row in m:
                ech.add(row)
            assert ech.dim == rank(m, char)


def test_int_forward_echelon_kernel_is_the_orthogonal_complement():
    rng = random.Random(29)
    for _ in range(20):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
        ech = IntForwardEchelon(cols)
        for row in m:
            ech.add(row)
        kernel = ech.kernel()
        assert len(kernel) == cols - rank(m)
        for x in kernel:
            for row in m:
                assert sum(a * b for a, b in zip(row, x)) == 0
        if kernel:
            assert rank(kernel) == len(kernel)
        assert all(math.gcd(*x) == 1 for x in kernel)


P31 = 2**31 - 1


def _check_against_rank(rows, ncols, char):
    ech = IntForwardEchelon(ncols, char)
    for row in rows:
        ech.add(row)
    _check_tails(ech, rows)


def _check_tails(ech, rows):
    """dim equals linalg.rank of the rows, and every stored tail, zero-padded
    before its pivot, lies in their span.  Over Z a tail has ncols - pivot
    entries, no content and a nonzero first one; over F_p it is packed in
    no more than ncols - pivot slots and, unpacked from the echelon's rows,
    is 1 at its pivot and has residues in [0, char)."""
    ncols, char = ech.ncols, ech.char
    r = rank(rows, char)
    assert ech.dim == r
    if char is None:
        stored = list(ech._rows.items())
        assert all(len(u) == ncols - p and u[0] and math.gcd(*u) == 1 for p, u in stored)
    else:
        packing = ech._packing
        assert all(u < 1 << packing.width * (ncols - p) for p, u in ech._rows.items())
        stored = [(p, packing.unpack(u, ncols - p)) for p, u in ech._rows.items()]
        assert all(u[0] == 1 and all(0 <= x < char for x in u) for _, u in stored)
    assert rank(rows + [[0] * p + u for p, u in stored], char) == r


def test_packed_echelon_matches_rank_at_wide_widths():
    """F_p vectors packed into one int, against linalg.rank: random and
    low-rank rows up to width 300, with entries that are negative or at
    least p."""
    rng = random.Random(41)
    for char in (3, 7, P31):
        for ncols in (1, 2, 5, 17, 64, 130, 300):
            nrows = rng.randint(1, min(ncols, 24) + 4)
            rows = [[rng.randint(-3 * char, 3 * char) for _ in range(ncols)]
                    for _ in range(nrows)]
            inner = rng.randint(1, 4)
            left = [[rng.randint(-char, char) for _ in range(inner)] for _ in range(nrows)]
            right = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(inner)]
            low_rank = [[sum(a * b for a, b in zip(lrow, col)) for col in zip(*right)]
                        for lrow in left]
            _check_against_rank(rows, ncols, char)
            _check_against_rank(low_rank, ncols, char)


def test_packed_echelon_at_the_slot_bound():
    """Rows whose entries are all p - 1, and a vector that every pivot
    reduces with the largest multiplier p - 1: its last slot reaches
    p - 1 + (ncols - 1)(p - 1)^2, next to the bound that sets the slot
    width.  Widths cross the byte boundaries of the slots for each p."""
    for char in (3, 7, P31):
        for ncols in (1, 2, 3, 4, 5, 8, 9, 16, 63, 64, 65, 200, 300):
            # pivot i, then p - 1 everywhere after it; the vector has v_k = 1 - k
            # mod p, so that each pivot slot reads 1 when it is reached
            rows = [[0] * i + [1] + [char - 1] * (ncols - i - 1) for i in range(ncols - 1)]
            vector = [(1 - k) % char for k in range(ncols - 1)] + [char - 1]
            _check_against_rank(rows + [vector], ncols, char)
            _check_against_rank([[char - 1] * ncols] * 3 + rows[:3], ncols, char)


def test_scale_columns_keeps_an_echelon_of_the_scaled_span():
    rng = random.Random(23)
    for _ in range(20):
        ncols = rng.randint(1, 7)
        vecs = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rng.randint(1, 7))]
        scales = [rng.choice((-3, -1, 1, 2, 5)) for _ in range(ncols)]
        scaled = [[x * s for x, s in zip(v, scales)] for v in vecs]
        fwd = IntForwardEchelon(ncols)
        for v in vecs:
            fwd.add(v)
        pivots = sorted(fwd._rows)
        fwd.scale_columns(scales)
        assert sorted(fwd._rows) == pivots
        assert not any(fwd.add(w) for w in scaled)
        assert all(math.gcd(*u) == 1 for u in fwd._rows.values())


def test_tails_at_random_starts_match_rank():
    """add(tail, start) ranks the rows zero-padded before their starts, over
    Z, mod 3, mod 7 and mod 2^31 - 1, on random and low-rank tails whose
    entries may be negative or at least p.  Mod 3 and 7 a reduced slot
    often lands on a nonzero multiple of p, which is zero, as in
    [2, 2] against the stored [1, 1] mod 3.  Every stored tail runs from its
    pivot to the last column and is nonzero at the pivot."""
    ech = IntForwardEchelon(2, 3)
    assert ech.add([1, 1]) and ech.add([2, 2]) is None and ech.dim == 1
    rng = random.Random(43)
    for char in (None, 3, 7, P31):
        for _ in range(40):
            ncols = rng.randint(1, 40)
            bound = 3 * char if char else 9
            inner = [[rng.randint(-bound, bound) for _ in range(ncols)]
                     for _ in range(rng.randint(1, 5))]
            padded = []
            for _ in range(rng.randint(1, ncols + 4)):
                start = rng.randint(0, ncols - 1)
                if rng.random() < 0.5:
                    row = [rng.randint(-bound, bound) for _ in range(ncols)]
                else:
                    row = [sum(rng.randint(-2, 2) * x for x in col) for col in zip(*inner)]
                padded.append([0] * start + row[start:])
            ech = IntForwardEchelon(ncols, char)
            for row in padded:
                start = next((i for i, x in enumerate(row) if x), ncols)
                start = rng.randint(0, start)
                stored = ech.add(row[start:], start)
                if stored:
                    pivot, tail = stored
                    assert len(tail) == ncols - pivot and tail[0], (char, row)
            _check_tails(ech, padded)


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


@st.composite
def sparse_spans(draw):
    """Random sparse integer rows, the same rows shuffled, and a second
    spanning set of their span: each shuffled row plus multiples of the ones
    before it (an invertible triangular change), then sums of pairs."""
    ncols = draw(st.integers(min_value=1, max_value=8))
    entry = st.integers(min_value=-3, max_value=3)
    row = st.dictionaries(st.integers(min_value=0, max_value=ncols - 1), entry, max_size=4)
    rows = draw(st.lists(row, max_size=7))
    shuffled = draw(st.permutations(rows))
    other = []
    for vec in shuffled:
        vec = dict(vec)
        for before in other:
            f = draw(entry)
            for c, x in before.items():
                vec[c] = vec.get(c, 0) + f * x
        other.append(vec)
    for a, b in draw(st.lists(st.tuples(st.sampled_from(other), st.sampled_from(other)),
                              max_size=3) if other else st.just([])):
        other.append({c: a.get(c, 0) + b.get(c, 0) for c in set(a) | set(b)})
    probe = draw(row)
    return ncols, rows, shuffled, other, probe


@settings(max_examples=150, deadline=None)
@given(sparse_spans())
def test_echelon_depends_only_on_the_span(case):
    """dim, contains, kernel_of_rows and piece equality agree for every
    order and every spanning set, and with ``rank``."""
    ncols, rows, shuffled, other, probe = case

    def dense(vecs):
        return [[v.get(c, 0) for c in range(ncols)] for v in vecs]

    echelons = []
    for vecs in (rows, shuffled, other):
        ech = Echelon(ncols)
        for v in vecs:
            ech.add(v)
        echelons.append(ech)
    r = rank(dense(rows))
    in_span = rank(dense(rows + [probe])) == r
    kernel = echelons[0].kernel_of_rows()
    assert len(kernel) == ncols - r
    assert all(sum(x * v.get(c, 0) for c, x in vec.items()) == 0 for vec in kernel for v in rows)
    sub = Echelon(ncols)
    for v in rows[:1]:
        sub.add(v)
    pieces = [IdealPiece(2, ncols - 1, ech) for ech in echelons]
    for ech, piece in zip(echelons, pieces):
        assert ech.dim == r
        assert ech.contains(probe) == in_span
        assert ech.kernel_of_rows() == kernel
        assert piece == pieces[0]
        assert (piece == IdealPiece(2, ncols - 1, sub)) == (sub.dim == r)


def test_bareiss_on_structured_low_rank():
    rng = random.Random(23)
    for _ in range(10):
        n, m, inner = rng.randint(4, 10), rng.randint(4, 10), rng.randint(1, 3)
        a = [[rng.randint(-7, 7) for _ in range(inner)] for _ in range(n)]
        b = [[rng.randint(-7, 7) for _ in range(m)] for _ in range(inner)]
        prod = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(m)] for i in range(n)]
        assert rank(prod) <= inner
        assert rank(prod) == rank([list(r) for r in zip(*prod)])

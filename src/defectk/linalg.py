"""Exact linear algebra: fraction-free rank, determinants, reduced echelon.

Ranks of rational matrices are computed by Bareiss elimination: rows are
scaled to integers, and every cross-multiplication step divides by the
previous pivot, which is exact (the entries stay determinants of minors of
the original matrix) and keeps coefficient growth polynomial.  Prime-field
matrices use ordinary Gaussian elimination, where division is cheap and
there is no growth.

``Echelon`` is the workhorse container for subspaces of a based vector
space: an incrementally maintained reduced row basis with sparse dict rows,
used for ideal pieces, kernels and span computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .scalars import Fp, as_scalar


def _integer_rows(rows) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (rank-preserving)."""
    out = []
    for row in rows:
        denom = 1
        for x in row:
            if isinstance(x, Fraction):
                denom = denom * x.denominator // math.gcd(denom, x.denominator)
        out.append([int(x * denom) if isinstance(x, Fraction) else x * denom for x in row])
    return out


def rank_int_bareiss(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination (destructive)."""
    if not rows:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            ric = rows[i][c]
            if ric:
                ri, rr = rows[i], rows[r]
                for j in range(c + 1, ncols):
                    ri[j] = (piv * ri[j] - ric * rr[j]) // prev
                ri[c] = 0
            elif piv != prev:
                ri = rows[i]
                for j in range(c + 1, ncols):
                    ri[j] = piv * ri[j] // prev
        prev = piv
        r += 1
    return r


def _rank_fp(rows, p: int) -> int:
    m = [[x.val if isinstance(x, Fp) else x % p for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = pow(m[r][c], -1, p)
        row_r = m[r]
        for i in range(r + 1, nrows):
            f = m[i][c]
            if f:
                f = f * inv % p
                row_i = m[i]
                for j in range(c, ncols):
                    row_i[j] = (row_i[j] - f * row_r[j]) % p
        r += 1
    return r


def rank(rows, char: int | None = None) -> int:
    """Exact rank over the rationals (default) or over F_char."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    if char is not None:
        return _rank_fp(rows, char)
    return rank_int_bareiss(_integer_rows(rows))


def det(rows, char: int | None = None):
    """Exact determinant of a square matrix."""
    rows = [list(r) for r in rows]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return as_scalar(1, char)
    if char is not None:
        m = [[as_scalar(x, char).val for x in row] for row in rows]
        sign = 1
        acc = 1
        for c in range(n):
            pivot_row = next((i for i in range(c, n) if m[i][c]), None)
            if pivot_row is None:
                return Fp(0, char)
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                sign = -sign
            piv = m[c][c]
            acc = acc * piv % char
            inv = pow(piv, -1, char)
            for i in range(c + 1, n):
                f = m[i][c] * inv % char
                if f:
                    for j in range(c, n):
                        m[i][j] = (m[i][j] - f * m[c][j]) % char
        return Fp(sign * acc, char)
    scaled = []
    scale = Fraction(1)
    for row in rows:
        denom = 1
        for x in row:
            if isinstance(x, Fraction):
                denom = denom * x.denominator // math.gcd(denom, x.denominator)
        scale /= denom
        scaled.append([int(x * denom) if isinstance(x, Fraction) else x * denom for x in row])
    sign = 1
    prev = 1
    m = scaled
    for c in range(n - 1):
        pivot_row = next((i for i in range(c, n) if m[i][c]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        piv = m[c][c]
        for i in range(c + 1, n):
            ric = m[i][c]
            for j in range(c + 1, n):
                m[i][j] = (piv * m[i][j] - ric * m[c][j]) // prev
            m[i][c] = 0
        prev = piv
    return sign * m[n - 1][n - 1] * scale


@dataclass
class ExactMatrix:
    """Dense exact matrix; rank is pivot-order independent."""

    rows: int
    cols: int
    entries: list
    char: int | None = None

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match the declared shape")

    @classmethod
    def from_rows(cls, entries, char: int | None = None) -> "ExactMatrix":
        entries = [list(r) for r in entries]
        return cls(len(entries), len(entries[0]) if entries else 0, entries, char)

    def rank(self) -> int:
        return rank(self.entries, self.char)

    def det(self):
        return det(self.entries, self.char)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.char,
        )


class Echelon:
    """Reduced row basis of a subspace, built one vector at a time.

    Rows are sparse dicts {column: scalar}; each row's pivot (its smallest
    column) has coefficient one and does not occur in any other row, so a
    fresh vector is reduced in a single pass over its pivot hits.
    """

    def __init__(self, ncols: int, char: int | None = None):
        self.ncols = ncols
        self.char = char
        self.rows: dict[int, dict] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def codim(self) -> int:
        return self.ncols - len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Residue of a vector modulo the current span."""
        v = {}
        for c, x in vec.items():
            x = as_scalar(x, self.char)
            if x:
                v[c] = x
        for c in sorted(k for k in v if k in self.rows):
            coef = v.pop(c)
            for cc, rv in self.rows[c].items():
                if cc == c:
                    continue
                delta = coef * rv
                cur = v.get(cc)
                nv = -delta if cur is None else cur - delta
                if nv:
                    v[cc] = nv
                else:
                    v.pop(cc, None)
        return v

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def add(self, vec: dict) -> bool:
        """Insert a vector; returns True when it enlarges the span."""
        v = self.reduce(vec)
        if not v:
            return False
        p = min(v)
        inv = v[p] ** -1
        row = {c: x * inv for c, x in v.items()}
        for r in self.rows.values():
            coef = r.get(p)
            if coef:
                for cc, rv in row.items():
                    delta = coef * rv
                    cur = r.get(cc)
                    nv = -delta if cur is None else cur - delta
                    if nv:
                        r[cc] = nv
                    else:
                        r.pop(cc, None)
        self.rows[p] = row
        return True

    def pivots(self) -> list[int]:
        return sorted(self.rows)

    def free_columns(self) -> list[int]:
        return [c for c in range(self.ncols) if c not in self.rows]

    def canonical_rows(self) -> list[tuple[int, tuple[tuple[int, object], ...]]]:
        return [(p, tuple(sorted(self.rows[p].items()))) for p in sorted(self.rows)]

    def kernel_of_rows(self) -> list[dict]:
        """Basis of {x : row . x = 0 for every row}, one vector per free column."""
        out = []
        for j in self.free_columns():
            vec = {j: as_scalar(1, self.char)}
            for p in self.rows:
                coef = self.rows[p].get(j)
                if coef:
                    vec[p] = -coef
            out.append(vec)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Echelon)
            and self.ncols == other.ncols
            and self.char == other.char
            and self.canonical_rows() == other.canonical_rows()
        )


class IntForwardEchelon:
    """Forward (non-reduced) echelon over the integers with gcd control.

    Used for fast ranks of large integer matrices where only the dimension
    matters: each insertion cross-multiplies against the pivots in ascending
    order and strips the content of the result.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.vectors: list[tuple[int, list[int]]] = []  # sorted by pivot index

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def add(self, vec: list[int]) -> bool:
        v = list(vec)
        for pivot, u in self.vectors:
            if v[pivot]:
                a, b = u[pivot], v[pivot]
                v = [a * x - b * y for x, y in zip(v, u)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        g = 0
        for x in v:
            g = math.gcd(g, x)
        if g > 1:
            v = [x // g for x in v]
        self.vectors.append((pivot, v))
        self.vectors.sort(key=lambda t: t[0])
        return True

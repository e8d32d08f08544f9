"""Exact linear algebra: fraction-free rank, determinants, reduced echelon.

Ranks and determinants of rational matrices come from one Bareiss
elimination (Bareiss 1968): rows are scaled to integers, and every
cross-multiplication step divides by the previous pivot, which is exact
(the entries stay determinants of minors of the original matrix) and keeps
coefficient growth polynomial.  Prime-field matrices share one ordinary
Gaussian elimination, where division is cheap and there is no growth.
``rank`` shares no code with the evaluation echelons of ``ideals``, so
tests and the benchmark use it as their independent oracle.

``Echelon`` is the workhorse container for subspaces of a based vector
space: an incrementally maintained reduced row basis with sparse dict rows,
used for ideal pieces, kernels and span computations.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import Fp, as_scalar


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """Scale each row by the lcm of its denominators (rank-preserving); also
    return the product of the scales, by which the determinant grows."""
    out = []
    scale = 1
    for row in rows:
        denom = 1
        for x in row:
            if isinstance(x, Fraction):
                denom = denom * x.denominator // math.gcd(denom, x.denominator)
        scale *= denom
        out.append([int(x * denom) if isinstance(x, Fraction) else x * denom for x in row])
    return out, scale


def _bareiss(rows: list[list[int]]) -> tuple[int, int, int]:
    """Fraction-free elimination of an integer matrix, in place.

    Returns the rank, the sign of the row swaps and the last pivot.  For a
    square matrix of full rank, sign * last pivot is the determinant.
    """
    nrows, ncols = len(rows), len(rows[0])
    prev = 1
    sign = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
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
    return r, sign, prev


def _eliminate_mod_p(rows, p: int) -> tuple[int, int, int]:
    """Gaussian elimination of the matrix's reduction mod p.

    Returns the rank, the sign of the row swaps and the product of the
    pivots mod p.
    """
    rows = [[as_scalar(x, p).val for x in row] for row in rows]
    nrows, ncols = len(rows), len(rows[0])
    sign = 1
    product = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        row_r = rows[r]
        product = product * row_r[c] % p
        inv = pow(row_r[c], -1, p)
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                f = f * inv % p
                row_i = rows[i]
                for j in range(c, ncols):
                    row_i[j] = (row_i[j] - f * row_r[j]) % p
        r += 1
    return r, sign, product


def rank_int_bareiss(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination (destructive)."""
    return _bareiss(rows)[0] if rows else 0


def rank(rows, char: int | None = None) -> int:
    """Exact rank over the rationals (default) or over F_char."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    if char is not None:
        return _eliminate_mod_p(rows, char)[0]
    return rank_int_bareiss(_integer_rows(rows)[0])


def det(rows, char: int | None = None):
    """Exact determinant of a square matrix."""
    rows = [list(r) for r in rows]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return as_scalar(1, char)
    if char is not None:
        r, sign, product = _eliminate_mod_p(rows, char)
        return Fp(sign * product if r == n else 0, char)
    int_rows, scale = _integer_rows(rows)
    r, sign, last = _bareiss(int_rows)
    return Fraction(sign * last, scale) if r == n else Fraction(0)


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

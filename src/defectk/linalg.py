"""Exact linear algebra: fraction-free rank, determinants, forward echelons.

Ranks and determinants of rational matrices come from one Bareiss
elimination (Bareiss 1968): rows are scaled to integers, and every
cross-multiplication step divides by the previous pivot, which is exact
(the entries stay determinants of minors of the original matrix) and keeps
coefficient growth polynomial.  A rank over F_p reduces the entries to
residues and runs an ordinary Gaussian elimination, where division is
cheap and there is no growth.  ``rank`` shares no code with the evaluation
echelons of ``ideals``, so tests and the benchmark use it as their
independent oracle, and ``det`` serves the node references of ``oracles``.
``dets`` runs the same elimination on many integer matrices of one size at
once, each step one list comprehension over the matrices, with a row lift
in place of row swaps: the node audit takes every chart Hessian of a chart
with one call.

``IntForwardEchelon`` is the evaluation echelon of ``ideals``: a forward
echelon on plain Python ints, over Z or over F_p (packed into byte-aligned
slots), that keeps each stored vector from its pivot on, its tail, and
touches only the rows whose pivots an insertion hits.  ``add`` takes a
tail and the column it starts at and hands back the tail it stored, so
that the profile pass of ``ideals`` can offer x_v times a stored tail.
``copy`` keeps the stored vectors of one degree while the pass rescales
and extends the echelon into the next.  It serves only matrices indexed
by points: every point-set rank, the catalecticant ranks of a functional
at points (mod p first, else over Z), and, through the kernel over Z of
such a copy, the weights of a socle functional.
``Echelon`` holds ideal pieces over the monomial basis: a forward echelon
of the same design on sparse dict rows of ``Fraction``s, which reduces only
the vector it inserts and back-substitutes only when a kernel is asked
for.  It serves generated pieces, base loci, and the monomial pieces of
``oracles``: point ideals, restrictions and catalecticant kernels; the
point side never uses it.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from fractions import Fraction

# Slot sizes in bytes of a packed F_p vector, with the struct codes that
# read a slot (little-endian, standard sizes, no padding): one unsigned
# field up to 8 bytes, above that a 64-bit low word and a high field.
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q", 9: "QB", 10: "QH", 12: "QI", 16: "QQ"}


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """Scale each row by the lcm of its denominators (rank-preserving); also
    return the product of the scales, by which the determinant grows.  A
    row of ints is kept as it is."""
    out = []
    scale = 1
    for row in rows:
        # an int test is cheap; isinstance(x, Fraction) goes through ABCMeta
        if not all(isinstance(x, int) for x in row):
            denom = math.lcm(*(x.denominator for x in row if not isinstance(x, int)))
            row = [x * denom if isinstance(x, int) else x.numerator * (denom // x.denominator)
                   for x in row]
            scale *= denom
        out.append(row)
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


def _rank_mod_p(rows, p: int) -> int:
    """Rank of the reduction mod p of a matrix of ints and Fractions, by
    Gaussian elimination; ValueError when p divides a denominator."""
    rows = [[x % p if isinstance(x, int) else x.numerator * pow(x.denominator, -1, p) % p
             for x in row] for row in rows]
    nrows, ncols = len(rows), len(rows[0])
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        row_r = rows[r]
        inv = pow(row_r[c], -1, p)
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                f = f * inv % p
                row_i = rows[i]
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
        return _rank_mod_p(rows, char)
    return _bareiss(_integer_rows(rows)[0])[0]


def det(rows) -> Fraction:
    """Exact determinant of a square matrix of ints and Fractions."""
    rows = [list(r) for r in rows]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return Fraction(1)
    int_rows, scale = _integer_rows(rows)
    r, sign, last = _bareiss(int_rows)
    return Fraction(sign * last, scale) if r == n else Fraction(0)


def dets(entries, count: int) -> list[int]:
    """Determinants of ``count`` square integer matrices of one size m at
    once: ``entries[a][b]`` is the list of entry (a, b) over the matrices.

    One Bareiss elimination runs on all of them, each step a list
    comprehension over the matrices, without row swaps.  Where a pivot is
    zero, the first later row that is nonzero in the pivot column is added
    to the pivot row.  That keeps the determinant, and keeps every division
    exact: each intermediate Bareiss row is linear in its original row, so
    the sum is the intermediate row of a matrix whose original pivot row
    had that row added.  A matrix with no such row is singular; it gets
    its previous pivot as a stand-in, which leaves its later rows as they
    are (still exact), and its determinant is reported as 0."""
    rows = [list(row) for row in entries]  # entry lists are replaced, never changed
    m = len(rows)
    prev = [1] * count
    singular = [False] * count
    for c in range(m):
        rc = rows[c]
        for ri in rows[c + 1:]:
            if all(rc[c]):
                break
            lift = [not p and bool(x) for p, x in zip(rc[c], ri[c])]
            if any(lift):
                for j in range(c, m):
                    rc[j] = [x + y if s else x for x, y, s in zip(rc[j], ri[j], lift)]
        singular = [s or not p for s, p in zip(singular, rc[c])]
        piv = rc[c] = [p or q for p, q in zip(rc[c], prev)]
        for ri in rows[c + 1:]:
            ric = ri[c]
            for j in range(c + 1, m):
                ri[j] = [(p * x - r * y) // q
                         for p, x, r, y, q in zip(piv, ri[j], ric, rc[j], prev)]
        prev = piv
    return [0 if s else p for s, p in zip(singular, prev)]


class SlotPacking:
    """Vectors of up to ``count`` nonnegative ints as one int, entry c in
    slot c (Kronecker substitution; Dumas-Fousse-Salvy, JSC 2011).  A slot
    is the smallest byte-aligned field of ``_SLOT_CODES`` that holds
    ``bound``, so a sum of packed vectors times nonnegative ints is
    carry-free, slot by slot the sum of the entries, as long as no slot
    exceeds ``bound``.  ``pack`` takes entries below 2^64; ``unpack`` reads
    a run of slots of up to 8 bytes with one ``struct`` call, and a wider
    slot as a 64-bit low word and a high field.  It serves the F_p tails of
    ``IntForwardEchelon`` and the modular catalecticant products of ``ideals``.
    """

    def __init__(self, count: int, bound: int, modulus: int):
        bits = bound.bit_length()
        size = next((size for size in _SLOT_CODES if 8 * size >= bits), None)
        if size is None:
            raise ValueError(f"no slot of at most 128 bits holds {bound}")
        self.count, self.bound, self.width = count, bound, 8 * size
        self._modulus, self._slot = modulus, struct.Struct("<" + _SLOT_CODES[size])

    def pack(self, v) -> int:
        """Entries below 2^64 as one int, entry c in slot c."""
        size = self._slot.size
        data = struct.pack(f"<{len(v)}{_SLOT_CODES[min(size, 8)]}", *v)
        if size > 8:  # each 8-byte word at the low end of its wider slot
            words, data = data, bytearray(size * len(v))
            for i in range(8):
                data[i::size] = words[i::8]
        return int.from_bytes(data, "little")

    def unpack(self, packed: int, count: int | None = None, scale: int = 1) -> list[int]:
        """The slots of a packed vector of at most ``count`` slots (the
        packing's count by default), each times ``scale`` mod ``modulus``."""
        p, size = self._modulus, self._slot.size
        count = self.count if count is None else count
        data = packed.to_bytes(size * count, "little")
        if size > 8:
            return [(low | high << 64) * scale % p for low, high in self._slot.iter_unpack(data)]
        return [x * scale % p for x in struct.unpack(f"<{count}{_SLOT_CODES[size]}", data)]


class Echelon:
    """Forward echelon over Q on sparse dict rows {column: Fraction}, keyed
    by pivot, the design of ``IntForwardEchelon``: each row is monic at its
    pivot, its smallest column, and may be nonzero at later pivots.  A
    vector is reduced only until its smallest column is not a pivot, and is
    stored there; stored rows never change.  So the rows depend on the
    insertion order, and ``dim``, ``contains`` and ``kernel_of_rows`` only
    on the span.  They serve the monomial-indexed oracles: piece equality
    and containment, and the kernels of ``oracles.cut_out``.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def codim(self) -> int:
        return self.ncols - len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Residue of a vector modulo the span, reduced until its smallest
        column is not a pivot: empty exactly when the vector is in the span."""
        v = {}
        for c, x in vec.items():
            if x:
                v[c] = x if isinstance(x, Fraction) else Fraction(x)
        while v and (c := min(v)) in self.rows:
            coef = v.pop(c)
            for cc, rv in self.rows[c].items():
                if cc != c:
                    delta = coef * rv
                    cur = v.get(cc)
                    if cur is None:
                        v[cc] = -delta
                    elif cur == delta:
                        del v[cc]
                    else:
                        v[cc] = cur - delta
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
        self.rows[p] = {c: x * inv for c, x in v.items()}
        return True

    def kernel_of_rows(self) -> list[dict]:
        """Basis of {x : row . x = 0 for every row}, one vector per free
        column j: 1 at j, 0 at the other free columns, and at each pivot what
        the row there forces, so it is unique to the span.  The pivots are
        solved from the highest down, each as a combination of free columns."""
        solved = {}
        for p in sorted(self.rows, reverse=True):
            x_p = {}
            for c, a in self.rows[p].items():
                if c in solved:
                    for j, y in solved[c].items():
                        x_p[j] = x_p.get(j, 0) - a * y
                elif c != p:
                    x_p[c] = x_p.get(c, 0) - a
            solved[p] = {j: y for j, y in x_p.items() if y}
        return [{j: Fraction(1), **{p: x_p[j] for p, x_p in solved.items() if j in x_p}}
                for j in range(self.ncols) if j not in self.rows]


class IntForwardEchelon:
    """Forward (non-reduced) echelon on plain ints, over Z or over F_char,
    for ranks of evaluation matrices.  Each stored vector is held from its
    pivot on, its tail, in a dict keyed by pivot.  An insertion walks the
    vector as ``Echelon.reduce`` does: while its first nonzero entry is at a
    pivot, it is reduced by that row and the entry dropped; the rest is
    stored.  So it touches only the rows it hits.  Over Z a tail is a list
    without content, and a reduction is a * v - b * u for the entries a, b
    at the pivot.  Over F_char a tail is monic residues packed into one int,
    slot 0 at the pivot, and a reduction is V += (char - b) * U, one big-int
    step.  Entries start below char and each step adds at most (char - 1)^2,
    so the ``SlotPacking`` of the bound char + ncols * (char - 1)^2 keeps
    every slot carry-free; a slot that is a nonzero multiple of char is zero
    and is dropped.  An F_char echelon only ranks: ``scale_columns`` and
    ``kernel`` serve Z only.
    """

    def __init__(self, ncols: int, char: int | None = None):
        self.ncols = ncols
        self.char = char
        self._rows: dict[int, object] = {}  # pivot -> tail
        if char is not None:
            self._packing = SlotPacking(ncols, char + ncols * (char - 1) ** 2, char)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def add(self, tail: list[int], start: int = 0) -> tuple[int, list[int]] | None:
        """Insert the vector that is ``tail`` from column ``start`` on, zero
        before.  Returns the (pivot, tail) it stored, over F_char unpacked
        residues, or None when the vector lies in the span."""
        rows, p = self._rows, self.char
        if p is None:
            v = tail
            while (i := next(itertools.compress(itertools.count(), v), None)) is not None:
                start += i
                u = rows.get(start)
                if u is None:
                    rows[start] = v = _primitive(v[i:])
                    return start, v
                a, b = u[0], v[i]
                v = [a * x - b * y for x, y in zip(v[i + 1:], u[1:])]
                start += 1
            return None
        packing, width = self._packing, self._packing.width
        mask = (1 << width) - 1
        packed = packing.pack([x % p for x in tail])
        while packed:
            low = packed & mask
            if not low:  # skip to the lowest nonzero slot
                skip = ((packed & -packed).bit_length() - 1) // width
                packed >>= width * skip
                start += skip
                low = packed & mask
            b = low % p
            if b:
                u = rows.get(start)
                if u is None:
                    v = packing.unpack(packed, self.ncols - start, pow(b, -1, p))
                    rows[start] = packing.pack(v)
                    return start, v
                packed += (p - b) * u
            packed >>= width  # the entry is now a multiple of p: drop it
            start += 1
        return None

    def copy(self) -> "IntForwardEchelon":
        """An echelon of the same stored vectors, which later ``add`` and
        ``scale_columns`` calls on either one leave alone: both replace tails
        in the dict and never mutate one, so only the dict is copied."""
        other = object.__new__(IntForwardEchelon)
        vars(other).update(vars(self), _rows=dict(self._rows))
        return other

    def scale_columns(self, scales: list[int]) -> None:
        """Multiply entry c of every vector by scales[c], nonzero, over Z;
        zeros stay zeros, so the pivots and the echelon form are kept."""
        self._rows = {pivot: _primitive(list(map(operator.mul, u, scales[pivot:])))
                      for pivot, u in self._rows.items()}

    def kernel(self) -> list[list[int]]:
        """Basis of the vectors orthogonal to every stored vector, over Z,
        one per non-pivot column c: positive at c, 0 at the other non-pivot
        columns, and the pivot entries by back substitution, scaled by
        positive factors so that they stay integers.  Each vector is then
        divided by its content, so the basis depends only on the span, not
        on the stored vectors that hold it."""
        rows = sorted(self._rows.items(), reverse=True)
        out = []
        for free in range(self.ncols):
            if free in self._rows:
                continue
            x = [0] * self.ncols
            x[free] = 1
            for pivot, u in rows:
                s = sum(map(operator.mul, u[1:], x[pivot + 1:]))
                if s:
                    g = math.gcd(s, u[0]) * (-1 if u[0] < 0 else 1)
                    if u[0] // g != 1:
                        x = [y * (u[0] // g) for y in x]
                    x[pivot] = -(s // g)
            out.append(_primitive(x))
        return out


def _primitive(v: list[int]) -> list[int]:
    """An int vector divided by its content."""
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v

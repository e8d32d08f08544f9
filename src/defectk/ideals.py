"""Degreewise ideal computations: graded pieces, point-set Hilbert functions,
hyperplane restriction, apolar (Gorenstein) ideals, growth audits, and
base-locus dimension through persistence of maximal growth.

Conventions used throughout:

* A projective point is stored normalized at its first nonzero coordinate.
  Rank computations internally switch to the primitive integer
  representative of each point (scaling a point multiplies its whole
  degree-k evaluation row by a nonzero constant, so ranks are unaffected)
  and run fraction-free.
* A degree piece of an ideal is a subspace of the degree-k coefficient
  space, held in reduced row-echelon form over the fixed monomial order,
  so piece equality and containment are plain matrix comparisons.
* A point set's Hilbert profile h(0..N) comes from one pass in the style
  of Buchberger-Moeller (Moeller-Buchberger 1982; Abbott-Bigatti-Kreuzer-
  Robbiano 2000).  Evaluation columns are picked greedily in the fixed
  monomial order; the picked (standard) monomials form an order ideal,
  because the order is multiplicative and the column of x_v * m is the
  column of m scaled pointwise by x_v.  Degree k therefore only offers
  x_v * b for b standard in degree k-1 with every degree-(k-1) divisor
  standard, and computes each column from b's.  The ranks stay exact
  (integers, or F_p), no degree is ranked twice, and about n * nvars
  columns are offered per degree instead of binom(k + nvars - 1, k).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Echelon, IntForwardEchelon
from .macaulay import binomial, expand, upper_growth
from .polynomials import GradedPoly, monomial_basis, monomial_index
from .scalars import as_scalar, scalar_zero


class NonGenericHyperplaneError(ValueError):
    """A drawn hyperplane passes through one of the points."""


class InconclusiveProbeError(RuntimeError):
    """A base-locus probe hit its degree cap without a verdict."""


# ---------------------------------------------------------------------------
# points


def normalize_point(coords) -> tuple[Fraction, ...]:
    coords = tuple(Fraction(c) for c in coords)
    lead = next((c for c in coords if c), None)
    if lead is None:
        raise ValueError("zero vector is not a projective point")
    return tuple(c / lead for c in coords)


def primitive_point(coords) -> tuple[int, ...]:
    """Integer representative with coprime entries, first nonzero positive."""
    coords = tuple(Fraction(c) for c in coords)
    denom = 1
    for c in coords:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coords]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


class PointSet:
    """Finite set of distinct projective points with normalized coordinates."""

    __slots__ = ("nvars", "points", "_int_reps")

    def __init__(self, coords_list):
        pts = [normalize_point(c) for c in coords_list]
        if not pts:
            raise ValueError("point set must be nonempty")
        nvars = len(pts[0])
        if any(len(p) != nvars for p in pts):
            raise ValueError("points have inconsistent coordinate counts")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be pairwise distinct")
        self.nvars = nvars
        self.points = tuple(pts)
        self._int_reps = None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return isinstance(other, PointSet) and self.points == other.points

    def int_reps(self) -> tuple[tuple[int, ...], ...]:
        if self._int_reps is None:
            self._int_reps = tuple(primitive_point(p) for p in self.points)
        return self._int_reps

    def to_json_list(self) -> list:
        return [[[c.numerator, c.denominator] for c in p] for p in self.points]

    @classmethod
    def from_json_list(cls, data) -> "PointSet":
        """Inverse of ``to_json_list``; malformed data raises ValueError."""
        try:
            coords_list = [[Fraction(num, den) for num, den in p] for p in data]
        except (TypeError, ZeroDivisionError) as exc:
            raise ValueError(
                f"points must be lists of [numerator, denominator] pairs: {exc}"
            ) from exc
        return cls(coords_list)


def _evaluation_columns(int_points, nvars: int, degree: int):
    """Yield, per monomial of the degree in basis order, its values at the points."""
    tables = [[[c**e for e in range(degree + 1)] for c in p] for p in int_points]
    for exp in monomial_basis(nvars, degree):
        nz = [(v, e) for v, e in enumerate(exp) if e]
        col = []
        for tab in tables:
            val = 1
            for v, e in nz:
                val *= tab[v][e]
            col.append(val)
        yield col


# ---------------------------------------------------------------------------
# Hilbert profiles


@dataclass(frozen=True)
class HilbertProfile:
    """Values h(0), ..., h(N) of dim(S/I)_k."""

    values: tuple[int, ...]

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise ValueError("profile values must be nonnegative")

    def __getitem__(self, k: int) -> int:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def to_json_list(self) -> list[int]:
        return list(self.values)


def _pick_standard(ech, char: int | None, candidates):
    """Insert (monomial, evaluation column) pairs into a point-indexed
    echelon in the given order, and yield the pairs whose column enlarges
    its span: the standard monomials among the candidates.  Over F_char the
    yielded columns are reduced mod char.
    """
    for mono, col in candidates:
        if char is None:
            grew = ech.add(col)
        else:
            col = [v % char for v in col]
            grew = ech.add({i: v for i, v in enumerate(col) if v})
        if grew:
            yield mono, col
            if ech.dim == ech.ncols:
                return


def _evaluation_echelon(n: int, char: int | None):
    return IntForwardEchelon(n) if char is None else Echelon(n, char)


def _standard_echelons(points: PointSet, up_to: int, char: int | None = None):
    """Yield the evaluation echelon of each degree 0..up_to in one pass.

    Degree-k candidates are the products x_v * b with b standard in degree
    k-1 whose every degree-(k-1) divisor is standard, visited in the fixed
    monomial order.  The order is multiplicative, so the standard monomials
    form an order ideal and the candidates include all of them; every
    degree-k column is diag(x_v(p)) times a degree-(k-1) column, so they also
    span the whole column space and the pick is exactly the one over every
    degree-k monomial.  The full monomial basis is never built.
    """
    n, nvars = len(points), points.nvars
    reps = points.int_reps()
    standard = {(0,) * nvars: [1] * n}
    for k in range(up_to + 1):
        if k:
            offers = {}
            for b in standard:
                for v in range(nvars):
                    m = b[:v] + (b[v] + 1,) + b[v + 1 :]
                    if m not in offers and all(
                        m[:u] + (m[u] - 1,) + m[u + 1 :] in standard
                        for u in range(nvars)
                        if m[u]
                    ):
                        offers[m] = (b, v)
            candidates = (
                (m, [x * rep[v] for x, rep in zip(standard[b], reps)])
                for m, (b, v) in sorted(offers.items(), key=lambda t: t[0][::-1])
            )
        else:
            candidates = standard.items()
        ech = _evaluation_echelon(n, char)
        standard = dict(_pick_standard(ech, char, candidates))
        yield ech


def points_hilbert(points: PointSet, k: int, char: int | None = None) -> int:
    """dim(S/I(points))_k: the rank of the degree-k evaluation matrix, from
    every degree-k monomial's column (no lower degree is ranked)."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    columns = _evaluation_columns(points.int_reps(), points.nvars, k)
    candidates = zip(monomial_basis(points.nvars, k), columns)
    return sum(1 for _ in _pick_standard(_evaluation_echelon(len(points), char), char, candidates))


def points_profile(points: PointSet, up_to: int, char: int | None = None) -> HilbertProfile:
    """h(0..up_to) for the ideal of the point set, in one order-ideal pass."""
    return HilbertProfile(tuple(ech.dim for ech in _standard_echelons(points, up_to, char)))


# ---------------------------------------------------------------------------
# ideal pieces


class IdealPiece:
    """Degree-k piece of a homogeneous ideal, in reduced row-echelon form."""

    __slots__ = ("nvars", "degree", "echelon")

    def __init__(self, nvars: int, degree: int, echelon: Echelon):
        expected = binomial(degree + nvars - 1, nvars - 1)
        if echelon.ncols != expected:
            raise ValueError("echelon width does not match the monomial basis")
        self.nvars = nvars
        self.degree = degree
        self.echelon = echelon

    @property
    def dim(self) -> int:
        return self.echelon.dim

    @property
    def codim(self) -> int:
        return self.echelon.codim()

    @property
    def char(self):
        return self.echelon.char

    @classmethod
    def from_polys(cls, nvars: int, degree: int, polys, char=None) -> "IdealPiece":
        ech = Echelon(binomial(degree + nvars - 1, nvars - 1), char)
        idx = monomial_index(nvars, degree)
        for f in polys:
            if f.nvars != nvars or f.degree != degree:
                raise ValueError("basis polynomial in the wrong graded component")
            ech.add({idx[e]: c for e, c in f.coeffs.items()})
        return cls(nvars, degree, ech)

    @classmethod
    def from_vectors(cls, nvars: int, degree: int, vectors, char=None) -> "IdealPiece":
        ech = Echelon(binomial(degree + nvars - 1, nvars - 1), char)
        for v in vectors:
            ech.add(v)
        return cls(nvars, degree, ech)

    @classmethod
    def zero_piece(cls, nvars: int, degree: int, char=None) -> "IdealPiece":
        return cls(nvars, degree, Echelon(binomial(degree + nvars - 1, nvars - 1), char))

    @classmethod
    def full(cls, nvars: int, degree: int, char=None) -> "IdealPiece":
        ncols = binomial(degree + nvars - 1, nvars - 1)
        ech = Echelon(ncols, char)
        for i in range(ncols):
            ech.add({i: 1})
        return cls(nvars, degree, ech)

    def basis_polys(self) -> list[GradedPoly]:
        basis = monomial_basis(self.nvars, self.degree)
        out = []
        for _, row in sorted(self.echelon.rows.items()):
            out.append(
                GradedPoly(
                    self.nvars, self.degree, {basis[c]: v for c, v in row.items()}, self.char
                )
            )
        return out

    def contains(self, other: "IdealPiece") -> bool:
        if (self.nvars, self.degree) != (other.nvars, other.degree):
            raise ValueError("pieces live in different graded components")
        return all(self.echelon.contains(dict(row)) for row in other.echelon.rows.values())

    def __eq__(self, other):
        return (
            isinstance(other, IdealPiece)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.echelon == other.echelon
        )


def generated_piece(generators, k: int) -> IdealPiece:
    """Degree-k piece of the ideal generated by homogeneous forms."""
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    nvars = generators[0].nvars
    char = generators[0].char
    if any(g.nvars != nvars or g.char != char for g in generators):
        raise ValueError("generators live in different rings")
    if any(g.degree > k for g in generators):
        raise ValueError("generator degree exceeds the requested piece degree")
    ech = Echelon(binomial(k + nvars - 1, nvars - 1), char)
    idx = monomial_index(nvars, k)
    for g in generators:
        if g.is_zero:
            continue
        for mono in monomial_basis(nvars, k - g.degree):
            vec = {}
            for exp, c in g.coeffs.items():
                prod = tuple(a + b for a, b in zip(exp, mono))
                vec[idx[prod]] = c
            ech.add(vec)
    return IdealPiece(nvars, k, ech)


def point_ideal_piece(points: PointSet, k: int, char=None) -> IdealPiece:
    """Degree-k piece of the ideal of a point set (evaluation-matrix kernel).

    With ``restrict_to_hyperplane`` this is the independent oracle that the
    tests check ``restricted_point_pieces`` against.
    """
    cols = list(_evaluation_columns(points.int_reps(), points.nvars, k))
    # one row per point, columns indexed by monomials
    ech = Echelon(len(cols), char)
    for i in range(len(points)):
        ech.add({j: cols[j][i] for j in range(len(cols)) if cols[j][i]})
    return IdealPiece.from_vectors(points.nvars, k, ech.kernel_of_rows(), char)


# ---------------------------------------------------------------------------
# hyperplane restriction


_HYPERPLANE_TRIES = 32


def draw_missing_hyperplane(points: PointSet, seed: int) -> GradedPoly:
    """Seeded linear form with coefficients in [1, 997] avoiding every point."""
    rng = random.Random(seed)
    for _ in range(_HYPERPLANE_TRIES):
        coeffs = [rng.randint(1, 997) for _ in range(points.nvars)]
        ell = GradedPoly.linear_form(coeffs)
        if all(ell.evaluate(p) for p in points):
            return ell
    raise NonGenericHyperplaneError("no hyperplane missing all points after retries")


def difference_profile(h_I: HilbertProfile, points: PointSet, ell: GradedPoly) -> HilbertProfile:
    """Profile of the hyperplane restriction: h(k) = h_I(k) - h_I(k-1).

    Valid exactly when no point lies on the hyperplane, which makes
    multiplication by the linear form injective on the coordinate ring.
    """
    if ell.degree != 1 or ell.is_zero:
        raise ValueError("need a nonzero linear form")
    for p in points:
        if not ell.evaluate(p):
            raise NonGenericHyperplaneError(f"hyperplane contains the point {p}")
    vals = [1]
    for k in range(1, len(h_I)):
        step = h_I[k] - h_I[k - 1]
        if step < 0:
            raise ValueError("input profile is not nondecreasing")
        vals.append(step)
    return HilbertProfile(tuple(vals))


def _hyperplane_change_matrix(ell: GradedPoly):
    """Invertible M with ell(M y) = y_last, as rows of x_i in terms of y."""
    n = ell.nvars
    coeffs = [scalar_zero(ell.char)] * n
    for exp, c in ell.coeffs.items():
        coeffs[exp.index(1)] = c
    j = max(i for i, c in enumerate(coeffs) if c)
    last = n - 1
    rows = []
    for i in range(n):
        rows.append([as_scalar(0, ell.char)] * n)
    for i in range(n):
        if i == j:
            continue
        target = j if i == last else i
        rows[i][target] = as_scalar(1, ell.char)
    inv = coeffs[j] ** -1
    rows[j][last] = inv
    for i in range(n):
        if i == j:
            continue
        src = j if i == last else i
        if coeffs[i]:
            rows[j][src] = -coeffs[i] * inv
    return rows


def restrict_to_hyperplane(pieces, ell: GradedPoly) -> list[IdealPiece]:
    """Image of (I, ell) in the quotient by the hyperplane, degree by degree.

    Coordinates are changed so the linear form becomes the last variable,
    which is then set to zero.  It works on full degree pieces; together
    with ``point_ideal_piece`` it is the independent oracle that the tests
    check ``restricted_point_pieces`` against.
    """
    if ell.degree != 1 or ell.is_zero:
        raise ValueError("need a nonzero linear form")
    matrix = _hyperplane_change_matrix(ell)
    out = []
    for piece in pieces:
        if piece.nvars != ell.nvars:
            raise ValueError("piece and hyperplane live in different rings")
        polys = [
            f.linear_change(matrix).substitute_zero(piece.nvars - 1)
            for f in piece.basis_polys()
        ]
        out.append(
            IdealPiece.from_polys(
                piece.nvars - 1, piece.degree, [f for f in polys if not f.is_zero], piece.char
            )
        )
    return out


def shifted_points(points: PointSet, ell: GradedPoly) -> PointSet:
    """Point coordinates after the change that turns ell into the last variable."""
    n = points.nvars
    coeffs = [Fraction(0)] * n
    for exp, c in ell.coeffs.items():
        coeffs[exp.index(1)] = c
    j = max(i for i, c in enumerate(coeffs) if c)
    last = n - 1
    new_pts = []
    for p in points:
        val = sum(c * x for c, x in zip(coeffs, p))
        if not val:
            raise NonGenericHyperplaneError(f"hyperplane contains the point {p}")
        q = list(p)
        if j != last:
            q[j] = p[last]
        q[last] = val
        new_pts.append(q)
    return PointSet(new_pts)


def restricted_point_pieces(points: PointSet, ell: GradedPoly, up_to: int) -> list[IdealPiece]:
    """Degree pieces 0..up_to of the point ideal's hyperplane restriction.

    Works in the changed coordinates where the linear form is the last
    variable.  A form g of degree e in the remaining variables lies in the
    restricted ideal exactly when its evaluation vector at the points falls
    in the span of the evaluations of last-variable-divisible monomials,
    i.e. when every functional annihilating (q_last * column space of
    degree e-1) kills it.  Only point-indexed matrices appear, so this
    stays cheap even when the ambient degree pieces are huge.
    """
    q = shifted_points(points, ell)
    nq = len(q)
    reps = q.int_reps()
    d_vals = [rep[-1] for rep in reps]
    # entry k spans the evaluation columns of the degree-k monomials
    colspaces = list(_standard_echelons(q, max(up_to - 1, 0)))
    nsmall = points.nvars - 1
    small_reps = tuple(rep[:-1] for rep in reps)
    pieces = []
    for e in range(up_to + 1):
        if e == 0:
            span_vectors = []
        else:
            span_vectors = [v for _, v in colspaces[e - 1].vectors]
        # annihilators of the scaled span, from a small dense reduction
        span_ech = Echelon(nq)
        for v in span_vectors:
            span_ech.add({i: d_vals[i] * x for i, x in enumerate(v) if x})
        psis = span_ech.kernel_of_rows()
        if not psis:
            pieces.append(IdealPiece.full(nsmall, e))
            continue
        int_psis = []
        for psi in psis:
            denom = 1
            for x in psi.values():
                denom = denom * x.denominator // math.gcd(denom, x.denominator)
            int_psis.append({i: int(x * denom) for i, x in psi.items()})
        cols = list(_evaluation_columns(small_reps, nsmall, e))
        cond = Echelon(len(cols))
        for psi in int_psis:
            row = {}
            for jcol, col in enumerate(cols):
                val = sum(c * col[i] for i, c in psi.items())
                if val:
                    row[jcol] = val
            cond.add(row)
        pieces.append(IdealPiece.from_vectors(nsmall, e, cond.kernel_of_rows()))
    return pieces


# ---------------------------------------------------------------------------
# Gorenstein ancestor (apolar) ideals


class Functional:
    """Linear functional on the degree-N graded piece, given by dual coefficients."""

    __slots__ = ("nvars", "degree", "coeffs", "char")

    def __init__(self, nvars: int, degree: int, coeffs, char=None):
        self.nvars = nvars
        self.degree = degree
        self.char = char
        clean = {}
        for exp, c in coeffs.items():
            exp = tuple(exp)
            if sum(exp) != degree or len(exp) != nvars:
                raise ValueError("functional coefficient at a wrong monomial")
            c = as_scalar(c, char)
            if c:
                clean[exp] = c
        self.coeffs = clean

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def of(self, f: GradedPoly):
        if f.nvars != self.nvars or f.degree != self.degree:
            raise ValueError("functional applied outside its graded piece")
        acc = scalar_zero(self.char)
        for exp, c in f.coeffs.items():
            phi = self.coeffs.get(exp)
            if phi is not None:
                acc = acc + phi * c
        return acc

    def scaled_integer_coeffs(self) -> dict:
        denom = 1
        for c in self.coeffs.values():
            denom = denom * c.denominator // math.gcd(denom, c.denominator)
        return {e: int(c * denom) for e, c in self.coeffs.items()}


def socle_functional(piece: IdealPiece) -> Functional:
    """First dual basis vector vanishing on the piece, in the monomial order."""
    free = piece.echelon.free_columns()
    if not free:
        raise ValueError("piece spans everything; no nonzero functional vanishes on it")
    basis = monomial_basis(piece.nvars, piece.degree)
    np1 = free[0]
    coeffs = {basis[np1]: as_scalar(1, piece.char)}
    for p, row in piece.echelon.rows.items():
        c = row.get(np1)
        if c:
            coeffs[basis[p]] = -c
    return Functional(piece.nvars, piece.degree, coeffs, piece.char)


def _catalecticant_rows(phi: Functional, e: int):
    """Rows of the pairing matrix S_e x S_{N-e}: row per complementary monomial."""
    coeffs = phi.scaled_integer_coeffs() if phi.char is None else phi.coeffs
    basis_e = monomial_basis(phi.nvars, e)
    for mono in monomial_basis(phi.nvars, phi.degree - e):
        row = {}
        for j, g in enumerate(basis_e):
            c = coeffs.get(tuple(a + b for a, b in zip(g, mono)))
            if c:
                row[j] = c
        yield row


def gorenstein_ancestor(phi: Functional, e: int) -> IdealPiece:
    """Degree-e piece of the largest ideal whose degree-N products the
    functional kills: the kernel of the pairing g |-> (m |-> phi(g*m))."""
    if phi.is_zero:
        raise ValueError("functional must be nonzero")
    if e < 0:
        raise ValueError("degree must be nonnegative")
    if e > phi.degree:
        return IdealPiece.full(phi.nvars, e, phi.char)
    ncols = binomial(e + phi.nvars - 1, phi.nvars - 1)
    ech = Echelon(ncols, phi.char)
    for row in _catalecticant_rows(phi, e):
        ech.add(row)
    return IdealPiece.from_vectors(phi.nvars, e, ech.kernel_of_rows(), phi.char)


def ancestor_profile(phi: Functional) -> HilbertProfile:
    """h(0..N) of the quotient by the ancestor ideal: ranks of the pairings."""
    if phi.is_zero:
        raise ValueError("functional must be nonzero")
    vals = []
    for e in range(phi.degree + 1):
        ncols = binomial(e + phi.nvars - 1, phi.nvars - 1)
        if phi.char is None:
            ech = IntForwardEchelon(ncols)
            for row in _catalecticant_rows(phi, e):
                dense = [0] * ncols
                for j, c in row.items():
                    dense[j] = c
                ech.add(dense)
            vals.append(ech.dim)
        else:
            ech = Echelon(ncols, phi.char)
            for row in _catalecticant_rows(phi, e):
                ech.add(row)
            vals.append(ech.dim)
    return HilbertProfile(tuple(vals))


def functional_kills_products(phi: Functional, piece: IdealPiece) -> bool:
    """True when phi vanishes on piece * S_{N - e}, the degree-by-degree
    membership test for the ancestor ideal."""
    e = piece.degree
    if e > phi.degree:
        return False
    basis_e = monomial_basis(piece.nvars, e)
    coeffs = phi.coeffs
    for row in piece.echelon.rows.values():
        for mono in monomial_basis(piece.nvars, phi.degree - e):
            acc = scalar_zero(phi.char)
            for j, c in row.items():
                v = coeffs.get(tuple(a + b for a, b in zip(basis_e[j], mono)))
                if v is not None:
                    acc = acc + v * c
            if acc:
                return False
    return True


# ---------------------------------------------------------------------------
# growth audit and base locus


@dataclass(frozen=True)
class GrowthViolation:
    degree: int
    value: int
    next_value: int
    bound: int


def macaulay_growth_audit(profile: HilbertProfile) -> list[GrowthViolation]:
    """Transitions k -> k+1 (k >= 1) exceeding the maximal-growth bound."""
    out = []
    for k in range(1, len(profile) - 1):
        bound = upper_growth(profile[k], k)
        if profile[k + 1] > bound:
            out.append(GrowthViolation(k, profile[k], profile[k + 1], bound))
    return out


@dataclass(frozen=True)
class BaseLocus:
    kind: str  # "empty" | "dim" | "inconclusive"
    dimension: int | None = None

    @classmethod
    def empty(cls) -> "BaseLocus":
        return cls("empty")

    @classmethod
    def of_dim(cls, m: int) -> "BaseLocus":
        if m < 0:
            return cls("empty")
        return cls("dim", m)

    @classmethod
    def inconclusive(cls) -> "BaseLocus":
        return cls("inconclusive")

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"

    @property
    def is_inconclusive(self) -> bool:
        return self.kind == "inconclusive"


def _multiply_by_variables(ech: Echelon, nvars: int, degree: int, char=None) -> Echelon:
    basis = monomial_basis(nvars, degree)
    idx = monomial_index(nvars, degree + 1)
    out = Echelon(binomial(degree + nvars, nvars - 1), char)
    for row in ech.rows.values():
        for var in range(nvars):
            vec = {}
            for col, c in row.items():
                exp = basis[col]
                nexp = exp[:var] + (exp[var] + 1,) + exp[var + 1 :]
                vec[idx[nexp]] = c
            out.add(vec)
    return out


def base_locus_dimension(piece: IdealPiece, degree_cap: int | None = None) -> BaseLocus:
    """Dimension of the common zero locus of the ideal generated by a piece.

    Walks degrees upward; once the codimension attains the maximal-growth
    bound it stays maximal forever, the Hilbert polynomial is pinned, and
    the top exponent of the current expansion is the dimension.  A zero
    codimension means the locus is empty.  Past the cap the verdict is
    Inconclusive rather than a guess.
    """
    if piece.dim == 0:
        raise ValueError("piece must be nonzero")
    cap = degree_cap if degree_cap is not None else 4 * piece.degree + 10
    ech = piece.echelon
    k = piece.degree
    h_k = binomial(k + piece.nvars - 1, piece.nvars - 1) - ech.dim
    while True:
        if h_k == 0:
            return BaseLocus.empty()
        if k + 1 > cap:
            return BaseLocus.inconclusive()
        ech = _multiply_by_variables(ech, piece.nvars, k, piece.char)
        h_next = binomial(k + piece.nvars, piece.nvars - 1) - ech.dim
        if h_next == 0:
            return BaseLocus.empty()
        if h_next == upper_growth(h_k, k):
            return BaseLocus.of_dim(expand(h_k, k).eps[0])
        h_k = h_next
        k += 1


def corgreen_check(profile: HilbertProfile, d: int, bpf_degree: int) -> bool:
    """Strict decrease of the profile from degree d down to zero.

    The underlying collapse argument needs h at the application degree to
    be at most that degree (caller-asserted) and the ideal base point free
    by degree bpf_degree <= d + 1 (validated).
    """
    if not 0 <= d < len(profile):
        raise ValueError("d outside the profile")
    if bpf_degree > d + 1:
        raise ValueError("base-point-freeness must be established by degree d + 1")
    k = d
    while k < len(profile) and profile[k] > 0:
        nxt = profile[k + 1] if k + 1 < len(profile) else 0
        if nxt >= profile[k]:
            return False
        k += 1
    return True


def lemdims_check(pieces, N: int, n: int, degree_cap: int = 40):
    """Generator-degree bound for an Artinian Gorenstein quotient.

    d_k is the smallest degree t whose piece has base locus of dimension at
    most k; the sum over k = -1..n-1 is at least N + n + 1.  Returns the
    ascending tuple (d_{n-1}, ..., d_{-1}) and whether the bound holds.
    """
    pieces = list(pieces)
    if len(pieces) < N + 1:
        raise ValueError("need pieces for every degree up to the socle")
    nvars = pieces[0].nvars
    if nvars != n + 1:
        raise ValueError("piece ring does not match the ambient dimension")
    h = [binomial(t + nvars - 1, nvars - 1) - pieces[t].dim for t in range(N + 1)]
    if h[N] == 0 or any(h[t] != h[N - t] for t in range(N + 1)):
        raise ValueError("pieces are not Gorenstein-symmetric with the given socle degree")
    dims = {}
    for t in range(1, N + 1):
        if pieces[t].dim == 0:
            dims[t] = n
            continue
        verdict = base_locus_dimension(pieces[t], degree_cap)
        if verdict.is_inconclusive:
            raise InconclusiveProbeError(f"base-locus probe inconclusive at degree {t}")
        dims[t] = -1 if verdict.is_empty else verdict.dimension
        if dims[t] == -1:
            break
    d_values = []
    for k in range(n - 1, -2, -1):
        t_min = next((t for t in sorted(dims) if dims[t] <= k), None)
        # (S/I)_{N+1} = 0 for socle degree N, so the piece there is everything
        d_values.append(t_min if t_min is not None else N + 1)
    total = sum(d_values)
    return tuple(d_values), total >= N + n + 1

"""Degreewise ideal computations: graded pieces, point-set Hilbert functions,
hyperplane restriction, apolar (Gorenstein) ideals, growth audits, and
base-locus dimension through persistence of maximal growth.

Conventions used throughout:

* A projective point is stored as its primitive integer representative:
  coprime entries, the first nonzero one positive.  Scaling a point
  multiplies its whole degree-k evaluation row by a nonzero constant, so
  ranks do not depend on the representative, and every computation at the
  points runs fraction-free on these ints.  Only the JSON form is rational,
  normalized at the first nonzero coordinate.
* A degree piece of an ideal is a subspace of the degree-k coefficient
  space, held in reduced row-echelon form over the fixed monomial order,
  so piece equality and containment are plain matrix comparisons.
* A point set's Hilbert profile h(0..N) comes from one pass in the style
  of Buchberger-Moeller (Moeller-Buchberger 1982; Abbott-Bigatti-Kreuzer-
  Robbiano 2000).  Evaluation columns are picked greedily in the fixed
  monomial order; the picked (standard) monomials form an order ideal,
  because the order is multiplicative and the column of x_v * m is the
  column of m scaled pointwise by x_v.  So only the products x_v * b with
  every divisor standard are offered.  As in that paper, the offer is not
  x_v * b's column but x_v times the vector the echelon stored for b: that
  vector is col(b) up to a nonzero factor plus columns of standard
  monomials s before b, and each x_v * s comes before x_v * b, so the two
  differ by a vector already in the span.  Every pick, rank and kernel is
  the same, and the offer is zero before the stored vector's pivot, where
  its reduction starts.
  The pass runs one echelon through every degree when some coordinate x_j
  is nonzero at every point (mod p over F_p): col(x_j * m) =
  diag(x_j(p)) col(m), so the degree-k column space contains x_j times the
  degree-(k-1) one.  Each degree rescales the stored vectors by x_j(p)
  (unless x_j is 1 at every point) and offers only x_v * b with v != j and
  b new in degree k-1, the affine pass in the chart x_j = 1, and every
  point is inserted once.  Without such a chart each degree restarts its
  echelon and offers the products over all variables.  Over F_p the chart
  pass runs on the dehomogenised residues rep * rep[j]^-1, so its echelon
  is never rescaled.  The ranks stay exact (integers, or F_p) either way,
  on plain ints, and the pass stops offering once the rank reaches #points.
* ``points_hilbert`` reads h(k) from that pass at min(k, #points - 1).
  Over Q it first runs the pass mod CERTIFY_PRIME: a rank that reaches
  min(#points, #monomials) is certified exact, because a modular rank
  never exceeds the rational one; any other falls back to the pass over Z.
* The Gorenstein chain (restricted pieces, socle functional, ancestor
  profile, kill checks) runs on matrices indexed by the points.  The dual
  of a restricted piece (I_H)_e is spanned by point-evaluation functionals,
  and its codim is h_I(e) - h_I(e-1) from the profile pass, whose own
  degree-(N-1) echelon also gives the kernel that the socle functional's
  weights come from.  That functional is a point sum phi = sum_i c_i
  ev_{q'_i}, and by the apolarity lemma (Iarrobino-Kanev 1999, Lemma 1.15)
  its catalecticant is Cat_e(phi) = E_{N-e}^T diag(c) E_e for the
  evaluation matrices E at the q'_i, so every rank and kernel has the size
  of the point set, and runs on ``IntForwardEchelon``.  The kill checks at
  the points are one sufficient test at degree N, by the ideal property:
  (I_H)_e * S_{N-e} lies in (I_H)_N, so phi kills every such product once
  its weights are dual weights of (I_H)_N, an exact orthogonality to the
  degree-(N-1) columns, checked once per functional and restriction.  The
  socle functional always passes it; when it fails, the monomial path
  decides, pairing the rows of the monomial catalecticant with the piece's
  basis.  A passed check proves Ann(phi) contains I_H, so rank Cat_e <=
  codim (I_H)_e: each ancestor rank is taken mod CERTIFY_PRIME, kept when
  it meets that cap (without the check, the matrix size) and rerun over Z
  otherwise.  The monomial-indexed computations stay as the tests'
  independent oracles, on ``Echelon``: ``point_ideal_piece`` with
  ``restrict_to_hyperplane`` for the pieces, and the monomial
  catalecticant for a functional given by coefficients, whose kernel is
  ``gorenstein_ancestor`` and whose ranks are the monomial
  ``ancestor_profile``.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Echelon, IntForwardEchelon
from .macaulay import binomial, expand, upper_growth
from .polynomials import GradedPoly, monomial_basis, monomial_index, values_at


class NonGenericHyperplaneError(ValueError):
    """A drawn hyperplane passes through one of the points."""


class BadReductionError(ValueError):
    """Points that coincide mod p, or that every drawn hyperplane meets mod p."""


class InconclusiveProbeError(RuntimeError):
    """A base-locus probe hit its degree cap without a verdict."""


# ---------------------------------------------------------------------------
# points


def _dot(u, v):
    return sum(map(operator.mul, u, v))


def _scaled_to_integers(values) -> tuple[list[int], int]:
    """Ints or rationals times the lcm of their denominators, and that lcm."""
    values = list(values)
    denom = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values], denom


def primitive_point(coords) -> tuple[int, ...]:
    """Integer representative of a point given by ints or rationals: coprime
    entries, the first nonzero one positive."""
    ints = _scaled_to_integers(coords)[0]
    g = math.gcd(*ints)
    if not g:
        raise ValueError("zero vector is not a projective point")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def format_point(rep) -> str:
    """A point as (x0:...:xn), the form of every error message."""
    return f"({':'.join(map(str, rep))})"


class PointSet:
    """Finite set of distinct projective points, each stored as its
    ``primitive_point``, so any nonzero multiple of a point stands for it."""

    __slots__ = ("nvars", "points")

    def __init__(self, coords_list):
        pts = tuple(primitive_point(c) for c in coords_list)
        if not pts:
            raise ValueError("point set must be nonempty")
        nvars = len(pts[0])
        if any(len(p) != nvars for p in pts):
            raise ValueError("points have inconsistent coordinate counts")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be pairwise distinct")
        self.nvars = nvars
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return isinstance(other, PointSet) and self.points == other.points

    def int_reps(self) -> tuple[tuple[int, ...], ...]:
        """The stored points, under the name ``perfbench/tracing.py`` calls."""
        return self.points

    def to_json_list(self) -> list:
        """Each point as [numerator, denominator] pairs of c / lead, for lead
        its first nonzero coordinate."""
        out = []
        for p in self.points:
            lead = next(c for c in p if c)
            out.append([[q.numerator, q.denominator] for q in (Fraction(c, lead) for c in p)])
        return out

    @classmethod
    def from_json_list(cls, data) -> "PointSet":
        """Points given as lists of [numerator, denominator] pairs, any nonzero
        representative of each; malformed data raises ValueError."""
        try:
            pairs = [[(operator.index(num), operator.index(den)) for num, den in p] for p in data]
            if any(den == 0 for p in pairs for _, den in p):
                raise ZeroDivisionError("zero denominator")
            lcms = [math.lcm(*(den for _, den in p)) for p in pairs]
            coords_list = [[num * (lcm // den) for num, den in p] for p, lcm in zip(pairs, lcms)]
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(
                f"points must be lists of [numerator, denominator] pairs: {exc}"
            ) from exc
        return cls(coords_list)


def _evaluation_columns(int_points, nvars: int, degree: int) -> list[list[int]]:
    """Per monomial of the degree in basis order, its values at the points."""
    basis = monomial_basis(nvars, degree)
    return values_at([GradedPoly.monomial(nvars, exp) for exp in basis], int_points)


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


def _offers(standard, variables):
    """The products m = x_v * b (v in variables, b in standard) whose every
    divisor m / x_u is standard, as (m, (b, v)) in the fixed monomial order.

    The standard monomials form an order ideal, so these include every
    standard monomial of the next degree; no other product can be one.
    """
    offers = {}
    for b in standard:
        for v in variables:
            m = b[:v] + (b[v] + 1,) + b[v + 1 :]
            if m not in offers and all(
                m[:u] + (m[u] - 1,) + m[u + 1 :] in standard for u in range(len(m)) if m[u]
            ):
                offers[m] = (b, v)
    return sorted(offers.items(), key=lambda t: t[0][::-1])


def _chart(reps, char: int | None) -> int | None:
    """A coordinate that is nonzero (mod char) in every integer vector of
    ``reps``: the one with the smallest largest entry, lowest index on ties;
    None if there is none."""
    charts = [j for j in range(len(reps[0]))
              if all((rep[j] % char if char else rep[j]) for rep in reps)]
    return min(charts, key=lambda j: (max(abs(rep[j]) for rep in reps), j), default=None)


def _profile_pass(reps, j: int | None, up_to: int, char: int | None = None):
    """Yield (echelon, new standard monomials) of each degree 0..up_to for
    the integer vectors ``reps``; the monomials map each standard m new in
    the degree to the (b, v) with m = x_v * b it was offered as, (None,
    None) for m = 1.

    Degree-k offers are the products x_v * b with b new in degree k-1 whose
    every degree-(k-1) divisor is standard, visited in the fixed monomial
    order (see ``_offers``).  Without a chart (``j`` None) each degree starts
    a fresh echelon and offers every variable, so "new" means every standard
    monomial of the degree: the pick is exactly the one over every degree-k
    monomial, and the full monomial basis is never built.  In the chart of
    x_j, col(x_j * m) = diag(x_j(p)) col(m), so the degree-k column space
    contains the degree-(k-1) one scaled by x_j, of the same dimension: the
    one echelon is rescaled (unless x_j is 1 at every point), which keeps
    its pivots, and only v != j is offered, the affine pass in the chart
    x_j = 1, in which every point is inserted once.  Over F_char the pass
    runs on that chart itself, on the residues rep * rep[j]^-1: scaling a
    point multiplies its row of every evaluation matrix by a unit, which
    keeps every rank and every pick, and the echelon is never rescaled.

    The offer of x_v * b is not its column but diag(x_v(p)) u_b, for u_b
    the vector the echelon stored when it picked b, reduced from u_b's
    pivot on.  u_b is a nonzero multiple of col(b) plus columns of standard
    monomials s before b; the order is multiplicative, so every x_v * s
    comes before x_v * b, and its column is in the span by the time x_v * b
    is offered (in a chart the earlier degrees come first, as x_j times the
    previous span).  So the offer and the column differ by a vector of the
    span: every pick, rank, pivot and kernel is that of the columns, only
    the stored vectors differ, and the offer is zero before u_b's pivot.
    Offers stop once a degree adds nothing or the rank reaches #points, as
    the rank then stays put.
    """
    n, nvars = len(reps), len(reps[0])
    if j is not None and char is not None:
        units = [pow(rep[j], -1, char) for rep in reps]
        reps = [[x * u % char for x in rep] for rep, u in zip(reps, units)]
    others = [v for v in range(nvars) if v != j]
    ech = IntForwardEchelon(n, char)
    one = (0,) * nvars
    stored = {one: ech.add([1] * n)}
    new = {one: (None, None)}
    yield ech, new
    for _ in range(up_to):
        if new and ech.dim < n:
            if j is None:
                ech = IntForwardEchelon(n, char)
            elif char is None and any(rep[j] != 1 for rep in reps):
                ech.scale_columns([rep[j] for rep in reps])
            parents, stored, new = stored, {}, {}
            for m, (b, v) in _offers(parents, others):
                pivot, u = parents[b]
                vector = ech.add([x * rep[v] for x, rep in zip(u, reps)], pivot)
                if vector:
                    new[m], stored[m] = (b, v), vector
                    if ech.dim == n:
                        break
        else:
            new = {}
        yield ech, new


class _ColumnBases:
    """Evaluation columns of the standard monomials at integer vectors, per
    degree 0..up_to: a basis of each evaluation matrix's column space, with
    the small entries of monomial values (never echelon combinations), and
    the profile h(0..up_to) of their ranks over Q.

    Only the columns new in each degree are stored.  In a chart degree k
    gets the others by scaling with powers of the chart coordinate; without
    one a degree's new columns are all of them, and once the rank reaches
    #points the last ones span every later degree too.  With ``kernel_at``
    the pass's own echelon of that degree also gives ``kernel``, its kernel.
    """

    def __init__(self, reps, up_to: int, kernel_at: int | None = None):
        j = _chart(reps, None)
        self.h = []
        self._columns = []
        self.kernel = None
        columns = {}
        for k, (ech, new) in enumerate(_profile_pass(reps, j, up_to)):
            self.h.append(ech.dim)
            # col(x_v * b) = diag(x_v(p)) col(b), for b new in the degree before
            columns = {m: [x * rep[v] for x, rep in zip(columns[b], reps)] if k
                       else [1] * len(reps) for m, (b, v) in new.items()}
            self._columns.append(list(columns.values()))
            if k == kernel_at:
                self.kernel = ech.kernel()
        self._in_chart = j is not None
        self._scales = [rep[j] if self._in_chart else 1 for rep in reps]

    def degree(self, k: int, char: int | None = None):
        """Yield the columns of degree k, their entries reduced mod char if given."""
        last = max(b for b in range(k + 1) if self._columns[b])
        for b in range(k + 1) if self._in_chart else (last,):
            powers = [pow(s, k - b, char) for s in self._scales]
            for col in self._columns[b]:
                col = [x * s for x, s in zip(col, powers)]
                yield col if char is None else [x % char for x in col]


def points_profile(points: PointSet, up_to: int, char: int | None = None) -> HilbertProfile:
    """h(0..up_to) for the ideal of the point set, in one order-ideal pass:
    one nested echelon in a chart, or one echelon per degree without one."""
    reps = points.points
    passes = _profile_pass(reps, _chart(reps, char), up_to, char)
    return HilbertProfile(tuple(ech.dim for ech, _ in passes))


# The prime of the modular rank that certifies a full-rank evaluation matrix
# over Q in ``points_hilbert``: the Mersenne prime 2^31 - 1, so residues stay
# one-word ints and their products two-word ones.
CERTIFY_PRIME = 2**31 - 1


def points_hilbert(points: PointSet, k: int, char: int | None = None) -> int:
    """dim(S/I(points))_k, read from the profile pass at top = min(k, n - 1):
    the Hilbert function of n points is constant from degree n - 1 on (mod p
    too, where colliding points only make the set smaller).

    Over Q the pass first runs mod CERTIFY_PRIME.  That rank is a lower bound
    on the rational one, and min(#points, #monomials) is an upper bound, so
    when the two meet the rank is exact; otherwise the exact pass over Z
    decides.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    top = min(k, len(points) - 1)
    if char is not None:
        return points_profile(points, top, char)[top]
    full = min(len(points), binomial(k + points.nvars - 1, points.nvars - 1))
    modular = points_profile(points, top, CERTIFY_PRIME)[top]
    return modular if modular == full else points_profile(points, top)[top]


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

    @classmethod
    def from_polys(cls, nvars: int, degree: int, polys) -> "IdealPiece":
        ech = Echelon(binomial(degree + nvars - 1, nvars - 1))
        idx = monomial_index(nvars, degree)
        for f in polys:
            if f.nvars != nvars or f.degree != degree:
                raise ValueError("basis polynomial in the wrong graded component")
            ech.add({idx[e]: c for e, c in f.coeffs.items()})
        return cls(nvars, degree, ech)

    @classmethod
    def from_vectors(cls, nvars: int, degree: int, vectors) -> "IdealPiece":
        ech = Echelon(binomial(degree + nvars - 1, nvars - 1))
        for v in vectors:
            ech.add(v)
        return cls(nvars, degree, ech)

    @classmethod
    def zero_piece(cls, nvars: int, degree: int) -> "IdealPiece":
        return cls(nvars, degree, Echelon(binomial(degree + nvars - 1, nvars - 1)))

    @classmethod
    def full(cls, nvars: int, degree: int) -> "IdealPiece":
        ncols = binomial(degree + nvars - 1, nvars - 1)
        ech = Echelon(ncols)
        for i in range(ncols):
            ech.add({i: 1})
        return cls(nvars, degree, ech)

    def basis_polys(self) -> list[GradedPoly]:
        basis = monomial_basis(self.nvars, self.degree)
        out = []
        for _, row in sorted(self.echelon.rows.items()):
            out.append(GradedPoly(self.nvars, self.degree, {basis[c]: v for c, v in row.items()}))
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
    if any(g.nvars != nvars for g in generators):
        raise ValueError("generators live in different rings")
    if any(g.degree > k for g in generators):
        raise ValueError("generator degree exceeds the requested piece degree")
    ech = Echelon(binomial(k + nvars - 1, nvars - 1))
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


def point_ideal_piece(points: PointSet, k: int) -> IdealPiece:
    """Degree-k piece of the ideal of a point set (evaluation-matrix kernel).

    With ``restrict_to_hyperplane`` this is the independent oracle that the
    tests check ``restricted_point_pieces`` against.
    """
    cols = _evaluation_columns(points.points, points.nvars, k)
    # one row per point, columns indexed by monomials
    ech = Echelon(len(cols))
    for i in range(len(points)):
        ech.add({j: cols[j][i] for j in range(len(cols)) if cols[j][i]})
    return IdealPiece.from_vectors(points.nvars, k, ech.kernel_of_rows())


# ---------------------------------------------------------------------------
# hyperplane restriction


_HYPERPLANE_TRIES = 32


def draw_missing_hyperplane(points: PointSet, seed: int, char: int | None = None) -> GradedPoly:
    """Seeded linear form with coefficients in [1, 997] avoiding every point,
    and every point mod char when a characteristic is given."""
    rng = random.Random(seed)
    for _ in range(_HYPERPLANE_TRIES):
        ell = GradedPoly.linear_form([rng.randint(1, 997) for _ in range(points.nvars)])
        values = (ell.evaluate(rep) for rep in points.points)
        if all(v % char if char else v for v in values):
            return ell
    if char:
        raise BadReductionError(
            f"bad reduction mod {char}: none of {_HYPERPLANE_TRIES} drawn hyperplanes "
            f"misses every point mod {char}"
        )
    raise NonGenericHyperplaneError("no hyperplane missing all points after retries")


def reduce_point(rep, p: int) -> tuple[int, ...]:
    """The class mod p of a primitive integer representative, normalized at
    its first nonzero residue (coprime entries never all vanish mod p)."""
    red = [c % p for c in rep]
    inv = pow(next(c for c in red if c), -1, p)
    return tuple(c * inv % p for c in red)


def check_reduction(points: PointSet, p: int) -> None:
    """Raise BadReductionError when two points coincide mod p.

    Distinct points mod p are what the F_p ranks of a point set need to
    stand for the set at all.
    """
    seen = {}
    for rep in points.points:
        key = reduce_point(rep, p)
        if key in seen:
            first, second = map(format_point, (seen[key], rep))
            raise BadReductionError(
                f"bad reduction mod {p}: the points {first} and {second} coincide mod {p}"
            )
        seen[key] = rep


def difference_profile(h_I: HilbertProfile, points: PointSet, ell: GradedPoly) -> HilbertProfile:
    """Profile of the hyperplane restriction: h(k) = h_I(k) - h_I(k-1).

    Valid exactly when no point lies on the hyperplane, which makes
    multiplication by the linear form injective on the coordinate ring.
    """
    if ell.degree != 1 or ell.is_zero:
        raise ValueError("need a nonzero linear form")
    for p in points:
        if not ell.evaluate(p):
            raise NonGenericHyperplaneError(f"hyperplane contains the point {format_point(p)}")
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
    coeffs = [Fraction(0)] * n
    for exp, c in ell.coeffs.items():
        coeffs[exp.index(1)] = c
    j = max(i for i, c in enumerate(coeffs) if c)
    last = n - 1
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        if i == j:
            continue
        target = j if i == last else i
        rows[i][target] = Fraction(1)
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
        polys = [f for f in polys if not f.is_zero]
        out.append(IdealPiece.from_polys(piece.nvars - 1, piece.degree, polys))
    return out


class _Restriction:
    """The dual data that the pieces 0..top of a point ideal's hyperplane
    restriction I_H share, every matrix indexed by the points.

    The coordinate change of ``restrict_to_hyperplane`` swaps x_j, the last
    variable with a nonzero coefficient in ell, with the last variable and
    makes ell the last coordinate.  The small coordinates q'_i of a point
    are the others, taken at its primitive representative p_i.  A point
    functional sum_i psi_i ev_{p_i} on S_e vanishes on I_e, and on
    ell * S_{e-1} exactly when psi * ell(p) is orthogonal to the
    degree-(e-1) evaluation columns at the p_i.  Those functionals are the
    dual of S_e / (I, ell)_e, which the change turns into the dual of
    S'_e / (I_H)_e, with ev_{p_i} becoming ev_{q'_i}.  So (I_H)_e is the
    common kernel of point functionals at the q'_i, and its codim is
    h_I(e) - h_I(e-1) (``difference_profile`` of the profile pass at the
    p_i).  Every kernel here comes from ``IntForwardEchelon.kernel``, the
    one at degree top - 1 from the profile pass's own echelon.
    """

    def __init__(self, points: PointSet, ell: GradedPoly, top: int):
        reps = points.points
        self.top = top
        self.columns = _ColumnBases(reps, top, top - 1 if top else None)
        self.codims = difference_profile(HilbertProfile(tuple(self.columns.h)), points, ell)
        # ell(p_i) and 1 / ell(p_i) as ints, each up to one common factor
        self.ells = _scaled_to_integers(ell.evaluate(rep) for rep in reps)[0]
        lcm = math.lcm(*self.ells)
        self.inverse_ells = [lcm // v for v in self.ells]
        self.nvars = points.nvars - 1
        j = max(exp.index(1) for exp in ell.coeffs)
        order = [self.nvars if v == j else v for v in range(self.nvars)]
        self.small = tuple(tuple(rep[v] for v in order) for rep in reps)

    def dual_weights(self, e: int) -> list[tuple[int, ...]]:
        """A basis of the weights whose functionals span the dual of
        (I_H)_e: chi / ell(p) for chi in the integer kernel of the
        degree-(e-1) columns (none at e = 0), each as a primitive integer
        vector."""
        if e and e == self.top:
            kernel = self.columns.kernel
        else:
            ech = IntForwardEchelon(len(self.small))
            for col in self.columns.degree(e - 1) if e else []:
                ech.add(col)
            kernel = ech.kernel()
        return [primitive_point(map(operator.mul, chi, self.inverse_ells)) for chi in kernel]

    def kernel_echelon(self, e: int) -> Echelon:
        """(I_H)_e over the monomial basis: the forms every dual weight kills."""
        cols = _evaluation_columns(self.small, self.nvars, e)
        cond = Echelon(len(cols))
        for psi in self.dual_weights(e):
            cond.add({m: v for m, v in enumerate(_dot(psi, col) for col in cols) if v})
        return IdealPiece.from_vectors(self.nvars, e, cond.kernel_of_rows()).echelon

    def socle_functional(self, e: int) -> "Functional":
        """The functional vanishing on (I_H)_e, for e >= 1 and codim 1, at the
        points: the dual weight scaled to 1 at the last monomial where its
        functional is nonzero."""
        basis = monomial_basis(self.nvars, e)
        for weights in self.dual_weights(e):
            # one monomial at a time, not ``values_at`` over the basis: the
            # scan stops at the first nonzero value, which on the grid chains
            # (plane d = 8 and 20, double solid d = 5 and 6) is the first
            # monomial it reads, so whole columns would only add work
            for m in reversed(basis):
                value = _dot(weights, (math.prod(map(pow, q, m)) for q in self.small))
                if value:
                    return Functional.at_points(self.nvars, e, self.small,
                                                [Fraction(w, value) for w in weights])
        raise ValueError("piece spans everything; no nonzero functional vanishes on it")


class RestrictedPiece(IdealPiece):
    """Degree-e piece of a point ideal's hyperplane restriction, held by its
    dual: the point weights of a shared ``_Restriction``.  Its codim comes
    from the point-set profile; its kernel over the monomial basis is built
    only when ``echelon`` is read (``basis_polys``, ``contains``, ``==``,
    ``base_locus_dimension``, ``lemdims_check``).
    """

    # ``echelon`` is a lazy property here, in place of IdealPiece's slot
    __slots__ = ("restriction", "_echelon")

    def __init__(self, restriction: _Restriction, degree: int):
        self.nvars = restriction.nvars
        self.degree = degree
        self.restriction = restriction
        self._echelon = None

    @property
    def echelon(self) -> Echelon:
        if self._echelon is None:
            self._echelon = self.restriction.kernel_echelon(self.degree)
        return self._echelon

    @property
    def codim(self) -> int:
        return self.restriction.codims[self.degree]

    @property
    def dim(self) -> int:
        return binomial(self.degree + self.nvars - 1, self.nvars - 1) - self.codim


def restricted_point_pieces(points: PointSet, ell: GradedPoly, up_to: int) -> list[IdealPiece]:
    """Degree pieces 0..up_to of the point ideal's hyperplane restriction.

    Each piece is held by its dual, point weights (see ``_Restriction``), so
    only point-indexed matrices appear, and this stays cheap even when the
    ambient degree pieces are huge.  ``restrict_to_hyperplane`` applied to
    ``point_ideal_piece`` is the independent oracle of the tests.
    """
    restriction = _Restriction(points, ell, up_to)
    return [RestrictedPiece(restriction, e) for e in range(up_to + 1)]


# ---------------------------------------------------------------------------
# Gorenstein ancestor (apolar) ideals


class Functional:
    """Linear functional on the degree-N graded piece.

    It is given by dual coefficients phi(m) on the monomials, or by weights
    at points, phi = sum_i w_i ev_{points_i}.  A functional at points
    computes its coefficients only when they are read, and the apolarity
    lemma (Iarrobino-Kanev 1999, Lemma 1.15) runs its ranks and kill checks
    on point-indexed matrices.
    """

    __slots__ = ("nvars", "degree", "points", "weights", "_coeffs", "_columns", "_kills")

    def __init__(self, nvars: int, degree: int, coeffs):
        self.nvars = nvars
        self.degree = degree
        clean = {}
        for exp, c in coeffs.items():
            exp = tuple(exp)
            if sum(exp) != degree or len(exp) != nvars:
                raise ValueError("functional coefficient at a wrong monomial")
            if c:
                clean[exp] = c if isinstance(c, Fraction) else Fraction(c)
        self._coeffs = clean
        self.points = self.weights = self._columns = self._kills = None

    @classmethod
    def at_points(cls, nvars: int, degree: int, points, weights) -> "Functional":
        """sum_i weights[i] * ev_{points[i]}, at integer points: the
        functional is not scale-invariant, so a rational point is refused."""
        given = tuple(map(tuple, points))
        points = tuple(tuple(map(int, p)) for p in given)
        if points != given:
            raise ValueError("points of a functional must have integer coordinates")
        weights = tuple(Fraction(w) for w in weights)
        if len(points) != len(weights) or any(len(p) != nvars for p in points):
            raise ValueError("need one weight per point of the ring's dimension")
        phi = cls(nvars, degree, {})
        phi.points, phi.weights, phi._coeffs = points, weights, None
        return phi

    @property
    def coeffs(self) -> dict:
        if self._coeffs is None:
            ints, denom = _scaled_to_integers(self.weights)
            columns = _evaluation_columns(self.points, self.nvars, self.degree)
            values = (Fraction(_dot(ints, col), denom) for col in columns)
            self._coeffs = {
                m: v for m, v in zip(monomial_basis(self.nvars, self.degree), values) if v
            }
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def of(self, f: GradedPoly):
        if f.nvars != self.nvars or f.degree != self.degree:
            raise ValueError("functional applied outside its graded piece")
        acc = Fraction(0)
        for exp, c in f.coeffs.items():
            phi = self.coeffs.get(exp)
            if phi is not None:
                acc = acc + phi * c
        return acc

    def _point_columns(self) -> _ColumnBases:
        """Column bases of the evaluation matrices at the points, degrees 0..N."""
        if self._columns is None:
            self._columns = _ColumnBases(self.points, self.degree)
        return self._columns


def socle_functional(piece: IdealPiece) -> Functional:
    """First dual basis vector vanishing on the piece, in the monomial order.

    For a restricted piece of codim 1 this is the unique functional that
    vanishes on it, normalised to 1 at the last monomial where it is
    nonzero; it is computed at the points, without the piece's kernel.
    """
    if isinstance(piece, RestrictedPiece) and piece.codim == 1 and piece.degree:
        phi = piece.restriction.socle_functional(piece.degree)
        _kills_at_points(phi, piece)  # its verdict caps the ancestor ranks
        return phi
    kernel = piece.echelon.kernel_of_rows()
    if not kernel:
        raise ValueError("piece spans everything; no nonzero functional vanishes on it")
    basis = monomial_basis(piece.nvars, piece.degree)
    return Functional(piece.nvars, piece.degree, {basis[c]: v for c, v in kernel[0].items()})


def _catalecticant_rows(phi: Functional, e: int):
    """Yield the rows of Cat_e(phi), 0 <= e <= N, as sparse dicts: one row
    per monomial m of degree N - e, over the degree-e monomial basis, with
    phi(g * m) at g."""
    coeffs = phi.coeffs
    basis_e = monomial_basis(phi.nvars, e)
    for mono in monomial_basis(phi.nvars, phi.degree - e):
        products = (coeffs.get(tuple(map(operator.add, g, mono))) for g in basis_e)
        yield {j: c for j, c in enumerate(products) if c}


def _catalecticant(phi: Functional, e: int) -> Echelon:
    """The row space of Cat_e(phi), in reduced echelon form."""
    ech = Echelon(binomial(e + phi.nvars - 1, phi.nvars - 1))
    for row in _catalecticant_rows(phi, e):
        ech.add(row)
    return ech


def gorenstein_ancestor(phi: Functional, e: int) -> IdealPiece:
    """Degree-e piece of the largest ideal whose degree-N products the
    functional kills: the kernel of the catalecticant g |-> (m |-> phi(g*m)).

    It works over the monomial basis, and is the oracle the tests check
    ``ancestor_profile`` and ``functional_kills_products`` against.
    """
    if phi.is_zero:
        raise ValueError("functional must be nonzero")
    if e < 0:
        raise ValueError("degree must be nonnegative")
    if e > phi.degree:
        return IdealPiece.full(phi.nvars, e)
    return IdealPiece.from_vectors(phi.nvars, e, _catalecticant(phi, e).kernel_of_rows())


def _catalecticant_rank(phi: Functional, e: int, cap: int, char: int | None) -> int:
    """Rank of S_{N-e}^T diag(w) S_e over Z or F_char, adding rows only until
    it reaches ``cap``."""
    columns = phi._point_columns()
    w = [x % char if char else x for x in _scaled_to_integers(phi.weights)[0]]
    right = list(columns.degree(e, char))
    ech = IntForwardEchelon(len(right), char)
    for a in columns.degree(phi.degree - e, char):
        if ech.dim == cap:
            break
        wa = [x * y for x, y in zip(w, a)]
        ech.add([_dot(wa, b) for b in right])
    return ech.dim


def _ancestor_profile_at_points(phi: Functional) -> HilbertProfile:
    """Apolarity: Cat_e(phi) = E_{N-e}^T diag(w) E_e for the evaluation
    matrices E at the points, so its rank is that of S_{N-e}^T diag(w) S_e
    on column bases S.  Cat_{N-e} is its transpose, of the same rank.  Each
    rank is capped by the matrix size and, once phi has passed the kill
    check at a restriction, by codim (I_H)_e and codim (I_H)_{N-e}; a rank
    mod CERTIFY_PRIME that meets its cap is exact, any other is rerun over Z.
    """
    N = phi.degree
    restriction, certified = phi._kills or (None, False)
    vals = [0] * (N + 1)
    for e in range(N // 2 + 1):
        cap = phi._point_columns().h[e]
        if certified:
            cap = min([cap] + [restriction.codims[k] for k in (e, N - e) if k <= restriction.top])
        rank = _catalecticant_rank(phi, e, cap, CERTIFY_PRIME)
        if rank < cap:
            rank = _catalecticant_rank(phi, e, cap, None)
        vals[e] = vals[N - e] = rank
    if not vals[0]:
        raise ValueError("functional must be nonzero")
    return HilbertProfile(tuple(vals))


def ancestor_profile(phi: Functional) -> HilbertProfile:
    """h(0..N) of the quotient by the ancestor ideal: ranks of the
    catalecticants, on point-indexed matrices for a functional at points,
    else over the monomial basis."""
    if phi.points is not None:
        return _ancestor_profile_at_points(phi)
    if phi.is_zero:
        raise ValueError("functional must be nonzero")
    return HilbertProfile(tuple(_catalecticant(phi, e).dim for e in range(phi.degree + 1)))


def _kills_at_points(phi: Functional, piece: RestrictedPiece) -> bool:
    """A sufficient test that phi kills (I_H)_e * S_{N-e}, for phi at the
    restriction's points.

    Those products lie in (I_H)_N, so one test serves every e >= 1: phi
    vanishes on (I_H)_N when its weights w are dual weights there, i.e. when
    w * ell(p) is orthogonal to the degree-(N-1) columns at the p_i, which is
    checked exactly, once per restriction, and memoised on phi.  That implies
    the test at e, w * ell(p) * m(q') orthogonal to the degree-(e-1) columns
    for m of degree N - e: q' is linear in p, so m(q') times such a column
    lies in the degree-(N-1) column space.  The socle functional always
    passes: its chi is orthogonal to every degree-(N-1) column.  The test
    fails, and the monomial path decides, when the restriction has no
    degree-(N-1) columns.
    """
    restriction = piece.restriction
    if not piece.degree:
        return True
    if phi._kills is None or phi._kills[0] is not restriction:
        N = phi.degree
        passes = phi.points == restriction.small and N <= restriction.top + 1
        if passes:
            omega = [x * v for x, v in zip(_scaled_to_integers(phi.weights)[0], restriction.ells)]
            passes = not any(_dot(omega, u) for u in restriction.columns.degree(N - 1))
        phi._kills = (restriction, passes)
    return phi._kills[1]


def functional_kills_products(phi: Functional, piece: IdealPiece) -> bool:
    """True when phi vanishes on piece * S_{N - e}, the degree-by-degree
    membership test for the ancestor ideal: at the points for a functional
    at a restricted piece's points when that test passes, else by pairing
    each row of Cat_e(phi), phi(- * m), with each form of the piece's basis,
    which stops at the first nonzero pairing.  A zero functional kills
    everything."""
    e = piece.degree
    if e > phi.degree:
        return False
    if isinstance(piece, RestrictedPiece) and _kills_at_points(phi, piece):
        return True
    basis = piece.echelon.rows.values()
    return not any(sum(c * f[j] for j, c in row.items() if j in f)
                   for row in _catalecticant_rows(phi, e) for f in basis)


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


def _multiply_by_variables(ech: Echelon, nvars: int, degree: int) -> Echelon:
    basis = monomial_basis(nvars, degree)
    idx = monomial_index(nvars, degree + 1)
    out = Echelon(binomial(degree + nvars, nvars - 1))
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
    codimension means the locus is empty.  Past the cap, a nonnegative
    degree, the verdict is Inconclusive rather than a guess.
    """
    if piece.dim == 0:
        raise ValueError("piece must be nonzero")
    if degree_cap is not None and degree_cap < 0:
        raise ValueError("degree cap must be nonnegative")
    cap = degree_cap if degree_cap is not None else 4 * piece.degree + 10
    ech = piece.echelon
    k = piece.degree
    h_k = binomial(k + piece.nvars - 1, piece.nvars - 1) - ech.dim
    while True:
        if h_k == 0:
            return BaseLocus.empty()
        if k + 1 > cap:
            return BaseLocus.inconclusive()
        ech = _multiply_by_variables(ech, piece.nvars, k)
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

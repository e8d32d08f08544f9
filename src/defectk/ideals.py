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
* A degree piece of an ideal spanned by forms is a subspace of the
  degree-k coefficient space, held as a forward echelon over the fixed
  monomial order; pieces are equal when they have one dimension and one
  contains the other.  A restricted piece is held by its dual (below).
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
  The pass picks its own chart, a coordinate nonzero at every point (mod p
  over F_p), and runs one echelon through every degree there, the affine
  pass, or one echelon per degree without such a chart (see
  ``_profile_pass``).  Its ranks are exact (integers, or F_p) on plain
  ints; only a pass over Z rescales its echelon or gives a kernel.
* ``points_hilbert`` reads h(k) from that pass at min(k, #points - 1).
  Over Q it first runs the pass mod CERTIFY_PRIME: a rank that reaches
  min(#points, #monomials) is certified exact, because a modular rank
  never exceeds the rational one; any other falls back to the pass over Z.
* The Gorenstein chain (restricted pieces, socle functional, ancestor
  profile, kill checks) runs on matrices indexed by the points, in one
  ring: ell = 0 solved for ``_solved_variable``, the nodes' chart
  coordinate when ell's coefficient there is nonzero, else the last
  variable with a nonzero coefficient, and the small points q'_i are the
  nodes with that coordinate dropped.  On the double solid they are
  (a, b, 0), whose bases collapse to binary forms.  The dual of a
  restricted piece (I_H)_e is spanned by point-evaluation functionals, and
  its codim is h_I(e) - h_I(e-1) from the profile pass, which keeps a copy
  of its own degree-(N-1) echelon; the socle functional's weights come
  from that copy's kernel, taken only when the functional is asked for.
  That functional is in the point form of ``Functional`` at the q'_i, and
  by the apolarity lemma (Iarrobino-Kanev 1999, Lemma 1.15) its
  catalecticant is E_{N-e}^T diag(w) E_e / D for the evaluation matrices E
  at the q'_i, so every rank and kernel has the size of the point set, and
  runs on ``IntForwardEchelon``.  The socle functional records the
  restriction it was built from.  It vanishes on (I_H)_N by construction,
  and (I_H)_e * S_{N-e} lies in (I_H)_N, so it kills every piece's
  products there: Ann(phi) contains I_H, and rank Cat_e <= codim (I_H)_e.
  Each ancestor rank is taken mod CERTIFY_PRIME, with packed products, on
  the vectors a profile pass at the q'_i stored, and kept when it meets
  that cap; only a rank short of it builds those bases over Z and reruns.
  The chain takes nothing else: ``socle_functional`` refuses every piece
  but the top restricted one, of codim 1, and ``functional_kills_products``
  every piece but one of the functional's own restriction.  The monomial
  side lives in ``oracles``, the references the tests check the chain
  against: the restricted pieces over the monomial basis, for a solved
  variable they are given, and the monomial catalecticant, its kernel and
  its pairing with a piece's basis.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Echelon, IntForwardEchelon, SlotPacking
from .macaulay import binomial, expand, upper_growth
from .polynomials import GradedPoly, json_number, monomial_basis, monomial_index, values_at


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


def _scaled_to_integers(values) -> tuple[int, ...]:
    """Ints or rationals times the lcm of their denominators; plain ints as
    they are."""
    values = tuple(values)
    if all(type(v) is int for v in values):
        return values
    denom = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (denom // v.denominator) for v in values)


def primitive_point(coords) -> tuple[int, ...]:
    """Integer representative of a point given by ints or rationals: coprime
    entries, the first nonzero one positive."""
    ints = _scaled_to_integers(coords)
    g = math.gcd(*ints)
    if not g:
        raise ValueError("zero vector is not a projective point")
    if next(x for x in ints if x) < 0:
        g = -g
    return ints if g == 1 else tuple(x // g for x in ints)


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
            pairs = [[(operator.index(json_number(num)), operator.index(json_number(den)))
                      for num, den in p] for p in data]
            if any(den == 0 for p in pairs for _, den in p):
                raise ZeroDivisionError("zero denominator")
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(
                f"points must be lists of [numerator, denominator] pairs: {exc}"
            ) from exc
        # primitive_point clears the denominators; a whole number stays an int
        return cls([[num if den == 1 else Fraction(num, den) for num, den in p] for p in pairs])


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


def _profile_pass(reps, up_to: int, char: int | None = None):
    """Yield (echelon, stored) of each degree 0..up_to for the integer
    vectors ``reps``; ``stored`` maps each standard monomial new in the
    degree to the (pivot, tail) the echelon stored for it, {} when the
    degree stored nothing.

    The pass runs in the chart of x_j, j = ``_chart(reps, char)``.
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
    the vector the echelon stored when it picked b: a nonzero multiple of
    col(b) plus columns of standard monomials s before b, whichever rows
    its insertion hit.  The order is multiplicative, so every x_v * s comes
    before x_v * b, and its column is in the span by the time x_v * b is
    offered (in a chart the earlier degrees come first, as x_j times the
    previous span).  So the offer and the column differ by a vector of the
    span: every pick, rank, pivot and kernel is that of the columns, only
    the stored vectors differ.  The offer goes in as u_b's tail times the
    x_v column (taken once per pass) from u_b's pivot on.  Offers stop once
    a degree adds nothing or the rank reaches #points, as it then stays put.
    """
    if up_to < 0:
        return
    n, nvars, j = len(reps), len(reps[0]), _chart(reps, char)
    if j is not None and char is not None:
        units = [pow(rep[j], -1, char) for rep in reps]
        reps = [[x * u % char for x in rep] for rep, u in zip(reps, units)]
    others = [v for v in range(nvars) if v != j]
    columns = [list(column) for column in zip(*reps)]
    ech = IntForwardEchelon(n, char)
    stored = {(0,) * nvars: ech.add([1] * n)}
    yield ech, stored
    for _ in range(up_to):
        parents, stored = stored, {}
        if parents and ech.dim < n:
            if j is None:
                ech = IntForwardEchelon(n, char)
            elif char is None and set(columns[j]) != {1}:
                ech.scale_columns(columns[j])
            for m, (b, v) in _offers(parents, others):
                pivot, u = parents[b]
                vector = ech.add(list(map(operator.mul, u, columns[v][pivot:])), pivot)
                if vector:
                    stored[m] = vector
                    if ech.dim == n:
                        break
        yield ech, stored


class _ColumnBases:
    """Bases of the column spaces of the evaluation matrices E_k at integer
    vectors, k = 0..up_to, over Z or F_char, for the point path of
    ``ancestor_profile``: the tails the profile pass stored, kept once.
    The vectors (a restriction's small points) may repeat, and one may be
    0; without a chart a degree k >= 1 then still stores vectors unless all
    are 0, which takes a single node, of socle degree 0.

    In the chart of x_j the degree-k basis is x_j^(k-b) times each vector
    stored in degree b <= k, as the pass rescales its echelon over Z; over
    F_char the pass runs on rep * rep[j]^-1, so the factor is 1 and the
    bases are those of diag(rep[j])^-k E_k, with ``chart`` the rep[j].
    Without a chart (``chart`` None) the basis is the last degree <= k that
    stored vectors: its whole echelon, of rank #points once nothing is new.
    """

    def __init__(self, reps, up_to: int, char: int | None):
        j = _chart(reps, char)  # the pass's own chart
        passes = [stored.values() for _, stored in _profile_pass(reps, up_to, char)]
        # (pivot, degree stored in, vector), in pivot order
        self._vectors = sorted((pivot, b, u) for b, stored in enumerate(passes)
                               for pivot, u in stored)
        self.chart = None if j is None else [rep[j] for rep in reps]
        self._char = char
        self._scales = self.chart if char is None else None

    def degree(self, k: int):
        """Yield the basis of degree k, in pivot order, zero-padded."""
        last = max(b for _, b, _ in self._vectors if b <= k)
        powers = functools.cache(lambda t: [s**t for s in self._scales])
        for pivot, b, u in self._vectors:
            if b == last or self.chart and b < last:
                if self._scales:
                    u = list(map(operator.mul, u, powers(k - b)[pivot:]))
                yield [0] * pivot + u

    def packed(self, top: int, weights):
        """Over F_char, yield the ``_packed_columns`` of each degree's basis,
        k = 0..top, packing each vector once: in the order of the degree it
        was stored in, a basis is one run of slots (from the first vector in
        a chart, from the last degree <= k that stored without one), which a
        shift and a mask cut out."""
        order = sorted((b, pivot, u) for pivot, b, u in self._vectors if b <= top)
        degrees = [b for b, _, _ in order]
        whole, columns = _packed_columns([[0] * p + u for _, p, u in order], weights, self._char)
        for k in range(top + 1):
            end = bisect.bisect_right(degrees, k)
            start = 0 if self.chart else bisect.bisect_left(degrees, degrees[end - 1])
            packing = SlotPacking(end - start, whole.bound, self._char)
            shift, mask = whole.width * start, (1 << whole.width * (end - start)) - 1
            yield packing, [x >> shift & mask for x in columns]


def points_profile(points: PointSet, up_to: int, char: int | None = None) -> HilbertProfile:
    """h(0..up_to) for the ideal of the point set, in one order-ideal pass:
    one nested echelon in a chart, or one echelon per degree without one."""
    passes = _profile_pass(points.points, up_to, char)
    return HilbertProfile(tuple(ech.dim for ech, _ in passes))


# The prime of the modular ranks that certify over Q (``points_hilbert``,
# ``ancestor_profile``): 2^25 - 39, the largest prime below 2^25, so that
# p + n (p - 1)^2, the bound of an echelon over n points, and n (p - 1)^2,
# that of a packed product, stay below 2^64 up to n = 16,384 points, above
# ``scenarios.NODE_BUDGET``: every slot is one 8-byte word.
CERTIFY_PRIME = 33_554_393


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
    """Degree-k piece of a homogeneous ideal, held as a forward echelon."""

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

    def basis_polys(self) -> list[GradedPoly]:
        """The echelon's rows as forms, in the order it stores them."""
        basis = monomial_basis(self.nvars, self.degree)
        return [GradedPoly._unchecked(self.nvars, self.degree,
                                      {basis[c]: v for c, v in row.items()})
                for row in self.echelon.rows.values()]

    def contains(self, other: "IdealPiece") -> bool:
        if (self.nvars, self.degree) != (other.nvars, other.degree):
            raise ValueError("pieces live in different graded components")
        return all(self.echelon.contains(dict(row)) for row in other.echelon.rows.values())

    def __eq__(self, other):
        return (
            isinstance(other, IdealPiece)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.dim == other.dim
            and self.contains(other)
        )


def generated_piece(generators, k: int) -> IdealPiece:
    """Degree-k piece of the ideal generated by homogeneous forms: the one
    builder of pieces spanned by forms.  The rows x^a * g go in by
    descending smallest column, so a row whose smallest column is new is
    stored as it is; zero forms add nothing but fix the ring."""
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    nvars = generators[0].nvars
    if any(g.nvars != nvars for g in generators):
        raise ValueError("generators live in different rings")
    if any(g.degree > k for g in generators):
        raise ValueError("generator degree exceeds the requested piece degree")
    idx = monomial_index(nvars, k)
    rows = [{idx[tuple(map(operator.add, exp, mono))]: c for exp, c in g.coeffs.items()}
            for g in generators if not g.is_zero for mono in monomial_basis(nvars, k - g.degree)]
    rows.sort(key=min, reverse=True)
    ech = Echelon(len(idx))
    for row in rows:
        ech.add(row)
    return IdealPiece(nvars, k, ech)


# ---------------------------------------------------------------------------
# hyperplane restriction


_HYPERPLANE_TRIES = 32


def draw_missing_hyperplane(points: PointSet, seed: int, char: int | None = None) -> GradedPoly:
    """Seeded linear form with coefficients in [1, 997] avoiding every point,
    and every point mod char when a characteristic is given."""
    rng = random.Random(seed)
    for _ in range(_HYPERPLANE_TRIES):
        ell = GradedPoly.linear_form([rng.randint(1, 997) for _ in range(points.nvars)])
        values = values_at([ell], points.points)[0]
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
    if ell.nvars != points.nvars:
        raise ValueError("hyperplane and points live in different spaces")
    for p, v in zip(points, values_at([ell], points.points)[0]):
        if not v:
            raise NonGenericHyperplaneError(f"hyperplane contains the point {format_point(p)}")
    vals = [1] if len(h_I) else []
    for k in range(1, len(h_I)):
        step = h_I[k] - h_I[k - 1]
        if step < 0:
            raise ValueError("input profile is not nondecreasing")
        vals.append(step)
    return HilbertProfile(tuple(vals))


def _solved_variable(ell: GradedPoly, reps) -> int:
    """The variable x_j that ell = 0 is solved for at the integer vectors
    ``reps``: their chart coordinate (``_chart``) when ell's coefficient
    there is nonzero, else the last variable with a nonzero coefficient."""
    k = _chart(reps, None)
    if k is not None and any(exp[k] for exp in ell.coeffs):
        return k
    return max(exp.index(1) for exp in ell.coeffs)


class _Restriction:
    """The dual data that the pieces 0..top of a point ideal's hyperplane
    restriction I_H share, every matrix indexed by the points.

    For x_j the ``_solved_variable`` of ell at the points, the small
    coordinates q'_i of a point are the others, in their order, taken at
    its primitive representative p_i: the ring of the hyperplane ell = 0
    solved for x_j.  A point functional sum_i psi_i ev_{p_i} on S_e
    vanishes on I_e, and on ell * S_{e-1} exactly when psi * ell(p) is
    orthogonal to the degree-(e-1) evaluation columns at the p_i.  Those
    functionals are the dual of S_e / (I, ell)_e.  A form of S' read as a
    form in the variables other than x_j lifts S'_e onto S_e / (ell)_e, so
    they are the dual of S'_e / (I_H)_e, with ev_{p_i} becoming ev_{q'_i}.
    So (I_H)_e is the common kernel of point functionals at the q'_i, and
    its codim is h_I(e) - h_I(e-1) (``difference_profile`` of the profile
    pass at the p_i).  In the chart coordinate's lift the double solid's
    q'_i are (a, b, 0), whose bases collapse to binary forms.  The pass
    keeps h and a copy of its own degree-(top - 1) echelon (``lower``),
    whose kernel gives the socle functional's weights when one is asked
    for.  No (I_H)_e is built over the monomial basis;
    ``oracles.restrict_to_hyperplane`` gives those forms.
    """

    def __init__(self, points: PointSet, ell: GradedPoly, top: int):
        reps = points.points
        self.top = top
        self.lower = IntForwardEchelon(len(reps))  # of no columns at top = 0
        h = []
        for k, (ech, _) in enumerate(_profile_pass(reps, top)):
            h.append(ech.dim)
            if k == top - 1:  # before degree top rescales and extends it
                self.lower = ech.copy()
        self.codims = difference_profile(HilbertProfile(tuple(h)), points, ell)
        # 1 / ell(p_i) as ints, up to one common factor
        ells = _scaled_to_integers(ell.evaluate(rep) for rep in reps)
        lcm = math.lcm(*ells)
        self.inverse_ells = [lcm // v for v in ells]
        self.nvars = points.nvars - 1
        j = _solved_variable(ell, reps)
        self.small = tuple(rep[:j] + rep[j + 1 :] for rep in reps)


class RestrictedPiece:
    """Degree-e piece of a point ideal's hyperplane restriction, held only
    by its dual: the point weights of a shared ``_Restriction``, whose
    profile gives its codim."""

    __slots__ = ("restriction", "degree", "nvars")

    def __init__(self, restriction: _Restriction, degree: int):
        self.restriction = restriction
        self.degree = degree
        self.nvars = restriction.nvars

    @property
    def codim(self) -> int:
        return self.restriction.codims[self.degree]


def restricted_point_pieces(points: PointSet, ell: GradedPoly,
                            up_to: int) -> list[RestrictedPiece]:
    """Degree pieces 0..up_to of the point ideal's hyperplane restriction.

    Each piece is held by its dual, point weights (see ``_Restriction``), so
    only point-indexed matrices appear, and this stays cheap even when the
    ambient degree pieces are huge.
    """
    restriction = _Restriction(points, ell, up_to)
    return [RestrictedPiece(restriction, e) for e in range(up_to + 1)]


# ---------------------------------------------------------------------------
# Gorenstein ancestor (apolar) ideals


@dataclass(frozen=True, init=False)
class Functional:
    """The socle functional of the top restricted piece, of codim 1, on the
    degree-N graded piece of the restriction's ring, in its point form: int
    ``weights`` w_i at the restriction's small points q'_i (``points``)
    over one nonzero int ``denominator`` D, phi = sum_i w_i ev_{q'_i} / D.
    Ranks do not change under scaling, so ``ancestor_profile`` reads the
    w_i alone and builds no Fraction, on point-indexed matrices by the
    apolarity lemma (Iarrobino-Kanev 1999, Lemma 1.15).  The chain trusts
    it, so only ``socle_functional`` builds one; the constructor refuses."""

    restriction: _Restriction
    degree: int
    weights: tuple[int, ...]
    denominator: int

    def __init__(self, *args, **kwargs):
        raise TypeError("a Functional is built only by socle_functional")

    @property
    def nvars(self) -> int:
        return self.restriction.nvars

    @property
    def points(self) -> tuple[tuple[int, ...], ...]:
        return self.restriction.small


def socle_functional(piece: RestrictedPiece) -> Functional:
    """The functional vanishing on the top restricted piece, of codim 1, in
    the point form (see ``Functional``): chi / ell(p), for the first chi of
    the kernel of the restriction's degree-(top - 1) echelon whose
    functional is not zero, as a primitive integer vector, over its value
    at the last monomial where that is nonzero.  Any other piece is
    refused."""
    if not (isinstance(piece, RestrictedPiece) and piece.degree == piece.restriction.top
            and piece.codim == 1):
        raise ValueError("a socle functional needs the top restricted piece, of codim 1")
    restriction = piece.restriction
    small, top = restriction.small, restriction.top
    basis = monomial_basis(restriction.nvars, top)
    dead = [v for v in range(restriction.nvars) if not any(q[v] for q in small)]
    for chi in restriction.lower.kernel():
        w = primitive_point(map(operator.mul, chi, restriction.inverse_ells))
        # one monomial at a time, not ``values_at`` over the basis: the
        # scan stops at the first nonzero value, which on the grid chains
        # (plane d = 8, 14 and 20, double solid d = 5, 6, 12, 16 and 30) is
        # the first monomial it reads past those with a coordinate zero at
        # every q'_i, so whole columns would only add work
        for m in reversed(basis):
            if any(m[v] for v in dead):  # zero at every q'_i
                continue
            value = _dot(w, (math.prod(map(pow, q, m)) for q in small))
            if value:
                phi = object.__new__(Functional)  # its constructor refuses
                vars(phi).update(restriction=restriction, degree=top, weights=w,
                                 denominator=value)
                return phi


def _products(left, right, weights):
    """Yield the rows a^T diag(weights) S over Z, a in ``left``, for S the
    list ``right``: one dot product per entry."""
    for a in left:
        wa = list(map(operator.mul, weights, a))
        yield [_dot(wa, b) for b in right]


def _packed_columns(vectors, weights, char: int):
    """(packing, columns) for residue vectors S over F_char: columns[i]
    packs w_i u[i] mod char for u in ``vectors``, one slot each, so that a
    row a^T diag(w) S, for residues a, is sum_i a_i columns[i]
    (``_packed_products``), one big-int multiply-add per point in place of
    one dot product per entry.  A slot of that sum holds at most
    #points (char - 1)^2, the bound that sets the slot width."""
    packing = SlotPacking(len(vectors), len(weights) * (char - 1) ** 2, char)
    return packing, [packing.pack([w * x % char for x in entries])
                     for w, entries in zip(weights, zip(*vectors))]


def _packed_products(left, packing, columns):
    """Yield the rows a^T diag(w) S mod char, a in ``left``, from the
    ``_packed_columns`` of S."""
    for a in left:
        yield packing.unpack(sum(map(operator.mul, a, columns)))


def _catalecticant_rank(rows, ncols: int, cap: int, char: int | None) -> int:
    """Rank over Z or F_char of S_{N-e}^T diag(w) S_e, taking its rows,
    ``ncols`` wide, from the iterator ``rows`` only until the rank reaches
    ``cap``."""
    ech = IntForwardEchelon(ncols, char)
    while ech.dim < cap and (row := next(rows, None)) is not None:
        ech.add(row)
    return ech.dim


def ancestor_profile(phi: Functional) -> HilbertProfile:
    """h(0..N) of the quotient by the ancestor ideal of a socle functional:
    the ranks of its catalecticants, on point-indexed matrices.

    Apolarity: Cat_e(phi) = E_{N-e}^T diag(w) E_e / D (see ``Functional``)
    for the evaluation matrices E at the points, so its rank is that of
    S_{N-e}^T diag(w) S_e on column bases S (Cat_{N-e} is its transpose).
    The points are the functional's own q'_i (``Functional.points``).  Each
    rank is capped by codim (I_H)_e and codim (I_H)_{N-e}, within the
    matrix size: a form of S'_e zero at every q'_i is, read in the other
    variables, zero at every node, so in (I_H)_e.  Rows go in pivot order,
    which on the double solid d=12 chain meets the caps with a fifth of the
    products of degree order.  The ranks run mod CERTIFY_PRIME first, on the
    bases in the points' own chart, so each weight is multiplied by
    rep[j]^N, and with packed products (``_packed_columns``); a modular rank
    that meets its cap is exact, and only when one falls short are bases
    built over Z.
    """
    N, codims = phi.degree, phi.restriction.codims
    points, weights = phi.points, phi.weights
    p = CERTIFY_PRIME
    modular, exact = _ColumnBases(points, N, p), None
    w = [x * pow(s, N, p) % p for x, s in zip(weights, modular.chart or [1] * len(weights))]
    vals = [0] * (N + 1)
    for e, (packing, columns) in enumerate(modular.packed(N // 2, w)):
        cap = min(codims[e], codims[N - e])
        rows = _packed_products(modular.degree(N - e), packing, columns)
        rank = _catalecticant_rank(rows, packing.count, cap, p)
        if rank < cap:
            exact = exact or _ColumnBases(points, N, None)
            right = list(exact.degree(e))
            rows = _products(exact.degree(N - e), right, weights)
            rank = _catalecticant_rank(rows, len(right), cap, None)
        vals[e] = vals[N - e] = rank
    return HilbertProfile(tuple(vals))


def functional_kills_products(phi: Functional, piece: RestrictedPiece) -> bool:
    """True for every piece of phi's own restriction: phi vanishes on
    piece * S_{N - e}, the ancestor membership test, as (I_H)_e * S_{N-e}
    lies in (I_H)_N, on which it vanishes.  Any other piece is refused."""
    if not (isinstance(piece, RestrictedPiece) and piece.restriction is phi.restriction):
        raise ValueError("a kill check needs a piece of the functional's own restriction")
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


# Monomials of the largest piece a base-locus walk builds by default (cap
# 29 in P^3, 16 in P^4): two cubics in P^3 settle a curve in about a second.
BASE_LOCUS_MONOMIALS = 5_000


def base_locus_dimension(piece: IdealPiece, degree_cap: int | None = None) -> int:
    """Dimension of the common zero locus of the ideal generated by a piece:
    -1 when it is empty, nvars - 1 for the zero piece, which cuts out the
    whole space.

    Walks degrees upward, each generated by the forms of the given piece,
    read once: P * S_{k+1-k0} is the piece generated by the one before.
    Once the codimension attains the maximal-growth bound it stays maximal
    forever (Gotzmann persistence), and the top exponent of the current
    expansion is the dimension.  A zero codimension means the locus is
    empty.  Past the cap, a nonnegative degree, InconclusiveProbeError is
    raised rather than a guess; by default the last degree whose piece has
    at most BASE_LOCUS_MONOMIALS monomials, or the piece's own if later.
    """
    if degree_cap is not None and degree_cap < 0:
        raise ValueError("degree cap must be nonnegative")
    if piece.dim == 0:
        return piece.nvars - 1
    k, h_k, n = piece.degree, piece.codim, piece.nvars
    if h_k == 0:
        return -1
    cap = k if degree_cap is None else degree_cap
    while degree_cap is None and binomial(cap + n, n - 1) <= BASE_LOCUS_MONOMIALS:
        cap += 1  # this stops: a piece of positive dim and codim has n >= 2
    forms = piece.basis_polys()
    while k + 1 <= cap:
        h_next = generated_piece(forms, k + 1).codim
        if h_next == 0:
            return -1
        if h_next == upper_growth(h_k, k):
            return expand(h_k, k)[0]
        h_k = h_next
        k += 1
    raise InconclusiveProbeError(f"no base-locus verdict by degree {cap}")


def lemdims_check(pieces, N: int, n: int):
    """Generator-degree bound for an Artinian Gorenstein quotient.

    d_k is the smallest degree t whose piece has base locus of dimension at
    most k; the sum over k = -1..n-1 is at least N + n + 1.  Returns the
    ascending tuple (d_{n-1}, ..., d_{-1}) and whether the bound holds.
    Each base-locus probe runs up to degree 40, and raises
    InconclusiveProbeError past it.
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
        dims[t] = base_locus_dimension(pieces[t], 40)
        if dims[t] == -1:
            break
    d_values = []
    for k in range(n - 1, -2, -1):
        t_min = next((t for t in sorted(dims) if dims[t] <= k), None)
        # (S/I)_{N+1} = 0 for socle degree N, so the piece there is everything
        d_values.append(t_min if t_min is not None else N + 1)
    total = sum(d_values)
    return tuple(d_values), total >= N + n + 1

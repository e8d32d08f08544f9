"""Independent references that the tests check the product code against.

No command imports this module, and neither does ``import defectk``: each
function here is a second, slower way to compute what a product path
computes, kept only so that the tests can compare the two.

* ``verify_singular`` and ``verify_node`` check ``defect.audit_nodes``
  one point at a time: every first partial vanishes at the point, and the
  affine Hessian at its primitive integer representative, in the chart of
  its first nonzero coordinate, has a nonzero ``linalg.det``.  They
  differentiate and evaluate with ``GradedPoly.evaluate``, no code of
  ``polynomials.values_at``.  ``verify_node`` refuses (ValueError) a point
  that is not singular.
* ``cut_out(nvars, degree, conditions)`` is the piece of the forms of a
  degree that every condition, a sparse row over the monomial basis, kills;
  ``evaluation_columns(points, nvars, degree)`` gives each monomial's
  values at integer points, the conditions of a point ideal.  They build
  ``point_ideal_piece``, ``point_sum`` and ``gorenstein_ancestor``.
* ``point_ideal_piece`` is the degree-k piece of a point set's ideal, the
  kernel of its evaluation matrix over the monomial basis.
  ``restrict_to_hyperplane(pieces, ell, j)`` maps full degree pieces into
  the hyperplane ell = 0 solved for the given x_j, of coefficient c_j
  (refused when it is 0): the small ring in the other variables, in their
  order, where each basis form is substituted x_j -> -sum_{i != j}
  (c_i / c_j) x_i.  Given the ``ideals._solved_variable`` of ell at the
  points, these are the restricted pieces over the monomial basis, which
  the product holds only by their duals, point weights: the tests check
  the product's codims and socle functionals against these.
* ``substitute(f, forms)`` is f(L_0, ..., L_{nvars-1}) for linear forms
  L_i of one ring, zero forms included; the powers of each L_i are
  expanded once.  ``restrict_to_hyperplane`` substitutes with it.
* The monomial side of the Gorenstein chain, plain functions of a
  functional phi on the degree-N piece given by its dual coefficients
  phi(m) on the monomials (``coeffs``, checked as a form's are):
  ``point_sum`` gives those of sum_i w_i ev_{q_i} at integer points;
  ``monomial_socle_functional(piece)`` those of the first kernel vector of
  ``piece.echelon``.  ``gorenstein_ancestor`` is the kernel of the
  catalecticant g |-> (m |-> phi(g * m)), whose codims are
  ``monomial_ancestor_profile``, the check of ``ideals.ancestor_profile``;
  ``monomial_kills_products`` pairs its rows with a piece's basis, and
  ``functional_value(nvars, N, coeffs, f)`` is phi(f), its own check.
  Together they give the answers ``ideals`` refuses: a functional that is
  not a socle functional at points, a piece of another restriction.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .ideals import HilbertProfile, IdealPiece, PointSet, generated_piece, primitive_point
from .linalg import Echelon, det
from .macaulay import binomial
from .polynomials import GradedPoly, monomial_basis, values_at


def verify_singular(f: GradedPoly, point) -> bool:
    return all(f.partial_derivative(i).evaluate(point) == 0 for i in range(f.nvars))


def verify_node(f: GradedPoly, point) -> bool:
    if not verify_singular(f, point):
        raise ValueError("point is not singular on the hypersurface")
    rep = primitive_point(point)
    chart = next(i for i, c in enumerate(rep) if c)
    idxs = [i for i in range(f.nvars) if i != chart]
    return bool(det([[f.partial_derivative(a).partial_derivative(b).evaluate(rep) for b in idxs]
                     for a in idxs]))


def cut_out(nvars: int, degree: int, conditions) -> IdealPiece:
    """The conditions are eliminated over the columns in reverse, so the
    kernel vector of free column c is zero before c and goes into the
    piece's echelon as it is, at pivot c."""
    last = binomial(degree + nvars - 1, nvars - 1) - 1
    cond, ech = Echelon(last + 1), Echelon(last + 1)
    for row in conditions:
        cond.add({last - c: x for c, x in row.items()})
    for vec in cond.kernel_of_rows():
        ech.add({last - c: x for c, x in vec.items()})
    return IdealPiece(nvars, degree, ech)


def evaluation_columns(int_points, nvars: int, degree: int) -> list[list[int]]:
    """Per monomial of the degree in basis order, its values at the points."""
    basis = monomial_basis(nvars, degree)
    return values_at([GradedPoly.monomial(nvars, exp) for exp in basis], int_points)


def point_ideal_piece(points: PointSet, k: int) -> IdealPiece:
    cols = evaluation_columns(points.points, points.nvars, k)
    # one condition per point, columns indexed by monomials
    rows = ({j: col[i] for j, col in enumerate(cols) if col[i]} for i in range(len(points)))
    return cut_out(points.nvars, k, rows)


def restrict_to_hyperplane(pieces, ell: GradedPoly, j: int) -> list[IdealPiece]:
    if ell.degree != 1 or ell.is_zero:
        raise ValueError("need a nonzero linear form")
    n = ell.nvars
    coeffs = {exp.index(1): c for exp, c in ell.coeffs.items()}
    if j not in coeffs:
        raise ValueError(f"ell has no x{j} term to solve for")
    solved = [Fraction(-coeffs.get(i, 0), coeffs[j]) for i in range(n) if i != j]
    images = [GradedPoly.linear_form(solved) if i == j else GradedPoly.variable(n - 1, i - (i > j))
              for i in range(n)]
    out = []
    for piece in pieces:
        if piece.nvars != n:
            raise ValueError("piece and hyperplane live in different rings")
        forms = [substitute(f, images) for f in piece.basis_polys()]
        out.append(generated_piece(forms or [GradedPoly.zero(n - 1, piece.degree)], piece.degree))
    return out


def substitute(f: GradedPoly, forms) -> GradedPoly:
    if len(forms) != f.nvars or any(
        L.degree != 1 or L.nvars != forms[0].nvars for L in forms
    ):
        raise ValueError("need one linear form of one ring per variable")
    m = forms[0].nvars
    one = GradedPoly(m, 0, {(0,) * m: 1})
    powers = [[one] for _ in forms]
    result = GradedPoly.zero(m, f.degree)
    for exp, c in f.coeffs.items():
        term = one
        for L, power, e in zip(forms, powers, exp):
            while len(power) <= e:
                power.append(power[-1] * L)
            term = term * power[e]
        result = result + term.scale(c)
    return result


def point_sum(nvars: int, N: int, points, weights) -> dict:
    """The coefficients of sum_i weights[i] * ev_{points[i]} for rational
    weights, at integer points: it is not scale-invariant, so a rational
    point is refused."""
    given = tuple(map(tuple, points))
    points = tuple(tuple(map(int, p)) for p in given)
    if points != given:
        raise ValueError("points of a functional must have integer coordinates")
    weights = tuple(map(Fraction, weights))
    if len(points) != len(weights) or any(len(p) != nvars for p in points):
        raise ValueError("need one weight per point of the ring's dimension")
    values = (sum(map(operator.mul, weights, col))
              for col in evaluation_columns(points, nvars, N))
    return {m: v for m, v in zip(monomial_basis(nvars, N), values) if v}


def monomial_socle_functional(piece: IdealPiece) -> dict:
    kernel = piece.echelon.kernel_of_rows()
    if not kernel:
        raise ValueError("piece spans everything; no nonzero functional vanishes on it")
    basis = monomial_basis(piece.nvars, piece.degree)
    return {basis[c]: v for c, v in kernel[0].items()}


def _catalecticant_rows(nvars: int, N: int, coeffs: dict, e: int):
    """Yield the rows of Cat_e(phi), e >= 0, as sparse dicts: one row per
    monomial m of degree N - e, over the degree-e monomial basis, with
    phi(g * m) at g.  Past N there is no such monomial, and no row."""
    basis_e = monomial_basis(nvars, e)
    for mono in monomial_basis(nvars, N - e):
        products = (coeffs.get(tuple(map(operator.add, g, mono))) for g in basis_e)
        yield {j: c for j, c in enumerate(products) if c}


def gorenstein_ancestor(nvars: int, N: int, coeffs, e: int) -> IdealPiece:
    coeffs = GradedPoly(nvars, N, coeffs).coeffs
    if not coeffs:
        raise ValueError("functional must be nonzero")
    if e < 0:
        raise ValueError("degree must be nonnegative")
    return cut_out(nvars, e, _catalecticant_rows(nvars, N, coeffs, e))


def monomial_ancestor_profile(nvars: int, N: int, coeffs) -> HilbertProfile:
    return HilbertProfile(tuple(gorenstein_ancestor(nvars, N, coeffs, e).codim
                                for e in range(N + 1)))


def monomial_kills_products(nvars: int, N: int, coeffs, piece: IdealPiece) -> bool:
    """Whether phi kills piece * S_{N - e}: each row of Cat_e(phi) paired
    with each form of the piece's basis, stopping at the first nonzero
    pairing; past N there is no row, and every piece passes."""
    coeffs = GradedPoly(nvars, N, coeffs).coeffs
    if piece.nvars != nvars:
        raise ValueError("functional and piece live in different rings")
    basis = piece.echelon.rows.values()
    return not any(sum(c * f[j] for j, c in row.items() if j in f)
                   for row in _catalecticant_rows(nvars, N, coeffs, piece.degree) for f in basis)


def functional_value(nvars: int, N: int, coeffs, f: GradedPoly):
    coeffs = GradedPoly(nvars, N, coeffs).coeffs
    if f.nvars != nvars or f.degree != N:
        raise ValueError("functional applied outside its graded piece")
    acc = Fraction(0)
    for exp, c in f.coeffs.items():
        coeff = coeffs.get(exp)
        if coeff is not None:
            acc = acc + coeff * c
    return acc

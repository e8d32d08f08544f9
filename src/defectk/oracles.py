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
* ``point_ideal_piece`` is the degree-k piece of a point set's ideal, the
  kernel of its evaluation matrix over the monomial basis.
  ``restrict_to_hyperplane`` maps full degree pieces into the hyperplane
  ell = 0: for x_j the ``ideals._solved_variable`` of ell, of coefficient
  c_j, the hyperplane is the small ring in the other variables, in their
  order, and each basis form is substituted x_j -> -sum_{i != j}
  (c_i / c_j) x_i there.  It reads the solved variable through ``ideals``
  at call time, so one rule places its pieces and those of
  ``ideals.restricted_point_pieces``.  Together they check the restricted
  pieces, which are held by point weights and never build these.
* ``substitute(f, forms)`` is f(L_0, ..., L_{nvars-1}) for linear forms
  L_i of one ring, zero forms included; the powers of each L_i are
  expanded once.  ``restrict_to_hyperplane`` substitutes with it.
* ``functional_value(phi, f)`` is phi(f) from the coefficients of the
  ``ideals.Functional``: the check of the monomial kill test of
  ``ideals.functional_kills_products``.
"""

from __future__ import annotations

from fractions import Fraction

from . import ideals
from .ideals import Functional, IdealPiece, PointSet, generated_piece, primitive_point
from .linalg import det
from .polynomials import GradedPoly


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


def point_ideal_piece(points: PointSet, k: int) -> IdealPiece:
    cols = ideals._evaluation_columns(points.points, points.nvars, k)
    # one condition per point, columns indexed by monomials
    rows = ({j: col[i] for j, col in enumerate(cols) if col[i]} for i in range(len(points)))
    return IdealPiece.cut_out(points.nvars, k, rows)


def restrict_to_hyperplane(pieces, ell: GradedPoly) -> list[IdealPiece]:
    if ell.degree != 1 or ell.is_zero:
        raise ValueError("need a nonzero linear form")
    n, j = ell.nvars, ideals._solved_variable(ell)
    coeffs = {exp.index(1): c for exp, c in ell.coeffs.items()}
    solved = [-coeffs.get(i, 0) / coeffs[j] for i in range(n) if i != j]
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


def functional_value(phi: Functional, f: GradedPoly):
    if f.nvars != phi.nvars or f.degree != phi.degree:
        raise ValueError("functional applied outside its graded piece")
    acc = Fraction(0)
    for exp, c in f.coeffs.items():
        coeff = phi.coeffs.get(exp)
        if coeff is not None:
            acc = acc + coeff * c
    return acc

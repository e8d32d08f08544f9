"""Node verification and defect computation for nodal hypersurfaces and
double solids, with certification replaying the degree-by-degree floor
arguments that force the minimal node counts.

The defect of a declared node scheme is the number of nodes minus the rank
of the evaluation matrix in the critical degree; a positive defect means
the points fail to impose independent conditions exactly there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .ideals import HilbertProfile, PointSet, format_point, points_hilbert, primitive_point
from .linalg import det
from .polynomials import GradedPoly
from .scalars import Fp, as_scalar


class AuditError(ValueError):
    """A declared node failed its singularity or nondegeneracy check."""


def verify_singular(f: GradedPoly, point) -> bool:
    """True when every partial derivative vanishes at the point."""
    return all(f.partial_derivative(i).evaluate(point) == 0 for i in range(f.nvars))


class _IntegerPartials:
    """The first and second partials of f as integer term lists, each taken
    and converted once, for evaluation at integer points.

    Over Q the terms are those of f times the lcm of its denominators, which
    scales every value by one nonzero constant; over F_p they are the
    residues, and values are reduced mod p.  Either way a value is zero
    exactly when the partial of f vanishes at the point.
    """

    def __init__(self, f: GradedPoly):
        self.char = f.char
        self.scale = 1 if f.char else math.lcm(*(c.denominator for c in f.coeffs.values()))
        self.first = [f.partial_derivative(i) for i in range(f.nvars)]
        self.terms = {}

    def value(self, point, *index) -> int:
        """d f / d x_index (one variable index, or two for a second partial)
        at an integer point, up to the scale."""
        terms = self.terms.get(index)
        if terms is None:
            g = self.first[index[0]]
            if len(index) == 2:
                g = g.partial_derivative(index[1])
            terms = self.terms[index] = [
                (c.val if self.char else int(c * self.scale),
                 [(v, e) for v, e in enumerate(exp) if e])
                for exp, c in g.coeffs.items()
            ]
        acc = 0
        for c, factors in terms:
            for v, e in factors:
                c *= point[v] ** e
            acc += c
        return acc % self.char if self.char else acc


def _chart_hessian_det(partials: _IntegerPartials, point):
    """Determinant of the affine Hessian at an integer point, in the chart
    of its first coordinate that is nonzero in the field, up to a nonzero
    constant.  The second partials (a, b) with a <= b come from ``partials``,
    so a caller auditing many points differentiates each pair once."""
    char = partials.char
    chart = next(i for i, c in enumerate(point) if (c % char if char else c))
    idxs = [i for i in range(len(point)) if i != chart]
    values = {}
    for pos, a in enumerate(idxs):
        for b in idxs[pos:]:
            values[a, b] = values[b, a] = partials.value(point, a, b)
    return det([[values[a, b] for b in idxs] for a in idxs], char)


def _hessian_det(f: GradedPoly, point):
    """Determinant of the affine Hessian in the normalization chart, up to a
    nonzero constant: it is taken at an integer representative (over Q) or
    at the residues (over F_p) of the point."""
    if f.char:
        rep = tuple(as_scalar(c, f.char).val for c in point)
    else:
        rep = primitive_point(point)
    return _chart_hessian_det(_IntegerPartials(f), rep)


def verify_node(f: GradedPoly, point, rational_shadow: GradedPoly | None = None) -> bool:
    """A_1 test: nonsingular affine Hessian at a singular point.

    Over a prime field a nonzero determinant certifies the node; a zero
    determinant may be a characteristic artifact, so when a rational lift
    of f is supplied the check is repeated exactly over the rationals.
    """
    if not verify_singular(f, point):
        raise ValueError("point is not singular on the hypersurface")
    d = _hessian_det(f, point)
    if isinstance(d, Fp) and not d and rational_shadow is not None:
        lifted = tuple(c.val if isinstance(c, Fp) else c for c in point)
        return bool(_hessian_det(rational_shadow, lifted))
    return bool(d)


@dataclass(frozen=True)
class NodeAudit:
    point: tuple[int, ...]  # the primitive integer representative
    singular: bool
    hessian_nonzero: bool

    @property
    def is_node(self) -> bool:
        return self.singular and self.hessian_nonzero


def audit_nodes(f: GradedPoly, points: PointSet) -> tuple[NodeAudit, ...]:
    """Verify every declared node; raise AuditError on the first failure.

    The partials of f are taken once for all nodes, as integer term lists
    (``_IntegerPartials``), and evaluated at each node's primitive integer
    representative.  Scaling a point by lambda scales a degree-e form by
    lambda^e there, so a zero stays zero and the chart Hessian determinant
    changes by lambda^((deg-2)(nvars-1)) != 0.
    """
    partials = _IntegerPartials(f)
    records = []
    for rep in points:
        singular = not any(partials.value(rep, i) for i in range(f.nvars))
        hess = bool(_chart_hessian_det(partials, rep)) if singular else False
        records.append(NodeAudit(rep, singular, hess))
    bad = [r for r in records if not r.is_node]
    if bad:
        why = "has a degenerate Hessian" if bad[0].singular else "is not singular"
        raise AuditError(f"{len(bad)} declared node(s) failed the audit, "
                         f"first: {format_point(bad[0].point)} {why}")
    return tuple(records)


@dataclass(frozen=True)
class NodalHypersurface:
    """Hypersurface with a verified list of nodes (A_1 points)."""

    nvars: int
    degree: int
    f: GradedPoly
    nodes: PointSet
    audit: tuple[NodeAudit, ...]

    @classmethod
    def build(cls, f: GradedPoly, nodes: PointSet) -> "NodalHypersurface":
        return cls(f.nvars, f.degree, f, nodes, audit_nodes(f, nodes))


@dataclass(frozen=True)
class DoubleSolid:
    """Double cover of P^3 branched along a degree-2d nodal surface."""

    d: int
    f: GradedPoly  # branch surface equation, degree 2d in 4 variables
    nodes: PointSet
    audit: tuple[NodeAudit, ...]

    @classmethod
    def build(cls, d: int, f: GradedPoly, nodes: PointSet) -> "DoubleSolid":
        if f.nvars != 4 or f.degree != 2 * d:
            raise ValueError("branch surface must have degree 2d in 4 variables")
        return cls(d, f, nodes, audit_nodes(f, nodes))


# ---------------------------------------------------------------------------
# critical degrees


def critical_degree_p4(d: int) -> int:
    """Threefolds in P^4: 2d - 5."""
    if d < 3:
        raise ValueError("degree must be at least 3")
    return 2 * d - 5


def critical_degree_double_solid(d: int) -> int:
    """Double covers of P^3 branched in degree 2d: 3d - 4."""
    if d < 2:
        raise ValueError("d must be at least 2")
    return 3 * d - 4


def critical_degree_highdim(n: int, d: int) -> int:
    """Hypersurfaces in P^{2n+2}: (n+1)d - (2n+3)."""
    if n < 1 or d < 3:
        raise ValueError("need n >= 1 and d >= 3")
    return (n + 1) * d - (2 * n + 3)


# ---------------------------------------------------------------------------
# defect and certification


@dataclass(frozen=True)
class TraceStep:
    degree: int
    floor: int
    actual: int
    rule: str

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "floor": self.floor,
            "actual": self.actual,
            "rule": self.rule,
        }


@dataclass(frozen=True)
class DefectReport:
    node_count: int
    critical_degree: int
    eval_rank: int
    defect: int
    bound_name: str | None = None
    bound_value: int | None = None
    certified: bool | None = None
    trace: tuple[TraceStep, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.defect != self.node_count - self.eval_rank:
            raise ValueError("defect must equal node count minus evaluation rank")
        if self.defect < 0:
            raise ValueError("defect cannot be negative")

    @property
    def meets_bound_with_equality(self) -> bool:
        return self.bound_value is not None and self.node_count == self.bound_value

    def to_dict(self) -> dict:
        return {
            "node_count": self.node_count,
            "critical_degree": self.critical_degree,
            "eval_rank": self.eval_rank,
            "defect": self.defect,
            "bound_name": self.bound_name,
            "bound_value": self.bound_value,
            "certified": self.certified,
            "trace": [s.to_dict() for s in self.trace],
        }


def defect_at(node_count: int, critical_degree: int, eval_rank: int) -> DefectReport:
    """Defect report from an evaluation rank already computed."""
    return DefectReport(
        node_count=node_count,
        critical_degree=critical_degree,
        eval_rank=eval_rank,
        defect=node_count - eval_rank,
    )


def defect(nodes: PointSet, critical_degree: int, char: int | None = None) -> DefectReport:
    """Defect of the declared node scheme at the critical degree."""
    return defect_at(len(nodes), critical_degree, points_hilbert(nodes, critical_degree, char))


def tangent_codim(nodes: PointSet, d: int, char: int | None = None) -> int:
    """The paper's equisingular tangent codimension, ``points_hilbert`` at d;
    kept because the benchmark tracer wraps it by this name."""
    return points_hilbert(nodes, d, char)


def _certify(h_IH, node_count, socle, critical, floors, bound_name, bound_value) -> DefectReport:
    """Check each floor and the bound.  The floors bound the sum of h_IH up
    to the socle, which is the node count only when the nodes impose
    independent conditions there; a sum that differs from the declared
    count fails the certification."""
    if len(h_IH) < socle + 1:
        raise ValueError("restricted profile must reach the socle degree")
    if h_IH[socle] == 0:
        raise ValueError("no defect to certify: restricted profile vanishes at the socle")
    trace = []
    certified = True
    for k in range(socle + 1):
        floor, rule = floors(k)
        if h_IH[k] < floor:
            certified = False
        trace.append(TraceStep(k, floor, h_IH[k], rule))
    total = sum(h_IH[k] for k in range(socle + 1))
    defect_val = h_IH[socle]
    if total < bound_value or total != node_count:
        certified = False
    return DefectReport(
        node_count=total,
        critical_degree=critical,
        eval_rank=total - defect_val,
        defect=defect_val,
        bound_name=bound_name,
        bound_value=bound_value,
        certified=certified,
        trace=tuple(trace),
    )


def certify_min_nodes_p4(d: int, h_IH: HilbertProfile, node_count: int) -> DefectReport:
    """Replay the floor chain for defective threefolds in P^4.

    Degrees k <= d-2 get the duality floor k+1 (Gorenstein symmetry sends
    them to the strict-decrease range); degrees d-2 <= k <= 2d-4 get the
    strict-decrease floor 2d-3-k.  The floors sum to (d-1)^2.
    """
    if d < 3:
        raise ValueError("degree must be at least 3")
    socle = 2 * d - 4

    def floors(k: int):
        if k <= d - 2:
            return k + 1, "duality"
        return 2 * d - 3 - k, "strict-decrease"

    return _certify(
        h_IH, node_count, socle, critical_degree_p4(d), floors, "p4-defect-min-nodes", (d - 1) ** 2
    )


def certify_min_nodes_double_solid(d: int, h_IH: HilbertProfile, node_count: int) -> DefectReport:
    """Replay the floor chain for defective double solids.

    Duality gives k+1 up to d-1, maximal-growth descent gives d on the
    middle range, strict decrease gives 3d-2-k at the top; the floors sum
    to d(2d-1).
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    socle = 3 * d - 3

    def floors(k: int):
        if k <= d - 1:
            return k + 1, "duality"
        if k <= 2 * d - 2:
            return d, "macaulay"
        return 3 * d - 2 - k, "strict-decrease"

    return _certify(
        h_IH,
        node_count,
        socle,
        critical_degree_double_solid(d),
        floors,
        "double-solid-min-nodes",
        d * (2 * d - 1),
    )


# ---------------------------------------------------------------------------
# finite-field sweep for undeclared singular points


# Points of P^{nvars-1}(F_p) a sweep may visit before it is refused.  Each
# point evaluates the first partials of f as integer term lists until one is
# nonzero: 2 to 7 microseconds for the plane family d = 3..8 at p = 11 on a
# 2-vCPU Xeon, so a sweep at the budget takes about a second.
SWEEP_BUDGET = 200_000


def check_sweep_budget(nvars: int, p: int) -> None:
    """Refuse (ValueError) a sweep of P^{nvars-1}(F_p) over SWEEP_BUDGET points."""
    size = (p**nvars - 1) // (p - 1)
    if size > SWEEP_BUDGET:
        raise ValueError(
            f"sweep of P^{nvars - 1}(F_{p}) visits {size} points, over the budget {SWEEP_BUDGET}"
        )


def sweep_singular_points(f: GradedPoly, p: int = 11) -> list[tuple[int, ...]]:
    """All F_p-rational singular points of the reduction of f mod p.

    Probe only: finds undeclared singular points over the prime field; a
    clean sweep is evidence, not proof, of node-only singularities.  The
    first partials are integer term lists of residues (``_IntegerPartials``),
    evaluated at each point's residues.
    """
    n = f.nvars
    check_sweep_budget(n, p)
    partials = _IntegerPartials(f.reduce_mod(p) if f.char is None else f)
    found = []
    for pivot in range(n):
        tail = n - pivot - 1
        for code in range(p**tail):
            coords = [0] * pivot + [1]
            rest = code
            for _ in range(tail):
                coords.append(rest % p)
                rest //= p
            if not any(partials.value(coords, i) for i in range(n)):
                found.append(tuple(coords))
    return found

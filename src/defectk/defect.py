"""Node verification and defect computation for nodal hypersurfaces and
double solids, with certification replaying the degree-by-degree floor
arguments that force the minimal node counts.

The defect of a declared node scheme is the number of nodes minus the rank
of the evaluation matrix in the critical degree; a positive defect means
the points fail to impose independent conditions exactly there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .ideals import HilbertProfile, PointSet, points_hilbert
from .linalg import det
from .polynomials import GradedPoly
from .scalars import Fp


class AuditError(ValueError):
    """A declared node failed its singularity or nondegeneracy check."""


def verify_singular(f: GradedPoly, point) -> bool:
    """True when every partial derivative vanishes at the point."""
    return all(f.partial_derivative(i).evaluate(point) == 0 for i in range(f.nvars))


def _hessian_det(f: GradedPoly, point):
    """Determinant of the affine Hessian in the chart where the point's
    leading coordinate is 1 (the normalization chart)."""
    chart = next(i for i, c in enumerate(point) if c)
    idxs = [i for i in range(f.nvars) if i != chart]
    partials = [f.partial_derivative(i) for i in idxs]
    entries = [
        [partials[a].partial_derivative(idxs[b]).evaluate(point) for b in range(len(idxs))]
        for a in range(len(idxs))
    ]
    return det(entries, f.char)


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
        lifted = tuple(Fraction(c.val if isinstance(c, Fp) else c) for c in point)
        return bool(_hessian_det(rational_shadow, lifted))
    return bool(d)


@dataclass(frozen=True)
class NodeAudit:
    point: tuple
    singular: bool
    hessian_nonzero: bool

    @property
    def is_node(self) -> bool:
        return self.singular and self.hessian_nonzero


def audit_nodes(f: GradedPoly, points: PointSet) -> tuple[NodeAudit, ...]:
    """Verify every declared node; raise AuditError on the first failure."""
    records = []
    for p in points:
        singular = verify_singular(f, p)
        hess = bool(_hessian_det(f, p)) if singular else False
        records.append(NodeAudit(p, singular, hess))
    bad = [r for r in records if not r.is_node]
    if bad:
        raise AuditError(
            f"{len(bad)} declared node(s) failed the audit, first: {bad[0]}"
        )
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
    """Codimension of the equisingular tangent space inside the degree-d forms."""
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


def sweep_singular_points(f: GradedPoly, p: int = 11) -> list[tuple[int, ...]]:
    """All F_p-rational singular points of the reduction of f mod p.

    Probe only: finds undeclared singular points over the prime field; a
    clean sweep is evidence, not proof, of node-only singularities.
    """
    fp = f.reduce_mod(p) if f.char is None else f
    partials = [fp.partial_derivative(i) for i in range(fp.nvars)]
    found = []
    n = fp.nvars
    for pivot in range(n):
        tail = n - pivot - 1
        for code in range(p**tail):
            coords = [0] * pivot + [1]
            rest = code
            for _ in range(tail):
                coords.append(rest % p)
                rest //= p
            point = tuple(Fp(c, p) for c in coords)
            if all(not g.evaluate(point) for g in partials):
                found.append(tuple(coords))
    return found

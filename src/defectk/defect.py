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
from itertools import islice, product

from .ideals import HilbertProfile, PointSet, format_point, points_hilbert, primitive_point
from .linalg import det
from .polynomials import VALUES_BLOCK, GradedPoly, values_at
from .scalars import validate_characteristic


class AuditError(ValueError):
    """A declared node failed its singularity or nondegeneracy check, or a
    restricted profile has no defect to certify (exit 2 in the CLI)."""


def verify_singular(f: GradedPoly, point) -> bool:
    """True when every partial derivative vanishes at the point."""
    return all(f.partial_derivative(i).evaluate(point) == 0 for i in range(f.nvars))


def verify_node(f: GradedPoly, point) -> bool:
    """A_1 test: nonsingular affine Hessian at a singular point, taken
    exactly at the point's primitive integer representative.  The tests'
    independent oracle for ``audit_nodes``: it differentiates and evaluates
    each second partial with ``GradedPoly.evaluate``, no code of
    ``polynomials.values_at``."""
    if not verify_singular(f, point):
        raise ValueError("point is not singular on the hypersurface")
    rep = primitive_point(point)
    chart = next(i for i, c in enumerate(rep) if c)
    idxs = [i for i in range(f.nvars) if i != chart]
    return bool(det([[f.partial_derivative(a).partial_derivative(b).evaluate(rep) for b in idxs]
                     for a in idxs]))


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

    The n first and n(n+1)/2 second partials of f, scaled to integer
    coefficients, are taken once and evaluated at every node's primitive
    integer representative by one ``polynomials.values_at`` call.  Scaling
    a point by lambda scales a degree-e form by lambda^e there, so a zero
    stays zero and the chart Hessian determinant (``linalg.det``) changes
    by lambda^((deg-2)(nvars-1)) != 0."""
    n = f.nvars
    f = f.scale(math.lcm(*(c.denominator for c in f.coeffs.values())))
    first = [f.partial_derivative(i) for i in range(n)]
    second = {(a, b): first[a].partial_derivative(b) for a in range(n) for b in range(a, n)}
    row = {k: i for i, (a, b) in enumerate(second, n) for k in ((a, b), (b, a))}
    values = values_at(first + list(second.values()), points.points)
    records = []
    for j, rep in enumerate(points):
        singular = not any(values[i][j] for i in range(n))
        chart = next(i for i, c in enumerate(rep) if c)
        idxs = [i for i in range(n) if i != chart]
        hess = singular and bool(det([[values[row[a, b]][j] for b in idxs] for a in idxs]))
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


# ---------------------------------------------------------------------------
# critical degrees


def critical_degree_double_solid(d: int) -> int:
    """Double covers of P^3 branched in degree 2d: 3d - 4."""
    if d < 2:
        raise ValueError("d must be at least 2")
    return 3 * d - 4


def critical_degree_highdim(n: int, d: int) -> int:
    """Hypersurfaces in P^{2n+2}: (n+1)d - (2n+3); 2d - 5 for threefolds in
    P^4 (n = 1)."""
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


def _certify(h_IH, node_count, critical, floors, bound_name, bound_value) -> DefectReport:
    """Check each floor and the bound up to the socle degree, critical + 1 for
    both certified families.  The floors bound the sum of h_IH up to the
    socle, which is the node count only when the nodes impose independent
    conditions there; a sum that differs from the declared count fails the
    certification."""
    socle = critical + 1
    if len(h_IH) < socle + 1:
        raise ValueError("restricted profile must reach the socle degree")
    if h_IH[socle] == 0:
        raise AuditError("no defect to certify: restricted profile vanishes at the socle")
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
    strict-decrease floor 2d-3-k, up to the socle 2d-4.  The floors sum to
    (d-1)^2.
    """
    critical = critical_degree_highdim(1, d)  # refuses d < 3

    def floors(k: int):
        if k <= d - 2:
            return k + 1, "duality"
        return 2 * d - 3 - k, "strict-decrease"

    return _certify(h_IH, node_count, critical, floors, "p4-defect-min-nodes", (d - 1) ** 2)


def certify_min_nodes_double_solid(d: int, h_IH: HilbertProfile, node_count: int) -> DefectReport:
    """Replay the floor chain for defective double solids.

    Duality gives k+1 up to d-1, maximal-growth descent gives d on the
    middle range, strict decrease gives 3d-2-k up to the socle 3d-3; the
    floors sum to d(2d-1).
    """
    critical = critical_degree_double_solid(d)  # refuses d < 2

    def floors(k: int):
        if k <= d - 1:
            return k + 1, "duality"
        if k <= 2 * d - 2:
            return d, "macaulay"
        return 3 * d - 2 - k, "strict-decrease"

    return _certify(h_IH, node_count, critical, floors, "double-solid-min-nodes",
                    d * (2 * d - 1))


# ---------------------------------------------------------------------------
# finite-field sweep for undeclared singular points


# Points of P^{nvars-1}(F_p) a sweep may visit before it is refused.  The
# sweep costs 0.8 to 4.0 microseconds per point for the plane family d = 3
# and 8 at p = 11 and 19, the double solid d = 5 at p = 53 and ci-highdim
# n = 1, d = 6 at p = 19 on a 2-vCPU Xeon, so a sweep at the budget takes
# up to about a second.
SWEEP_BUDGET = 200_000


def check_sweep_budget(nvars: int, p: int) -> None:
    """Refuse (ValueError) a sweep of P^{nvars-1}(F_p) over SWEEP_BUDGET points."""
    size = (p**nvars - 1) // (p - 1)
    if size > SWEEP_BUDGET:
        raise ValueError(
            f"sweep of P^{nvars - 1}(F_{p}) visits {size} points, over the budget {SWEEP_BUDGET}"
        )


def sweep_singular_points(f: GradedPoly, p: int = 11) -> list[tuple[int, ...]]:
    """All F_p-rational singular points of the reduction of f mod p, for p
    an odd prime (``scalars.validate_characteristic``).

    Probe only: finds undeclared singular points over the prime field; a
    clean sweep is evidence, not proof, of node-only singularities.  The
    points (0, ..., 0, 1, c_1, c_2, ...) with residues c_i, c_1 varying
    fastest, stream through in chunks; ``polynomials.values_at`` evaluates
    each first partial only at the points of the chunk where the partials
    before it vanish mod p.  It scales a partial by the lcm of its
    denominators, a unit mod p unless p divides a denominator of f, which
    has no reduction mod p (ValueError).
    """
    validate_characteristic(p)
    n = f.nvars
    check_sweep_budget(n, p)
    if math.lcm(*(c.denominator for c in f.coeffs.values())) % p == 0:
        raise ValueError(f"a coefficient of the form has a denominator divisible by {p}")
    partials = [f.partial_derivative(i) for i in range(n)]
    points = ((0,) * pivot + (1,) + tail[::-1]
              for pivot in range(n) for tail in product(range(p), repeat=n - pivot - 1))
    found = []
    while chunk := list(islice(points, 64 * VALUES_BLOCK)):
        for g in partials:
            chunk = [pt for pt, v in zip(chunk, values_at([g], chunk)[0]) if v % p == 0]
        found += chunk
    return found

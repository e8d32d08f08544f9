"""Deterministic constructors of defective nodal instances whose nodes are
rational points known in closed form, plus seeded random controls.

All families use products of linear forms instead of generic forms: the
declared nodes become explicit grid points with small integer coordinates,
and the constructor audits every one of them (all must be A_1).  The
constructors are pure functions of their parameters, so serialized output
is identical across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .defect import DoubleSolid, NodalHypersurface, sweep_singular_points
from .ideals import PointSet, primitive_point, reduce_point
from .macaulay import binomial
from .polynomials import GradedPoly, product

# Evaluation cells (nodes times degree-d monomials) a ci-highdim instance
# may need before it is refused.
CELL_BUDGET = 5_000_000


class InstanceError(ValueError):
    """The requested instance does not exist (a parameter below the family's
    minimum) or is over the resource budget: a usage error, not a failed
    audit."""


@dataclass(frozen=True)
class GridParams:
    """Grid values for the product-of-linear-forms constructions."""

    d: int
    a_values: tuple[int, ...]
    b_values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a_values", tuple(self.a_values))
        object.__setattr__(self, "b_values", tuple(self.b_values))
        for name, vals in (("a", self.a_values), ("b", self.b_values)):
            if len(set(vals)) != len(vals):
                raise ValueError(f"{name}-values must be pairwise distinct")

    @classmethod
    def plane_defaults(cls, d: int) -> "GridParams":
        return cls(d, tuple(range(1, d)), tuple(range(1, d)))

    @classmethod
    def double_solid_defaults(cls, d: int) -> "GridParams":
        return cls(d, tuple(range(1, d + 1)), tuple(range(1, 2 * d)))

    def to_dict(self) -> dict:
        return {"d": self.d, "a_values": list(self.a_values), "b_values": list(self.b_values)}


def plane_family(params: GridParams) -> NodalHypersurface:
    """Degree-d threefold x0 * prod(x2 - a_i x4) + x1 * prod(x3 - b_j x4)
    in P^4, with the (d-1)^2 declared nodes (0:0:a_i:b_j:1)."""
    d = params.d
    if d < 3:
        raise InstanceError("plane family needs d >= 3")
    if len(params.a_values) != d - 1 or len(params.b_values) != d - 1:
        raise InstanceError("plane family needs d-1 values on each axis")
    x = [GradedPoly.variable(5, i) for i in range(5)]
    fa = product([x[2] - a * x[4] for a in params.a_values])
    fb = product([x[3] - b * x[4] for b in params.b_values])
    f = x[0] * fa + x[1] * fb
    nodes = PointSet([(0, 0, a, b, 1) for a in params.a_values for b in params.b_values])
    return NodalHypersurface.build(f, nodes)


def double_solid_family(params: GridParams) -> DoubleSolid:
    """Branch surface h^2 + x3*g of degree 2d in P^3, h and g products of
    linear forms; the d(2d-1) declared nodes are (1:a_i:b_j:0)."""
    d = params.d
    if d < 2:
        raise InstanceError("double solid family needs d >= 2")
    if len(params.a_values) != d or len(params.b_values) != 2 * d - 1:
        raise InstanceError("double solid family needs d and 2d-1 values")
    x = [GradedPoly.variable(4, i) for i in range(4)]
    h = product([x[1] - a * x[0] for a in params.a_values])
    g = product([x[2] - b * x[0] for b in params.b_values])
    f = h * h + x[3] * g
    nodes = PointSet([(1, a, b, 0) for a in params.a_values for b in params.b_values])
    return DoubleSolid.build(d, f, nodes)


def ci_family_highdim(n: int, d: int) -> NodalHypersurface:
    """Hypersurface sum_i x_i f_i in P^{2n+2} with an (n+1)-dimensional grid
    of (d-1)^{n+1} declared nodes.

    f_i = prod_{c=1..d-1} (x_{n+1+i} - c x_{2n+2}); the nodes are the grid
    points with x_0..x_n = 0 and each x_{n+1+i} in 1..d-1.
    """
    if n < 1 or d < 3:
        raise InstanceError("need n >= 1 and d >= 3")
    nvars = 2 * n + 3
    cells = (d - 1) ** (n + 1) * binomial(d + nvars - 1, nvars - 1)
    if cells > CELL_BUDGET:
        raise InstanceError(
            f"instance needs {cells} evaluation cells, over the budget {CELL_BUDGET}"
        )
    x = [GradedPoly.variable(nvars, i) for i in range(nvars)]
    f = GradedPoly.zero(nvars, d)
    for i in range(n + 1):
        fi = product([x[n + 1 + i] - c * x[nvars - 1] for c in range(1, d)])
        f = f + x[i] * fi
    grid = [()]
    for _ in range(n + 1):
        grid = [g + (c,) for g in grid for c in range(1, d)]
    nodes = PointSet([(0,) * (n + 1) + combo + (1,) for combo in grid])
    return NodalHypersurface.build(f, nodes)


def random_points_control(count: int, nvars: int, seed: int) -> PointSet:
    """Seeded, reproducible random rational points, pairwise distinct."""
    if count < 1:
        raise ValueError("need at least one point")
    if nvars < 1:
        raise ValueError("need at least one coordinate")
    if nvars == 1 and count > 1:
        raise ValueError("P^0 has only one point")
    rng = random.Random(seed)
    points = {}  # primitive representatives, in order of first draw
    while len(points) < count:
        coords = tuple(rng.randint(-997, 997) for _ in range(nvars))
        if any(coords):
            points[primitive_point(coords)] = None
    return PointSet(points)


def instance_to_json(instance, family: str, params=None, n=None, seed=None) -> dict:
    """Serialize a family instance with its construction manifest."""
    manifest = {
        "family": family,
        "d": getattr(instance, "d", getattr(instance, "degree", None)),
        "n": n,
        "params": params.to_dict() if isinstance(params, GridParams) else params,
        "seed": seed,
    }
    return {
        "manifest": manifest,
        "f": instance.f.to_json_dict(),
        "nodes": instance.nodes.to_json_list(),
    }


def probe_undeclared_singular_points(f: GradedPoly, nodes: PointSet, p: int = 11) -> list:
    """Finite-field sweep findings not accounted for by the declared nodes.

    Warn-only evidence: reports F_p-rational singular points of f mod p
    whose classes differ from every declared node's reduction.
    """
    declared = {reduce_point(rep, p) for rep in nodes}
    return [pt for pt in sweep_singular_points(f, p) if pt not in declared]

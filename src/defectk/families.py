"""Deterministic constructors of defective nodal instances whose nodes are
rational points known in closed form, plus seeded random controls.

All families use products of linear forms instead of generic forms: the
declared nodes become explicit grid points with small integer coordinates,
and the constructor audits every one of them (all must be A_1).  The grid
family lives in P^{2n+2}; the plane family in P^4 is its n = 1 case.  The
constructors are pure functions of d (and n), so serialized output is
identical across runs.
"""

from __future__ import annotations

import random

from .defect import NodalHypersurface, sweep_singular_points
from .ideals import PointSet, primitive_point, reduce_point
from .polynomials import GradedPoly, product


def grid_values(d: int) -> range:
    """The values 1..d-1 of each grid coordinate of the grid family, and of
    a and b in the plane family."""
    return range(1, d)


def double_solid_values(d: int) -> tuple[range, range]:
    """The values 1..d of a and 1..2d-1 of b in the double solid family."""
    return range(1, d + 1), range(1, 2 * d)


def plane_family(d: int) -> NodalHypersurface:
    """Degree-d threefold x0 * prod(x2 - a x4) + x1 * prod(x3 - b x4) in P^4,
    a and b in 1..d-1, with the (d-1)^2 declared nodes (0:0:a:b:1): the grid
    family at n = 1."""
    if d < 3:
        raise ValueError("plane family needs d >= 3")
    return ci_family_highdim(1, d)


def double_solid_family(d: int) -> NodalHypersurface:
    """Branch surface h^2 + x3*g of degree 2d in P^3, h = prod(x1 - a x0) for
    a in 1..d and g = prod(x2 - b x0) for b in 1..2d-1; the d(2d-1) declared
    nodes are (1:a:b:0)."""
    if d < 2:
        raise ValueError("double solid family needs d >= 2")
    a_values, b_values = double_solid_values(d)
    x = [GradedPoly.variable(4, i) for i in range(4)]
    h = product([x[1] - a * x[0] for a in a_values])
    g = product([x[2] - b * x[0] for b in b_values])
    f = h * h + x[3] * g
    nodes = PointSet([(1, a, b, 0) for a in a_values for b in b_values])
    return NodalHypersurface.build(f, nodes)


def ci_family_highdim(n: int, d: int) -> NodalHypersurface:
    """Hypersurface sum_i x_i f_i in P^{2n+2} with an (n+1)-dimensional grid
    of (d-1)^{n+1} declared nodes.

    f_i = prod_{c=1..d-1} (x_{n+1+i} - c x_{2n+2}); the nodes are the grid
    points with x_0..x_n = 0 and each x_{n+1+i} in 1..d-1.
    """
    if n < 1 or d < 3:
        raise ValueError("need n >= 1 and d >= 3")
    nvars = 2 * n + 3
    x = [GradedPoly.variable(nvars, i) for i in range(nvars)]
    f = GradedPoly.zero(nvars, d)
    values = grid_values(d)
    for i in range(n + 1):
        fi = product([x[n + 1 + i] - c * x[nvars - 1] for c in values])
        f = f + x[i] * fi
    grid = [()]
    for _ in range(n + 1):
        grid = [g + (c,) for g in grid for c in values]
    nodes = PointSet([(0,) * (n + 1) + combo + (1,) for combo in grid])
    return NodalHypersurface.build(f, nodes)


# Points of P^1 with a primitive representative in [-997, 997]^2:
# 1 + sum over a = 1..997 of #{b in [-997, 997] : gcd(a, |b|) = 1}.
P1_BOX_POINTS = 1_210_584


def random_points_control(count: int, nvars: int, seed: int) -> PointSet:
    """Seeded, reproducible random rational points, pairwise distinct, each
    drawn with integer coordinates in [-997, 997]."""
    if count < 1:
        raise ValueError("need at least one point")
    if nvars < 1:
        raise ValueError("need at least one coordinate")
    if nvars == 1 and count > 1:
        raise ValueError("P^0 has only one point")
    if nvars == 2 and count > P1_BOX_POINTS:
        raise ValueError(f"P^1 has only {P1_BOX_POINTS} points with coordinates in [-997, 997]")
    rng = random.Random(seed)
    points = {}  # primitive representatives, in order of first draw
    while len(points) < count:
        coords = tuple(rng.randint(-997, 997) for _ in range(nvars))
        if any(coords):
            points[primitive_point(coords)] = None
    return PointSet(points)


def probe_undeclared_singular_points(f: GradedPoly, nodes: PointSet, p: int = 11) -> list:
    """Finite-field sweep findings not accounted for by the declared nodes.

    Warn-only evidence: reports F_p-rational singular points of f mod p
    whose classes differ from every declared node's reduction.
    """
    found = sweep_singular_points(f, p)  # refuses a p that is not an odd prime
    declared = {reduce_point(rep, p) for rep in nodes}
    return [pt for pt in found if pt not in declared]

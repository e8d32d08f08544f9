"""End-to-end pipelines shared by the CLI, the verification suites and the
acceptance tests.

A scenario bundles a command name with its fully serializable parameters;
every emitted report embeds its scenario, and re-running the scenario
reproduces the report byte for byte (seeded draws, fixed monomial order).

Every family runs one pipeline: construct and audit the nodes, take the
Hilbert profile h_I once, read the defect at the critical degree and, where
the family reports it, the tangent codimension h_I(d); a certified family
then restricts to a seeded hyperplane and replays its floor chain up to the
socle degree, critical + 1.  ``run_plane``, ``run_double_solid`` and
``run_highdim`` only supply each family's constructor, critical degree and
certifier.  The plane family is the grid family at n = 1: it shares the
grid's constructor, critical degree and tangent closed form, and adds the
certifier.

``FAMILIES`` holds, per ``family --name``, what the family promises in
closed form: node count, tangent codimension, and the cases its verify
suite checks; a family is certified when its run carries a certifier.  A
new family is one entry point and one entry.

The optional characteristic switches the rank computations to a prime
field; constructions and node audits stay over the rationals, where the
grid coordinates live.  Before any rank is taken the nodes must stay
distinct mod p, and the hyperplane is drawn to miss every node mod p, or
the run stops with ``BadReductionError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .defect import (
    certify_min_nodes_double_solid,
    certify_min_nodes_p4,
    critical_degree_double_solid,
    critical_degree_highdim,
    defect_at,
)
from .families import ci_family_highdim, double_solid_family, plane_family
from .ideals import (
    HilbertProfile,
    check_reduction,
    difference_profile,
    draw_missing_hyperplane,
    points_profile,
)
from .macaulay import binomial, ci_pnd

DEFAULT_SEED = 1

# Evaluation cells (nodes times degree-d monomials) a ci-highdim run may
# need before it is refused, checked before the instance is built.
CELL_BUDGET = 5_000_000


@dataclass(frozen=True)
class Scenario:
    command: str
    params: dict

    def to_dict(self) -> dict:
        return {"command": self.command, "params": dict(self.params)}


def _run_family(params: dict, instance, d: int, critical: int, seed: int, char: int | None,
                certify=None, tangent: bool = False) -> dict:
    """The pipeline of the module docstring; certified families pass a
    certifier, and ``tangent`` reports h_I(d)."""
    nodes = instance.nodes
    if char is not None:
        check_reduction(nodes, char)
    ell = draw_missing_hyperplane(nodes, seed, char) if certify is not None else None
    socle = critical + 1  # the socle degree of both certifiers
    profile = points_profile(nodes, max(critical if certify is None else socle, d), char)
    run = {
        "scenario": Scenario("family", {**params, "seed": seed, "char": char}),
        "instance": instance,
        "defect_report": defect_at(len(nodes), critical, profile[critical]),
    }
    if tangent:
        run["tangent_codim"] = profile[d]
    if certify is not None:
        h_I = HilbertProfile(profile.values[: socle + 1])
        h_IH = difference_profile(h_I, nodes, ell)
        run.update(h_I=h_I, ell=ell, h_IH=h_IH, certify_report=certify(d, h_IH, len(nodes)))
    return run


def run_plane(d: int, seed: int = DEFAULT_SEED, char: int | None = None) -> dict:
    """Construct, audit, and certify a plane-family instance."""
    params = {"d": d, "a_values": list(range(1, d)), "b_values": list(range(1, d))}
    return _run_family({"name": "plane", "d": d, "params": params},
                       plane_family(d), d, critical_degree_highdim(1, d), seed, char,
                       certify=certify_min_nodes_p4, tangent=True)


def run_double_solid(d: int, seed: int = DEFAULT_SEED, char: int | None = None) -> dict:
    """Construct, audit, and certify a double-solid instance."""
    params = {"d": d, "a_values": list(range(1, d + 1)), "b_values": list(range(1, 2 * d))}
    return _run_family({"name": "double-solid", "d": d, "params": params},
                       double_solid_family(d), d, critical_degree_double_solid(d),
                       seed, char, certify=certify_min_nodes_double_solid)


def run_highdim(n: int, d: int, seed: int = DEFAULT_SEED, char: int | None = None) -> dict:
    """Construct and audit a grid-family instance in P^{2n+2}, unless its
    rank pass would need more than CELL_BUDGET evaluation cells."""
    critical = critical_degree_highdim(n, d)  # refuses n < 1 and d < 3
    nvars = 2 * n + 3
    cells = (d - 1) ** (n + 1) * binomial(d + nvars - 1, nvars - 1)
    if cells > CELL_BUDGET:
        raise ValueError(f"instance needs {cells} evaluation cells, over the budget {CELL_BUDGET}")
    return _run_family({"name": "ci-highdim", "n": n, "d": d}, ci_family_highdim(n, d), d,
                       critical, seed, char, tangent=True)


@dataclass(frozen=True)
class FamilySpec:
    """What a family promises in closed form, checked by its verify suite
    and the tests.  Whether it is certified is read from its runs.

    ``runner`` is the name of the family's entry point in this module.  It
    is looked up on every call, never stored as a function, so that a
    wrapper put on the module binding (the benchmark's tracer) sees the call.
    """

    runner: str
    args: tuple[str, ...]  # the runner's positional arguments, as CLI options
    suite: str
    label: str  # check label, formatted with the arguments
    cases: tuple[tuple[int, ...], ...]  # runner arguments the suite checks
    nvars: Callable[..., int]  # variables of the family's ring
    node_count: Callable[..., int]
    tangent_codim: Callable[..., int] | None = None

    def run(self, *args: int, seed: int = DEFAULT_SEED, char: int | None = None) -> dict:
        return globals()[self.runner](*args, seed=seed, char=char)


FAMILIES = {
    "plane": FamilySpec(
        "run_plane", ("d",), "plane", "plane family d={d}",
        tuple((d,) for d in range(3, 9)), lambda d: 5, lambda d: (d - 1) ** 2,
        partial(ci_pnd, 1),
    ),
    "double-solid": FamilySpec(
        "run_double_solid", ("d",), "double-solid", "double solid d={d}",
        tuple((d,) for d in range(2, 6)), lambda d: 4, lambda d: d * (2 * d - 1),
    ),
    "ci-highdim": FamilySpec(
        "run_highdim", ("n", "d"), "highdim", "grid family n={n} d={d}",
        ((2, 3), (2, 4)), lambda n, d: 2 * n + 3, lambda n, d: (d - 1) ** (n + 1),
        ci_pnd,
    ),
}

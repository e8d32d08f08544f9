"""End-to-end pipelines shared by the CLI and the verification suites.

A scenario bundles a command name with its fully serializable parameters;
every emitted report embeds its scenario, and re-running the scenario
reproduces the report byte for byte (seeded draws, fixed monomial order).

The optional characteristic switches the rank computations to a prime
field; constructions and node audits stay over the rationals, where the
grid coordinates live.
"""

from __future__ import annotations

from dataclasses import dataclass

from .defect import (
    certify_min_nodes_double_solid,
    certify_min_nodes_p4,
    critical_degree_double_solid,
    critical_degree_highdim,
    critical_degree_p4,
    defect_at,
)
from .families import GridParams, ci_family_highdim, double_solid_family, plane_family
from .ideals import HilbertProfile, difference_profile, draw_missing_hyperplane, points_profile

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Scenario:
    command: str
    params: dict

    def to_dict(self) -> dict:
        return {"command": self.command, "params": dict(self.params)}


def run_plane(
    d: int,
    params: GridParams | None = None,
    seed: int = DEFAULT_SEED,
    char: int | None = None,
) -> dict:
    """Construct, audit, and certify a plane-family instance."""
    params = params or GridParams.plane_defaults(d)
    instance = plane_family(params)
    nodes = instance.nodes
    socle, critical = 2 * d - 4, critical_degree_p4(d)
    profile = points_profile(nodes, max(socle, critical, d), char)
    h_I = HilbertProfile(profile.values[: socle + 1])
    ell = draw_missing_hyperplane(nodes, seed)
    h_IH = difference_profile(h_I, nodes, ell)
    return {
        "scenario": Scenario("family", {"name": "plane", "d": d, "seed": seed,
                                        "params": params.to_dict(), "char": char}),
        "instance": instance,
        "params": params,
        "h_I": h_I,
        "ell": ell,
        "h_IH": h_IH,
        "defect_report": defect_at(len(nodes), critical, profile[critical]),
        "certify_report": certify_min_nodes_p4(d, h_IH, len(nodes)),
        "tangent_codim": profile[d],
    }


def run_double_solid(
    d: int,
    params: GridParams | None = None,
    seed: int = DEFAULT_SEED,
    char: int | None = None,
) -> dict:
    params = params or GridParams.double_solid_defaults(d)
    instance = double_solid_family(params)
    nodes = instance.nodes
    socle, critical = 3 * d - 3, critical_degree_double_solid(d)
    h_I = points_profile(nodes, socle, char)
    ell = draw_missing_hyperplane(nodes, seed)
    h_IH = difference_profile(h_I, nodes, ell)
    return {
        "scenario": Scenario("family", {"name": "double-solid", "d": d, "seed": seed,
                                        "params": params.to_dict(), "char": char}),
        "instance": instance,
        "params": params,
        "h_I": h_I,
        "ell": ell,
        "h_IH": h_IH,
        "defect_report": defect_at(len(nodes), critical, h_I[critical]),
        "certify_report": certify_min_nodes_double_solid(d, h_IH, len(nodes)),
    }


def run_highdim(n: int, d: int, seed: int = DEFAULT_SEED, char: int | None = None) -> dict:
    instance = ci_family_highdim(n, d)
    nodes = instance.nodes
    critical = critical_degree_highdim(n, d)
    profile = points_profile(nodes, max(critical, d), char)
    return {
        "scenario": Scenario("family", {"name": "ci-highdim", "n": n, "d": d,
                                        "seed": seed, "char": char}),
        "instance": instance,
        "defect_report": defect_at(len(nodes), critical, profile[critical]),
        "tangent_codim": profile[d],
    }

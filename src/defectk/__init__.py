"""defectk: exact Hilbert-function machinery for nodal hypersurfaces.

Macaulay base-d expansions and growth bounds, Gotzmann persistence for
base-locus dimensions, apolar Gorenstein ideals, and defect computation
plus minimal-node-count certification for nodal threefolds in P^4, double
solids, and grid families in higher dimension.  All arithmetic is exact.
"""

from .defect import (
    AuditError,
    DefectReport,
    NodalHypersurface,
    NodeAudit,
    certify_min_nodes_double_solid,
    certify_min_nodes_p4,
    critical_degree_double_solid,
    critical_degree_highdim,
    defect,
    sweep_singular_points,
    tangent_codim,
    verify_node,
    verify_singular,
)
from .families import (
    ci_family_highdim,
    double_solid_family,
    plane_family,
    probe_undeclared_singular_points,
    random_points_control,
)
from .ideals import (
    BadReductionError,
    BaseLocus,
    Functional,
    GrowthViolation,
    HilbertProfile,
    IdealPiece,
    InconclusiveProbeError,
    NonGenericHyperplaneError,
    PointSet,
    ancestor_profile,
    base_locus_dimension,
    corgreen_check,
    difference_profile,
    draw_missing_hyperplane,
    functional_kills_products,
    generated_piece,
    gorenstein_ancestor,
    lemdims_check,
    macaulay_growth_audit,
    point_ideal_piece,
    points_hilbert,
    points_profile,
    restrict_to_hyperplane,
    restricted_point_pieces,
    socle_functional,
)
from .linalg import Echelon, rank
from .macaulay import (
    HilbertPolynomial,
    MacaulayExpansion,
    binomial,
    c0_expansion_identity,
    ci_hilbert,
    ci_pnd,
    expand,
    gotzmann_polynomial,
    hyperplane_bound,
    low_degree_floor,
    lower_shift,
    upper_growth,
)
from .polynomials import GradedPoly, monomial_basis, monomial_index, product
from .scenarios import Scenario, run_double_solid, run_highdim, run_plane

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

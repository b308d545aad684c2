"""Exact combinatorics of stable multidigraphs: enumeration by weight,
rational expansion coefficients, Euler tour counts, and the identity suite
that cross-checks all of it."""

from .catalog import (
    CatalogRecord,
    FormalSum,
    GoldenFixture,
    GraphClassCounts,
    TABLE2,
    UnitBallIdentity,
    VerifyCase,
    VerifyReport,
    bernoulli_identity_lhs,
    build_record,
    class_counts,
    connectivity_class,
    expansion,
    format_rational,
    golden_fixture,
    parse_rational,
    read_catalog,
    stable_records,
    unit_ball_identity,
    unit_ball_lhs,
    verify,
    weight_records,
    write_catalog,
)
from .enumeration import enumerate_stable
from .eulerian import (
    IntPolynomial,
    arborescence_count,
    bernoulli,
    cycle_decomposition_poly,
    euler_tour_bruteforce,
    euler_tour_count,
    is_balanced,
    unit_ball_rhs,
)
from .graphs import (
    EMPTY,
    MultiDigraph,
    are_isomorphic,
    aut_order,
    automorphisms,
    canonical_form,
    canonical_key,
    disjoint_union,
    format_graph,
    is_semistable,
    is_stable,
    is_strongly_connected,
    parse_graph,
    weak_components,
)
from .spectral import LinearSubgraph, charpoly, coefficient_from_linear, linear_subgraphs, z_orbit
from .zeta import (
    FAMILY_NAMES,
    FamilySpec,
    build_family,
    det_a_minus_i,
    det_int,
    z,
    z_family,
    z_strong,
)

__version__ = "0.1.0"

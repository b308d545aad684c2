"""Exact combinatorics of stable multidigraphs: enumeration by weight,
rational expansion coefficients, Euler tour counts, and the identity suite
that cross-checks all of it."""

from .catalog import (
    CatalogRecord,
    FormalSum,
    GoldenFixture,
    GraphClassCounts,
    TABLE2,
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
    unit_ball_sums,
    verify,
    weight_records,
    write_catalog,
)
from .enumeration import enumerate_stable
from .eulerian import (
    arborescence_count,
    bernoulli,
    connected_unit_ball_rhs,
    cycle_decomposition_poly,
    euler_tour_bruteforce,
    euler_tour_count,
    is_balanced,
    unit_ball_rhs,
)
from .graphs import (
    EMPTY,
    MultiDigraph,
    aut_order,
    automorphisms,
    canonical_form,
    canonical_key,
    format_graph,
    is_semistable,
    is_stable,
    is_strongly_connected,
    parse_graph,
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
)

__version__ = "0.1.0"

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from tyz.catalog import weight_records
from tyz.graphs import MultiDigraph, is_strongly_connected, parse_graph, relabel
from tyz.spectral import (
    charpoly,
    coefficient_from_linear,
    linear_subgraphs,
    z_orbit,
)
from tyz.zeta import FamilySpec, build_family, det_a_minus_i, det_int, z_strong


@st.composite
def small_graphs(draw, max_n=3, max_entry=2):
    n = draw(st.integers(1, max_n))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, max_entry), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    return MultiDigraph.from_rows(rows)


# --- characteristic polynomials ---


def test_charpoly_examples():
    assert charpoly(parse_graph("2")) == (1, -2)
    assert charpoly(parse_graph("1 1;1 1")) == (1, -2, 0)
    assert charpoly(parse_graph("0 2;2 0")) == (1, 0, -4)
    assert charpoly(parse_graph("1 1 1;1 1 1;1 1 1")) == (1, -3, 0, 0)


def test_charpoly_is_monic_of_degree_n():
    for text in ("2", "0 2;2 0", "0 0 3;2 0 0;0 2 0"):
        g = parse_graph(text)
        poly = charpoly(g)
        assert len(poly) == g.n + 1 and poly[0] == 1


def _shuffled(g):
    order = list(range(g.n))
    random.Random(g.n).shuffle(order)
    return relabel(g, order)


def _random_matrix(n, seed, max_entry=3):
    rng = random.Random(seed)
    rows = [[rng.randint(0, max_entry) for _ in range(n)] for _ in range(n)]
    return MultiDigraph.from_rows(rows)


def _assert_charpoly_is_det_of_t_minus_adjacency(adj):
    # a monic polynomial of degree n is fixed by its values at n + 1 points,
    # so Bareiss determinants of tI - A at t = 0..n check every coefficient
    n, poly = len(adj), charpoly(MultiDigraph(adj))
    for t in range(n + 1):
        t_minus_a = [[t * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(adj)]
        assert sum(c * t ** (n - i) for i, c in enumerate(poly)) == det_int(t_minus_a), adj


@given(small_graphs())
@example(MultiDigraph.from_rows([[3]]))
@example(_random_matrix(9, seed=9))
@example(_shuffled(build_family(FamilySpec("D", n=5))))
@example(_shuffled(build_family(FamilySpec("K", n=8))))
def test_charpoly_at_one_is_det_of_identity_minus_adjacency(g):
    # det(I - A) = (-1)^n det(A - I), and also the coefficient sum
    assert sum(charpoly(g)) == (-1) ** g.n * det_a_minus_i(g)
    _assert_charpoly_is_det_of_t_minus_adjacency(g.adj)


def test_charpoly_matches_determinants_on_signed_matrices():
    """Berkowitz's recurrence equals Bareiss determinants of tI - A at
    t = 0..n on signed matrices too: negative entries, zero rows and one
    heavy diagonal entry."""
    rng = random.Random(13)
    entries = (0, 0, 0, 1, 1, 2, 3, -1, -2, -7, 100, -1000)
    for trial in range(600):
        n = rng.randint(1, 10)
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0:
            rows[rng.randrange(n)] = [0] * n
        if trial % 5 == 0:
            v = rng.randrange(n)
            rows[v][v] = 50
        _assert_charpoly_is_det_of_t_minus_adjacency(tuple(map(tuple, rows)))


def test_charpoly_of_the_all_ones_48_matrix():
    """The all-ones 48 x 48 matrix has eigenvalues 48 and 0, so
    chi = X^48 - 48 X^47."""
    assert charpoly(build_family(FamilySpec("K", n=48))) == (1, -48) + (0,) * 47


# --- linear subgraphs ---


def test_linear_subgraph_counts():
    assert len(linear_subgraphs(parse_graph("2"))) == 2
    assert len(linear_subgraphs(parse_graph("0 2;2 0"))) == 4
    assert len(linear_subgraphs(parse_graph("1 1;1 1"))) == 4


def test_linear_subgraphs_have_disjoint_cycles():
    for sub in linear_subgraphs(parse_graph("1 1;1 1")):
        seen = set()
        for cyc in sub.cycles:
            verts = {u for u, _, _ in cyc}
            assert not (verts & seen)
            seen |= verts


def test_cycle_structure_stats():
    subs = linear_subgraphs(parse_graph("1 1;1 1"))
    stats = sorted((sub.p, sub.vertex_count()) for sub in subs)
    assert stats == [(1, 1), (1, 1), (1, 2), (2, 2)]


def test_coefficient_examples():
    assert coefficient_from_linear(parse_graph("2"), 1) == -2
    assert coefficient_from_linear(parse_graph("1 1;1 1"), 1) == -2
    assert coefficient_from_linear(parse_graph("1 1;1 1"), 2) == 0
    assert coefficient_from_linear(parse_graph("0 2;2 0"), 1) == 0
    assert coefficient_from_linear(parse_graph("0 2;2 0"), 2) == -4


def test_coefficient_index_bounds():
    g = parse_graph("2")
    with pytest.raises(ValueError):
        coefficient_from_linear(g, 0)
    with pytest.raises(ValueError):
        coefficient_from_linear(g, 2)


@given(small_graphs())
def test_charpoly_equals_signed_cycle_sums(g):
    """Two independent routes to the same coefficients: Berkowitz's
    recurrence vs inclusion of vertex-disjoint cycle collections."""
    want = charpoly(g)
    got = (1,) + tuple(coefficient_from_linear(g, i) for i in range(1, g.n + 1))
    assert got == want


# --- the orbit formula ---


def test_orbit_formula_one_vertex():
    assert z_orbit(parse_graph("2")) == Fraction(-1, 2)
    assert z_orbit(parse_graph("5")) == Fraction(-1, 30)


def test_orbit_formula_two_vertices():
    assert z_orbit(parse_graph("0 4;2 0")) == Fraction(7, 48)
    assert z_orbit(parse_graph("1 1;1 1")) == Fraction(1, 2)


def test_orbit_formula_rejects_non_strongly_connected():
    with pytest.raises(ValueError):
        z_orbit(parse_graph("2 0;0 2"))


def test_orbit_formula_matches_determinant_formula_small_weights():
    for k in (1, 2, 3):
        for g in (r.graph for r in weight_records(k)):
            if is_strongly_connected(g):
                assert z_orbit(g) == z_strong(g), g

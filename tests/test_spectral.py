import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, example, given, strategies as st

from tyz import graphs, spectral
from tyz.catalog import weight_records
from tyz.graphs import (
    MultiDigraph,
    is_semistable,
    is_strongly_connected,
    parse_graph,
    relabel,
)
from tyz.spectral import (
    charpoly,
    coefficient_from_linear,
    linear_subgraphs,
    z_orbit,
)
from tyz.zeta import FamilySpec, build_family, det_a_minus_i, det_int, z


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
@example(MultiDigraph(()))
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
    # labelled counts: each subgraph of the support stands for its labellings
    assert sum(s.labellings for s in linear_subgraphs(parse_graph("2"))) == 2
    assert sum(s.labellings for s in linear_subgraphs(parse_graph("0 2;2 0"))) == 4
    assert sum(s.labellings for s in linear_subgraphs(parse_graph("1 1;1 1"))) == 4


def _assert_disjoint_cycles(sub):
    """Arcs form vertex-disjoint cycles exactly when every vertex they touch
    has one arc out and one arc in."""
    tails = [u for u, _ in sub.arcs]
    heads = [v for _, v in sub.arcs]
    assert len(set(tails)) == len(tails)
    assert len(set(heads)) == len(heads)
    assert set(tails) == set(heads)


def test_linear_subgraphs_have_disjoint_cycles():
    for sub in linear_subgraphs(parse_graph("1 1;1 1")):
        _assert_disjoint_cycles(sub)


@given(small_graphs())
def test_linear_subgraphs_are_distinct_arc_sets_of_edges(g):
    subs = linear_subgraphs(g)
    assert len({sub.arcs for sub in subs}) == len(subs)
    for sub in subs:
        _assert_disjoint_cycles(sub)
        assert all(g.adj[u][v] > 0 for u, v in sub.arcs)
        assert sub.labellings == prod(g.adj[u][v] for u, v in sub.arcs)
        assert 1 <= sub.p <= sub.vertex_count()


@given(small_graphs(max_entry=3))
def test_linear_subgraphs_are_those_of_the_support(g):
    """Parallel edges change only the labellings, not which subgraphs there are."""
    support = MultiDigraph(tuple(tuple(min(m, 1) for m in row) for row in g.adj))
    assert {sub[:2] for sub in linear_subgraphs(g)} == {sub[:2] for sub in linear_subgraphs(support)}


@pytest.mark.parametrize(
    "text, counts",
    [
        ("3 3;3 3", {(1, 1): 6, (1, 2): 9, (2, 2): 9}),
        ("1 1 1;1 1 1;1 1 1", {(1, 1): 3, (1, 2): 3, (1, 3): 2, (2, 2): 3, (2, 3): 3, (3, 3): 1}),
        ("2 1;1 2", {(1, 1): 4, (1, 2): 1, (2, 2): 4}),
        ("0 2 0;0 0 2;2 0 0", {(1, 3): 8}),
    ],
)
def test_linear_subgraphs_by_cycles_and_vertices(text, counts):
    """The number of labelled linear subgraphs with p cycles on i vertices."""
    weighted = Counter()
    for sub in linear_subgraphs(parse_graph(text)):
        weighted[sub.p, sub.vertex_count()] += sub.labellings
    assert weighted == counts


def test_cycle_structure_stats():
    subs = linear_subgraphs(parse_graph("1 1;1 1"))
    stats = sorted((sub.p, sub.vertex_count()) for sub in subs)
    assert stats == [(1, 1), (1, 1), (1, 2), (2, 2)]


def test_coefficient_examples():
    assert coefficient_from_linear(parse_graph("2")) == (1, -2)
    assert coefficient_from_linear(parse_graph("1 1;1 1")) == (1, -2, 0)
    assert coefficient_from_linear(parse_graph("0 2;2 0")) == (1, 0, -4)
    assert coefficient_from_linear(parse_graph("0 0;0 0")) == (1, 0, 0)


def test_coefficients_come_from_one_enumeration(monkeypatch):
    calls = []
    real = spectral.linear_subgraphs

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(spectral, "linear_subgraphs", counting)
    g = build_family(FamilySpec("K", n=4))
    assert coefficient_from_linear(g) == charpoly(g)
    assert len(calls) == 1


@given(small_graphs())
@example(MultiDigraph(()))
def test_charpoly_equals_signed_cycle_sums(g):
    """Two independent routes to the same coefficients: Berkowitz's
    recurrence vs inclusion of vertex-disjoint cycle collections."""
    assert coefficient_from_linear(g) == charpoly(g)


# --- the orbit formula ---


def test_orbit_formula_one_vertex():
    assert z_orbit(parse_graph("2")) == Fraction(-1, 2)
    assert z_orbit(parse_graph("5")) == Fraction(-1, 30)


def test_orbit_formula_two_vertices():
    assert z_orbit(parse_graph("0 4;2 0")) == Fraction(7, 48)
    assert z_orbit(parse_graph("1 1;1 1")) == Fraction(1, 2)


def test_orbit_formula_does_not_hold_the_group():
    """Orbits are closures over generators, so the group is never listed:
    z_orbit of "3 3;3 3", whose group has 2,592 elements, peaks far below
    the 2.2 MB the group takes as a list."""
    g = parse_graph("3 3;3 3")
    tracemalloc.start()
    try:
        assert z_orbit(g) == Fraction(5, 2592)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000


def test_orbit_formula_does_not_list_the_label_bijections():
    """The nine-loop vertex has 9! = 362,880 label bijections; they enter
    as a factor of 9 on the one-element orbit of its loop, so its orbit sum
    peaks under 1 MB."""
    g = parse_graph("9")
    tracemalloc.start()
    try:
        assert z_orbit(g) == Fraction(-1, 45360)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("text", ["9", "0 4;4 0", "3 3;3 3", "2 2 0;0 2 2;2 0 2"])
def test_orbit_formula_matches_z_with_many_label_bijections(text):
    g = parse_graph(text)
    assert z_orbit(g) == z(g)


@given(small_graphs(max_n=3, max_entry=3))
def test_orbit_formula_matches_z_on_small_multigraphs(g):
    """Multiplicities up to 3 enter as labelling factors of vertex orbits;
    the sum is the same in either vertex order."""
    assume(is_semistable(g) and is_strongly_connected(g))
    assert z_orbit(g) == z(g)
    assert z_orbit(relabel(g, range(g.n - 1, -1, -1))) == z(g)


def test_orbit_formula_checks_the_group_order(monkeypatch):
    """A search whose vertex group order disagrees with the group its
    generators close to is caught, not trusted."""
    real = spectral.symmetry
    monkeypatch.setattr(
        spectral, "symmetry", lambda adj: real(adj)._replace(order=2 * real(adj).order)
    )
    for text in ("9", "3 3;3 3"):
        with pytest.raises(AssertionError):
            z_orbit(parse_graph(text))


def test_orbit_formula_searches_once(monkeypatch):
    """z_orbit reads its group order check, |Aut(G)| and its orbit
    generators off one search of its argument."""
    calls = []
    real = spectral.symmetry

    def forbidden(*args):
        raise AssertionError("z_orbit searches outside its one search")

    monkeypatch.setattr(spectral, "symmetry", lambda adj: calls.append(adj) or real(adj))
    monkeypatch.setattr(graphs, "symmetry", forbidden)
    g = parse_graph("0 4;2 0")
    assert z_orbit(g) == Fraction(7, 48)
    assert calls == [g.adj]


def test_orbit_formula_matches_records_under_relabelling():
    """Every strongly connected record of weight <= 5, its vertices shuffled
    by a seeded permutation, has the orbit sum of its record's z."""
    rng = random.Random(21)
    strong = [r for k in range(1, 6) for r in weight_records(k) if is_strongly_connected(r.graph)]
    for r in strong:
        per = list(range(r.graph.n))
        rng.shuffle(per)
        assert z_orbit(relabel(r.graph, per)) == r.z, r.graph
    assert len(strong) == 438


def test_orbit_formula_rejects_non_strongly_connected():
    with pytest.raises(ValueError, match="strongly connected"):
        z_orbit(parse_graph("2 0;0 2"))
    with pytest.raises(ValueError, match="semistable"):  # nor one that is not semistable
        z_orbit(parse_graph("1"))


def test_orbit_formula_matches_determinant_formula_small_weights():
    for k in (1, 2, 3):
        for g in (r.graph for r in weight_records(k)):
            if is_strongly_connected(g):
                assert z_orbit(g) == z(g), g

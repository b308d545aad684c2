import math

import pytest

from hypothesis import given, settings, strategies as st

from tyz import enumeration
from tyz.catalog import class_counts, weight_records
from tyz.enumeration import enumerate_stable, raw_stable_matrices
from tyz.graphs import (
    MultiDigraph,
    automorphisms,
    canonical_form,
    canonical_key,
    is_stable,
    parse_graph,
    relabel,
    symmetry,
)


def _graphs(j, s):
    """The class representatives of (j, s), as graphs."""
    return tuple(MultiDigraph(found.matrix) for found in enumerate_stable(j, s))


def test_one_vertex_catalogs():
    assert _graphs(1, 2) == (parse_graph("2"),)
    assert _graphs(1, 3) == (parse_graph("3"),)


def test_two_vertex_four_edge_catalog():
    got = {canonical_key(g) for g in _graphs(2, 4)}
    want = {
        canonical_key(parse_graph(t)) for t in ("2 0;0 2", "1 1;1 1", "0 2;2 0")
    }
    assert got == want


def test_empty_parameter_ranges():
    assert enumerate_stable(0, 0) == ()
    assert enumerate_stable(1, 1) == ()
    assert enumerate_stable(2, 3) == ()
    assert enumerate_stable(3, 5) == ()


def test_weight_records_rejects_nonpositive():
    with pytest.raises(ValueError):
        weight_records(0)


def test_weight_catalog_sizes():
    assert len(weight_records(1)) == 1
    assert len(weight_records(2)) == 4
    assert len(weight_records(3)) == 15
    assert len(weight_records(4)) == 82


def test_catalog_graphs_are_stable_with_right_weight():
    for k in (1, 2, 3):
        for g in (r.graph for r in weight_records(k)):
            assert is_stable(g) and g.weight == k


def test_catalog_is_deduplicated_and_sorted():
    for k in (2, 3, 4):
        keys = [canonical_key(r.graph) for r in weight_records(k)]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))


def test_catalog_is_deterministic():
    assert weight_records(3) == weight_records(3)
    assert enumerate_stable(2, 5) == enumerate_stable(2, 5)


def test_weight_six_class_counts_by_vertex_count():
    """Pins the enumerator's output; `census_count` derives the same counts
    without generating a graph (test_census_count_equals_the_enumerator)."""
    assert [len(enumerate_stable(j, j + 6)) for j in (1, 2, 3, 4, 5)] == [1, 45, 600, 2388, 2252]


def test_fill_keeps_only_invariant_ordered_matrices(monkeypatch):
    """The fill builds only matrices with non-increasing (out, in, loops)
    vertex types, and only those that pass the leaf test reach the symmetry
    search.  Of the 6,210 full matrices of (5, 10), the fill builds the
    1,607 whose types are non-increasing; 248 of those also have
    non-increasing neighbour signatures wherever two adjacent vertices have
    equal types, and 248 searches give the 85 classes."""
    leaves, calls = [], []
    leaf_test = enumeration._signature_ordered

    def counted_leaf(rows, types):
        leaves.append(tuple(rows))
        return leaf_test(rows, types)

    def counted(adj):
        calls.append(adj)
        return symmetry(adj)

    monkeypatch.setattr(enumeration, "_signature_ordered", counted_leaf)
    monkeypatch.setattr(enumeration, "symmetry", counted)
    assert len(enumerate_stable(5, 10)) == 85
    assert len(leaves) == len(set(leaves)) == 1607
    assert len(calls) <= 248


def _types(g):
    """The (out-degree, in-degree, loops) of each vertex of g."""
    return list(zip(g.out_degrees(), g.in_degrees(), (g.adj[v][v] for v in range(g.n))))


def test_type_sequences_cover_every_class():
    """Every listed type sequence is non-increasing with both degree sums
    equal to the edge count, and the sorted types of every class of weight
    <= 5 are listed."""
    for k in range(1, 6):
        records = weight_records(k)
        for j in range(1, k + 1):
            listed = list(enumeration._type_sequences(j, j + k))
            assert len(listed) == len(set(listed))
            for types in listed:
                assert list(types) == sorted(types, reverse=True)
                assert sum(out for out, _, _ in types) == sum(in_ for _, in_, _ in types) == j + k
                for out, in_, loops in types:
                    assert out >= 2 and in_ >= 2 and loops <= min(out, in_)
            listed = set(listed)
            for g in (r.graph for r in records if r.graph.n == j):
                assert tuple(sorted(_types(g), reverse=True)) in listed, g


def test_census_count_equals_the_enumerator():
    """Burnside's count over S_j and the fill agree on every catalog of
    weight <= 6, (6, 12) included."""
    for k in range(1, 7):
        for j in range(1, k + 1):
            assert enumeration.census_count(j, j + k) == len(enumerate_stable(j, j + k)), (j, k)
    assert enumeration.census_count(0, 0) == enumeration.census_count(3, 5) == 0


def _sorted_by_key(g):
    """g with its vertices in descending order of (out-degree, in-degree,
    loops, neighbour signature), ties kept in label order."""
    n, adj = g.n, g.adj
    outs, ins = g.out_degrees(), g.in_degrees()
    invariants = [(outs[v], ins[v], adj[v][v]) for v in range(n)]

    def key(v):
        others = [(invariants[u], adj[v][u], adj[u][v]) for u in range(n) if u != v]
        return invariants[v], sorted(others, reverse=True)

    return relabel(g, sorted(range(n), key=key, reverse=True))


def _passes_leaf_test(g) -> bool:
    """Whether the fill keeps g: its vertex types are non-increasing, as the
    fill builds them, and it passes the leaf test."""
    types = _types(g)
    return types == sorted(types, reverse=True) and enumeration._signature_ordered(g.adj, types)


def test_leaf_test_accepts_every_class_sorted_by_its_key():
    """The leaf test is sound: sorting any graph's vertices by the key gives
    a matrix that passes it, so the fill keeps a matrix of every class."""
    for k in range(1, 6):
        for r in weight_records(k):
            assert _passes_leaf_test(_sorted_by_key(r.graph)), r.graph


@settings(deadline=None)
@given(st.data())
def test_leaf_test_accepts_relabelled_classes_sorted_by_their_key(data):
    records = weight_records(data.draw(st.integers(1, 5)))
    g = records[data.draw(st.integers(0, len(records) - 1))].graph
    g = relabel(g, data.draw(st.permutations(range(g.n))))
    assert _passes_leaf_test(_sorted_by_key(g)), g


def test_leaf_test_rejects_a_tied_pair_out_of_signature_order():
    # vertices 1 and 2 tie on (out, in, loops) = (2, 2, 0); toward vertex 0,
    # vertex 1 has (1 out, 2 in) and vertex 2 has (2 out, 1 in), so vertex 2
    # has the larger signature and must come first
    g = parse_graph("0 2 1;1 0 1;2 0 0")
    assert (g.out_degrees(), g.in_degrees()) == ((3, 2, 2), (3, 2, 2))
    assert not _passes_leaf_test(g)
    assert _passes_leaf_test(relabel(g, [0, 2, 1]))


def test_enumerated_graphs_are_canonical_and_strictly_sorted():
    for k in (1, 2, 3, 4):
        for j in range(1, k + 1):
            graphs = _graphs(j, j + k)
            assert all(canonical_form(g) == g for g in graphs)
            keys = [canonical_key(g) for g in graphs]
            assert all(a < b for a, b in zip(keys, keys[1:])), (j, k)
    # joined in vertex order, the catalogs of one weight stay in key order
    for k in range(1, 6):
        keys = [canonical_key(r.graph) for r in weight_records(k)]
        assert all(a < b for a, b in zip(keys, keys[1:])), k


def test_against_unpruned_bruteforce():
    """The pruned, symmetry-reduced search must see exactly the isomorphism
    classes of the raw matrix scan, with orbit sizes n!/|stabilizer|."""
    for j, s in [(1, 2), (1, 4), (2, 4), (2, 5), (2, 6), (2, 7), (3, 6), (3, 7), (3, 8)]:
        raw = list(raw_stable_matrices(j, s))
        slick = _graphs(j, s)
        assert {canonical_key(g) for g in raw} == {canonical_key(g) for g in slick}
        orbit_total = sum(
            math.factorial(g.n) // len(automorphisms(g)) for g in slick
        )
        assert len(raw) == orbit_total


def test_class_counts_small_weights():
    assert class_counts(1) == (1, 1, 1, 1)
    assert class_counts(2) == (4, 3, 3, 3)
    assert class_counts(3) == (15, 11, 10, 9)
    assert class_counts(4) == (82, 61, 51, 45)


def test_class_counts_rejects_nonpositive():
    with pytest.raises(ValueError):
        class_counts(0)

import gc
import math
import random
from functools import cache
from itertools import combinations, product

import pytest

from hypothesis import given, settings, strategies as st

from tyz import catalog, enumeration, graphs
from tyz.catalog import TABLE2, class_counts, weight_records
from tyz.enumeration import enumerate_stable
from tyz.graphs import (
    MultiDigraph,
    automorphisms,
    canonical_form,
    canonical_key,
    is_stable,
    parse_graph,
    refine,
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


def test_weight_records_rejects_weights_above_the_maximum(monkeypatch):
    """A weight above MAX_WEIGHT is refused before any catalog is built."""

    def refuse(j, s):
        raise AssertionError(f"stable_records({j}, {s}) was called")

    monkeypatch.setattr(catalog, "stable_records", refuse)
    with pytest.raises(ValueError):
        weight_records(enumeration.MAX_WEIGHT + 1)


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
    search.  Of the 6,210 full matrices of (5, 10), 1,607 have non-increasing
    types.  The leaf test's first splitter rejects 1,284 of them; all of
    those fail the prefix test and are never built, so the fill builds 323.
    Refining their type runs leaves the vertices of some in order, and
    those whose refinement is not discrete take at most 169 searches for
    the 85 classes (a discrete one returns before the search)."""
    leaves, calls = [], []
    leaf_test, search = graphs._leaf_search, graphs._search

    def counted_leaf(adj, cols, runs):
        leaves.append(adj)
        return leaf_test(adj, cols, runs)

    def counted(adj, cols, cells, candidate):
        if len(cells) < len(adj):  # not discrete, so the search runs
            calls.append(adj)
        return search(adj, cols, cells, candidate)

    monkeypatch.setattr(enumeration, "_leaf_search", counted_leaf)
    monkeypatch.setattr(graphs, "_search", counted)
    assert len(enumerate_stable(5, 10)) == 85
    assert len(leaves) == len(set(leaves)) == 323
    assert len(calls) <= 169


@pytest.mark.parametrize("j, s", [(3, 7), (4, 8), (5, 10), (6, 12)])
def test_canonical_test_is_symmetry_stopped_early(monkeypatch, j, s):
    """Every leaf the fill tests: `_leaf_search` gives None exactly when
    `symmetry` of the leaf has another matrix, though it stops at the first
    leaf below the candidate; else the leaf tuple itself, with `symmetry`'s
    generators and order."""
    tested = []

    def recorded(adj, cols, runs):
        found = graphs._leaf_search(adj, cols, runs)
        tested.append((adj, found))
        return found

    monkeypatch.setattr(enumeration, "_leaf_search", recorded)
    kept = enumerate_stable(j, s)
    assert sorted(found for _, found in tested if found is not None) == list(kept)
    for leaf, found in tested:
        whole = symmetry(leaf)
        if whole.matrix != leaf:
            assert found is None, leaf
        else:
            assert found == whole and found.matrix is leaf, leaf


def test_canonical_test_stops_at_the_first_smaller_leaf(monkeypatch):
    """The (5, 10) fill reads 264 leaf matrices in its searches: a rejected
    candidate's search ends at its first leaf below the candidate.  Searched
    to the end, as `symmetry` does, they read 349."""
    calls = []
    leaf_matrix = graphs._leaf_matrix

    def counted(adj, order):
        calls.append(adj)
        return leaf_matrix(adj, order)

    monkeypatch.setattr(graphs, "_leaf_matrix", counted)
    assert len(enumerate_stable(5, 10)) == 85
    assert len(calls) == 264


@pytest.mark.parametrize("j, s", [(4, 10), (5, 10), (5, 11)])
def test_fill_lists_exactly_one_last_row(monkeypatch, j, s):
    """Row j - 2 takes all that column j - 1 can still take, so every row
    choice the fill lists for its last row j - 1 is exactly one row: no
    node of the fill is left without a last row."""
    counts = []
    row_choices = enumeration._row_choices

    def recorded(v, kind, caps, pool):
        choices = row_choices(v, kind, caps, pool)
        if v == j - 1:
            counts.append(len(choices))
        return choices

    monkeypatch.setattr(enumeration, "_row_choices", recorded)
    assert len(enumerate_stable(j, s)) == enumeration.census_count(j, s)
    assert counts and set(counts) == {1}


def _leaves_and_classes(monkeypatch, j, s):
    """The leaves the fill of (j, s) builds, in order, and its classes."""
    leaves = []

    def counted_leaf(adj, cols, runs):
        leaves.append(adj)
        return graphs._leaf_search(adj, cols, runs)

    monkeypatch.setattr(enumeration, "_leaf_search", counted_leaf)
    return leaves, enumerate_stable(j, s)


@pytest.mark.parametrize("j, s", [(4, 8), (4, 10), (5, 10), (5, 11), (6, 12)])
def test_prefix_test_drops_only_leaves_the_leaf_test_rejects(monkeypatch, j, s):
    """With the prefix test off (every signature equal) the fill builds
    every leaf of non-increasing types.  With it on, the fill builds those
    leaves but the ones it drops, in the same order; the leaf test rejects
    each dropped leaf, and the classes are the same."""
    pruned, classes = _leaves_and_classes(monkeypatch, j, s)
    monkeypatch.setattr(enumeration, "_signature", lambda row, col, head: 0)
    full, unpruned = _leaves_and_classes(monkeypatch, j, s)
    assert classes == unpruned
    assert len(pruned) < len(full)
    kept = set(pruned)
    assert [leaf for leaf in full if leaf in kept] == pruned
    for leaf in full:
        if leaf not in kept:
            runs = _type_runs(MultiDigraph(leaf))
            assert refine(leaf, tuple(zip(*leaf)), runs, ordered=True) is None


@pytest.mark.parametrize("j, s", [(4, 8), (5, 10), (6, 12)])
def test_fill_builds_only_leaves_ordered_by_the_first_splitter(monkeypatch, j, s):
    """Within each type run of every leaf the fill builds, the signatures
    against the first run R1 do not decrease, R1's own included: a
    signature is the sorted pairs (A[v][w], A[w][v]) over w in R1, as
    `refine` splits by its first splitter.  Most sequences of these (j, 2j)
    are one type run, where R1 is every vertex."""
    leaves, _ = _leaves_and_classes(monkeypatch, j, s)
    assert leaves
    for leaf in leaves:
        runs = _type_runs(MultiDigraph(leaf))
        for run in runs:
            sigs = [sorted((leaf[v][w], leaf[w][v]) for w in runs[0]) for v in run]
            assert sigs == sorted(sigs), leaf


def test_fill_leaves_no_cyclic_garbage():
    """The fill's recursions drop their references to themselves, so a call
    leaves nothing for the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_stable(5, 11)) == 2252
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_row_choices_in_lexicographic_order():
    """Every row of a type under the capacities, its loops on the diagonal,
    in lexicographic order, as a filter of all rows under the capacities
    lists them, each with the capacities it leaves; row n - 2 only with all
    of column n - 1's capacity, which the last row cannot take.  Every row
    is the tuple the pool keeps, also on a second call."""
    for n in range(1, 5):
        for caps in product(range(4), repeat=n):
            for v in range(n):
                for loops in range(3):
                    for out in range(loops, loops + sum(caps) - caps[v] + 2):
                        kind = (out, 2, loops)
                        bounds = [range(c + 1) for c in caps]
                        bounds[v] = (loops,)
                        if v == n - 2:
                            bounds[n - 1] = (caps[n - 1],)
                        rows = [x for x in product(*bounds) if sum(x) == out]
                        want = []
                        for x in rows:
                            after = [c - e for c, e in zip(caps, x)]
                            after[v] = caps[v]
                            want.append((x, tuple(after)))
                        pool = {}
                        got = enumeration._row_choices(v, kind, caps, pool)
                        assert got == want, (v, kind, caps)
                        again = enumeration._row_choices(v, kind, caps, pool)
                        assert all(a is pool[a] is b for (a, _), (b, _) in zip(got, again))


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


def test_connected_count_is_the_inverse_euler_transform_of_the_census():
    """The connected classes counted from the weight totals alone equal
    TABLE2's connected column for k <= 5, and the enumerator's connected
    records at k = 6."""
    for k in range(1, 6):
        assert enumeration.connected_count(k) == TABLE2[k][1], k
    connected = sum(r.cls != "disconnected" for r in weight_records(6))
    assert enumeration.connected_count(6) == connected == 4835
    assert enumeration.connected_count(0) == 0


def test_connected_count_is_zero_below_weight_one():
    """Like `census_count` outside its range, not an IndexError."""
    assert enumeration.connected_count(-1) == enumeration.connected_count(-5) == 0


def test_weight_six_and_seven_counts_without_enumeration():
    """Burnside's census totals and the inverse Euler transform at weights 6
    and 7, with no enumeration, equal TABLE2's total and connected columns
    (5,683 and 4,835; 66,710 and 58,868), which the enumerator gives, so
    each has two derivations."""
    for k in (6, 7):
        total = sum(enumeration.census_count(j, j + k) for j in range(1, k + 1))
        assert (total, enumeration.connected_count(k)) == TABLE2[k][:2], k
    assert TABLE2[6][:2] == (5683, 4835) and TABLE2[7][:2] == (66710, 58868)


def _type_runs(g):
    """The vertices of g in cells of equal (out, in, loops) type, the cells
    in descending order of type, as the fill and `symmetry` start."""
    types = _types(g)
    return [
        [v for v in range(g.n) if types[v] == t] for t in sorted(set(types), reverse=True)
    ]


def _sorted_by_key(g):
    """g with its vertices in the order of the refinement of its type
    partition: the key is the position of a vertex's cell."""
    cells = refine(g.adj, tuple(zip(*g.adj)), _type_runs(g))
    return relabel(g, [v for cell in cells for v in cell])


def _passes_leaf_test(g) -> bool:
    """Whether the fill keeps g: its vertex types are non-increasing, as the
    fill builds them, and refining its type runs keeps its vertices in order."""
    types = _types(g)
    if types != sorted(types, reverse=True):
        return False
    return refine(g.adj, tuple(zip(*g.adj)), _type_runs(g), ordered=True) is not None


def _refined_quotient(g):
    """The cell sizes of the refinement of g's type partition, in order, and
    the edge counts from each of its cells to each."""
    cells = refine(g.adj, tuple(zip(*g.adj)), _type_runs(g))
    edges = [[sum(g.adj[v][w] for v in a for w in b) for b in cells] for a in cells]
    return [len(cell) for cell in cells], edges


def _check_refinement_ignores_labels(g, per) -> None:
    """Refining the type partition of g and of relabel(g, per) gives cells
    of the same sizes with the same edge counts between them, so the same
    matrix when the cells are single vertices; and g in its refined order
    passes the leaf test."""
    h = relabel(g, per)
    sizes, edges = _refined_quotient(g)
    assert _refined_quotient(h) == (sizes, edges), (g, per)
    if len(sizes) == g.n:
        assert _sorted_by_key(h).adj == _sorted_by_key(g).adj, (g, per)
    assert _passes_leaf_test(_sorted_by_key(h)), h


def test_leaf_test_accepts_every_class_sorted_by_its_key():
    """The leaf test is sound: the refinement of the type partition does not
    depend on the labels (checked against a seeded relabelling of every
    class of weight <= 5), so the matrix of any graph in its refined order
    passes, and the fill keeps a matrix of every class."""
    rng = random.Random(16)
    for k in range(1, 6):
        for r in weight_records(k):
            _check_refinement_ignores_labels(r.graph, rng.sample(range(r.graph.n), r.graph.n))


@settings(deadline=None)
@given(st.data())
def test_leaf_test_accepts_relabelled_classes_sorted_by_their_key(data):
    records = weight_records(data.draw(st.integers(1, 5)))
    g = records[data.draw(st.integers(0, len(records) - 1))].graph
    _check_refinement_ignores_labels(g, data.draw(st.permutations(range(g.n))))


def test_leaf_test_rejects_a_tied_pair_out_of_signature_order():
    # vertices 1 and 2 tie on (out, in, loops) = (2, 2, 0); toward vertex 0,
    # vertex 1 has (2 out, 1 in) and vertex 2 has (1 out, 2 in), so vertex 2
    # has the smaller signature over the splitter {0} and must come first
    g = parse_graph("0 1 2;2 0 0;1 1 0")
    assert (g.out_degrees(), g.in_degrees()) == ((3, 2, 2), (3, 2, 2))
    assert _type_runs(g) == [[0], [1, 2]]
    assert not _passes_leaf_test(g)
    h = relabel(g, [0, 2, 1])
    assert _passes_leaf_test(h)
    assert refine(h.adj, tuple(zip(*h.adj)), _type_runs(h), ordered=True) == [[0], [1], [2]]


@cache
def _fill_of_weights_to_5():
    """What the fill keeps for every class of weight <= 5."""
    return [found for k in range(1, 6) for j in range(1, k + 1) for found in enumerate_stable(j, j + k)]


def _relabelled_search_agrees(found, rng) -> None:
    g = MultiDigraph(found.matrix)
    searched = symmetry(relabel(g, rng.sample(range(g.n), g.n)).adj)
    assert (searched.matrix, searched.order) == (found.matrix, found.order), g


def test_fill_matrices_equal_a_fresh_search_of_a_relabelling():
    """The fill keeps a leaf whose refinement is discrete without searching
    it; a fresh search of a relabelling of every class of weight <= 5
    returns the fill's matrix and group order all the same.  What the fill
    keeps is `symmetry` of its own matrix, generators included, so they are
    automorphisms of that matrix."""
    rng = random.Random(16)
    for found in _fill_of_weights_to_5():
        _relabelled_search_agrees(found, rng)
        assert found == symmetry(found.matrix), found.matrix


@settings(deadline=None)
@given(st.data(), st.randoms(use_true_random=False))
def test_fill_matrix_equals_a_fresh_search_of_a_random_relabelling(data, rng):
    kept = _fill_of_weights_to_5()
    _relabelled_search_agrees(kept[data.draw(st.integers(0, len(kept) - 1))], rng)


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


@pytest.mark.parametrize("j, s", [(3, 9), (4, 10), (5, 10), (5, 11)])
def test_returned_matrices_share_their_rows(j, s):
    """Each distinct row of the returned canonical matrices is one object:
    every kept matrix is a leaf of the fill, built from its pooled rows."""
    rows = [row for found in enumerate_stable(j, s) for row in found.matrix]
    assert len({id(row) for row in rows}) == len(set(rows))


def raw_stable_matrices(j: int, s: int):
    """Brute force over all j x j matrices with entry sum s, no dedup: each
    choice of j*j - 1 bars among s + j*j - 1 places (stars and bars).

    Test oracle for enumerate_stable: every matrix yielded here must be
    isomorphic to exactly one returned representative.  Exponential in j*j,
    usable only for tiny sizes.
    """
    cells = j * j
    end = s + cells - 1
    for bars in combinations(range(end), cells - 1):
        flat = tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, end)))
        g = MultiDigraph(tuple(flat[i * j : (i + 1) * j] for i in range(j)))
        if is_stable(g):
            yield g


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

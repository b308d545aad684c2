import gc
import hashlib
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

import tyz.catalog as catalog
import tyz.graphs as graphs
from tyz.catalog import weight_records
from tyz.graphs import (
    EMPTY,
    MultiDigraph,
    aut_order,
    automorphisms,
    canonical_form,
    canonical_key,
    connectivity,
    format_graph,
    induced_subgraph,
    is_semistable,
    is_stable,
    is_strongly_connected,
    parse_graph,
    relabel,
)
from tyz.zeta import FamilySpec, build_family, det_a_minus_i, z_family

from assembly import disjoint_union


@st.composite
def small_graphs(draw, max_n=3, max_entry=3):
    n = draw(st.integers(1, max_n))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, max_entry), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    return MultiDigraph.from_rows(rows)


# --- parsing and formatting ---


def test_parse_format_round_trip():
    for text in ("0 2;2 0", "2", "1 1;1 1", "0 0 3;2 0 0;0 2 0"):
        g = parse_graph(text)
        assert format_graph(g) == text
        assert parse_graph(format_graph(g)) == g


def test_parse_accepts_newlines():
    assert parse_graph("0 2\n2 0") == parse_graph("0 2;2 0")


def test_parse_ragged_matrix_is_an_error():
    with pytest.raises(ValueError, match="row 2"):
        parse_graph("0 2;2")


def _message(parse, arg) -> str:
    with pytest.raises(ValueError) as info:
        parse(arg)
    return str(info.value)


def test_parse_reports_position_of_bad_entry():
    with pytest.raises(ValueError, match="row 1, column 2"):
        parse_graph("0 -2;2 0")
    with pytest.raises(ValueError, match="row 2, column 1"):
        parse_graph("0 2;x 0")
    # of two faults, the first in reading order, and entries before squareness
    for text, message in [
        ("-1 x;2 2", "row 1, column 1: negative entry -1"),
        ("x -1;2 2", "row 1, column 1: not an integer: 'x'"),
        ("1 2;3 -4;5", "row 2, column 2: negative entry -4"),
        # only ASCII digits with an optional leading '-' are decimal
        ("1_0 0;0 +2", "row 1, column 1: not an integer: '1_0'"),
        ("0 +2;2 0", "row 1, column 2: not an integer: '+2'"),
        ("\u0663", "row 1, column 1: not an integer: '\u0663'"),
        ("0 2;2 \uff10", "row 2, column 2: not an integer: '\uff10'"),
        ("0 2;2 --1", "row 2, column 2: not an integer: '--1'"),
    ]:
        assert _message(parse_graph, text) == message
        rows = [row.split() for row in text.split(";")]
        assert _message(MultiDigraph.from_rows, rows) == message


def test_from_rows_rejects_nonsquare():
    message = "row 1 has 2 entries, expected 1 (matrix must be square)"
    assert _message(MultiDigraph.from_rows, [[0, 1]]) == message
    assert _message(MultiDigraph.from_rows, [["0", "1"]]) == message
    assert _message(parse_graph, "0 1") == message
    assert _message(MultiDigraph.from_rows, [[2.5]]) == "row 1, column 1: not an integer: 2.5"


@given(small_graphs())
def test_format_parse_identity(g):
    assert parse_graph(format_graph(g)) == g


# --- degrees and stability ---


def test_loop_counts_toward_both_degrees():
    g = parse_graph("2")
    assert g.out_degrees() == (2,) and g.in_degrees() == (2,)


def test_degree_examples():
    g = parse_graph("1 1;1 1")
    assert g.out_degrees() == (2, 2) and g.in_degrees() == (2, 2)


@given(small_graphs())
def test_degree_handshake(g):
    outs = g.out_degrees()
    ins = g.in_degrees()
    assert sum(outs) == sum(ins) == g.edge_count


@given(small_graphs())
def test_weight_is_edges_minus_vertices(g):
    assert g.weight == g.edge_count - g.n


def test_stability_examples():
    assert is_stable(parse_graph("2"))
    assert is_stable(parse_graph("0 2;2 0"))
    assert not is_stable(parse_graph("0 1;1 0"))
    assert not is_stable(parse_graph("0 2;1 0"))
    assert is_semistable(parse_graph("0 2;1 0"))
    assert not is_semistable(parse_graph("0 1;1 0"))


def test_empty_graph_is_stable_weight_zero():
    assert is_stable(EMPTY)
    assert EMPTY.weight == 0 and EMPTY.n == 0


@given(small_graphs())
def test_stable_implies_semistable(g):
    if is_stable(g):
        assert is_semistable(g)


@given(small_graphs(), st.randoms())
def test_stability_is_isomorphism_invariant(g, rng):
    per = list(range(g.n))
    rng.shuffle(per)
    assert is_stable(g) == is_stable(relabel(g, tuple(per)))


# --- canonical forms and isomorphism ---


@given(small_graphs(), st.randoms())
def test_canonical_key_is_relabel_invariant(g, rng):
    per = list(range(g.n))
    rng.shuffle(per)
    assert canonical_key(g) == canonical_key(relabel(g, tuple(per)))


# Test oracles: search all n! vertex permutations.


def _key_bruteforce(g):
    """Vertex count and the least flattening of adj over all vertex orders."""
    return (g.n, min(relabel(g, per).adj for per in permutations(range(g.n))))


def _automorphisms_bruteforce(g):
    return [per for per in permutations(range(g.n)) if relabel(g, per) == g]


@given(small_graphs(max_n=5, max_entry=2), small_graphs(max_n=5, max_entry=2), st.randoms())
def test_isomorphism_matches_bruteforce(a, b, rng):
    if rng.random() < 0.5:  # a relabelled copy, so that both answers occur
        b = relabel(a, rng.sample(range(a.n), a.n))
    same = _key_bruteforce(a) == _key_bruteforce(b)
    assert (canonical_key(a) == canonical_key(b)) == same


def test_canonical_form_is_isomorphic_to_input():
    g = parse_graph("0 0 3;2 0 0;0 2 0")
    c = canonical_form(g)
    assert canonical_key(g) == canonical_key(c)
    assert canonical_form(c) == c


# --- automorphisms ---


def _aut_order_bruteforce(g):
    # label-aware automorphisms: a vertex map preserving the matrix, times a
    # bijection on each parallel-edge bundle it maps across
    label_factor = math.prod(math.factorial(e) for row in g.adj for e in row)
    return label_factor * len(_automorphisms_bruteforce(g))


def test_aut_order_examples():
    assert aut_order(parse_graph("2")) == 2
    assert aut_order(parse_graph("5")) == 120
    assert aut_order(parse_graph("0 2;2 0")) == 8  # swap times two label bundles
    assert aut_order(parse_graph("1 1;1 1")) == 2
    assert aut_order(parse_graph("0 4;2 0")) == 48


@given(small_graphs(max_n=5, max_entry=2))
def test_aut_order_matches_bruteforce(g):
    assert aut_order(g) == _aut_order_bruteforce(g)


@given(small_graphs(max_n=5, max_entry=1))
def test_automorphisms_match_bruteforce(g):
    assert set(automorphisms(g)) == set(_automorphisms_bruteforce(g))


# Symmetric graphs, where refinement alone leaves cells of several vertices
# and the search must individualize and prune by automorphisms.
SMALL_FAMILIES = [
    FamilySpec("A", n=5),
    FamilySpec("B", n=6),
    FamilySpec("C", n=6),
    FamilySpec("K", n=5),
    FamilySpec("D", n=3),
    FamilySpec("Kmn", n=3, m=3),
]


def _family_id(spec):
    return f"{spec.family}({spec.m},{spec.n})" if spec.family == "Kmn" else f"{spec.family}({spec.n})"


@pytest.mark.parametrize("spec", SMALL_FAMILIES, ids=_family_id)
def test_symmetric_families_match_bruteforce(spec):
    g = build_family(spec)
    g = relabel(g, random.Random(g.n).sample(range(g.n), g.n))
    assert _key_bruteforce(canonical_form(g)) == _key_bruteforce(g)
    assert set(automorphisms(g)) == set(_automorphisms_bruteforce(g))
    assert aut_order(g) == _aut_order_bruteforce(g)


# Too large for the n! search: 9 to 32 vertices.
LARGE_FAMILIES = [
    FamilySpec("A", n=16),
    FamilySpec("B", n=16),
    FamilySpec("C", n=16),
    FamilySpec("K", n=10),
    FamilySpec("Kmn", n=5, m=4),
    FamilySpec("D", n=5),
    FamilySpec("D", n=6),
]


@pytest.mark.parametrize("spec", LARGE_FAMILIES, ids=_family_id)
def test_large_families_are_relabel_invariant(spec):
    g = build_family(spec)
    rng = random.Random(spec.n)
    for _ in range(3):
        h = relabel(g, rng.sample(range(g.n), g.n))
        assert canonical_key(h) == canonical_key(g)
        assert aut_order(h) == aut_order(g)
        # the closed form of z pins |Aut| independently of the search
        assert Fraction(-det_a_minus_i(h), aut_order(h)) == z_family(spec)


# sha256 of (matrix, order) of `symmetry` over the census and family graphs,
# see test_search_results_are_pinned
SEARCH_SHA256 = "2bf87f75024026a08168a3fc14b036f4ef821d585042a903432a7b035f99d1f7"


def test_search_results_are_pinned(monkeypatch):
    """The canonical matrix and group order of every class of weight <= 5,
    searched from its catalog matrix and from that matrix with its vertices
    reversed, and of the verify suite's family graphs and LARGE_FAMILIES,
    each as built and relabelled: a change to how the search prunes must
    not move one of them.  Pruning moves only the work, which the number of
    refinements pins: one per node searched, the one-vertex matrices
    included, since `symmetry` refines every input."""
    matrices = []
    for k in range(1, 6):
        for r in weight_records(k):
            matrices += [r.adj, tuple(row[::-1] for row in r.adj[::-1])]
    for spec in catalog._family_instances() + LARGE_FAMILIES:
        g = build_family(spec)
        matrices += [g.adj, relabel(g, random.Random(g.n).sample(range(g.n), g.n)).adj]
    refinements = []
    real = graphs.refine
    monkeypatch.setattr(graphs, "refine", lambda *args: refinements.append(1) or real(*args))
    digest = hashlib.sha256()
    for adj in matrices:
        found = graphs.symmetry(adj)
        digest.update(repr((found.matrix, found.order)).encode())
    assert len(matrices) == 1548
    assert digest.hexdigest() == SEARCH_SHA256
    assert len(refinements) == 2091


@pytest.mark.parametrize("text", ["", "2", "3 1 0;0 2 1;1 0 1"])
def test_a_discrete_start_is_its_own_canonical_matrix(text):
    """A matrix of at most one vertex, or whose vertex types are distinct
    and descending, is its one leaf: `symmetry` returns the input tuple
    itself, with the trivial group."""
    adj = parse_graph(text).adj
    found = graphs.symmetry(adj)
    assert found.matrix is adj
    assert (found.generators, found.order) == ((), 1)


@pytest.mark.parametrize("spec, closures", [(FamilySpec("A", n=16), 2), (FamilySpec("B", n=16), 4)])
def test_search_computes_each_pruning_orbit_once(monkeypatch, spec, closures):
    """A node's pruning orbits are computed once per tried vertex and once
    per batch of new generators, not once per vertex of its target cell:
    A(16) and B(16), 16 vertices each, take 2 and 4 closures."""
    calls = []
    real = graphs._closure
    monkeypatch.setattr(graphs, "_closure", lambda *args: calls.append(1) or real(*args))
    g = build_family(spec)
    found = graphs.symmetry(g.adj)
    assert len(calls) == closures
    # the closed form of z pins the group order the orbits give
    assert Fraction(-det_a_minus_i(g), graphs._label_factor(g.adj) * found.order) == z_family(spec)


def test_search_leaves_no_cyclic_garbage():
    """The search's recursion drops its reference to itself, so a search
    leaves nothing for the cyclic collector."""
    adj = build_family(FamilySpec("A", n=16)).adj
    gc.collect()
    gc.disable()
    try:
        assert graphs.symmetry(adj).order == 16
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_automorphisms_form_a_group():
    g = parse_graph("0 2;2 0")
    perms = automorphisms(g)
    assert (0, 1) in perms and (1, 0) in perms
    for p in perms:
        for q in perms:
            assert tuple(p[i] for i in q) in perms


def test_leaf_matrix_of_the_identity_order_is_no_copy():
    adj = parse_graph("0 0 3;2 0 0;0 2 0").adj
    assert graphs._leaf_matrix(adj, [0, 1, 2]) is adj
    assert graphs._leaf_matrix(adj, [1, 0, 2]) == relabel(MultiDigraph(adj), (1, 0, 2)).adj


def _twin_rich_graph(rng, max_n=6):
    """A random blow-up: each vertex of a base graph becomes a class of
    twins (equal loops, one multiplicity between any two of them, and the
    base graph's multiplicities to and from every other class), relabelled
    at random.  Half the base graphs are circulants with classes of one
    size, whose twins refinement alone does not separate from the other
    classes, so that the search meets them below the root."""
    if rng.random() < 0.5:
        b = rng.choice([2, 3])
        sizes = [rng.randint(1, max_n // b)] * b
        step = [rng.randint(0, 2) for _ in range(b)]
        base = [[step[(v - u) % b] for v in range(b)] for u in range(b)]
        inner = [rng.randint(0, 1)] * b
    else:
        sizes = []
        while sum(sizes) < max_n and (not sizes or rng.random() < 0.7):
            sizes.append(rng.randint(1, max_n - sum(sizes)))
        base = [[rng.randint(0, 2) for _ in sizes] for _ in sizes]
        inner = [rng.randint(0, 1) for _ in sizes]  # between two twins of one class
    owner = [c for c, size in enumerate(sizes) for _ in range(size)]
    n = len(owner)
    rows = [
        [base[owner[u]][owner[v]] if owner[u] != owner[v] or u == v else inner[owner[u]] for v in range(n)]
        for u in range(n)
    ]
    return relabel(MultiDigraph.from_rows(rows), rng.sample(range(n), n))


def test_twin_leaves_match_bruteforce():
    """Graphs with many twins take the twin-leaf shortcut at the root or
    below it; their automorphisms, group order and canonical form agree
    with the n! oracles, and the key is the same for a relabelled copy."""
    rng = random.Random(6)
    for _ in range(120):
        g = _twin_rich_graph(rng)
        autos = _automorphisms_bruteforce(g)
        assert set(automorphisms(g)) == set(autos), format_graph(g)
        assert graphs.symmetry(g.adj).order == len(autos)
        assert _key_bruteforce(canonical_form(g)) == _key_bruteforce(g)
        h = relabel(g, rng.sample(range(g.n), g.n))
        assert canonical_key(h) == canonical_key(g)


def _hub(m):
    """One vertex joined both ways to each of m vertices with one loop."""
    n = m + 1
    return MultiDigraph.from_rows(
        [[0] + [1] * m] + [[1] + [int(u == v) for u in range(1, n)] for v in range(1, n)]
    )


def test_hub_of_twins_takes_one_refinement(monkeypatch):
    """The m leaves of the hub are twins: after the first refinement the
    search stops, with order m! and the adjacent swaps as generators."""
    calls = []
    real = graphs.refine
    monkeypatch.setattr(graphs, "refine", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    found = graphs.symmetry(_hub(300).adj)
    assert found.order == math.factorial(300) and len(calls) <= 1
    assert len(found.generators) == 299
    assert found.matrix == _hub(300).adj  # the hub first: it has the larger type


def test_copies_of_one_vertex_are_twins():
    copies = disjoint_union([parse_graph("2")] * 200)
    assert aut_order(copies) == math.factorial(200) * 2**200
    assert canonical_form(copies) == copies


# --- connectivity ---


def test_strong_connectivity_examples():
    assert is_strongly_connected(parse_graph("2"))
    assert is_strongly_connected(parse_graph("0 2;2 0"))
    assert not is_strongly_connected(parse_graph("1 1;0 1"))
    assert not is_strongly_connected(parse_graph("2 0;0 2"))


def test_strong_connectivity_rejects_empty():
    with pytest.raises(ValueError):
        is_strongly_connected(EMPTY)


def _reach_oracle(adj, start):
    """Vertices reachable from start along the arcs of the matrix adj, as a set."""
    seen, stack = {start}, [start]
    while stack:
        for v, mult in enumerate(adj[stack.pop()]):
            if mult and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _connectivity_oracle(g):
    arcs, reverse = g.adj, tuple(zip(*g.adj))
    either = [[a + b for a, b in zip(out, into)] for out, into in zip(arcs, reverse)]
    remaining = set(range(g.n))
    parts = []
    while remaining:
        start = min(remaining)
        comp = _reach_oracle(either, start)
        strong = _reach_oracle(arcs, start) == comp == _reach_oracle(reverse, start)
        parts.append((sorted(comp), strong))
        remaining -= comp
    return parts


def _strongly_connected_oracle(g):
    full = set(range(g.n))
    return _reach_oracle(g.adj, 0) == full == _reach_oracle(tuple(zip(*g.adj)), 0)


@st.composite
def sparse_graphs(draw, max_n=7):
    """Mostly-zero matrices, some vertices cut off but for their loops
    (isolated when they have none), so that every connectivity class shows."""
    n = draw(st.integers(0, max_n))
    entry = st.sampled_from([0, 0, 0, 1, 2])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    cut = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    for v in cut:
        for u in range(n):
            if u != v:
                rows[v][u] = rows[u][v] = 0
    return MultiDigraph.from_rows(rows)


@given(sparse_graphs())
def test_connectivity_matches_set_oracle(g):
    assert connectivity(g) == _connectivity_oracle(g)
    if g.n:
        assert is_strongly_connected(g) == _strongly_connected_oracle(g)


def test_connectivity_matches_oracle_on_the_census(monkeypatch):
    """Every stable graph of weight <= 5 as its catalog stores it and under a
    seeded relabelling: the strongly connected ones end after two sweeps,
    the others run the loop over components."""
    sweeps = []
    reach = graphs._reach

    def counting(masks, start):
        sweeps.append(start)
        return reach(masks, start)

    monkeypatch.setattr(graphs, "_reach", counting)
    rng = random.Random(30)
    for k in range(1, 6):
        for r in weight_records(k):
            order = list(range(r.graph.n))
            rng.shuffle(order)
            for g in (r.graph, relabel(r.graph, order)):
                sweeps.clear()
                assert connectivity(g) == _connectivity_oracle(g), g
                if r.cls == "strongly_connected":
                    assert sweeps == [0, 0], g
    assert connectivity(EMPTY) == _connectivity_oracle(EMPTY) == []


@pytest.mark.parametrize(
    "text, parts",
    [
        # vertex 0 reaches every vertex forward, none reaches it back
        ("0 1 0;0 0 1;0 0 0", [([0, 1, 2], False)]),
        ("1 1 0;1 1 1;0 0 1", [([0, 1, 2], False)]),
        # every vertex reaches vertex 0, which reaches none of them
        ("0 0 0;1 0 0;0 1 0", [([0, 1, 2], False)]),
        ("1 1 0;1 1 0;0 1 1", [([0, 1, 2], False)]),
        # a strongly connected part at vertex 0 beside one that is not
        ("0 1 0 0;1 0 0 0;0 0 0 1;0 0 0 0", [([0, 1], True), ([2, 3], False)]),
        ("0 0 1 0;0 0 0 0;1 0 0 0;0 1 0 0", [([0, 2], True), ([1, 3], False)]),
    ],
)
def test_connectivity_when_vertex_zero_reaches_one_way(text, parts):
    g = parse_graph(text)
    assert connectivity(g) == _connectivity_oracle(g) == parts


def _cycle_rows(k):
    return [[int(j == (i + 1) % k) for j in range(k)] for i in range(k)]


def test_connectivity_beyond_64_vertices():
    # 70 vertices: a 20-cycle, a path of 30, 10 looped vertices and a 10-cycle
    # with a doubled chord, so the masks need more than one 64-bit word
    path = [[int(j == i + 1) for j in range(30)] for i in range(30)]
    chorded = _cycle_rows(10)
    chorded[3][7] = 2
    blocks = [_cycle_rows(20), path] + [[[1]]] * 10 + [chorded]
    g = disjoint_union([MultiDigraph.from_rows(b) for b in blocks])
    assert g.n == 70
    parts = connectivity(g)
    assert parts == _connectivity_oracle(g)
    assert [len(comp) for comp, _ in parts] == [20, 30] + [1] * 10 + [10]
    assert [strong for _, strong in parts] == [True, False] + [True] * 10 + [True]
    assert not is_strongly_connected(g)
    order = list(range(70))
    random.Random(70).shuffle(order)
    shuffled = relabel(g, order)
    assert connectivity(shuffled) == _connectivity_oracle(shuffled)
    ring = relabel(MultiDigraph.from_rows(_cycle_rows(70)), order)
    assert is_strongly_connected(ring) and _strongly_connected_oracle(ring)
    assert connectivity(ring) == [(list(range(70)), True)]


def test_connectivity_of_block_diagonal():
    g = parse_graph("2 0 0;0 1 1;0 1 1")
    comps = [induced_subgraph(g, part) for part, _ in connectivity(g)]
    assert sorted(c.n for c in comps) == [1, 2]
    keys = {canonical_key(c) for c in comps}
    assert keys == {canonical_key(parse_graph("2")), canonical_key(parse_graph("1 1;1 1"))}


def test_connectivity_of_connected_graph():
    assert len(connectivity(parse_graph("0 2;2 0"))) == 1


# --- assembly ---


def test_disjoint_union_blocks():
    a, b = parse_graph("2"), parse_graph("0 2;2 0")
    u = disjoint_union([a, b])
    assert u.n == 3 and u.edge_count == 6
    assert u.weight == a.weight + b.weight
    assert len(connectivity(u)) == 2


def test_induced_subgraph():
    g = parse_graph("2 0 0;0 1 1;0 1 1")
    assert induced_subgraph(g, [0]) == parse_graph("2")
    assert induced_subgraph(g, [1, 2]) == parse_graph("1 1;1 1")


def _picked(g, order):
    return MultiDigraph(tuple(tuple(g.adj[u][v] for v in order) for u in order))


def test_induced_subgraph_and_relabel_pick_every_order():
    """Both read the matrix through one reordering; it matches the plain
    comprehension on permutations, proper subsets, one vertex and none, and
    returns the matrix itself only when every vertex stays in place."""
    rng = random.Random(20)
    for n in range(5):
        g = MultiDigraph(tuple(tuple(rng.randrange(4) for _ in range(n)) for _ in range(n)))
        per = rng.sample(range(n), n)
        assert relabel(g, per) == relabel(g, tuple(per)) == _picked(g, per)
        assert relabel(g, range(n)).adj is induced_subgraph(g, list(range(n))).adj is g.adj
        for size in range(n + 1):
            part = rng.sample(range(n), size)
            assert induced_subgraph(g, part) == _picked(g, part), (g, part)
            assert induced_subgraph(g, sorted(part)) == _picked(g, sorted(part)), (g, part)
    g = parse_graph("1 2 0;3 1 1;0 2 1")
    assert induced_subgraph(g, [0, 1]) == parse_graph("1 2;3 1")
    assert induced_subgraph(g, [0]) == parse_graph("1")
    assert induced_subgraph(g, [2]) == parse_graph("1")
    assert induced_subgraph(g, []) == EMPTY


def test_relabel_identity_and_inverse():
    g = parse_graph("0 0 3;2 0 0;0 2 0")
    ident = tuple(range(g.n))
    assert relabel(g, ident) == g
    per = (2, 0, 1)
    inv = tuple(per.index(i) for i in range(3))
    assert relabel(relabel(g, per), inv) == g

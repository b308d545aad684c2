"""Dense multidigraph values and their basic invariants.

A graph is an n x n matrix of nonnegative integers: entry (i, j) counts the
directed edges i -> j, and a diagonal entry counts loops.  One loop adds 1 to
the out-degree and 1 to the in-degree of its vertex (so a single vertex with
two loops is already stable).  The empty graph (n = 0) is a valid value.
`MultiDigraph`, like every value type of the package, is a NamedTuple, so a
graph compares and hashes as its matrix tuple, in C.

Canonical forms and automorphism groups come from one search, `symmetry`:
partition refinement with individualization and automorphism pruning, after
McKay & Piperno, "Practical graph isomorphism, II" (J. Symbolic Comput.
60, 2014).  It is exact for every input; its cost grows with how much
symmetry refinement fails to break, not with n!, so family graphs with
dozens of vertices take milliseconds.  Its refinement, `refine`, is a
splitter queue that the leaf test `_leaf_search` shares; both start from the
cells of equal (out, in, loops) type in descending order.  Twins, vertices
whose swap is an automorphism, are never separated by refinement, so a node
whose cells of several vertices each hold twins is a leaf: one matrix, and
each such cell permuted freely.  A hub joined to hundreds of alike leaves,
or hundreds of copies of one vertex, takes one refinement and no search.
The search returns the canonical matrix itself (`Symmetry.matrix`), with
generators and the order of the vertex group; the matrix is the input tuple,
not a copy, when the leaf keeps the vertex order, as for a leaf the fill
ordered or a stored canonical matrix read back (`_leaf_matrix`, also
`relabel` and `induced_subgraph`).  One closure over generators, `_closure`,
gives the orbits the search prunes by, the group (`_group`) that
`automorphisms` lists and `spectral.z_orbit` checks, and that sum's orbits.
`canonical_key` is the vertex count and the canonical rows.  Nothing here
keeps state: `canonical_key`, `canonical_form`, `automorphisms` and
`aut_order` each search their argument, so a caller that needs more than
one of them calls `symmetry` once and reads its result.

`connectivity` takes two reachability sweeps for a strongly connected
component and three for any other.  A caller that has transposed a matrix
already, as the catalog reader does once per record, passes the columns to
`_connectivity` (components as bit masks), `_leaf_search` and
`spectral._charpoly`.  `_leaf_search` is the one canonical test, the leaf
test followed by the search: the census fill keeps the leaves that pass it,
and the catalog reader tells a canonical matrix by it.
"""

from __future__ import annotations

import math
import re
from itertools import chain, compress, groupby
from operator import getitem, index, itemgetter, lt
from typing import NamedTuple

Matrix = tuple[tuple[int, ...], ...]

_DECIMAL = re.compile(r"-?[0-9]+")

__all__ = [
    "Matrix",
    "MultiDigraph",
    "EMPTY",
    "is_semistable",
    "is_stable",
    "connectivity",
    "is_strongly_connected",
    "Symmetry",
    "refine",
    "symmetry",
    "canonical_key",
    "canonical_form",
    "automorphisms",
    "aut_order",
    "relabel",
    "parse_graph",
    "format_graph",
]


class MultiDigraph(NamedTuple):
    """Immutable multidigraph given by its adjacency matrix.

    A one-field tuple: it compares and hashes as its matrix tuple, so
    `MultiDigraph(adj) == (adj,)`."""

    adj: Matrix

    @staticmethod
    def from_rows(rows) -> "MultiDigraph":
        """The graph of rows of integers or decimal strings (ASCII digits
        with an optional leading '-'): the one check of a matrix from outside
        (command-line text, cache and fixture JSON).  The first entry in
        reading order that is not an integer or is negative is reported by
        row and column; then the matrix must be square."""
        adj = []
        for i, row in enumerate(rows, 1):
            entries = []
            for j, token in enumerate(row, 1):
                try:
                    # any other string, such as "+2", "1_0" or a non-ASCII digit, fails in index()
                    decimal = isinstance(token, str) and _DECIMAL.fullmatch(token)
                    x = int(token) if decimal else index(token)
                except (TypeError, ValueError):
                    raise ValueError(f"row {i}, column {j}: not an integer: {token!r}") from None
                if x < 0:
                    raise ValueError(f"row {i}, column {j}: negative entry {x}")
                entries.append(x)
            adj.append(tuple(entries))
        n = len(adj)
        for i, row in enumerate(adj, 1):
            if len(row) != n:
                raise ValueError(
                    f"row {i} has {len(row)} entries, expected {n} (matrix must be square)"
                )
        return MultiDigraph(tuple(adj))

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def edge_count(self) -> int:
        return sum(sum(row) for row in self.adj)

    @property
    def weight(self) -> int:
        return self.edge_count - self.n

    def out_degrees(self) -> tuple[int, ...]:
        return tuple(map(sum, self.adj))

    def in_degrees(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*self.adj)))

    def __repr__(self) -> str:
        return f"MultiDigraph({format_graph(self)!r})"


EMPTY = MultiDigraph(())


def is_semistable(g: MultiDigraph) -> bool:
    """deg-(v) >= 1, deg+(v) >= 1 and deg-(v) + deg+(v) >= 3 at every vertex."""
    return _semistable(g.out_degrees(), g.in_degrees())


def _degrees(adj: Matrix, cols: Matrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The out- and in-degrees of adj, given its columns."""
    return tuple(map(sum, adj)), tuple(map(sum, cols))


def _semistable(outs: tuple[int, ...], ins: tuple[int, ...]) -> bool:
    """`is_semistable` of a graph with these out- and in-degrees."""
    return all(o >= 1 and i >= 1 and o + i >= 3 for o, i in zip(outs, ins))


def is_stable(g: MultiDigraph) -> bool:
    """deg+(v) >= 2 and deg-(v) >= 2 at every vertex; the empty graph is stable."""
    outs, ins = g.out_degrees(), g.in_degrees()
    return all(o >= 2 for o in outs) and all(i >= 2 for i in ins)


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------


def _reach(masks: list[int], start: int) -> int:
    """Bit mask of the vertices reachable from start, where bit u of
    masks[v] is set when an arc leads from v to u."""
    seen = frontier = 1 << start
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~seen
        seen |= frontier
    return seen


def _neighbour_masks(adj: Matrix, cols: Matrix) -> tuple[list[int], list[int]]:
    """Per vertex, the bit masks of its out- and in-neighbours, from the
    rows and the columns of adj."""
    bits = [1 << u for u in range(len(adj))]
    return [sum(compress(bits, row)) for row in adj], [sum(compress(bits, col)) for col in cols]


def induced_subgraph(g: MultiDigraph, vertices: list[int]) -> MultiDigraph:
    return MultiDigraph(_leaf_matrix(g.adj, vertices))


def connectivity(g: MultiDigraph) -> list[tuple[list[int], bool]]:
    """The weak components of g as increasing vertex lists, by least vertex,
    each with whether it is strongly connected.  Reachability runs on one int
    bit mask per vertex for its out-, in- and either-direction neighbours.
    It computes no canonical form, so it never runs `symmetry`."""
    vertices = range(g.n)
    parts = _connectivity(g.adj, tuple(zip(*g.adj)))
    return [([v for v in vertices if comp >> v & 1], strong) for comp, strong in parts]


def _connectivity(adj: Matrix, cols: Matrix) -> list[tuple[int, bool]]:
    """`connectivity` of adj, given its columns, each component as the bit
    mask of its vertices: a record needs only how many there are and whether
    each is strongly connected.  When the forward and the backward reach of a
    component's least vertex are equal, that set is closed under arcs either
    way, so it is the whole weak component and strongly connected: a
    strongly connected graph takes two sweeps, and only a component that is
    not strongly connected takes a third."""
    outs, ins = _neighbour_masks(adj, cols)
    remaining = (1 << len(adj)) - 1
    parts = []
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = _reach(outs, start)
        strong = comp == _reach(ins, start)
        if not strong:
            comp = _reach([o | i for o, i in zip(outs, ins)], start)
        parts.append((comp, strong))
        remaining &= ~comp
    return parts


def is_strongly_connected(g: MultiDigraph) -> bool:
    if g.n == 0:
        raise ValueError("strong connectivity is undefined for the empty graph")
    # one weak component, the whole graph, and it strongly connected
    return _connectivity(g.adj, tuple(zip(*g.adj))) == [((1 << g.n) - 1, True)]


# ---------------------------------------------------------------------------
# canonical form, isomorphism, automorphisms
# ---------------------------------------------------------------------------


class Symmetry(NamedTuple):
    """Canonical form of a matrix, generators of its vertex automorphism
    group, and the order of that group.  The generators act on the matrix
    that was searched, `symmetry`'s input, which is `matrix` itself for the
    results of the census fill and the catalog reader (`_leaf_search`)."""

    matrix: Matrix
    generators: tuple[tuple[int, ...], ...]
    order: int


def refine(adj: Matrix, cols: Matrix, cells, queue=None, ordered: bool = False):
    """Refine the ordered partition `cells` of the vertices of adj (columns
    `cols`) to an equitable one by a splitter queue (McKay & Piperno 2014): a
    splitter W splits each cell by the multiset over w in W of (edges v -> w,
    edges w -> v), its pieces in place in ascending signature order.  `queue`
    indexes the first splitters in `cells`, all when None; a split cell that
    was queued queues all its pieces, any other all but the first largest.
    Only positions are read, never labels.  With `ordered`, returns None at
    the first vertex whose signature is below its predecessor's in its cell."""
    n = len(adj)
    if len(cells) == n:  # already discrete: nothing to split or compare
        return cells
    order: list[int] = []
    ends = {}  # start -> end of each cell, as positions in order
    for cell in cells:
        start = len(order)
        order += cell
        ends[start] = len(order)
    starts = list(ends)
    queue = starts if queue is None else [starts[i] for i in queue]
    queued = set(queue)
    for first in queue:
        if len(ends) == n:
            break
        queued.remove(first)
        splitter = order[first : ends[first]]
        single = len(splitter) == 1  # then pick returns the entry, not a tuple
        pick = itemgetter(*splitter)
        start = 0
        while start < n:
            end = ends[start]
            if end - start > 1:
                cell = order[start:end]
                sigs = []
                for v in cell:
                    if single:
                        sig = pick(adj[v]), pick(cols[v])
                    else:
                        sig = sorted(zip(pick(adj[v]), pick(cols[v])))
                    if ordered and sigs and sig < sigs[-1]:
                        return None
                    sigs.append(sig)
                if sigs.count(sigs[0]) < len(sigs):
                    if not ordered:  # a stable sort by signature alone
                        sigs, order[start:end] = zip(*sorted(zip(sigs, cell), key=itemgetter(0)))
                    cuts = [start + p for p in range(1, len(cell)) if sigs[p] != sigs[p - 1]]
                    pieces = list(zip([start, *cuts], [*cuts, end]))
                    ends.update(pieces)
                    if start not in queued:
                        pieces.remove(max(pieces, key=lambda piece: piece[1] - piece[0]))
                    fresh = [a for a, _ in pieces if a not in queued]
                    queue += fresh  # the loop over queue takes them in turn
                    queued.update(fresh)
            start = end
    return [order[a : ends[a]] for a in sorted(ends)]


def symmetry(adj: Matrix) -> Symmetry:
    """Search the vertex orderings of adj that partition refinement admits.

    Refine (`refine`) from cells of equal (out, in, loops) type in
    descending order of type, the fill's vertex order.  Individualize: the
    first cell with more than one vertex branches into one child per vertex,
    a cell of its own and the only one queued to refine again.  Every
    discrete partition is a leaf ordering, read off as a matrix.  So is a
    partition whose cells of several vertices each hold twins
    (`_twin_cells`), read in cell order: every ordering of such a node's
    twins gives the same matrix, and the automorphisms fixing its path
    permute each cell freely, so the first such leaf adds the swaps of
    adjacent twins to the generators and the product of its cell factorials
    to the group order.  So when the first refinement is already discrete,
    or leaves only twins together, it is the one leaf, and a discrete one
    has the trivial group; its matrix is adj itself when it keeps adj's
    vertex order, as for a matrix of at most one vertex or one whose types
    are distinct and descending.

    Prune: two leaves with equal matrices give an automorphism, and the
    search jumps back to where their paths part, since the automorphism maps
    one subtree onto the other.  A child is skipped when an automorphism
    fixing the node's individualized vertices maps it to a tried sibling;
    the tried siblings' orbits grow by one closure per tried vertex, and are
    computed again only when the search below has found new generators.

    The canonical matrix is the least leaf matrix, so equal canonical
    matrices mean isomorphic matrices.  The group order is the product, along
    the first path, of each chosen vertex's orbit under the automorphisms
    found that fix the vertices chosen before it.
    """
    cols = tuple(zip(*adj))
    types = _types(adj, *_degrees(adj, cols))
    start = sorted(range(len(adj)), key=types.__getitem__, reverse=True)  # stable: ties by label
    cells = refine(adj, cols, [list(run) for _, run in groupby(start, types.__getitem__)])
    return _search(adj, cols, cells, None)


def _type_runs(types) -> list[list[int]] | None:
    """The runs of equal (out, in, loops) type along a matrix whose vertex
    types are `types` (`_types`), or None when a type rises: the start of
    the leaf test (`_leaf_search`)."""
    if any(map(lt, types, types[1:])):
        return None
    return [list(run) for _, run in groupby(range(len(types)), types.__getitem__)]


def _leaf_search(adj: Matrix, cols: Matrix, runs) -> Symmetry | None:
    """The canonical test of the census fill and of the catalog reader:
    `symmetry(adj)`, its matrix the tuple adj itself, when adj (columns
    `cols`) is its class's canonical matrix, else None.  First the leaf
    test: `refine` of `runs`, adj's runs of equal type (`_type_runs`),
    `ordered`, must keep each vertex in place.  Then sorting the types and
    refining move no vertex, so the search starts from `symmetry`'s cells;
    a discrete refinement is adj's own order, its canonical matrix, and is
    returned as `_search` would return it, without the search's set-up.
    Else `_search` runs with adj as its candidate: it gives up at the first
    leaf below adj, and at the end when the least leaf is not adj.
    Every canonical matrix passes the leaf test, since the least leaf lists
    the cells of a refinement of the descending type runs in order, and
    then the search runs whole and returns it unchanged."""
    cells = refine(adj, cols, runs, ordered=True)
    if cells is None:
        return None
    if len(cells) == len(adj):
        return Symmetry(adj, (), 1)
    return _search(adj, cols, cells, adj)


def _types(adj: Matrix, outs: tuple[int, ...], ins: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """The (out, in, loops) type of each vertex of adj."""
    return list(zip(outs, ins, map(getitem, adj, range(len(adj)))))


def _search(adj: Matrix, cols: Matrix, cells, candidate: Matrix | None) -> Symmetry | None:
    """The search of `symmetry` from the refined start `cells`, given the
    columns `cols` of adj.  A discrete start is its one leaf, with the
    trivial group.

    A `candidate` matrix makes the search a canonical test (`_leaf_search`):
    it returns None at the first leaf whose matrix is below the candidate,
    and at the end when the least leaf is not the candidate, since a
    candidate need not be a leaf of its own search; else its result, with
    the candidate tuple itself as the matrix.  A candidate that passes runs
    the whole search, so its generators and order are `symmetry`'s."""
    n = len(adj)
    generators: list[tuple[int, ...]] = []
    first = best = None  # (leaf matrix, leaf ordering, path) of the first and least leaves
    below_first = 1  # the order of the group fixing the first leaf's path

    def moves(path: list[int]):
        """A vertex's images under the generators found that fix path."""
        gens = [g for g in generators if all(g[v] == v for v in path)]
        return lambda a: [g[a] for g in gens]

    def leaf(order: list[int], path: list[int], wide: list[list[int]]) -> int:
        nonlocal first, best, below_first
        matrix = _leaf_matrix(adj, order)
        if candidate is not None and matrix < candidate:
            return -1  # below every depth, so each ancestor returns at once
        if first is None:
            first = best = (matrix, order, path)
            for cell in wide:  # the group fixing the path permutes each twin cell freely
                below_first *= math.factorial(len(cell))
                for u, v in zip(cell, cell[1:]):
                    phi = list(range(n))
                    phi[u], phi[v] = v, u
                    generators.append(tuple(phi))
            return len(path)
        for ref_matrix, ref_order, ref_path in (first, best):
            if matrix == ref_matrix:
                phi = [0] * n
                for a, b in zip(ref_order, order):
                    phi[a] = b
                generators.append(tuple(phi))
                depth = 0
                while path[depth] == ref_path[depth]:
                    depth += 1
                return depth  # the automorphism maps the subtree below there onto this one
        if matrix < best[0]:
            best = (matrix, order, path)
        return len(path)

    def visit(cells: list[list[int]], path: list[int]) -> int:
        """Search below a node.  Return its own depth, or the smaller depth of
        the ancestor at which the search resumes after an automorphism."""
        depth = len(path)
        wide = _twin_cells(adj, cols, cells)
        if wide is not None:
            return leaf([*chain.from_iterable(cells)], path, wide)
        target = next(t for t, cell in enumerate(cells) if len(cell) > 1)
        tried: list[int] = []
        pruned: set[int] = set()  # the orbits of tried under the generators fixing path
        known = 0  # how many generators pruned was computed with
        cell = cells[target]
        for v in cell:
            if generators and tried:
                if len(generators) > known:  # found below: the orbits may have merged
                    known = len(generators)
                    pruned = _closure(tried, moves(path))
                elif tried[-1] not in pruned:  # the one vertex tried since
                    pruned |= _closure(tried[-1:], moves(path))
                if v in pruned:
                    continue
            tried.append(v)
            # v keeps the first position of its cell, and refinement splits
            # cells in place, so a leaf ordering records the whole path; the
            # jump back in leaf() relies on that
            child = cells[:target] + [[v], [u for u in cell if u != v]] + cells[target + 1 :]
            back = visit(refine(adj, cols, child, [target]), path + [v])
            if back < depth:
                return back
        return depth

    stopped = visit(cells, []) < 0
    del visit  # it refers to itself: a cycle that only the collector would free
    if candidate is not None and (stopped or best[0] != candidate):
        return None
    # a candidate that passes is returned as the tuple itself, whichever leaf gave it
    matrix = best[0] if candidate is None else candidate
    first_path = first[2]
    order = math.prod(len(_closure([v], moves(first_path[:d]))) for d, v in enumerate(first_path))
    return Symmetry(matrix, tuple(generators), order * below_first)


def _closure(seeds, images) -> set:
    """Everything reachable from seeds, where images(x) lists the image of x
    under each generator: an orbit, or the group as the identity's closure."""
    seen, stack = set(seeds), list(seeds)
    while stack:
        for y in images(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _twins(adj: Matrix, cols: Matrix, cell: list[int]) -> bool:
    """Whether the vertices of cell are twins: swapping any two of them is an
    automorphism.  Twins of one vertex are twins of each other (the swap of
    v and w is the swap of u and v conjugated by that of u and w), so cell[0]
    is compared with the rest: swapping u and v maps the graph to itself when
    row v and column v, with their entries u and v swapped, are row u and
    column u."""
    u = cell[0]
    row, col = list(adj[u]), list(cols[u])
    for v in cell[1:]:
        r, c = list(adj[v]), list(cols[v])
        r[u], r[v], c[u], c[v] = r[v], r[u], c[v], c[u]
        if r != row or c != col:
            return False
    return True


def _twin_cells(adj: Matrix, cols: Matrix, cells) -> list[list[int]] | None:
    """The cells of more than one vertex of an equitable partition when each
    holds twins, else None.  Refinement never separates twins, and any order
    of them gives the same matrix, so such a node has one leaf matrix; the
    group fixing its individualized vertices permutes each cell freely."""
    wide = [cell for cell in cells if len(cell) > 1]
    return wide if all(_twins(adj, cols, cell) for cell in wide) else None


def _leaf_matrix(adj: Matrix, order: list[int]) -> Matrix:
    """adj on the vertices in `order`, in that order: adj itself, not a copy,
    when order lists every vertex in place, as for a leaf already in canonical
    order and the one component of a connected graph (adj is a tuple)."""
    n = len(order)
    if n == len(adj) and order == list(range(n)):
        return adj
    if n < 2:  # itemgetter of one index returns the entry, not a tuple
        return tuple((adj[a][a],) for a in order)
    pick = itemgetter(*order)
    return tuple([pick(adj[a]) for a in order])


def canonical_key(g: MultiDigraph) -> tuple[int, ...]:
    """Vertex count followed by the rows of the canonical matrix from `symmetry`.

    Two graphs share a key exactly when they are isomorphic as multidigraphs
    (parallel edges unlabeled).  The key is the least matrix among the leaves
    of the refinement search, not the least over all vertex permutations.
    """
    return _matrix_key(symmetry(g.adj).matrix)


def _matrix_key(matrix: Matrix) -> tuple[int, ...]:
    """The `canonical_key` of a graph whose canonical matrix is `matrix`,
    such as a catalog record's: no search."""
    return (len(matrix), *chain.from_iterable(matrix))


def canonical_form(g: MultiDigraph) -> MultiDigraph:
    return MultiDigraph(symmetry(g.adj).matrix)


def automorphisms(g: MultiDigraph) -> tuple[tuple[int, ...], ...]:
    """Vertex permutations phi with adj[phi(i)][phi(j)] = adj[i][j] everywhere,
    sorted: the group generated by the generators `symmetry` finds."""
    return tuple(sorted(_group(g.n, symmetry(g.adj).generators)))


def _group(n: int, generators) -> set[tuple[int, ...]]:
    """The group of permutations of range(n) that the generators generate."""
    return _closure([tuple(range(n))], lambda p: [tuple(map(s.__getitem__, p)) for s in generators])


def aut_order(g: MultiDigraph) -> int:
    """Order of the automorphism group with parallel edges distinguishable.

    Product of the factorials of all multiplicities times the number of
    vertex permutations stabilizing the matrix.
    """
    return _label_factor(g.adj) * symmetry(g.adj).order


def _label_factor(adj: Matrix) -> int:
    """The product of the factorials of all multiplicities (parallel edges)."""
    return math.prod(math.factorial(x) for row in adj for x in row if x > 1)


def relabel(g: MultiDigraph, per) -> MultiDigraph:
    """Graph whose vertex i is vertex per[i] of g."""
    return MultiDigraph(_leaf_matrix(g.adj, list(per)))


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------
# Rows of space-separated decimal integers; rows joined by ';' on a command
# line or by newlines in files.  "0 2;2 0" is the double 2-cycle.


def parse_graph(text: str) -> MultiDigraph:
    """Split text into rows of tokens; `MultiDigraph.from_rows` checks them."""
    return MultiDigraph.from_rows(
        row.split() for row in text.replace(";", "\n").splitlines() if row.strip()
    )


def format_graph(g: MultiDigraph) -> str:
    return ";".join(" ".join(str(x) for x in row) for row in g.adj)

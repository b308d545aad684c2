"""Dense multidigraph values and their basic invariants.

A graph is an n x n matrix of nonnegative integers: entry (i, j) counts the
directed edges i -> j, and a diagonal entry counts loops.  One loop adds 1 to
the out-degree and 1 to the in-degree of its vertex (so a single vertex with
two loops is already stable).  The empty graph (n = 0) is a valid value.
`MultiDigraph`, like every value type of the package, is a NamedTuple, so a
graph compares and hashes as its matrix tuple, in C.

Canonical forms and automorphism groups come from one search, `symmetry`:
partition refinement with individualization and automorphism pruning, after
McKay & Piperno, "Practical graph isomorphism, II" (J. Symbolic Comput. 60,
2014).  It is exact for every input; its cost grows with how much symmetry
refinement fails to break, not with n!, so family graphs with dozens of
vertices take milliseconds.  The search returns the canonical matrix itself
(`Symmetry.matrix`), with generators and the order of the vertex group:
`canonical_form` wraps the matrix, `canonical_key` is the vertex count
followed by its rows, and the enumeration collects it.  The one memo is per
graph: `canonical_key`, `canonical_form`, `automorphisms` and `aut_order`
share the search result of each `MultiDigraph`.  `symmetry` itself keeps
nothing, and no census or catalog record fills the memo: a cold record
reads the search its class kept in the fill, and a reread one searches its
stored matrix once, directly.
"""

from __future__ import annotations

import math
import re
from itertools import chain, compress
from operator import index, itemgetter
from typing import NamedTuple

Matrix = tuple[tuple[int, ...], ...]

_DECIMAL = re.compile(r"-?[0-9]+")

__all__ = [
    "Matrix",
    "MultiDigraph",
    "EMPTY",
    "is_semistable",
    "is_stable",
    "weak_components",
    "connectivity",
    "is_strongly_connected",
    "Symmetry",
    "symmetry",
    "canonical_key",
    "canonical_form",
    "are_isomorphic",
    "automorphisms",
    "aut_order",
    "disjoint_union",
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
                    raise _negative_entry(i, j, x)
                entries.append(x)
            adj.append(tuple(entries))
        return _square(tuple(adj))

    @staticmethod
    def from_int_rows(rows) -> "MultiDigraph":
        """`from_rows` of rows whose entries are all of type int, as a
        caller that has scanned them already knows: only the negative-entry
        and square checks are left, with the same messages."""
        for i, row in enumerate(rows, 1):
            if row and min(row) < 0:
                j, x = next((j, x) for j, x in enumerate(row, 1) if x < 0)
                raise _negative_entry(i, j, x)
        return _square(tuple(map(tuple, rows)))

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
        return tuple(sum(row) for row in self.adj)

    def in_degrees(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*self.adj)))

    def edges(self) -> list[tuple[int, int, int]]:
        """All edges as (tail, head, label) with labels 0..adj[i][j]-1."""
        return [
            (i, j, t)
            for i, row in enumerate(self.adj)
            for j, mult in enumerate(row)
            for t in range(mult)
        ]

    def __repr__(self) -> str:
        return f"MultiDigraph({format_graph(self)!r})"


EMPTY = MultiDigraph(())


def _negative_entry(i: int, j: int, x: int) -> ValueError:
    return ValueError(f"row {i}, column {j}: negative entry {x}")


def _square(adj: Matrix) -> MultiDigraph:
    n = len(adj)
    for i, row in enumerate(adj, 1):
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} entries, expected {n} (matrix must be square)")
    return MultiDigraph(adj)


def is_semistable(g: MultiDigraph) -> bool:
    """deg-(v) >= 1, deg+(v) >= 1 and deg-(v) + deg+(v) >= 3 at every vertex."""
    return _semistable(g.out_degrees(), g.in_degrees())


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


def _neighbour_masks(adj: Matrix) -> tuple[list[int], list[int]]:
    """Per vertex, the bit masks of its out- and in-neighbours."""
    bits = [1 << u for u in range(len(adj))]
    outs = [sum(compress(bits, row)) for row in adj]
    return outs, [sum(compress(bits, col)) for col in zip(*adj)]


def induced_subgraph(g: MultiDigraph, vertices: list[int]) -> MultiDigraph:
    return MultiDigraph(
        tuple(tuple(g.adj[u][v] for v in vertices) for u in vertices)
    )


def weak_components(g: MultiDigraph) -> list[MultiDigraph]:
    """Induced subgraphs on the undirected components, in canonical-key order."""
    return sorted((induced_subgraph(g, comp) for comp, _ in connectivity(g)), key=canonical_key)


def connectivity(g: MultiDigraph) -> list[tuple[list[int], bool]]:
    """The weak components of g as increasing vertex lists, by least vertex,
    each with whether it is strongly connected.  Reachability runs on one int
    bit mask per vertex for its out-, in- and either-direction neighbours.
    Unlike `weak_components` it computes no canonical form, so it never runs
    `symmetry`."""
    outs, ins = _neighbour_masks(g.adj)
    either = [o | i for o, i in zip(outs, ins)]
    remaining = (1 << g.n) - 1
    parts = []
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = _reach(either, start)
        strong = _reach(outs, start) == comp == _reach(ins, start)
        parts.append(([v for v in range(start, g.n) if comp >> v & 1], strong))
        remaining &= ~comp
    return parts


def is_strongly_connected(g: MultiDigraph) -> bool:
    if g.n == 0:
        raise ValueError("strong connectivity is undefined for the empty graph")
    outs, ins = _neighbour_masks(g.adj)
    full = (1 << g.n) - 1
    return _reach(outs, 0) == full == _reach(ins, 0)


# ---------------------------------------------------------------------------
# canonical form, isomorphism, automorphisms
# ---------------------------------------------------------------------------


class Symmetry(NamedTuple):
    """Canonical form of a matrix, generators of its vertex automorphism
    group, and the order of that group."""

    matrix: Matrix
    generators: tuple[tuple[int, ...], ...]
    order: int


def symmetry(adj: Matrix) -> Symmetry:
    """Search the vertex orderings of adj that partition refinement admits.

    Refine: vertices start in cells by loop count; a cell is split by each
    vertex's multiset of (cell, out-multiplicity, in-multiplicity) over its
    neighbours, and the new cells are ordered by that signature, so no step
    depends on the vertex labels.  Individualize: the first cell with more
    than one vertex branches into one child per vertex, which becomes a cell
    of its own before refining again.  Every discrete partition is a leaf
    ordering, read off as a matrix; when the first refinement is already
    discrete, that one leaf is returned with the trivial group at once.

    Prune: two leaves with equal matrices give an automorphism, and the
    search jumps back to where their paths part, since the automorphism maps
    one subtree onto the other.  A child is skipped when an automorphism
    fixing the node's individualized vertices maps it to a tried sibling.

    The canonical matrix is the least leaf matrix, so equal canonical
    matrices mean isomorphic matrices.  The group order is the product, along
    the first path, of each chosen vertex's orbit under the automorphisms
    found that fix the vertices chosen before it.
    """
    n = len(adj)
    if n <= 1:
        return Symmetry(adj, (), 1)  # its own canonical form, no other ordering
    # links[v]: (u, multiplicity v -> u, multiplicity u -> v) for each u joined
    # to v; a loop pairs v with itself
    links = [
        [(u, adj[v][u], adj[u][v]) for u in range(n) if adj[v][u] or adj[u][v]]
        for v in range(n)
    ]

    def refine(cells: list[list[int]]) -> list[list[int]]:
        while len(cells) < n:
            cell_of = [0] * n
            for index, cell in enumerate(cells):
                for v in cell:
                    cell_of[v] = index
            split: list[list[int]] = []
            for cell in cells:
                if len(cell) == 1:
                    split.append(cell)
                    continue
                parts: dict[tuple, list[int]] = {}
                for v in cell:
                    signature = tuple(sorted([(cell_of[u], o, i) for u, o, i in links[v]]))
                    parts.setdefault(signature, []).append(v)
                split.extend(parts[signature] for signature in sorted(parts))
            if len(split) == len(cells):
                return cells
            cells = split
        return cells

    start: dict[int, list[int]] = {}
    for v in range(n):
        start.setdefault(adj[v][v], []).append(v)
    cells = refine([start[loops] for loops in sorted(start)])
    if len(cells) == n:  # already discrete: one leaf, so the group is trivial
        return Symmetry(_leaf_matrix(adj, [cell[0] for cell in cells]), (), 1)

    generators: list[tuple[int, ...]] = []
    first = best = None  # (leaf matrix, leaf ordering, path) of the first and least leaves

    def fixing(path: list[int]) -> list[tuple[int, ...]]:
        return [g for g in generators if all(g[v] == v for v in path)]

    def orbit(seeds: list[int], gens: list[tuple[int, ...]]) -> set[int]:
        seen, stack = set(seeds), list(seeds)
        while stack:
            a = stack.pop()
            for g in gens:
                if g[a] not in seen:
                    seen.add(g[a])
                    stack.append(g[a])
        return seen

    def leaf(order: list[int], path: list[int]) -> int:
        nonlocal first, best
        matrix = _leaf_matrix(adj, order)
        if first is None:
            first = best = (matrix, order, path)
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
        target = next((t for t, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            return leaf([cell[0] for cell in cells], path)
        tried: list[int] = []
        cell = cells[target]
        for v in cell:
            if generators and v in orbit(tried, fixing(path)):
                continue
            tried.append(v)
            # v keeps the first position of its cell, and refinement splits
            # cells in place, so a leaf ordering records the whole path; the
            # jump back in leaf() relies on that
            child = cells[:target] + [[v], [u for u in cell if u != v]] + cells[target + 1 :]
            back = visit(refine(child), path + [v])
            if back < depth:
                return back
        return depth

    visit(cells, [])
    first_path = first[2]
    order = math.prod(len(orbit([v], fixing(first_path[:d]))) for d, v in enumerate(first_path))
    return Symmetry(best[0], tuple(generators), order)


def _leaf_matrix(adj: Matrix, order: list[int]) -> Matrix:
    pick = itemgetter(*order)  # n > 1, so pick returns a tuple
    return tuple([pick(adj[a]) for a in order])


_searched: dict[MultiDigraph, Symmetry] = {}


def _symmetry_of(g: MultiDigraph) -> Symmetry:
    """`symmetry` of g, searched once per graph; `canonical_key`,
    `canonical_form`, `automorphisms` and `aut_order` all read it."""
    found = _searched.get(g)
    if found is None:
        found = _searched[g] = symmetry(g.adj)
    return found


def canonical_key(g: MultiDigraph) -> tuple[int, ...]:
    """Vertex count followed by the rows of the canonical matrix from `symmetry`.

    Two graphs share a key exactly when they are isomorphic as multidigraphs
    (parallel edges unlabeled).  The key is the least matrix among the leaves
    of the refinement search, not the least over all vertex permutations.
    """
    return (g.n, *chain.from_iterable(_symmetry_of(g).matrix))


def canonical_form(g: MultiDigraph) -> MultiDigraph:
    return MultiDigraph(_symmetry_of(g).matrix)


def are_isomorphic(g: MultiDigraph, h: MultiDigraph) -> bool:
    return canonical_key(g) == canonical_key(h)


def automorphisms(g: MultiDigraph) -> tuple[tuple[int, ...], ...]:
    """Vertex permutations phi with adj[phi(i)][phi(j)] = adj[i][j] everywhere,
    sorted: the group generated by the generators `symmetry` finds."""
    identity = tuple(range(g.n))
    group = {identity}
    frontier = [identity]
    generators = _symmetry_of(g).generators
    while frontier:
        phi = frontier.pop()
        for s in generators:
            composed = tuple(s[a] for a in phi)
            if composed not in group:
                group.add(composed)
                frontier.append(composed)
    return tuple(sorted(group))


def aut_order(g: MultiDigraph) -> int:
    """Order of the automorphism group with parallel edges distinguishable.

    Product of the factorials of all multiplicities times the number of
    vertex permutations stabilizing the matrix.
    """
    return _label_factor(g.adj) * _symmetry_of(g).order


def _label_factor(adj: Matrix) -> int:
    """The product of the factorials of all multiplicities (parallel edges)."""
    return math.prod(math.factorial(x) for row in adj for x in row if x > 1)


def disjoint_union(gs: list[MultiDigraph]) -> MultiDigraph:
    total = sum(g.n for g in gs)
    out = [[0] * total for _ in range(total)]
    offset = 0
    for g in gs:
        for i in range(g.n):
            for j in range(g.n):
                out[offset + i][offset + j] = g.adj[i][j]
        offset += g.n
    return MultiDigraph(tuple(tuple(row) for row in out))


def relabel(g: MultiDigraph, per) -> MultiDigraph:
    """Graph whose vertex i is vertex per[i] of g."""
    n = g.n
    return MultiDigraph(tuple(tuple(g.adj[per[i]][per[j]] for j in range(n)) for i in range(n)))


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


def format_graph(g: MultiDigraph, sep: str = ";") -> str:
    return sep.join(" ".join(str(x) for x in row) for row in g.adj)

"""Dense multidigraph values and their basic invariants.

A graph is an n x n matrix of nonnegative integers: entry (i, j) counts the
directed edges i -> j, and a diagonal entry counts loops.  One loop adds 1 to
the out-degree and 1 to the in-degree of its vertex (so a single vertex with
two loops is already stable).  The empty graph (n = 0) is a valid value.

Canonical forms and automorphism groups come from one search, `symmetry`:
partition refinement with individualization and automorphism pruning, after
McKay & Piperno, "Practical graph isomorphism, II" (J. Symbolic Comput. 60,
2014).  It is exact for every input; its cost grows with how much symmetry
refinement fails to break, not with n!, so family graphs with dozens of
vertices take milliseconds.  The one memo is per graph: `canonical_key`,
`automorphisms` and `aut_order` share the search result of each
`MultiDigraph`, while `symmetry` itself keeps nothing, so the raw matrices
the enumeration passes to it are not retained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

Matrix = tuple[tuple[int, ...], ...]

__all__ = [
    "Matrix",
    "MultiDigraph",
    "EMPTY",
    "is_semistable",
    "is_stable",
    "weak_components",
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


@dataclass(frozen=True)
class MultiDigraph:
    """Immutable multidigraph given by its adjacency matrix."""

    adj: Matrix

    @staticmethod
    def from_rows(rows) -> "MultiDigraph":
        adj = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(adj)
        for i, row in enumerate(adj):
            if len(row) != n:
                raise ValueError(f"row {i + 1} has {len(row)} entries, expected {n}")
            for j, x in enumerate(row):
                if x < 0:
                    raise ValueError(f"row {i + 1}, column {j + 1}: negative entry {x}")
        return MultiDigraph(adj)

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
        n = self.n
        return tuple(sum(self.adj[i][v] for i in range(n)) for v in range(n))

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


def is_semistable(g: MultiDigraph) -> bool:
    """deg-(v) >= 1, deg+(v) >= 1 and deg-(v) + deg+(v) >= 3 at every vertex."""
    outs, ins = g.out_degrees(), g.in_degrees()
    return all(o >= 1 and i >= 1 and o + i >= 3 for o, i in zip(outs, ins))


def is_stable(g: MultiDigraph) -> bool:
    """deg+(v) >= 2 and deg-(v) >= 2 at every vertex; the empty graph is stable."""
    outs, ins = g.out_degrees(), g.in_degrees()
    return all(o >= 2 for o in outs) and all(i >= 2 for i in ins)


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------


def _undirected_reach(adj: Matrix, start: int) -> set[int]:
    n = len(adj)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in range(n):
            if v not in seen and (adj[u][v] > 0 or adj[v][u] > 0):
                seen.add(v)
                stack.append(v)
    return seen


def _directed_reach(adj: Matrix, start: int, reverse: bool = False) -> set[int]:
    n = len(adj)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in range(n):
            mult = adj[v][u] if reverse else adj[u][v]
            if mult > 0 and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def induced_subgraph(g: MultiDigraph, vertices: list[int]) -> MultiDigraph:
    return MultiDigraph(
        tuple(tuple(g.adj[u][v] for v in vertices) for u in vertices)
    )


def weak_components(g: MultiDigraph) -> list[MultiDigraph]:
    """Induced subgraphs on the undirected components, in canonical-key order."""
    remaining = set(range(g.n))
    parts = []
    while remaining:
        comp = _undirected_reach(g.adj, min(remaining))
        parts.append(induced_subgraph(g, sorted(comp)))
        remaining -= comp
    parts.sort(key=canonical_key)
    return parts


def is_strongly_connected(g: MultiDigraph) -> bool:
    if g.n == 0:
        raise ValueError("strong connectivity is undefined for the empty graph")
    full = set(range(g.n))
    return _directed_reach(g.adj, 0) == full and _directed_reach(g.adj, 0, reverse=True) == full


# ---------------------------------------------------------------------------
# canonical form, isomorphism, automorphisms
# ---------------------------------------------------------------------------


class Symmetry(NamedTuple):
    """Canonical flattening of a matrix, generators of its vertex
    automorphism group, and the order of that group."""

    flat: tuple[int, ...]
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
    ordering, read off as a matrix.

    Prune: two leaves with equal matrices give an automorphism, and the
    search jumps back to where their paths part, since the automorphism maps
    one subtree onto the other.  A child is skipped when an automorphism
    fixing the node's individualized vertices maps it to a tried sibling.

    The flattening is the least leaf matrix, so equal flattenings mean
    isomorphic matrices.  The group order is the product, along the first
    path, of each chosen vertex's orbit under the automorphisms found that fix
    the vertices chosen before it.
    """
    n = len(adj)
    if n == 0:
        return Symmetry((), (), 1)
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
        flat = tuple(adj[a][b] for a in order for b in order)
        if first is None:
            first = best = (flat, order, path)
            return len(path)
        for ref_flat, ref_order, ref_path in (first, best):
            if flat == ref_flat:
                phi = [0] * n
                for a, b in zip(ref_order, order):
                    phi[a] = b
                generators.append(tuple(phi))
                depth = 0
                while path[depth] == ref_path[depth]:
                    depth += 1
                return depth  # the automorphism maps the subtree below there onto this one
        if flat < best[0]:
            best = (flat, order, path)
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

    start: dict[int, list[int]] = {}
    for v in range(n):
        start.setdefault(adj[v][v], []).append(v)
    visit(refine([start[loops] for loops in sorted(start)]), [])
    first_path = first[2]
    order = math.prod(len(orbit([v], fixing(first_path[:d]))) for d, v in enumerate(first_path))
    return Symmetry(best[0], tuple(generators), order)


@cache
def _symmetry_of(g: MultiDigraph) -> Symmetry:
    """`symmetry` of g, searched once per graph; `canonical_key`,
    `automorphisms` and `aut_order` all read it."""
    return symmetry(g.adj)


def canonical_key(g: MultiDigraph) -> tuple[int, ...]:
    """Vertex count followed by the canonical flattening of adj from `symmetry`.

    Two graphs share a key exactly when they are isomorphic as multidigraphs
    (parallel edges unlabeled).  The key is the least matrix among the leaves
    of the refinement search, not the least over all vertex permutations.
    """
    return (g.n, *_symmetry_of(g).flat)


def canonical_form(g: MultiDigraph) -> MultiDigraph:
    key = canonical_key(g)
    n = key[0]
    flat = key[1:]
    return MultiDigraph(tuple(flat[i * n : (i + 1) * n] for i in range(n)))


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
    label_factor = math.prod(math.factorial(x) for row in g.adj for x in row)
    return label_factor * _symmetry_of(g).order


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
    rows = [r for r in text.replace(";", "\n").splitlines() if r.strip()]
    if not rows:
        return EMPTY
    parsed: list[list[int]] = []
    for i, row in enumerate(rows):
        entries = []
        for j, token in enumerate(row.split()):
            try:
                x = int(token)
            except ValueError:
                raise ValueError(f"row {i + 1}, column {j + 1}: not an integer: {token!r}") from None
            if x < 0:
                raise ValueError(f"row {i + 1}, column {j + 1}: negative entry {x}")
            entries.append(x)
        parsed.append(entries)
    n = len(parsed)
    for i, row in enumerate(parsed):
        if len(row) != n:
            raise ValueError(f"row {i + 1} has {len(row)} entries, expected {n} (matrix must be square)")
    return MultiDigraph(tuple(tuple(row) for row in parsed))


def format_graph(g: MultiDigraph, sep: str = ";") -> str:
    return sep.join(" ".join(str(x) for x in row) for row in g.adj)

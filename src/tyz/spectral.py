"""Independent derivations of z: characteristic polynomials, linear
subgraphs, and orbit sums.

The characteristic polynomial of a digraph is det(lambda*I - A); its
coefficient c_i equals the signed count sum((-1)^p(L)) over labelled linear
subgraphs L on exactly i vertices: vertex-disjoint simple directed cycles
(loops are 1-cycles), each arc one of the m(u, v) parallel edges u -> v,
and p(L) the number of cycles.  A `LinearSubgraph` is one of the support:
its set of (tail, head) arcs, the same whatever order its cycles were found
in, its p, and its labellings, the prod m(u, v) labelled ones it stands
for.  `charpoly` computes the coefficients by Berkowitz's division-free
recurrence, `coefficient_from_linear` by that count, all coefficients from
one enumeration.

Grouping the labelled linear subgraphs into orbits of the automorphism group
turns det(I - A) into the orbit sum

    z(G) = sum over orbit classes [L] of (-1)^(n + 1 + p(L)) / |stab(L)|,

the empty subgraph included with p = 0, over the group of matrix
automorphisms with a label bijection per vertex pair, of order |Aut(G)|.
A labelled linear subgraph uses each pair (u, v) once at most, so its orbit
is every labelling of the vertex orbit of its support.  So the vertex
generators close the support's linear subgraphs into orbits, each member
standing for its labellings, with stabilizer order |Aut(G)| / (|orbit|
labellings).  They are checked to close to a group of the search's order,
and each labelled orbit size to divide |Aut(G)|.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul
from typing import NamedTuple

from .graphs import Matrix, MultiDigraph, _closure, _group, _label_factor, is_semistable
from .graphs import is_strongly_connected, symmetry

__all__ = [
    "charpoly",
    "LinearSubgraph",
    "linear_subgraphs",
    "coefficient_from_linear",
    "z_orbit",
]

Arc = tuple[int, int]  # (tail, head)


def charpoly(g: MultiDigraph) -> tuple[int, ...]:
    """Coefficients (c_0, ..., c_n) of det(lambda*I - A), leading first, c_0 = 1.

    Berkowitz's division-free recurrence (Inf. Process. Lett. 18, 1984):
    with M the leading k x k block, r and c the rest of row and column k,
    and p_k = det(lambda*I - M), p_(k+1) = (lambda - A[k][k]) p_k -
    r adj(lambda*I - M) c, where the adjugate is a polynomial in M with the
    coefficients of p_k.  So from p_1 = (1, -A[0][0]) on, with walks[m] =
    r M^m c, new[d] = prev[d] - A[k][k] prev[d-1] - sum_m walks[m] prev[d-2-m],
    updated in place from the top down, as new[d] reads only prev[:d+1].
    n^4 steps on integers of about n log2(max row sum) bits: the all-ones
    100 x 100 matrix takes about 3 s (2-core x86 VM, CPython 3.11).  Full
    rows and columns stand in for their leading blocks: `map` stops at the
    length-k vector.
    """
    return _charpoly(g.adj, tuple(zip(*g.adj)))


def _charpoly(adj: Matrix, cols: Matrix) -> tuple[int, ...]:
    """`charpoly` of the graph of adj, given its columns."""
    n = len(adj)
    coeffs = [1, -adj[0][0]] if n else [1]
    for k in range(1, n):
        row, v, block = adj[k], cols[k][:k], adj[:k]
        walks = [sum(map(mul, row, v))]  # walks[m] = r M^m c
        for _ in range(k - 1):
            v = [sum(map(mul, block_row, v)) for block_row in block]
            walks.append(sum(map(mul, row, v)))
        a = row[k]
        coeffs.append(0)
        for d in range(k + 1, 1, -1):
            coeffs[d] -= a * coeffs[d - 1] + sum(map(mul, walks, coeffs[d - 2 :: -1]))
        coeffs[1] -= a
    return tuple(coeffs)


class LinearSubgraph(NamedTuple):
    """Vertex-disjoint simple directed cycles of the support: their arcs, the
    number p of cycles, and the labelled ones they stand for, prod m(u, v)."""

    arcs: frozenset[Arc]
    p: int
    labellings: int

    def vertex_count(self) -> int:
        return len(self.arcs)


def _simple_vertex_cycles(g: MultiDigraph) -> list[tuple[int, ...]]:
    """All simple directed cycles of the support, as vertex tuples starting
    at their smallest vertex."""
    n, adj = g.n, g.adj
    found: list[tuple[int, ...]] = []

    def extend(start: int, path: list[int], onpath: set[int]) -> None:
        u = path[-1]
        for v in range(start, n):
            if adj[u][v] == 0:
                continue
            if v == start:
                found.append(tuple(path))
            elif v not in onpath:
                path.append(v)
                onpath.add(v)
                extend(start, path, onpath)
                onpath.remove(v)
                path.pop()

    for s in range(n):
        extend(s, [s], {s})
    # each cycle appears once: rooted at its smallest vertex, in cycle order
    return found


def linear_subgraphs(g: MultiDigraph) -> list[LinearSubgraph]:
    """Every nonempty linear subgraph of the support, with its labellings."""
    cycles = []  # each cycle's arcs, vertex mask and labellings
    for verts in _simple_vertex_cycles(g):
        arcs = frozenset(zip(verts, verts[1:] + verts[:1]))
        cycles.append((arcs, sum(1 << u for u in verts), prod(g.adj[u][v] for u, v in arcs)))
    out: list[LinearSubgraph] = []

    def rec(i: int, used: int, sub: LinearSubgraph) -> None:
        for t in range(i, len(cycles)):
            arcs, mask, labellings = cycles[t]
            if mask & used:
                continue
            grown = LinearSubgraph(sub.arcs | arcs, sub.p + 1, sub.labellings * labellings)
            out.append(grown)
            rec(t + 1, used | mask, grown)

    rec(0, 0, LinearSubgraph(frozenset(), 0, 1))
    return out


def coefficient_from_linear(g: MultiDigraph) -> tuple[int, ...]:
    """Every coefficient (c_0, ..., c_n) of the characteristic polynomial:
    c_0 = 1, c_i the signed count of labelled linear subgraphs on i vertices."""
    coeffs = [1] + [0] * g.n
    for s in linear_subgraphs(g):
        coeffs[s.vertex_count()] += (-1) ** s.p * s.labellings
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# orbit sum
# ---------------------------------------------------------------------------


def z_orbit(g: MultiDigraph) -> Fraction:
    """z of a strongly connected semistable graph as an orbit sum over
    vertex orbits of the support's linear subgraphs."""
    if not is_semistable(g):
        raise ValueError("z_orbit requires a semistable graph")
    if g.n == 0 or not is_strongly_connected(g):
        raise ValueError("z_orbit requires a strongly connected graph")
    found = symmetry(g.adj)
    if len(_group(g.n, found.generators)) != found.order:
        raise AssertionError("the vertex generators' group disagrees with the search's order")
    order, seen, total = _label_factor(g.adj) * found.order, set(), Fraction(0)
    for sub in [LinearSubgraph(frozenset(), 0, 1), *linear_subgraphs(g)]:
        if sub in seen:
            continue
        # an automorphism keeps p and m(u, v), so only the arcs move
        orbit = _closure([sub], lambda x: [
            x._replace(arcs=frozenset((f[u], f[v]) for u, v in x.arcs)) for f in found.generators])
        stabilizer, rest = divmod(order, len(orbit) * sub.labellings)
        if rest:
            raise AssertionError("an orbit's size must divide the group order")
        seen |= orbit
        total += Fraction((-1) ** (g.n + 1 + sub.p), stabilizer)
    return total

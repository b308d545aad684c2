"""Independent derivations of z: characteristic polynomials, linear
subgraphs, and orbit sums.

The characteristic polynomial of a digraph is det(lambda*I - A); its
coefficient c_i equals the signed count sum((-1)^p(L)) over linear subgraphs
L on exactly i vertices, where a linear subgraph is a set of vertex-disjoint
simple directed cycles (loops are 1-cycles) with every parallel edge choice
distinguished, and p(L) is the number of cycles.  `charpoly` computes them
by Berkowitz's division-free recurrence, `coefficient_from_linear` by that
count.

Grouping the labeled linear subgraphs into orbits of the automorphism group
turns det(I - A) into the orbit sum

    z(G) = sum over orbit classes [L] of (-1)^(n + 1 + p(L)) / |stab(L)|,

the empty subgraph included with p = 0.  The acting group pairs a matrix
automorphism phi with a label bijection per vertex pair, so its order is
|Aut(G)| including the multiplicity factorials; orbit size times stabilizer
order is asserted to equal the group order on every orbit rather than
assumed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from operator import mul
from typing import NamedTuple

from .graphs import MultiDigraph, automorphisms, aut_order, is_semistable, is_strongly_connected

__all__ = [
    "charpoly",
    "LinearSubgraph",
    "linear_subgraphs",
    "coefficient_from_linear",
    "z_orbit",
]

Arc = tuple[int, int, int]  # (tail, head, parallel edge label)
Cycle = tuple[Arc, ...]


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
    n, adj = g.n, g.adj
    if n == 0:
        raise ValueError("charpoly needs at least one vertex")
    cols = tuple(zip(*adj))
    coeffs = [1, -adj[0][0]]
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
    """Vertex-disjoint simple directed cycles with labeled edge choices.

    Each cycle is stored rotated so its smallest vertex comes first, and the
    cycles are sorted, so equal subgraphs compare equal.
    """

    cycles: tuple[Cycle, ...]

    @property
    def p(self) -> int:
        return len(self.cycles)

    def vertex_count(self) -> int:
        return sum(len(c) for c in self.cycles)


def _canonical_cycle(arcs: list[Arc]) -> Cycle:
    start = min(range(len(arcs)), key=lambda t: arcs[t][0])
    return tuple(arcs[start:] + arcs[:start])


def _simple_vertex_cycles(g: MultiDigraph) -> list[tuple[int, ...]]:
    """All simple directed cycles of the support, as vertex tuples starting
    at their smallest vertex."""
    n = g.n
    adj = g.adj
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
    return sorted(found, key=lambda c: (len(c), c))


def _labeled_cycles(g: MultiDigraph) -> list[Cycle]:
    out: list[Cycle] = []
    for verts in _simple_vertex_cycles(g):
        arcs = [(verts[t], verts[(t + 1) % len(verts)]) for t in range(len(verts))]
        for labels in product(*(range(g.adj[u][v]) for u, v in arcs)):
            out.append(_canonical_cycle([(u, v, l) for (u, v), l in zip(arcs, labels)]))
    return out


def linear_subgraphs(g: MultiDigraph) -> list[LinearSubgraph]:
    """Every nonempty linear subgraph, distinct parallel-edge choices distinct."""
    cycles = _labeled_cycles(g)
    masks = [_vertex_mask(c) for c in cycles]
    out: list[LinearSubgraph] = []

    def rec(i: int, used: int, chosen: list[Cycle]) -> None:
        for t in range(i, len(cycles)):
            if masks[t] & used:
                continue
            chosen.append(cycles[t])
            out.append(LinearSubgraph(tuple(sorted(chosen))))
            rec(t + 1, used | masks[t], chosen)
            chosen.pop()

    rec(0, 0, [])
    return out


def _vertex_mask(cycle: Cycle) -> int:
    mask = 0
    for u, _, _ in cycle:
        mask |= 1 << u
    return mask


def coefficient_from_linear(g: MultiDigraph, i: int) -> int:
    """c_i of the characteristic polynomial as the signed linear-subgraph count."""
    if not 1 <= i <= g.n:
        raise ValueError("coefficient index out of range")
    return sum((-1) ** s.p for s in linear_subgraphs(g) if s.vertex_count() == i)


# ---------------------------------------------------------------------------
# orbit sum
# ---------------------------------------------------------------------------


def _full_group(g: MultiDigraph):
    """All pairs (phi, label bijections); the group of order |Aut(G)|."""
    pairs = [(u, v) for u in range(g.n) for v in range(g.n) if g.adj[u][v] > 0]
    label_choices = [list(permutations(range(g.adj[u][v]))) for u, v in pairs]
    for phi in automorphisms(g):
        for labels in product(*label_choices):
            yield phi, dict(zip(pairs, labels))


def _act(phi, labels, sub: LinearSubgraph) -> LinearSubgraph:
    moved = []
    for cycle in sub.cycles:
        arcs = [(phi[u], phi[v], labels[(u, v)][l]) for u, v, l in cycle]
        moved.append(_canonical_cycle(arcs))
    return LinearSubgraph(tuple(sorted(moved)))


def z_orbit(g: MultiDigraph) -> Fraction:
    """z of a strongly connected semistable graph as an orbit sum over
    equivalence classes of linear subgraphs."""
    if not is_semistable(g):
        raise ValueError("z_orbit requires a semistable graph")
    if g.n == 0 or not is_strongly_connected(g):
        raise ValueError("z_orbit requires a strongly connected graph")
    group = list(_full_group(g))
    order = aut_order(g)
    if len(group) != order:
        raise AssertionError("group enumeration disagrees with aut_order")
    subgraphs = [LinearSubgraph(())] + linear_subgraphs(g)
    seen: set[LinearSubgraph] = set()
    total = Fraction(0)
    for sub in subgraphs:
        if sub in seen:
            continue
        orbit = {_act(phi, labels, sub) for phi, labels in group}
        stabilizer = sum(1 for phi, labels in group if _act(phi, labels, sub) == sub)
        if len(orbit) * stabilizer != order:
            raise AssertionError("orbit size times stabilizer must equal the group order")
        seen |= orbit
        total += Fraction((-1) ** (g.n + 1 + sub.p), stabilizer)
    return total

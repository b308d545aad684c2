"""The coefficient function z(G), exactly.

For a strongly connected semistable graph,

    z(G) = -det(A - I) / |Aut(G)|,

for a connected graph that is not strongly connected z(G) = 0, and for a
disjoint union z is the product over components divided by the order of the
permutation group of the components (the factorial of each isomorphism-class
multiplicity).  z of the empty graph is 1.

Also here: exact integer determinants (fraction-free elimination) and the
closed forms for the classical families (doubled cycles, bidirected cycles,
looped cycles, complete and complete bipartite digraphs, de Bruijn graphs,
one- and two-vertex graphs).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .graphs import (
    MultiDigraph,
    aut_order,
    canonical_key,
    is_semistable,
    is_strongly_connected,
    weak_components,
)

__all__ = [
    "det_int",
    "det_a_minus_i",
    "z_strong",
    "z",
    "sym_factor",
    "FamilySpec",
    "FAMILY_NAMES",
    "z_family",
    "build_family",
]


def det_int(m) -> int:
    """Exact determinant of a square integer matrix by fraction-free elimination.

    Every division in the Bareiss recurrence is exact over the integers, so
    there is no rational blowup and no rounding.  det of the 0 x 0 matrix is 1.
    """
    a = [list(map(int, row)) for row in m]
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_a_minus_i(g: MultiDigraph) -> int:
    n = g.n
    return det_int([[g.adj[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)])


def z_strong(g: MultiDigraph) -> Fraction:
    """z of a strongly connected semistable graph: -det(A - I)/|Aut(G)|."""
    if not is_semistable(g):
        raise ValueError("z_strong requires a semistable graph")
    if g.n == 0 or not is_strongly_connected(g):
        raise ValueError("z_strong requires a strongly connected graph")
    return Fraction(-det_a_minus_i(g), aut_order(g))


def sym_factor(components: list[MultiDigraph]) -> int:
    """Order of the permutation group of the components.

    Product of multiplicity! over the isomorphism classes occurring in the
    list.  The empty list gives 1.
    """
    counts = Counter(canonical_key(c) for c in components)
    return math.prod(math.factorial(m) for m in counts.values())


def z(g: MultiDigraph) -> Fraction:
    if not is_semistable(g):
        raise ValueError("z is defined for semistable graphs only")
    if g.n == 0:
        return Fraction(1)
    comps = weak_components(g)
    if any(not is_strongly_connected(c) for c in comps):
        return Fraction(0)
    value = Fraction(1)
    for c in comps:
        value *= z_strong(c)
    return value / sym_factor(comps)


# ---------------------------------------------------------------------------
# special families
# ---------------------------------------------------------------------------

FAMILY_NAMES = ("A", "B", "C", "K", "D", "Kmn", "loops", "twovertex")


class FamilySpec(NamedTuple):
    """A named family instance.

    family      parameters        graph
    ------      ----------        -----
    A           n >= 3            directed n-cycle, every edge doubled
    B           n >= 3            bidirected n-cycle
    C           n >= 3            directed n-cycle plus one loop per vertex
    K           n >= 2            complete digraph (all-ones matrix, loops included)
    D           n >= 2            de Bruijn graph on (n-1)-bit strings
    Kmn         m, n >= 2         complete bipartite digraph
    loops       n >= 2            one vertex with n loops
    twovertex   m, i, j, n        adjacency [[m, i], [j, n]], needs i*j != 0
    """

    family: str
    n: int = 0
    m: int = 0
    i: int = 0
    j: int = 0

    def size(self) -> tuple[int, int]:
        """(vertices, edges) of build_family(self), without building it, so
        large de Bruijn instances stay cheap to describe."""
        f, n, m = self.family, self.n, self.m
        if f in ("A", "B", "C"):
            return n, 2 * n
        if f == "K":
            return n, n * n
        if f == "D":
            return 2 ** (n - 1), 2**n
        if f == "Kmn":
            return m + n, 2 * m * n
        if f == "loops":
            return 1, n
        if f == "twovertex":
            return 2, m + self.i + self.j + n
        raise ValueError(f"unknown family {f!r}")


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def z_family(spec: FamilySpec) -> Fraction:
    """Closed-form z for the families above."""
    f, n = spec.family, spec.n
    if f == "A":
        _check(n >= 3, "family A needs n >= 3")
        return Fraction((-1) ** n * (2**n - 1), 2**n * n)
    if f == "B":
        _check(n >= 3, "family B needs n >= 3")
        r = n % 6
        if r == 0:
            return Fraction(0)
        if r in (1, 5):
            return Fraction((-1) ** n, 2 * n)
        if r in (2, 4):
            return Fraction(3 * (-1) ** n, 2 * n)
        return Fraction(2 * (-1) ** n, n)
    if f == "C":
        _check(n >= 3, "family C needs n >= 3")
        return Fraction((-1) ** n, n)
    if f == "K":
        _check(n >= 2, "family K needs n >= 2")
        return Fraction((-1) ** n * (n - 1), math.factorial(n))
    if f == "D":
        _check(n >= 2, "family D needs n >= 2")
        return Fraction(1, 2)
    if f == "Kmn":
        m = spec.m
        _check(m >= 2 and n >= 2, "family Kmn needs m, n >= 2")
        sym = 2 if m == n else 1
        # sign from det(A - I) = (-1)^(m+n) (1 - mn): the spectrum is
        # +-sqrt(mn) with m+n-2 zeros
        return Fraction((-1) ** (m + n) * (m * n - 1), sym * math.factorial(m) * math.factorial(n))
    if f == "loops":
        _check(n >= 2, "family loops needs n >= 2 loops")
        return Fraction(-(n - 1), math.factorial(n))
    if f == "twovertex":
        m, i, j = spec.m, spec.i, spec.j
        _check(min(m, n, i, j) >= 0 and i * j != 0, "family twovertex needs i*j != 0")
        sym = 2 if (i == j and m == n) else 1
        num = i * j - (1 - m) * (1 - n)
        den = sym * math.factorial(m) * math.factorial(n) * math.factorial(i) * math.factorial(j)
        return Fraction(num, den)
    raise ValueError(f"unknown family {f!r} (expected one of {', '.join(FAMILY_NAMES)})")


def build_family(spec: FamilySpec) -> MultiDigraph:
    """Adjacency matrix realizing the family instance.

    Vertex orderings are fixed so canonical keys are reproducible: cycles use
    0..n-1 in cyclic order, Kmn lists the m-part first, and D indexes vertices
    by (n-1)-bit strings read as integers with edges x -> (2x + b) mod 2^(n-1).
    """
    f, n = spec.family, spec.n
    z_family(spec)  # reuse the range validation
    if f == "A":
        return _cycle_matrix(n, step=2, loop=0)
    if f == "B":
        adj = [[0] * n for _ in range(n)]
        for v in range(n):
            adj[v][(v + 1) % n] += 1
            adj[v][(v - 1) % n] += 1
        return MultiDigraph(tuple(tuple(row) for row in adj))
    if f == "C":
        return _cycle_matrix(n, step=1, loop=1)
    if f == "K":
        return MultiDigraph(tuple(tuple(1 for _ in range(n)) for _ in range(n)))
    if f == "D":
        size = 2 ** (n - 1)
        adj = [[0] * size for _ in range(size)]
        for x in range(size):
            for b in (0, 1):
                adj[x][(2 * x + b) % size] += 1
        return MultiDigraph(tuple(tuple(row) for row in adj))
    if f == "Kmn":
        m = spec.m
        size = m + n
        adj = [[0] * size for _ in range(size)]
        for u in range(m):
            for v in range(m, size):
                adj[u][v] = 1
                adj[v][u] = 1
        return MultiDigraph(tuple(tuple(row) for row in adj))
    if f == "loops":
        return MultiDigraph(((n,),))
    if f == "twovertex":
        return MultiDigraph(((spec.m, spec.i), (spec.j, spec.n)))
    raise ValueError(f"unknown family {f!r}")


def _cycle_matrix(n: int, step: int, loop: int) -> MultiDigraph:
    adj = [[0] * n for _ in range(n)]
    for v in range(n):
        adj[v][v] += loop
        adj[v][(v + 1) % n] += step
    return MultiDigraph(tuple(tuple(row) for row in adj))

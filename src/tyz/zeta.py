"""The coefficient function z(G), exactly.

For a strongly connected semistable graph,

    z(G) = -det(A - I) / |Aut(G)|,

for a connected graph that is not strongly connected z(G) = 0, and for a
disjoint union z is the product over components divided by the order of the
permutation group of the components (the factorial of each isomorphism-class
multiplicity).  `z` reads the components and their strong connectivity off
one `connectivity` pass, and each component's group order and canonical
matrix, its key for `sym_factor`, off one `symmetry` search; z of the empty
graph, with no components, is 1.

Also here: exact integer determinants (fraction-free elimination) and the
classical families, each one entry of `_FAMILIES` that holds its parameter
check, its (vertices, edges), its closed-form z and its graph, the one
source that `FamilySpec.size`, `z_family` and `build_family` read.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Hashable, Iterable
from fractions import Fraction
from operator import index
from typing import NamedTuple

from .graphs import (
    MultiDigraph,
    _label_factor,
    connectivity,
    induced_subgraph,
    is_semistable,
    symmetry,
)

__all__ = [
    "det_int",
    "det_a_minus_i",
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
    a = [list(map(index, row)) for row in m]
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


def sym_factor(keys: Iterable[Hashable]) -> int:
    """Order of the permutation group of the components, given their
    canonical keys: any hashables, equal exactly for isomorphic components.

    Product of multiplicity! over the isomorphism classes occurring in the
    list.  The empty list gives 1.
    """
    return math.prod(math.factorial(m) for m in Counter(keys).values())


def z(g: MultiDigraph) -> Fraction:
    if not is_semistable(g):
        raise ValueError("z is defined for semistable graphs only")
    parts = connectivity(g)
    if not all(strong for _, strong in parts):
        return Fraction(0)
    comps = [(c, symmetry(c.adj)) for c in (induced_subgraph(g, part) for part, _ in parts)]
    terms = (Fraction(-det_a_minus_i(c), _label_factor(c.adj) * found.order) for c, found in comps)
    return math.prod(terms, start=Fraction(1)) / sym_factor(found.matrix for _, found in comps)


# ---------------------------------------------------------------------------
# special families
# ---------------------------------------------------------------------------


class FamilySpec(NamedTuple):
    """A named family instance: `family` is one of FAMILY_NAMES, and its
    entry in `_FAMILIES` gives its graph, the parameters it reads and their
    least values."""

    family: str
    n: int = 0
    m: int = 0
    i: int = 0
    j: int = 0

    def size(self) -> tuple[int, int]:
        """(vertices, edges) of build_family(self) without building it, so a large
        de Bruijn instance stays cheap; an invalid spec raises z_family's ValueError."""
        return _family(self, "size")


class _Family(NamedTuple):
    """The least values of the prefix of (n, m, i, j) that a family reads, the error
    below them, and its (vertices, edges), closed-form z and graph as functions of them."""

    least: tuple[int, ...]
    needs: str
    size: Callable[..., tuple[int, int]]
    z: Callable[..., Fraction]
    build: Callable[..., MultiDigraph]


def _mod_arcs(size: int, scale: int, offsets: tuple[int, ...]) -> MultiDigraph:
    """One arc v -> (scale*v + d) mod size per vertex v and offset d: a
    circulant for scale 1, the de Bruijn graph for scale 2 and offsets 0, 1."""
    arcs = Counter((v, (scale * v + d) % size) for v in range(size) for d in offsets)
    return MultiDigraph(tuple(tuple(arcs[v, u] for u in range(size)) for v in range(size)))


def _cycle(name: str, offsets: tuple[int, ...], z_of_n) -> _Family:
    """An n-cycle family: vertices 0..n-1 in cyclic order, arcs v -> v + d."""
    return _Family((3,), f"family {name} needs n >= 3", lambda n: (n, 2 * n), z_of_n,
                   lambda n: _mod_arcs(n, 1, offsets))


_FAMILIES = {
    # directed n-cycle, every edge doubled
    "A": _cycle("A", (1, 1), lambda n: Fraction((-1) ** n * (2**n - 1), 2**n * n)),
    # bidirected n-cycle; the numerator of z over 2n is read off n mod 6
    "B": _cycle("B", (1, -1), lambda n: Fraction((-1) ** n * (0, 1, 3, 4, 3, 1)[n % 6], 2 * n)),
    # directed n-cycle plus one loop per vertex
    "C": _cycle("C", (0, 1), lambda n: Fraction((-1) ** n, n)),
    # complete digraph: the all-ones matrix, loops included
    "K": _Family(
        (2,), "family K needs n >= 2", lambda n: (n, n * n),
        lambda n: Fraction((-1) ** n * (n - 1), math.factorial(n)),
        lambda n: MultiDigraph(((1,) * n,) * n),
    ),
    # de Bruijn graph on the (n-1)-bit strings as integers: arcs x -> (2x + b) mod 2^(n-1)
    "D": _Family(
        (2,), "family D needs n >= 2", lambda n: (2 ** (n - 1), 2**n),
        lambda n: Fraction(1, 2), lambda n: _mod_arcs(2 ** (n - 1), 2, (0, 1)),
    ),
    # complete bipartite digraph, the m-part first; det(A - I) = (-1)^(m+n) (1 - mn),
    # as the spectrum is +-sqrt(mn) and m+n-2 zeros
    "Kmn": _Family(
        (2, 2), "family Kmn needs m, n >= 2", lambda n, m: (m + n, 2 * m * n),
        lambda n, m: Fraction(
            (-1) ** (m + n) * (m * n - 1),
            (2 if m == n else 1) * math.factorial(m) * math.factorial(n),
        ),
        lambda n, m: MultiDigraph(((0,) * m + (1,) * n,) * m + ((1,) * m + (0,) * n,) * n),
    ),
    # one vertex with n loops
    "loops": _Family(
        (2,), "family loops needs n >= 2 loops", lambda n: (1, n),
        lambda n: Fraction(-(n - 1), math.factorial(n)), lambda n: MultiDigraph(((n,),)),
    ),
    # adjacency [[m, i], [j, n]], i*j != 0 and no entry negative; swapping the
    # vertices is an automorphism when i == j and m == n
    "twovertex": _Family(
        (0, 0, 1, 1), "family twovertex needs i*j != 0", lambda n, m, i, j: (2, m + i + j + n),
        lambda n, m, i, j: Fraction(
            i * j - (1 - m) * (1 - n),
            (2 if (i, m) == (j, n) else 1) * math.prod(map(math.factorial, (n, m, i, j))),
        ),
        lambda n, m, i, j: MultiDigraph(((m, i), (j, n))),
    ),
}

FAMILY_NAMES = tuple(_FAMILIES)


def _family(spec: FamilySpec, part: str):
    """`part` ("size", "z" or "build") of the entry of spec's family at the
    parameters it reads, once they are checked."""
    family = _FAMILIES.get(spec.family)
    if family is None:
        raise ValueError(f"unknown family {spec.family!r} (expected one of {', '.join(_FAMILIES)})")
    params = spec[1 : 1 + len(family.least)]
    if not all(x >= low for x, low in zip(params, family.least)):
        raise ValueError(family.needs)
    return getattr(family, part)(*params)


def z_family(spec: FamilySpec) -> Fraction:
    """Closed-form z for the families above."""
    return _family(spec, "z")


def build_family(spec: FamilySpec) -> MultiDigraph:
    """Adjacency matrix realizing the family instance, in the vertex order
    its entry in `_FAMILIES` gives, so canonical keys are reproducible."""
    return _family(spec, "build")

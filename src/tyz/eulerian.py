"""Euler tours, arborescences and cycle-decomposition polynomials of one
graph, plus the Bernoulli numbers and unit-ball polynomials P_k.  The
catalog sums they are compared with (`bernoulli_identity_lhs`,
`unit_ball_lhs`) live in `catalog`, beside the records they sum over.

Conventions that matter here:

* Parallel edges and loops are distinguishable everywhere (epsilon([[3]]) is
  2, not 1).
* epsilon(G) counts Euler tours starting with a fixed first edge; it is 0
  for graphs that are unbalanced, weakly disconnected, or edgeless.  By the
  BEST theorem it factors as tau(G) * prod((deg+(v) - 1)!) with tau the
  number of spanning in-trees toward vertex 0 (matrix-tree minor of the
  loopless out-degree Laplacian, validated against brute force).  On a
  balanced graph tau is the same at every root when the graph is weakly
  connected, and 0 when it is not, since some vertex cannot reach vertex 0;
  so the minor itself settles connectivity.
* A cycle decomposition is a partition of the edge multiset into closed
  trails, each counted up to cyclic rotation of the trail.  Equivalently it
  is a choice, at every vertex, of a bijection from in-edges to out-edges;
  p(H) is the number of trails.  Under this convention sum(N^p(H)) times the
  catalog weights reproduces P_1..P_4 exactly, and the coefficient of N^1 is
  epsilon(G) again (a closed trail through all edges meets the fixed first
  edge once, so trails up to rotation biject with tours starting there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations, product

from .graphs import MultiDigraph
from .zeta import det_int

__all__ = [
    "IntPolynomial",
    "is_balanced",
    "arborescence_count",
    "arborescences_bruteforce",
    "euler_tour_count",
    "euler_tour_bruteforce",
    "cycle_decomposition_poly",
    "bernoulli",
    "unit_ball_rhs",
]


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial in one indeterminate N, exact rational coefficients,
    lowest degree first, trailing zeros trimmed."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(values) -> "IntPolynomial":
        cs = [Fraction(v) for v in values]
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPolynomial(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def coefficient(self, power: int) -> Fraction:
        return self.coeffs[power] if 0 <= power < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        size = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial.of(
            [self.coefficient(t) + other.coefficient(t) for t in range(size)]
        )

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial.of(out)

    def scale(self, factor) -> "IntPolynomial":
        return IntPolynomial.of([Fraction(factor) * c for c in self.coeffs])

    def __call__(self, x) -> Fraction:
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total


ZERO_POLY = IntPolynomial(())


def is_balanced(g: MultiDigraph) -> bool:
    return g.out_degrees() == g.in_degrees()


# ---------------------------------------------------------------------------
# arborescences and Euler tours
# ---------------------------------------------------------------------------


def arborescence_count(g: MultiDigraph, root: int) -> int:
    """Spanning in-trees toward root, by the matrix-tree minor.

    Laplacian is D_out - A with loops dropped; deleting the root row and
    column and taking the determinant counts the trees with every arrow
    pointing toward the root.  A single vertex has exactly one (empty) tree.
    """
    if not 0 <= root < g.n:
        raise ValueError("root out of range")
    return det_int(_tree_minor(g, g.out_degrees(), root))


def _tree_minor(g: MultiDigraph, outs: tuple[int, ...], root: int) -> list[list[int]]:
    """The loopless Laplacian D_out - A without the root row and column."""
    others = [v for v in range(g.n) if v != root]
    return [
        [outs[i] - g.adj[i][i] if i == j else -g.adj[i][j] for j in others] for i in others
    ]


def arborescences_bruteforce(g: MultiDigraph, root: int) -> int:
    """Direct count: each non-root vertex picks one outgoing labeled edge and
    the picks must form a tree flowing into the root."""
    n = g.n
    if not 0 <= root < n:
        raise ValueError("root out of range")
    others = [v for v in range(n) if v != root]
    choices = []
    for v in others:
        opts = [(v, w) for w in range(n) if w != v for _ in range(g.adj[v][w])]
        choices.append(opts)
    count = 0
    for pick in product(*choices):
        parent = {v: w for (v, w) in pick}
        ok = True
        for v in others:
            seen = set()
            u = v
            while u != root:
                if u in seen:
                    ok = False
                    break
                seen.add(u)
                u = parent[u]
            if not ok:
                break
        count += ok
    return count


def euler_tour_count(g: MultiDigraph) -> int:
    """epsilon(G) = tau(G, 0) * prod((deg+(v) - 1)!), zero for unbalanced or
    edgeless input; tau(G, 0) is zero when a balanced G is weakly
    disconnected, since some vertex cannot reach vertex 0.  The out-degrees
    are summed once and serve the balance test, the minor and the factorials."""
    outs = g.out_degrees()
    if not any(outs) or outs != g.in_degrees():
        return 0
    tau = det_int(_tree_minor(g, outs, 0))
    if tau == 0:  # an isolated vertex has no (deg+ - 1)!
        return 0
    return tau * math.prod(math.factorial(d - 1) for d in outs)


def euler_tour_bruteforce(g: MultiDigraph) -> int:
    """Backtracking count of closed trails covering every labeled edge once,
    starting with the lexicographically first edge."""
    edges = g.edges()
    if len(edges) > 12:
        raise ValueError("brute-force Euler tour count is capped at 12 edges")
    if not edges:
        return 0
    if not is_balanced(g):
        return 0
    by_tail: dict[int, list[int]] = {}
    for idx, (u, _, _) in enumerate(edges):
        by_tail.setdefault(u, []).append(idx)
    used = [False] * len(edges)
    start_tail, start_head, _ = edges[0]
    used[0] = True

    def walk(at: int, left: int) -> int:
        if left == 0:
            return 1 if at == start_tail else 0
        total = 0
        for idx in by_tail.get(at, ()):
            if not used[idx]:
                used[idx] = True
                total += walk(edges[idx][1], left - 1)
                used[idx] = False
        return total

    return walk(start_head, len(edges) - 1)


# ---------------------------------------------------------------------------
# cycle decompositions
# ---------------------------------------------------------------------------


def cycle_decomposition_poly(g: MultiDigraph) -> IntPolynomial:
    """sum over cycle decompositions H of N^p(H), as a polynomial in N.

    Decompositions are enumerated as transition systems: one bijection from
    in-edges to out-edges per vertex; the trails are the cycles of the induced
    successor permutation on edges.  Unbalanced graphs have no decomposition
    and give the zero polynomial; an edgeless balanced graph gives 1 (the
    empty decomposition).
    """
    if not is_balanced(g):
        return ZERO_POLY
    edges = g.edges()
    if not edges:
        return IntPolynomial.of([1])
    ins: dict[int, list[int]] = {}
    outs: dict[int, list[int]] = {}
    for idx, (u, v, _) in enumerate(edges):
        outs.setdefault(u, []).append(idx)
        ins.setdefault(v, []).append(idx)
    verts = sorted(ins)
    counts: dict[int, int] = {}
    for choice in product(*(permutations(outs[v]) for v in verts)):
        succ = [0] * len(edges)
        for v, image in zip(verts, choice):
            for e, s in zip(ins[v], image):
                succ[e] = s
        cycles = 0
        visited = [False] * len(edges)
        for e in range(len(edges)):
            if not visited[e]:
                cycles += 1
                while not visited[e]:
                    visited[e] = True
                    e = succ[e]
        counts[cycles] = counts.get(cycles, 0) + 1
    top = max(counts)
    return IntPolynomial.of([counts.get(p, 0) for p in range(top + 1)])


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------


@cache
def bernoulli(k: int) -> Fraction:
    """B_k via the recurrence sum(binomial(k+1, j) * B_j, j=0..k) = 0."""
    if k < 0:
        raise ValueError("Bernoulli numbers need k >= 0")
    if k == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(k):
        acc += math.comb(k + 1, j) * bernoulli(j)
    return -acc / (k + 1)


# ---------------------------------------------------------------------------
# unit-ball polynomials
# ---------------------------------------------------------------------------


def _interpolate(points: list[tuple[int, Fraction]]) -> IntPolynomial:
    """Lagrange interpolation through exact points."""
    result = ZERO_POLY
    xs = [x for x, _ in points]
    for t, (xt, yt) in enumerate(points):
        basis = IntPolynomial.of([1])
        denom = Fraction(1)
        for s, xs_ in enumerate(xs):
            if s == t:
                continue
            basis = basis * IntPolynomial.of([-xs_, 1])
            denom *= xt - xs_
        result = result + basis.scale(yt / denom)
    return result


def unit_ball_rhs(k: int) -> IntPolynomial:
    """P_k, the degree-2k polynomial with P_k(N) =
    sum over 1 <= i_1 < ... < i_k <= N of (-i_1)...(-i_k), by interpolation
    at N = 0..2k."""
    points = []
    for bound in range(2 * k + 1):
        # elementary symmetric polynomial e_k(1..bound)
        e = [Fraction(1)] + [Fraction(0)] * k
        for i in range(1, bound + 1):
            for t in range(k, 0, -1):
                e[t] += i * e[t - 1]
        points.append((bound, (-1) ** k * e[k]))
    return _interpolate(points)

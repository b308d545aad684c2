"""Euler tours, arborescences and cycle-decomposition polynomials of one
graph, plus the Bernoulli numbers and unit-ball polynomials P_k.  The
catalog sums they are compared with (`bernoulli_identity_lhs`,
`unit_ball_sums`) live in `catalog`, beside the records they sum over.

Conventions that matter here:

* A polynomial in N is the tuple of its coefficients, lowest degree first,
  trailing zeros trimmed, so () is zero: ints for the cycle-decomposition
  polynomials, Fractions for P_k and -S_k(N)/k.  `_rising` and `_product`
  are its only arithmetic.
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
  is a choice, at every vertex, of a bijection from in-edges to out-edges
  (a transition system); p(H) is the number of trails.  Under this
  convention sum(N^p(H)) times the catalog weights reproduces P_1..P_4
  exactly, and the coefficient of N^1 is epsilon(G) again (a closed trail
  through all edges meets the fixed first edge once, so trails up to
  rotation biject with tours starting there).
* `cycle_decomposition_poly` does not list all prod(deg+(v)!) transition
  systems.  It is a product over weak components, since a trail stays in
  one.  A vertex with l loops and m other out-edges gives the factor
  (N + m)(N + m + 1)...(N + m + l - 1), and its loops are then deleted:
  each loop in turn either closes a trail of its own or goes after one of
  the transitions already placed.  Only the loopless remainder is
  enumerated, in integer coefficients, and the vertex with the most
  out-edges is left out of that too (see `_transition_counts`).
* P_k is interpolated through its 2k + 1 values (-1)^k e_k(1..N) by integer
  forward differences in the binomial basis; the only division is by (2k)!
  at the end.  Over the weakly connected graphs alone the identity reads
  -S_k(N)/k, S_k(N) = 1^k + ... + N^k (`connected_unit_ball_rhs`, from
  Faulhaber's formula).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import product

from .graphs import Matrix, MultiDigraph, connectivity
from .zeta import det_int

__all__ = [
    "is_balanced",
    "arborescence_count",
    "arborescences_bruteforce",
    "euler_tour_count",
    "euler_tour_bruteforce",
    "cycle_decomposition_poly",
    "bernoulli",
    "unit_ball_rhs",
    "connected_unit_ball_rhs",
]


def _trim(coeffs) -> tuple:
    """The coefficients as a tuple, trailing zeros dropped; () is zero."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


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
    return det_int(_tree_minor(g.adj, g.out_degrees(), root))


def _tree_minor(adj: Matrix, outs: tuple[int, ...], root: int) -> list[list[int]]:
    """The loopless Laplacian D_out - A of adj without the root row and column."""
    others = [v for v in range(len(adj)) if v != root]
    return [[outs[i] - adj[i][i] if i == j else -adj[i][j] for j in others] for i in others]


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
    disconnected, since some vertex cannot reach vertex 0."""
    return _tour_count(g.adj, g.out_degrees(), g.in_degrees())


def _tour_count(adj: Matrix, outs: tuple[int, ...], ins: tuple[int, ...]) -> int:
    """`euler_tour_count` of the graph of adj with these out- and in-degrees,
    summed once by the caller; the out-degrees serve the balance test, the
    minor and the factorials."""
    if not any(outs) or outs != ins:
        return 0
    tau = det_int(_tree_minor(adj, outs, 0))
    if tau == 0:  # an isolated vertex has no (deg+ - 1)!
        return 0
    return tau * math.prod(math.factorial(d - 1) for d in outs)


def euler_tour_bruteforce(g: MultiDigraph) -> int:
    """Backtracking count of closed trails covering every labeled edge once,
    starting with the lexicographically first edge."""
    edges = [(i, j) for i, row in enumerate(g.adj) for j, m in enumerate(row) for _ in range(m)]
    if len(edges) > 12:
        raise ValueError("brute-force Euler tour count is capped at 12 edges")
    if not edges:
        return 0
    if not is_balanced(g):
        return 0
    by_tail: dict[int, list[int]] = {}
    for idx, (u, _) in enumerate(edges):
        by_tail.setdefault(u, []).append(idx)
    used = [False] * len(edges)
    start_tail, start_head = edges[0]
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


def cycle_decomposition_poly(g: MultiDigraph) -> tuple[int, ...]:
    """sum over cycle decompositions H of N^p(H), as a polynomial in N.

    Unbalanced graphs have no decomposition and give the zero polynomial; an
    edgeless balanced graph gives 1 (the empty decomposition).  Otherwise it
    is the product over the weak components of the loop factors and of the
    transition counts of the loopless remainder, in integers (see the
    module docstring).
    """
    if not is_balanced(g):
        return ()
    adj = g.adj
    total = [1]
    for comp, _ in connectivity(g):
        for v in comp:
            total = _rising(total, sum(adj[v]) - adj[v][v], adj[v][v])
        total = _product(total, _transition_counts(adj, comp))
    return _trim(total)


def _rising(counts: list[int], start: int, length: int) -> list[int]:
    """counts times (N + start)(N + start + 1)...(N + start + length - 1)."""
    for c in range(start, start + length):
        counts = [c * x + y for x, y in zip(counts + [0], [0] + counts)]
    return counts


def _product(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for t, y in enumerate(b):
            out[i + t] += x * y
    return out


def _transition_counts(adj, comp: list[int]) -> list[int]:
    """sum over the transition systems of the loopless graph on the vertices
    `comp` of N^(trails), lowest degree first.

    The transitions are placed one in-edge at a time, each joining the open
    trail that the in-edge ends to the one that an unused out-edge of its
    head starts, or closing a trail when that is the same one.  The vertex
    with the most out-edges, m of them, is left to the end: by then every
    open trail runs from one of its out-edges to one of its in-edges, so its
    m! transitions close them in every permutation, a factor
    N(N + 1)...(N + m - 1).
    """
    outs: dict[int, list[int]] = {v: [] for v in comp}
    ins: dict[int, list[int]] = {v: [] for v in comp}
    edges = 0
    for u in comp:
        for v in comp:
            if v != u:
                for _ in range(adj[u][v]):
                    outs[u].append(edges)
                    ins[v].append(edges)
                    edges += 1
    hub = max(comp, key=lambda v: len(outs[v]))
    slots = [(a, outs[v]) for v in comp if v != hub for a in ins[v]]
    first = list(range(edges))  # for the last edge of an open trail, its first
    last = list(range(edges))  # for the first edge of an open trail, its last
    used = [False] * edges
    counts = [0] * (edges + 1)

    def place(i: int, closed: int) -> None:
        if i == len(slots):
            counts[closed] += 1
            return
        a, options = slots[i]
        f = first[a]
        for b in options:
            if not used[b]:
                used[b] = True
                if b == f:
                    place(i + 1, closed + 1)
                else:
                    end = last[b]
                    last[f], first[end] = end, f
                    place(i + 1, closed)
                    last[f], first[end] = a, b
                used[b] = False

    place(0, 0)
    return _rising(counts, 0, len(outs[hub]))


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


def unit_ball_rhs(k: int) -> tuple[Fraction, ...]:
    """P_k, the degree-2k polynomial with P_k(N) =
    sum over 1 <= i_1 < ... < i_k <= N of (-i_1)...(-i_k), that is
    (-1)^k e_k(1..N), interpolated through its values at N = 0..2k.

    The interpolation stays in integers until the last step: the forward
    differences d_i of the values give P_k(N) = sum of d_i binomial(N, i),
    and binomial(N, i) is N(N - 1)...(N - i + 1) / i!, so every coefficient
    is an integer over (2k)!.
    """
    if k < 0:
        raise ValueError("P_k needs k >= 0")
    top = 2 * k
    e = [1] + [0] * k  # elementary symmetric polynomials of 1..bound
    values = []
    for bound in range(top + 1):
        for t in range(k, 0, -1):
            e[t] += bound * e[t - 1]
        values.append((-1) ** k * e[k])
    numerators = [0] * (top + 1)
    falling = [1]  # N(N - 1)...(N - i + 1), lowest degree first
    for i in range(top + 1):
        scale = values[0] * (math.factorial(top) // math.factorial(i))
        for p, c in enumerate(falling):
            numerators[p] += scale * c
        values = [b - a for a, b in zip(values, values[1:])]
        falling = _rising(falling, -i, 1)  # times (N - i)
    return _trim(Fraction(c, math.factorial(top)) for c in numerators)


def connected_unit_ball_rhs(k: int) -> tuple[Fraction, ...]:
    """-S_k(N)/k with S_k(N) = 1^k + ... + N^k: the unit-ball identity over
    the weakly connected graphs alone.  Every factor of a graph's term is
    multiplicative over its weak components (z through the symmetry factor
    of the union rule) and the weight adds, so by the exponential formula
    (Stanley, Enumerative Combinatorics 2, 5.1) the connected sums are the
    logarithm of sum P_k t^k = prod over i = 1..N of (1 - i t), which is
    -sum S_m(N) t^m / m.  S_k is Faulhaber's polynomial, sum over j = 0..k
    of binomial(k + 1, j) (-1)^j B_j N^(k + 1 - j) / (k + 1), with the B_j
    of `bernoulli`."""
    if k < 1:
        raise ValueError("the connected unit-ball polynomial needs k >= 1")
    coeffs = [Fraction(0)] * (k + 2)
    for j in range(k + 1):
        coeffs[k + 1 - j] = -math.comb(k + 1, j) * (-1) ** j * bernoulli(j) / ((k + 1) * k)
    return _trim(coeffs)

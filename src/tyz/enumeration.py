"""Exhaustive, isomorphism-free generation of stable multidigraphs.

G(k), the stable graphs of weight k, is the union over j = 1..k of the
j-vertex, (j+k)-edge stable graphs: stability forces every row and column sum
of the adjacency matrix to be at least 2, hence edge_count >= 2n and n <= k.

Generation fixes the degrees first.  The outer loop lists the non-increasing
sequences of vertex types (out-degree, in-degree, loops), with out >= 2,
in >= 2, loops <= min(out, in) and both degree sums equal to the edge count;
a sequence is dropped when some vertex needs more off-diagonal edges, out +
in - 2 loops, than the others leave.  For each sequence one recursion fills
the rows with those margins: row v has its loops on the diagonal, and its
off-diagonal entries split out - loops under what each other column can
still take of its in - loops.  The rows allowed for each (vertex, type,
remaining capacities) are listed once per call.  The last row is forced: it
is the remaining capacities, and its own column must already be full.

Every full matrix thus has its vertices in non-increasing (out, in, loops)
order, and is searched only if it passes the leaf test: wherever two
adjacent vertices have equal types, their neighbour signatures are
non-increasing too.  The signature of v is the multiset over u != v of
((out, in, loops) of u, edges v -> u, edges u -> v), listed in descending
order.  The fill is sound because the key (out, in, loops, signature) does
not depend on the labels: sorting the vertices of any stable graph by it
gives a matrix of its class whose type sequence is listed, whose rows the
fill reaches, and which passes the test.  Each leaf that passes goes to
`symmetry`; the first search of each canonical matrix is kept and
returned, so the catalog record of the class reads its matrix and group
order from it and searches nothing again.  The canonical dedup owns
correctness regardless.

`census_count` counts the same classes without generating a graph, by
Burnside's lemma, and `raw_stable_matrices` lists every labelled matrix;
both are oracles for the tests.  `check_weight` is the one supported-weight
policy; the CLI, the scripts and `catalog` call it.  Nothing here is
memoized: `catalog.stable_records` keeps the records of each (j, s), and
every per-weight consumer (census, expansion, identities, verify suites)
reads them through `catalog.weight_records`.
"""

from __future__ import annotations

from collections import defaultdict
from math import comb, factorial, gcd
from operator import sub

from .graphs import Matrix, MultiDigraph, Symmetry, is_stable, symmetry

__all__ = [
    "MAX_WEIGHT",
    "SLOW_WEIGHT",
    "check_weight",
    "census_count",
    "enumerate_stable",
    "raw_stable_matrices",
]

MAX_WEIGHT = 5
SLOW_WEIGHT = 5  # from this weight on, callers must opt in with allow_slow

Type = tuple[int, int, int]  # (out-degree, in-degree, loops) of a vertex


def check_weight(k: int, allow_slow: bool = True) -> int:
    """Return k if it is a supported weight, else raise ValueError.

    Weights SLOW_WEIGHT..MAX_WEIGHT need allow_slow (the CLI's --allow-slow).
    """
    if not 1 <= k <= MAX_WEIGHT:
        raise ValueError(f"weight {k} is outside the supported range 1..{MAX_WEIGHT}")
    if k >= SLOW_WEIGHT and not allow_slow:
        raise ValueError(f"weight {k} needs --allow-slow")
    return k


def _compositions(total: int, parts: int):
    """All sequences of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def _bounded_compositions(total: int, caps: tuple[int, ...]):
    """All sequences x with 0 <= x[u] <= caps[u] summing to `total`."""
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    rest = sum(caps[1:])
    for first in range(max(0, total - rest), min(caps[0], total) + 1):
        for tail in _bounded_compositions(total - first, caps[1:]):
            yield (first, *tail)


def _type_sequences(j: int, s: int):
    """The vertex types of the fill (see the module docstring): each
    non-increasing sequence of j types (out, in, loops) with out >= 2,
    in >= 2, loops <= min(out, in) and both degree sums s, such that every
    vertex's off-diagonal edges, out + in - 2 loops, fit in the off-diagonal
    edge count."""
    types: list[Type] = []

    def rec(outs: int, ins: int, left: int):
        """Type the next vertex, with `left` vertices (this one included)
        still to take `outs` out-degree and `ins` in-degree."""
        if left == 0:
            off = s - sum(t[2] for t in types)
            if all(out + in_ - 2 * loops <= off for out, in_, loops in types):
                yield tuple(types)
            return
        prev = types[-1] if types else (s, s, s)
        room = 2 * (left - 1)  # each later vertex needs 2 of each degree
        # this vertex has the largest out-degree still to come
        for out in range(min(prev[0], outs - room), -(-outs // left) - 1, -1):
            top_in = ins - room if out < prev[0] else min(prev[1], ins - room)
            for in_ in range(top_in, (ins if left == 1 else 2) - 1, -1):
                top_loops = min(out, in_) if (out, in_) < prev[:2] else prev[2]
                for loops in range(top_loops, -1, -1):
                    types.append((out, in_, loops))
                    yield from rec(outs - out, ins - in_, left - 1)
                    types.pop()

    yield from rec(s, s, j)


def _row_choices(v: int, kind: Type, caps: tuple[int, ...]) -> list:
    """Each row v of type `kind` placed under column capacities `caps`, as
    (row, capacities after): its loops on the diagonal, its out - loops
    other edges split under the capacities of the other columns."""
    out, _, loops = kind
    masked = caps[:v] + (0,) + caps[v + 1 :]
    choices = []
    for off in _bounded_compositions(out - loops, masked):
        choices.append((off[:v] + (loops,) + off[v + 1 :], tuple(map(sub, caps, off))))
    return choices


def _signature_ordered(rows, types) -> bool:
    """The leaf test of the fill (see the module docstring): whether each
    two adjacent vertices of the full matrix `rows` that have equal types
    are in non-increasing order of neighbour signature.  Each signature here
    also holds the vertex's own term, which is the same for two vertices of
    equal type and so leaves the comparison unchanged."""
    cols = None
    upper = None  # the signature of vertex a, when it tied with vertex a - 1
    for a in range(len(rows) - 1):
        if types[a] != types[a + 1]:
            upper = None
            continue
        if cols is None:
            cols = tuple(zip(*rows))
        if upper is None:
            upper = sorted(zip(types, rows[a], cols[a]), reverse=True)
        lower = sorted(zip(types, rows[a + 1], cols[a + 1]), reverse=True)
        if upper < lower:
            return False
        upper = lower
    return True


def enumerate_stable(j: int, s: int) -> tuple[Symmetry, ...]:
    """The first `symmetry` search of each isomorphism class of j-vertex,
    s-edge stable graphs, sorted by canonical matrix (for a fixed j, the
    canonical-key order).  Empty when s < 2j.  A catalog record reads the
    canonical matrix and vertex group order of its class from it, so it
    searches nothing again; `MultiDigraph` of the matrix is the class's
    canonical representative.

    Fixes each vertex's (out-degree, in-degree, loops) first and then fills
    the rows with those margins (see the module docstring).  Only matrices
    whose equal-type neighbours are in non-increasing order of neighbour
    signature reach `symmetry`; every class has one."""
    if j < 1 or s < 2 * j:
        return ()
    last = j - 1
    choices: dict[tuple, list] = {}  # (vertex, type, capacities) -> _row_choices
    rows: list[tuple[int, ...]] = []
    found: dict[Matrix, Symmetry] = {}  # canonical matrix -> its first search
    types: tuple[Type, ...] = ()  # the sequence being filled

    def rec(v: int, caps: tuple[int, ...]) -> None:
        """Place row v; column u can still take caps[u] off-diagonal edges."""
        if v == last:
            if caps[last] == 0:  # the forced last row adds nothing to its own column
                rows.append(caps[:last] + (types[last][2],))
                if _signature_ordered(rows, types):
                    # symmetry, not canonical_form: the per-graph memo would
                    # keep every raw matrix
                    searched = symmetry(tuple(rows))
                    found.setdefault(searched.matrix, searched)
                rows.pop()
            return
        key = (v, types[v], caps)
        entry = choices.get(key)
        if entry is None:
            entry = choices[key] = _row_choices(v, types[v], caps)
        for row, after in entry:
            rows.append(row)
            rec(v + 1, after)
            rows.pop()

    for types in _type_sequences(j, s):
        rec(0, tuple(in_ - loops for _, in_, loops in types))
    # rec refers to itself; dropping it frees the row choices now rather
    # than at the next full garbage collection
    del rec
    # for a fixed j, row-tuple order is canonical-key order
    return tuple(found[matrix] for matrix in sorted(found))


def _cycle_types(j: int, largest: int):
    """The partitions of j into parts of at most `largest`, non-increasing:
    with largest = j, the cycle types of S_j."""
    if j == 0:
        yield ()
        return
    for first in range(min(j, largest), 0, -1):
        for rest in _cycle_types(j - first, first):
            yield (first, *rest)


def _fixed_matrices(cycles: tuple[int, ...], s: int) -> int:
    """How many stable s-edge matrices a permutation with cycle lengths
    `cycles` fixes.  Such a matrix is constant on each orbit of the
    permutation on cells; a row p-cycle and a column q-cycle share g =
    gcd(p, q) orbits of lcm(p, q) cells, and an orbit of value x adds x q/g
    to the row sum of each vertex of the p-cycle and x p/g to the column sum
    of each vertex of the q-cycle.  The count runs over the row cycles, its
    state the edge total and each column cycle's sum capped at 2; the g
    orbits of one block sum to y in comb(y + g - 1, g - 1) ways."""
    states = {(0, (0,) * len(cycles)): 1}
    later = sum(cycles)  # the rows not yet placed
    for p in cycles:
        later -= p
        budget = s - 2 * later  # each later row needs 2 edges
        block = {(edges, 0, cols): count for (edges, cols), count in states.items()}
        for c, q in enumerate(cycles):
            g = gcd(p, q)
            size, to_row, to_col = p * q // g, q // g, p // g
            grown: dict[tuple, int] = defaultdict(int)
            for (edges, row, cols), count in block.items():
                for y in range((budget - edges) // size + 1):
                    after = cols[:c] + (min(2, cols[c] + y * to_col),) + cols[c + 1 :]
                    key = (edges + y * size, min(2, row + y * to_row), after)
                    grown[key] += count * comb(y + g - 1, g - 1)
            block = grown
        states = defaultdict(int)
        for (edges, row, cols), count in block.items():
            # each column still short of 2 needs its deficit from the later rows
            if row == 2 and edges + sum((2 - x) * q for x, q in zip(cols, cycles)) <= s:
                states[edges, cols] += count
    return states.get((s, (2,) * len(cycles)), 0)


def census_count(j: int, s: int) -> int:
    """The number of isomorphism classes of j-vertex, s-edge stable graphs,
    without generating one: Burnside's lemma over S_j (Harary & Palmer,
    *Graphical Enumeration*, 1973), the mean over permutations of the
    matrices each fixes, summed by cycle type.  Equals
    len(enumerate_stable(j, s))."""
    if j < 1 or s < 2 * j:
        return 0
    total = 0
    for cycles in _cycle_types(j, j):
        centralizer = 1  # z = prod over lengths p of p^m * m!
        for p in set(cycles):
            m = cycles.count(p)
            centralizer *= p**m * factorial(m)
        total += factorial(j) // centralizer * _fixed_matrices(cycles, s)
    return total // factorial(j)


def raw_stable_matrices(j: int, s: int):
    """Brute force over all j x j matrices with entry sum s, no dedup.

    Test oracle for enumerate_stable: every matrix yielded here must be
    isomorphic to exactly one returned representative.  Exponential in j*j,
    usable only for tiny sizes.
    """
    for flat in _compositions(s, j * j):
        g = MultiDigraph(tuple(flat[i * j : (i + 1) * j] for i in range(j)))
        if is_stable(g):
            yield g

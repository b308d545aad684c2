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
remaining capacities) are listed once per call, each with the capacities
it leaves, by one recursion over a mutable row and a mutable capacity list
that builds one tuple of each per choice and none on the way.  The last row
cannot fill its own column off the diagonal, so row j - 2 takes all that
column j - 1 can still take, and every node of the fill has one last row.

Every full matrix thus has its vertices in non-increasing (out, in, loops)
order, and is kept only if it is its class's canonical matrix, by the
canonical test `graphs._leaf_search` of its runs of equal type, which the
catalog reader shares.  The fill misses no class: a canonical matrix, the
least leaf of `symmetry`'s search, lists its vertices in the refined order
of their types, so the fill reaches it.  The leaf test's first
splitter is the first type run R1, so its test is made on a prefix of rows:
once R1's rows are placed, a vertex v of a later run has its signature
against R1 as soon as row v is, the sorted pairs (A[v][w], A[w][v]) over w
in R1 (the one pair when R1 is one vertex), read from R1's columns cached
when R1 is complete.  A row whose signature falls below its predecessor's
in its run is dropped with its subtree, and so is an R1 whose own
signatures decrease, checked when its last row is placed.  This drops
exactly the leaves that the first splitter rejects, before they are built.
The canonical test searches a leaf that passes the leaf test from its
refined partition, and not at all when that is discrete, and keeps the leaf
only when it is the search's least leaf.  The search stops at the first
leaf below it, and at the end rejects it when the least leaf is another,
since a leaf need not be a leaf of its own search; a kept leaf runs the
whole search, so its generators and order are `symmetry`'s, and the record
of the class then searches nothing again.  The fill reaches each labelled
matrix at most once, so each class is kept exactly once, with no dedup.
Every row tuple the fill keeps, in its row choices and in the kept
matrices, is one object per distinct value for the whole call.

`census_count` counts the same classes without generating a graph, by
Burnside's lemma, and `catalog.stable_records` checks every catalog's
record count against it.  `connected_count` counts the weakly connected
ones among them, an oracle for the tests.  `check_weight` is the one
supported-weight policy; the CLI, the scripts and `catalog` call it.
Nothing here is memoized: `catalog.stable_records` keeps the records of
each (j, s), and every per-weight consumer (census, expansion, identities,
verify suites) reads them through `catalog.weight_records`.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import pairwise, repeat
from math import comb, factorial, gcd

from .graphs import Matrix, Symmetry, _leaf_search, _type_runs

__all__ = [
    "MAX_WEIGHT",
    "SLOW_WEIGHT",
    "check_weight",
    "census_count",
    "connected_count",
    "enumerate_stable",
]

MAX_WEIGHT = 7
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
    del rec  # it refers to itself: a cycle that only the collector would free


def _row_choices(v: int, kind: Type, caps: tuple[int, ...], pool: dict) -> list:
    """Each row v of type `kind` placed under column capacities `caps`, as
    (row, capacities after), rows in lexicographic order: its loops on the
    diagonal, its out - loops other edges split under the capacities of the
    other columns.  One recursion writes the row and the capacities after
    into two mutable lists, column by column over the columns that can take
    an edge, and makes one tuple of each per choice, none on the way; the
    row tuple is the one `pool` keeps, added on first sight.

    Row j - 1, the last, cannot fill its own column off the diagonal, so
    row j - 2 takes all that column j - 1 can still take: its entry there
    is fixed before the split, and every row listed at j - 1 is then the
    one that fills the other columns."""
    out, _, loops = kind
    last = len(caps) - 1
    fixed = caps[last] if v == last - 1 else 0  # row v's entry in column j - 1, if fixed
    free = [u for u in range(len(caps)) if caps[u] and u != v]  # the columns row v can use
    if fixed:
        free.pop()  # column j - 1, taken whole
    room = [0] * (len(free) + 1)  # room[i]: what the columns free[i:] take together
    for i in range(len(free) - 1, -1, -1):
        room[i] = room[i + 1] + caps[free[i]]
    row, after = [0] * len(caps), [*caps]
    row[v] = loops
    row[last] += fixed
    after[last] -= fixed
    choices: list = []
    append, setdefault = choices.append, pool.setdefault

    def place(left: int, i: int) -> None:
        """Split `left` <= room[i] over the columns free[i:], whose entries
        of row and after are bare on entry and again on return.  Each x
        leaves the later columns at most room[i + 1], so every branch ends
        in a row, and x ascending keeps the rows in lexicographic order."""
        if not left:
            key = tuple(row)
            append((setdefault(key, key), tuple(after)))
            return
        u = free[i]
        cap = caps[u]
        for x in range(max(0, left - room[i + 1]), min(cap, left) + 1):
            row[u], after[u] = x, cap - x
            place(left - x, i + 1)
        row[u], after[u] = 0, cap

    if 0 <= out - loops - fixed <= room[0]:
        place(out - loops - fixed, 0)
    del place  # it refers to itself: a cycle that only the collector would free
    return choices


def enumerate_stable(j: int, s: int) -> tuple[Symmetry, ...]:
    """`symmetry` of the canonical matrix of each isomorphism class of
    j-vertex, s-edge stable graphs, sorted by canonical matrix (for a fixed
    j, the canonical-key order).  Empty when s < 2j.  A catalog record reads
    the canonical matrix and vertex group order of its class from it, so it
    searches nothing again; `MultiDigraph` of the matrix is the class's
    canonical representative.  A leaf of the fill is kept only when it is
    its class's canonical matrix, so each class is kept once and its
    generators are automorphisms of its matrix; a rejected leaf's search
    stops at its first leaf below it, or at the end when its least leaf is
    another.  Row j - 2 fills what column j - 1 can still take, so no node
    is left without a last row.  The kept matrices share their rows: one
    tuple per distinct row for the whole call.  The module docstring
    describes the fill, its prefix test and its canonical test."""
    if j < 1 or s < 2 * j:
        return ()
    pool: dict[tuple[int, ...], tuple[int, ...]] = {}  # one tuple per distinct value
    choices: dict[tuple, list] = {}  # (vertex, type, capacities) -> _row_choices
    rows: list[tuple[int, ...]] = []
    kept: list[Symmetry] = []  # the classes found so far
    types: tuple[Type, ...] = ()  # the sequence being filled
    # the prefix test (module docstring): R1 = range(head) is the sequence's
    # first type run; top[v] is column v on R1's rows, or on its one row the
    # entry, once R1 is complete; sigs[v] is v's signature against R1
    head = 0
    top: tuple[int, ...] | Matrix = ()
    sigs: list = [None] * j

    def rec(v: int, caps: tuple[int, ...]) -> None:
        """Place row v; column u can still take caps[u] off-diagonal edges."""
        nonlocal top
        if v == j:
            leaf = tuple(rows)
            searched = _leaf_search(leaf, tuple(zip(*leaf)), runs)
            if searched is not None:  # leaf is its class's canonical matrix
                kept.append(searched)
            return
        key = (v, types[v], caps)
        entry = choices.get(key)
        if entry is None:
            entry = choices[key] = _row_choices(v, types[v], caps, pool)
        closes = v == head - 1  # then R1 is complete
        follows = v > head and types[v - 1] == types[v]  # v - 1 is in v's run
        for row, after in entry:
            if closes:  # cache R1's columns, and its own signatures must not decrease
                block = (*rows, row)
                top = row if head == 1 else tuple(zip(*block))
                if any(b < a for a, b in pairwise(map(_signature, block, top, repeat(head)))):
                    continue
            elif v >= head:
                sig = sigs[v] = _signature(row, top[v], head)
                if follows and sig < sigs[v - 1]:
                    continue
            rows.append(row)
            rec(v + 1, after)
            rows.pop()

    for types in _type_sequences(j, s):
        runs = _type_runs(types)
        head = len(runs[0])
        caps = tuple(in_ - loops for _, in_, loops in types)
        rec(0, caps)
    # rec refers to itself; dropping it frees the row choices now rather
    # than at the next full garbage collection
    del rec
    # by matrix, the first field, since no two classes share one; for a
    # fixed j, row-tuple order is canonical-key order
    kept.sort()
    return tuple(kept)


def _signature(row: tuple[int, ...], col, head: int):
    """The first splitter's signature, as `graphs.refine` has it, of a vertex
    v with this row and with `col` its column on the rows of R1 = range(head):
    the pair (A[v][0], A[0][v]) when R1 is vertex 0, else the sorted pairs
    (A[v][w], A[w][v]) over w in R1."""
    if head == 1:
        return row[0], col
    return sorted(zip(row[:head], col))


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
    orbits of one block sum to y in comb(y + g - 1, g - 1) ways.  Columns
    of one cycle length play the same part, so states that differ only by a
    permutation of the sums of such columns that this row cycle has passed
    are merged: those sums are kept sorted."""
    states = {(0, (0,) * len(cycles)): 1}
    later = sum(cycles)  # the rows not yet placed
    for p in cycles:
        later -= p
        budget = s - 2 * later  # each later row needs 2 edges
        block = {(edges, 0, cols): count for (edges, cols), count in states.items()}
        for c, q in enumerate(cycles):
            if c == 0 or cycles[c - 1] != q:
                a = c  # the first column of this run of equal length
            g = gcd(p, q)
            size, to_row, to_col = p * q // g, q // g, p // g
            grown: dict[tuple, int] = defaultdict(int)
            for (edges, row, cols), count in block.items():
                head, passed, tail = cols[:a], cols[a:c], cols[c + 1 :]
                for y in range((budget - edges) // size + 1):
                    after = head + tuple(sorted((*passed, min(2, cols[c] + y * to_col)))) + tail
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


def connected_count(k: int) -> int:
    """The number of weakly connected stable graphs of weight k, without
    generating one: the inverse Euler transform of the weight totals
    (Bernstein & Sloane, Linear Algebra Appl. 226-228, 1995), since weights
    add over components.  With c(w) = sum over d | w of d * connected(d),
    the totals a satisfy w a(w) = sum over i = 1..w of c(i) a(w - i).
    Zero for k < 1, like `census_count` outside its range."""
    if k < 1:
        return 0
    totals = [1] + [sum(census_count(j, j + w) for j in range(1, w + 1)) for w in range(1, k + 1)]
    c, connected = [0] * (k + 1), [0] * (k + 1)
    for w in range(1, k + 1):
        c[w] = w * totals[w] - sum(c[i] * totals[w - i] for i in range(1, w))
        connected[w] = (c[w] - sum(d * connected[d] for d in range(1, w) if w % d == 0)) // w
    return connected[k]

"""Exhaustive, isomorphism-free generation of stable multidigraphs.

G(k), the stable graphs of weight k, is the union over j = 1..k of the
j-vertex, (j+k)-edge stable graphs: stability forces every row and column sum
of the adjacency matrix to be at least 2, hence edge_count >= 2n and n <= k.

Generation is one recursion that fills the matrix row by row.  Each level
picks the row's sum (non-increasing, at least 2, and leaving at least 2 for
every later row), then the row itself.  Whether a row is allowed depends only
on its sum, the column sums so far capped at 2, and the edges left; so the
rows of each (row sum, capped column sums) are listed once per call, sorted
by how many edges the columns would still lack, and a level stops at the
first row that lacks more than it has left.

A full matrix is searched only if it passes the leaf test: its vertices are
in non-increasing order of the key (out-degree, in-degree, loops, neighbour
signature).  The signature of v is the multiset over u != v of ((out, in,
loops) of u, edges v -> u, edges u -> v), listed in descending order; it is
computed only for adjacent vertices that tie on the first three.  The test
is sound because the key does not depend on the labels and starts with the
out-degree: sorting the vertices of any stable graph by it gives a matrix of
its class with non-increasing row sums, which the fill reaches and which
passes the test.  Each leaf that passes goes to `symmetry`; the first search
of each canonical matrix is kept, and `canonical_graph` turns it into the
returned graph with its per-graph memo seeded, so the catalog records of a
class search nothing again.  The canonical dedup owns correctness
regardless.

`check_weight` is the one supported-weight policy; the CLI, the scripts and
`catalog` call it.  Nothing here is memoized: `catalog.stable_records` keeps
the records of each (j, s), and every per-weight consumer (census,
expansion, identities, verify suites) reads them through
`catalog.weight_records`.
"""

from __future__ import annotations

from operator import add, itemgetter

from .graphs import Matrix, MultiDigraph, Symmetry, canonical_graph, is_stable, symmetry

__all__ = [
    "MAX_WEIGHT",
    "SLOW_WEIGHT",
    "check_weight",
    "enumerate_stable",
    "raw_stable_matrices",
]

MAX_WEIGHT = 5
SLOW_WEIGHT = 5  # from this weight on, callers must opt in with allow_slow


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


def _row_candidates(row_sum: int, capped: tuple[int, ...]) -> list:
    """Each row of sum `row_sum` placed under column sums `capped` (capped
    at 2), as (need, row, capped sums after), sorted by need: the edges the
    columns then still lack for a sum of 2 each."""
    out = []
    for row in _compositions(row_sum, len(capped)):
        after = tuple(min(2, c + x) for c, x in zip(capped, row))
        out.append((2 * len(row) - sum(after), row, after))
    out.sort(key=itemgetter(0))
    return out


def _invariant_ordered(rows, row_sums, col_sums) -> bool:
    """The leaf test of the fill (see the module docstring): whether the
    vertices of the full matrix `rows`, whose row sums are non-increasing,
    are in non-increasing order of (out-degree, in-degree, loops, neighbour
    signature).  Signatures are computed only for adjacent vertices that tie
    on the first three."""
    n = len(rows)
    tied = []
    for a in range(n - 1):
        b = a + 1
        if row_sums[a] == row_sums[b]:
            first, second = (col_sums[a], rows[a][a]), (col_sums[b], rows[b][b])
            if first < second:
                return False
            if first == second:
                tied.append(a)
    if not tied:
        return True
    invariants = [(row_sums[u], col_sums[u], rows[u][u]) for u in range(n)]
    signatures: dict[int, list] = {}

    def signature(v: int) -> list:
        if v not in signatures:
            row = rows[v]
            signatures[v] = sorted(
                [(invariants[u], row[u], rows[u][v]) for u in range(n) if u != v], reverse=True
            )
        return signatures[v]

    return all(signature(a) >= signature(a + 1) for a in tied)


def enumerate_stable(j: int, s: int) -> tuple[MultiDigraph, ...]:
    """One canonical representative per isomorphism class of j-vertex,
    s-edge stable graphs, sorted by canonical key.  Empty when s < 2j.

    Fills the rows in one recursion (see the module docstring).  Only
    matrices whose vertices are in non-increasing order of (out-degree,
    in-degree, loops, neighbour signature) reach `symmetry`; every class has
    one, because that key does not depend on the labels and starts with the
    out-degree.  The rows allowed after each (row sum, column sums capped at
    2) are listed once per call.  Each returned graph carries the search
    that found it in the per-graph memo of `graphs`."""
    if j < 1 or s < 2 * j:
        return ()
    candidates: dict[tuple, list] = {}  # (row sum, capped column sums) -> _row_candidates
    rows: list[tuple[int, ...]] = []
    row_sums: list[int] = []
    found: dict[Matrix, Symmetry] = {}  # canonical matrix -> its first search

    def rec(left: int, col_sums: tuple[int, ...], capped: tuple[int, ...]) -> None:
        """Place the next row, with `left` edges still to place; the column
        sums so far are `col_sums`, and `capped` is them capped at 2."""
        placed = len(rows)
        if placed == j:
            if _invariant_ordered(rows, row_sums, col_sums):
                # symmetry, not canonical_form: the per-graph memo would keep
                # every raw matrix; canonical_graph seeds it once per class
                searched = symmetry(tuple(rows))
                found.setdefault(searched.matrix, searched)
            return
        later = j - placed - 1
        cap = row_sums[-1] if row_sums else left
        # non-increasing row sums, each at least 2 and leaving 2 per later row;
        # the ceiling leaves no later row a larger sum than this one
        lo = max(2, -(-left // (later + 1)))
        for row_sum in range(min(cap, left - 2 * later), lo - 1, -1):
            key = (row_sum, capped)
            entry = candidates.get(key)
            if entry is None:
                entry = candidates[key] = _row_candidates(row_sum, capped)
            budget_after = left - row_sum
            row_sums.append(row_sum)
            for need, row, capped_after in entry:
                if need > budget_after:
                    break
                rows.append(row)
                rec(budget_after, tuple(map(add, col_sums, row)), capped_after)
                rows.pop()
            row_sums.pop()

    rec(s, (0,) * j, (0,) * j)
    # for a fixed j, row-tuple order is canonical-key order
    return tuple(canonical_graph(found[matrix]) for matrix in sorted(found))


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

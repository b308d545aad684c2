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
first row that lacks more than it has left.  A full matrix is kept only if
its vertex invariants (out-degree, in-degree, loops) are lexicographically
non-increasing; only then is it replaced by its canonical matrix from
`symmetry`, and a set removes the duplicates.  The order is sound because
the invariants do not depend on the labels: sorting the vertices of any
stable graph by them gives a matrix of its class that passes the test and
has non-increasing row sums, so the fill reaches it.  The canonical dedup
owns correctness regardless.

`check_weight` is the one supported-weight policy; the CLI, the scripts and
`catalog` call it.  Nothing here is memoized: `catalog.stable_records` keeps
the records of each (j, s), and every per-weight consumer (census,
expansion, identities, verify suites) reads them through
`catalog.weight_records`.
"""

from __future__ import annotations

from operator import add, itemgetter

from .graphs import Matrix, MultiDigraph, is_stable, symmetry

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


def enumerate_stable(j: int, s: int) -> tuple[MultiDigraph, ...]:
    """One canonical representative per isomorphism class of j-vertex,
    s-edge stable graphs, sorted by canonical key.  Empty when s < 2j.

    Fills the rows in one recursion (see the module docstring).  Only
    matrices whose vertex invariants (out-degree, in-degree, loops) are
    lexicographically non-increasing reach `symmetry`, which every class
    has one of; the rows allowed after each (row sum, column sums capped at
    2) are listed once per call."""
    if j < 1 or s < 2 * j:
        return ()
    candidates: dict[tuple, list] = {}  # (row sum, capped column sums) -> _row_candidates
    rows: list[tuple[int, ...]] = []
    row_sums: list[int] = []
    found: set[Matrix] = set()

    def rec(left: int, col_sums: tuple[int, ...], capped: tuple[int, ...]) -> None:
        """Place the next row, with `left` edges still to place; the column
        sums so far are `col_sums`, and `capped` is them capped at 2."""
        placed = len(rows)
        if placed == j:
            # the leaf test: in a run of equal row sums, (in-degree, loops)
            # must not increase
            for a in range(j - 1):
                b = a + 1
                if row_sums[a] == row_sums[b] and (col_sums[a], rows[a][a]) < (col_sums[b], rows[b][b]):
                    return
            # symmetry, not canonical_form: the per-graph memo would keep every raw matrix
            found.add(symmetry(tuple(rows)).matrix)
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
    return tuple(MultiDigraph(matrix) for matrix in sorted(found))


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

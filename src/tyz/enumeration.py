"""Exhaustive, isomorphism-free generation of stable multidigraphs.

G(k), the stable graphs of weight k, is the union over j = 1..k of the
j-vertex, (j+k)-edge stable graphs: stability forces every row and column sum
of the adjacency matrix to be at least 2, hence edge_count >= 2n and n <= k.

Generation is one recursion that fills the matrix row by row.  Each level
picks the row's sum (non-increasing, at least 2, and leaving at least 2 for
every later row), then the row itself among the compositions of that sum,
which are listed once per call, and prunes on remaining column demand.  Each
full matrix is replaced by its canonical matrix from `symmetry`, and a set
removes the duplicates.  Non-increasing row sums are sound because any
matrix can be brought to them by a simultaneous row/column permutation, and
the canonical dedup owns correctness regardless.

`check_weight` is the one supported-weight policy; the CLI, the scripts and
`catalog` call it.  Nothing here is memoized: `catalog.stable_records` keeps
the records of each (j, s), and every per-weight consumer (census,
expansion, identities, verify suites) reads them through
`catalog.weight_records`.
"""

from __future__ import annotations

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


def enumerate_stable(j: int, s: int) -> tuple[MultiDigraph, ...]:
    """One canonical representative per isomorphism class of j-vertex,
    s-edge stable graphs, sorted by canonical key.  Empty when s < 2j."""
    if j < 1 or s < 2 * j:
        return ()
    rows_of: dict[int, list[tuple[int, ...]]] = {}  # row sum -> its compositions
    rows: list[tuple[int, ...]] = []
    col_sums = [0] * j
    found: set[Matrix] = set()

    def rec(left: int, cap: int) -> None:
        """Place the next row, with `left` edges still to place and a row sum
        of at most `cap`, the sum of the row before."""
        if len(rows) == j:
            # symmetry, not canonical_form: the per-graph memo would keep every raw matrix
            found.add(symmetry(tuple(rows)).matrix)
            return
        later = j - len(rows) - 1
        # non-increasing row sums, each at least 2 and leaving 2 per later row;
        # the ceiling leaves no later row a larger sum than this one
        lo = max(2, -(-left // (later + 1)))
        for row_sum in range(min(cap, left - 2 * later), lo - 1, -1):
            if row_sum not in rows_of:
                rows_of[row_sum] = list(_compositions(row_sum, j))
            budget_after = left - row_sum
            for row in rows_of[row_sum]:
                need = 0
                for c in range(j):
                    col_sums[c] += row[c]
                    short = 2 - col_sums[c]
                    if short > 0:
                        need += short
                if need <= budget_after:
                    rows.append(row)
                    rec(budget_after, row_sum)
                    rows.pop()
                for c in range(j):
                    col_sums[c] -= row[c]

    rec(s, s)
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

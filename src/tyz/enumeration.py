"""Exhaustive, isomorphism-free generation of stable multidigraphs.

G(k), the stable graphs of weight k, is the union over j = 1..k of the
j-vertex, (j+k)-edge stable graphs: stability forces every row and column sum
of the adjacency matrix to be at least 2, hence edge_count >= 2n and n <= k.

Generation fills matrices row by row for each admissible row-sum vector and
prunes on remaining column demand; duplicates are removed by canonical key.
Row-sum vectors are generated as partitions (non-increasing) rather than all
compositions, which is sound because any matrix can be brought to
non-increasing row sums by a simultaneous row/column permutation, and the
canonical-key dedup owns correctness regardless.

`check_weight` is the one supported-weight policy; the CLI, the scripts and
`catalog` call it.  Nothing here is memoized: `catalog.stable_records` keeps
the records of each (j, s), and every per-weight consumer (census,
expansion, identities, verify suites) reads them through
`catalog.weight_records`.
"""

from __future__ import annotations

from .graphs import MultiDigraph, is_stable, symmetry

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


def _row_sum_partitions(total: int, parts: int, cap: int | None = None):
    """Non-increasing sequences of `parts` integers >= 2 summing to `total`."""
    if cap is None:
        cap = total
    if parts == 0:
        if total == 0:
            yield ()
        return
    lo = -(-total // parts)  # ceiling: keep the sequence non-increasing
    for first in range(min(cap, total - 2 * (parts - 1)), max(2, lo) - 1, -1):
        for rest in _row_sum_partitions(total - first, parts - 1, first):
            yield (first, *rest)


def _compositions(total: int, parts: int):
    """All sequences of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def _fill_rows(row_sums: tuple[int, ...], j: int, out: set) -> None:
    rows: list[tuple[int, ...]] = []
    col_sums = [0] * j

    def rec(r: int) -> None:
        if r == len(row_sums):
            # symmetry, not canonical_key: the latter's memo would keep every raw matrix
            out.add((j, *symmetry(tuple(rows)).flat))
            return
        budget_after = sum(row_sums[r + 1 :])
        for row in _compositions(row_sums[r], j):
            need = 0
            for c in range(j):
                col_sums[c] += row[c]
                short = 2 - col_sums[c]
                if short > 0:
                    need += short
            if need <= budget_after:
                rows.append(row)
                rec(r + 1)
                rows.pop()
            for c in range(j):
                col_sums[c] -= row[c]

    rec(0)


def enumerate_stable(j: int, s: int) -> tuple[MultiDigraph, ...]:
    """One canonical representative per isomorphism class of j-vertex,
    s-edge stable graphs, sorted by canonical key.  Empty when s < 2j."""
    if j < 1 or s < 2 * j:
        return ()
    keys: set[tuple[int, ...]] = set()
    for row_sums in _row_sum_partitions(s, j):
        _fill_rows(row_sums, j, keys)
    graphs = []
    for key in sorted(keys):
        n, flat = key[0], key[1:]
        graphs.append(MultiDigraph(tuple(flat[i * n : (i + 1) * n] for i in range(n))))
    return tuple(graphs)


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

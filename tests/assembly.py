"""Graph builders that the tests share and the package does not need."""

from tyz.graphs import MultiDigraph


def disjoint_union(gs: list[MultiDigraph]) -> MultiDigraph:
    """The block-diagonal graph of gs, in order."""
    total = sum(g.n for g in gs)
    out = [[0] * total for _ in range(total)]
    offset = 0
    for g in gs:
        for i in range(g.n):
            for j in range(g.n):
                out[offset + i][offset + j] = g.adj[i][j]
        offset += g.n
    return MultiDigraph(tuple(tuple(row) for row in out))

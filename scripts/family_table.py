"""Tabulate z across the named graph families, two ways.

Each row evaluates the closed-form expression for the family and then
rebuilds the same value from the adjacency matrix via -det(A - I)/|Aut|.
"""

from __future__ import annotations

import argparse

from tyz import FamilySpec, build_family, z, z_family
from tyz.catalog import format_rational


def roster(max_n: int) -> list[tuple[FamilySpec, str]]:
    rows: list[tuple[FamilySpec, str]] = []
    for n in range(3, max_n + 1):
        rows.append((FamilySpec("A", n), f"n={n}"))
    for n in range(3, max_n + 1):
        rows.append((FamilySpec("B", n), f"n={n}"))
    for n in range(3, max_n + 1):
        rows.append((FamilySpec("C", n), f"n={n}"))
    for n in range(2, max_n + 1):
        rows.append((FamilySpec("K", n), f"n={n}"))
    for n in range(2, 7):
        rows.append((FamilySpec("D", n), f"n={n}"))
    for m, n in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4)):
        rows.append((FamilySpec("Kmn", n, m=m), f"m={m} n={n}"))
    for n in range(2, max_n + 1):
        rows.append((FamilySpec("loops", n), f"n={n}"))
    for m, i, j, n in ((0, 2, 2, 0), (1, 1, 1, 1), (2, 2, 2, 0), (0, 3, 2, 1), (1, 2, 2, 1)):
        rows.append((FamilySpec("twovertex", n, m=m, i=i, j=j), f"[{m} {i}; {j} {n}]"))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=6, metavar="N",
                    help="largest n for the single-parameter families (3..16)")
    args = ap.parse_args()
    if not 3 <= args.max_n <= 16:
        ap.error("--max-n must be between 3 and 16")

    print(f"{'family':>9} {'params':>12} {'V':>3} {'E':>3} {'wt':>3} "
          f"{'closed form':>12} {'from matrix':>12} {'ok':>3}")
    mismatches = 0
    for spec, params in roster(args.max_n):
        closed = z_family(spec)
        g = build_family(spec)
        direct = z(g)
        ok = closed == direct
        mismatches += not ok
        print(f"{spec.family:>9} {params:>12} {g.n:>3} {g.edge_count:>3} "
              f"{g.weight:>3} {format_rational(closed):>12} "
              f"{format_rational(direct):>12} {'yes' if ok else 'NO':>3}")

    if mismatches:
        print(f"\n{mismatches} row(s) FAILED the cross-check")
        return 1
    print("\nevery closed form matches the determinant evaluation")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

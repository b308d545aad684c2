"""Print the stable-graph census per weight with wall-clock timings and memory.

For each weight k the row reports how many stable multidigraphs exist, how
many are weakly connected, how many strongly connected, how many of those
have det(A - I) != 0, and how many carry a zero expansion coefficient, then
the seconds the census of k took and the process's peak resident memory so
far.  Every weight's records stay in memory, so the last row's peak is that
of the whole run.  Catalogs are read from and written to TYZ_CACHE_DIR as
in the CLI, so an empty cache directory gives the cold figures and a filled
one the reread figures.  The slow weights sit behind --allow-slow like the
CLI; its help names them.
"""

from __future__ import annotations

import argparse
import sys
import time

from tyz import class_counts, weight_records
from tyz.enumeration import MAX_WEIGHT, SLOW_WEIGHT, check_weight


def peak_mb() -> float:
    """Peak resident memory of this process so far, in MB: VmHWM where
    /proc/self/status has it (Linux), else ru_maxrss."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    # kilobytes on Linux, bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-weight", type=int, default=4, metavar="K")
    ap.add_argument(
        "--allow-slow", action="store_true", help=f"permit weights {SLOW_WEIGHT}–{MAX_WEIGHT}"
    )
    args = ap.parse_args()

    try:
        check_weight(args.max_weight, args.allow_slow)
    except ValueError as exc:
        ap.error(str(exc))

    print(f"{'k':>2} {'stable':>7} {'conn':>6} {'strong':>7} {'det!=0':>7} "
          f"{'z==0':>5} {'seconds':>8} {'peak MB':>8}")
    for k in range(1, args.max_weight + 1):
        t0 = time.perf_counter()
        counts = class_counts(k)
        dt = time.perf_counter() - t0
        zeros = sum(r.z == 0 for r in weight_records(k))
        print(f"{k:>2} {counts.total:>7} {counts.connected:>6} "
              f"{counts.strongly_connected:>7} {counts.lam:>7} {zeros:>5} {dt:>8.3f} "
              f"{peak_mb():>8.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

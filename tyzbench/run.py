#!/usr/bin/env python3
"""Benchmark of the `tyz` package: cold census, cache reread, large-graph evaluation.

Usage, from the root of a checkout:

    python3 tyzbench/run.py --workload census-cold --seed 1 --seconds 20 --trace 0

Every pass runs in a fresh child interpreter (tyzbench/child.py), one child at
a time, because every `tyz` command is a fresh process and the in-process
caches (`_memo`, `@cache`) would otherwise turn a cold pass warm.  Each pass
gets its own temporary cache directory under tyzbench/.work, so the
catalogs committed in the checkout's .tyz-cache/ are never read.  The
package is imported from the checkout's src/ directory; nothing is installed.

Passes repeat until --seconds have elapsed (at least one).  Timings are
scaled to a reference machine speed (see PROBE_REFERENCE_S).  With --trace 0
the last line reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced passes and reports the per-layer
metrics.  Every output is checked against pinned values that do not depend on
which canonical representative the program picks.  NOTES.md lists what each
workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

RUN_LIMIT_S = 165.0  # children still running then are killed, so a run ends within 180 s
SETUP_SAMPLES = 15
# The host's speed can drift 2x within minutes (on a 2-core x86 VM one cold
# census pass took 16 s and 31 s, 15 minutes apart), beyond any useful bound.
# Every child therefore times a fixed pure-Python loop (child.speed_probe)
# next to its work, and timings are reported scaled to the speed at which
# that loop takes PROBE_REFERENCE_S.  In a 6-minute test this cut the spread
# of 20-s windows of symmetry search from 0.29 to 0.07.  Raw times are
# printed alongside.
PROBE_REFERENCE_S = 0.030

# ---------------------------------------------------------------------------
# workload inputs and pinned expectations
# ---------------------------------------------------------------------------

# Weights 1..5 complete, plus the weight-6 catalogs with j <= 5 vertices.
# (6, 12) is left out: it alone takes about 6 minutes.
CENSUS_CATALOGS = [(j, j + k) for k in range(1, 6) for j in range(1, k + 1)] + [
    (j, j + 6) for j in range(1, 6)
]
# (total, connected, strongly connected, strongly connected with det(A-I) != 0)
TABLE2 = {
    1: (1, 1, 1, 1),
    2: (4, 3, 3, 3),
    3: (15, 11, 10, 9),
    4: (82, 61, 51, 45),
    5: (589, 474, 373, 316),
}
WEIGHT6_COUNTS = {1: 1, 2: 45, 3: 600, 4: 2388, 5: 2252}
# sha256 of the sorted multiset of (vertices, edges, class, det(A-I), |Aut|,
# z, Euler tours, charpoly) over the census; independent of representatives.
CENSUS_DIGEST = "b372f4129e8fbbfa2deeebcf593bd72184ccb74cec20ddb967dcbb94c730fa23"

FAMILIES = (
    [(f, 0, n) for f in "ABC" for n in range(3, 10)]
    + [("K", 0, n) for n in range(2, 9)]
    + [("D", 0, n) for n in range(2, 5)]
    + [("Kmn", m, n) for m, n in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5))]
)
# sha256 of the sorted (label, vertices, z, |Aut|, det(A-I), tours, charpoly)
# rows of the family instances; relabelling leaves every one unchanged.
FAMILY_DIGEST = "0cd56e6e9c792e23177479e30d7528a95b88ac75a05482542f0d261275f5246c"
VERIFY_CASES = 376

# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYERS = ("graphs", "enumeration", "zeta", "spectral", "eulerian", "catalog", "cli")
TRACED_CALLS = (
    "graphs.canonical_key",
    "graphs.automorphisms",
    "graphs.aut_order",
    "graphs.weak_components",
    "enumeration.enumerate_stable",
    "zeta.z",
    "catalog.build_record",
)
TRACED_SELF = TRACED_CALLS + (
    "zeta.det_a_minus_i",
    "spectral.charpoly",
    "spectral.z_orbit",
    "spectral.coefficient_from_linear",
    "eulerian.euler_tour_count",
    "eulerian.euler_tour_bruteforce",
    "eulerian.bernoulli_identity_lhs",
    "catalog.stable_records",
    "catalog.read_catalog",
    "catalog.write_catalog",
    "catalog.verify",
    "cli.main",
)
TRACED_COUNTS = {
    "enumeration.classes": "count",
    "catalog.read_catalog.records": "count",
    "catalog.write_catalog.bytes": "B",
    "catalog.cache.hit": "count",
    "catalog.cache.miss": "count",
    "catalog.cache.rebuilt": "count",
    "catalog.verify.cases": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.calls": "count" for name in TRACED_CALLS}
    units.update({f"{name}.self_s": "s" for name in TRACED_SELF})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update(TRACED_COUNTS)
    units["enumeration.keys_per_class"] = "keys/class"
    units["trace.span_share"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def layer_metrics(trace: dict, wall: float) -> dict[str, float]:
    stats, counts = trace["stats"], trace["counts"]
    empty = [0, 0, 0]
    out = {f"{name}.calls": stats.get(name, empty)[0] for name in TRACED_CALLS}
    out.update({f"{name}.self_s": stats.get(name, empty)[2] / 1e9 for name in TRACED_SELF})
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(s[2] for name, s in stats.items() if name.split(".")[0] == layer) / 1e9
        )
    out.update({name: counts.get(name, 0) for name in TRACED_COUNTS})
    classes = counts.get("enumeration.classes", 0)
    out["enumeration.keys_per_class"] = counts.get("enumeration.keys", 0) / classes if classes else 0
    out["trace.span_share"] = sum(s[2] for s in stats.values()) / 1e9 / wall
    return out


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


class PassError(Exception):
    """A child failed, timed out, or ran a tyz from outside the checkout."""


def spawn(spec: dict, cwd: Path, cache_dir: str, deadline: float, pycache: Path) -> tuple[float, dict]:
    """Run child.py once; return the spawn time and the child's JSON reply."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # bytecode goes to the run's own prefix
    env.update(
        PYTHONPATH=str(SRC),
        TYZ_CACHE_DIR=cache_dir,
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(pycache),
    )
    argv = [sys.executable, "-s", str(BENCH / "child.py"), json.dumps(spec)]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassError(f"{spec['kind']} pass timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-3:]
        raise PassError(f"{spec['kind']} child exited {proc.returncode}: {' | '.join(tail)}")
    reply = json.loads(out)
    if not Path(reply["tyz_file"]).resolve().is_relative_to(SRC):
        raise PassError(f"child imported tyz from {reply['tyz_file']}, not from {SRC}")
    return t_spawn, reply


def snapshot(directory: Path) -> dict:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in directory.iterdir()}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(sorted(rows)).encode()).hexdigest()


def det_from_charpoly(n: int, poly) -> int:
    """det(A - I) = (-1)^n det(I - A) = (-1)^n p(1) for p = det(lambda I - A)."""
    return (-1) ** n * sum(poly)


def brute_key(adj) -> tuple:
    n = len(adj)
    return (n, min(tuple(adj[u][v] for u in p for v in p) for p in permutations(range(n))))


def check_census(rows: list, catalogs: list, tyz) -> tuple[int, list[str]]:
    """Check census records; return (outputs checked, failure messages)."""
    failures = []
    per_catalog = Counter()
    per_weight = {k: [0, 0, 0, 0] for k in TABLE2}
    small = {}  # brute-force key -> z, weights 1..4
    invariants = []
    for j, s, n, edges, cls, det, aut, z, tours, poly, adj in rows:
        per_catalog[(j, s)] += 1
        invariants.append([n, edges, cls, det, aut, z, tours, poly])
        value = Fraction(z)
        problems = []
        if (n, edges) != (j, s):
            problems.append(f"size {n}x{edges}")
        if det != det_from_charpoly(n, poly):
            problems.append(f"det(A-I) {det} disagrees with charpoly {poly}")
        if cls == "connected" and value != 0:
            problems.append(f"connected, not strongly connected, but z = {z}")
        if cls == "strongly_connected" and value != Fraction(-det, aut):
            problems.append(f"z = {z} but -det/aut = {Fraction(-det, aut)}")
        if problems:
            failures.append(f"({j},{s}) {adj}: " + "; ".join(problems))
        weight = s - j
        if weight in per_weight:
            counts = per_weight[weight]
            counts[0] += 1
            counts[1] += cls != "disconnected"
            counts[2] += cls == "strongly_connected"
            counts[3] += cls == "strongly_connected" and det != 0
        if weight <= 4:
            small[brute_key(adj)] = value
    checked = len(rows) + 1
    if sorted(per_catalog) != sorted(map(tuple, catalogs)):
        failures.append(f"catalogs returned {sorted(per_catalog)}, asked {sorted(catalogs)}")
    for k, expected in TABLE2.items():
        checked += 1
        if tuple(per_weight[k]) != expected:
            failures.append(f"weight {k}: counts {tuple(per_weight[k])}, expected {expected}")
    for j, expected in WEIGHT6_COUNTS.items():
        checked += 1
        if per_catalog[(j, j + 6)] != expected:
            failures.append(f"({j},{j + 6}): {per_catalog[(j, j + 6)]} graphs, expected {expected}")
    checked += 1
    if digest(invariants) != CENSUS_DIGEST:
        failures.append(f"census digest {digest(invariants)} != pinned {CENSUS_DIGEST}")
    for k in range(1, 5):
        for graph, value in tyz.golden_fixture(k).entries:
            checked += 1
            got = small.get(brute_key(graph.adj))
            if got != value:
                failures.append(f"golden weight {k} {graph.adj}: z = {got}, pinned {value}")
    return checked, failures


def family_inputs(rng: random.Random, tyz) -> list:
    """Family instances, each relabelled by a random vertex permutation, in random order."""
    graphs = []
    for family, m, n in FAMILIES:
        adj = tyz.build_family(tyz.FamilySpec(family, n=n, m=m)).adj
        per = rng.sample(range(len(adj)), len(adj))
        relabelled = [[adj[per[i]][per[j]] for j in range(len(adj))] for i in range(len(adj))]
        graphs.append([family_label(family, m, n), relabelled])
    rng.shuffle(graphs)
    return graphs


def family_label(family: str, m: int, n: int) -> str:
    return f"{family}({m},{n})" if family == "Kmn" else f"{family}({n})"


def check_evaluate(payload: dict, tyz) -> tuple[int, list[str]]:
    failures = [f"verify case failed: {name}" for name in payload["verify_failed"]]
    checked = payload["verify_cases"] + 1
    if payload["verify_exit"] != 0 or payload["verify_cases"] < VERIFY_CASES:
        failures.append(
            f"verify all: exit {payload['verify_exit']}, {payload['verify_cases']} cases"
        )
    expected = {
        family_label(f, m, n): tyz.z_family(tyz.FamilySpec(f, n=n, m=m)) for f, m, n in FAMILIES
    }
    rows = payload["families"]
    checked += len(expected) + 1
    if sorted(r[0] for r in rows) != sorted(expected):
        failures.append("family instances returned differ from those sent")
    for label, n, z, aut, det, tours, poly in rows:
        value = Fraction(z)
        problems = []
        if value != expected.get(label):
            problems.append(f"z = {z}, closed form {expected.get(label)}")
        if value != Fraction(-det, aut):
            problems.append(f"z = {z} but -det/aut = {Fraction(-det, aut)}")
        if det != det_from_charpoly(n, poly):
            problems.append(f"det(A-I) {det} disagrees with charpoly {poly}")
        if problems:
            failures.append(f"{label}: " + "; ".join(problems))
    if digest(rows) != FAMILY_DIGEST:
        failures.append(f"family digest {digest(rows)} != pinned {FAMILY_DIGEST}")
    return checked, failures


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Run:
    """State of one benchmark run: its scratch directory, deadline and tallies."""

    def __init__(self, tyz, seed: int):
        self.tyz = tyz
        self.rng = random.Random(seed)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.pycache = self.dir / "pycache"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failures: list[str] = []
        self.fill: Path | None = None  # catalogs written by fill_cache

    def child(self, spec: dict, cache_dir: str) -> tuple[float, dict, Path]:
        cwd = Path(tempfile.mkdtemp(prefix="pass-", dir=self.dir))
        t_spawn, reply = spawn(spec, cwd, cache_dir, self.deadline, self.pycache)
        return t_spawn, reply, cwd

    @staticmethod
    def timings(reply: dict, t_spawn: float) -> dict:
        """What the parent keeps of a checked pass; the payload is dropped.

        Wall and CPU time cover start-up to `import tyz` plus the work, and
        are scaled to the reference machine speed."""
        wall = reply["t_import"] - t_spawn + reply["work_s"]
        scale = PROBE_REFERENCE_S / reply["probe_s"]
        return {
            "raw_wall_s": wall,
            "probe_s": reply["probe_s"],
            "wall_s": wall * scale,
            "cpu_s": (reply["cpu_import"] + reply["work_cpu_s"]) * scale,
            "maxrss_kb": reply["maxrss_kb"],
            "trace": reply.get("trace"),
        }

    def tally(self, checked: int, failures: list[str]) -> None:
        self.attempted += checked
        self.failures += failures

    def setup_times(self, samples: int) -> list[float]:
        times = []
        for _ in range(samples):
            t_spawn, reply, cwd = self.child({"kind": "setup"}, "")
            times.append((reply["t_import"] - t_spawn) * PROBE_REFERENCE_S / reply["probe_s"])
            shutil.rmtree(cwd)
        return times

    def census_spec(self, trace: bool) -> dict:
        catalogs = list(CENSUS_CATALOGS)
        self.rng.shuffle(catalogs)
        return {"kind": "census", "trace": trace, "catalogs": catalogs}

    def census_cold(self, trace: bool) -> dict:
        spec = self.census_spec(trace)
        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.dir))
        t_spawn, reply, cwd = self.child(spec, str(cache))
        self.tally(*check_census(reply["payload"], spec["catalogs"], self.tyz))
        self.tally(1, [] if any(cache.iterdir()) else ["cold pass wrote no catalog files"])
        shutil.rmtree(cache)
        shutil.rmtree(cwd)
        return self.timings(reply, t_spawn)

    def fill_cache(self) -> None:
        """Untimed: the code under test writes the catalogs the reread passes read.

        A checked fill is kept under WORK, keyed by a digest of src/tyz and
        child.py, so later runs in the same checkout skip its ~20 s."""
        self.fill = WORK / f"fill-{source_digest()}"
        if self.fill.is_dir():
            return
        staging = Path(tempfile.mkdtemp(prefix="fill-", dir=self.dir))
        spec = {"kind": "census", "trace": False, "catalogs": CENSUS_CATALOGS}
        _, reply, cwd = self.child(spec, str(staging))
        checked, failures = check_census(reply["payload"], CENSUS_CATALOGS, self.tyz)
        self.tally(checked, failures)
        shutil.rmtree(cwd)
        if failures:
            self.fill = staging  # a fill with wrong records is used once, not kept
            return
        try:
            staging.rename(self.fill)
        except OSError:  # another run kept its fill first
            self.fill = staging

    def census_reread(self, trace: bool) -> dict:
        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.dir))
        shutil.copytree(self.fill, cache, dirs_exist_ok=True)
        before = snapshot(cache)
        spec = self.census_spec(trace)
        t_spawn, reply, cwd = self.child(spec, str(cache))
        self.tally(*check_census(reply["payload"], spec["catalogs"], self.tyz))
        self.tally(1, [] if snapshot(cache) == before else ["reread pass rewrote the cache"])
        shutil.rmtree(cache)
        shutil.rmtree(cwd)
        return self.timings(reply, t_spawn)

    def evaluate(self, trace: bool) -> dict:
        spec = {"kind": "evaluate", "trace": trace, "graphs": family_inputs(self.rng, self.tyz)}
        t_spawn, reply, cwd = self.child(spec, "")
        self.tally(*check_evaluate(reply["payload"], self.tyz))
        shutil.rmtree(cwd)
        return self.timings(reply, t_spawn)


# workload -> (untimed preparation or None, one pass)
WORKLOADS = {
    "census-cold": (None, Run.census_cold),
    "census-reread": (Run.fill_cache, Run.census_reread),
    "evaluate": (None, Run.evaluate),
}

# ---------------------------------------------------------------------------
# measuring and reporting
# ---------------------------------------------------------------------------


def source_digest() -> str:
    """sha256 of the package sources and of the child that runs them."""
    sources = hashlib.sha256()
    paths = sorted(p for p in (SRC / "tyz").rglob("*") if "__pycache__" not in p.parts)
    for path in paths + [BENCH / "child.py"]:
        if path.is_file():
            sources.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return sources.hexdigest()


def environment(args) -> dict:
    head = "unknown"
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = git / name
            if loose.exists():
                head = loose.read_text().strip()
            else:
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        head = line.split()[0]
        else:
            head = ref
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": head,
        "source_sha256": source_digest(),
    }


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def measure(run: Run, workload: str, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Run passes until `seconds` have elapsed; return (metrics, units).

    With `trace` every untraced pass is followed by a traced one."""
    prepare, one_pass = WORKLOADS[workload]
    run.setup_times(1)  # compile bytecode before anything is timed
    setup = [] if trace else run.setup_times(SETUP_SAMPLES)
    if prepare is not None:
        prepare(run)
    plain, traced = [], []
    start = time.monotonic()
    while not plain or time.monotonic() - start < seconds:
        began = time.monotonic()
        plain.append(one_pass(run, False))
        report(plain[-1], len(plain), traced=False)
        if trace:
            traced.append(one_pass(run, True))
            report(traced[-1], len(traced), traced=True)
        if 2 * time.monotonic() - began > run.deadline:
            break  # another round would not end in time
    if trace:
        units = per_layer_units()
        per_pass = [layer_metrics(p["trace"], p["raw_wall_s"]) for p in traced]
        metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        # raw times: each traced pass ran right after its untraced twin
        metrics["trace.overhead_ratio"] = statistics.median(
            p["raw_wall_s"] for p in traced
        ) / statistics.median(p["raw_wall_s"] for p in plain)
        return metrics, units
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in plain),
    }
    return metrics, END_TO_END


def report(p: dict, index: int, traced: bool) -> None:
    print(
        f"pass {index}{' traced' if traced else ''}: wall_s={p['wall_s']:.4f} "
        f"cpu_s={p['cpu_s']:.4f} peak_rss_mb={p['maxrss_kb'] / 1024:.1f} "
        f"raw_wall_s={p['raw_wall_s']:.4f} probe_ms={p['probe_s'] * 1000:.2f}",
        flush=True,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tyz" / "__init__.py").is_file():
        print(f"error: no tyz package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(SRC))
    import tyz

    env = environment(args)
    env["loadavg_before"] = loadavg()
    WORK.mkdir(exist_ok=True)
    run = Run(tyz, args.seed)
    try:
        metrics, units = measure(run, args.workload, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    env["loadavg_after"] = loadavg()
    failed = len(run.failures)
    for message in run.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(f"checked {run.attempted} outputs, {failed} failed "
          f"(fail_ratio {failed / max(run.attempted, 1):.6f})")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6f} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark pass in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

The parent passes the pass description as JSON and reads one JSON object
from standard output.  `t_import` is the CLOCK_MONOTONIC reading the moment
`import tyz` returns, so the parent can subtract its own spawn time;
`work_s` and `work_cpu_s` time the workload alone.  `probe_s` is the
calibration loop's time just before and after the work (or after the import,
for a set-up child), which the parent uses to scale the timings to a fixed
machine speed.  Serializing the results for the parent is not timed.
"""

import time

import tyz

T_IMPORT = time.monotonic()
CPU_IMPORT = time.process_time()

import json  # noqa: E402
import sys  # noqa: E402

PROBE_LOOPS = 300_000


def census(spec) -> list:
    records = []
    for j, s in spec["catalogs"]:
        records.append((j, s, tyz.catalog.stable_records(j, s)))
    return records


def census_payload(result) -> list:
    return [
        [
            j,
            s,
            r.graph.n,
            r.edges,
            r.cls,
            r.det_a_minus_i,
            r.aut,
            f"{r.z.numerator}/{r.z.denominator}",
            r.euler_tours,
            list(r.charpoly),
            [list(row) for row in r.graph.adj],
        ]
        for j, s, recs in result
        for r in recs
    ]


def evaluate(spec) -> tuple:
    import tyz.cli

    code = tyz.cli.main(["verify", "all", "--format", "json", "--out", "verify.json"])
    rows = []
    for label, matrix in spec["graphs"]:
        g = tyz.MultiDigraph.from_rows(matrix)
        rows.append(
            (
                label,
                g.n,
                tyz.z(g),
                tyz.aut_order(g),
                tyz.det_a_minus_i(g),
                tyz.euler_tour_count(g),
                tyz.charpoly(g),
            )
        )
    return code, rows


def evaluate_payload(result) -> dict:
    code, rows = result
    with open("verify.json", encoding="utf-8") as fh:
        report = json.load(fh)
    return {
        "verify_exit": code,
        "verify_cases": len(report["rows"]),
        "verify_failed": [r["case"] for r in report["rows"] if r["status"] != "pass"],
        "families": [
            [label, n, f"{z.numerator}/{z.denominator}", aut, det, tours, list(poly)]
            for label, n, z, aut, det, tours, poly in rows
        ],
    }


WORKLOADS = {
    "census": (census, census_payload),
    "evaluate": (evaluate, evaluate_payload),
}


def peak_rss_kb() -> int:
    """Peak resident set of this process's own memory map (Linux).

    Not `ru_maxrss`: exec() carries the forking parent's high-water mark into
    it, so it reads at least the parent's size.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop, the fastest of three tries."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    spec = json.loads(sys.argv[1])
    out = {"t_import": T_IMPORT, "cpu_import": CPU_IMPORT, "tyz_file": tyz.__file__}
    if spec["kind"] == "setup":
        out["probe_s"] = speed_probe()
    else:
        tracer = None
        if spec["trace"]:
            import tracer as tracing

            tracer = tracing.install()
        run, payload = WORKLOADS[spec["kind"]]
        before = speed_probe()
        t_work, cpu_work = time.monotonic(), time.process_time()
        result = run(spec)
        out["work_s"] = time.monotonic() - t_work
        out["work_cpu_s"] = time.process_time() - cpu_work
        out["maxrss_kb"] = peak_rss_kb()
        out["probe_s"] = (before + speed_probe()) / 2
        out["payload"] = payload(result)
        if tracer is not None:
            out["trace"] = tracer.report()
    sys.stdout.write(json.dumps(out))


if __name__ == "__main__":
    main()

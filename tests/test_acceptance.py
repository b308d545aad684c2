"""Acceptance gate.

Eight criteria, each asserted at exact tolerance and announced on the real
stdout (bypassing capture) as a single line, so a tee'd pytest run shows the
verdict per criterion even with -q.
"""

import json
import math
import sys
import time
from fractions import Fraction

import tyz.catalog as catalog
import tyz.graphs as graphs
from tyz.catalog import (
    bernoulli_identity_lhs,
    class_counts,
    golden_fixture,
    unit_ball_identity,
    weight_records,
)
from tyz.cli import main as cli_main
from tyz.eulerian import (
    arborescence_count,
    arborescences_bruteforce,
    euler_tour_bruteforce,
    euler_tour_count,
    is_balanced,
)
from tyz.graphs import canonical_key, is_strongly_connected, weak_components
from tyz.spectral import charpoly, coefficient_from_linear, z_orbit
from tyz.zeta import FamilySpec, build_family, z, z_family, z_strong


def _announce(capsys, num: int, title: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        sys.stdout.write(
            f"\n[criterion {num}] {title}: {'PASS' if ok else 'FAIL'} - {detail}\n"
        )
        sys.stdout.flush()


def test_criterion_1_enumeration_counts(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path / "cold-cache"))
    catalog._memo.clear()
    graphs._symmetry_of.cache_clear()

    t0 = time.perf_counter()
    got = {k: class_counts(k).as_tuple() for k in (1, 2, 3, 4)}
    fast_elapsed = time.perf_counter() - t0
    want = {1: (1, 1, 1, 1), 2: (4, 3, 3, 3), 3: (15, 11, 10, 9), 4: (82, 61, 51, 45)}
    ok_small = got == want and fast_elapsed < 10.0

    out = tmp_path / "weight5.json"
    t0 = time.perf_counter()
    code = cli_main(
        ["classify", "--weight", "5", "--allow-slow", "--format", "json", "--out", str(out)]
    )
    slow_elapsed = time.perf_counter() - t0
    row = json.loads(out.read_text())["rows"][0]
    got5 = (row["total"], row["connected"], row["strongly_connected"], row["lambda"])
    ok_big = code == 0 and got5 == (589, 474, 373, 316) and slow_elapsed < 300.0

    _announce(
        capsys,
        1,
        "enumeration counts",
        ok_small and ok_big,
        f"k<=4 cold in {fast_elapsed:.2f}s (<10s), k=5 via --allow-slow in "
        f"{slow_elapsed:.2f}s (<300s)",
    )
    assert got == want
    assert fast_elapsed < 10.0
    assert code == 0 and got5 == (589, 474, 373, 316)
    assert slow_elapsed < 300.0


def test_criterion_2_golden_z_values(capsys):
    mismatches = []
    sizes = {}
    for k in (2, 3):
        pinned = {canonical_key(g): v for g, v in golden_fixture(k).entries}
        computed = {canonical_key(r.graph): r.z for r in weight_records(k)}
        sizes[k] = len(computed)
        if set(pinned) != set(computed):
            mismatches.append(f"weight {k} key sets differ")
        mismatches += [
            f"weight {k}" for key in pinned if pinned[key] != computed.get(key)
        ]
    zeros = [r for r in weight_records(3) if r.z == 0]
    pinned4 = {canonical_key(g): v for g, v in golden_fixture(4).entries}
    strong4 = [r for r in weight_records(4) if r.cls == "strongly_connected"]
    sizes[4] = len(strong4)
    mismatches += [
        "weight 4"
        for r in strong4
        if pinned4.get(canonical_key(r.graph)) != r.z
    ]
    ok = (
        not mismatches
        and sizes == {2: 4, 3: 15, 4: 51}
        and len(zeros) == 2
    )
    _announce(
        capsys,
        2,
        "golden z-values",
        ok,
        f"{sizes[2]}/4 weight-2, {sizes[3]}/15 weight-3 (two zero coefficients), "
        f"{sizes[4]}/51 strongly connected weight-4 all match exactly",
    )
    assert ok, mismatches


def test_criterion_3_oracle_equivalence(capsys):
    strong = [
        r.graph for k in (1, 2, 3, 4) for r in weight_records(k) if is_strongly_connected(r.graph)
    ]
    orbit_bad = [g for g in strong if z_orbit(g) != z_strong(g)]
    char_bad = [
        g
        for g in strong
        if charpoly(g)
        != (1,) + tuple(coefficient_from_linear(g, i) for i in range(1, g.n + 1))
    ]
    ok = not orbit_bad and not char_bad and len(strong) == 65
    _announce(
        capsys,
        3,
        "oracle equivalence",
        ok,
        f"z_strong = z_orbit and charpoly = signed cycle sums on all {len(strong)} "
        "strongly connected graphs of weight <= 4 (1 + 3 + 10 + 51 per weight)",
    )
    assert not orbit_bad and not char_bad
    assert len(strong) == 65


def test_criterion_4_best_consistency(capsys):
    checked = 0
    for k in (1, 2, 3):
        for g in (r.graph for r in weight_records(k)):
            if not is_balanced(g) or len(weak_components(g)) != 1:
                continue
            checked += 1
            assert euler_tour_count(g) == euler_tour_bruteforce(g), g
            counts = [arborescence_count(g, r) for r in range(g.n)]
            assert len(set(counts)) == 1, g
            assert counts == [arborescences_bruteforce(g, r) for r in range(g.n)], g
    ok = checked > 0
    _announce(
        capsys,
        4,
        "BEST consistency",
        ok,
        f"tour counts match brute force and in-tree counts are root-independent "
        f"on all {checked} balanced connected graphs of weight <= 3",
    )
    assert ok


def test_criterion_5_bernoulli_identity(capsys):
    targets = {
        1: Fraction(-1, 2),
        2: Fraction(-1, 12),
        3: Fraction(0),
        4: Fraction(1, 120),
    }
    t0 = time.perf_counter()
    got = {k: bernoulli_identity_lhs(k) for k in targets}
    elapsed = time.perf_counter() - t0
    ok = got == targets and elapsed < 30.0
    _announce(
        capsys,
        5,
        "Bernoulli identity",
        ok,
        f"tour-weighted sums give (-1/2, -1/12, 0, 1/120) for k=1..4 in {elapsed:.2f}s (<30s)",
    )
    assert got == targets
    assert elapsed < 30.0


def test_criterion_6_unit_ball_identity(capsys):
    printed = {
        1: (0, Fraction(-1, 2), Fraction(-1, 2)),
        2: (0, Fraction(-1, 12), Fraction(-1, 8), Fraction(1, 12), Fraction(1, 8)),
    }
    ok = True
    for k in (1, 2, 3, 4):
        check = unit_ball_identity(k)
        ok &= check.equal
        ok &= check.lhs.leading() == Fraction((-1) ** k, 2**k * math.factorial(k))
        if k in printed:
            ok &= check.lhs.coeffs == printed[k]
    _announce(
        capsys,
        6,
        "unit-ball identity",
        ok,
        "catalog sums reproduce P_1, P_2 verbatim and the interpolated P_3, P_4; "
        "leading coefficients (-1)^k/(2^k k!) for k=1..4",
    )
    assert ok


def test_criterion_7_family_closed_forms(capsys):
    specs = []
    for name in ("A", "B", "C"):
        specs += [FamilySpec(name, n=n) for n in range(3, 9)]
    for name in ("K", "D"):
        specs += [FamilySpec(name, n=n) for n in range(2, 5)]
    specs += [FamilySpec("Kmn", m=m, n=n) for m in (2, 3) for n in (2, 3)]
    specs += [FamilySpec("loops", n=k) for k in range(2, 7)]
    two_vertex = 0
    for k in (1, 2, 3, 4):
        for g in (r.graph for r in weight_records(k)):
            if g.n == 2 and g.adj[0][1] * g.adj[1][0] != 0:
                two_vertex += 1
                specs.append(
                    FamilySpec(
                        "twovertex",
                        m=g.adj[0][0], i=g.adj[0][1], j=g.adj[1][0], n=g.adj[1][1],
                    )
                )
    bad = [s for s in specs if z_family(s) != z(build_family(s))]
    pinned = (
        z_family(FamilySpec("B", n=6)) == 0
        and all(z_family(FamilySpec("D", n=n)) == Fraction(1, 2) for n in (2, 3, 4))
    )
    ok = not bad and pinned and two_vertex >= 12
    _announce(
        capsys,
        7,
        "family closed forms",
        ok,
        f"closed form = built-graph value on {len(specs)} instances "
        f"(A/B/C n=3..8 incl. z(B_6)=0, K/D n=2..4, K_mn m,n=2..3, loop vertices "
        f"k=2..6, {two_vertex} two-vertex graphs of weight <= 4)",
    )
    assert not bad, bad
    assert pinned


def test_criterion_8_vanishing_off_strong(capsys):
    per_weight = {}
    for k in (1, 2, 3, 4):
        middle = [
            g
            for g in (r.graph for r in weight_records(k))
            if len(weak_components(g)) == 1 and not is_strongly_connected(g)
        ]
        per_weight[k] = len(middle)
        assert all(z(g) == 0 for g in middle), k
    counts = tuple(per_weight[k] for k in (1, 2, 3, 4))
    ok = counts == (0, 0, 1, 10)
    _announce(
        capsys,
        8,
        "z vanishes off strongly connected",
        ok,
        f"all connected, non-strongly-connected stable graphs have z = 0; "
        f"counts by weight {counts} (61 - 51 = 10 at weight 4)",
    )
    assert ok

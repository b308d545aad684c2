import json
import math
import time
from collections import Counter
from fractions import Fraction

import pytest

import tyz.catalog as catalog
import tyz.enumeration as enumeration
import tyz.eulerian as eulerian
import tyz.graphs as graphs
import tyz.zeta as zeta
from tyz.catalog import (
    TABLE2,
    build_record,
    class_counts,
    connectivity_class,
    expansion,
    format_rational,
    golden_fixture,
    parse_rational,
    read_catalog,
    stable_records,
    verify,
    weight_records,
    write_catalog,
)
from tyz.enumeration import enumerate_stable
from tyz.graphs import MultiDigraph, canonical_key, format_graph, parse_graph, relabel
from tyz.zeta import z


def _clear_memo():
    catalog._memo.clear()


# --- rational serialization ---


def test_rational_formatting_is_always_p_over_q():
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    assert format_rational(Fraction(4, 8)) == "1/2"


def test_rational_round_trip():
    for q in (Fraction(0), Fraction(3, 8), Fraction(-11, 24), Fraction(7)):
        assert parse_rational(format_rational(q)) == q


def test_rational_parse_rejects_other_shapes():
    for bad in ("0.5", "1", "1/0", "1/-2", "a/b", "1 / 2"):
        with pytest.raises(ValueError):
            parse_rational(bad)


# --- records ---


def test_record_fields_for_double_loop():
    rec = build_record(parse_graph("2"))
    assert rec.weight == 1 and rec.edges == 2
    assert rec.cls == "strongly_connected"
    assert rec.det_a_minus_i == 1
    assert rec.aut == 2
    assert rec.z == Fraction(-1, 2)
    assert rec.euler_tours == 1
    assert rec.charpoly == (1, -2)


def test_connectivity_class_strings():
    assert connectivity_class(parse_graph("2")) == "strongly_connected"
    assert connectivity_class(parse_graph("2 1;0 2")) == "connected"
    assert connectivity_class(parse_graph("2 0;0 2")) == "disconnected"


def test_record_uses_canonical_matrix():
    a = parse_graph("0 3 0;0 0 2;2 0 0")
    b = parse_graph("0 0 3;2 0 0;0 2 0")
    assert build_record(a).graph == build_record(b).graph


def test_record_z_and_class_have_two_derivations():
    # z from the record's own det and aut against zeta.z's rule for unions,
    # det (read off the characteristic polynomial) against Bareiss
    # elimination, and the class against weak_components and the
    # whole-graph strong check
    for k in range(1, 6):
        for r in weight_records(k):
            assert r.z == z(r.graph), r.graph
            assert r.det_a_minus_i == zeta.det_a_minus_i(r.graph), r.graph
            assert r.det_a_minus_i == (-1) ** r.graph.n * sum(r.charpoly), r.graph
            comps = graphs.weak_components(r.graph)
            if len(comps) != 1:
                assert r.cls == "disconnected", r.graph
            elif graphs.is_strongly_connected(r.graph):
                assert r.cls == "strongly_connected", r.graph
            else:
                assert r.cls == "connected", r.graph


def test_record_does_each_computation_once(monkeypatch):
    """A record runs one characteristic polynomial, one connectivity pass and
    at most one symmetry search; its only determinant is the Euler-tour
    minor of a balanced graph, so det(A - I) is not eliminated again."""
    catalogs = [
        [MultiDigraph(found.matrix) for found in enumerate_stable(j, j + k)]
        for k in range(1, 5)
        for j in range(1, k + 1)
    ]
    calls = Counter()
    minors = []

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    counting(catalog, "charpoly")
    counting(catalog, "connectivity")
    counting(catalog, "symmetry")  # build_record searches directly, not through the memo
    counting(zeta, "det_int")  # what zeta.det_a_minus_i eliminates with
    det_int = eulerian.det_int

    def recording(m):
        minors.append(m)
        return det_int(m)

    monkeypatch.setattr(eulerian, "det_int", recording)
    assert not hasattr(catalog, "det_a_minus_i")
    built = 0
    for gs in catalogs:
        for g in gs:
            calls.clear()
            minors.clear()
            rec = build_record(g)
            assert calls["charpoly"] == 1 and calls["connectivity"] == 1, g
            assert calls["symmetry"] <= 1 and calls["det_int"] == 0, g
            if eulerian.is_balanced(g):
                outs = g.out_degrees()
                laplacian = [
                    [outs[i] - x if i == j else -x for j, x in enumerate(row)]
                    for i, row in enumerate(g.adj)
                ]
                assert minors == [[row[1:] for row in laplacian[1:]]], g
            else:
                assert minors == [] and rec.euler_tours == 0, g
            built += 1
    assert built == sum(TABLE2[k][0] for k in range(1, 5))


def test_aut_orders_sum_to_the_labelled_matrices():
    """Each class of j-vertex matrices has j! / (vertex automorphisms)
    labelled members, and aut counts label bijections as well, so
    j! * prod(m!) / aut summed over a catalog counts its labelled stable
    matrices, which Burnside's dynamic program counts directly."""
    for k in range(1, 6):
        for j in range(1, k + 1):
            labelled = 0
            for r in stable_records(j, j + k):
                labels = math.prod(math.factorial(x) for row in r.graph.adj for x in row)
                members, rest = divmod(math.factorial(j) * labels, r.aut)
                assert rest == 0, r.graph
                labelled += members
            assert labelled == enumeration._fixed_matrices((1,) * j, j + k), (j, j + k)


def test_record_rejects_graph_that_is_not_semistable():
    with pytest.raises(ValueError, match="semistable"):
        build_record(parse_graph("0 1;1 0"))


# --- catalog files ---


def test_round_trip_weight_three(tmp_path):
    read = []
    for j in range(1, 4):
        path = tmp_path / f"stable-{j}-{j + 3}.jsonl"
        write_catalog(stable_records(j, j + 3), path)
        read += read_catalog(path, (j, j + 3))
    assert tuple(sorted(read, key=lambda r: canonical_key(r.graph))) == weight_records(3)
    assert len(read) == 15


def test_catalog_file_schema(tmp_path):
    path = tmp_path / "one.jsonl"
    write_catalog([build_record(parse_graph("2"))], path)
    obj = json.loads(path.read_text().splitlines()[0])
    assert list(obj) == [
        "vertices",
        "adjacency",
        "weight",
        "edges",
        "class",
        "det_A_minus_I",
        "aut_order",
        "z",
        "euler_tours",
        "charpoly",
    ]
    assert obj["z"] == "-1/2" and obj["adjacency"] == [[2]]


def test_empty_file_is_empty_catalog(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_catalog(path, (1, 2)) == []


def _tampered(path, field, value):
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    obj[field] = value
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")


def test_tampered_value_names_field_and_line(tmp_path):
    path = tmp_path / "stable-2-4.jsonl"
    write_catalog(stable_records(2, 4), path)
    _tampered(path, "z", "1/7")
    with pytest.raises(ValueError, match=r"line 2: field 'z'"):
        read_catalog(path, (2, 4))


def test_tampered_count_names_field(tmp_path):
    path = tmp_path / "stable-2-4.jsonl"
    write_catalog(stable_records(2, 4), path)
    _tampered(path, "euler_tours", 99)
    with pytest.raises(ValueError, match="field 'euler_tours'"):
        read_catalog(path, (2, 4))


def test_noncanonical_adjacency_is_rejected(tmp_path):
    path = tmp_path / "w1.jsonl"
    rec = build_record(parse_graph("0 0 3;2 0 0;0 2 0"))
    write_catalog([rec], path)
    shuffled = relabel(rec.graph, (1, 2, 0))
    assert shuffled != rec.graph
    obj = json.loads(path.read_text())
    obj["adjacency"] = [list(row) for row in shuffled.adj]
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValueError, match="field 'adjacency'"):
        read_catalog(path, (3, 7))


def test_corrupt_json_reports_line_number(tmp_path):
    path = tmp_path / "stable-2-4.jsonl"
    write_catalog(stable_records(2, 4), path)
    lines = path.read_text().splitlines()
    lines[2] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 3: invalid JSON"):
        read_catalog(path, (2, 4))


def test_missing_field_is_reported(tmp_path):
    path = tmp_path / "w1.jsonl"
    write_catalog([build_record(parse_graph("2"))], path)
    obj = json.loads(path.read_text())
    del obj["aut_order"]
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValueError, match="missing field 'aut_order'"):
        read_catalog(path, (1, 2))


# --- the enumeration cache ---


def test_cache_files_appear_and_are_reused(tmp_path, monkeypatch):
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path / "cache"))
    _clear_memo()
    first = stable_records(2, 4)
    path = tmp_path / "cache" / "stable-2-4.jsonl"
    assert path.exists()
    stamp = path.stat().st_mtime_ns
    _clear_memo()
    again = stable_records(2, 4)
    assert again == first
    assert path.stat().st_mtime_ns == stamp  # read, not rewritten
    _clear_memo()


def test_corrupt_cache_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path / "cache"))
    _clear_memo()
    want = stable_records(1, 3)
    path = tmp_path / "cache" / "stable-1-3.jsonl"
    record = catalog.record_to_json(want[0])
    corrupt = [
        ('{"vertices": broken', "invalid JSON"),
        ("null", "not a JSON object"),
        ("[1, 2]", "not a JSON object"),
        (json.dumps({**record, "adjacency": 5}), "'adjacency' is not a list of integer rows"),
        (json.dumps({**record, "adjacency": [5]}), "'adjacency' is not a list of integer rows"),
        (json.dumps({**record, "adjacency": [[None]]}), "'adjacency' is not a list of integer rows"),
        (json.dumps({**record, "adjacency": [[True]]}), "'adjacency' is not a list of integer rows"),
        ("[" + "9" * 5000 + "]", "invalid JSON"),
        ("[" * 100_000, "invalid JSON"),
        (json.dumps({**record, "adjacency": [[1, 2], [3]]}), "'adjacency': row 2 has 1 entries"),
        # checked against (1, 3) before its 3,000,000! label factor is computed
        (json.dumps({**record, "adjacency": [[3_000_000]]}), "3000000 edges, not 1 and 3"),
    ]
    for line, message in corrupt:
        path.write_text(line + "\n")
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"line 1: .*{message}"):
            read_catalog(path, (1, 3))
        assert time.perf_counter() - start < 5
        _clear_memo()
        with pytest.warns(RuntimeWarning, match=rf"stable-1-3\.jsonl: line 1: .*{message}"):
            assert stable_records(1, 3) == want
        assert read_catalog(path, (1, 3))  # rewritten and valid again
    _clear_memo()


def test_duplicate_record_is_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    _clear_memo()
    want = stable_records(2, 4)
    path = tmp_path / "stable-2-4.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + lines[-1:]) + "\n")
    with pytest.raises(ValueError, match=f"line {len(lines) + 1}: .*duplicate or out-of-order"):
        read_catalog(path, (2, 4))
    _clear_memo()
    with pytest.warns(RuntimeWarning, match="stable-2-4.jsonl"):
        assert stable_records(2, 4) == want
    assert len(read_catalog(path, (2, 4))) == len(want)
    _clear_memo()


def test_foreign_record_is_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    _clear_memo()
    want = stable_records(2, 5)
    path = tmp_path / "stable-2-5.jsonl"
    # a record of the (2, 4) catalog keeps the file in key order and valid
    foreign = json.dumps(catalog.record_to_json(stable_records(2, 4)[0]))
    path.write_text(foreign + "\n" + path.read_text())
    with pytest.raises(ValueError, match="line 1: .*4 edges, not 2 and 5"):
        read_catalog(path, (2, 5))
    _clear_memo()
    with pytest.warns(RuntimeWarning, match="4 edges, not 2 and 5"):
        assert stable_records(2, 5) == want
    assert len(read_catalog(path, (2, 5))) == len(want)
    _clear_memo()


def test_failed_write_keeps_old_catalog(tmp_path, monkeypatch):
    path = tmp_path / "w2.jsonl"
    write_catalog(weight_records(2), path)
    before = path.read_text()
    records = weight_records(3)
    original = catalog.record_to_json
    calls = []

    def failing(rec):
        calls.append(rec)
        if len(calls) == 3:
            raise OSError("disk full")
        return original(rec)

    monkeypatch.setattr(catalog, "record_to_json", failing)
    with pytest.raises(OSError, match="disk full"):
        write_catalog(records, path)
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["w2.jsonl"]


def test_memo_follows_the_cache_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("TYZ_CACHE_DIR", "")
    _clear_memo()
    want = stable_records(1, 3)
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    assert stable_records(1, 3) == want
    assert read_catalog(tmp_path / "stable-1-3.jsonl", (1, 3)) == list(want)
    _clear_memo()


def test_failed_cache_write_is_reported(tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("TYZ_CACHE_DIR", str(blocker / "cache"))
    _clear_memo()
    with pytest.warns(RuntimeWarning, match=r"cannot write catalog .*file/cache/stable-1-3\.jsonl: "):
        records = stable_records(1, 3)
    assert len(records) == 1
    assert stable_records(1, 3) is records  # kept in the memo, no second write
    _clear_memo()


def test_empty_cache_dir_variable_disables_disk_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("TYZ_CACHE_DIR", "")
    monkeypatch.chdir(tmp_path)
    _clear_memo()
    assert len(stable_records(1, 2)) == 1
    assert not (tmp_path / ".tyz-cache").exists()
    _clear_memo()


def test_unset_cache_dir_defaults_to_dot_directory(tmp_path, monkeypatch):
    monkeypatch.delenv("TYZ_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    _clear_memo()
    stable_records(1, 2)
    assert (tmp_path / ".tyz-cache" / "stable-1-2.jsonl").exists()
    _clear_memo()


def _fill_disk_cache(directory, weights) -> None:
    """Write the catalogs of the given weights into directory."""
    for k in weights:
        for j in range(1, k + 1):
            write_catalog(stable_records(j, j + k), directory / f"stable-{j}-{j + k}.jsonl")


def test_reread_searches_each_graph_once(tmp_path, monkeypatch):
    _fill_disk_cache(tmp_path, [3])
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(catalog, "_memo", {})
    monkeypatch.setattr(graphs, "_searched", {})
    searched = Counter()
    search = graphs.symmetry

    def counting(adj):
        searched[adj] += 1
        return search(adj)

    monkeypatch.setattr(catalog, "symmetry", counting)
    records = weight_records(3)
    # one search per record: a record's z needs no search of its components
    assert searched == Counter(r.graph.adj for r in records)
    assert any(r.cls == "disconnected" for r in records)
    assert graphs._searched == {}


def test_cold_records_search_only_inside_the_fill(tmp_path, monkeypatch):
    """A cold catalog searches each kept fill leaf once and nothing more:
    each record is built from the search its class kept in the fill, and
    nothing is left in the per-graph memo."""
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(catalog, "_memo", {})
    monkeypatch.setattr(graphs, "_searched", {})
    searched = Counter()
    search = graphs.symmetry

    def counting(where):
        def counted(adj):
            searched[where] += 1
            return search(adj)

        return counted

    monkeypatch.setattr(enumeration, "symmetry", counting("fill"))
    monkeypatch.setattr(catalog, "symmetry", counting("elsewhere"))
    monkeypatch.setattr(graphs, "symmetry", counting("elsewhere"))
    records = stable_records(5, 10)
    assert len(records) == 85
    assert (tmp_path / "stable-5-10.jsonl").exists()
    assert searched == Counter(fill=248)
    assert graphs._searched == {}


def test_identity_suites_read_the_catalogs(tmp_path, monkeypatch):
    _fill_disk_cache(tmp_path, range(1, 6))
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(catalog, "_memo", {})
    built = []
    build = enumeration.enumerate_stable

    def counting(j, s):
        built.append((j, s))
        return build(j, s)

    for module in (enumeration, catalog):  # catalog imports it by name
        monkeypatch.setattr(module, "enumerate_stable", counting)
    assert verify("all", max_weight=5, allow_slow=True).ok
    assert verify("bernoulli", max_weight=5, allow_slow=True).ok
    assert built == []


def test_records_match_direct_enumeration():
    recs = stable_records(2, 4)
    assert tuple(r.graph for r in recs) == tuple(
        MultiDigraph(found.matrix) for found in enumerate_stable(2, 4)
    )


# --- formal sums ---


def test_expansion_weight_one():
    f = expansion(1)
    assert f.weight == 1
    assert [(g, v) for g, v in f.terms] == [(parse_graph("2"), Fraction(-1, 2))]


def test_expansion_weight_two_values():
    f = expansion(2)
    want = {
        "3": Fraction(-1, 3),
        "1 1;1 1": Fraction(1, 2),
        "0 2;2 0": Fraction(3, 8),
        "2 0;0 2": Fraction(1, 8),
    }
    got = {format_graph(g): v for g, v in f.terms}
    assert got == want


def test_expansion_retains_zero_coefficients():
    zeros = [g for g, v in expansion(3).terms if v == 0]
    assert len(zeros) == 2


def test_expansion_order_is_canonical():
    keys = [canonical_key(g) for g, _ in expansion(3).terms]
    assert keys == sorted(keys)


def test_expansion_coefficient_lookup():
    f = expansion(2)
    assert f.coefficient(parse_graph("0 2;2 0")) == Fraction(3, 8)
    assert f.coefficient(parse_graph("2 0;0 2")) == Fraction(1, 8)
    assert f.coefficient(parse_graph("2")) == 0


def test_expansion_weight_bounds():
    with pytest.raises(ValueError):
        expansion(0)
    with pytest.raises(ValueError):
        expansion(6)


# --- golden fixtures: the double-entry check ---


def test_fixture_sizes():
    assert len(golden_fixture(1).entries) == 1
    assert len(golden_fixture(2).entries) == 4
    assert len(golden_fixture(3).entries) == 15
    assert len(golden_fixture(4).entries) == 51


def test_every_pinned_value_matches_the_formula():
    for weight in (1, 2, 3, 4):
        for g, pinned in golden_fixture(weight).entries:
            assert z(g) == pinned, (weight, g)


def test_fixture_has_no_duplicate_graphs():
    for weight in (1, 2, 3, 4):
        keys = [canonical_key(g) for g, _ in golden_fixture(weight).entries]
        assert len(keys) == len(set(keys))


def test_unknown_fixture_weight():
    with pytest.raises(ValueError):
        golden_fixture(7)


# --- counting and suites ---


def test_table2_constants():
    assert TABLE2[5] == (589, 474, 373, 316)
    for k in (1, 2, 3):
        assert class_counts(k).as_tuple() == TABLE2[k]


@pytest.mark.parametrize(
    "suite",
    ["table2", "weight2", "weight3", "weight4", "bernoulli", "unitball", "best", "families"],
)
def test_fast_suites_pass(suite):
    report = verify(suite)
    assert report.ok, [c for c in report.cases if not c.ok]
    assert report.passed == len(report.cases) > 0


def test_oracle_suite_passes():
    report = verify("oracle")
    assert report.ok
    orbit_cases = [c for c in report.cases if c.name.startswith("orbit sum")]
    assert len(orbit_cases) == 65


def test_verify_all_aggregates_everything():
    report = verify("all")
    assert report.ok and report.suite == "all"
    assert len(report.cases) > 300


VERIFY_CASES = {
    "table2": 4,
    "weight2": 5,
    "weight3": 16,
    "weight4": 84,
    "bernoulli": 4,
    "unitball": 10,
    "oracle": 167,
    "best": 36,
    "families": 76,
}


def test_verify_case_counts_are_pinned():
    """The row count of every suite, which no canonical representative changes."""
    for suite, count in VERIFY_CASES.items():
        assert len(verify(suite).cases) == count, suite
    assert len(verify("all").cases) == sum(VERIFY_CASES.values()) == 402
    # weight 5 adds a case to table2 and bernoulli and two to unitball
    assert len(verify("all", max_weight=5, allow_slow=True).cases) == 406


def test_verify_reports_are_deterministic():
    a = verify("weight2")
    b = verify("weight2")
    assert a == b


def test_verify_rejects_unknown_suite():
    with pytest.raises(ValueError):
        verify("nosuch")


def test_slow_suites_are_gated():
    with pytest.raises(ValueError, match="allow-slow"):
        verify("table2", max_weight=5)
    with pytest.raises(ValueError, match="allow-slow"):
        verify("bernoulli", max_weight=5)


def test_table2_max_weight_validation():
    with pytest.raises(ValueError):
        verify("table2", max_weight=0)


def test_bernoulli_suite_respects_max_weight():
    report = verify("bernoulli", max_weight=2)
    assert len(report.cases) == 2 and report.ok

import json
from collections import Counter
from fractions import Fraction

import pytest

import tyz.catalog as catalog
import tyz.enumeration as enumeration
import tyz.graphs as graphs
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
from tyz.graphs import canonical_key, format_graph, parse_graph, relabel
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


# --- catalog files ---


def test_round_trip_weight_three(tmp_path):
    records = weight_records(3)
    path = tmp_path / "w3.jsonl"
    write_catalog(records, path)
    assert tuple(read_catalog(path)) == records
    assert len(records) == 15


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
    assert read_catalog(path) == []


def _tampered(path, field, value):
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    obj[field] = value
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")


def test_tampered_value_names_field_and_line(tmp_path):
    path = tmp_path / "w2.jsonl"
    write_catalog(weight_records(2), path)
    _tampered(path, "z", "1/7")
    with pytest.raises(ValueError, match=r"line 2: field 'z'"):
        read_catalog(path)


def test_tampered_count_names_field(tmp_path):
    path = tmp_path / "w2.jsonl"
    write_catalog(weight_records(2), path)
    _tampered(path, "euler_tours", 99)
    with pytest.raises(ValueError, match="field 'euler_tours'"):
        read_catalog(path)


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
        read_catalog(path)


def test_corrupt_json_reports_line_number(tmp_path):
    path = tmp_path / "w2.jsonl"
    write_catalog(weight_records(2), path)
    lines = path.read_text().splitlines()
    lines[2] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 3: invalid JSON"):
        read_catalog(path)


def test_missing_field_is_reported(tmp_path):
    path = tmp_path / "w1.jsonl"
    write_catalog([build_record(parse_graph("2"))], path)
    obj = json.loads(path.read_text())
    del obj["aut_order"]
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValueError, match="missing field 'aut_order'"):
        read_catalog(path)


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
    ]
    for line, message in corrupt:
        path.write_text(line + "\n")
        _clear_memo()
        with pytest.warns(RuntimeWarning, match=rf"stable-1-3\.jsonl: line 1: .*{message}"):
            assert stable_records(1, 3) == want
        assert read_catalog(path)  # rewritten and valid again
    _clear_memo()


def test_duplicate_record_is_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    _clear_memo()
    want = stable_records(2, 4)
    path = tmp_path / "stable-2-4.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + lines[-1:]) + "\n")
    with pytest.raises(ValueError, match=f"line {len(lines) + 1}: .*duplicate or out-of-order"):
        read_catalog(path)
    _clear_memo()
    with pytest.warns(RuntimeWarning, match="stable-2-4.jsonl"):
        assert stable_records(2, 4) == want
    assert len(read_catalog(path)) == len(want)
    _clear_memo()


def test_foreign_record_is_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    _clear_memo()
    want = stable_records(2, 5)
    path = tmp_path / "stable-2-5.jsonl"
    # a record of the (2, 4) catalog keeps the file in key order and valid
    foreign = json.dumps(catalog.record_to_json(stable_records(2, 4)[0]))
    path.write_text(foreign + "\n" + path.read_text())
    assert len(read_catalog(path)) == len(want) + 1
    _clear_memo()
    with pytest.warns(RuntimeWarning, match="4 edges, not 2 and 5"):
        assert stable_records(2, 5) == want
    assert len(read_catalog(path)) == len(want)
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
    graphs._symmetry_of.cache_clear()
    searched = Counter()
    search = graphs.symmetry

    def counting(adj):
        searched[adj] += 1
        return search(adj)

    monkeypatch.setattr(graphs, "symmetry", counting)
    records = weight_records(3)
    disconnected = [r.graph for r in records if r.cls == "disconnected"]
    components = {c for g in disconnected for c in graphs.weak_components(g)}
    # one search per record, plus one per distinct component of the
    # disconnected records, which z reads
    assert set(searched.values()) == {1}
    assert set(searched) == {r.graph.adj for r in records} | {c.adj for c in components}


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
    assert tuple(r.graph for r in recs) == enumerate_stable(2, 4)


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

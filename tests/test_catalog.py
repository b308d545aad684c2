import hashlib
import itertools
import json
import math
import random
import time
import warnings
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
    record_to_json,
    stable_records,
    verify,
    weight_records,
    write_catalog,
)
from tyz.enumeration import enumerate_stable
from tyz.graphs import MultiDigraph, canonical_key, format_graph, parse_graph, relabel
from tyz.zeta import z


# sha256 of the catalog lines of every weight <= 5, see test_catalog_lines_are_pinned
CATALOG_SHA256 = "183ff3863bd5a13881aeb66bd5f39cfe3a17ca1a9e499901dd2259a0a7d0a6ea"


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
    for bad in ("0.5", "1", "1/0", "1/-2", "a/b", "1 / 2", "١/٢", "1/٢"):
        with pytest.raises(ValueError):
            parse_rational(bad)


# --- records ---


def test_record_fields_for_double_loop():
    rec = build_record(parse_graph("2"))
    assert rec.graph == parse_graph("2")
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
    # elimination, and the class against the component count and the
    # whole-graph strong check
    for k in range(1, 6):
        for r in weight_records(k):
            assert r.z == z(r.graph), r.graph
            assert r.det_a_minus_i == zeta.det_a_minus_i(r.graph), r.graph
            assert r.det_a_minus_i == (-1) ** r.graph.n * sum(r.charpoly), r.graph
            if len(graphs.connectivity(r.graph)) != 1:
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

    # build_record reads the columns it transposes through the private
    # helpers behind charpoly and connectivity, and searches directly
    counting(catalog, "_charpoly")
    counting(catalog, "_connectivity")
    counting(catalog, "symmetry")
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
            assert calls["_charpoly"] == 1 and calls["_connectivity"] == 1, g
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
    matrices, which Burnside's dynamic program counts directly.  Weight 6
    has many classes that the fill keeps without a search, with group
    order 1, so this checks that shortcut in aggregate too."""
    for k in range(1, 7):
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


def test_empty_parameter_ranges_write_no_catalog(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("TYZ_CACHE_DIR", str(cache))
    _clear_memo()
    for j, s in ((1, 1), (0, 0), (-2, 7)):
        assert stable_records(j, s) == ()
    assert list(cache.iterdir()) == []
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


@pytest.mark.parametrize(
    "change, message",
    [
        ({"adjacency": [[-3]]}, "field 'adjacency': row 1, column 1: negative entry -3"),
        ({"adjacency": [[1], [2, -1]]}, "field 'adjacency': row 2, column 2: negative entry -1"),
        ({"adjacency": None}, "missing field 'adjacency'"),
    ],
    ids=["negative-entry", "negative-after-short-row", "no-adjacency"],
)
def test_out_of_range_cache_line_is_rebuilt(tmp_path, monkeypatch, change, message):
    """A line with a negative matrix entry, or with no matrix, is rebuilt
    with one warning that names the line and the field.  A negative entry
    is named also after an earlier row of another length."""
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    _clear_memo()
    want = stable_records(1, 3)
    path = tmp_path / "stable-1-3.jsonl"
    obj = {**record_to_json(want[0]), **change}
    path.write_text(json.dumps({k: v for k, v in obj.items() if v is not None}) + "\n")
    _clear_memo()
    with pytest.warns(RuntimeWarning) as caught:
        assert stable_records(1, 3) == want
    assert len(caught) == 1
    assert str(caught[0].message).endswith(f"stable-1-3.jsonl: line 1: {message}")
    assert read_catalog(path, (1, 3)) == list(want)
    _clear_memo()


def test_cache_line_that_is_not_a_stable_graph_is_rebuilt(tmp_path, monkeypatch):
    """A record of `0 3;1 0`, semistable, canonical and of the right size but
    with a vertex of in-degree 1, put in place of `2 0;0 2`, is no class of
    the census: the catalog is rebuilt with one warning naming its line."""
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    _clear_memo()
    want = stable_records(2, 4)
    path = tmp_path / "stable-2-4.jsonl"
    swapped = build_record(parse_graph("0 3;1 0"))
    write_catalog([swapped if r.adj == ((2, 0), (0, 2)) else r for r in want], path)
    assert path.read_text().splitlines()[1] == json.dumps(record_to_json(swapped))
    _clear_memo()
    with pytest.warns(RuntimeWarning) as caught:
        assert stable_records(2, 4) == want
    assert len(caught) == 1
    assert str(caught[0].message).endswith(
        "stable-2-4.jsonl: line 2: field 'adjacency': vertex 1 has out-degree 3 "
        "and in-degree 1, not both at least 2"
    )
    assert read_catalog(path, (2, 4)) == list(want)
    _clear_memo()


def test_empty_graph_record_round_trips(tmp_path):
    """The record of the empty graph is written and read back as a (0, 0)
    catalog; a tampered field in it is named with its line."""
    path = tmp_path / "stable-0-0.jsonl"
    want = build_record(graphs.EMPTY)
    write_catalog([want], path)
    assert read_catalog(path, (0, 0)) == [want]
    path.write_text(json.dumps({**record_to_json(want), "z": "1/2"}) + "\n")
    with pytest.raises(ValueError) as caught:
        read_catalog(path, (0, 0))
    assert str(caught.value) == "line 1: field 'z': stored '1/2', recomputed '1/1'"


def test_blank_lines_in_a_catalog_are_skipped(tmp_path):
    path = tmp_path / "stable-2-4.jsonl"
    write_catalog(stable_records(2, 4), path)
    lines = path.read_text().splitlines()
    path.write_text("\n" + "\n  \n".join(lines) + "\n\n")
    assert read_catalog(path, (2, 4)) == list(stable_records(2, 4))


def test_catalog_cut_at_a_line_boundary_is_rebuilt(tmp_path, monkeypatch):
    """A catalog with its last line removed reads as valid line by line,
    but holds one record fewer than census_count: it is rebuilt once, with
    one warning giving both counts."""
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    _clear_memo()
    want = stable_records(3, 7)
    path = tmp_path / "stable-3-7.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert len(read_catalog(path, (3, 7))) == len(want) - 1
    _clear_memo()
    with pytest.warns(RuntimeWarning) as caught:
        assert stable_records(3, 7) == want
    assert len(caught) == 1
    assert f"stable-3-7.jsonl: {len(want) - 1} records, census_count gives {len(want)}" in str(
        caught[0].message
    )
    assert path.read_text() == "".join(lines)
    _clear_memo()


def test_enumeration_that_loses_a_class_fails_loudly(tmp_path, monkeypatch):
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    _clear_memo()
    monkeypatch.setattr(catalog, "enumerate_stable", lambda j, s: enumerate_stable(j, s)[1:])
    with pytest.raises(RuntimeError, match=r"enumerate_stable\(2, 5\) gave 5 classes, census_count gives 6"):
        stable_records(2, 5)
    assert not (tmp_path / "stable-2-5.jsonl").exists()
    _clear_memo()


# The (2, 5) catalog as versions before the type-partition start wrote it:
# the same six classes, each under another canonical representative.
OLD_REPRESENTATIVES_2_5 = ("0 2;2 1", "0 2;3 0", "1 1;1 2", "1 1;2 1", "2 0;0 3", "2 0;1 2")


def test_catalog_in_old_representatives_is_rebuilt_once(tmp_path, monkeypatch):
    """A catalog written before the refinement started from the type
    partition has every stored field right but its representatives: it is
    rebuilt with one warning naming 'adjacency', and the rewritten file
    reads back without one."""
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(catalog, "_memo", {})
    lines = []
    for text in OLD_REPRESENTATIVES_2_5:
        old = parse_graph(text)
        line = record_to_json(build_record(old))
        line["adjacency"] = [list(row) for row in old.adj]
        lines.append(json.dumps(line) + "\n")
    path = tmp_path / "stable-2-5.jsonl"
    path.write_text("".join(lines))
    with pytest.warns(RuntimeWarning) as caught:
        records = stable_records(2, 5)
    assert len(caught) == 1
    assert "stable-2-5.jsonl: line 1: field 'adjacency'" in str(caught[0].message)
    assert {r.graph for r in records} == {
        graphs.canonical_form(parse_graph(text)) for text in OLD_REPRESENTATIVES_2_5
    }
    assert all(r.graph != parse_graph(text) for r in records for text in OLD_REPRESENTATIVES_2_5)
    monkeypatch.setattr(catalog, "_memo", {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert stable_records(2, 5) == records


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
    original = catalog._record_line
    calls = []

    def failing(rec, texts):
        calls.append(rec)
        if len(calls) == 3:
            raise OSError("disk full")
        return original(rec, texts)

    monkeypatch.setattr(catalog, "_record_line", failing)
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
    searched = Counter()

    def counting(search):
        def counted(adj, *args):
            searched[adj] += 1
            return search(adj, *args)

        return counted

    # the reader searches with the columns its checks computed, through the
    # fill's leaf test; `symmetry` is left for a line that fails it
    monkeypatch.setattr(catalog, "_leaf_search", counting(graphs._leaf_search))
    monkeypatch.setattr(catalog, "symmetry", counting(graphs.symmetry))
    records = weight_records(3)
    # one search per record: a record's z needs no search of its components
    assert searched == Counter(r.graph.adj for r in records)
    assert any(r.cls == "disconnected" for r in records)


def test_every_record_passes_the_readers_leaf_test():
    """The reader's canonical test, `_leaf_search`, on every canonical
    matrix of weight <= 5 and a seeded relabelling of each: it gives a
    result exactly when `symmetry` returns the matrix unchanged, and that
    result is `symmetry`'s, its matrix the very tuple tested."""
    rng = random.Random(32)
    passed = 0
    for k in range(1, 6):
        for r in weight_records(k):
            order = list(range(len(r.adj)))
            rng.shuffle(order)
            for adj in (r.adj, relabel(r.graph, order).adj):
                cols = tuple(zip(*adj))
                outs, ins = graphs._degrees(adj, cols)
                runs = graphs._type_runs(graphs._types(adj, outs, ins))
                found = None if runs is None else graphs._leaf_search(adj, cols, runs)
                searched = graphs.symmetry(adj)
                assert (found is not None) == (searched.matrix == adj), adj
                if adj is r.adj:
                    assert found is not None, r.graph
                if found is not None:
                    assert found.matrix is adj and found == searched, adj
                    passed += 1
    assert passed > sum(TABLE2[k][0] for k in range(1, 6))


# relabelled lines that fail the leaf test at each of its steps, with the
# message the reader gives: the types are not descending; they are, but
# ordered refinement moves a vertex; both hold, but the search finds a
# smaller matrix
RELABELLED_LINES = [
    (
        "0 3;2 0",
        [[0, 2], [3, 0]],
        (False, False),
        "line 1: field 'adjacency': stored [[0, 2], [3, 0]], recomputed [[0, 3], [2, 0]]",
    ),
    (
        "1 1 0;0 0 2;1 1 0",
        [[1, 0, 1], [1, 0, 1], [0, 2, 0]],
        (True, False),
        "line 1: field 'adjacency': stored [[1, 0, 1], [1, 0, 1], [0, 2, 0]], "
        "recomputed [[1, 1, 0], [0, 0, 2], [1, 1, 0]]",
    ),
    (
        "0 2 0;0 0 2;2 0 0",
        [[0, 0, 2], [2, 0, 0], [0, 2, 0]],
        (True, True),
        "line 1: field 'adjacency': stored [[0, 0, 2], [2, 0, 0], [0, 2, 0]], "
        "recomputed [[0, 2, 0], [0, 0, 2], [2, 0, 0]]",
    ),
]


@pytest.mark.parametrize(
    "text, rows, passes, message", RELABELLED_LINES, ids=["types", "refinement", "search"]
)
def test_relabelled_line_fails_on_adjacency(tmp_path, text, rows, passes, message):
    """`passes` says whether the line's types descend and whether ordered
    refinement then keeps its vertices in place."""
    g = parse_graph(text)
    adj = MultiDigraph.from_rows(rows).adj
    cols = tuple(zip(*adj))
    outs, ins = graphs._degrees(adj, cols)
    types = list(zip(outs, ins, (adj[v][v] for v in range(len(adj)))))
    descending = types == sorted(types, reverse=True)
    runs = [list(run) for _, run in itertools.groupby(range(len(adj)), types.__getitem__)]
    refined = descending and graphs.refine(adj, cols, runs, ordered=True) is not None
    assert (descending, refined) == passes
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps({**record_to_json(build_record(g)), "adjacency": rows}) + "\n")
    with pytest.raises(ValueError) as caught:
        read_catalog(path, (g.n, g.edge_count))
    assert str(caught.value) == message


NOT_THE_WRITERS_LINE = "not the line write_catalog writes for its record"


# per field of `record_to_json`, in its order, a wrong value for the record
# of "1 1 0;0 0 2;1 1 0" and how the reader words it
WRONG_VALUES = [
    ("vertices", 4, "stored 4, recomputed 3"),
    (
        "adjacency",
        [[1, 0, 1], [1, 0, 1], [0, 2, 0]],
        "stored [[1, 0, 1], [1, 0, 1], [0, 2, 0]], recomputed [[1, 1, 0], [0, 0, 2], [1, 1, 0]]",
    ),
    ("weight", 4, "stored 4, recomputed 3"),
    ("edges", 7, "stored 7, recomputed 6"),
    ("class", "connected", "stored 'connected', recomputed 'strongly_connected'"),
    ("det_A_minus_I", -2, "stored -2, recomputed 2"),
    ("aut_order", 4, "stored 4, recomputed 2"),
    ("z", "-1/2", "stored '-1/2', recomputed '-1/1'"),
    ("euler_tours", 0, "stored 0, recomputed 2"),
    ("charpoly", [1, -1, -2], "stored [1, -1, -2], recomputed [1, -1, -2, 0]"),
]


@pytest.mark.parametrize("i", range(len(WRONG_VALUES)), ids=[f for f, _, _ in WRONG_VALUES])
def test_field_error_names_the_first_wrong_field(tmp_path, i):
    """A field of `record_to_json` changed or left out gives the reader's
    message for it, also when a later field is wrong too; an extra key gives
    the message for a line that is not the writer's."""
    g = parse_graph("1 1 0;0 0 2;1 1 0")
    stored = record_to_json(build_record(g))
    assert [field for field, _, _ in WRONG_VALUES] == list(stored)
    field, value, tail = WRONG_VALUES[i]
    path = tmp_path / "one.jsonl"

    def read(obj):
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError) as caught:
            read_catalog(path, (3, 6))
        return str(caught.value)

    assert read({**stored, field: value}) == f"line 1: field '{field}': {tail}"
    assert read({k: x for k, x in stored.items() if k != field}) == f"line 1: missing field '{field}'"
    for later, other, _ in WRONG_VALUES[i + 1 :]:
        assert read({**stored, field: value, later: other}) == f"line 1: field '{field}': {tail}"
    assert read({**stored, "comment": "kept"}) == f"line 1: {NOT_THE_WRITERS_LINE}"


# per int field, a float on "0 2;2 0" and a bool on the empty graph, each
# equal to the int that the writer writes there
TWO_CYCLE = parse_graph("0 2;2 0")
WRONG_TYPES = [
    (TWO_CYCLE, "vertices", 2.0, "stored 2.0, recomputed 2"),
    (TWO_CYCLE, "weight", 2.0, "stored 2.0, recomputed 2"),
    (TWO_CYCLE, "edges", 4.0, "stored 4.0, recomputed 4"),
    (TWO_CYCLE, "det_A_minus_I", -3.0, "stored -3.0, recomputed -3"),
    (TWO_CYCLE, "aut_order", 8.0, "stored 8.0, recomputed 8"),
    (TWO_CYCLE, "euler_tours", 2.0, "stored 2.0, recomputed 2"),
    (TWO_CYCLE, "charpoly", [1, 0.0, -4], "stored [1, 0.0, -4], recomputed [1, 0, -4]"),
    (graphs.EMPTY, "vertices", False, "stored False, recomputed 0"),
    (graphs.EMPTY, "weight", False, "stored False, recomputed 0"),
    (graphs.EMPTY, "edges", False, "stored False, recomputed 0"),
    (graphs.EMPTY, "det_A_minus_I", True, "stored True, recomputed 1"),
    (graphs.EMPTY, "aut_order", True, "stored True, recomputed 1"),
    (graphs.EMPTY, "euler_tours", False, "stored False, recomputed 0"),
    (graphs.EMPTY, "charpoly", [True], "stored [True], recomputed [1]"),
]


@pytest.mark.parametrize(
    "i",
    range(len(WRONG_TYPES)),
    ids=[f"{f}-{'empty' if g.n == 0 else 'two-cycle'}" for g, f, _, _ in WRONG_TYPES],
)
def test_a_float_or_bool_in_place_of_an_int_is_named(tmp_path, i):
    """An int field or charpoly entry stored as a float or a bool that
    equals the recomputed int fails the read, with the reader's message for
    a wrong value."""
    g, field, value, tail = WRONG_TYPES[i]
    stored = record_to_json(build_record(g))
    assert stored[field] == value
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps({**stored, field: value}) + "\n")
    with pytest.raises(ValueError) as caught:
        read_catalog(path, (stored["vertices"], stored["edges"]))
    assert str(caught.value) == f"line 1: field '{field}': {tail}"


def test_a_line_with_its_keys_reversed_is_rebuilt(tmp_path, monkeypatch):
    """The reader compares bytes with the writer's line, not fields: lines
    with their keys in reverse order and no spaces fail the read, and the
    catalog is rebuilt byte for byte as the writer writes it, with one
    warning naming the first line."""
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(catalog, "_memo", {})
    want = stable_records(3, 6)
    path = tmp_path / "stable-3-6.jsonl"
    written = path.read_text()
    lines = [dict(reversed(record_to_json(r).items())) for r in want]
    path.write_text("".join(json.dumps(obj, separators=(",", ":")) + "\n" for obj in lines))
    assert list(lines[0])[0] == "charpoly"
    with pytest.raises(ValueError) as caught:
        read_catalog(path, (3, 6))
    assert str(caught.value) == f"line 1: {NOT_THE_WRITERS_LINE}"
    monkeypatch.setattr(catalog, "_memo", {})
    with pytest.warns(RuntimeWarning) as warned:
        assert stable_records(3, 6) == want
    assert len(warned) == 1
    assert str(warned[0].message).endswith(f"stable-3-6.jsonl: line 1: {NOT_THE_WRITERS_LINE}")
    assert path.read_text() == written


# a (2,4) catalog with one line written otherwise than the writer writes
# it, its values unchanged, and the reader's message: an entry with a
# leading zero is no JSON, the other two lines are JSON of the right values
OTHER_TEXTS = [
    (lambda text: text[:-1], f"line 3: {NOT_THE_WRITERS_LINE}"),
    (lambda text: text.replace("[[1, 1]", "[[1,1]"), f"line 2: {NOT_THE_WRITERS_LINE}"),
    (lambda text: text.replace("[[1, 1]", "[[01, 1]"), "line 2: invalid JSON: "),
]


@pytest.mark.parametrize(
    "edit, message", OTHER_TEXTS, ids=["no-final-newline", "row-without-spaces", "leading-zero"]
)
def test_a_line_the_writer_does_not_write_is_rebuilt(tmp_path, monkeypatch, edit, message):
    """A line that is not byte for byte the writer's fails the read with its
    line number, and the catalog is rebuilt as the writer writes it, with
    one warning naming the line."""
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(catalog, "_memo", {})
    want = stable_records(2, 4)
    path = tmp_path / "stable-2-4.jsonl"
    written = path.read_text()
    assert edit(written) != written
    path.write_text(edit(written))
    with pytest.raises(ValueError) as caught:
        read_catalog(path, (2, 4))
    assert str(caught.value).startswith(message)
    monkeypatch.setattr(catalog, "_memo", {})
    with pytest.warns(RuntimeWarning) as warned:
        assert stable_records(2, 4) == want
    assert len(warned) == 1
    assert f"stable-2-4.jsonl: {message}" in str(warned[0].message)
    assert path.read_text() == written


def test_a_valid_catalog_rereads_with_no_json_parse(tmp_path, monkeypatch):
    """The 20 census catalogs, weights 1-5 and weight 6 with j <= 5, read
    back with no `json.loads` call: each line is compared with the writer's
    line for its rebuilt record, never parsed as JSON."""
    sizes = [(j, j + k) for k in range(1, 6) for j in range(1, k + 1)]
    sizes += [(j, j + 6) for j in range(1, 6)]
    _fill_disk_cache(tmp_path, range(1, 6))
    for j, s in sizes[-5:]:
        write_catalog(stable_records(j, s), tmp_path / f"stable-{j}-{s}.jsonl")
    loads, calls = json.loads, []
    monkeypatch.setattr(catalog.json, "loads", lambda *args: calls.append(args) or loads(*args))
    read = [r for j, s in sizes for r in read_catalog(tmp_path / f"stable-{j}-{s}.jsonl", (j, s))]
    assert len(read) == 5977
    assert calls == []


def test_reread_sums_each_records_degrees_once(tmp_path, monkeypatch):
    """Rereading a catalog sums each record's degrees once, for the reader's
    size and stability checks, and the record is built from those sums: no
    semistability test, since a stable graph is semistable, and no
    `out_degrees` or `in_degrees`."""
    path = tmp_path / "stable-4-9.jsonl"
    write_catalog(stable_records(4, 9), path)
    summed = []
    degrees = graphs._degrees

    def counting(adj, cols):
        summed.append(adj)
        return degrees(adj, cols)

    def forbidden(*args):
        raise AssertionError("the degrees are tested or summed again")

    monkeypatch.setattr(catalog, "_degrees", counting)
    monkeypatch.setattr(catalog, "_semistable", forbidden)
    monkeypatch.setattr(MultiDigraph, "out_degrees", forbidden)
    monkeypatch.setattr(MultiDigraph, "in_degrees", forbidden)
    records = read_catalog(path, (4, 9))
    assert len(records) == enumeration.census_count(4, 9)
    assert any(r.cls == "disconnected" for r in records)
    assert summed == [r.adj for r in records]


def test_cold_records_search_only_inside_the_fill(tmp_path, monkeypatch):
    """A cold catalog searches each kept fill leaf whose refinement is not
    discrete once, and nothing more: each record is built from the search or
    the refined leaf its class kept in the fill."""
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(catalog, "_memo", {})
    searched = Counter()
    leaf_test, search, symmetry = graphs._leaf_search, graphs._search, graphs.symmetry
    inside = []  # the leaf test the fill is running, if any

    def in_fill(adj, cols, runs):
        inside.append(adj)
        try:
            return leaf_test(adj, cols, runs)
        finally:
            inside.pop()

    def counted_search(adj, cols, cells, candidate):
        if len(cells) < len(adj):  # a discrete start returns before the search
            searched["fill" if inside else "elsewhere"] += 1
        return search(adj, cols, cells, candidate)

    def counted_symmetry(adj):
        searched["elsewhere"] += 1
        return symmetry(adj)

    monkeypatch.setattr(enumeration, "_leaf_search", in_fill)
    monkeypatch.setattr(graphs, "_search", counted_search)
    monkeypatch.setattr(catalog, "symmetry", counted_symmetry)
    monkeypatch.setattr(graphs, "symmetry", counted_symmetry)
    records = stable_records(5, 10)
    assert len(records) == 85
    assert (tmp_path / "stable-5-10.jsonl").exists()
    assert searched == Counter(fill=169)


def test_cold_records_are_built_from_the_fill_and_written_as_their_json(tmp_path, monkeypatch):
    """Every cold catalog of weight <= 5, the one-vertex ones included, holds
    `build_record` of each search the fill returns, and its file is their
    `json.dumps(record_to_json(r))` lines; `build_record` itself still
    rejects a graph that is not semistable."""
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(catalog, "_memo", {})
    sizes = [(j, j + k) for k in range(1, 6) for j in range(1, k + 1)]
    assert (1, 3) in sizes
    for j, s in sizes:
        records = stable_records(j, s)
        assert records == tuple(map(build_record, enumerate_stable(j, s))), (j, s)
        lines = (tmp_path / f"stable-{j}-{s}.jsonl").read_text().splitlines(keepends=True)
        assert lines == [json.dumps(record_to_json(r)) + "\n" for r in records], (j, s)
    with pytest.raises(ValueError, match="semistable"):
        build_record(parse_graph("1"))


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
    by_key = {canonical_key(g): value for g, value in expansion(2).terms}
    assert by_key[canonical_key(parse_graph("0 2;2 0"))] == Fraction(3, 8)
    assert by_key[canonical_key(parse_graph("2 0;0 2"))] == Fraction(1, 8)
    assert canonical_key(parse_graph("2")) not in by_key


def test_expansion_coefficient_searches_its_argument_alone(monkeypatch):
    """A lookup by canonical key makes at most the one symmetry search of
    its argument, whatever the size of the sum."""
    f = expansion(3)
    by_key = {canonical_key(g): value for g, value in f.terms}
    real, calls = graphs.symmetry, []
    monkeypatch.setattr(graphs, "symmetry", lambda adj: calls.append(adj) or real(adj))
    for g, value in f.terms:
        calls.clear()
        assert by_key[canonical_key(relabel(g, range(g.n - 1, -1, -1)))] == value
        assert len(calls) <= 1


def test_expansion_weight_bounds():
    with pytest.raises(ValueError):
        expansion(0)
    with pytest.raises(ValueError):
        expansion(8)


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
        assert class_counts(k) == TABLE2[k]


@pytest.mark.parametrize(
    "suite",
    ["table2", "weight2", "weight3", "weight4", "bernoulli", "unitball", "best", "families"],
)
def test_fast_suites_pass(suite):
    report = verify(suite)
    assert report.ok, [c for c in report.cases if not c.ok]
    assert report.passed == len(report.cases) > 0


def test_weight_suites_search_only_components(monkeypatch):
    """The weight suites key each record by its stored canonical matrix and
    each golden fixture once per process, so once the fixtures are keyed the
    only searches left are of the components of weight-4 disconnected
    records."""
    for suite in ("weight2", "weight3", "weight4"):
        verify(suite)
    keyed = []
    canonical_key = catalog.canonical_key

    def counting(g):
        keyed.append(g)
        return canonical_key(g)

    monkeypatch.setattr(catalog, "canonical_key", counting)
    assert verify("weight2").ok and verify("weight3").ok and keyed == []
    assert verify("weight4").ok
    disconnected = [r.graph for r in weight_records(4) if r.cls == "disconnected"]
    assert len(keyed) == sum(len(graphs.connectivity(g)) for g in disconnected) == 47


def test_weight_suites_report_graphs_missing_from_the_fixture(monkeypatch):
    """A record whose key the fixture lacks fails its own case at weight 2;
    at weight 4 the key-set cases fail and the record gets no case."""
    fixture_by_key = catalog._fixture_by_key

    def without_least(k):
        """verify("weightk") with the fixture's least weight-k key gone, and
        the name of that key's z case."""
        gone = min(fixture_by_key(k))
        graph = next(r.graph for r in weight_records(k) if graphs._matrix_key(r.adj) == gone)
        monkeypatch.setattr(
            catalog,
            "_fixture_by_key",
            lambda w: {x: v for x, v in fixture_by_key(w).items() if (w, x) != (k, gone)},
        )
        report = verify(f"weight{k}")
        monkeypatch.undo()
        return report, f"z({format_graph(graph)})"

    report, name = without_least(2)
    failed = [(c.name, c.actual) for c in report.cases if not c.ok]
    assert failed == [
        ("graph count weight 2", str(len(weight_records(2)))),
        (name, "missing from fixture"),
    ]
    report, name = without_least(4)
    failed = [c.name for c in report.cases if not c.ok]
    assert failed == ["strongly connected count", "fixture keys match catalog"]
    assert name not in {c.name for c in report.cases}
    assert len(report.cases) == len(verify("weight4").cases) - 1


def test_oracle_suite_passes():
    report = verify("oracle")
    assert report.ok
    orbit_cases = [c for c in report.cases if c.name.startswith("orbit sum")]
    assert len(orbit_cases) == 65


def test_oracle_suite_follows_max_weight():
    """At the cap 5 the oracle suite adds a charpoly case for each of the 589
    weight-5 graphs, an orbit sum for each of the 373 strongly connected
    ones, and a labelled-matrix count and a z-by-components case for each
    of the 5 catalogs, after the rows of weights up to 4, which do not
    change."""
    default = verify("oracle").cases
    report = verify("oracle", max_weight=5, allow_slow=True)
    assert report.ok and report.cases[: len(default)] == default
    assert len(report.cases) == len(default) + 589 + 373 + 5 + 5


def test_oracle_suite_checks_automorphism_orders(monkeypatch):
    """A record whose aut is doubled fails its catalog's labelled-matrix
    count, and no other case of the oracle suite: the count of "2" becomes
    1/2, not an integer, and that of (2,5) loses one of its 12."""
    real = catalog.stable_records

    def doubled(j, s):
        records = real(j, s)
        if (j, s) not in ((1, 2), (2, 5)):
            return records
        return (records[0]._replace(aut=2 * records[0].aut), *records[1:])

    monkeypatch.setattr(catalog, "stable_records", doubled)
    failed = [(c.name, c.expected, c.actual) for c in verify("oracle").cases if not c.ok]
    assert failed == [("labelled matrices (1,2)", "1", "1/2"), ("labelled matrices (2,5)", "12", "11")]


def test_oracle_suite_checks_record_z(monkeypatch):
    """A record whose z is doubled fails its catalog's z-by-components case,
    which names the graph, and no other case of the oracle suite: "2 0;0 2"
    is disconnected, so no orbit sum reads its z."""
    real = catalog.stable_records

    def doubled(j, s):
        records = real(j, s)
        return tuple(
            r._replace(z=2 * r.z) if format_graph(r.graph) == "2 0;0 2" else r for r in records
        )

    monkeypatch.setattr(catalog, "stable_records", doubled)
    failed = [(c.name, c.expected, c.actual) for c in verify("oracle").cases if not c.ok]
    assert failed == [("z by components (2,4)", "[]", "['2 0;0 2']")]


def test_records_share_equal_rows_and_charpolys(tmp_path, monkeypatch):
    """Among the records of weight <= 5, built cold and then read back from
    disk, equal matrix rows, equal charpolys and equal z values are one
    object each, and no field holds a graph object."""
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    seen: dict = {}
    zeros = nonzero = 0
    for _ in ("cold", "reread"):
        monkeypatch.setattr(catalog, "_memo", {})
        for k in range(1, 6):
            for r in weight_records(k):
                assert not any(isinstance(field, MultiDigraph) for field in r)
                for part in (*r.adj, r.charpoly, r.z):
                    assert seen.setdefault(part, part) is part
                zeros += not r.z
                nonzero += bool(r.z)
    assert zeros > 400 and nonzero > 400


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
    "unitball": 14,
    "oracle": 187,
    "best": 36,
    "families": 76,
}


def test_verify_case_counts_are_pinned():
    """The row count of every suite, which no canonical representative changes."""
    for suite, count in VERIFY_CASES.items():
        assert len(verify(suite).cases) == count, suite
    assert len(verify("all").cases) == sum(VERIFY_CASES.values()) == 426
    # weight 5 adds a case to table2 and bernoulli, three to unitball, and to
    # oracle a charpoly case per graph (589), an orbit sum per strongly
    # connected one (373), and a labelled-matrix count and a z-by-components
    # case per catalog (5 + 5)
    assert len(verify("all", max_weight=5, allow_slow=True).cases) == 1403


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


def test_catalog_lines_are_pinned(tmp_path, monkeypatch):
    """Every catalog of weight k <= 5, built cold in catalog order (k, then j),
    hashes line by line to a pinned value: a refactor must not move a record,
    a field or a canonical representative.  A deliberate change of canonical
    representative updates this pin and the `verify all` pins in
    tests/test_cli.py together."""
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(catalog, "_memo", {})
    records = [r for k in range(1, 6) for j in range(1, k + 1) for r in stable_records(j, j + k)]
    digest = hashlib.sha256()
    for r in records:
        digest.update((json.dumps(record_to_json(r)) + "\n").encode())
    assert len(records) == 691
    assert digest.hexdigest() == CATALOG_SHA256


def test_catalog_files_are_pinned(tmp_path, monkeypatch):
    """The files `stable_records` writes for every weight k <= 5, read back
    from disk and concatenated in catalog order (k, then j), hash to the
    same pin as their records' `record_to_json` lines."""
    monkeypatch.setenv("TYZ_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(catalog, "_memo", {})
    digest, lines = hashlib.sha256(), 0
    for k in range(1, 6):
        for j in range(1, k + 1):
            stable_records(j, j + k)
            data = (tmp_path / f"stable-{j}-{j + k}.jsonl").read_bytes()
            digest.update(data)
            lines += data.count(b"\n")
    assert lines == 691
    assert digest.hexdigest() == CATALOG_SHA256


def test_record_line_is_the_json_of_record_to_json(tmp_path):
    """The writer's line is `json.dumps(record_to_json(rec))` and a newline,
    byte for byte, for every record of weight <= 5, among them records with
    a negative det(A - I), a negative z and an aut of several digits, and
    for a made-up record with large entries and one vertex, all written to
    one file in canonical-key order."""
    records = [r for k in range(1, 6) for r in weight_records(k)]
    assert any(r.det_a_minus_i < 0 for r in records)
    assert any(r.z < 0 for r in records) and any(r.aut >= 10 for r in records)
    odd = catalog.CatalogRecord(
        adj=((12,),), weight=11, edges=12, cls="strongly_connected", aut=479001600,
        z=Fraction(-11, 479001600), euler_tours=39916800, charpoly=(-11, 1234567890123, -7),
    )
    path = tmp_path / "mixed.jsonl"
    write_catalog([*records, odd], path)
    ordered = sorted([*records, odd], key=lambda r: (len(r.adj), r.adj))
    assert path.read_text().splitlines(keepends=True) == [
        json.dumps(record_to_json(rec)) + "\n" for rec in ordered
    ]

import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tyz.catalog as catalog
from tyz.cli import main
from tyz.graphs import format_graph, parse_graph, relabel
from tyz.zeta import FamilySpec, build_family


SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, **env) -> subprocess.CompletedProcess:
    """`python -m tyz ARGV` in a child process, so a traceback would reach stderr."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "tyz", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
        timeout=120,
    )


# --- happy paths per subcommand ---


def test_classify_table(capsys):
    code, out, err = run(capsys, "classify", "--weight", "2")
    assert code == 0 and err == ""
    assert "strongly_connected" in out.splitlines()[0]
    assert out.splitlines()[2].split() == ["2", "4", "3", "3", "3"]


def test_enumerate_lists_all_graphs(capsys):
    code, out, _ = run(capsys, "enumerate", "--weight", "2", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0 and len(rows) == 4
    assert {r["class"] for r in rows} == {"strongly_connected", "disconnected"}


def test_z_value(capsys):
    code, out, _ = run(capsys, "z", "--graph", "0 2;2 0")
    assert code == 0
    assert out.splitlines()[2].split()[-1] == "3/8"


def test_z_json_shape(capsys):
    code, out, _ = run(capsys, "z", "--graph", "2", "--format", "json")
    obj = json.loads(out)
    assert code == 0
    assert obj["rows"][0]["z"] == "-1/2"
    assert obj["rows"][0]["class"] == "strongly_connected"


def test_charpoly_output(capsys):
    code, out, _ = run(capsys, "charpoly", "--graph", "1 1;1 1", "--format", "json")
    row = json.loads(out)["rows"][0]
    assert code == 0
    assert row["charpoly"] == [1, -2, 0] and row["det_A_minus_I"] == -1


def test_euler_output(capsys):
    code, out, _ = run(capsys, "euler", "--graph", "3", "--format", "json")
    row = json.loads(out)["rows"][0]
    assert code == 0 and row["balanced"] is True and row["euler_tours"] == 2


def test_expansion_csv(capsys):
    code, out, _ = run(capsys, "expansion", "--weight", "1", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0 and rows == [
        {"graph": "2", "class": "strongly_connected", "z": "-1/2"}
    ]


def test_families_closed_form(capsys):
    code, out, _ = run(capsys, "families", "--name", "Kmn", "--n", "3", "--m", "2",
                       "--format", "json")
    row = json.loads(out)["rows"][0]
    assert code == 0
    assert row["z"] == "-5/12" and row["vertices"] == 5 and row["weight"] == 7


def test_families_large_instance_is_instant(capsys):
    code, out, _ = run(capsys, "families", "--name", "D", "--n", "20", "--format", "json")
    row = json.loads(out)["rows"][0]
    assert code == 0 and row["z"] == "1/2" and row["vertices"] == 2**19


def test_graph_commands_handle_sixteen_vertices(capsys):
    # a relabelled de Bruijn graph D(5), far beyond a search of all 16! orders
    g = build_family(FamilySpec("D", n=5))
    text = format_graph(relabel(g, random.Random(5).sample(range(g.n), g.n)))
    code, out, _ = run(capsys, "z", "--graph", text, "--format", "json")
    assert code == 0 and json.loads(out)["rows"][0]["z"] == "1/2"
    assert run(capsys, "charpoly", "--graph", text)[0] == 0
    assert run(capsys, "euler", "--graph", text)[0] == 0


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "weight2")
    assert code == 0
    assert out.rstrip().endswith("cases pass")


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "weight3", "--format", "json")
    obj = json.loads(out)
    assert code == 0
    assert obj["suite"] == "weight3" and obj["ok"] is True and obj["failed"] == 0
    assert len(obj["rows"]) == obj["passed"]


def test_verify_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setitem(catalog.TABLE2, 1, (2, 2, 2, 2))
    code, out, _ = run(capsys, "verify", "table2", "--max-weight", "1")
    assert code == 1
    assert "FAIL" in out


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, out, _ = run(capsys, "classify", "--weight", "1", "--format", "csv",
                       "--out", str(target))
    assert code == 0 and out == ""
    rows = list(csv.DictReader(io.StringIO(target.read_text())))
    assert rows[0]["total"] == "1"


def test_semistable_flag_admits_semistable_input(capsys):
    code, out, _ = run(capsys, "z", "--graph", "0 2;1 0", "--semistable", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["z"] == "1/2"


# --- usage errors exit 2 ---


def test_unstable_graph_is_rejected(capsys):
    code, _, err = run(capsys, "z", "--graph", "0 1;1 0")
    assert code == 2 and "not stable" in err


def test_non_semistable_graph_is_rejected_even_with_flag(capsys):
    code, _, err = run(capsys, "z", "--graph", "0 1;1 0", "--semistable")
    assert code == 2 and "not semistable" in err


def test_malformed_matrix_is_rejected(capsys):
    code, _, err = run(capsys, "z", "--graph", "0 2;2")
    assert code == 2 and "row" in err


def test_weight_out_of_range(capsys):
    assert run(capsys, "enumerate", "--weight", "0")[0] == 2
    assert run(capsys, "enumerate", "--weight", "6")[0] == 2


def test_weight_five_needs_allow_slow(capsys):
    code, _, err = run(capsys, "classify", "--weight", "5")
    assert code == 2 and "--allow-slow" in err


def test_verify_slow_gate(capsys):
    code, _, err = run(capsys, "verify", "table2", "--max-weight", "5")
    assert code == 2 and "--allow-slow" in err


@pytest.mark.parametrize(
    "suite, weight, message",
    [
        ("weight2", "99", "outside the supported range 1..5"),
        ("oracle", "0", "outside the supported range 1..5"),
        ("families", "5", "needs --allow-slow"),
    ],
    ids=["weight2-99", "oracle-0", "families-5"],
)
def test_verify_checks_max_weight_for_every_suite(capsys, suite, weight, message):
    code, out, err = run(capsys, "verify", suite, "--max-weight", weight)
    assert code == 2 and out == "" and message in err


def test_unknown_suite_is_usage_error(capsys):
    assert run(capsys, "verify", "nosuch")[0] == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys)[0] == 2


def test_unknown_flag_is_usage_error(capsys):
    assert run(capsys, "classify", "--weight", "1", "--nope")[0] == 2


def test_families_kmn_needs_m(capsys):
    code, _, err = run(capsys, "families", "--name", "Kmn", "--n", "2")
    assert code == 2 and "--m" in err


def test_families_m_rejected_elsewhere(capsys):
    code, _, err = run(capsys, "families", "--name", "C", "--n", "4", "--m", "2")
    assert code == 2


def test_families_range_errors(capsys):
    code, _, err = run(capsys, "families", "--name", "A", "--n", "2")
    assert code == 2 and "n >= 3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["z", "--graph", "1700"],
        ["euler", "--graph", "1700"],
        ["euler", "--graph", "1000000"],
        ["z", "--graph", "1000000"],
        ["families", "--name", "loops", "--n", "2000"],
        ["families", "--name", "K", "--n", "2000"],
        ["families", "--name", "D", "--n", "100000"],
    ],
)
def test_oversized_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "too large" in err


def test_results_near_the_size_limit_print(capsys):
    code, out, _ = run(capsys, "z", "--graph", "1000", "--format", "json")
    assert code == 0 and len(json.loads(out)["rows"][0]["z"]) > 2500
    # charpoly computes no factorial, so it needs no size check
    code, out, _ = run(capsys, "charpoly", "--graph", "1000000", "--format", "json")
    assert code == 0 and json.loads(out)["rows"][0]["det_A_minus_I"] == 999999


def test_int_string_limit_is_usage_error(capsys):
    # a lowered interpreter limit is caught when printing, not by the size check
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "euler", "--graph", "400")
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 2 and out == "" and "error:" in err


_TOKENS = st.one_of(
    st.integers(0, 4).map(str),
    st.sampled_from(["1700", "1000000", "10" * 30, "-1", "x", "2.5"]),
)
_MATRICES = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_TOKENS, min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["z", "charpoly", "euler"]),
    _MATRICES,
    st.booleans(),
)
def test_graph_commands_never_crash(command, rows, semistable):
    argv = [command, "--graph", ";".join(" ".join(row) for row in rows)]
    if semistable:
        argv.append("--semistable")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping main fails the test by itself
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# --- wiring ---


def test_module_entrypoint_runs():
    proc = run_process("z", "--graph", "2", "--format", "csv")
    assert proc.returncode == 0
    assert "-1/2" in proc.stdout


@pytest.mark.parametrize("adjacency", [5, None])
def test_malformed_cache_line_is_rebuilt_without_traceback(tmp_path, adjacency):
    """A whole record whose adjacency is 5, or a line that is null."""
    record = catalog.record_to_json(catalog.build_record(parse_graph("2")))
    line = json.dumps(None if adjacency is None else {**record, "adjacency": adjacency})
    (tmp_path / "stable-1-2.jsonl").write_text(line + "\n")
    proc = run_process("classify", "--weight", "1", "--format", "json", TYZ_CACHE_DIR=str(tmp_path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"][0]["total"] == 1
    assert "Traceback" not in proc.stderr
    assert "rebuilding catalog" in proc.stderr

"""The value types are NamedTuples: frozen, hashed by value, and loaded
without the `dataclasses` machinery."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tyz.catalog import (
    CatalogRecord,
    FormalSum,
    GoldenFixture,
    GraphClassCounts,
    VerifyCase,
    VerifyReport,
    build_record,
)
from tyz.eulerian import IntPolynomial
from tyz.graphs import MultiDigraph, parse_graph
from tyz.spectral import LinearSubgraph, linear_subgraphs
from tyz.zeta import FamilySpec

SRC = Path(__file__).resolve().parents[1] / "src"


def _graph():
    return parse_graph("0 2;1 1")


# each maker returns a fresh value of its type, equal to the last one it made
MAKERS = {
    MultiDigraph: _graph,
    CatalogRecord: lambda: build_record(parse_graph("1 1;1 1")),
    GraphClassCounts: lambda: GraphClassCounts(4, 3, 3, 3),
    FormalSum: lambda: FormalSum(1, ((_graph(), Fraction(-1, 2)),)),
    GoldenFixture: lambda: GoldenFixture(1, ((_graph(), Fraction(-1, 2)),)),
    VerifyCase: lambda: VerifyCase("z(2)", "-1/2", "-1/2", True),
    VerifyReport: lambda: VerifyReport("weight2", (VerifyCase("c", "1", "1", True),)),
    IntPolynomial: lambda: IntPolynomial.of([0, Fraction(-1, 2), Fraction(-1, 2)]),
    LinearSubgraph: lambda: linear_subgraphs(_graph())[0],
    FamilySpec: lambda: FamilySpec("Kmn", n=2, m=3),
}


@pytest.mark.parametrize("cls", MAKERS, ids=lambda cls: cls.__name__)
def test_value_types_are_frozen_and_hash_by_value(cls):
    a, b = MAKERS[cls](), MAKERS[cls]()
    assert type(a) is cls and a is not b
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, cls._fields[0], b)
    with pytest.raises(AttributeError):
        a.extra = 1  # no per-instance __dict__
    assert a == b


def test_int_times_polynomial_stays_a_type_error():
    p = IntPolynomial.of([1, 1])
    with pytest.raises(TypeError):
        2 * p
    with pytest.raises(TypeError):
        True * p
    assert p * p == IntPolynomial.of([1, 2, 1])


def test_import_loads_no_dataclasses_or_inspect():
    """`import tyz` is each CLI call's start-up; -S keeps site-packages
    .pth files, which may import anything, out of the check.  The golden
    fixture is read by path, so neither `importlib.resources` nor the
    `tempfile` it imports is loaded either."""
    unwanted = ("dataclasses", "inspect", "importlib.resources", "tempfile")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tyz; "
        f"print(' '.join(m for m in {unwanted!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""

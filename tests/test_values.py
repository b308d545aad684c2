"""The value types are NamedTuples: frozen, hashed by value, and loaded
without the `dataclasses` machinery."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import tyz
from tyz.catalog import (
    CatalogRecord,
    FormalSum,
    GoldenFixture,
    GraphClassCounts,
    VerifyCase,
    VerifyReport,
    build_record,
)
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


PUBLIC_NAMES = """
CatalogRecord EMPTY FAMILY_NAMES FamilySpec FormalSum GoldenFixture
GraphClassCounts LinearSubgraph MultiDigraph TABLE2 VerifyCase VerifyReport
arborescence_count aut_order automorphisms bernoulli
bernoulli_identity_lhs build_family build_record canonical_form canonical_key
charpoly class_counts coefficient_from_linear connected_unit_ball_rhs
connectivity_class cycle_decomposition_poly det_a_minus_i det_int
enumerate_stable euler_tour_bruteforce euler_tour_count
expansion format_graph format_rational golden_fixture is_balanced
is_semistable is_stable is_strongly_connected linear_subgraphs parse_graph
parse_rational read_catalog stable_records unit_ball_rhs unit_ball_sums verify
weight_records write_catalog z z_family z_orbit
""".split()


def test_public_surface():
    """The names `import tyz` exposes, submodules aside, so that adding or
    removing one shows in a diff of this list."""
    exposed = (n for n, v in vars(tyz).items() if not isinstance(v, ModuleType))
    assert sorted(n for n in exposed if not n.startswith("_")) == PUBLIC_NAMES

"""Persistent catalogs, formal sums, golden values, and verification suites.

A catalog is a JSON-lines file, one record per stable graph, in strictly
increasing canonical-key order.  Every stored field is recomputable from the
adjacency matrix alone, each by one computation in `build_record`
(det(A - I) is read off the characteristic polynomial as (-1)^n chi(1)), and
reading a catalog recomputes and compares all of them, so a corrupt or
tampered file fails loudly with the line number and field name.  The reader
transposes each stored matrix and sums its degrees once, for its size and
stability checks.  Its canonical check is the census fill's canonical
test (`graphs._leaf_search`), which gives a result only for a class's
canonical matrix.
The record of a canonical matrix is built from those columns and sums by
the one record kernel (`_record`, which `build_record` also calls), with no
second semistability test.  A line's fields are named once, in `_FIELDS`,
and one function gives a record's values in that order (`_line_values`):
the reader compares them with the stored ones, an int only with an int, and
words its errors from them; the writer fills a template built from
`_FIELDS` with them (`_record_line`), which the tests hold to `json.dumps`
of `record_to_json`, the two zipped into a dict.  A catalog is written to a
temporary file renamed into place, so no reader sees a partial one; the
on-disk cache (`stable_records`) checks each line's vertex and edge count
before rebuilding its record, rebuilds a file that fails to read or holds
another number of records than `census_count`, and warns (RuntimeWarning) of
that and of a failed write, which loses only the disk copy.  The records of
each (cache directory, j, s) are kept in memory too (`_memo`), and with the
disk cache that is the only memo of the census: `weight_records` serves
every weight-k sum here, the census (`class_counts`, one TABLE2 row), the
formal sum (`expansion`), the Bernoulli and unit-ball identity sums, and the
verify suites.  A census repeats few values in many records: weight 7 has
66,710 records, each with its own matrix, but their rows, charpolys and z
take far fewer values (the 46,796 nonzero z of weights <= 7 are 643 distinct
values).  `build_record` keeps one object per distinct row, charpoly and z
(`_shared`), and a record stores its canonical matrix, not a graph object,
and no det(A - I), which its charpoly gives; so a cold weight-7 census peaks
at less than half the memory it would with a copy in each record.

The golden z-values for weights 1..4 live in data/golden_z.json.  They are
pinned independently of the closed formula, which is exactly what makes the
verify suites a double-entry check: the formula and the pinned table must
agree entry by entry.
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple, NoReturn

from .enumeration import _fixed_matrices, census_count, check_weight, enumerate_stable
from .eulerian import (
    _tour_count,
    _trim,
    arborescence_count,
    arborescences_bruteforce,
    bernoulli,
    connected_unit_ball_rhs,
    cycle_decomposition_poly,
    euler_tour_bruteforce,
    is_balanced,
    unit_ball_rhs,
)
from .graphs import (
    Matrix,
    MultiDigraph,
    Symmetry,
    _connectivity,
    _degrees,
    _label_factor,
    _leaf_search,
    _matrix_key,
    _semistable,
    _type_runs,
    _types,
    canonical_key,
    connectivity,
    format_graph,
    induced_subgraph,
    symmetry,
)
from .spectral import _charpoly, coefficient_from_linear, z_orbit
from .zeta import FamilySpec, build_family, sym_factor, z, z_family

__all__ = [
    "format_rational",
    "parse_rational",
    "connectivity_class",
    "CatalogRecord",
    "build_record",
    "write_catalog",
    "read_catalog",
    "catalog_cache_dir",
    "stable_records",
    "weight_records",
    "GraphClassCounts",
    "class_counts",
    "FormalSum",
    "expansion",
    "bernoulli_identity_lhs",
    "unit_ball_sums",
    "GoldenFixture",
    "golden_fixture",
    "TABLE2",
    "VerifyCase",
    "VerifyReport",
    "SUITE_NAMES",
    "verify",
]


# ---------------------------------------------------------------------------
# exact serialization
# ---------------------------------------------------------------------------

_RATIONAL_RE = re.compile(r"(-?[0-9]+)/([0-9]+)")


def format_rational(q: Fraction) -> str:
    """Always "p/q" in lowest terms with q > 0, e.g. "-1/3" or "0/1"."""
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    m = _RATIONAL_RE.fullmatch(text.strip())
    if not m or int(m.group(2)) == 0:
        raise ValueError(f"not a rational in p/q form: {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2)))


def format_poly(poly: tuple) -> str:
    """Coefficient list, lowest degree first, each entry in p/q form."""
    return "[" + ", ".join(format_rational(c) for c in poly) + "]"


CLASS_DISCONNECTED = "disconnected"
CLASS_CONNECTED = "connected"
CLASS_STRONG = "strongly_connected"


def connectivity_class(g: MultiDigraph) -> str:
    return _class_of(connectivity(g))


def _class_of(parts: list[tuple[list[int], bool]]) -> str:
    if len(parts) != 1:
        return CLASS_DISCONNECTED
    return CLASS_STRONG if parts[0][1] else CLASS_CONNECTED


# ---------------------------------------------------------------------------
# catalog records
# ---------------------------------------------------------------------------


class CatalogRecord(NamedTuple):
    adj: Matrix  # canonical matrix
    weight: int
    edges: int
    cls: str
    aut: int
    z: Fraction
    euler_tours: int
    charpoly: tuple[int, ...]

    @property
    def graph(self) -> MultiDigraph:
        """The canonical form, built on each read: records store the matrix."""
        return MultiDigraph(self.adj)

    @property
    def det_a_minus_i(self) -> int:
        """det(A - I) = (-1)^n chi(1)."""
        return (-1) ** len(self.adj) * sum(self.charpoly)


# One copy of each value that many records repeat: `_shared.setdefault(t,
# t)` gives the stored tuple equal to a canonical matrix row or charpoly t,
# and `_shared[(Fraction, p, q)]` the one Fraction p/q of every z in lowest
# terms.  No row or charpoly holds the class Fraction, so no key of one kind
# equals a key of another: a bare (p, q) would, since (1, 2) is also a row.
_shared: dict[tuple, tuple | Fraction] = {}


def build_record(g: MultiDigraph | Symmetry) -> CatalogRecord:
    """The record of g, each field computed once from its canonical matrix.

    g is a graph, searched once, or a `symmetry` result, such as the one a
    cold catalog's fill kept for its class; the canonical matrix and vertex
    group order come from it, and aut is that order times the multiplicity
    factorials.  det(A - I) is read off charpoly as (-1)^n chi(1), here for
    z and later by the `det_a_minus_i` property; the class comes from one
    connectivity pass; Euler tours from the matrix-tree minor.  z is (-1)^c
    det(A - I)/|Aut(G)| when all c weak components are strongly connected,
    else 0: `zeta.z`'s rule for unions, since the components' determinants
    and orders multiply and |Aut(G)| adds `sym_factor`.

    The matrix rows, the charpoly and z are the shared copies (`_shared`),
    so a census holds each repeated value once.
    """
    found = g if isinstance(g, Symmetry) else symmetry(g.adj)
    cols = tuple(zip(*found.matrix))
    outs, ins = _degrees(found.matrix, cols)
    if not _semistable(outs, ins):
        raise ValueError("z is defined for semistable graphs only")
    return _record(found, cols, outs, ins)


def _record(
    found: Symmetry, cols: Matrix, outs: tuple[int, ...], ins: tuple[int, ...]
) -> CatalogRecord:
    """`build_record` of a semistable graph's search, given the columns and
    the out- and in-degrees of its canonical matrix, which the connectivity
    pass, the charpoly, the edge count and the Euler tours all read: the one
    record kernel of a cold catalog and a reread one.  It builds no graph
    object and no component vertex list: the class and z need only how many
    weak components there are and whether each is strongly connected."""
    adj = tuple(map(_shared.setdefault, found.matrix, found.matrix))
    parts = _connectivity(adj, cols)
    poly = _charpoly(adj, cols)
    poly = _shared.setdefault(poly, poly)
    n, edges, aut = len(adj), sum(outs), _label_factor(adj) * found.order
    strong = all(is_strong for _, is_strong in parts)
    # (-1)^c det(A - I), det(A - I) = (-1)^n chi(1); keyed by ints: a
    # Fraction's own hash and equality run in Python
    num = (-1) ** (len(parts) + n) * sum(poly) if strong else 0
    d = math.gcd(num, aut)
    key = (Fraction, num // d, aut // d)
    z = _shared.get(key)
    if z is None:
        z = _shared[key] = Fraction(num, aut)
    return CatalogRecord(
        adj, edges - n, edges, _class_of(parts), aut, z, _tour_count(adj, outs, ins), poly
    )


# the fields of a catalog line, in the order the writer puts them
_FIELDS = (
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
)


def _line_values(rec: CatalogRecord, rows: list) -> list:
    """rec's catalog line values in `_FIELDS` order, `rows` its matrix as
    lists; a list, since each 10-tuple freed would stay on a free list."""
    return [
        len(rows),
        rows,
        rec.weight,
        rec.edges,
        rec.cls,
        rec.det_a_minus_i,
        rec.aut,
        format_rational(rec.z),
        rec.euler_tours,
        [*rec.charpoly],
    ]


def record_to_json(rec: CatalogRecord) -> dict:
    return dict(zip(_FIELDS, _line_values(rec, [*map(list, rec.adj)])))


# `json.dumps(record_to_json(rec))` and a newline, as a template of the line
# values: the str of an int or of a list of ints is its JSON, and the class
# and z strings need only their quotes
_LINE = "{%s}\n" % ", ".join(
    f'"{field}": "%s"' if field in ("class", "z") else f'"{field}": %s' for field in _FIELDS
)


def _record_line(rec: CatalogRecord) -> str:
    return _LINE % tuple(_line_values(rec, [*map(list, rec.adj)]))


def _record_from_json(obj, where: str, size: tuple[int, int]) -> CatalogRecord:
    """Rebuild the record from the adjacency matrix alone and require every
    field of `_FIELDS` to be stored and match, an int field or charpoly
    entry with an int, the first missing or differing one reported.  A
    matrix that is not j x j with entry sum s, for size = (j, s), or that
    has a row or column sum below 2, and so is no stable graph, fails
    before anything is computed from it.

    The canonical check is the census fill's canonical test
    (`_leaf_search`) on the runs of equal type (`_type_runs`), which gives
    None for a matrix that is not its class's canonical one.  A matrix that
    fails is searched by `symmetry` only to word its error, on 'vertices' or
    'adjacency', the first two fields, against its canonical matrix; no
    record is built for it.  The record of a canonical matrix is built from
    the columns and degrees the checks read (`_record`), and its line values
    compared with the stored ones, the stored rows standing for its matrix."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: not a JSON object")
    if "adjacency" not in obj:
        raise ValueError(f"{where}: missing field 'adjacency'")
    rows = obj["adjacency"]
    if not isinstance(rows, list) or not all(map(isinstance, rows, repeat(list))):
        raise ValueError(f"{where}: field 'adjacency' is not a list of integer rows")
    adj = tuple(map(tuple, rows))
    n = len(adj)
    # type, not isinstance: a bool or an int subclass is no matrix entry
    if not set(map(type, chain.from_iterable(adj))) <= {int}:
        raise ValueError(f"{where}: field 'adjacency' is not a list of integer rows")
    if min(chain.from_iterable(adj), default=0) < 0 or not set(map(len, adj)) <= {n}:
        try:  # words the first negative entry, else the first row of another length
            MultiDigraph.from_rows(rows)
        except ValueError as exc:
            raise ValueError(f"{where}: field 'adjacency': {exc}") from None
    cols = tuple(zip(*adj))
    outs, ins = _degrees(adj, cols)
    if (n, sum(outs)) != size:
        raise ValueError(
            f"{where}: adjacency has {n} vertices and {sum(outs)} edges, "
            f"not {size[0]} and {size[1]}"
        )
    if min(outs + ins, default=2) < 2:
        v = next(v for v in range(n) if min(outs[v], ins[v]) < 2)
        raise ValueError(
            f"{where}: field 'adjacency': vertex {v + 1} has out-degree {outs[v]} "
            f"and in-degree {ins[v]}, not both at least 2"
        )
    runs = _type_runs(_types(adj, outs, ins))
    found = None if runs is None else _leaf_search(adj, cols, runs)
    if found is None:
        # not canonical, searched only to word the error: the canonical
        # matrix differs on 'adjacency', if 'vertices' is stored right
        _mismatch(obj, [n, [*map(list, symmetry(adj).matrix)]], where)
    rec = _record(found, cols, outs, ins)
    values = _line_values(rec, rows)  # the stored rows are adj, so 'adjacency' matches
    stored = [*map(obj.get, _FIELDS)]
    # == takes 8.0 or True for the int 8 or 1, so the types of equal values
    # and of the charpoly entries are checked too
    if stored != values or not {*map(type, chain(stored, obj["charpoly"]))} <= {int, list, str}:
        _mismatch(obj, values, where)
    return rec


def _mismatch(obj: dict, values, where: str) -> NoReturn:
    """Report the first field of `_FIELDS` that obj is missing or stores
    another value or type of (their reprs differ) than the line's `values`
    has; there is one."""
    field, value = next(
        (f, v) for f, v in zip(_FIELDS, values) if f not in obj or repr(obj[f]) != repr(v)
    )
    if field not in obj:
        raise ValueError(f"{where}: missing field '{field}'")
    raise ValueError(f"{where}: field '{field}': stored {obj[field]!r}, recomputed {value!r}")


def write_catalog(records, path) -> None:
    # records hold canonical matrices, so (n, rows) order is canonical-key order
    records = sorted(records, key=lambda r: (len(r.adj), r.adj))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # the rename is atomic, so readers see the old catalog or the whole new one
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(map(_record_line, records))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_catalog(path, size: tuple[int, int]) -> list[CatalogRecord]:
    """Load and fully re-verify the catalog of the j-vertex, s-edge graphs,
    size = (j, s); raises with line number on any corrupt or inconsistent
    record, on a duplicate or out-of-order one, and on one without j
    vertices and s edges."""
    out = []
    last = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also too many digits, too deep
                raise ValueError(f"line {line_no}: invalid JSON: {exc}") from None
            rec = _record_from_json(obj, f"line {line_no}", size)
            # every matrix here is j x j, so row-tuple order is canonical-key order
            if last is not None and rec.adj <= last:
                raise ValueError(f"line {line_no}: duplicate or out-of-order record")
            last = rec.adj
            out.append(rec)
    return out


# ---------------------------------------------------------------------------
# enumeration cache
# ---------------------------------------------------------------------------

_memo: dict[tuple[Path | None, int, int], tuple[CatalogRecord, ...]] = {}


def catalog_cache_dir() -> Path | None:
    """TYZ_CACHE_DIR (default ./.tyz-cache); set it to "" to disable caching."""
    raw = os.environ.get("TYZ_CACHE_DIR")
    if raw is None:
        return Path(".tyz-cache")
    return Path(raw) if raw else None


def stable_records(j: int, s: int) -> tuple[CatalogRecord, ...]:
    """Catalog records for the j-vertex, s-edge stable graphs, cached in
    memory per cache directory and, when one is configured, on disk.

    The records must number `census_count(j, s)`: 0 gives () and touches no
    file, a catalog read with another count is rebuilt like a corrupt one,
    and an enumeration giving another count raises RuntimeError."""
    cache_root = catalog_cache_dir()
    memo_key = (cache_root, j, s)
    if memo_key in _memo:
        return _memo[memo_key]
    expected = census_count(j, s)
    if expected == 0:
        return ()
    path = None if cache_root is None else cache_root / f"stable-{j}-{s}.jsonl"
    if path is not None and path.exists():
        try:
            records = tuple(read_catalog(path, (j, s)))
            if len(records) != expected:
                raise ValueError(f"{len(records)} records, census_count gives {expected}")
        except (ValueError, OSError) as exc:
            warnings.warn(f"rebuilding catalog {path}: {exc}", RuntimeWarning, stacklevel=2)
        else:
            _memo[memo_key] = records
            return records
    # each search is popped as its record is built, so its memory is freed at
    # once and reused by the records rather than held to the end of the catalog
    searches = list(reversed(enumerate_stable(j, s)))
    records = tuple(build_record(searches.pop()) for _ in range(len(searches)))
    if len(records) != expected:
        raise RuntimeError(
            f"enumerate_stable({j}, {s}) gave {len(records)} classes, census_count gives {expected}"
        )
    if path is not None:
        try:
            write_catalog(records, path)
        except OSError as exc:  # the records are in hand; only the disk copy is lost
            warnings.warn(f"cannot write catalog {path}: {exc}", RuntimeWarning, stacklevel=2)
    _memo[memo_key] = records
    return records


def weight_records(k: int) -> tuple[CatalogRecord, ...]:
    """Records of every stable graph of weight k, sorted by canonical key."""
    check_weight(k)
    # each catalog is in key order, and every key starts with its vertex count
    return tuple(r for j in range(1, k + 1) for r in stable_records(j, j + k))


class GraphClassCounts(NamedTuple):
    """Counts of stable graphs of one weight: all, weakly connected,
    strongly connected, and strongly connected with det(A - I) != 0."""

    total: int
    connected: int
    strongly_connected: int
    lam: int


def class_counts(k: int) -> GraphClassCounts:
    """The census of weight k (one TABLE2 row), served from the record cache."""
    recs = weight_records(k)
    return GraphClassCounts(
        total=len(recs),
        connected=sum(r.cls != CLASS_DISCONNECTED for r in recs),
        strongly_connected=sum(r.cls == CLASS_STRONG for r in recs),
        lam=sum(r.cls == CLASS_STRONG and r.det_a_minus_i != 0 for r in recs),
    )


# ---------------------------------------------------------------------------
# formal sums
# ---------------------------------------------------------------------------


class FormalSum(NamedTuple):
    """The weight-k expansion coefficient as a formal rational combination of
    stable graphs, each term's graph in canonical form; zero coefficients
    are retained."""

    weight: int
    terms: tuple[tuple[MultiDigraph, Fraction], ...]


def expansion(k: int) -> FormalSum:
    return FormalSum(k, tuple((r.graph, r.z) for r in weight_records(k)))


# ---------------------------------------------------------------------------
# the Bernoulli and unit-ball identities, summed over the records
# ---------------------------------------------------------------------------


def bernoulli_identity_lhs(k: int) -> Fraction:
    """sum of z(G) * epsilon(G) * prod((deg+(v) - 1)!) over stable weight-k
    graphs; the identity says this equals (-1)^(k+1) B_k / k."""
    total = Fraction(0)
    for r in weight_records(k):
        if r.euler_tours:
            degrees = r.graph.out_degrees()
            total += r.z * r.euler_tours * math.prod(math.factorial(d - 1) for d in degrees)
    return total


def unit_ball_sums(k: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Catalog side of both unit-ball identities, from one pass over the
    stable weight-k graphs: the sum of z(G) * prod((deg+ - 1)!) times the
    cycle-decomposition polynomial over all of them, which the identity
    says equals `unit_ball_rhs(k)`, and the same sum over the weakly
    connected ones, which equals `connected_unit_ball_rhs(k)`.  A graph
    with z = 0 or without a decomposition adds nothing."""
    records = weight_records(k)  # checks k before the sums are sized by it
    full, connected = [Fraction(0)] * (2 * k + 1), [Fraction(0)] * (2 * k + 1)
    for r in records:
        if not r.z:
            continue
        factor = r.z * math.prod(math.factorial(d - 1) for d in r.graph.out_degrees())
        sums = (full,) if r.cls == CLASS_DISCONNECTED else (full, connected)
        for p, c in enumerate(cycle_decomposition_poly(r.graph)):
            term = factor * c
            for total in sums:
                total[p] += term
    return _trim(full), _trim(connected)


# ---------------------------------------------------------------------------
# golden values
# ---------------------------------------------------------------------------

# (total, weakly connected, strongly connected, lambda) per weight.  The
# total and connected columns of every row have a second derivation that
# generates no graph: `enumeration.census_count` and `connected_count`.  The
# strongly connected and lambda columns of rows 6 and 7 come from the
# enumerator only; the Bernoulli and unit-ball identities at those weights
# sum over the same records.
TABLE2 = {
    1: (1, 1, 1, 1),
    2: (4, 3, 3, 3),
    3: (15, 11, 10, 9),
    4: (82, 61, 51, 45),
    5: (589, 474, 373, 316),
    6: (5683, 4835, 3766, 3107),
    7: (66710, 58868, 46075, 37492),
}


class GoldenFixture(NamedTuple):
    weight: int
    entries: tuple[tuple[MultiDigraph, Fraction], ...]


@cache
def golden_fixture(weight: int) -> GoldenFixture:
    """Pinned (graph, z) pairs: complete for weights 1..3, the strongly
    connected graphs for weight 4."""
    data = json.loads((Path(__file__).parent / "data" / "golden_z.json").read_text("utf-8"))
    if str(weight) not in data:
        raise ValueError(f"no golden fixture for weight {weight}")
    entries = tuple(
        (MultiDigraph.from_rows(entry["adjacency"]), parse_rational(entry["z"]))
        for entry in data[str(weight)]
    )
    return GoldenFixture(weight, entries)


@cache
def _fixture_by_key(weight: int) -> dict[tuple[int, ...], Fraction]:
    """The golden fixture keyed by `canonical_key`, each graph searched once
    per process; callers only read it."""
    return {canonical_key(g): value for g, value in golden_fixture(weight).entries}


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


class VerifyCase(NamedTuple):
    name: str
    expected: str
    actual: str
    ok: bool


class VerifyReport(NamedTuple):
    suite: str
    cases: tuple[VerifyCase, ...]

    @property
    def passed(self) -> int:
        return sum(c.ok for c in self.cases)

    @property
    def failed(self) -> int:
        return len(self.cases) - self.passed

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _case(name, expected, actual, show=str) -> VerifyCase:
    """The one constructor of a case: both values shown by `show`, ok if equal."""
    return VerifyCase(name, show(expected), show(actual), expected == actual)


def _suite_table2(top: int) -> list[VerifyCase]:
    return [
        _case(f"counts weight {k}", TABLE2[k], tuple(class_counts(k)))
        for k in range(1, top + 1)
    ]


def _suite_weight(k: int) -> list[VerifyCase]:
    fixture = _fixture_by_key(k)
    cases = []
    records = weight_records(k)
    if k in (2, 3):
        cases.append(_case(f"graph count weight {k}", len(fixture), len(records)))
        for rec in records:
            key = _matrix_key(rec.adj)  # a record stores its canonical matrix
            name = f"z({format_graph(rec.graph)})"
            if key not in fixture:
                cases.append(_case(name, "pinned value", "missing from fixture"))
            else:
                cases.append(_case(name, fixture[key], rec.z, format_rational))
        return cases
    # weight 4: the fixture pins the strongly connected graphs; connected but
    # not strongly connected graphs must vanish; disconnected ones must equal
    # the product of the pinned component values over the component symmetry.
    keys = [_matrix_key(r.adj) if r.cls == CLASS_STRONG else None for r in records]
    strong_in_catalog = set(keys) - {None}
    cases.append(_case("strongly connected count", len(fixture), len(strong_in_catalog)))
    cases.append(_case("fixture keys match catalog", sorted(fixture), sorted(strong_in_catalog)))
    component_fixtures = {w: _fixture_by_key(w) for w in (1, 2, 3)}
    for rec, key in zip(records, keys):
        name = f"z({format_graph(rec.graph)})"
        if rec.cls == CLASS_STRONG:
            expected = fixture.get(key)
            if expected is None:
                continue  # already reported by the key-set case
            cases.append(_case(name, expected, rec.z, format_rational))
        elif rec.cls == CLASS_CONNECTED:
            cases.append(_case(name + " vanishes", Fraction(0), rec.z, format_rational))
        else:
            comps = [induced_subgraph(rec.graph, part) for part, _ in connectivity(rec.graph)]
            comp_keys = [canonical_key(c) for c in comps]  # one search per component
            expected = Fraction(1)
            for c, comp_key in zip(comps, comp_keys):
                expected *= component_fixtures[c.weight][comp_key]
            expected /= sym_factor(comp_keys)
            cases.append(_case(name + " from components", expected, rec.z, format_rational))
    return cases


def _suite_bernoulli(top: int) -> list[VerifyCase]:
    cases = []
    for k in range(1, top + 1):
        target = (-1) ** (k + 1) * bernoulli(k) / k
        lhs = bernoulli_identity_lhs(k)
        cases.append(_case(f"tour sum weight {k}", target, lhs, format_rational))
    return cases


_P1_PRINTED = (0, Fraction(-1, 2), Fraction(-1, 2))
_P2_PRINTED = (0, Fraction(-1, 12), Fraction(-1, 8), Fraction(1, 12), Fraction(1, 8))


def _suite_unitball(top: int) -> list[VerifyCase]:
    cases = []
    printed = {1: _P1_PRINTED, 2: _P2_PRINTED}
    for k in range(1, top + 1):
        (lhs, connected), rhs = unit_ball_sums(k), unit_ball_rhs(k)
        cases.append(_case(f"P_{k} catalog sum", rhs, lhs, format_poly))
        target = connected_unit_ball_rhs(k)
        cases.append(_case(f"P_{k} connected sum", target, connected, format_poly))
        leading = Fraction((-1) ** k, 2**k * math.factorial(k))
        cases.append(_case(f"P_{k} leading coefficient", leading, lhs[-1], format_rational))
        if k in printed:
            cases.append(_case(f"P_{k} printed form", printed[k], lhs, format_poly))
    return cases


def _suite_oracle(top: int) -> list[VerifyCase]:
    cases = []
    for k in range(1, top + 1):
        for rec in weight_records(k):
            g = rec.graph
            name = format_graph(g)
            cases.append(_case(f"charpoly({name})", rec.charpoly, coefficient_from_linear(g)))
            if rec.cls == CLASS_STRONG:
                cases.append(_case(f"orbit sum z({name})", rec.z, z_orbit(g), format_rational))
        # a class has j!·∏m!/aut labelled members; a Burnside count needs no search
        for j in range(1, k + 1):
            per_label = sum(Fraction(_label_factor(r.adj), r.aut) for r in stable_records(j, j + k))
            expected, name = _fixed_matrices((1,) * j, j + k), f"labelled matrices ({j},{j + k})"
            cases.append(_case(name, expected, math.factorial(j) * per_label))
        # each z again by `zeta.z`, the union rule over the components
        for j in range(1, k + 1):
            wrong = [format_graph(r.graph) for r in stable_records(j, j + k) if r.z != z(r.graph)]
            cases.append(_case(f"z by components ({j},{j + k})", [], wrong))
    return cases


def _suite_best() -> list[VerifyCase]:
    cases = []
    for k in range(1, 4):
        for rec in weight_records(k):
            g = rec.graph
            if not is_balanced(g) or rec.cls == CLASS_DISCONNECTED:
                continue
            name = format_graph(g)
            cases.append(_case(f"epsilon({name})", euler_tour_bruteforce(g), rec.euler_tours))
            by_matrix = [arborescence_count(g, r) for r in range(g.n)]
            by_force = [arborescences_bruteforce(g, r) for r in range(g.n)]
            cases.append(_case(f"in-trees({name})", by_force, by_matrix))
            cases.append(
                _case(f"in-trees({name}) root-independent", [by_matrix[0]] * g.n, by_matrix)
            )
    return cases


def _family_instances() -> list[FamilySpec]:
    specs = []
    for name in ("A", "B", "C"):
        specs += [FamilySpec(name, n=n) for n in range(3, 17)]
    specs += [FamilySpec("K", n=n) for n in range(2, 5)]
    specs += [FamilySpec("D", n=n) for n in range(2, 7)]
    specs += [FamilySpec("Kmn", n=n, m=m) for m in (2, 3) for n in (2, 3)]
    specs += [FamilySpec("loops", n=n) for n in range(2, 7)]
    for k in range(1, 5):
        for rec in weight_records(k):
            adj = rec.adj
            if len(adj) == 2 and adj[0][1] * adj[1][0] != 0:
                (m, i), (j, n) = adj
                specs.append(FamilySpec("twovertex", m=m, i=i, j=j, n=n))
    return specs


def _spec_label(spec: FamilySpec) -> str:
    if spec.family == "twovertex":
        return f"twovertex[{spec.m} {spec.i};{spec.j} {spec.n}]"
    if spec.family == "Kmn":
        return f"K({spec.m},{spec.n})"
    return f"{spec.family}({spec.n})"


def _suite_families() -> list[VerifyCase]:
    return [
        _case(_spec_label(spec), z_family(spec), z(build_family(spec)), format_rational)
        for spec in _family_instances()
    ]


def _fixed(suite, *args):
    """A suite whose weights do not follow the --max-weight cap."""
    return lambda top: suite(*args)


# name -> suite(top weight), in the order "all" runs them
_SUITES = {
    "table2": _suite_table2,
    "weight2": _fixed(_suite_weight, 2),
    "weight3": _fixed(_suite_weight, 3),
    "weight4": _fixed(_suite_weight, 4),
    "bernoulli": _suite_bernoulli,
    "unitball": _suite_unitball,
    "oracle": _suite_oracle,
    "best": _fixed(_suite_best),
    "families": _fixed(_suite_families),
}

SUITE_NAMES = (*_SUITES, "all")


def verify(suite: str, max_weight: int | None = None, allow_slow: bool = False) -> VerifyReport:
    """Run one named suite (or "all") and report expected vs actual per case."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {', '.join(SUITE_NAMES)}")
    # the cap is checked once, before any suite runs, whichever suites read it
    top = 4 if max_weight is None else check_weight(max_weight, allow_slow)
    names = _SUITES if suite == "all" else (suite,)
    cases = [case for name in names for case in _SUITES[name](top)]
    return VerifyReport(suite, tuple(cases))

"""Persistent catalogs, formal sums, golden values, and verification suites.

A catalog is a JSON-lines file, one record per stable graph, in strictly
increasing canonical-key order.  Every stored field is recomputable from the
adjacency matrix alone, each by one computation in `build_record`
(det(A - I) is read off the characteristic polynomial as (-1)^n chi(1)), and
reading a catalog recomputes and compares all of them, so a corrupt or
tampered file fails loudly with the line number and field name.  A catalog
is written to a temporary file renamed into place, so no reader sees a
partial one; the on-disk cache (`stable_records`) checks each line's vertex
and edge count before rebuilding its record, rebuilds a file that fails to
read, and warns (RuntimeWarning) of that and of a failed write, which loses
only the disk copy.  The records of each (cache directory, j, s) are kept in
memory too (`_memo`), and with the disk cache that is the only memo of the
census: `weight_records` serves every weight-k sum here, the census
(`class_counts`, one TABLE2 row), the formal sum (`expansion`), the
Bernoulli and unit-ball identity sums, and the verify suites.

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
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from .enumeration import check_weight, enumerate_stable
from .eulerian import (
    ZERO_POLY,
    IntPolynomial,
    _tour_count,
    arborescence_count,
    arborescences_bruteforce,
    bernoulli,
    cycle_decomposition_poly,
    euler_tour_bruteforce,
    is_balanced,
    unit_ball_rhs,
)
from .graphs import (
    MultiDigraph,
    Symmetry,
    _label_factor,
    _semistable,
    canonical_key,
    connectivity,
    format_graph,
    symmetry,
    weak_components,
)
from .spectral import charpoly, coefficient_from_linear, z_orbit
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
    "unit_ball_lhs",
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

_RATIONAL_RE = re.compile(r"^(-?\d+)/(\d+)$")


def format_rational(q: Fraction) -> str:
    """Always "p/q" in lowest terms with q > 0, e.g. "-1/3" or "0/1"."""
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    m = _RATIONAL_RE.match(text.strip())
    if not m or int(m.group(2)) == 0:
        raise ValueError(f"not a rational in p/q form: {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2)))


def format_poly(poly: IntPolynomial) -> str:
    """Coefficient list, lowest degree first, each entry in p/q form."""
    return "[" + ", ".join(format_rational(c) for c in poly.coeffs) + "]"


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
    graph: MultiDigraph  # canonical form
    weight: int
    edges: int
    cls: str
    det_a_minus_i: int
    aut: int
    z: Fraction
    euler_tours: int
    charpoly: tuple[int, ...]


def build_record(g: MultiDigraph | Symmetry) -> CatalogRecord:
    """The record of g, each field computed once from its canonical matrix.

    g is a graph, searched once directly (no memo), or a `symmetry` result,
    such as the one a cold catalog's fill kept for its class; the canonical
    matrix and vertex group order come from it, and aut is that order times
    the multiplicity factorials.  det(A - I) is read off charpoly as (-1)^n
    chi(1); the class comes from one connectivity pass; Euler tours from the
    matrix-tree minor.  z is (-1)^c det(A - I)/|Aut(G)| when all c weak
    components are strongly connected, else 0: `zeta.z`'s rule for unions,
    since the components' determinants and orders multiply and |Aut(G)|
    adds `sym_factor`.
    """
    found = g if isinstance(g, Symmetry) else symmetry(g.adj)
    g = MultiDigraph(found.matrix)
    outs, ins = g.out_degrees(), g.in_degrees()
    if not _semistable(outs, ins):
        raise ValueError("z is defined for semistable graphs only")
    parts = connectivity(g)
    poly = charpoly(g)
    det, aut, edges = (-1) ** g.n * sum(poly), _label_factor(g.adj) * found.order, sum(outs)
    strong = all(is_strong for _, is_strong in parts)
    return CatalogRecord(
        graph=g,
        weight=edges - g.n,
        edges=edges,
        cls=_class_of(parts),
        det_a_minus_i=det,
        aut=aut,
        z=Fraction((-1) ** len(parts) * det, aut) if strong else Fraction(0),
        euler_tours=_tour_count(g, outs, ins),
        charpoly=poly,
    )


def record_to_json(rec: CatalogRecord) -> dict:
    return {
        "vertices": rec.graph.n,
        "adjacency": [list(row) for row in rec.graph.adj],
        "weight": rec.weight,
        "edges": rec.edges,
        "class": rec.cls,
        "det_A_minus_I": rec.det_a_minus_i,
        "aut_order": rec.aut,
        "z": format_rational(rec.z),
        "euler_tours": rec.euler_tours,
        "charpoly": list(rec.charpoly),
    }


def _record_from_json(obj, where: str, size: tuple[int, int]) -> CatalogRecord:
    """Rebuild the record from the adjacency matrix alone and require every
    field of `record_to_json` to be stored and match, the first missing or
    differing one in its order reported; a matrix not in canonical form
    fails on 'adjacency'.  A matrix that is not j x j with entry sum s, for
    size = (j, s), fails before anything is computed from it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: not a JSON object")
    if "adjacency" not in obj:
        raise ValueError(f"{where}: missing field 'adjacency'")
    rows = obj["adjacency"]
    # type, not isinstance: a bool or an int subclass is no matrix entry
    if (
        not isinstance(rows, list)
        or not all(isinstance(row, list) for row in rows)
        or not set(map(type, chain.from_iterable(rows))) <= {int}
    ):
        raise ValueError(f"{where}: field 'adjacency' is not a list of integer rows")
    try:
        g = MultiDigraph.from_int_rows(rows)
    except ValueError as exc:
        raise ValueError(f"{where}: field 'adjacency': {exc}") from None
    if (g.n, g.edge_count) != size:
        raise ValueError(
            f"{where}: adjacency has {g.n} vertices and {g.edge_count} edges, "
            f"not {size[0]} and {size[1]}"
        )
    fresh = build_record(g)
    expected = record_to_json(fresh)
    if expected.items() <= obj.items():
        return fresh
    # the first missing or differing field in record order; there is one
    field = next(f for f in expected if f not in obj or obj[f] != expected[f])
    if field not in obj:
        raise ValueError(f"{where}: missing field '{field}'")
    raise ValueError(
        f"{where}: field '{field}': stored {obj[field]!r}, recomputed {expected[field]!r}"
    )


def write_catalog(records, path) -> None:
    # records hold canonical graphs, so (n, rows) order is canonical-key order
    records = sorted(records, key=lambda r: (r.graph.n, r.graph.adj))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # the rename is atomic, so readers see the old catalog or the whole new one
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(record_to_json(rec)) + "\n")
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
            if last is not None and rec.graph.adj <= last:
                raise ValueError(f"line {line_no}: duplicate or out-of-order record")
            last = rec.graph.adj
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
    memory per cache directory and, when one is configured, on disk."""
    cache_root = catalog_cache_dir()
    memo_key = (cache_root, j, s)
    if memo_key in _memo:
        return _memo[memo_key]
    path = None if cache_root is None else cache_root / f"stable-{j}-{s}.jsonl"
    if path is not None and path.exists():
        try:
            records = tuple(read_catalog(path, (j, s)))
        except (ValueError, OSError) as exc:
            warnings.warn(f"rebuilding catalog {path}: {exc}", RuntimeWarning, stacklevel=2)
        else:
            _memo[memo_key] = records
            return records
    records = tuple(map(build_record, enumerate_stable(j, s)))
    if path is not None:
        try:
            write_catalog(records, path)
        except OSError as exc:  # the records are in hand; only the disk copy is lost
            warnings.warn(f"cannot write catalog {path}: {exc}", RuntimeWarning, stacklevel=2)
    _memo[memo_key] = records
    return records


def weight_records(k: int) -> tuple[CatalogRecord, ...]:
    """Records of every stable graph of weight k, sorted by canonical key."""
    if k < 1:
        raise ValueError("weight_records needs k >= 1")
    # each catalog is in key order, and every key starts with its vertex count
    return tuple(r for j in range(1, k + 1) for r in stable_records(j, j + k))


class GraphClassCounts(NamedTuple):
    """Counts of stable graphs of one weight: all, weakly connected,
    strongly connected, and strongly connected with det(A - I) != 0."""

    total: int
    connected: int
    strongly_connected: int
    lam: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.total, self.connected, self.strongly_connected, self.lam)


def class_counts(k: int) -> GraphClassCounts:
    """The census of weight k (one TABLE2 row), served from the record cache."""
    recs = weight_records(check_weight(k))
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
    stable graphs; zero coefficients are retained."""

    weight: int
    terms: tuple[tuple[MultiDigraph, Fraction], ...]

    def coefficient(self, g: MultiDigraph) -> Fraction:
        key = canonical_key(g)
        for graph, value in self.terms:
            if canonical_key(graph) == key:
                return value
        return Fraction(0)


def expansion(k: int) -> FormalSum:
    return FormalSum(k, tuple((r.graph, r.z) for r in weight_records(check_weight(k))))


# ---------------------------------------------------------------------------
# the Bernoulli and unit-ball identities, summed over the records
# ---------------------------------------------------------------------------


def bernoulli_identity_lhs(k: int) -> Fraction:
    """sum of z(G) * epsilon(G) * prod((deg+(v) - 1)!) over stable weight-k
    graphs; the identity says this equals (-1)^(k+1) B_k / k."""
    total = Fraction(0)
    for r in weight_records(check_weight(k)):
        if r.euler_tours:
            degrees = r.graph.out_degrees()
            total += r.z * r.euler_tours * math.prod(math.factorial(d - 1) for d in degrees)
    return total


def unit_ball_lhs(k: int) -> IntPolynomial:
    """Catalog side: sum over stable weight-k graphs of
    z(G) * prod((deg+ - 1)!) times the cycle-decomposition polynomial; the
    identity says this equals `unit_ball_rhs(k)`."""
    total = ZERO_POLY
    for r in weight_records(check_weight(k)):
        poly = cycle_decomposition_poly(r.graph)
        if poly.coeffs:
            factor = math.prod(math.factorial(d - 1) for d in r.graph.out_degrees())
            total = total + poly.scale(r.z * factor)
    return total


# ---------------------------------------------------------------------------
# golden values
# ---------------------------------------------------------------------------

TABLE2 = {
    1: (1, 1, 1, 1),
    2: (4, 3, 3, 3),
    3: (15, 11, 10, 9),
    4: (82, 61, 51, 45),
    5: (589, 474, 373, 316),
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


def _fixture_by_key(weight: int) -> dict[tuple[int, ...], Fraction]:
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


def _case(name, expected, actual) -> VerifyCase:
    return VerifyCase(name, str(expected), str(actual), expected == actual)


def _rat_case(name, expected: Fraction, actual: Fraction) -> VerifyCase:
    return VerifyCase(
        name, format_rational(expected), format_rational(actual), expected == actual
    )


def _suite_table2(top: int) -> list[VerifyCase]:
    return [
        _case(f"counts weight {k}", TABLE2[k], class_counts(k).as_tuple())
        for k in range(1, top + 1)
    ]


def _suite_weight(k: int) -> list[VerifyCase]:
    fixture = _fixture_by_key(k)
    cases = []
    records = weight_records(k)
    if k in (2, 3):
        cases.append(_case(f"graph count weight {k}", len(fixture), len(records)))
        for rec in records:
            key = canonical_key(rec.graph)
            name = f"z({format_graph(rec.graph)})"
            if key not in fixture:
                cases.append(VerifyCase(name, "pinned value", "missing from fixture", False))
            else:
                cases.append(_rat_case(name, fixture[key], rec.z))
        return cases
    # weight 4: the fixture pins the strongly connected graphs; connected but
    # not strongly connected graphs must vanish; disconnected ones must equal
    # the product of the pinned component values over the component symmetry.
    strong_in_catalog = {
        canonical_key(r.graph) for r in records if r.cls == CLASS_STRONG
    }
    cases.append(_case("strongly connected count", len(fixture), len(strong_in_catalog)))
    cases.append(_case("fixture keys match catalog", sorted(fixture), sorted(strong_in_catalog)))
    component_fixtures = {w: _fixture_by_key(w) for w in (1, 2, 3)}
    for rec in records:
        name = f"z({format_graph(rec.graph)})"
        if rec.cls == CLASS_STRONG:
            expected = fixture.get(canonical_key(rec.graph))
            if expected is None:
                continue  # already reported by the key-set case
            cases.append(_rat_case(name, expected, rec.z))
        elif rec.cls == CLASS_CONNECTED:
            cases.append(_rat_case(name + " vanishes", Fraction(0), rec.z))
        else:
            comps = weak_components(rec.graph)
            expected = Fraction(1)
            for c in comps:
                expected *= component_fixtures[c.weight][canonical_key(c)]
            expected /= sym_factor(comps)
            cases.append(_rat_case(name + " from components", expected, rec.z))
    return cases


def _suite_bernoulli(top: int) -> list[VerifyCase]:
    cases = []
    for k in range(1, top + 1):
        target = (-1) ** (k + 1) * bernoulli(k) / k
        cases.append(_rat_case(f"tour sum weight {k}", target, bernoulli_identity_lhs(k)))
    return cases


_P1_PRINTED = IntPolynomial.of([0, Fraction(-1, 2), Fraction(-1, 2)])
_P2_PRINTED = IntPolynomial.of(
    [0, Fraction(-1, 12), Fraction(-1, 8), Fraction(1, 12), Fraction(1, 8)]
)


def _suite_unitball(top: int) -> list[VerifyCase]:
    cases = []
    printed = {1: _P1_PRINTED, 2: _P2_PRINTED}
    for k in range(1, top + 1):
        lhs, rhs = unit_ball_lhs(k), unit_ball_rhs(k)
        cases.append(VerifyCase(f"P_{k} catalog sum", format_poly(rhs), format_poly(lhs), lhs == rhs))
        leading = Fraction((-1) ** k, 2**k * math.factorial(k))
        cases.append(_rat_case(f"P_{k} leading coefficient", leading, lhs.leading()))
        if k in printed:
            cases.append(
                VerifyCase(
                    f"P_{k} printed form",
                    format_poly(printed[k]),
                    format_poly(lhs),
                    printed[k] == lhs,
                )
            )
    return cases


def _suite_oracle() -> list[VerifyCase]:
    cases = []
    for k in range(1, 5):
        for rec in weight_records(k):
            g = rec.graph
            name = format_graph(g)
            rebuilt = (1,) + tuple(coefficient_from_linear(g, i) for i in range(1, g.n + 1))
            cases.append(_case(f"charpoly({name})", rec.charpoly, rebuilt))
            if rec.cls == CLASS_STRONG:
                cases.append(_rat_case(f"orbit sum z({name})", rec.z, z_orbit(g)))
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
            adj = rec.graph.adj
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
    cases = []
    for spec in _family_instances():
        built = build_family(spec)
        cases.append(_rat_case(_spec_label(spec), z_family(spec), z(built)))
    return cases


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
    "oracle": _fixed(_suite_oracle),
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

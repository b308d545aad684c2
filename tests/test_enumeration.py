import math

import pytest

from tyz.catalog import class_counts, weight_records
from tyz.enumeration import enumerate_stable, raw_stable_matrices
from tyz.graphs import automorphisms, canonical_key, is_stable, parse_graph


def test_one_vertex_catalogs():
    assert enumerate_stable(1, 2) == (parse_graph("2"),)
    assert enumerate_stable(1, 3) == (parse_graph("3"),)


def test_two_vertex_four_edge_catalog():
    got = {canonical_key(g) for g in enumerate_stable(2, 4)}
    want = {
        canonical_key(parse_graph(t)) for t in ("2 0;0 2", "1 1;1 1", "0 2;2 0")
    }
    assert got == want


def test_empty_parameter_ranges():
    assert enumerate_stable(0, 0) == ()
    assert enumerate_stable(1, 1) == ()
    assert enumerate_stable(2, 3) == ()
    assert enumerate_stable(3, 5) == ()


def test_weight_records_rejects_nonpositive():
    with pytest.raises(ValueError):
        weight_records(0)


def test_weight_catalog_sizes():
    assert len(weight_records(1)) == 1
    assert len(weight_records(2)) == 4
    assert len(weight_records(3)) == 15
    assert len(weight_records(4)) == 82


def test_catalog_graphs_are_stable_with_right_weight():
    for k in (1, 2, 3):
        for g in (r.graph for r in weight_records(k)):
            assert is_stable(g) and g.weight == k


def test_catalog_is_deduplicated_and_sorted():
    for k in (2, 3, 4):
        keys = [canonical_key(r.graph) for r in weight_records(k)]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))


def test_catalog_is_deterministic():
    assert weight_records(3) == weight_records(3)
    assert enumerate_stable(2, 5) == enumerate_stable(2, 5)


def test_against_unpruned_bruteforce():
    """The pruned, symmetry-reduced search must see exactly the isomorphism
    classes of the raw matrix scan, with orbit sizes n!/|stabilizer|."""
    for j, s in [(1, 2), (1, 4), (2, 4), (2, 5), (3, 6), (3, 7)]:
        raw = list(raw_stable_matrices(j, s))
        slick = enumerate_stable(j, s)
        assert {canonical_key(g) for g in raw} == {canonical_key(g) for g in slick}
        orbit_total = sum(
            math.factorial(g.n) // len(automorphisms(g)) for g in slick
        )
        assert len(raw) == orbit_total


def test_class_counts_small_weights():
    assert class_counts(1).as_tuple() == (1, 1, 1, 1)
    assert class_counts(2).as_tuple() == (4, 3, 3, 3)
    assert class_counts(3).as_tuple() == (15, 11, 10, 9)
    assert class_counts(4).as_tuple() == (82, 61, 51, 45)


def test_class_counts_rejects_nonpositive():
    with pytest.raises(ValueError):
        class_counts(0)

import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tyz import graphs, zeta
from tyz.graphs import EMPTY, canonical_key, connectivity, induced_subgraph, parse_graph
from tyz.zeta import FamilySpec, build_family, det_a_minus_i, det_int, sym_factor, z, z_family

from assembly import disjoint_union


# --- exact determinants ---


def test_det_base_cases():
    assert det_int([]) == 1
    assert det_int([[5]]) == 5
    assert det_int([[1, 2], [3, 4]]) == -2
    with pytest.raises(ValueError, match="square"):
        det_int([[1, 2]])


@pytest.mark.parametrize("entry", [0.5, Fraction(1, 2), "2"], ids=["float", "fraction", "string"])
def test_det_rejects_entries_that_are_not_integers(entry):
    with pytest.raises(TypeError):
        det_int([[entry]])


def test_det_needs_pivoting():
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[0, 2, 1], [1, 0, 0], [0, 1, 1]]) == -1


def test_det_of_identity_minus_complete():
    m = [[1 - 1, -1, -1], [-1, 0, -1], [-1, -1, 0]]
    assert det_int(m) == -2


def _det_by_cofactors(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det_by_cofactors(minor)
    return total


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_matches_cofactor_expansion(m):
    assert det_int(m) == _det_by_cofactors(m)


def test_det_a_minus_i_sign_relation():
    for text in ("2", "0 2;2 0", "1 1;1 1", "0 0 3;2 0 0;0 2 0"):
        g = parse_graph(text)
        lhs = det_a_minus_i(g)
        rhs = det_int([[g.adj[i][j] - (i == j) for j in range(g.n)] for i in range(g.n)])
        assert lhs == rhs


# --- the strongly connected formula ---


def test_z_strong_examples():
    assert z(parse_graph("2")) == Fraction(-1, 2)
    assert z(parse_graph("3")) == Fraction(-1, 3)
    assert z(parse_graph("1 1;1 1")) == Fraction(1, 2)
    assert z(parse_graph("0 2;2 0")) == Fraction(3, 8)
    assert z(parse_graph("5")) == Fraction(-1, 30)


# --- the full piecewise formula ---


def test_z_of_empty_graph_is_one():
    assert z(EMPTY) == 1
    assert type(z(EMPTY)) is Fraction


def test_z_vanishes_when_connected_but_not_strongly():
    g = parse_graph("2 1;0 2")
    assert z(g) == 0
    value = z(disjoint_union([parse_graph("0 2;2 0"), g]))
    assert value == 0 and type(value) is Fraction


def test_z_reads_one_connectivity_pass(monkeypatch):
    g = disjoint_union([parse_graph("2"), parse_graph("0 2;2 0"), parse_graph("2")])
    want = z(parse_graph("2")) ** 2 * z(parse_graph("0 2;2 0")) / 2
    calls = []
    real = zeta.connectivity

    def counting(h):
        calls.append(h)
        return real(h)

    def forbidden(*args):
        raise AssertionError("z repeats the connectivity work")

    monkeypatch.setattr(zeta, "connectivity", counting)
    monkeypatch.setattr(graphs, "is_strongly_connected", forbidden)
    assert z(g) == want == Fraction(3, 64)
    assert calls == [g]


def test_z_on_disjoint_unions():
    assert z(parse_graph("2 0;0 2")) == Fraction(1, 8)
    assert z(parse_graph("2 0;0 3")) == Fraction(1, 6)
    three = parse_graph("2 0 0;0 2 0;0 0 2")
    assert z(three) == Fraction(-1, 48)


def _components(g):
    return [induced_subgraph(g, part) for part, _ in connectivity(g)]


def test_sym_factor_counts_repeated_components():
    comps = _components(parse_graph("2 0;0 2"))
    assert sym_factor(map(canonical_key, comps)) == 2
    comps = _components(parse_graph("2 0;0 3"))
    assert sym_factor(map(canonical_key, comps)) == 1
    comps = _components(parse_graph("2 0 0;0 2 0;0 0 2"))
    assert sym_factor(map(canonical_key, comps)) == 6


def test_z_searches_each_component_once(monkeypatch):
    """One search per weak component gives its group order and its key for
    the symmetry factor: the two components isomorphic by a swap give the
    factor 2 from their own two searches, and nothing else is searched."""
    g = disjoint_union([parse_graph("0 4;2 0"), parse_graph("2"), parse_graph("0 2;4 0")])
    want = z(parse_graph("0 4;2 0")) ** 2 * z(parse_graph("2")) / 2
    calls = []
    real = zeta.symmetry

    def forbidden(*args):
        raise AssertionError("z searches outside its one search per component")

    monkeypatch.setattr(zeta, "symmetry", lambda adj: calls.append(adj) or real(adj))
    monkeypatch.setattr(graphs, "symmetry", forbidden)
    assert z(g) == want == Fraction(-49, 9216)
    assert calls == [((0, 4), (2, 0)), ((2,),), ((0, 2), (4, 0))]


def test_z_rejects_non_semistable():
    with pytest.raises(ValueError):
        z(parse_graph("0 1;1 0"))


def test_z_is_isomorphism_invariant():
    a = parse_graph("0 0 3;2 0 0;0 2 0")
    b = parse_graph("0 3 0;0 0 2;2 0 0")
    assert z(a) == z(b)


def test_z_union_product_rule():
    a, b = parse_graph("2"), parse_graph("0 2;2 0")
    assert z(disjoint_union([a, b])) == z(a) * z(b)
    assert z(disjoint_union([a, a])) == z(a) * z(a) / 2


# --- closed-form families ---


def test_doubled_cycle_values():
    assert z_family(FamilySpec("A", n=3)) == Fraction(-7, 24)
    assert z_family(FamilySpec("A", n=4)) == Fraction(15, 64)


def test_shift_plus_transpose_values():
    assert z_family(FamilySpec("B", n=6)) == 0
    assert z_family(FamilySpec("B", n=3)) == Fraction(-2, 3)
    assert z_family(FamilySpec("B", n=7)) == Fraction(-1, 14)


def test_looped_cycle_values():
    assert z_family(FamilySpec("C", n=3)) == Fraction(-1, 3)
    assert z_family(FamilySpec("C", n=4)) == Fraction(1, 4)


def test_complete_digraph_values():
    assert z_family(FamilySpec("K", n=2)) == Fraction(1, 2)
    assert z_family(FamilySpec("K", n=3)) == Fraction(-1, 3)
    assert z_family(FamilySpec("K", n=4)) == Fraction(1, 8)


def test_de_bruijn_is_constant_one_half():
    for n in (2, 3, 4):
        assert z_family(FamilySpec("D", n=n)) == Fraction(1, 2)


def test_bipartite_values_carry_parity_sign():
    assert z_family(FamilySpec("Kmn", m=2, n=2)) == Fraction(3, 8)
    assert z_family(FamilySpec("Kmn", m=2, n=3)) == Fraction(-5, 12)
    assert z_family(FamilySpec("Kmn", m=3, n=3)) == Fraction(1, 9)


def test_loop_vertex_values():
    assert z_family(FamilySpec("loops", n=2)) == Fraction(-1, 2)
    assert z_family(FamilySpec("loops", n=5)) == Fraction(-1, 30)


def test_two_vertex_closed_form():
    assert z_family(FamilySpec("twovertex", m=1, i=1, j=1, n=1)) == Fraction(1, 2)
    assert z_family(FamilySpec("twovertex", m=0, i=2, j=2, n=0)) == Fraction(3, 8)
    assert z_family(FamilySpec("twovertex", m=2, i=2, j=2, n=0)) == Fraction(5, 8)


INVALID_SPECS = (
    FamilySpec("A", n=2),
    FamilySpec("K", n=1),
    FamilySpec("Kmn", m=1, n=2),
    FamilySpec("loops", n=1),
    FamilySpec("twovertex", m=1, i=0, j=2, n=1),
    FamilySpec("nosuch", n=3),
)


def test_family_parameter_validation():
    for bad in INVALID_SPECS:
        with pytest.raises(ValueError):
            z_family(bad)


@pytest.mark.parametrize("bad", [*INVALID_SPECS, FamilySpec("D", n=0)])
def test_family_size_and_build_raise_like_z_family(bad):
    """size() and build_family check the parameters as z_family does: with
    D at n = 0, size() once gave (0.5, 1), and (2, 4) for A at n = 2."""
    with pytest.raises(ValueError) as caught:
        z_family(bad)
    for call in (bad.size, lambda: build_family(bad)):
        with pytest.raises(ValueError, match=f"^{re.escape(str(caught.value))}$"):
            call()


def test_build_family_shapes():
    assert build_family(FamilySpec("A", n=3)) == parse_graph("0 2 0;0 0 2;2 0 0")
    assert build_family(FamilySpec("C", n=3)) == parse_graph("1 1 0;0 1 1;1 0 1")
    assert build_family(FamilySpec("B", n=3)) == parse_graph("0 1 1;1 0 1;1 1 0")
    assert build_family(FamilySpec("D", n=2)) == parse_graph("1 1;1 1")
    assert build_family(FamilySpec("K", n=2)) == parse_graph("1 1;1 1")
    assert build_family(FamilySpec("Kmn", m=2, n=2)) == parse_graph(
        "0 0 1 1;0 0 1 1;1 1 0 0;1 1 0 0"
    )
    assert build_family(FamilySpec("loops", n=4)) == parse_graph("4")
    assert build_family(FamilySpec("twovertex", m=2, i=2, j=2, n=0)) == parse_graph("2 2;2 0")


def test_de_bruijn_overlap_structure():
    g = build_family(FamilySpec("D", n=3))
    assert g.n == 4 and g.edge_count == 8
    assert g.out_degrees() == (2, 2, 2, 2) and g.in_degrees() == (2, 2, 2, 2)


def test_closed_forms_match_built_graphs():
    specs = [
        FamilySpec("A", n=5),
        FamilySpec("B", n=4),
        FamilySpec("C", n=6),
        FamilySpec("K", n=3),
        FamilySpec("D", n=3),
        FamilySpec("Kmn", m=2, n=3),
        FamilySpec("loops", n=3),
        FamilySpec("twovertex", m=1, i=2, j=1, n=1),
    ]
    for spec in specs:
        assert z_family(spec) == z(build_family(spec)), spec


def test_family_size_matches_built_graph():
    from tyz.catalog import _family_instances

    for spec in _family_instances():
        g = build_family(spec)
        assert spec.size() == (g.n, g.edge_count), spec
        assert all(type(x) is int for x in spec.size()), spec

import math
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from tyz.catalog import (
    bernoulli_identity_lhs,
    unit_ball_sums,
    weight_records,
)
from tyz.eulerian import (
    arborescence_count,
    arborescences_bruteforce,
    bernoulli,
    connected_unit_ball_rhs,
    cycle_decomposition_poly,
    euler_tour_bruteforce,
    euler_tour_count,
    is_balanced,
    unit_ball_rhs,
)
from tyz.graphs import EMPTY, connectivity, parse_graph

from assembly import disjoint_union


def _at(poly, x):
    """A coefficient tuple, lowest degree first, evaluated at x by Horner."""
    total = 0
    for c in reversed(poly):
        total = total * x + c
    return total


# --- balance and spanning in-trees ---


def test_balance_examples():
    assert is_balanced(parse_graph("2"))
    assert is_balanced(parse_graph("0 2;2 0"))
    assert not is_balanced(parse_graph("0 2;1 0"))
    assert is_balanced(EMPTY)


def test_arborescence_counts():
    assert arborescence_count(parse_graph("2"), 0) == 1
    assert arborescence_count(parse_graph("0 2;2 0"), 0) == 2
    assert arborescence_count(parse_graph("1 1;1 1"), 0) == 1
    g = parse_graph("0 2;1 0")
    assert arborescence_count(g, 0) == 1
    assert arborescence_count(g, 1) == 2


def test_arborescence_bruteforce_agrees():
    for text in ("2", "0 2;2 0", "1 1;1 1", "0 2;1 0", "0 0 3;2 0 0;0 2 0"):
        g = parse_graph(text)
        for r in range(g.n):
            assert arborescence_count(g, r) == arborescences_bruteforce(g, r), (text, r)
        for count in (arborescence_count, arborescences_bruteforce):
            for r in (-1, g.n):
                with pytest.raises(ValueError, match="root out of range"):
                    count(g, r)


def test_arborescence_root_independent_when_balanced_connected():
    for k in (1, 2, 3):
        for g in (r.graph for r in weight_records(k)):
            if is_balanced(g) and len(connectivity(g)) == 1:
                counts = {arborescence_count(g, r) for r in range(g.n)}
                assert len(counts) == 1, g


# --- Euler tours ---


def test_euler_tour_examples():
    assert euler_tour_count(parse_graph("2")) == 1
    assert euler_tour_count(parse_graph("3")) == 2
    assert euler_tour_count(parse_graph("0 2;2 0")) == 2
    assert euler_tour_count(parse_graph("1 1;1 1")) == 1


def test_euler_tour_vanishes_off_domain():
    assert euler_tour_count(parse_graph("0 2;1 0")) == 0  # unbalanced
    assert euler_tour_count(parse_graph("2 0;0 2")) == 0  # disconnected
    assert euler_tour_count(EMPTY) == 0 == euler_tour_bruteforce(EMPTY)  # no first edge to fix
    # an isolated vertex, at the root 0 or away from it
    assert euler_tour_count(parse_graph("0 0;0 2")) == 0
    assert euler_tour_count(parse_graph("2 0;0 0")) == 0
    balanced = [r.graph for r in weight_records(2) if is_balanced(r.graph)]
    for g in balanced:
        for h in balanced:
            union = disjoint_union([g, h])
            assert euler_tour_count(union) == 0 == euler_tour_bruteforce(union), union


def test_euler_tour_bruteforce_matches():
    for text in ("2", "3", "0 2;2 0", "1 1;1 1", "0 0 3;2 0 0;0 2 0"):
        g = parse_graph(text)
        assert euler_tour_count(g) == euler_tour_bruteforce(g), text


def test_euler_tour_bruteforce_guardrail():
    with pytest.raises(ValueError):
        euler_tour_bruteforce(parse_graph("13"))


def test_tours_exhaustive_small_weights():
    for k in (1, 2, 3, 4):
        for g in (r.graph for r in weight_records(k)):
            if g.edge_count <= 12:
                assert euler_tour_count(g) == euler_tour_bruteforce(g), g


# --- cycle decompositions ---


def test_decomposition_poly_examples():
    assert cycle_decomposition_poly(parse_graph("2")) == (0, 1, 1)
    assert cycle_decomposition_poly(parse_graph("3")) == (0, 2, 3, 1)
    assert cycle_decomposition_poly(parse_graph("0 1;1 0")) == (0, 1)
    assert cycle_decomposition_poly(parse_graph("0 2;1 0")) == ()
    assert cycle_decomposition_poly(EMPTY)== (1,)
    assert cycle_decomposition_poly(parse_graph("2 0;0 2")) == (0, 0, 1, 2, 1)
    assert cycle_decomposition_poly(parse_graph("1 1;1 1")) == (0, 1, 2, 1)
    assert cycle_decomposition_poly(parse_graph("1 1 0;0 1 1;1 0 1")) == (0, 1, 3, 3, 1)


def _transition_systems_poly(g):
    """Oracle: every transition system of g, one bijection from in-edges to
    out-edges per vertex, loops included, with its trails counted as the
    cycles of the successor permutation on the edges."""
    if not is_balanced(g):
        return ()
    edges = [(u, v) for u, row in enumerate(g.adj) for v, m in enumerate(row) for _ in range(m)]
    ins, outs = {}, {}
    for idx, (u, v) in enumerate(edges):
        outs.setdefault(u, []).append(idx)
        ins.setdefault(v, []).append(idx)
    verts = sorted(ins)
    counts = [0] * (len(edges) + 1)
    for choice in product(*(permutations(outs[v]) for v in verts)):
        succ = [0] * len(edges)
        for v, image in zip(verts, choice):
            for e, s in zip(ins[v], image):
                succ[e] = s
        cycles = 0
        visited = [False] * len(edges)
        for e in range(len(edges)):
            if not visited[e]:
                cycles += 1
                while not visited[e]:
                    visited[e] = True
                    e = succ[e]
        counts[cycles] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def test_decomposition_poly_equals_every_transition_system():
    """The loop and component rules against the plain enumeration, on every
    balanced stable graph of weight <= 5 and on hand cases with loops on
    several vertices and with several components."""
    graphs = [r.graph for k in range(1, 6) for r in weight_records(k) if is_balanced(r.graph)]
    assert len(graphs) == 274
    hand = ["3", "2 0;0 2", "1 1;1 1", "1 1 0;0 1 1;1 0 1", "0 1 0 0;1 0 0 0;0 0 2 1;0 0 1 1"]
    graphs += [parse_graph(text) for text in hand]
    for g in graphs:
        assert cycle_decomposition_poly(g) == _transition_systems_poly(g), g


def test_decomposition_poly_at_one_counts_transition_systems():
    for k in (1, 2, 3):
        for g in (r.graph for r in weight_records(k)):
            if is_balanced(g):
                want = math.prod(math.factorial(d) for d in g.out_degrees())
                assert _at(cycle_decomposition_poly(g), 1) == want, g


def test_decomposition_linear_coefficient_is_tour_count():
    """A decomposition with exactly one trail is an Euler tour up to rotation."""
    for k in (1, 2, 3):
        for g in (r.graph for r in weight_records(k)):
            if is_balanced(g) and len(connectivity(g)) == 1:
                poly = cycle_decomposition_poly(g)
                assert poly[1] == euler_tour_count(g), g


def test_decomposition_degree_is_max_cycle_packing():
    assert len(cycle_decomposition_poly(parse_graph("2"))) - 1 == 2
    assert len(cycle_decomposition_poly(parse_graph("1 1;1 1"))) - 1 == 3
    assert len(cycle_decomposition_poly(parse_graph("0 2;2 0"))) - 1 == 2


# --- Bernoulli numbers ---


def test_bernoulli_values():
    want = [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42)]
    assert [bernoulli(k) for k in range(7)] == want
    with pytest.raises(ValueError, match="k >= 0"):
        bernoulli(-1)


def test_tour_weighted_sums_hit_bernoulli_targets():
    targets = {1: Fraction(-1, 2), 2: Fraction(-1, 12), 3: Fraction(0), 4: Fraction(1, 120)}
    for k, want in targets.items():
        assert bernoulli_identity_lhs(k) == want
        assert want == (-1) ** (k + 1) * bernoulli(k) / k


def test_tour_sum_weight_bounds():
    with pytest.raises(ValueError):
        bernoulli_identity_lhs(0)
    with pytest.raises(ValueError):
        bernoulli_identity_lhs(8)


# --- unit-ball polynomials ---


def test_rhs_interpolation_matches_symmetric_functions():
    # (-1)^k e_k(1..N) at small N, computed directly
    assert _at(unit_ball_rhs(1), 1) == -1
    assert _at(unit_ball_rhs(1), 3) == -6
    assert _at(unit_ball_rhs(2), 1) == 0
    assert _at(unit_ball_rhs(2), 2) == 2
    assert _at(unit_ball_rhs(2), 3) == 11
    assert _at(unit_ball_rhs(1), 0) == 0
    # past the 2k + 1 interpolation points too
    for k in range(1, 6):
        rhs = unit_ball_rhs(k)
        assert len(rhs) - 1 == 2 * k
        for bound in range(3 * k + 1):
            e_k = sum(math.prod(c) for c in combinations(range(1, bound + 1), k))
            assert _at(rhs, bound) == (-1) ** k * e_k, (k, bound)


def test_connected_rhs_is_minus_a_power_sum_over_k():
    for k in range(1, 8):
        rhs = connected_unit_ball_rhs(k)
        assert len(rhs) - 1 == k + 1
        for bound in range(7):
            want = Fraction(-sum(i**k for i in range(1, bound + 1)), k)
            assert _at(rhs, bound) == want, (k, bound)
    # its N^1 coefficient is the Bernoulli identity's target
    for k in range(1, 8):
        assert connected_unit_ball_rhs(k)[1] == (-1) ** (k + 1) * bernoulli(k) / k


def test_printed_low_weight_polynomials():
    assert unit_ball_sums(1)[0] == (0, Fraction(-1, 2), Fraction(-1, 2))
    assert unit_ball_sums(2)[0] == (
        0,
        Fraction(-1, 12),
        Fraction(-1, 8),
        Fraction(1, 12),
        Fraction(1, 8),
    )


def test_identity_holds_up_to_weight_four():
    for k in (1, 2, 3, 4):
        lhs, connected = unit_ball_sums(k)
        assert lhs == unit_ball_rhs(k), k
        assert connected == connected_unit_ball_rhs(k), k
        assert len(lhs) - 1 == 2 * k
        assert lhs[-1] == Fraction((-1) ** k, 2**k * math.factorial(k))


def test_identity_holds_at_weight_five():
    lhs, connected = unit_ball_sums(5)
    assert lhs == unit_ball_rhs(5)
    assert connected == connected_unit_ball_rhs(5)
    assert len(lhs) - 1 == 10
    assert lhs[-1] == Fraction(-1, 3840)


def test_identity_weight_bounds():
    with pytest.raises(ValueError):
        unit_ball_sums(0)
    with pytest.raises(ValueError):
        unit_ball_sums(8)


def test_rhs_domains():
    """P_k is defined from k = 0, where it is the empty product 1; a
    negative k is an error, not the zero polynomial."""
    assert unit_ball_rhs(0) == (1,)
    with pytest.raises(ValueError):
        unit_ball_rhs(-1)


def test_connected_rhs_domain():
    """-S_k(N)/k divides by k, so it starts at k = 1."""
    for k in (0, -1):
        with pytest.raises(ValueError):
            connected_unit_ball_rhs(k)

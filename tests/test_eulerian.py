import math
from fractions import Fraction

import pytest

from tyz.catalog import (
    bernoulli_identity_lhs,
    unit_ball_identity,
    unit_ball_lhs,
    weight_records,
)
from tyz.eulerian import (
    ZERO_POLY,
    IntPolynomial,
    arborescence_count,
    arborescences_bruteforce,
    bernoulli,
    cycle_decomposition_poly,
    euler_tour_bruteforce,
    euler_tour_count,
    is_balanced,
    unit_ball_rhs,
)
from tyz.graphs import EMPTY, parse_graph, weak_components


# --- polynomial helper ---


def test_polynomial_construction_trims_zeros():
    p = IntPolynomial.of([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert IntPolynomial.of([0, 0]) == ZERO_POLY
    assert ZERO_POLY.degree == -1


def test_polynomial_arithmetic():
    p = IntPolynomial.of([1, 1])  # 1 + N
    q = IntPolynomial.of([0, 1])  # N
    assert (p + q).coeffs == (1, 2)
    assert (p * q).coeffs == (0, 1, 1)
    assert p(3) == 4 and (p * q)(3) == 12
    assert p.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2), Fraction(1, 2))
    assert q.leading() == 1 and p.coefficient(0) == 1 and p.coefficient(5) == 0


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


def test_arborescence_root_independent_when_balanced_connected():
    for k in (1, 2, 3):
        for g in (r.graph for r in weight_records(k)):
            if is_balanced(g) and len(weak_components(g)) == 1:
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
    assert euler_tour_count(EMPTY) == 0  # no first edge to fix


def test_euler_tour_bruteforce_matches():
    for text in ("2", "3", "0 2;2 0", "1 1;1 1", "0 0 3;2 0 0;0 2 0"):
        g = parse_graph(text)
        assert euler_tour_count(g) == euler_tour_bruteforce(g), text


def test_euler_tour_bruteforce_guardrail():
    with pytest.raises(ValueError):
        euler_tour_bruteforce(parse_graph("13"))


def test_tours_exhaustive_small_weights():
    for k in (1, 2, 3):
        for g in (r.graph for r in weight_records(k)):
            if g.edge_count <= 12:
                assert euler_tour_count(g) == euler_tour_bruteforce(g), g


# --- cycle decompositions ---


def test_decomposition_poly_examples():
    assert cycle_decomposition_poly(parse_graph("2")).coeffs == (0, 1, 1)
    assert cycle_decomposition_poly(parse_graph("3")).coeffs == (0, 2, 3, 1)
    assert cycle_decomposition_poly(parse_graph("0 1;1 0")).coeffs == (0, 1)
    assert cycle_decomposition_poly(parse_graph("0 2;1 0")) == ZERO_POLY
    assert cycle_decomposition_poly(EMPTY).coeffs == (1,)


def test_decomposition_poly_at_one_counts_transition_systems():
    for k in (1, 2, 3):
        for g in (r.graph for r in weight_records(k)):
            if is_balanced(g):
                want = math.prod(math.factorial(d) for d in g.out_degrees())
                assert cycle_decomposition_poly(g)(1) == want, g


def test_decomposition_linear_coefficient_is_tour_count():
    """A decomposition with exactly one trail is an Euler tour up to rotation."""
    for k in (1, 2, 3):
        for g in (r.graph for r in weight_records(k)):
            if is_balanced(g) and len(weak_components(g)) == 1:
                poly = cycle_decomposition_poly(g)
                assert poly.coefficient(1) == euler_tour_count(g), g


def test_decomposition_degree_is_max_cycle_packing():
    assert cycle_decomposition_poly(parse_graph("2")).degree == 2
    assert cycle_decomposition_poly(parse_graph("1 1;1 1")).degree == 3
    assert cycle_decomposition_poly(parse_graph("0 2;2 0")).degree == 2


# --- Bernoulli numbers ---


def test_bernoulli_values():
    want = [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42)]
    assert [bernoulli(k) for k in range(7)] == want


def test_tour_weighted_sums_hit_bernoulli_targets():
    targets = {1: Fraction(-1, 2), 2: Fraction(-1, 12), 3: Fraction(0), 4: Fraction(1, 120)}
    for k, want in targets.items():
        assert bernoulli_identity_lhs(k) == want
        assert want == (-1) ** (k + 1) * bernoulli(k) / k


def test_tour_sum_weight_bounds():
    with pytest.raises(ValueError):
        bernoulli_identity_lhs(0)
    with pytest.raises(ValueError):
        bernoulli_identity_lhs(6)


# --- unit-ball polynomials ---


def test_rhs_interpolation_matches_symmetric_functions():
    # (-1)^k e_k(1..N) at small N, computed directly
    assert unit_ball_rhs(1)(1) == -1
    assert unit_ball_rhs(1)(3) == -6
    assert unit_ball_rhs(2)(1) == 0
    assert unit_ball_rhs(2)(2) == 2
    assert unit_ball_rhs(2)(3) == 11
    assert unit_ball_rhs(1)(0) == 0


def test_printed_low_weight_polynomials():
    assert unit_ball_lhs(1).coeffs == (0, Fraction(-1, 2), Fraction(-1, 2))
    assert unit_ball_lhs(2).coeffs == (
        0,
        Fraction(-1, 12),
        Fraction(-1, 8),
        Fraction(1, 12),
        Fraction(1, 8),
    )


def test_identity_holds_up_to_weight_four():
    for k in (1, 2, 3, 4):
        check = unit_ball_identity(k)
        assert check.equal, k
        assert check.lhs.degree == 2 * k
        assert check.lhs.leading() == Fraction((-1) ** k, 2**k * math.factorial(k))


def test_identity_holds_at_weight_five():
    check = unit_ball_identity(5)
    assert check.equal
    assert check.lhs.degree == 10
    assert check.lhs.leading() == Fraction(-1, 3840)


def test_identity_weight_bounds():
    with pytest.raises(ValueError):
        unit_ball_lhs(0)
    with pytest.raises(ValueError):
        unit_ball_lhs(6)

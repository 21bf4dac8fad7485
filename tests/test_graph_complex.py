import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import fraction_rank, multigraph_basis
from tropica.errors import ArgumentError
from tropica.graph_complex import (_rank, basis, differential,
                                   differential_matrix, homology_dimension,
                                   normalize, wheel_class, wheel_graph)
from tropica.graphs import (Multigraph, canonical_form, contract_edge,
                            parse_graph, serialize)

K4 = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
THETA = Multigraph(2, [(0, 1), (0, 1), (0, 1)])
CATERPILLAR = Multigraph(4, [(0, 2), (0, 1), (0, 1), (1, 3), (2, 3), (2, 3)])


def perm_sign(perm):
    sign = 1
    items = list(perm)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def test_normalize_reference_order():
    key, sign = normalize(K4, (0, 1, 2, 3, 4, 5))
    assert key == serialize(canonical_form(K4)[0])
    assert sign == 1
    swapped_key, swapped_sign = normalize(K4, (1, 0, 2, 3, 4, 5))
    assert swapped_key == key
    assert swapped_sign == -1
    # reversing six edges is an odd permutation
    assert normalize(K4, (5, 4, 3, 2, 1, 0)) == (key, -1)


def test_normalize_is_isomorphism_invariant():
    rng = random.Random(2026)
    for graph in (K4, wheel_graph(5)):
        n = graph.num_edges
        base = normalize(graph, tuple(range(n)))
        assert abs(base[1]) == 1
        for _ in range(100):
            relabel = list(range(graph.num_vertices))
            rng.shuffle(relabel)
            order = list(range(n))
            rng.shuffle(order)
            # same edge list positions, so the ordered generator is the same
            assert (normalize(graph.relabeled(relabel), order)
                    == normalize(graph, order))
            key, sign = normalize(graph, order)
            assert key == base[0]
            assert sign == base[1] * perm_sign(order)


def test_normalize_idempotent_on_canonical_keys():
    for graph in (K4, wheel_graph(5)):
        key, _ = normalize(graph, tuple(range(graph.num_edges)))
        back = parse_graph(key)
        assert normalize(back, tuple(range(back.num_edges))) == (key, 1)


def test_parallel_pair_normalizes_to_zero():
    order = (0, 1, 2, 3, 4, 5)
    # swapping the two copies of a parallel edge flips nothing visible,
    # so the generator must be its own negative
    swapped = (0, 2, 1, 3, 4, 5)
    key, sign = normalize(CATERPILLAR, order)
    assert sign == 0
    assert normalize(CATERPILLAR, swapped) == (key, 0)
    assert normalize(THETA, (0, 1, 2))[1] == 0


def test_even_wheel_normalizes_to_zero():
    graph = wheel_graph(4)
    assert normalize(graph, tuple(range(8)))[1] == 0


def test_normalize_rejects_bad_input():
    with pytest.raises(ArgumentError):
        normalize(Multigraph(2, [(0, 0), (0, 1), (0, 1), (1, 1)]), (0, 1, 2, 3))
    with pytest.raises(ArgumentError):
        # subdividing one edge leaves a valence-2 vertex
        normalize(Multigraph(3, [(0, 1), (0, 1), (0, 2), (1, 2)]),
                  (0, 1, 2, 3))
    with pytest.raises(ArgumentError):
        two_pieces = Multigraph(8, K4.edges + tuple(
            (u + 4, v + 4) for u, v in K4.edges))
        normalize(two_pieces, tuple(range(12)))
    with pytest.raises(ArgumentError):
        normalize(K4, (0, 1, 2, 3, 4))
    with pytest.raises(ArgumentError):
        normalize(K4, (0, 1, 2, 3, 4, 4))
    with pytest.raises(ArgumentError):
        normalize(Multigraph(4, K4.edges, legs=[(0, 1)]),
                  tuple(range(6)))
    with pytest.raises(ArgumentError):
        normalize(Multigraph(4, K4.edges, genus=[1, 0, 0, 0]),
                  tuple(range(6)))


def test_wheel_class_values():
    assert wheel_class(2) == {}
    three = wheel_class(3)
    assert list(three.values()) in ([1], [-1])
    assert list(three) == basis(3, 6)
    assert wheel_class(4) == {}
    five = wheel_class(5)
    assert len(five) == 1
    assert parse_graph(next(iter(five))).num_edges == 10
    with pytest.raises(ArgumentError):
        wheel_class(1)


def test_differential_of_odd_wheels_vanishes():
    # every contraction of a wheel creates a parallel pair
    assert differential(wheel_class(3)) == {}
    assert differential(wheel_class(5)) == {}


def test_theta_differential_matches_hand_contraction():
    for index in range(3):
        contracted = contract_edge(THETA, index)
        assert any(u == v for u, v in contracted.edges)
    chain = {serialize(canonical_form(THETA)[0]): 1}
    assert differential(chain) == {}


def test_differential_rejects_mixed_degrees():
    k4_key, _ = normalize(K4, tuple(range(6)))
    theta_key = serialize(canonical_form(THETA)[0])
    with pytest.raises(ArgumentError):
        differential({k4_key: 1, theta_key: 1})


def test_differential_is_linear():
    k4_key, _ = normalize(K4, tuple(range(6)))
    cat_key = serialize(canonical_form(CATERPILLAR)[0])
    combo = {k4_key: Fraction(2, 3), cat_key: -5}
    expected = Counter()
    for key, coeff in combo.items():
        for image_key, unit in differential({key: 1}).items():
            expected[image_key] += coeff * unit
    assert differential(combo) == {k: v for k, v in expected.items() if v}


def test_basis_small_genus():
    # genus 2 is wiped out: every candidate carries a parallel pair
    for n in range(2, 5):
        assert basis(2, n) == []
    assert basis(3, 5) == []
    assert basis(3, 6) == [normalize(K4, tuple(range(6)))[0]]
    assert basis(3, 7) == []
    # genus 4 dies to odd symmetries: K33 and the prism both have an
    # automorphism inducing three edge transpositions
    for n in range(5, 10):
        assert basis(4, n) == []
    with pytest.raises(ArgumentError):
        basis(1, 3)


def test_simple_graph_basis_matches_all_multigraphs():
    # a parallel pair makes a generator zero, so skipping multigraphs
    # loses nothing
    for g in (2, 3, 4):
        for n in range(g + 1, 3 * g - 2):
            assert basis(g, n) == multigraph_basis(g, n), (g, n)
    for n in range(6, 12):
        assert basis(5, n) == multigraph_basis(5, n), (5, n)


def test_wheel_five_nonzero_in_homology():
    key = next(iter(wheel_class(5)))
    assert len(basis(5, 10)) == 2
    assert key in basis(5, 10)
    assert len(basis(5, 11)) == 1
    assert homology_dimension(5, 10) == 1


def test_rank_matches_fraction_elimination():
    rng = random.Random(20261019)
    for shape in [(1, 1), (1, 7), (7, 1), (3, 9), (9, 3), (6, 6), (12, 5),
                  (5, 12)]:
        for _ in range(25):
            rows, cols = shape
            entries = {}
            for r in range(rows):
                roll = rng.random()
                if roll < 0.15:
                    continue  # a zero row
                if roll < 0.35 and r >= 2:
                    # an integer combination of two earlier rows
                    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                    for c in range(cols):
                        value = (a * entries.get((r - 1, c), 0)
                                 + b * entries.get((r - 2, c), 0))
                        if value:
                            entries[(r, c)] = value
                    continue
                for c in range(cols):
                    if rng.random() < 0.5:
                        entries[(r, c)] = rng.randint(-4, 4) or 1
            assert _rank(entries, rows, cols) \
                == fraction_rank(entries, rows, cols), (shape, entries)
    assert _rank({}, 3, 4) == 0


def test_homology_dimensions():
    assert homology_dimension(3, 6) == 1
    assert homology_dimension(3, 5) == 0
    assert homology_dimension(3, 7) == 0
    assert homology_dimension(2, 4) == 0
    assert homology_dimension(2, 3) == 0
    assert homology_dimension(4, 8) == 0
    with pytest.raises(ArgumentError):
        homology_dimension(1, 3)


def test_wheel_three_nonzero_in_homology():
    key = next(iter(wheel_class(3)))
    assert basis(3, 6) == [key]
    assert differential(wheel_class(3)) == {}
    domain, codomain, entries = differential_matrix(3, 7)
    assert domain == [] and codomain == [key] and entries == {}
    assert homology_dimension(3, 6) == 1


def test_differential_matrix_consistency():
    for g in (3, 4):
        for n in range(g + 1, 3 * g - 2):
            domain, codomain, entries = differential_matrix(g, n)
            assert domain == basis(g, n)
            assert codomain == basis(g, n - 1)
            index = {key: r for r, key in enumerate(codomain)}
            for col, key in enumerate(domain):
                image = differential({key: 1})
                column = {(index[k], col): coeff
                          for k, coeff in image.items()}
                assert {rc: v for rc, v in entries.items() if rc[1] == col} \
                    == column


def test_boundary_squared_vanishes():
    for g in (2, 3, 4):
        for n in range(g + 1, 3 * g - 2):
            for key in basis(g, n):
                assert differential(differential({key: 1})) == {}
    # keys of zero generators still contract consistently
    for graph in (THETA, CATERPILLAR, wheel_graph(4), wheel_graph(5)):
        key = serialize(canonical_form(graph)[0])
        assert differential(differential({key: 1})) == {}
    rng = random.Random(93)
    for _ in range(50):
        terms = {}
        for n in (6, 7):
            for key in basis(3, n):
                terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        chain = {key: coeff for key, coeff in terms.items() if coeff}
        assert differential(differential(chain)) == {}

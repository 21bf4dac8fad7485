"""Tests for tropical covers of an elliptic curve."""

import gc
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from tropica.elliptic_covers import (FeynmanGraph, _assignments,
                                     count_labeled_covers,
                                     enumerate_elliptic_covers,
                                     enumerate_feynman_graphs,
                                     labeled_aggregate,
                                     labeled_cover_assignments, labeled_table,
                                     order_orbits, simple_hurwitz_tropical,
                                     trivalent_classes)
from tropica import guards
from tropica.errors import ArgumentError, SizeGuardError
from tropica.graphs import Multigraph, automorphism_group_order
from tropica.sym_oracle import hurwitz_elliptic
from tropica.util import compositions_of, slot_of

from helpers import (loop_graphs_admit_no_cover, naive_edge_data,
                     reflected_cover, validate_elliptic_cover)

THETA = Multigraph(2, [(0, 1), (0, 1), (0, 1)])
CATERPILLAR = Multigraph(4, [(0, 2), (0, 1), (0, 1), (1, 3), (2, 3), (2, 3)])


def test_no_degree_one_covers():
    # a 3-valent vertex cannot balance with local degree 1
    assert enumerate_elliptic_covers(1, 2) == []
    assert enumerate_elliptic_covers(1, 3) == []
    assert simple_hurwitz_tropical(1, 2) == 0


def test_degree_two_genus_two():
    covers = enumerate_elliptic_covers(2, 2)
    assert [c.edges for c in covers] == [
        ((0, 1, 1, 0), (0, 1, 1, 0), (1, 0, 2, 1)),
        ((0, 1, 2, 0), (1, 0, 1, 1), (1, 0, 1, 1)),
    ]
    assert [c.multiplicity() for c in covers] == [1, 1]
    assert simple_hurwitz_tropical(2, 2) == 2


def test_degree_four_genus_two_classes():
    covers = enumerate_elliptic_covers(4, 2)
    assert len(covers) == 12
    multiset = sorted(c.multiplicity() for c in covers)
    assert multiset == [1, 1, 1, 1, 2, 2, 6, 6, 8, 8, 12, 12]
    assert sum(multiset) == 60
    # the two wiener-halved pairs: uncurled wiener with a doubly
    # wrapping weight-2 edge, and curled wiener with a single wrap
    ones = sorted(c.edges for c in covers if c.multiplicity() == 1)
    assert ones == [
        ((0, 1, 1, 0), (0, 1, 1, 0), (1, 0, 2, 2)),
        ((0, 1, 1, 1), (0, 1, 1, 1), (1, 0, 2, 1)),
        ((0, 1, 2, 0), (1, 0, 1, 2), (1, 0, 1, 2)),
        ((0, 1, 2, 1), (1, 0, 1, 1), (1, 0, 1, 1)),
    ]
    assert simple_hurwitz_tropical(4, 2) == 60


def test_totals_match_oracle():
    expected = {(2, 2): 2, (3, 2): 16, (4, 2): 60,
                (2, 3): 2, (3, 3): 160, (4, 3): 2448}
    for (d, g), value in expected.items():
        assert simple_hurwitz_tropical(d, g) == value
        assert hurwitz_elliptic(d, g) == value


@pytest.mark.slow
def test_degree_five_totals():
    assert simple_hurwitz_tropical(5, 2) == 160 == hurwitz_elliptic(5, 2)
    assert simple_hurwitz_tropical(5, 3) == 18304 == hurwitz_elliptic(5, 3)


def test_forced_degree_six():
    # the guard sits in the CLI, and admits (6, 2): 2 vertex orders times
    # C(9, 3) compositions; (5, 4) is its refused example
    assert guards.elliptic(6, 2) == 168
    with pytest.raises(SizeGuardError, match="about 1441440 steps"):
        guards.elliptic(5, 4)
    assert simple_hurwitz_tropical(6, 2) == 360


def test_labeled_caterpillar_instance():
    shape = FeynmanGraph(CATERPILLAR)
    order = (0, 2, 3, 1)
    multidegree = (0, 1, 1, 0, 0, 2)
    weight_rows = sorted(tuple(w for w, _, _ in data)
                         for data in labeled_cover_assignments(
                             shape, order, multidegree))
    assert weight_rows == [(2, 1, 1, 2, 1, 1), (2, 1, 1, 2, 3, 1),
                           (2, 1, 1, 2, 4, 2)]
    # 2*1*1*2*3*1 = 12 comes from the middle assignment
    assert count_labeled_covers(shape, order, multidegree) == 4 + 12 + 32


def test_labeled_zero_multidegree():
    shape = FeynmanGraph(THETA)
    assert count_labeled_covers(shape, (0, 1), (0, 0, 0)) == 0


def test_labeled_argument_errors():
    shape = FeynmanGraph(THETA)
    with pytest.raises(ArgumentError):
        list(labeled_cover_assignments(shape, (0, 0), (1, 1, 0)))
    with pytest.raises(ArgumentError):
        list(labeled_cover_assignments(shape, (0, 1), (1, 1)))
    with pytest.raises(ArgumentError):
        list(labeled_cover_assignments(shape, (0, 1), (2, -1, 1)))


def test_labeled_aggregate_theta():
    rows = labeled_aggregate(2, 2)
    assert len(rows) == 1
    shape, aut, total = rows[0]
    assert (aut, total) == (12, 24)
    assert Fraction(total, aut) == 2
    rows = labeled_aggregate(4, 2)
    assert [(aut, total) for _, aut, total in rows] == [(12, 720)]


def test_routes_agree():
    for d, g in ((3, 2), (4, 2), (3, 3)):
        covers = enumerate_elliptic_covers(d, g)
        direct = sum((c.multiplicity() for c in covers), Fraction(0))
        via_labels = sum(Fraction(total, aut)
                         for _, aut, total in labeled_aggregate(d, g))
        assert direct == via_labels


def test_feynman_shape_enumeration():
    assert len(enumerate_feynman_graphs(2)) == 1
    theta = enumerate_feynman_graphs(2)[0]
    assert (theta.num_vertices, theta.num_edges, theta.genus) == (2, 3, 2)
    assert len(enumerate_feynman_graphs(3)) == 2
    assert all(s.genus == 3 for s in enumerate_feynman_graphs(3))
    with_loops = trivalent_classes(2, allow_loops=True)
    assert len(with_loops) == 2
    assert len(trivalent_classes(3, allow_loops=True)) == 5


def test_feynman_shape_validation():
    with pytest.raises(ArgumentError):
        FeynmanGraph(Multigraph(2, [(0, 0), (0, 1), (1, 1)]))  # loops
    with pytest.raises(ArgumentError):
        FeynmanGraph(Multigraph(2, [(0, 1), (0, 1)]))  # 2-valent
    with pytest.raises(ArgumentError):
        FeynmanGraph(Multigraph(1, [], legs=[(0, 1), (0, 2), (0, 3)]))
    with pytest.raises(ArgumentError):
        trivalent_classes(1)


def test_enumerated_covers_validate():
    for d, g in ((2, 2), (3, 2), (4, 2), (3, 3)):
        covers = enumerate_elliptic_covers(d, g)
        keys = [c.edges for c in covers]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        for cover in covers:
            validate_elliptic_cover(cover)
            assert cover.degree == d
            assert cover.genus == g
            assert 0 < cover.multiplicity() <= cover.weight_product()


def test_reflection_symmetry():
    # two marked positions: the mirror axis fixes every class
    for cover in enumerate_elliptic_covers(4, 2):
        assert reflected_cover(cover).edges == cover.edges
    # four positions: a genuine involution preserving multiplicities
    covers = enumerate_elliptic_covers(3, 3)
    keys = {c.edges for c in covers}
    moved = 0
    for cover in covers:
        mirror = reflected_cover(cover)
        validate_elliptic_cover(mirror)
        assert mirror.edges in keys
        assert mirror.multiplicity() == cover.multiplicity()
        assert reflected_cover(mirror).edges == cover.edges
        moved += mirror.edges != cover.edges
    assert moved == 6


def test_equal_multiplicity_pairing():
    # mirror-image pictures: every multiplicity occurs an even number
    # of times even where reflected_cover fixes each class
    for d in (2, 3, 4):
        counts = {}
        for cover in enumerate_elliptic_covers(d, 2):
            m = cover.multiplicity()
            counts[m] = counts.get(m, 0) + 1
        assert all(c % 2 == 0 for c in counts.values())


def test_loop_shapes_admit_no_cover():
    for d, g in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3)):
        assert loop_graphs_admit_no_cover(d, g)


def test_assignment_properties():
    rng = random.Random(411)
    shapes = [FeynmanGraph(THETA), FeynmanGraph(CATERPILLAR)]
    for _ in range(40):
        shape = rng.choice(shapes)
        n = shape.num_vertices
        order = tuple(rng.sample(range(n), n))
        slot_of = [0] * n
        for slot, vertex in enumerate(order):
            slot_of[vertex] = slot
        multidegree = tuple(rng.randrange(3) for _ in shape.graph.edges)
        degree = sum(multidegree)
        if degree == 0:
            continue
        for data in labeled_cover_assignments(shape, order, multidegree):
            out_sum = [0] * n
            in_sum = [0] * n
            for (u, v), (w, t, tail) in zip(shape.graph.edges, data):
                assert tail in (u, v)
                head = v if tail == u else u
                assert w >= 1 and t >= 0
                if t == 0:
                    assert slot_of[tail] < slot_of[head]
                out_sum[tail] += w
                in_sum[head] += w
            assert out_sum == in_sum
            assert sum(w * t for w, t, _ in data) == degree
            for a, (w, t, _) in zip(multidegree, data):
                assert w * t == a


@pytest.mark.parametrize("degree, genus",
                         [(d, 2) for d in range(2, 6)]
                         + [(d, 3) for d in range(2, 6)])
def test_labeled_table_matches_per_multidegree_counts(degree, genus):
    # the bucketed sweep against one count_labeled_covers search per
    # composition, row for row and in the same order
    table = labeled_table(degree, genus)
    assert [shape for shape, _, _ in table] == enumerate_feynman_graphs(genus)
    for shape, aut, orders in table:
        assert aut == automorphism_group_order(shape.graph)
        assert [order for order, _ in orders] == list(
            itertools.permutations(range(shape.num_vertices)))
        for order, counts in orders:
            expected = [(a, count_labeled_covers(shape, order, a))
                        for a in compositions_of(degree, shape.num_edges)]
            assert counts == [(a, n) for a, n in expected if n]


def _buckets(edges, order, degree):
    buckets = Counter()
    for data in _assignments(edges, slot_of(order), degree):
        buckets[tuple(w * t for w, t, _ in data)] += math.prod(
            w for w, _, _ in data)
    return buckets


def test_order_orbits_transport_buckets():
    # a relabelled double-edge shape whose parallel edges are apart in
    # the edge list: every order lies in exactly one orbit, the orbit's
    # first order represents it, and its buckets moved through pi are
    # those of a direct sweep on each member
    graph = Multigraph(4, [(0, 2), (1, 3), (0, 1), (2, 3), (0, 1), (2, 3)])
    orbits = order_orbits(graph)
    members = [order for orbit in orbits.values() for order, _ in orbit]
    assert sorted(members) == list(itertools.permutations(range(4)))
    assert len(orbits) == 6
    for rep, orbit in orbits.items():
        assert len(orbit) == 4 and rep == min(order for order, _ in orbit)
    for degree in range(1, 6):
        for rep, orbit in orbits.items():
            swept = _buckets(graph.edges, rep, degree)
            for order, pi in orbit:
                assert sorted(pi) == list(range(6))
                moved = Counter()
                for a, count in swept.items():
                    a_moved = [0] * 6
                    for k, ak in enumerate(a):
                        a_moved[pi[k]] = ak
                    moved[tuple(a_moved)] = count
                assert moved == _buckets(graph.edges, order, degree), \
                    (degree, order)


def test_sweeps_leave_no_garbage():
    # the recursive search closures must not outlive the sweep
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        table = labeled_table(3, 3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert len(table) == 2


@pytest.mark.parametrize("genus", [2, 3])
def test_assignments_match_brute_force(genus):
    # every 3-valent shape, loops included, and every vertex order; the
    # reordered caterpillar closes vertices 0 and 1 with one edge while
    # 2 and 3 are still open
    shapes = [m.edges for m in trivalent_classes(genus, allow_loops=True)]
    if genus == 3:
        shapes.append(((0, 2), (1, 3), (0, 1), (0, 1), (2, 3), (2, 3)))
    for edges in shapes:
        for order in itertools.permutations(range(2 * genus - 2)):
            slots = slot_of(order)
            problems = [(d, None) for d in range(1, 5)]
            problems += [(d, a) for d in range(1, 4)
                         for a in compositions_of(d, len(edges))]
            for d, a in problems:
                found = [tuple(data)
                         for data in _assignments(edges, slots, d, a)]
                assert len(found) == len(set(found))
                assert set(found) == naive_edge_data(edges, slots, d, a), \
                    (edges, order, d, a)


def test_argument_errors():
    with pytest.raises(ArgumentError):
        enumerate_elliptic_covers(0, 2)
    with pytest.raises(ArgumentError):
        enumerate_elliptic_covers(3, 1)
    with pytest.raises(ArgumentError):
        simple_hurwitz_tropical(-1, 2)
    with pytest.raises(ArgumentError):
        loop_graphs_admit_no_cover(2, 0)

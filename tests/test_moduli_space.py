from collections import Counter

import pytest

from helpers import naive_poset, unpruned_type_keys
from tropica import graphs, guards
from tropica.errors import ArgumentError, SizeGuardError
from tropica.graphs import Multigraph, canonical_key
from tropica.moduli_space import (CombinatorialType, build_poset,
                                  enumerate_types, folding_flags, is_folded,
                                  max_dimension, vertex_stable)


def dims(types):
    return Counter(t.dimension for t in types)


def test_rational_four_marked_types():
    types = enumerate_types(0, 4)
    assert len(types) == 4
    assert dims(types) == {0: 1, 1: 3}
    # the three rays are the leg splittings 12|34, 13|24, 14|23
    rays = [t for t in types if t.dimension == 1]
    splits = set()
    for t in rays:
        first = tuple(sorted(label for v, label in t.graph.legs if v == 0))
        splits.add(first)
    assert len(splits) == 3


def test_genus_one_two_marked_types():
    types = enumerate_types(1, 2)
    assert len(types) == 5
    assert dims(types) == {0: 1, 1: 2, 2: 2}
    # genus decorations keep low-valence vertices stable
    decorated = [t for t in types
                 if any(g >= 1 for g in t.graph.genus)]
    assert {t.dimension for t in decorated} == {0, 1}


def test_genus_two_types():
    types = enumerate_types(2, 0)
    assert len(types) == 7
    assert dims(types) == {0: 1, 1: 2, 2: 2, 3: 2}
    theta = Multigraph(2, [(0, 1)] * 3)
    dumbbell = Multigraph(2, [(0, 0), (0, 1), (1, 1)])
    top_keys = {t.key for t in types if t.dimension == 3}
    assert top_keys == {canonical_key(theta), canonical_key(dumbbell)}


def test_five_marked_maximal_count():
    types = enumerate_types(0, 5)
    assert dims(types) == {0: 1, 1: 10, 2: 15}


def test_trivalent_tree_counts_match_double_factorial():
    # (2n-5)!! trivalent trees with n labeled leaves
    for n, expected in ((4, 3), (5, 15), (6, 105), (7, 945)):
        types = enumerate_types(0, n)
        top = [t for t in types if t.dimension == n - 3]
        assert len(top) == expected


def test_types_are_stable_and_consistent():
    for g, n in ((0, 4), (1, 1), (1, 2), (2, 0)):
        types = enumerate_types(g, n)
        keys = [t.key for t in types]
        assert len(set(keys)) == len(keys)
        for t in types:
            graph = t.graph
            assert graph.total_genus() == g
            assert sorted(label for _, label in graph.legs) == list(
                range(1, n + 1))
            assert graph.is_connected()
            for v in range(graph.num_vertices):
                assert vertex_stable(graph.genus[v], graph.valence(v))
            assert canonical_key(graph) == t.key


@pytest.mark.parametrize("g, n", [(0, 3), (1, 1), (1, 2), (1, 3), (2, 0),
                                  (2, 1), (2, 2), (2, 3), (3, 0)])
def test_pruned_search_keeps_every_type(g, n):
    assert {t.key for t in enumerate_types(g, n)} == unpruned_type_keys(g, n)


def test_genus_three_counts():
    assert len(enumerate_types(3, 0)) == 42
    assert len(enumerate_types(3, 1)) == 181


@pytest.mark.slow
def test_genus_four_counts():
    types = enumerate_types(4, 0)
    assert len(types) == 379
    # the top cells are the 17 connected trivalent graphs of genus 4
    assert dims(types)[9] == 17


def test_size_guard():
    # (2V - 1)!! for V = 2g - 2 + n: every V <= 6 is admitted, no V >= 7
    for g, n in ((0, 7), (1, 5), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1),
                 (0, 8), (4, 0)):
        assert guards.moduli(g, n) <= 10395
    for g, n in ((0, 9), (1, 7), (2, 5), (4, 1), (5, 0)):
        with pytest.raises(SizeGuardError, match="types of work"):
            guards.moduli(g, n)
        assert guards.moduli(g, n, force=True) > 10395


def test_unstable_pairs_rejected():
    for g, n in ((0, 0), (0, 1), (0, 2), (1, 0)):
        with pytest.raises(ArgumentError):
            enumerate_types(g, n)
    with pytest.raises(ArgumentError):
        enumerate_types(-1, 5)


def test_folding_flags():
    poset = build_poset(enumerate_types(1, 2))
    folded = [t for t, flag in zip(poset.types, poset.folded) if flag]
    assert len(folded) == 1
    assert folded[0].dimension == 2
    assert folded[0].graph.multiplicities()[(0, 1)] == 2
    # genus 0 cones with labeled legs never fold
    poset = build_poset(enumerate_types(0, 5))
    assert not any(poset.folded)


def test_genus_two_folding():
    poset = build_poset(enumerate_types(2, 0))
    by_key = {t.key: flag for t, flag in zip(poset.types, poset.folded)}
    theta = canonical_key(Multigraph(2, [(0, 1)] * 3))
    dumbbell = canonical_key(Multigraph(2, [(0, 0), (0, 1), (1, 1)]))
    bridge = canonical_key(Multigraph(2, [(0, 1)], genus=[1, 1]))
    assert by_key[theta] and by_key[dumbbell]
    assert not by_key[bridge]
    assert is_folded(Multigraph(1, [(0, 0), (0, 0)]))


def test_rational_four_marked_poset():
    poset = build_poset(enumerate_types(0, 4))
    vertex = next(i for i, t in enumerate(poset.types) if t.dimension == 0)
    rays = [i for i, t in enumerate(poset.types) if t.dimension == 1]
    assert set(poset.covers) == {(vertex, r) for r in rays}


def test_poset_is_graded_and_downward_connected():
    for g, n in ((1, 2), (2, 0), (0, 5), (1, 1)):
        types = enumerate_types(g, n)
        poset = build_poset(types)
        top = max(t.dimension for t in types)
        for lower, upper in poset.covers:
            assert (poset.types[upper].dimension
                    == poset.types[lower].dimension + 1)
        covered = {lower for lower, _ in poset.covers}
        for i, t in enumerate(poset.types):
            if t.dimension < top:
                assert i in covered
        # every type is reachable by contractions from a maximal one
        above = {}
        for lower, upper in poset.covers:
            above.setdefault(lower, []).append(upper)
        for i, t in enumerate(poset.types):
            cursor = {i}
            for _ in range(top - t.dimension):
                cursor = {u for c in cursor for u in above.get(c, ())}
            assert any(poset.types[u].dimension == top for u in cursor)


# (3, 0) and (0, 6) have no legs or only trees for skeletons; in (1, 4)
# and (3, 1) the legs break skeleton automorphisms
@pytest.mark.parametrize("g, n", [(0, 5), (1, 3), (2, 2), (3, 0), (1, 4),
                                  (3, 1), (0, 6)])
def test_poset_matches_an_independent_route(g, n):
    poset = build_poset(enumerate_types(g, n))
    keys, covers, folded = naive_poset(poset.types)
    assert keys == [t.key for t in poset.types]
    assert covers == list(poset.covers)
    assert folded == list(poset.folded)
    # the flags without the poset, as `moduli` without --poset prints them
    assert folding_flags(iter(poset.types)) == poset.folded


@pytest.mark.parametrize("g, n", [(1, 3), (3, 0)])
def test_poset_refuses_a_type_list_missing_a_lower_type(g, n):
    types = enumerate_types(g, n)
    lower, _ = build_poset(types).covers[0]
    with pytest.raises(ArgumentError, match="left the given type list"):
        build_poset(types[:lower] + types[lower + 1:])


def test_types_and_poset_label_once_per_type(monkeypatch):
    calls = []
    search = graphs._search

    def counted(graph):
        calls.append(graph)
        return search(graph)

    monkeypatch.setattr(graphs, "_search", counted)
    types = enumerate_types(1, 5)
    build_poset(types)
    searches = len(calls)
    skeletons = {canonical_key(Multigraph(t.graph.num_vertices, t.graph.edges,
                                          genus=t.graph.genus))
                 for t in types}
    assert (len(types), len(skeletons)) == (1576, 35)
    # one search per finished type, a few per skeleton; labelling every
    # extension and contraction took about 10,800
    assert searches <= len(types) + 20 * len(skeletons)


def test_max_dimension_values():
    assert max_dimension(0, 4) == 1
    assert max_dimension(1, 2) == 2
    assert max_dimension(2, 0) == 3
    assert max_dimension(0, 3) == 0
    assert max_dimension(1, 1) == 1


def test_type_wrapper_fields():
    graph = Multigraph(1, [], [(0, 1), (0, 2), (0, 3)])
    t = CombinatorialType(graph)
    assert t.dimension == 0
    assert t.key == canonical_key(graph)

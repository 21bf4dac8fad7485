"""Tests for the multigraph core: canonical forms, automorphisms,
enumeration, contraction, balancing, and serialization."""

import gc
import random
import sys

import pytest

from helpers import (brute_force_automorphisms, brute_force_search,
                     check_balancing, full_refinement, halfedge_aut_order,
                     labeled_leg_classes, local_rh_defect, random_relabel,
                     stub_matching_classes)
from tropica.errors import ArgumentError, LoopContractionError
from tropica.graph_complex import basis
from tropica.graphs import (
    Multigraph,
    _refined_colors,
    _search,
    automorphism_group_order,
    automorphisms,
    canonical_form,
    canonical_key,
    contract_edge,
    contract_loop,
    enumerate_graphs,
    parse_graph,
    serialize,
)
from tropica.util import as_partition


def theta():
    return Multigraph(2, [(0, 1), (0, 1), (0, 1)])


def k4():
    return Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def wheel(spokes):
    edges = [(0, i) for i in range(1, spokes + 1)]
    edges += [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    return Multigraph(spokes + 1, edges)


def dumbbell():
    return Multigraph(2, [(0, 0), (0, 1), (1, 1)])


def caterpillar():
    # two 3-valent vertices joined to two others by double edges
    return Multigraph(4, [(0, 2), (0, 1), (0, 1), (1, 3), (2, 3), (2, 3)])


def test_partition_basics():
    p = as_partition([1, 3, 2])
    assert p == (3, 2, 1)
    assert sum(p) == 6
    assert len(p) == 3
    assert list(p) == [3, 2, 1]
    assert p == as_partition((3, 2, 1))
    with pytest.raises(ArgumentError, match="at least one part"):
        as_partition([])
    with pytest.raises(ArgumentError, match="must be positive"):
        as_partition([2, 0])
    with pytest.raises(ArgumentError, match="must be positive"):
        as_partition([-1])
    with pytest.raises(ArgumentError, match="not a partition"):
        as_partition(["x"])


def test_construction_validation():
    with pytest.raises(ArgumentError):
        Multigraph(0)
    with pytest.raises(ArgumentError):
        Multigraph(2, [(0, 2)])
    with pytest.raises(ArgumentError):
        Multigraph(2, [(0, 1)], legs=[(0, 1), (1, 0)])  # mixed labeling
    with pytest.raises(ArgumentError):
        Multigraph(2, [(0, 1)], legs=[(0, 3), (1, 3)])  # duplicate label
    with pytest.raises(ArgumentError):
        Multigraph(2, [(0, 1)], genus=[1])
    with pytest.raises(ArgumentError):
        Multigraph(2, [(0, 1)], genus=[1, -1])
    with pytest.raises(ArgumentError):
        Multigraph(2, [(0, 0)])  # vertex 1 isolated
    # a single decorated vertex with no half-edges is fine
    lone = Multigraph(1, genus=[2])
    assert lone.total_genus() == 2


def test_valence_and_betti():
    g = dumbbell()
    assert g.valences() == (3, 3)
    assert g.first_betti() == 2
    assert theta().first_betti() == 2
    assert k4().first_betti() == 3
    decorated = Multigraph(2, [(0, 1)], genus=[1, 2])
    assert decorated.total_genus() == 3


def test_serialize_round_trip():
    cases = [
        theta(),
        k4(),
        dumbbell(),
        Multigraph(3, [(0, 1), (1, 2)], legs=[(0, 2), (2, 1)], genus=[0, 1, 0]),
        Multigraph(1, genus=[2]),
        Multigraph(2, [(0, 1), (0, 1)], legs=[(0, 0), (1, 0)]),
    ]
    for g in cases:
        text = serialize(g)
        assert parse_graph(text) == g
        assert serialize(parse_graph(text)) == text
    text = "V 2 E 1 L 1\ne 0 1\nl 1 4\ng 0 1\n"
    assert serialize(parse_graph(text)) == text


def test_parse_rejects_malformed():
    for text in [
        "",
        "V 2 E 1\ne 0 1\n",
        "V 2 E 2 L 0\ne 0 1\n",
        "V 2 E 1 L 0\ne 0 1\nx 0 0\n",
        "V 2 E 1 L 0\ne 0 2\n",
        "V 2 E 1 L 0\ne 0 1\ng 0 1\ng 0 2\n",
        # the message quotes a prefix of a long line
        f"V {'9' * 4000} E 0 L 0\n",
        f"V 2 E 1 L 0\ne 0 {'9' * 4000}\n",
        f"V 2 E 1 L 1\ne 0 1\nl {'9' * 4000} 1\n",
    ]:
        with pytest.raises(ArgumentError) as exc:
            parse_graph(text)
        assert len(str(exc.value)) < 200


def test_canonical_form_is_invariant_under_relabeling():
    graphs = [
        theta(),
        k4(),
        wheel(5),
        dumbbell(),
        caterpillar(),
        Multigraph(3, [(0, 1), (1, 2), (0, 2)], legs=[(0, 1), (1, 2)]),
        Multigraph(3, [(0, 1), (1, 2)], genus=[1, 0, 2]),
    ]
    rng = random.Random(20240817)
    for g in graphs:
        key = canonical_key(g)
        for _ in range(100):
            assert canonical_key(random_relabel(g, rng)) == key


def test_canonical_form_returns_reaching_permutation():
    for g in [k4(), dumbbell(), caterpillar(),
              Multigraph(3, [(0, 1), (1, 2)], genus=[1, 0, 2])]:
        canon, perm, _ = canonical_form(g)
        moved = g.relabeled(perm)
        assert sorted(moved.edges) == list(canon.edges)
        assert sorted(moved.legs) == list(canon.legs)
        assert moved.genus == canon.genus


def _fixes(g, perm):
    """Whether the vertex permutation maps g onto itself."""
    moved = g.relabeled(perm)
    return (sorted(moved.edges) == sorted(g.edges)
            and sorted(moved.legs) == sorted(g.legs)
            and moved.genus == g.genus)


def test_canonical_form_returns_the_automorphisms_of_its_graph():
    graphs = []
    for n, degrees, loops in [
        (1, [4], True), (1, [6], True),
        (2, [3, 3], False), (2, [4, 4], True), (2, [5, 3], True),
        (3, [2, 2, 2], False), (3, [4, 3, 3], True), (3, [4, 4, 4], True),
        (4, [3, 3, 3, 3], False), (4, [3, 3, 3, 3], True),
        (4, [4, 4, 2, 2], True), (5, [4, 4, 4, 2, 2], False),
    ]:
        found = enumerate_graphs(n, degrees, allow_loops=loops)
        assert found
        graphs += found
        # genus on the first vertex and on the last two
        graphs += [Multigraph(n, g.edges, genus=[1] + [0] * (n - 1))
                   for g in found]
        graphs += [Multigraph(n, g.edges, genus=[0] * (n - 2) + [1, 2])
                   for g in found if n >= 2]
    for n, degrees, legs, loops in [(2, [3, 3], 2, False),
                                    (3, [3, 2, 1], 2, True),
                                    (3, [3, 3, 2], 2, False)]:
        graphs += labeled_leg_classes(n, degrees, legs, allow_loops=loops)
    k33 = Multigraph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    prism = Multigraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (0, 3), (1, 4), (2, 5)])
    graphs += [
        k4(), k33, prism, theta(), dumbbell(), caterpillar(),
        Multigraph(2, [(0, 1), (0, 1)], legs=[(0, 0), (1, 0)]),
        Multigraph(3, [(0, 1), (1, 2), (0, 2)],
                   legs=[(0, 0), (0, 0), (1, 0), (2, 0)]),
        Multigraph(1, [(0, 0), (0, 0)], legs=[(0, 0)], genus=[1]),
    ]
    rng = random.Random(20261020)
    for g in graphs:
        for h in [g] + [random_relabel(g, rng) for _ in range(3)]:
            canon, _, auts = canonical_form(h)
            assert len(set(auts)) == len(auts), serialize(h)
            assert set(auts) == set(automorphisms(canon)), serialize(h)
            assert all(_fixes(canon, a) for a in auts), serialize(h)
    assert len(canonical_form(k33)[2]) == 72
    assert len(canonical_form(prism)[2]) == 12
    assert len(canonical_form(k4())[2]) == 24
    assert len(canonical_form(theta())[2]) == 2


def test_canonical_form_separates_classes():
    path = Multigraph(3, [(0, 1), (1, 2)])
    star = Multigraph(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_key(path) != canonical_key(star)
    # same degree sequence (3, 3, 2, 2), different graphs
    with_parallel = Multigraph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3)])
    simple = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert sorted(with_parallel.valences()) == sorted(simple.valences())
    assert canonical_key(with_parallel) != canonical_key(simple)


def test_search_matches_the_full_product():
    # loops, parallel edges, labeled legs, genus and unlabeled legs
    graphs = []
    for n, degrees, legs, loops in [
        (6, [3] * 6, 0, True),
        (5, [4, 4, 4, 2, 2], 0, False),
        (4, [4, 4, 2, 2], 0, True),
        (4, [3, 3, 3, 3], 2, True),
        (3, [3, 2, 1], 2, True),
    ]:
        found = labeled_leg_classes(n, degrees, legs, allow_loops=loops)
        assert found
        graphs.extend(found)
    for g in enumerate_graphs(4, [3, 3, 3, 3], allow_loops=True):
        graphs.append(Multigraph(4, g.edges, genus=[1, 0, 1, 0]))
        graphs.append(Multigraph(4, g.edges, legs=[(0, 0), (2, 0)]))
    graphs += [
        Multigraph(3, [(0, 1), (1, 2), (0, 2)],
                   legs=[(0, 0), (0, 0), (1, 0), (2, 0)]),
        Multigraph(4, caterpillar().edges, legs=[(0, 0), (1, 0)],
                   genus=[0, 0, 2, 2]),
        Multigraph(1, [(0, 0), (0, 0)], legs=[(0, 0)], genus=[1]),
        # disconnected: every placed row can be complete before the end
        Multigraph(2, [(0, 0), (1, 1)]),
        Multigraph(4, [(0, 0), (0, 1), (1, 1), (2, 2), (2, 3), (3, 3)]),
    ]
    rng = random.Random(20261018)
    for g in graphs:
        for h in [g] + [random_relabel(g, rng) for _ in range(3)]:
            assert _search(h) == brute_force_search(h), serialize(h)


def test_refined_colors_match_the_full_refinement():
    # discrete from the start (labeled legs), discrete after refinement,
    # and never discrete
    graphs = [
        Multigraph(3, [(0, 1), (1, 2), (0, 2)],
                   legs=[(0, 1), (1, 2), (2, 3)]),
        Multigraph(4, [(0, 1), (1, 2), (2, 3)], legs=[(0, 1), (3, 2)]),
        Multigraph(4, [(0, 1), (1, 2), (2, 3)], genus=[1, 0, 0, 0]),
        Multigraph(3, [(0, 1), (1, 2)], genus=[1, 0, 2]),
        theta(), k4(), wheel(5), dumbbell(), caterpillar(),
        Multigraph(4, caterpillar().edges, legs=[(0, 0), (1, 0)]),
    ]
    rng = random.Random(20261019)
    for g in graphs:
        for h in [g] + [random_relabel(g, rng) for _ in range(5)]:
            assert _refined_colors(h) == full_refinement(h), serialize(h)


def _validated(g):
    return Multigraph(g.num_vertices, g.edges, g.legs, g.genus)


def test_derived_graphs_equal_their_validated_rebuilds():
    # canonical_form and the contractions build their graphs without
    # the constructor's checks
    graphs = [
        theta(), k4(), wheel(4), dumbbell(), caterpillar(),
        Multigraph(2, [(0, 1)], legs=[(0, 5), (1, 6)], genus=[1, 2]),
        Multigraph(3, [(0, 0), (0, 1), (1, 2), (0, 2)],
                   legs=[(2, 1), (1, 2)], genus=[0, 1, 0]),
        Multigraph(3, [(0, 1), (1, 2), (0, 2)], legs=[(0, 0), (2, 0)]),
        # contracting (1, 5) takes (3, 5) to (3, 1)
        Multigraph(6, [(1, 5), (3, 5), (0, 1), (2, 3), (3, 4), (0, 2),
                       (4, 5)]),
    ]
    for g in graphs:
        derived = [canonical_form(g)[0]]
        for i, (u, v) in enumerate(g.edges):
            derived.append(contract_loop(g, i) if u == v
                           else contract_edge(g, i))
        for h in derived:
            assert h == _validated(h)
            assert hash(h) == hash(_validated(h))
    assert contract_edge(graphs[-1], 0).edges[0] == (1, 3)


def test_contractions_reject_an_isolated_vertex():
    disconnected = Multigraph(3, [(0, 0), (1, 2)])
    with pytest.raises(ArgumentError):
        contract_edge(disconnected, 1)
    with pytest.raises(ArgumentError):
        contract_loop(disconnected, 0)
    # a lone vertex left with no half-edges is a valid graph
    assert contract_loop(Multigraph(1, [(0, 0)]), 0) == Multigraph(
        1, genus=[1])
    assert contract_edge(Multigraph(2, [(0, 1)]), 0) == Multigraph(1)


def test_search_cuts_most_of_the_product():
    # one color class of 6 vertices: the product tree has 6! = 720 leaves
    # and 1 + 6 + 30 + 120 + 360 + 720 + 720 = 1957 nodes
    prism = Multigraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (0, 3), (1, 4), (2, 5)])
    depths = []

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "descend":
            depths.append(frame.f_locals["p"])

    sys.setprofile(record)
    try:
        _, ties = _search(prism)
    finally:
        sys.setprofile(None)
    leaves = depths.count(prism.num_vertices)
    assert len(ties) == 12
    assert len(ties) <= leaves <= 720 // 20
    assert len(depths) <= 1957 // 10


def test_automorphism_orders_known_graphs():
    assert automorphism_group_order(theta()) == 12
    assert automorphism_group_order(k4()) == 24
    assert automorphism_group_order(wheel(5)) == 10
    assert automorphism_group_order(dumbbell()) == 8
    # vertex group is the Klein four group, two double edges give 2! each
    assert automorphism_group_order(caterpillar()) == 16
    assert automorphism_group_order(Multigraph(1, [(0, 0)])) == 2


def test_automorphism_order_matches_dart_bruteforce():
    cases = [
        Multigraph(1, [(0, 0)]),
        Multigraph(2, [(0, 1)]),
        theta(),
        dumbbell(),
        Multigraph(3, [(0, 1), (1, 2), (0, 2)]),
        Multigraph(2, [(0, 1), (0, 1)], legs=[(0, 0), (1, 0)]),
        Multigraph(2, [(0, 1), (0, 1)], legs=[(0, 1), (1, 2)]),
        Multigraph(2, [(0, 1)], genus=[1, 0]),
        Multigraph(2, [(0, 1)], genus=[1, 1]),
        Multigraph(1, [(0, 0)], legs=[(0, 0), (0, 0)]),
        Multigraph(2, [(0, 0), (0, 1), (1, 1)]),
        Multigraph(1, [(0, 0), (0, 0)]),
    ]
    for g in cases:
        assert automorphism_group_order(g) == halfedge_aut_order(g), serialize(g)


def test_vertex_automorphisms_respect_structure():
    assert len(automorphisms(k4())) == 24
    assert len(automorphisms(theta())) == 2
    decorated = Multigraph(2, [(0, 1), (0, 1), (0, 1)], genus=[1, 0])
    assert len(automorphisms(decorated)) == 1
    unlabeled_legs = Multigraph(2, [(0, 1), (0, 1)], legs=[(0, 0), (1, 0)])
    assert len(automorphisms(unlabeled_legs)) == 2
    labeled_legs = Multigraph(2, [(0, 1), (0, 1)], legs=[(0, 1), (1, 2)])
    assert len(automorphisms(labeled_legs)) == 1


def test_automorphisms_leave_no_garbage():
    # the recursive closures of the search and of enumeration's matrix
    # generator must not outlive the call
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert len(automorphisms(k4())) == 24
        assert gc.collect() == 0
        assert len(enumerate_graphs(4, [3, 3, 3, 3], allow_loops=True)) == 5
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_automorphisms_match_brute_force():
    graphs = []
    for n, degrees, legs, loops in [
        (2, [3, 3], 0, False),
        (2, [4, 4], 0, True),
        (3, [2, 2, 2], 0, False),
        (3, [4, 3, 3], 0, True),
        (4, [3, 3, 3, 3], 0, False),
        (4, [3, 3, 3, 3], 0, True),
        (4, [4, 4, 2, 2], 0, True),
        (5, [4, 4, 4, 2, 2], 0, False),
        (2, [3, 3], 2, False),
        (3, [3, 2, 1], 2, True),
        (3, [3, 3, 2], 2, False),
    ]:
        found = labeled_leg_classes(n, degrees, legs, allow_loops=loops)
        assert found
        graphs.extend(found)
    graphs += [
        Multigraph(2, [(0, 1), (0, 1), (0, 1)], genus=[1, 0]),
        Multigraph(3, [(0, 1), (1, 2), (0, 2)], genus=[1, 1, 0]),
        Multigraph(4, k4().edges, genus=[2, 0, 2, 0]),
        Multigraph(3, [(0, 1), (1, 2), (2, 2)], genus=[1, 0, 1]),
        Multigraph(2, [(0, 1), (0, 1)], legs=[(0, 0), (1, 0)]),
        Multigraph(3, [(0, 1), (1, 2), (0, 2)],
                   legs=[(0, 0), (0, 0), (1, 0), (2, 0)]),
        Multigraph(4, caterpillar().edges, legs=[(0, 0), (1, 0)]),
        Multigraph(4, k4().edges, legs=[(0, 1), (1, 2)]),
        Multigraph(3, [(0, 1), (1, 2), (0, 2)], legs=[(0, 1)],
                   genus=[0, 1, 1]),
        Multigraph(1, [(0, 0), (0, 0)], legs=[(0, 0)], genus=[1]),
    ]
    rng = random.Random(20261018)
    for g in graphs:
        for h in [g] + [random_relabel(g, rng) for _ in range(3)]:
            auts = automorphisms(h)
            assert len(set(auts)) == len(auts), serialize(h)
            assert set(auts) == brute_force_automorphisms(h), serialize(h)


def test_enumeration_matches_stub_matching():
    cases = [
        (4, [3, 3, 3, 3], False, True),
        (4, [3, 3, 3, 3], True, True),
        (2, [3, 3], False, True),
        (3, [4, 3, 3], True, True),
        (3, [2, 2, 2], False, False),
        (2, [4, 4], True, True),
        (4, [3, 3, 3, 3], False, False),
        (4, [3, 3, 2, 2], False, False),
        # twin blocks that split: the 2-valent block by its edges to row 0
        (5, [3, 3, 2, 2, 2], False, True),
        (6, [3, 3, 2, 2, 1, 1], False, False),
        (5, [2, 2, 2, 2, 2], False, False),
        # loops, with and without parallel edges
        (4, [4, 3, 3, 2], True, True),
        (5, [4, 2, 2, 2, 2], True, False),
        (4, [3, 3, 3, 3], True, False),
    ]
    for n, degrees, loops, parallel in cases:
        found = enumerate_graphs(n, degrees, allow_loops=loops,
                                 allow_parallel=parallel)
        keys = {canonical_key(g) for g in found}
        assert len(keys) == len(found)
        assert keys == stub_matching_classes(n, degrees, 0, loops, parallel)


def test_labeled_leg_classes_match_stub_matching():
    # the legged inputs of the labelling tests above
    for n, degrees, legs, loops in [(2, [3, 3], 2, False),
                                    (3, [3, 2, 1], 2, True),
                                    (3, [3, 3, 2], 2, False)]:
        found = labeled_leg_classes(n, degrees, legs, allow_loops=loops)
        keys = {canonical_key(g) for g in found}
        assert len(keys) == len(found)
        assert keys == stub_matching_classes(n, degrees, legs, loops)


def test_enumeration_labels_about_one_graph_per_class(monkeypatch):
    calls = []

    def counted(graph):
        calls.append(graph)
        return _search(graph)

    monkeypatch.setattr("tropica.graphs._search", counted)
    # 6 cubic classes: every labelled matrix took 640 searches
    assert len(enumerate_graphs(6, [3] * 6)) == 6
    assert len(calls) <= 20
    calls.clear()
    # 5 simple cubic classes: every labelled matrix took 19,320 searches
    assert len(enumerate_graphs(8, [3] * 8, allow_parallel=False)) == 5
    assert len(calls) <= 40
    assert basis(5, 12) == []


def test_enumeration_known_counts():
    # 3-regular on 4 vertices without loops: the complete graph and the
    # double-edge caterpillar
    found = enumerate_graphs(4, [3, 3, 3, 3])
    assert len(found) == 2
    keys = {canonical_key(g) for g in found}
    assert canonical_key(k4()) in keys
    assert canonical_key(caterpillar()) in keys
    assert enumerate_graphs(2, [3, 3]) == [canonical_form(theta())[0]]
    assert len(enumerate_graphs(1, [2], allow_loops=True)) == 1
    assert enumerate_graphs(1, [2], allow_loops=False) == []
    # parallel edges forbidden kills the theta graph
    assert enumerate_graphs(2, [3, 3], allow_parallel=False) == []
    # odd half-edge total is infeasible
    assert enumerate_graphs(2, [2, 1]) == []


def test_enumeration_validation():
    with pytest.raises(ArgumentError):
        enumerate_graphs(-1, [])
    with pytest.raises(ArgumentError):
        enumerate_graphs(2, [3])
    with pytest.raises(ArgumentError):
        enumerate_graphs(2, [3, -3])
    # the options are keyword-only: a third positional argument fails
    with pytest.raises(TypeError):
        enumerate_graphs(2, [3, 3], 2)


def test_enumerated_legs_are_labeled():
    # distinct labels can distinguish attachments on an asymmetric graph
    base_edges = [(0, 1), (1, 2), (2, 2)]
    one = Multigraph(3, base_edges, legs=[(0, 1), (1, 2)])
    two = Multigraph(3, base_edges, legs=[(0, 2), (1, 1)])
    assert canonical_key(one) != canonical_key(two)


def test_contract_edge_merges_and_preserves_betti():
    g = k4()
    c = contract_edge(g, 0)
    assert c.num_vertices == 3
    assert c.num_edges == 5
    assert c.first_betti() == g.first_betti()
    assert c.total_genus() == g.total_genus()

    decorated = Multigraph(2, [(0, 1)], legs=[(0, 5), (1, 6)], genus=[1, 2])
    c = contract_edge(decorated, 0)
    assert c.num_vertices == 1
    assert c.genus == (3,)
    assert sorted(c.legs) == [(0, 5), (0, 6)]

    with pytest.raises(LoopContractionError):
        contract_edge(dumbbell(), 0)
    with pytest.raises(ArgumentError):
        contract_edge(theta(), 7)


def test_contract_edge_keeps_edge_order():
    g = caterpillar()
    c = contract_edge(g, 1)  # contract one copy of the (0, 1) double edge
    assert c.num_edges == 5
    # remaining edges appear in original order with endpoints remapped
    assert c.edges == ((0, 1), (0, 0), (0, 2), (1, 2), (1, 2))


def test_contract_loop_raises_genus():
    g = dumbbell()
    c = contract_loop(g, 0)
    assert c.genus == (1, 0)
    assert c.num_edges == 2
    assert c.total_genus() == g.total_genus()
    with pytest.raises(ArgumentError):
        contract_loop(g, 1)  # the bridge is not a loop


def test_check_balancing():
    assert check_balancing([("left", 3), ("right", 2), ("right", 1)]) == 3
    assert check_balancing([("a", 2), ("a", 2), ("b", 4)]) == 4
    assert check_balancing([("left", 3), ("right", 1)]) is None
    assert check_balancing([("only", 5)]) == 5
    with pytest.raises(ArgumentError):
        check_balancing([("left", 0)])
    with pytest.raises(ArgumentError):
        check_balancing([])


def test_local_rh_defect():
    # balanced 3-valent genus-0 vertex over an edge of the line
    assert local_rh_defect(2, 0, 0, [1, 1, 2]) == 1
    # too much ramification concentrated at one vertex
    assert local_rh_defect(2, 0, 0, [2, 2, 2]) == -1
    # vertex genus relaxes the constraint
    assert local_rh_defect(2, 0, 1, [2, 2, 2]) == 1
    # over a line, balanced vertices give valence - 2 + 2 genus
    for weights, d in [([1, 1, 1, 1], 2), ([3, 2, 1], 3), ([2, 2], 2)]:
        assert local_rh_defect(d, 0, 0, weights) == len(weights) - 2
    with pytest.raises(ArgumentError):
        local_rh_defect(0, 0, 0, [1])
    with pytest.raises(ArgumentError):
        local_rh_defect(2, 0, 0, [0, 4])

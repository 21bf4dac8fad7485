"""Combinatorial types of tropical curves and their contraction poset.

A combinatorial type is a connected multigraph with vertex genera and
n labeled legs, subject to stability at every vertex: a vertex of
genus h and valence k (legs included, loops counted twice) must have
2h - 2 + k > 0.  The dimension of a type is its number of bounded
edges; contracting edges one at a time walks down the face poset of
the cone complex.  Contracting a loop removes it and raises the genus
of its vertex, so the total genus is constant along the poset.

Only leg-free skeletons get canonical labels, and each labelling also
gives the skeleton's automorphisms.  A leg's unique label pins its
vertex under every automorphism, so legs added to one class give
isomorphic graphs exactly when their vertices share an orbit of its
automorphisms, and different classes never meet: each label goes on the
least vertex of each orbit, and the automorphisms narrow to its
stabiliser.  So the leg map built (the vertex of each leg, by label) is
the least of its orbit under Aut(S), for S the canonical skeleton, and
the pair (S, leg map) is a complete invariant of the type.  A type's
graph is S with each leg on its vertex of the map, legs sorted, and its
key serialises that graph: it is built, not searched for, so it is not
canonical_key of the graph, but equal keys still mean isomorphic types.
Enumeration records S and the map with each type, and whether the
stabiliser folds S; the poset keys each type by the two, contracts each
distinct (S, edge) once, and labels only the contractions.
"""

from collections import namedtuple

from .errors import ArgumentError, CrossCheckError
from .graphs import (Multigraph, automorphisms, canonical_form,
                     contract_edge, contract_loop, enumerate_graphs,
                     serialize)
from .util import compositions_of, partitions_of


class CombinatorialType(namedtuple("CombinatorialType",
                                   "graph key skeleton leg_map folded")):
    """A stable combinatorial type, stored on its canonical skeleton.

    skeleton is the canonical leg-free graph S and leg_map the vertex of
    S of each leg by label, the least image under Aut(S).  graph is S
    with leg i on leg_map[i - 1], legs sorted, and key serialises it;
    equal keys mean isomorphic types.  folded marks a type whose
    automorphisms permute the bounded edges nontrivially, so its orthant
    is glued to itself.
    """

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return self.graph.num_edges


class ConePoset(namedtuple("ConePoset", "types covers")):
    """Face poset of a tropical moduli cone complex: covers lists
    (lower, upper) index pairs with dimensions differing by one."""

    __slots__ = ()


def enumerate_types(genus, num_legs):
    """All stable combinatorial types for (g, n), one per iso class.

    Sorted by dimension, then key.
    """
    g, n = int(genus), int(num_legs)
    if g < 0 or n < 0:
        raise ArgumentError("genus and leg count must be nonnegative")
    if 2 * g - 2 + n <= 0:
        raise ArgumentError(f"({g}, {n}) is unstable")
    found = []
    for num_edges in range(3 * g - 3 + n + 1):
        for num_vertices in range(max(1, num_edges + 1 - g),
                                  num_edges + 2):
            seeds = _genus_decorated_skeletons(g, n, num_edges, num_vertices)
            found += _attach_legs(seeds, n)
    return sorted(found, key=lambda t: (t.dimension, t.key))


def _genus_decorated_skeletons(g, num_legs, num_edges, num_vertices):
    """Leg-free genus-g candidates with the given edge and vertex counts,
    each canonical graph mapped to its automorphisms.

    Only valence sequences that num_legs legs can still make stable are
    searched; see _least_deficit.
    """
    seeds = {}
    total = 2 * num_edges
    # every connected skeleton here has the same first Betti number
    budget = g - (num_edges - num_vertices + 1)
    if num_vertices == 1:
        sequences = [(total,)]
    else:
        # connectedness forces edge valence >= 1 everywhere
        sequences = [tuple(p + 1 for p in parts)
                     + (1,) * (num_vertices - len(parts))
                     for parts in partitions_of(total - num_vertices)
                     if len(parts) <= num_vertices]
    for valences in sequences:
        if _least_deficit(valences, budget) > num_legs:
            continue
        for skeleton in enumerate_graphs(num_vertices, valences,
                                         allow_loops=True):
            for assign in compositions_of(budget, num_vertices):
                seed, _, auts = canonical_form(Multigraph(
                    num_vertices, skeleton.edges, (), assign))
                seeds[seed] = auts
    return seeds


def _least_deficit(valences, budget) -> int:
    """A lower bound on the half-edges missing, over genus decorations.

    Genus 1 on a vertex of valence >= 1 leaves it nothing to miss, so the
    best use of a genus budget b clears the b largest genus-0 deficits
    max(0, 3 - k).  Every vertex of a multi-vertex skeleton has valence
    >= 1, so there the bound is exact.
    """
    deficits = sorted(max(0, 3 - k) for k in valences)
    return sum(deficits[:max(0, len(deficits) - budget)])


def _attach_legs(seeds, num_legs):
    """Records of the stable types from legs 1..n on the seeds (canonical
    graphs mapped to their automorphisms), one per iso class; a class
    missing more half-edges than legs remain is pruned."""
    current = []
    for graph, auts in seeds.items():
        lack = [max(0, 3 - 2 * h - k)
                for h, k in zip(graph.genus, graph.valences())]
        if sum(lack) <= num_legs:
            current.append((graph, (), lack, auts))
    for label in range(1, num_legs + 1):
        nxt = []
        for graph, legs, lack, auts in current:
            for v in range(graph.num_vertices):
                if (sum(lack) - (lack[v] > 0) > num_legs - label
                        or any(a[v] < v for a in auts)):
                    continue
                nxt.append((graph, legs + (v,),
                            lack[:v] + [max(0, lack[v] - 1)] + lack[v + 1:],
                            [a for a in auts if a[v] == v]))
        current = nxt
    for skeleton, legs, _, auts in current:
        # labels 1..n on vertices of the skeleton make a valid graph
        graph = Multigraph._trusted(
            skeleton.num_vertices, skeleton.edges,
            tuple(sorted(zip(legs, range(1, num_legs + 1)))),
            skeleton.genus)
        yield CombinatorialType(graph, serialize(graph), skeleton, legs,
                                _folds(skeleton, lambda: auts))


def is_folded(graph: Multigraph) -> bool:
    """Whether some automorphism permutes the bounded edges nontrivially.

    A parallel pair (or double loop) can always be swapped in place;
    otherwise a vertex automorphism folds exactly when it moves some
    edge to a different vertex pair.
    """
    return _folds(graph, lambda: automorphisms(graph))


def _folds(graph, find_perms) -> bool:
    return len(set(graph.edges)) < len(graph.edges) or any(
        tuple(sorted((perm[u], perm[v]))) != (u, v)
        for perm in find_perms() for u, v in graph.edges)


def build_poset(types) -> ConePoset:
    """Cover relations by single-edge contraction."""
    types, index, covers = tuple(types), {}, set()
    for i, t in enumerate(types):
        index.setdefault(t.skeleton, {})[t.leg_map] = i
    # any leg map of a type's orbit gives its covers
    for skeleton, members in index.items():
        for u, v in set(skeleton.edges):
            contract = contract_loop if u == v else contract_edge
            lower, perm, auts = canonical_form(
                contract(skeleton, skeleton.edges.index((u, v))))
            # v merges into u and later vertices shift down by one
            moved = [perm[u if x == v else x - (u < v < x)]
                     for x in range(skeleton.num_vertices)]
            below = index.get(lower, {})
            for legs, upper in members.items():
                found = below.get(_least(auts, [moved[x] for x in legs]))
                if found is None:
                    raise ArgumentError("contraction left the given type list")
                covers.add((found, upper))
    return ConePoset(types, tuple(sorted(covers)))


def _least(auts, legs):
    """The least image of a leg map under the automorphisms."""
    return tuple(legs) and min(tuple(a[x] for x in legs) for a in auts)


def max_dimension(genus, num_legs, types=None) -> int:
    """Largest dimension among the types; cross-checked against 3g-3+n."""
    g, n = int(genus), int(num_legs)
    types = enumerate_types(g, n) if types is None else types
    top = max(t.dimension for t in types)
    expected = 3 * g - 3 + n
    if top != expected:
        raise CrossCheckError(
            f"max dimension {top} disagrees with 3g-3+n = {expected}")
    return top

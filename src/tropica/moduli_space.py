"""Combinatorial types of tropical curves and their contraction poset.

A combinatorial type is a connected multigraph with vertex genera and
n labeled legs, subject to stability at every vertex: a vertex of
genus h and valence k (legs included, loops counted twice) must have
2h - 2 + k > 0.  The dimension of a type is its number of bounded
edges; contracting edges one at a time walks down the face poset of
the cone complex.  Contracting a loop removes it and raises the genus
of its vertex, so the total genus is constant along the poset.

Only finished types and leg-free skeletons get canonical labels.  A
leg's unique label pins its vertex under every automorphism, so legs
added to one class give isomorphic graphs exactly when their vertices
share an orbit of its automorphisms, and different classes never meet:
each label goes on the least vertex of each orbit, and the automorphisms
narrow to its stabiliser.  So too a type is its canonical skeleton S
with a leg map (the vertex of each leg, by label) up to Aut(S).  The
poset keys it by S and the least image of that map, contracts each
distinct (S, edge) once, and reads the type's automorphisms off the
stabiliser of the map.
"""

from collections import namedtuple
from functools import cache, cached_property
from itertools import compress

from .errors import ArgumentError, CrossCheckError
from .graphs import (Multigraph, automorphisms, canonical_form,
                     contract_edge, contract_loop, enumerate_graphs,
                     serialize)
from .util import compositions_of, partitions_of

def vertex_stable(genus: int, valence: int) -> bool:
    return 2 * genus - 2 + valence > 0


class CombinatorialType(namedtuple("CombinatorialType", "graph")):
    """A stable combinatorial type, stored as a canonical graph.

    No __slots__: cached_property writes key to __dict__ directly."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: types are immutable")

    @property
    def dimension(self) -> int:
        return self.graph.num_edges

    @cached_property
    def key(self) -> str:
        return serialize(self.graph)


class ConePoset(namedtuple("ConePoset", "types covers folded")):
    """Face poset of a tropical moduli cone complex.

    covers lists (lower, upper) index pairs with dimensions differing
    by one; folded marks types whose automorphisms permute the bounded
    edges nontrivially, so the orthant is glued to itself.
    """

    __slots__ = ()


def enumerate_types(genus, num_legs):
    """All stable combinatorial types for (g, n), one per iso class.

    Sorted by dimension, then canonical key.
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
            found += map(CombinatorialType, _attach_legs(seeds, n))
    return sorted(found, key=lambda t: (t.dimension, t.key))


def _genus_decorated_skeletons(g, num_legs, num_edges, num_vertices):
    """Leg-free genus-g candidates with the given edge and vertex counts.

    Only valence sequences that num_legs legs can still make stable are
    searched; see _least_deficit.
    """
    seeds = set()
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
                seeds.add(canonical_form(Multigraph(
                    num_vertices, skeleton.edges, (), assign))[0])
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
    """The stable types from legs 1..n on the seeds, one per iso class;
    a class missing more half-edges than legs remain is pruned."""
    current = [(graph, [max(0, 3 - 2 * h - k) for h, k
                        in zip(graph.genus, graph.valences())])
               for graph in seeds]
    current = [(graph, lack, automorphisms(graph) if num_legs else ())
               for graph, lack in current if sum(lack) <= num_legs]
    for label in range(1, num_legs + 1):
        nxt = []
        for graph, lack, auts in current:
            for v in range(graph.num_vertices):
                if (sum(lack) - (lack[v] > 0) > num_legs - label
                        or any(a[v] < v for a in auts)):
                    continue
                # a new label on a leg-free or all-labeled graph stays valid
                nxt.append((Multigraph._trusted(
                    graph.num_vertices, graph.edges,
                    graph.legs + ((v, label),), graph.genus),
                    lack[:v] + [max(0, lack[v] - 1)] + lack[v + 1:],
                    [a for a in auts if a[v] == v]))
        current = nxt
    return [canonical_form(graph)[0] if num_legs else graph
            for graph, _, _ in current]


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


def folding_flags(types) -> tuple:
    """is_folded of each type: a parallel pair folds, and the other types
    are read off the automorphisms of their skeletons."""
    types = tuple(types)
    simple = [len(set(t.graph.edges)) == len(t.graph.edges) for t in types]
    maps = _skeleton_maps(compress(types, simple), cache(automorphisms))
    return tuple(next(maps)[2] if s else True for s in simple)


def _skeleton_maps(types, aut):
    """(skeleton, legs, folded) per type: its canonical leg-free skeleton,
    the skeleton vertex of each leg by label, and whether the stabiliser
    of those vertices in aut(skeleton) folds the skeleton.  The
    automorphisms of a skeleton are found only if needed."""
    canon = cache(canonical_form)
    for t in types:
        g = t.graph
        bare = Multigraph._trusted(g.num_vertices, g.edges, (), g.genus)
        skeleton, perm = canon(bare) if g.legs else (g, range(g.num_vertices))
        legs = tuple(perm[v] for _, v in sorted((k, v) for v, k in g.legs))
        yield skeleton, legs, _folds(skeleton, lambda: (
            a for a in aut(skeleton) if all(a[x] == x for x in legs)))


def build_poset(types) -> ConePoset:
    """Cover relations by single-edge contraction, plus folding flags."""
    types, index, covers = tuple(types), {}, set()
    aut = cache(automorphisms)
    maps = list(_skeleton_maps(types, aut))
    for i, (skeleton, legs, _) in enumerate(maps):
        index.setdefault(skeleton, {})[
            _least(aut(skeleton) if legs else (), legs)] = i
    # any leg map of a type's orbit, such as its key, gives its covers
    for skeleton, members in index.items():
        for u, v in set(skeleton.edges):
            contract = contract_loop if u == v else contract_edge
            lower, perm = canonical_form(
                contract(skeleton, skeleton.edges.index((u, v))))
            # v merges into u and later vertices shift down by one
            moved = [perm[u if x == v else x - (u < v < x)]
                     for x in range(skeleton.num_vertices)]
            below = index.get(lower, {})
            auts = aut(lower) if any(members) else ()
            for legs, upper in members.items():
                found = below.get(_least(auts, [moved[x] for x in legs]))
                if found is None:
                    raise ArgumentError("contraction left the given type list")
                covers.add((found, upper))
    return ConePoset(types, tuple(sorted(covers)),
                     tuple(flag for _, _, flag in maps))


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

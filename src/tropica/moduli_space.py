"""Combinatorial types of tropical curves and their contraction poset.

A combinatorial type is a connected multigraph with vertex genera and
n labeled legs, subject to stability at every vertex: a vertex of
genus h and valence k (legs included, loops counted twice) must have
2h - 2 + k > 0.  The dimension of a type is its number of bounded
edges; contracting edges one at a time walks down the face poset of
the cone complex.  Contracting a loop removes it and raises the genus
of its vertex, so the total genus is constant along the poset.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import ArgumentError, CrossCheckError
from .graphs import (Multigraph, automorphisms, canonical_form,
                     contract_edge, contract_loop, enumerate_graphs,
                     serialize)
from .util import compositions_of, partitions_of

def vertex_stable(genus: int, valence: int) -> bool:
    return 2 * genus - 2 + valence > 0


@dataclass(frozen=True)
class CombinatorialType:
    """A stable combinatorial type, stored as a canonical graph."""

    graph: Multigraph

    @property
    def dimension(self) -> int:
        return self.graph.num_edges

    @cached_property
    def key(self) -> str:
        return serialize(self.graph)


@dataclass(frozen=True)
class ConePoset:
    """Face poset of a tropical moduli cone complex.

    covers lists (lower, upper) index pairs with dimensions differing
    by one; folded marks types whose automorphisms permute the bounded
    edges nontrivially, so the orthant is glued to itself.
    """

    types: tuple
    covers: tuple
    folded: tuple


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
            found += [CombinatorialType(graph)
                      for graph in _attach_legs(seeds, n)
                      if all(vertex_stable(h, k) for h, k
                             in zip(graph.genus, graph.valences()))]
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
    """A lower bound on _deficit over genus decorations of the valences.

    Genus 1 on a vertex of valence >= 1 leaves it nothing to miss, so the
    best use of a genus budget b clears the b largest genus-0 deficits
    max(0, 3 - k).  Every vertex of a multi-vertex skeleton has valence
    >= 1, so there the bound is exact.
    """
    deficits = sorted(max(0, 3 - k) for k in valences)
    return sum(deficits[:max(0, len(deficits) - budget)])


def _deficit(graph) -> int:
    """Half-edges still missing before every vertex could be stable."""
    return sum(max(0, 3 - 2 * h - k)
               for h, k in zip(graph.genus, graph.valences()))


def _attach_legs(seeds, num_legs):
    """Add legs 1..n one label at a time, deduplicating per step.

    Classes that cannot reach stability with the legs still to come
    are pruned early.
    """
    current = {graph for graph in seeds if _deficit(graph) <= num_legs}
    for label in range(1, num_legs + 1):
        remaining = num_legs - label
        nxt = set()
        for graph in current:
            for v in range(graph.num_vertices):
                # a new label on a leg-free or all-labeled graph stays valid
                extended = Multigraph._trusted(
                    graph.num_vertices, graph.edges,
                    graph.legs + ((v, label),), graph.genus)
                if _deficit(extended) <= remaining:
                    nxt.add(canonical_form(extended)[0])
        current = nxt
    return current


def is_folded(graph: Multigraph) -> bool:
    """Whether some automorphism permutes the bounded edges nontrivially.

    A parallel pair (or double loop) can always be swapped in place;
    otherwise a vertex automorphism folds exactly when it moves some
    edge to a different vertex pair.
    """
    if any(m >= 2 for m in graph.multiplicities().values()):
        return True
    for perm in automorphisms(graph):
        for u, v in graph.edges:
            if tuple(sorted((perm[u], perm[v]))) != (u, v):
                return True
    return False


def build_poset(types) -> ConePoset:
    """Cover relations by single-edge contraction, plus folding flags."""
    types = tuple(types)
    # types hold canonical graphs, which hash and compare on their fields
    index = {t.graph: i for i, t in enumerate(types)}
    covers = set()
    for upper, t in enumerate(types):
        for i, (u, v) in enumerate(t.graph.edges):
            if u == v:
                contracted = contract_loop(t.graph, i)
            else:
                contracted = contract_edge(t.graph, i)
            lower = index.get(canonical_form(contracted)[0])
            if lower is None:
                raise ArgumentError(
                    "contraction left the given type list")
            covers.add((lower, upper))
    folded = tuple(is_folded(t.graph) for t in types)
    return ConePoset(types, tuple(sorted(covers)), folded)


def max_dimension(genus, num_legs) -> int:
    """Largest dimension among the types; cross-checked against 3g-3+n."""
    g, n = int(genus), int(num_legs)
    types = enumerate_types(g, n)
    top = max(t.dimension for t in types)
    expected = 3 * g - 3 + n
    if top != expected:
        raise CrossCheckError(
            f"max dimension {top} disagrees with 3g-3+n = {expected}")
    return top

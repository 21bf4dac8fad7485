"""Tropical Hurwitz covers of an elliptic curve.

The target is a circle with a base point p0 and 2g-2 further marked
positions p1..p_{2g-2} in clockwise order.  A degree-d genus-g cover
has one 3-valent vertex over each position; every edge travels
clockwise from its tail, has a positive weight w, and crosses p0 some
t >= 0 times, so it contributes a = t*w to the degree over p0.  An
edge with t = 0 runs from a lower position to a higher one directly.
At each vertex the clockwise-pointing (outgoing) weights balance the
counterclockwise-pointing (incoming) ones.

Shapes are loop-free 3-valent graphs: a loop at a 3-valent vertex
would force the remaining flag to weight 0, so loop shapes admit no
cover at all.

The edge-data search (_assignments) decides edges one at a time.  The
last open edge at a vertex is not searched: balance forces its weight.

A vertex automorphism sigma of a shape carries the covers of a vertex
order to those of the order sigma o order, with edge k = (u, v) moved
to an edge pi(k) between sigma(u) and sigma(v).  Only the identity
fixes an order, so Aut acts freely and every orbit of orders has |Aut|
members (order_orbits).  Parallel edges may be matched in any way: a
swap of their data is again a cover of the same order.

N_{d,g} has two routes that share no code, checked against each other
by simple_hurwitz_routes: the labeled counts N_{a,Omega} of
labeled_table summed over shapes weighted by 1/|Aut|, and the content
sums of sym_oracle.hurwitz_elliptic.  labeled_table runs one
unconstrained sweep per orbit of vertex orders and buckets its results
by multidegree; count_labeled_covers searches one multidegree alone.
enumerate_elliptic_covers lists the unlabeled covers, of multiplicity
prod(w) / #symmetries, for demos and tests; no count depends on it.
"""

import itertools
import math
from collections import Counter, namedtuple
from fractions import Fraction

from .errors import ArgumentError, CrossCheckError
from .graphs import (Multigraph, automorphism_group_order, automorphisms,
                     enumerate_graphs)
from .sym_oracle import hurwitz_elliptic
from .util import slot_of


def _checked_size(degree, genus):
    """(d, g) as ints once they are valid."""
    d, g = int(degree), int(genus)
    if d < 1:
        raise ArgumentError("degree must be positive")
    if g < 2:
        raise ArgumentError("genus must be at least 2")
    return d, g


class FeynmanGraph(namedtuple("FeynmanGraph", "graph")):
    """A connected loop-free 3-valent graph of genus g >= 2.

    Vertices are x_1..x_{2g-2} (index i is x_{i+1}), edges are
    q_1..q_{3g-3} in the order of the underlying edge list.
    """

    __slots__ = ()

    def __new__(cls, graph: Multigraph):
        if any(u == v for u, v in graph.edges):
            raise ArgumentError("a Feynman graph has no loops")
        if graph.legs or any(gv != 0 for gv in graph.genus):
            raise ArgumentError("a Feynman graph is undecorated")
        if any(graph.valence(v) != 3 for v in range(graph.num_vertices)):
            raise ArgumentError("a Feynman graph is 3-valent")
        if not graph.is_connected():
            raise ArgumentError("a Feynman graph is connected")
        if graph.first_betti() < 2:
            raise ArgumentError("a Feynman graph has genus at least 2")
        return super().__new__(cls, graph)

    @property
    def genus(self) -> int:
        return self.graph.first_betti()

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return len(self.graph.edges)


def trivalent_classes(genus, allow_loops=False):
    """Connected 3-valent multigraphs of given genus, one per class."""
    g = int(genus)
    if g < 2:
        raise ArgumentError("genus must be at least 2")
    num_vertices = 2 * g - 2
    return enumerate_graphs(num_vertices, (3,) * num_vertices,
                            allow_loops=allow_loops)


def enumerate_feynman_graphs(genus):
    """All loop-free shapes of the given genus, canonical and sorted."""
    return [FeynmanGraph(m) for m in trivalent_classes(genus)]


# -- edge data search --------------------------------------------------------

def _assignments(edges, slots, degree, multidegree=None):
    """All balanced edge-data assignments, as lists of (w, t, tail).

    edges are (u, v) vertex pairs; slots maps a vertex to its circle
    position.  With a multidegree, edge k is constrained to t*w =
    multidegree[k]; otherwise any data with total sum(t*w) == degree
    qualifies.  An edge with t = 0 runs from its lower slot to its
    higher one.  Balancing (outgoing weight sum == incoming) holds at
    every vertex, and no vertex may exceed the degree on either side,
    since a fiber of the cover has total weight `degree`.

    Edges are decided in the given order.  The last open edge at a
    vertex does not search its weight: balance forces it (in - out at
    its tail, out - in at its head), and with a > 0 it must divide a.
    """
    num_vertices = len(slots)
    # remaining[x]: flags at x whose edge is still open
    remaining = [sum(e.count(x) for e in edges) for x in range(num_vertices)]
    out_sum = [0] * num_vertices
    in_sum = [0] * num_vertices
    chosen = []

    def weights(tail, head, cap):
        """The weights w <= cap that the edge tail -> head may take."""
        cap = min(cap, degree - out_sum[tail], degree - in_sum[head])
        if tail == head:  # a loop adds w to both sides of its vertex
            if remaining[tail] == 2 and out_sum[tail] != in_sum[tail]:
                return ()
            return range(1, cap + 1)
        forced = None
        if remaining[tail] == 1:
            forced = in_sum[tail] - out_sum[tail]
        if remaining[head] == 1:
            w = out_sum[head] - in_sum[head]
            if forced not in (None, w):
                return ()
            forced = w
        if forced is None:
            return range(1, cap + 1)
        return (forced,) if 1 <= forced <= cap else ()

    def options(index, budget):
        u, v = edges[index]
        a = None if multidegree is None else multidegree[index]
        if u != v and not a:  # t = 0 runs from the lower slot up
            tail, head = (u, v) if slots[u] < slots[v] else (v, u)
            for w in weights(tail, head, degree):
                yield w, 0, tail
        if a == 0:
            return  # a loop always crosses the base point
        for tail, head in ((u, v),) if u == v else ((u, v), (v, u)):
            for w in weights(tail, head, budget if a is None else a):
                if a is None:
                    for t in range(1, budget // w + 1):
                        yield w, t, tail
                elif a % w == 0:
                    yield w, a // w, tail

    def search(index, used):
        if index == len(edges):
            if multidegree is not None or used == degree:
                yield list(chosen)
            return
        u, v = edges[index]
        for w, t, tail in options(index, degree - used):
            head = v if tail == u else u
            out_sum[tail] += w
            in_sum[head] += w
            remaining[u] -= 1
            remaining[v] -= 1
            chosen.append((w, t, tail))
            yield from search(index + 1, used + t * w)
            chosen.pop()
            out_sum[tail] -= w
            in_sum[head] -= w
            remaining[u] += 1
            remaining[v] += 1

    try:
        yield from search(0, 0)
    finally:
        del search  # it refers to itself through this cell: break the cycle


def labeled_cover_assignments(shape: FeynmanGraph, order, multidegree):
    """Admissible (w, t, tail) data per edge for a fixed (order, a)."""
    edges = shape.graph.edges
    if sorted(order) != list(range(shape.num_vertices)):
        raise ArgumentError("order must list every vertex exactly once")
    if len(multidegree) != len(edges):
        raise ArgumentError("multidegree needs one entry per edge")
    if any(a < 0 for a in multidegree):
        raise ArgumentError("multidegree entries are nonnegative")
    degree = sum(multidegree)
    if degree == 0:
        return
    yield from _assignments(edges, slot_of(order), degree, multidegree)


def count_labeled_covers(shape: FeynmanGraph, order, multidegree) -> int:
    """N_{a,Omega}: weighted labeled covers with the given multidegree."""
    return sum(math.prod(w for w, _, _ in data)
               for data in labeled_cover_assignments(shape, order,
                                                     multidegree))


# -- unlabeled covers --------------------------------------------------------

class EllipticCover(namedtuple("EllipticCover", "genus edges")):
    """An isomorphism class of covers, as decorated edges on positions.

    edges holds sorted tuples (tail_position, head_position, weight,
    crossings); positions are 0-based clockwise from the base point.
    """

    __slots__ = ()

    @property
    def num_positions(self) -> int:
        return 2 * self.genus - 2

    @property
    def degree(self) -> int:
        return sum(w * t for _, _, w, t in self.edges)

    def weight_product(self) -> int:
        return math.prod(w for _, _, w, _ in self.edges)

    def multiplicity(self) -> Fraction:
        """prod(w) over the symmetries permuting identical edges."""
        sym = math.prod(math.factorial(c)
                        for c in Counter(self.edges).values())
        return Fraction(self.weight_product(), sym)


def enumerate_elliptic_covers(degree, genus):
    """All isomorphism classes of degree-d genus-g covers of the circle.

    Produced by sweeping shapes, vertex orders, and edge data, then
    deduplicating on the decorated position graph; a relabeling of the
    source induces exactly this identification.
    """
    d, g = _checked_size(degree, genus)
    found = {}
    for shape in enumerate_feynman_graphs(g):
        edges = shape.graph.edges
        for order in itertools.permutations(range(shape.num_vertices)):
            slots = slot_of(order)
            for data in _assignments(edges, slots, d):
                key = tuple(sorted(
                    (slots[tail], slots[v if tail == u else u], w, t)
                    for (u, v), (w, t, tail) in zip(edges, data)))
                found[key] = EllipticCover(g, key)
    return sorted(found.values(), key=lambda c: c.edges)


def order_orbits(graph: Multigraph):
    """Vertex orders of graph up to its vertex automorphisms.

    Returns {rep: [(order, pi), ...]}, one entry per orbit, where rep is
    the orbit's first order in permutations order.  Each member order
    is sigma o rep for one vertex automorphism sigma, and pi[k] is the
    edge between sigma(u) and sigma(v) for edge k = (u, v): a cover of
    rep with data a becomes a cover of order with data a'[pi[k]] = a[k].
    Parallel edges are matched as a multiset, in edge-list order.
    """
    edges = graph.edges
    between = {}
    for k, e in enumerate(edges):
        between.setdefault(e, []).append(k)
    moves = []
    for sigma in automorphisms(graph):
        free = {e: iter(ks) for e, ks in between.items()}
        moves.append((sigma, [next(free[tuple(sorted((sigma[u], sigma[v])))])
                              for u, v in edges]))
    orbits = {}
    for rep in itertools.permutations(range(graph.num_vertices)):
        orbit = [(tuple(sigma[x] for x in rep), pi) for sigma, pi in moves]
        if min(order for order, _ in orbit) == rep:
            orbits[rep] = orbit
    return orbits


def labeled_table(degree, genus):
    """N_{a,Omega} for every shape, vertex order and multidegree.

    One row (shape, |Aut|, orders) per shape; orders holds (order,
    counts) for each vertex order in permutations order, and counts the
    nonzero (multidegree, N_{a,Omega}) pairs in the order of
    compositions_of.  The first order of each Aut-orbit takes one
    unconstrained _assignments sweep whose results are bucketed by their
    multidegree (t*w per edge), so no search runs for a multidegree that
    admits no cover.  The other orders of the orbit get these buckets
    and counts moved through their edge maps pi (see order_orbits).
    """
    d, g = _checked_size(degree, genus)
    rows = []
    for shape in enumerate_feynman_graphs(g):
        edges = shape.graph.edges
        by_order = {}
        for rep, orbit in order_orbits(shape.graph).items():
            buckets = Counter()
            for data in _assignments(edges, slot_of(rep), d):
                buckets[tuple(w * t for w, t, _ in data)] += math.prod(
                    w for w, _, _ in data)
            for order, pi in orbit:
                back = slot_of(pi)  # back[pi[k]] = k
                # sorted is the order of compositions_of: lexicographic
                by_order[order] = sorted((tuple(a[k] for k in back), count)
                                         for a, count in buckets.items())
        # permutations come in lexicographic order
        orders = sorted(by_order.items())
        rows.append((shape, automorphism_group_order(shape.graph), orders))
    return rows


def _labeled_total(orders):
    return sum(count for _, counts in orders for _, count in counts)


def labeled_aggregate(degree, genus):
    """Per-shape labeled totals: [(shape, |Aut|, sum over orders and a)]."""
    return [(shape, aut, _labeled_total(orders))
            for shape, aut, orders in labeled_table(degree, genus)]


def simple_hurwitz_routes(degree, genus):
    """N_{d,g} and the labeled_table it was computed from.

    The labeled route sums each shape's labeled total over |Aut|; the
    content sums of hurwitz_elliptic must give the same number.
    """
    table = labeled_table(degree, genus)
    labeled = sum((Fraction(_labeled_total(orders), aut)
                   for _, aut, orders in table), Fraction(0))
    oracle = hurwitz_elliptic(degree, genus)
    if labeled != oracle:
        raise CrossCheckError(
            f"labeled aggregation gives {labeled} but the S_d monodromy "
            f"count gives {oracle} for degree {degree}, genus {genus}")
    return labeled, table


def simple_hurwitz_tropical(degree, genus) -> Fraction:
    """N_{d,g}, cross-checked by simple_hurwitz_routes."""
    return simple_hurwitz_routes(degree, genus)[0]

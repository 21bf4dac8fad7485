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
cover at all (loop_graphs_admit_no_cover verifies this directly).

The count N_{d,g} is computed twice: by enumerating unlabeled covers
with multiplicity prod(w) / #symmetries, and by aggregating labeled
cover counts N_{a,Omega} over shapes weighted by 1/|Aut|.  The two
routes must agree.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArgumentError, CrossCheckError, SizeGuardError
from .graphs import (Multigraph, automorphism_group_order, enumerate_graphs,
                     local_rh_defect)
from .util import compositions_of

DEGREE_GUARD = 5
GENUS_GUARD = 3


def _check_size(degree, genus, force):
    if degree > DEGREE_GUARD or genus > GENUS_GUARD:
        if not force:
            raise SizeGuardError(
                f"degree {degree}, genus {genus} exceeds the guard "
                f"(degree <= {DEGREE_GUARD}, genus <= {GENUS_GUARD}); "
                "pass force=True to run anyway")


@dataclass(frozen=True)
class FeynmanGraph:
    """A connected loop-free 3-valent graph of genus g >= 2.

    Vertices are x_1..x_{2g-2} (index i is x_{i+1}), edges are
    q_1..q_{3g-3} in the order of the underlying edge list.
    """

    graph: Multigraph

    def __post_init__(self):
        g = self.graph
        if any(u == v for u, v in g.edges):
            raise ArgumentError("a Feynman graph has no loops")
        if g.legs or any(gv != 0 for gv in g.genus):
            raise ArgumentError("a Feynman graph is undecorated")
        if any(g.valence(v) != 3 for v in range(g.num_vertices)):
            raise ArgumentError("a Feynman graph is 3-valent")
        if not g.is_connected():
            raise ArgumentError("a Feynman graph is connected")
        if g.first_betti() < 2:
            raise ArgumentError("a Feynman graph has genus at least 2")

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

def _assignments(edges, slot_of, degree, multidegree=None):
    """All balanced edge-data assignments, as lists of (w, t, tail).

    edges are (u, v) vertex pairs; slot_of maps a vertex to its circle
    position.  With a multidegree, edge k is constrained to t*w =
    multidegree[k]; otherwise any data with total sum(t*w) == degree
    qualifies.  Balancing (outgoing weight sum == incoming) is enforced
    at every vertex, and no vertex may exceed the degree on either
    side, since a fiber of the cover has total weight `degree`.
    """
    num_vertices = len(slot_of)
    remaining = [0] * num_vertices
    for u, v in edges:
        remaining[u] += 1
        remaining[v] += 1
    out_sum = [0] * num_vertices
    in_sum = [0] * num_vertices
    chosen = []

    def options(index, budget):
        u, v = edges[index]
        if multidegree is not None:
            a = multidegree[index]
            if a == 0:
                if u == v:
                    return  # a loop always crosses the base point
                tail = u if slot_of[u] < slot_of[v] else v
                for w in range(1, degree + 1):
                    yield w, 0, tail
            else:
                for w in range(1, a + 1):
                    if a % w:
                        continue
                    yield w, a // w, u
                    if u != v:
                        yield w, a // w, v
            return
        if u != v:
            tail = u if slot_of[u] < slot_of[v] else v
            for w in range(1, degree + 1):
                yield w, 0, tail
        for w in range(1, budget + 1):
            for t in range(1, budget // w + 1):
                yield w, t, u
                if u != v:
                    yield w, t, v

    def search(index, used):
        if index == len(edges):
            if multidegree is None and used != degree:
                return
            yield list(chosen)
            return
        u, v = edges[index]
        for w, t, tail in options(index, degree - used):
            head = v if tail == u else u
            if out_sum[tail] + w > degree or in_sum[head] + w > degree:
                continue
            out_sum[tail] += w
            in_sum[head] += w
            remaining[u] -= 1
            remaining[v] -= 1
            balanced = all(
                remaining[x] > 0 or out_sum[x] == in_sum[x]
                for x in {u, v})
            if balanced:
                chosen.append((w, t, tail))
                yield from search(index + 1, used + t * w)
                chosen.pop()
            out_sum[tail] -= w
            in_sum[head] -= w
            remaining[u] += 1
            remaining[v] += 1

    yield from search(0, 0)


def labeled_cover_assignments(shape: FeynmanGraph, order, multidegree):
    """Admissible (w, t, tail) data per edge for a fixed (order, a)."""
    edges = shape.graph.edges
    num_vertices = shape.num_vertices
    if sorted(order) != list(range(num_vertices)):
        raise ArgumentError("order must list every vertex exactly once")
    if len(multidegree) != len(edges):
        raise ArgumentError("multidegree needs one entry per edge")
    if any(a < 0 for a in multidegree):
        raise ArgumentError("multidegree entries are nonnegative")
    degree = sum(multidegree)
    if degree == 0:
        return
    slot_of = [0] * num_vertices
    for slot, vertex in enumerate(order):
        slot_of[vertex] = slot
    yield from _assignments(edges, slot_of, degree, multidegree)


def count_labeled_covers(shape: FeynmanGraph, order, multidegree) -> int:
    """N_{a,Omega}: weighted labeled covers with the given multidegree."""
    total = 0
    for data in labeled_cover_assignments(shape, order, multidegree):
        total += math.prod(w for w, _, _ in data)
    return total


# -- unlabeled covers --------------------------------------------------------

@dataclass(frozen=True)
class EllipticCover:
    """An isomorphism class of covers, as decorated edges on positions.

    edges holds sorted tuples (tail_position, head_position, weight,
    crossings); positions are 0-based clockwise from the base point.
    """

    genus: int
    edges: tuple

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
        counts = {}
        for e in self.edges:
            counts[e] = counts.get(e, 0) + 1
        sym = math.prod(math.factorial(c) for c in counts.values())
        return Fraction(self.weight_product(), sym)

    def reflected(self) -> "EllipticCover":
        """The mirror cover: the circle traversed the other way."""
        n = self.num_positions
        flipped = tuple(sorted(
            (n - 1 - head, n - 1 - tail, w, t)
            for tail, head, w, t in self.edges))
        return EllipticCover(self.genus, flipped)

    def validate(self):
        n = self.num_positions
        flags = {p: [] for p in range(n)}
        for tail, head, w, t in self.edges:
            if not (0 <= tail < n and 0 <= head < n):
                raise ArgumentError("edge endpoint out of range")
            if w < 1 or t < 0:
                raise ArgumentError("edge data out of range")
            if t == 0 and tail >= head:
                raise ArgumentError(
                    "an uncurled edge runs from lower to higher position")
            flags[tail].append(("out", w))
            flags[head].append(("in", w))
        for p in range(n):
            if len(flags[p]) != 3:
                raise ArgumentError(f"position {p} is not 3-valent")
            out = sum(w for side, w in flags[p] if side == "out")
            inc = sum(w for side, w in flags[p] if side == "in")
            if out != inc:
                raise ArgumentError(f"position {p} is unbalanced")
            weights = [w for _, w in flags[p]]
            if local_rh_defect(out, 0, 0, weights) != 1:
                raise ArgumentError(f"position {p} has wrong local defect")
        graph = Multigraph(n, [(min(t_, h), max(t_, h))
                               for t_, h, _, _ in self.edges])
        if not graph.is_connected():
            raise ArgumentError("cover source is disconnected")
        if graph.first_betti() != self.genus:
            raise ArgumentError("cover source has wrong first Betti number")


def enumerate_elliptic_covers(degree, genus, force=False):
    """All isomorphism classes of degree-d genus-g covers of the circle.

    Produced by sweeping shapes, vertex orders, and edge data, then
    deduplicating on the decorated position graph; a relabeling of the
    source induces exactly this identification.
    """
    d, g = int(degree), int(genus)
    if d < 1:
        raise ArgumentError("degree must be positive")
    if g < 2:
        raise ArgumentError("genus must be at least 2")
    _check_size(d, g, force)
    found = {}
    for shape in enumerate_feynman_graphs(g):
        edges = shape.graph.edges
        for order in itertools.permutations(range(shape.num_vertices)):
            slot_of = [0] * shape.num_vertices
            for slot, vertex in enumerate(order):
                slot_of[vertex] = slot
            for data in _assignments(edges, slot_of, d):
                key = tuple(sorted(
                    (slot_of[tail], slot_of[v if tail == u else u], w, t)
                    for (u, v), (w, t, tail) in zip(edges, data)))
                found[key] = EllipticCover(g, key)
    covers = sorted(found.values(), key=lambda c: c.edges)
    return covers


def labeled_aggregate(degree, genus, force=False):
    """Per-shape labeled totals: [(shape, |Aut|, sum over orders and a)]."""
    d, g = int(degree), int(genus)
    if d < 1:
        raise ArgumentError("degree must be positive")
    if g < 2:
        raise ArgumentError("genus must be at least 2")
    _check_size(d, g, force)
    rows = []
    for shape in enumerate_feynman_graphs(g):
        aut = automorphism_group_order(shape.graph)
        total = 0
        num_edges = shape.num_edges
        for order in itertools.permutations(range(shape.num_vertices)):
            for multidegree in compositions_of(d, num_edges):
                total += count_labeled_covers(shape, order, multidegree)
        rows.append((shape, aut, total))
    return rows


def simple_hurwitz_tropical(degree, genus, force=False) -> Fraction:
    """N_{d,g}: the weighted count of degree-d genus-g covers.

    Computed by direct enumeration and by the labeled aggregation
    sum over shapes of 1/|Aut| sum over orders and multidegrees;
    the routes must agree.
    """
    covers = enumerate_elliptic_covers(degree, genus, force)
    direct = sum((c.multiplicity() for c in covers), Fraction(0))
    labeled = sum((Fraction(total, aut)
                   for _, aut, total in labeled_aggregate(degree, genus,
                                                          force)),
                  Fraction(0))
    if direct != labeled:
        raise CrossCheckError(
            f"cover enumeration gives {direct} but labeled aggregation "
            f"gives {labeled} for degree {degree}, genus {genus}")
    return direct


def loop_graphs_admit_no_cover(degree, genus, force=False) -> bool:
    """Check that every 3-valent shape with a loop admits no cover.

    Balancing at a loop's vertex forces the third flag to weight 0, so
    the expected answer is always True; the search is still performed.
    """
    d, g = int(degree), int(genus)
    if d < 1:
        raise ArgumentError("degree must be positive")
    if g < 2:
        raise ArgumentError("genus must be at least 2")
    _check_size(d, g, force)
    loop_shapes = [m for m in trivalent_classes(g, allow_loops=True)
                   if any(u == v for u, v in m.edges)]
    for shape in loop_shapes:
        for order in itertools.permutations(range(shape.num_vertices)):
            slot_of = [0] * shape.num_vertices
            for slot, vertex in enumerate(order):
                slot_of[vertex] = slot
            for _ in _assignments(shape.edges, slot_of, d):
                return False
    return len(loop_shapes) > 0

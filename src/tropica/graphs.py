"""Multigraphs with half-edge semantics.

A graph is stored as an ordered list of edges (unordered vertex pairs,
loops allowed), an ordered list of legs (labeled half-edges attached to
a single vertex), and a genus decoration per vertex.  Conceptually each
edge is a pair of half-edges glued together and each leg is an unglued
half-edge; loops count 2 toward valence, legs count 1.

The module provides canonical forms, automorphism counting, enumeration
of isomorphism classes with prescribed valences, and edge contraction.
Everything is exact integer combinatorics.

Canonical labelling is one depth-first branch-and-bound search, _search,
over the relabelings that keep the refined vertex color classes in
order; canonical_form and automorphisms both read their answer off it,
so the canonical form comes with its automorphisms at no further search.
Enumeration fills multiplicity matrices row by row with interchangeable
vertices kept in order, so it labels about one graph per class.
"""

from collections import namedtuple

from .errors import ArgumentError, LoopContractionError
from .util import slot_of


class Multigraph(namedtuple("Multigraph", "num_vertices edges legs genus")):
    """Immutable multigraph with ordered edges, legs, and vertex genus.

    edges: sequence of (u, v) vertex pairs, stored with u <= v, order kept.
    legs:  sequence of (vertex, label); label 0 means unlabeled, positive
           labels must be pairwise distinct.  Mixing labeled and unlabeled
           legs is rejected.
    genus: one nonnegative integer per vertex (default all zero).
    """

    __slots__ = ()

    def __new__(cls, num_vertices, edges=(), legs=(), genus=None):
        n = int(num_vertices)
        if n < 1:
            raise ArgumentError("a graph needs at least one vertex")
        norm_edges = []
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < n and 0 <= v < n):
                raise ArgumentError(f"edge endpoint out of range: {e!r}")
            norm_edges.append((u, v) if u <= v else (v, u))
        norm_legs = []
        for item in legs:
            v, label = int(item[0]), int(item[1])
            if not 0 <= v < n:
                raise ArgumentError(f"leg vertex out of range: {item!r}")
            if label < 0:
                raise ArgumentError("leg labels must be nonnegative")
            norm_legs.append((v, label))
        labels = [label for _, label in norm_legs if label > 0]
        if labels and len(labels) != len(norm_legs):
            raise ArgumentError("legs must be all labeled or all unlabeled")
        if len(set(labels)) != len(labels):
            raise ArgumentError("leg labels must be distinct")
        if genus is None:
            norm_genus = (0,) * n
        else:
            norm_genus = tuple(int(x) for x in genus)
            if len(norm_genus) != n:
                raise ArgumentError("genus list length must match vertex count")
            if any(x < 0 for x in norm_genus):
                raise ArgumentError("vertex genus must be nonnegative")
        g = cls._trusted(n, tuple(norm_edges), tuple(norm_legs), norm_genus)
        # every vertex carries a half-edge, except a lone decorated vertex
        if n > 1 and min(g.valences()) == 0:
            raise ArgumentError("isolated vertex in a multi-vertex graph")
        return g

    @classmethod
    def _trusted(cls, num_vertices, edges, legs, genus):
        """The graph of four tuples that are valid by construction."""
        return tuple.__new__(cls, (num_vertices, edges, legs, genus))

    # -- basic counts ---------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_legs(self) -> int:
        return len(self.legs)

    def valences(self):
        """Half-edges per vertex, in one pass: loops count twice, legs once."""
        deg = [0] * self.num_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        for v, _ in self.legs:
            deg[v] += 1
        return tuple(deg)

    def multiplicities(self):
        """Dict (u, v) with u <= v -> number of parallel edges (or loops)."""
        m = {}
        for e in self.edges:
            m[e] = m.get(e, 0) + 1
        return m

    def is_connected(self) -> bool:
        n = self.num_vertices
        if n == 1:
            return True
        adj = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == n

    def first_betti(self) -> int:
        """Cycle rank; the graph must be connected."""
        if not self.is_connected():
            raise ArgumentError("first Betti number needs a connected graph")
        return self.num_edges - self.num_vertices + 1

    def total_genus(self) -> int:
        return self.first_betti() + sum(self.genus)

    def relabeled(self, perm):
        """Apply a vertex permutation (perm[old] = new), keeping edge order."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.num_vertices)):
            raise ArgumentError("not a vertex permutation")
        edges = [(perm[u], perm[v]) for u, v in self.edges]
        legs = [(perm[v], label) for v, label in self.legs]
        genus = [0] * self.num_vertices
        for v, gv in enumerate(self.genus):
            genus[perm[v]] = gv
        return Multigraph(self.num_vertices, edges, legs, genus)


# -- serialization -------------------------------------------------------

def serialize(g: Multigraph) -> str:
    """Plain text encoding; round-trips bit-exactly through parse_graph.

    Header 'V <n> E <m> L <k>', then one 'e <u> <v>' line per edge in
    order, one 'l <v> <label>' line per leg in order, and one
    'g <v> <genus>' line per positive-genus vertex in vertex order.
    Vertex indices are 0-based.
    """
    lines = [f"V {g.num_vertices} E {g.num_edges} L {g.num_legs}"]
    for u, v in g.edges:
        lines.append(f"e {u} {v}")
    for v, label in g.legs:
        lines.append(f"l {v} {label}")
    for v, gv in enumerate(g.genus):
        if gv > 0:
            lines.append(f"g {v} {gv}")
    return "\n".join(lines) + "\n"


def _quoted(line):
    """The line in quotes, cut after 40 characters so that an error stays
    short however long the line is."""
    return repr(line) if len(line) <= 40 else repr(line[:40]) + "..."


def parse_graph(text: str) -> Multigraph:
    """Inverse of serialize; raises ArgumentError on malformed input."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ArgumentError("empty graph text")
    head = lines[0].split()
    if len(head) != 6 or head[0] != "V" or head[2] != "E" or head[4] != "L":
        raise ArgumentError(f"bad header line: {_quoted(lines[0])}")
    try:
        n, m, k = int(head[1]), int(head[3]), int(head[5])
    except ValueError as exc:
        raise ArgumentError(f"bad header counts: {_quoted(lines[0])}") \
            from exc
    edges, legs, genera = [], [], {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ArgumentError(f"bad graph line: {_quoted(ln)}")
        tag = parts[0]
        if tag not in ("e", "l", "g"):
            raise ArgumentError(f"unknown line tag: {_quoted(ln)}")
        try:
            a, b = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ArgumentError(f"bad graph line: {_quoted(ln)}") from exc
        if not 0 <= a < n or tag == "e" and not 0 <= b < n:
            raise ArgumentError(f"vertex out of range: {_quoted(ln)}")
        if tag == "e":
            edges.append((a, b))
        elif tag == "l":
            legs.append((a, b))
        elif genera.get(a, 0) != 0:
            raise ArgumentError(f"duplicate genus line: {_quoted(ln)}")
        else:
            genera[a] = b
    if len(edges) != m or len(legs) != k:
        raise ArgumentError("edge or leg count does not match header")
    if n > max(1, 2 * m + k):  # past one vertex, each needs a half-edge
        raise ArgumentError(f"header {_quoted(lines[0])} has more vertices "
                            f"than its {2 * m + k} half-edges: some vertex "
                            "is isolated")
    return Multigraph(n, edges, legs, [genera.get(v, 0) for v in range(n)])


# -- canonical form and automorphisms ------------------------------------

def _ranks(keys):
    """Replace each key by the rank of its value among the distinct keys."""
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


def _adjacency(g: Multigraph):
    """Loops per vertex, and (neighbor, multiplicity) lists per vertex."""
    loops = [0] * g.num_vertices
    nbrs = [[] for _ in range(g.num_vertices)]
    for (a, b), m in g.multiplicities().items():
        if a == b:
            loops[a] = m
        else:
            nbrs[a].append((b, m))
            nbrs[b].append((a, m))
    return loops, nbrs


def _refined_colors(g: Multigraph):
    """Stable vertex coloring refined by neighbor colors.

    Returns a list of integer colors; the integers order color classes
    canonically (they are ranks of sorted invariant keys).
    """
    n = g.num_vertices
    valence = g.valences()
    loops, nbrs = _adjacency(g)
    labels = [[] for _ in range(n)]
    for v, label in g.legs:
        labels[v].append(label)
    colors = _ranks([
        (g.genus[v], valence[v], loops[v], tuple(sorted(labels[v])))
        for v in range(n)
    ])
    # a discrete coloring ranks to itself in the next round
    if len(set(colors)) == n:
        return colors
    while True:
        new_colors = _ranks([
            (colors[v], tuple(sorted((colors[w], m) for w, m in nbrs[v])))
            for v in range(n)
        ])
        if new_colors == colors:
            return colors
        colors = new_colors


def _signature(g: Multigraph, perm):
    genus = [0] * g.num_vertices
    for v, gv in enumerate(g.genus):
        genus[perm[v]] = gv
    edges = sorted(
        (perm[u], perm[v]) if perm[u] <= perm[v] else (perm[v], perm[u])
        for u, v in g.edges
    )
    legs = sorted((perm[v], label) for v, label in g.legs)
    return (g.num_vertices, tuple(genus), tuple(edges), tuple(legs))


def _search(g: Multigraph):
    """The least signature of g and every permutation that reaches it.

    Returns (signature, ties) with ties in search order.  Refined colors
    are invariant under isomorphism, so every automorphism maps each
    color class to itself and the ties are exactly best o Aut(g), where
    best = ties[0].

    The relabelings searched keep the color classes in order: each class
    takes the next block of new labels, in every order of its vertices.
    Genus and legs are part of the colors, so only the sorted edge list
    tells two of them apart.  New labels 0, 1, ... are given depth first,
    in the order of the product of the classes' permutations.  A branch
    is cut once the fixed start of its sorted edge list is greater than
    the least list found so far, or equal to it with the next edge
    already known to sort after the least list's.  Only lists greater
    than the least are cut, so every tie is still reached, in product
    order.
    """
    colors = _refined_colors(g)
    n = g.num_vertices
    if len(set(colors)) == n:  # discrete: the ranks are the labels
        perm = tuple(colors)
        return _signature(g, perm), [perm]
    groups = {}
    for v in range(n):
        groups.setdefault(colors[v], []).append(v)
    block = []  # block[p]: the vertices that may take new label p
    for c in sorted(groups):
        block.extend([groups[c]] * len(groups[c]))
    loops, nbrs = _adjacency(g)

    # Edge (a, b), a <= b in new labels, is coded a * n + b, which sorts
    # like the pair.  rows[a] holds the codes fixed so far in row a of the
    # sorted list; open_ends[a] counts its edges to unplaced vertices,
    # whose codes are still unknown.  Rows before `head` are complete, so
    # they and the first `taken` codes of rows[head] form `prefix`, the
    # fixed start of the sorted list.
    pos = [-1] * n
    rows = [[] for _ in range(n)]
    open_ends = [0] * n
    prefix = []
    head = taken = 0
    best, ties = None, []

    def descend(p, eq):
        # eq: prefix equals the start of best
        nonlocal head, taken, best, ties
        if p == n:
            if eq:
                ties.append(tuple(pos))
            else:
                best, ties = prefix[:], [tuple(pos)]
            return
        for v in block[p]:
            if pos[v] >= 0:
                continue
            pos[v] = p
            rows[p].extend([p * n + p] * loops[v])
            placed = []
            for w, m in nbrs[v]:
                a = pos[w]
                if a < 0:
                    open_ends[p] += m
                else:
                    rows[a].extend([a * n + p] * m)
                    open_ends[a] -= m
                    placed.append((a, m))
            saved = len(prefix), head, taken
            while head <= p:
                row = rows[head]
                prefix.extend(row[taken:])
                if open_ends[head]:
                    taken = len(row)
                    break
                head += 1
                taken = 0
            child_eq = cut = False
            if best is not None and eq:
                k = len(prefix)
                fixed, known = prefix[saved[0]:], best[saved[0]:k]
                child_eq = fixed == known
                cut = fixed > known
                # the next code is at least (head, p + 1) in an open row,
                # or (p + 1, p + 1) once every placed row is complete
                if child_eq and k < len(best):
                    cut = best[k] < (head * n + p + 1 if head <= p
                                     else (p + 1) * (n + 1))
            if not cut:
                before = best
                descend(p + 1, child_eq)
                if best is not before:
                    eq = True
            del prefix[saved[0]:]
            _, head, taken = saved
            for a, m in placed:
                del rows[a][-m:]
                open_ends[a] += m
            rows[p].clear()
            open_ends[p] = 0
            pos[v] = -1

    descend(0, False)
    del descend  # it refers to itself through this cell: break the cycle
    return _signature(g, ties[0]), ties


def canonical_form(g: Multigraph):
    """Canonical representative, a relabeling that reaches it, and the
    representative's automorphisms.

    Returns (canonical_graph, perm, auts) with perm[old] = new such that
    g.relabeled(perm) equals canonical_graph up to edge and leg order;
    the canonical graph stores edges and legs sorted.  Two graphs are
    isomorphic exactly when their canonical graphs are equal.  auts
    lists the vertex permutations of canonical_graph that preserve its
    edges, legs and genus, as automorphisms(canonical_graph) would, but
    read off the same search: each tie p gives p o perm^-1.
    """
    (n, genus, edges, legs), ties = _search(g)
    best = ties[0]
    back = slot_of(best)
    auts = [tuple(p[x] for x in back) for p in ties]
    return Multigraph._trusted(n, edges, legs, genus), best, auts


def canonical_key(g: Multigraph) -> str:
    """Serialized canonical form; equal strings mean isomorphic graphs."""
    return serialize(canonical_form(g)[0])


def automorphisms(g: Multigraph):
    """All vertex permutations preserving edges, legs, and genus.

    Read off the canonical-form search: each tie p gives best^-1 o p.
    Half-edge symmetries (loop flips, parallel edge swaps, unlabeled leg
    swaps) are not enumerated here; automorphism_group_order accounts
    for them by a product of local factors.
    """
    _, ties = _search(g)
    back = slot_of(ties[0])
    return [tuple(back[w] for w in perm) for perm in ties]


def automorphism_group_order(g: Multigraph) -> int:
    """Order of the half-edge automorphism group.

    Valid vertex permutations times, independently per fiber: parallel
    edge swaps m!, loop swaps and flips l! * 2^l, unlabeled leg swaps u!.
    """
    import math

    total = len(automorphisms(g))
    for (u, v), m in g.multiplicities().items():
        if u == v:
            total *= math.factorial(m) * 2 ** m
        else:
            total *= math.factorial(m)
    if g.legs and g.legs[0][1] == 0:
        per_vertex = {}
        for v, _ in g.legs:
            per_vertex[v] = per_vertex.get(v, 0) + 1
        for count in per_vertex.values():
            total *= math.factorial(count)
    return total


# -- enumeration ----------------------------------------------------------

def _edge_lists(degrees, allow_loops, allow_parallel):
    """Yield the sorted edge list of each upper triangular multiplicity
    matrix with the given valences (non-increasing) whose twins are in
    order, filled as enumerate_graphs describes; loops sit on the
    diagonal and count 2 toward their vertex."""
    n = len(degrees)
    rem = list(degrees)
    rows = [[0] * n for _ in range(n)]
    edges = []

    def fill(u, v, twins):
        # twins[w]: w - 1 and w are twins while row u is filled
        row = rows[u]
        if v == n:
            if rem[u]:
                return
            if u + 1 == n:
                yield tuple(edges)
                return
            yield from fill(u + 1, u + 1, [
                t and row[w - 1] == row[w] for w, t in enumerate(twins)])
            return
        most = min(rem[u], rem[v])
        if v == u:
            most = most // 2 if allow_loops else 0
        elif not allow_parallel:
            most = min(most, 1)
        if v > u + 1 and twins[v]:
            most = min(most, row[v - 1])
        for m in range(most + 1):
            row[v] = m
            rem[u] -= m  # a loop takes 2 from rem[u]
            rem[v] -= m
            edges.extend([(u, v)] * m)
            yield from fill(u, v + 1, twins)
            del edges[len(edges) - m:]
            rem[u] += m
            rem[v] += m

    try:
        yield from fill(0, 0, [v > 0 and degrees[v - 1] == degrees[v]
                               for v in range(n)])
    finally:
        del fill  # it refers to itself through this cell: break the cycle


def enumerate_graphs(num_vertices, degree_sequence, *, allow_loops=False,
                     allow_parallel=True):
    """Connected multigraphs up to isomorphism with given valences.

    degree_sequence lists one valence per vertex (order irrelevant).
    Returns canonical representatives sorted by canonical key.

    The upper triangular multiplicity matrix is filled row by row, each
    row left to right, with vertices in order of non-increasing valence.
    While row u is filled, two later vertices v - 1 < v with equal
    valences and equal edges to every earlier row are twins, and (u, v - 1)
    takes at least as many edges as (u, v).  Swapping twins changes no
    earlier row, so sorting each twin block by its row-u entries, row
    after row, turns any labelling of a graph into one that is generated:
    every class is reached, and few are reached twice.  Each connected
    matrix is labelled by canonical_form, which merges the copies.
    """
    n = int(num_vertices)
    if n < 0:
        raise ArgumentError("vertex count must be nonnegative")
    if n == 0:
        return []
    degrees = sorted((int(d) for d in degree_sequence), reverse=True)
    if len(degrees) != n:
        raise ArgumentError("degree sequence length must match vertex count")
    if degrees and degrees[-1] < 0:
        raise ArgumentError("valences must be nonnegative")
    if sum(degrees) % 2 != 0:
        return []

    reps = set()
    for edges in _edge_lists(degrees, allow_loops, allow_parallel):
        # past one vertex, a vertex of valence 0 leaves g disconnected
        g = Multigraph._trusted(n, edges, (), (0,) * n)
        if g.is_connected():
            reps.add(canonical_form(g)[0])
    return sorted(reps, key=serialize)


# -- contraction ----------------------------------------------------------

def contract_edge(g: Multigraph, edge_index: int) -> Multigraph:
    """Contract a non-loop edge, merging its endpoints.

    The merged vertex keeps the smaller index and the two genera add.
    Edge order is preserved (with the contracted edge removed), so the
    first Betti number is unchanged.  Loops are rejected; see
    contract_loop for the genus-raising convention.
    """
    if not 0 <= edge_index < g.num_edges:
        raise ArgumentError(f"no edge with index {edge_index}")
    u, v = g.edges[edge_index]
    if u == v:
        raise LoopContractionError("cannot contract a loop edge this way")

    deg = g.valences()
    if g.num_vertices > 2 and deg[u] + deg[v] == 2:
        raise ArgumentError("isolated vertex in a multi-vertex graph")

    def remap(x):
        if x == v:
            return u
        return x - 1 if x > v else x

    edges = []
    for i, (a, b) in enumerate(g.edges):
        if i != edge_index:
            a, b = remap(a), remap(b)  # (a, v) with u < a comes out reversed
            edges.append((a, b) if a <= b else (b, a))
    legs = tuple((remap(w), label) for w, label in g.legs)
    genus = list(g.genus)
    genus[u] += genus[v]
    del genus[v]
    return Multigraph._trusted(g.num_vertices - 1, tuple(edges), legs,
                               tuple(genus))


def contract_loop(g: Multigraph, edge_index: int) -> Multigraph:
    """Remove a loop edge and raise its vertex genus by 1.

    This is the contraction convention for cycles collapsing to a point:
    the total genus (first Betti number plus vertex genera) is preserved.
    """
    if not 0 <= edge_index < g.num_edges:
        raise ArgumentError(f"no edge with index {edge_index}")
    u, v = g.edges[edge_index]
    if u != v:
        raise ArgumentError("contract_loop needs a loop edge")
    if g.num_vertices > 1 and g.valences()[u] == 2:
        raise ArgumentError("isolated vertex in a multi-vertex graph")
    edges = g.edges[:edge_index] + g.edges[edge_index + 1:]
    genus = list(g.genus)
    genus[u] += 1
    return Multigraph._trusted(g.num_vertices, edges, g.legs, tuple(genus))

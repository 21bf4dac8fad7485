"""A graph complex on loop-free graphs of minimum valence 3.

Generators are pairs (graph, total edge order) subject to the sign
relation: isomorphic generators are identified up to the parity of the
induced edge permutation.  A graph carrying two parallel edges is zero
(swapping the pair is an automorphism inducing an odd permutation), as
is any graph with an automorphism acting oddly on edges.

The differential contracts one edge at a time with alternating signs;
contractions that would create a loop leave the complex and are
dropped.  Homology dimensions come from exact ranks of the integer
boundary matrices, found by fraction-free integer elimination; that
rank is the rank over the rationals.
"""

from .errors import ArgumentError
from .graphs import (Multigraph, canonical_form, contract_edge,
                     enumerate_graphs, parse_graph, serialize)
from .util import cycle_type, partitions_of, reduce_row

def _perm_sign(perm) -> int:
    """+1 or -1: a permutation's parity is that of n minus its cycle count."""
    return -1 if (len(perm) - len(cycle_type(perm))) % 2 else 1


def normalize(graph: Multigraph, edge_order):
    """Canonical generator key and sign for (graph, edge order).

    Returns (key, sign) with sign in {1, -1, 0}; the key serializes the
    canonical form, whose sorted edge list is the reference order.
    Sign 0 means the generator is zero: the graph has a parallel pair,
    or some automorphism permutes the edges oddly.
    """
    edges = graph.edges
    n = len(edges)
    if any(u == v for u, v in edges):
        raise ArgumentError("generators are loop-free")
    if min(graph.valences()) < 3:
        raise ArgumentError("generators have minimum valence 3")
    if not graph.is_connected():
        raise ArgumentError("generators are connected")
    if graph.legs or any(gv != 0 for gv in graph.genus):
        raise ArgumentError("generators are undecorated")
    order = tuple(edge_order)
    if sorted(order) != list(range(n)):
        raise ArgumentError("edge order must list every edge exactly once")

    canonical, relabel, auts = canonical_form(graph)
    key = serialize(canonical)
    if any(m >= 2 for m in canonical.multiplicities().values()):
        return key, 0
    for perm in auts:
        induced = [canonical.edges.index(
            tuple(sorted((perm[u], perm[v]))))
            for u, v in canonical.edges]
        if _perm_sign(induced) < 0:
            return key, 0
    positions = [canonical.edges.index(
        tuple(sorted((relabel[u], relabel[v]))))
        for u, v in (edges[i] for i in order)]
    return key, _perm_sign(positions)


def _contraction_terms(graph: Multigraph):
    """(key, signed unit) pairs of the one-edge contractions."""
    for index, (u, v) in enumerate(graph.edges):
        if u == v:
            continue
        contracted = contract_edge(graph, index)
        if any(a == b for a, b in contracted.edges):
            continue  # a parallel partner became a loop
        key, sign = normalize(contracted,
                              tuple(range(contracted.num_edges)))
        if sign:
            yield key, sign * (-1 if index % 2 else 1)


def differential(chain):
    """Alternating sum of single-edge contractions, term by term.

    A chain maps canonical generator keys to nonzero coefficients; so
    does the result.
    """
    if len({parse_graph(key).num_edges for key in chain}) > 1:
        raise ArgumentError("chain mixes generators of different degrees")
    out = {}
    for key, coeff in chain.items():
        for image_key, unit in _contraction_terms(parse_graph(key)):
            total = out.get(image_key, 0) + coeff * unit
            if total:
                out[image_key] = total
            else:
                del out[image_key]
    return out


_basis_cache = {}


def basis(genus, num_edges):
    """Sorted canonical keys of the nonzero generators at (g, n).

    A genus-g generator with n edges has n - g + 1 vertices; valences
    are at least 3, so n ranges over [g + 1, 3g - 3].  A parallel pair
    makes a generator zero, so only simple graphs are enumerated.
    """
    g, n = int(genus), int(num_edges)
    if g < 2:
        raise ArgumentError("genus must be at least 2")
    cached = _basis_cache.get((g, n))
    if cached is not None:
        return cached
    num_vertices = n - g + 1
    keys = []
    if num_vertices >= 2 and 2 * n >= 3 * num_vertices:
        spare = 2 * n - 3 * num_vertices
        for extra in partitions_of(spare):
            if len(extra) > num_vertices:
                continue
            padded = [3 + x for x in extra] + [3] * (num_vertices - len(extra))
            for graph in enumerate_graphs(num_vertices, padded,
                                          allow_parallel=False):
                key, sign = normalize(graph, tuple(range(n)))
                if sign:
                    keys.append(key)
    result = sorted(set(keys))
    _basis_cache[(g, n)] = result
    return result


def differential_matrix(genus, num_edges):
    """Boundary matrix at (g, n) over the bases of keys.

    Returns (domain, codomain, entries): domain is basis(g, n),
    codomain is basis(g, n - 1), entries maps (row, column) to the
    integer coefficient.
    """
    domain = basis(genus, num_edges)
    codomain = basis(genus, num_edges - 1) if num_edges > 1 else []
    row_of = {key: r for r, key in enumerate(codomain)}
    entries = {}
    for col, key in enumerate(domain):
        for image_key, unit in _contraction_terms(parse_graph(key)):
            row = row_of.get(image_key)
            if row is None:
                raise ArgumentError(
                    "contraction left the enumerated basis")
            total = entries.get((row, col), 0) + unit
            if total:
                entries[(row, col)] = total
            else:
                del entries[(row, col)]
    return domain, codomain, entries


def _rank(entries, num_rows, num_cols) -> int:
    """Rank of the integer matrix with the given nonzero entries."""
    if not entries:
        return 0
    rows = [[0] * num_cols for _ in range(num_rows)]
    for (r, c), value in entries.items():
        rows[r][c] = value
    pivots = []
    for row in rows:
        lead, row = reduce_row(pivots, row)
        if lead is not None:
            pivots.append((lead, row))
    return len(pivots)


def homology_dimension(genus, num_edges) -> int:
    """dim ker of the boundary at n minus the rank arriving from n + 1."""
    g, n = int(genus), int(num_edges)
    dim_n = len(basis(g, n))
    if dim_n == 0:
        return 0
    _, codomain, entries = differential_matrix(g, n)
    rank_out = _rank(entries, len(codomain), dim_n)
    domain_up, _, entries_up = differential_matrix(g, n + 1)
    rank_in = _rank(entries_up, dim_n, len(domain_up))
    return dim_n - rank_out - rank_in


def wheel_graph(genus) -> Multigraph:
    """Hub-and-rim graph: g spokes, g rim edges, hub valence g."""
    g = int(genus)
    if g < 2:
        raise ArgumentError("a wheel needs at least 2 rim vertices")
    spokes = [(0, i) for i in range(1, g + 1)]
    rim = [(i, i % g + 1) for i in range(1, g + 1)]
    return Multigraph(g + 1, spokes + rim)


def wheel_class(genus):
    """The wheel generator with reference edge order, as a chain.

    Even wheels vanish: some reflection acts oddly on the edges.  The
    g = 2 wheel is degenerate on top of that (hub valence 2) and is
    returned as zero directly.
    """
    g = int(genus)
    if g < 2:
        raise ArgumentError("a wheel needs at least 2 rim vertices")
    if g == 2:
        return {}
    graph = wheel_graph(g)
    key, sign = normalize(graph, tuple(range(graph.num_edges)))
    return {key: sign} if sign else {}

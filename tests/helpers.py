"""Deliberately naive reference implementations used as test oracles.

Everything here favors transparency over speed: brute-force dart and
vertex permutations, colour refinement and the full product behind
canonical labelling, stub matchings, labelled legs put on leg-free
classes, the graph-complex basis from every multigraph, exact ranks by
Fraction elimination, moduli types built without pruning, their
skeletons and leg maps found by relabelling each type, and their
contraction poset rebuilt through the validated constructor,
direct permutation-tuple counts, the commutator loop over S_d, a
product over per-edge choices of elliptic edge data, the local vertex
conditions, the checks and mirror image of an elliptic cover, the
checks of a line cover and its row from scratch, a pairwise series
product, Eisenstein series as coefficient lists, and chamber
polynomials built tree by tree for each chamber.
Keep inputs tiny.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from tropica.chambers import _trivalent_trees
from tropica.elliptic_covers import (EllipticCover, _assignments,
                                     _checked_size, trivalent_classes)
from tropica.errors import ArgumentError
from tropica.graph_complex import normalize
from tropica.graphs import (Multigraph, _signature, automorphisms,
                            canonical_form, canonical_key, enumerate_graphs,
                            serialize)
from tropica.line_covers import LineCover
from tropica.moduli_space import CombinatorialType, _folds
from tropica.util import linear_extension_count, slot_of
from tropica.sym_oracle import _all_types, _class_rep, _class_size, _walks


# -- half-edge automorphisms ----------------------------------------------

def halfedge_aut_order(g: Multigraph) -> int:
    """Count automorphisms as permutations of darts (half-edges).

    A dart permutation is an automorphism when it commutes with the
    edge-gluing involution, preserves leg labels, and induces a
    well-defined genus-preserving bijection on vertices.  Exponential in
    the dart count; restricted to graphs with at most 8 darts.
    """
    att = []
    partner = []
    label = {}
    for u, v in g.edges:
        a = len(att)
        att.append(u)
        att.append(v)
        partner.extend([a + 1, a])
    for v, lab in g.legs:
        a = len(att)
        att.append(v)
        partner.append(a)
        label[a] = lab
    n_darts = len(att)
    assert n_darts <= 8, "dart brute force limited to 8 half-edges"

    count = 0
    for perm in permutations(range(n_darts)):
        if any(perm[partner[d]] != partner[perm[d]] for d in range(n_darts)):
            continue
        if any(label.get(perm[d]) != label.get(d) for d in range(n_darts)):
            continue
        vmap = {}
        ok = True
        for d in range(n_darts):
            image = att[perm[d]]
            if vmap.setdefault(att[d], image) != image:
                ok = False
                break
        if not ok:
            continue
        if len(set(vmap.values())) != len(vmap):
            continue
        if any(g.genus[w] != g.genus[v] for v, w in vmap.items()):
            continue
        count += 1
    return count


def brute_force_automorphisms(g: Multigraph):
    """Vertex automorphisms (perm[old] = new) by trying all n! permutations.

    A permutation counts when it maps the edge multiset, the leg multiset
    of (vertex, label) pairs and the vertex genera onto themselves.
    """
    n = g.num_vertices
    edges = sorted(g.edges)
    legs = sorted(g.legs)
    found = set()
    for perm in permutations(range(n)):
        if any(g.genus[perm[v]] != g.genus[v] for v in range(n)):
            continue
        moved = sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
                       for u, v in g.edges)
        if moved != edges:
            continue
        if sorted((perm[v], label) for v, label in g.legs) != legs:
            continue
        found.add(perm)
    return found


# -- canonical labelling by the full product ------------------------------

def _rank(keys):
    order = sorted(set(keys))
    return [order.index(key) for key in keys]


def full_refinement(g: Multigraph):
    """Vertex colors refined until stable, with no shortcut.

    The oracle for graphs._refined_colors: the same invariant keys
    (genus, valence, loops, sorted leg labels, then sorted (neighbor
    color, multiplicity) pairs), recomputed from the edge list, and at
    least one refinement round even when the start is discrete.
    """
    n = g.num_vertices
    mult = {}
    for u, v in g.edges:
        mult[(u, v)] = mult.get((u, v), 0) + 1
    valence = [2 * mult.get((v, v), 0)
               + sum(m for (a, b), m in mult.items() if a != b and v in (a, b))
               + sum(1 for w, _ in g.legs if w == v)
               for v in range(n)]
    colors = _rank([(g.genus[v], valence[v], mult.get((v, v), 0),
                     tuple(sorted(label for w, label in g.legs if w == v)))
                    for v in range(n)])
    while True:
        refined = _rank([
            (colors[v], tuple(sorted(
                (colors[b if a == v else a], m)
                for (a, b), m in mult.items() if a != b and v in (a, b))))
            for v in range(n)])
        if refined == colors:
            return colors
        colors = refined

def class_permutations(colors):
    """Yield vertex permutations (old -> new) refining the color order.

    Each color class, in color order, takes the next block of new labels
    in every order of its vertices: the product of the classes'
    permutations, first class outermost.
    """
    n = len(colors)
    groups = {}
    for v in range(n):
        groups.setdefault(colors[v], []).append(v)
    ordered_groups = [groups[c] for c in sorted(groups)]
    starts = []
    pos = 0
    for grp in ordered_groups:
        starts.append(pos)
        pos += len(grp)
    for arrangement in product(*(permutations(grp) for grp in ordered_groups)):
        perm = [0] * n
        for grp_order, start in zip(arrangement, starts):
            for offset, v in enumerate(grp_order):
                perm[v] = start + offset
        yield tuple(perm)


def brute_force_search(g: Multigraph):
    """(least signature, every permutation reaching it) over the product.

    The oracle for graphs._search: it computes the signature of every
    permutation that class_permutations yields for the colours of
    full_refinement, with no pruning, and keeps the ties in product order.
    """
    best_sig, ties = None, []
    for perm in class_permutations(full_refinement(g)):
        sig = _signature(g, perm)
        if best_sig is None or sig < best_sig:
            best_sig, ties = sig, [perm]
        elif sig == best_sig:
            ties.append(perm)
    return best_sig, ties


# -- stub matching enumeration --------------------------------------------

def _matchings(stubs):
    """Yield perfect matchings of the stub list as edge multisets."""
    if not stubs:
        yield []
        return
    first = stubs[0]
    for i in range(1, len(stubs)):
        rest = stubs[1:i] + stubs[i + 1:]
        pair = (first, stubs[i]) if first <= stubs[i] else (stubs[i], first)
        for tail in _matchings(rest):
            yield [pair] + tail


def stub_matching_classes(num_vertices, degrees, num_legs=0,
                          allow_loops=False, allow_parallel=True):
    """Canonical keys of connected classes found by brute stub matching."""
    degrees = sorted(degrees, reverse=True)
    keys = set()
    for assignment in product(range(num_vertices), repeat=num_legs):
        residual = list(degrees)
        legs = []
        ok = True
        for lab, v in enumerate(assignment, start=1):
            residual[v] -= 1
            legs.append((v, lab))
            if residual[v] < 0:
                ok = False
                break
        if not ok:
            continue
        stubs = []
        for v, r in enumerate(residual):
            stubs.extend([v] * r)
        for edges in _matchings(stubs):
            if not allow_loops and any(u == v for u, v in edges):
                continue
            if not allow_parallel:
                plain = [e for e in edges if e[0] != e[1]]
                if len(set(plain)) != len(plain):
                    continue
            try:
                g = Multigraph(num_vertices, edges, legs)
            except Exception:
                continue
            if g.is_connected():
                keys.add(canonical_key(g))
    return keys


def labeled_leg_classes(num_vertices, degrees, num_legs, allow_loops=False):
    """Connected classes with valences `degrees` and legs labelled
    1..num_legs, sorted by key: every placement of the labels on every
    leg-free class whose valences the legs complete to `degrees`."""
    target = sorted(degrees)
    residuals = set()
    for where in product(range(num_vertices), repeat=num_legs):
        residual = list(target)
        for v in where:
            residual[v] -= 1
        if min(residual) >= 0:
            residuals.add(tuple(sorted(residual)))
    found = set()
    for residual in residuals:
        for skeleton in enumerate_graphs(num_vertices, residual,
                                         allow_loops=allow_loops):
            for where in product(range(num_vertices), repeat=num_legs):
                graph = Multigraph(num_vertices, skeleton.edges,
                                   [(v, label) for label, v
                                    in enumerate(where, start=1)])
                if sorted(graph.valences()) == target:
                    found.add(canonical_form(graph)[0])
    return sorted(found, key=serialize)


# -- graph complex ---------------------------------------------------------

def multigraph_basis(genus, num_edges):
    """Sorted keys of the nonzero generators at (g, n), enumerated among
    all loop-free multigraphs, parallel pairs included, with every
    generator sent through normalize."""
    num_vertices = num_edges - genus + 1
    keys = set()
    if num_vertices < 2:
        return []
    for degrees in _partitions(2 * num_edges):
        if len(degrees) != num_vertices or degrees[-1] < 3:
            continue
        for graph in enumerate_graphs(num_vertices, degrees):
            key, sign = normalize(graph, tuple(range(num_edges)))
            if sign:
                keys.add(key)
    return sorted(keys)


def fraction_rank(entries, num_rows, num_cols) -> int:
    """Rank over Q by Gaussian elimination in Fractions, with row swaps."""
    rows = [[Fraction(0)] * num_cols for _ in range(num_rows)]
    for (r, c), value in entries.items():
        rows[r][c] = Fraction(value)
    rank = 0
    for col in range(num_cols):
        pivot = next((r for r in range(rank, num_rows) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, num_rows):
            if rows[r][col]:
                factor = rows[r][col] / lead
                for c in range(col, num_cols):
                    rows[r][c] -= factor * rows[rank][c]
        rank += 1
    return rank


# -- moduli types without pruning -----------------------------------------

def unpruned_type_keys(genus, num_legs):
    """Canonical keys of the stable types for (g, n), pruning nothing.

    Every valence sequence for every (edges, vertices) count, every genus
    decoration and every placement of legs 1..n is built; stability is
    checked only on the finished graph.  Exponential in n; keep it <= 3.
    """
    g, n = genus, num_legs
    keys = set()
    for num_edges in range(3 * g - 3 + n + 1):
        for num_vertices in range(1, num_edges + 2):
            budget = g - (num_edges - num_vertices + 1)
            if budget < 0:
                continue
            sequences = [(0,)] if num_edges == 0 else [
                parts for parts in _partitions(2 * num_edges)
                if len(parts) == num_vertices]
            decorations = [genera for genera in product(range(budget + 1),
                                                        repeat=num_vertices)
                           if sum(genera) == budget]
            for degrees in sequences:
                for skeleton in enumerate_graphs(num_vertices, degrees,
                                                 allow_loops=True):
                    for genera in decorations:
                        for where in product(range(num_vertices), repeat=n):
                            graph = Multigraph(
                                num_vertices, skeleton.edges,
                                [(v, label) for label, v
                                 in enumerate(where, start=1)], genera)
                            if all(2 * h - 2 + k > 0 for h, k
                                   in zip(genera, graph.valences())):
                                keys.add(canonical_key(graph))
    return keys


def brute_force_key(g: Multigraph) -> str:
    """Serialized least signature of the full product search."""
    (n, genus, edges, legs), _ = brute_force_search(g)
    return serialize(Multigraph(n, edges, legs, genus))


def naive_poset(types):
    """(keys, covers, folded) of the types' contraction poset, rebuilt.

    The independent route for moduli_space.build_poset: each contraction
    is built anew through the validated constructor, every graph is
    keyed by brute_force_key, and a type is folded when it has a
    parallel edge or loop pair or a brute-force automorphism that moves
    some edge to another vertex pair.
    """
    keys = [brute_force_key(t.graph) for t in types]
    index = {key: i for i, key in enumerate(keys)}
    covers = set()
    for upper, t in enumerate(types):
        g = t.graph
        for i, (u, v) in enumerate(g.edges):
            rest = g.edges[:i] + g.edges[i + 1:]
            genus = list(g.genus)
            if u == v:
                genus[u] += 1
                lower = Multigraph(g.num_vertices, rest, g.legs, genus)
            else:
                # v merges into u; later vertices shift down by one
                new = [x - (x > v) for x in range(g.num_vertices)]
                new[v] = u
                genus[u] += genus.pop(v)
                lower = Multigraph(g.num_vertices - 1,
                                   [(new[a], new[b]) for a, b in rest],
                                   [(new[w], label) for w, label in g.legs],
                                   genus)
            covers.add((index[brute_force_key(lower)], upper))
    folded = []
    for t in types:
        g = t.graph
        edges = set(g.edges)
        folded.append(len(edges) < len(g.edges) or any(
            tuple(sorted((perm[a], perm[b]))) != (a, b)
            for perm in brute_force_automorphisms(g) for a, b in edges))
    return keys, sorted(covers), folded


def reference_type(graph: Multigraph) -> CombinatorialType:
    """The record of a type graph, derived afresh from the graph alone.

    The skeleton is the canonical form of the leg-free graph, the leg map
    the least image under its automorphisms of the vertices the legs sit
    on (by label), and the type is folded when the stabiliser of that map
    folds the skeleton.  The record's graph is the skeleton with leg i on
    vertex leg_map[i - 1], built through the validated constructor with
    legs sorted, and its key serialises that graph.
    """
    bare = Multigraph(graph.num_vertices, graph.edges, (), graph.genus)
    skeleton, perm, _ = canonical_form(bare)
    legs = [perm[v] for v, _ in sorted(graph.legs, key=lambda leg: leg[1])]
    auts = automorphisms(skeleton)
    leg_map = min(tuple(a[x] for x in legs) for a in auts)
    fixed = [a for a in auts if all(a[x] == x for x in leg_map)]
    typed = Multigraph(skeleton.num_vertices, skeleton.edges,
                       sorted((v, i) for i, v in enumerate(leg_map, 1)),
                       skeleton.genus)
    return CombinatorialType(typed, serialize(typed), skeleton, leg_map,
                             _folds(skeleton, lambda: fixed))


# -- symmetric group brute force ------------------------------------------

def compose(p, q):
    """Permutation composition, apply q first then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def cycle_type(p):
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def is_transitive(perms, d):
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = p[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == d


def naive_line_hurwitz(genus, mu, nu, left_to_right=False) -> Fraction:
    """Direct tuple count of monodromy representations over the line.

    Counts (sigma0, tau_1..tau_s) with sigma0 of type mu, each tau a
    transposition, the full product of type nu, acting transitively;
    divides by d!.  left_to_right flips the composition convention,
    which must not change the count.  Exponential; keep d <= 4 and s
    small.
    """
    mu = tuple(sorted(mu, reverse=True))
    nu = tuple(sorted(nu, reverse=True))
    d = sum(mu)
    assert d == sum(nu)
    s = 2 * genus - 2 + len(mu) + len(nu)
    assert s >= 0
    everyone = list(permutations(range(d)))
    with_type_mu = [p for p in everyone if cycle_type(p) == mu]
    transpositions = [p for p in everyone if cycle_type(p) == (2,) + (1,) * (d - 2)]
    count = 0
    for sigma0 in with_type_mu:
        for taus in product(transpositions, repeat=s):
            prod = sigma0
            for t in taus:
                prod = compose(prod, t) if left_to_right else compose(t, prod)
            if cycle_type(prod) != nu:
                continue
            if is_transitive((sigma0,) + taus, d):
                count += 1
    return Fraction(count, math.factorial(d))


def naive_elliptic_hurwitz(degree, genus) -> Fraction:
    """Direct tuple count of monodromy representations over a torus.

    Counts (alpha, beta, tau_1..tau_{2g-2}) whose commutator times the
    transposition product is the identity, acting transitively; divides
    by d!.  Exponential; keep degree <= 4 and genus <= 3 small.
    """
    d = degree
    s = 2 * genus - 2
    assert s >= 0
    everyone = list(permutations(range(d)))
    transpositions = [p for p in everyone if cycle_type(p) == (2,) + (1,) * (d - 2)]
    identity = tuple(range(d))
    count = 0
    for alpha in everyone:
        for beta in everyone:
            comm = compose(compose(alpha, beta),
                           compose(inverse(alpha), inverse(beta)))
            for taus in product(transpositions, repeat=s):
                prod = comm
                for t in taus:
                    prod = compose(prod, t)
                if prod != identity:
                    continue
                if is_transitive((alpha, beta) + taus, d):
                    count += 1
    return Fraction(count, math.factorial(d))


@lru_cache(maxsize=None)
def commutator_distribution(d):
    """Class distribution of [alpha, beta] over all pairs in S_d^2.

    Conjugation-equivariance lets alpha run over class representatives
    only, weighted by class size.  Loops over all of S_d per class;
    keep d <= 6.
    """
    types = _all_types(d)
    dist = {t: 0 for t in types}
    everyone = list(permutations(range(d)))
    for parts in types:
        alpha = _class_rep(parts)
        weight = _class_size(parts)
        inv_alpha = inverse(alpha)
        for beta in everyone:
            comm = compose(compose(alpha, beta),
                           compose(inv_alpha, inverse(beta)))
            dist[cycle_type(comm)] += weight
    return dist


def commutator_elliptic_all(d, s) -> int:
    """Tuples (alpha, beta, s transpositions) multiplying to the identity,
    transitivity not required: each commutator class walked through the
    transposition transfer matrix of sym_oracle, no content sums."""
    identity = (1,) * d
    return sum(pairs * _walks(d, start, s).get(identity, 0)
               for start, pairs in commutator_distribution(d).items())


def random_relabel(g: Multigraph, rng) -> Multigraph:
    perm = list(range(g.num_vertices))
    rng.shuffle(perm)
    return g.relabeled(perm)


# -- content sums ---------------------------------------------------------

def _partitions(n, largest=None):
    """Yield the partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    largest = n if largest is None else largest
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _content_sum(partition):
    """Sum of the contents j - i over the boxes (i, j) of a Young diagram."""
    return sum(j - i for i, row in enumerate(partition) for j in range(row))


def elliptic_genus_two_content_sum(degree) -> int:
    """Connected genus-2 simple Hurwitz number of the elliptic curve.

    By Burnside's formula the possibly disconnected count with two
    branch points is the sum of f2(lambda)^2 over partitions of the
    degree, f2 being the content sum.  Both transpositions lie in one
    component (a single one cannot be a commutator), and the rest is an
    unramified cover of degree n, counted p(n).  Peeling those off
    leaves the connected count.  Shares no code with the library.
    """
    connected = [0]
    for d in range(1, degree + 1):
        total = sum(_content_sum(lam) ** 2 for lam in _partitions(d))
        total -= sum(connected[k] * sum(1 for _ in _partitions(d - k))
                     for k in range(1, d))
        connected.append(total)
    return connected[degree]


# -- elliptic edge data ---------------------------------------------------

@lru_cache(maxsize=None)
def _balanced_edge_data(edges, num_vertices, degree):
    """Balanced (w, t, tail) data per edge with sum(t*w) == degree.

    Grouped by multidegree (t*w per edge); the direction rule is left
    to the caller.  Every point of the circle has fiber degree `degree`,
    so no edge is heavier than that: w <= degree bounds the product.
    """
    # a choice's code is w * (base^tail - base^head); the codes sum to 0
    # exactly when every vertex balances, as |out - in| < base / 2
    base = 8 * degree + 1
    choices = []
    for u, v in edges:
        tails = (u,) if u == v else (u, v)
        choices.append([(w * (base ** tail - base ** (v if tail == u else u)),
                         w, tail)
                        for w in range(1, degree + 1) for tail in tails])
    by_multidegree = {}
    for choice in product(*choices):
        codes, weights, tails = zip(*choice)
        if sum(codes):  # some vertex is unbalanced
            continue
        for ts in product(*(range(degree // w + 1) for w in weights)):
            a = tuple(t * w for t, w in zip(ts, weights))
            if sum(a) == degree:
                by_multidegree.setdefault(a, []).append(
                    tuple(zip(weights, ts, tails)))
    return by_multidegree


def naive_edge_data(edges, slot_of, degree, multidegree=None):
    """The set of edge-data tuples a cover search must find, by brute force.

    The product over per-edge choices (w, t, tail) with w <= degree,
    filtered by balance at every vertex, by sum(t*w) == degree (or t*w
    equal to the multidegree entry), and by the rule that an edge with
    t = 0 runs from its lower slot to its higher one.  Shares no code
    with the library's search.
    """
    edges = tuple(tuple(e) for e in edges)
    groups = _balanced_edge_data(edges, len(slot_of), degree)
    if multidegree is not None:
        groups = {tuple(multidegree): groups.get(tuple(multidegree), [])}
    return {data for found in groups.values() for data in found
            if all(t > 0 or slot_of[tail] < slot_of[u + v - tail]
                   for (u, v), (_, t, tail) in zip(edges, data))}


# -- local conditions ------------------------------------------------------

def check_balancing(flags):
    """Check that all direction groups of flags carry equal total weight.

    flags is an iterable of (direction_tag, weight) pairs with positive
    integer weights.  Returns the common group sum (the local degree) or
    None if the groups disagree.
    """
    sums = {}
    for tag, weight in flags:
        w = int(weight)
        if w < 1:
            raise ArgumentError("flag weights must be positive integers")
        sums[tag] = sums.get(tag, 0) + w
    if not sums:
        raise ArgumentError("no flags to balance")
    values = set(sums.values())
    if len(values) > 1:
        return None
    return values.pop()


def local_rh_defect(local_degree, image_genus, vertex_genus, flag_weights):
    """Local Riemann-Hurwitz defect at a vertex.

    d * (2 - 2 * image_genus) - sum(w - 1) - (2 - 2 * vertex_genus);
    nonnegative defects are the locally realizable ones.
    """
    d = int(local_degree)
    if d < 1:
        raise ArgumentError("local degree must be positive")
    weights = [int(w) for w in flag_weights]
    if any(w < 1 for w in weights):
        raise ArgumentError("flag weights must be positive integers")
    return (d * (2 - 2 * int(image_genus))
            - sum(w - 1 for w in weights)
            - (2 - 2 * int(vertex_genus)))


# -- elliptic covers --------------------------------------------------------

def reflected_cover(cover: EllipticCover) -> EllipticCover:
    """The mirror cover: the circle traversed the other way."""
    n = cover.num_positions
    flipped = tuple(sorted(
        (n - 1 - head, n - 1 - tail, w, t)
        for tail, head, w, t in cover.edges))
    return EllipticCover(cover.genus, flipped)


def validate_elliptic_cover(cover: EllipticCover):
    """Raise ArgumentError unless cover is a connected, balanced,
    3-valent cover of genus cover.genus with local defect 1 everywhere."""
    n = cover.num_positions
    flags = {p: [] for p in range(n)}
    for tail, head, w, t in cover.edges:
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
                           for t_, h, _, _ in cover.edges])
    if not graph.is_connected():
        raise ArgumentError("cover source is disconnected")
    if graph.first_betti() != cover.genus:
        raise ArgumentError("cover source has wrong first Betti number")


def loop_graphs_admit_no_cover(degree, genus) -> bool:
    """Check that every 3-valent shape with a loop admits no cover.

    Balancing at a loop's vertex forces the third flag to weight 0, so
    the expected answer is always True; the search is still performed.
    """
    d, g = _checked_size(degree, genus)
    loop_shapes = [m for m in trivalent_classes(g, allow_loops=True)
                   if any(u == v for u, v in m.edges)]
    for shape in loop_shapes:
        for order in permutations(range(shape.num_vertices)):
            for _ in _assignments(shape.edges, slot_of(order), d):
                return False
    return len(loop_shapes) > 0


# -- line covers -----------------------------------------------------------

def line_cover_multigraph(cover: LineCover) -> Multigraph:
    """The underlying source graph (levels become vertices 0..s-1)."""
    edges = [(u - 1, v - 1) for u, v, _ in cover.bounded_edges]
    legs = [(v - 1, 0) for v, _ in cover.left_ends]
    legs += [(v - 1, 0) for v, _ in cover.right_ends]
    return Multigraph(cover.num_levels, edges, legs)


def line_cover_flags_at(cover: LineCover, level):
    """(direction, weight) pairs of all flags at one vertex."""
    flags = []
    for v, w in cover.left_ends:
        if v == level:
            flags.append(("left", w))
    for v, w in cover.right_ends:
        if v == level:
            flags.append(("right", w))
    for u, v, w in cover.bounded_edges:
        if u == level:
            flags.append(("right", w))
        if v == level:
            flags.append(("left", w))
    return flags


def validate_line_cover(cover: LineCover):
    """Raise ArgumentError unless the end and edge tuples are sorted,
    every vertex is 3-valent, balanced and of local defect 1, and the
    source is connected of the cover's genus."""
    for items in (cover.left_ends, cover.bounded_edges, cover.right_ends):
        if list(items) != sorted(items):
            raise ArgumentError(f"cover tuple {items} is not sorted")
    for level in range(1, cover.num_levels + 1):
        flags = line_cover_flags_at(cover, level)
        if len(flags) != 3:
            raise ArgumentError(f"vertex {level} is not 3-valent")
        degree = check_balancing(flags)
        if degree is None:
            raise ArgumentError(f"vertex {level} is unbalanced")
        weights = [w for _, w in flags]
        if local_rh_defect(degree, 0, 0, weights) != 1:
            raise ArgumentError(f"vertex {level} has wrong local defect")
    graph = line_cover_multigraph(cover)
    if not graph.is_connected():
        raise ArgumentError("cover source is disconnected")
    if graph.first_betti() != cover.genus:
        raise ArgumentError("cover source has wrong first Betti number")


def reference_cover_row(cover: LineCover):
    """(canonical text, weight product, forks, wieners, |Aut|) of a line
    cover worked out from scratch, in the order its tuples hold: texts
    joined anew, forks and wieners as equal pairs and |Aut| as a product
    of factorials, all from plain Counters."""
    def text(items):
        return " ".join(f"{item[0]}:{item[1]}" if len(item) == 2
                        else f"{item[0]}-{item[1]}:{item[2]}"
                        for item in items)

    groups = [Counter(cover.left_ends), Counter(cover.right_ends),
              Counter(cover.bounded_edges)]
    pairs = [sum(math.comb(n, 2) for n in c.values()) for c in groups]
    aut = math.prod(math.factorial(n) for c in groups for n in c.values())
    canonical = (f"left {text(cover.left_ends)} | edges "
                 f"{text(cover.bounded_edges)} | right "
                 f"{text(cover.right_ends)}")
    product = math.prod(w for _, _, w in cover.bounded_edges)
    return canonical, product, pairs[0] + pairs[1], pairs[2], aut


# -- truncated series -------------------------------------------------------

def naive_series_terms_product(a, b):
    """The terms of the truncated product a * b, pairing every two terms.

    A pair is kept when its q-exponents total at most q_bound; zero sums
    are dropped.  Reads only the bound and term dicts of the two series.
    """
    out = {}
    for (ax, aq), ac in a.terms.items():
        for (bx, bq), bc in b.terms.items():
            x = tuple(i + j for i, j in zip(ax, bx))
            q = tuple(i + j for i, j in zip(aq, bq))
            if sum(q) <= a.q_bound:
                out[x, q] = out.get((x, q), 0) + ac * bc
    return {key: coeff for key, coeff in out.items() if coeff}


def eisenstein_series(weight, factor, n_max):
    """1 + factor * sum_n sigma_{weight - 1}(n) q^n, as coefficients."""
    return [1] + [factor * sum(k ** (weight - 1) for k in range(1, n + 1)
                               if n % k == 0) for n in range(1, n_max + 1)]


def series_times(a, b):
    """The product of two coefficient lists, truncated to len(a)."""
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


# -- chamber polynomials ----------------------------------------------------

def _reachable(edges, drop_index, start):
    adjacency = {}
    for k, (u, v) in enumerate(edges):
        if k != drop_index:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
    seen, stack = {start}, [start]
    while stack:
        for other in adjacency.get(stack.pop(), ()):
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return seen


def reference_symbolic_polynomial(chamber, lmu, lnu):
    """{exponents: Fraction} of a chamber's polynomial in slice
    coordinates, found for this chamber alone: each bounded edge of each
    3-valent tree weighs the leaf side that is positive at the witness,
    and the tree adds the product of those weights times its vertex
    orderings."""
    n = lmu + lnu
    witness = tuple(chamber.witness_mu) + tuple(chamber.witness_nu)
    total = {}
    for edges in _trivalent_trees(n):
        inner = sorted({v for e in edges for v in e if v >= n})
        index = {node: k for k, node in enumerate(inner)}
        term = {(0,) * (n - 1): Fraction(1)}
        relations = []
        for k, (u, v) in enumerate(edges):
            if u < n or v < n:
                continue
            side = _reachable(edges, k, u)
            coeffs = [int(i in side) for i in range(lmu)] \
                + [-int(lmu + j in side) for j in range(lnu)]
            value = sum(c * x for c, x in zip(coeffs, witness))
            assert value != 0, "chamber witness lies on a wall"
            if value < 0:  # weigh the other side: all ones minus this one
                coeffs = [1 - c for c in coeffs[:lmu]] \
                    + [-1 - c for c in coeffs[lmu:]]
                u, v = v, u
            relations.append((index[u], index[v]))
            last = coeffs[-1]  # nu_lnu = sum(mu) - the other nu entries
            linear = [c + last for c in coeffs[:lmu]] \
                + [c - last for c in coeffs[lmu:-1]]
            grown = {}
            for exps, c in term.items():
                for var, a in enumerate(linear):
                    if a:
                        bumped = list(exps)
                        bumped[var] += 1
                        key = tuple(bumped)
                        grown[key] = grown.get(key, 0) + c * a
            term = grown
        orderings = linear_extension_count(len(inner), relations)
        for exps, c in term.items():
            total[exps] = total.get(exps, 0) + orderings * c
    return {e: c for e, c in total.items() if c != 0}

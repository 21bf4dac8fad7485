"""Tropical double Hurwitz covers of the line.

A cover for data (g, mu, nu) has s = -2 + 2g + len(mu) + len(nu)
trivalent genus-0 vertices, one over each of s fixed points ordered
left to right on the line.  Ends of weights mu point left, ends of
weights nu point right, bounded edges join vertices on distinct levels,
and every vertex is balanced.  Covers are enumerated by a depth-first
sweep of the levels: at each level the single vertex either merges two
incoming strands or splits one into an unordered pair, and only the
moves after which the open weights can still reach nu in the levels
left are made.  The sweep yields covers one at a time, so a caller that
keeps less than the whole cover (as the CLI does) never holds them all.

Ends are unlabeled: isomorphisms preserve levels and weights only.
The multiplicity of a cover is the product of its bounded edge weights
divided by 2^(f+w), where f counts balanced forks (two same-weight ends
on the same side of one vertex) and w counts balanced wieners (pairs of
parallel equal-weight edges); this equals the product divided by the
cover's automorphism count, which is asserted per cover.

The total count also comes from a collapsed-state dynamic program that
makes exactly the moves of the sweep's table (_moves), level by level,
so every state it keeps can still reach nu and no cover is built; both
routes agree and are tested against each other.  The program runs in
integers scaled by 2^s, since its only denominators are the powers of
two from forks and wieners, and its totals are memoised per partition
triple, so callers that revisit a partition through a permuted tuple
(as chamber interpolation does) pay for one sweep.
"""

import functools
import math
from collections import Counter, namedtuple
from fractions import Fraction

from .errors import ArgumentError, DegenerateInputError
from .graphs import Partition


def _setup(genus, mu, nu):
    g = int(genus)
    if g < 0:
        raise ArgumentError("genus must be nonnegative")
    mu = Partition(mu)
    nu = Partition(nu)
    if mu.size != nu.size:
        raise ArgumentError("profiles must partition the same degree")
    s = -2 + 2 * g + mu.length + nu.length
    if s < 1:
        raise DegenerateInputError(
            f"no branch vertices for genus {g}, profile lengths "
            f"{mu.length}/{nu.length} (s = {s})")
    return g, mu, nu, s


class LineCover(namedtuple("LineCover", "genus mu nu num_levels left_ends "
                           "bounded_edges right_ends")):
    """One isomorphism class of tropical double Hurwitz cover.

    Levels are 1..num_levels.  left_ends and right_ends hold (level,
    weight) pairs for the vertex each end attaches to; bounded_edges
    hold (lower_level, upper_level, weight).  All tuples are sorted.
    """

    __slots__ = ()

    def weight_product(self) -> int:
        out = 1
        for _, _, w in self.bounded_edges:
            out *= w
        return out

    def canonical_text(self) -> str:
        left = " ".join([f"{v}:{w}" for v, w in self.left_ends])
        mid = " ".join([f"{u}-{v}:{w}" for u, v, w in self.bounded_edges])
        right = " ".join([f"{v}:{w}" for v, w in self.right_ends])
        return f"left {left} | edges {mid} | right {right}"


class CoverMultiplicity(namedtuple("CoverMultiplicity",
                                   "weight_product forks wieners value")):
    __slots__ = ()


def multiplicity(cover: LineCover) -> CoverMultiplicity:
    """Exact multiplicity: weight product over 2^(forks + wieners).

    The denominator is re-derived as the cover's automorphism count
    (permutations of identical ends and identical parallel edges; the
    level pinning freezes the vertices) and the equality is asserted.
    """
    groups = (cover.left_ends, cover.right_ends, cover.bounded_edges)
    # trivalence allows at most two equal ends at one vertex or two
    # parallel edges, so each repeated entry is one fork or one wiener
    repeats = [len(items) - len(set(items)) for items in groups]
    forks, wieners = repeats[0] + repeats[1], repeats[2]
    aut = 1
    for items, repeated in zip(groups, repeats):
        if repeated:  # with no repeats every count below is 1
            for c in Counter(items).values():
                aut *= math.factorial(c)
    assert aut == 2 ** (forks + wieners), cover.canonical_text()

    product = cover.weight_product()
    return CoverMultiplicity(product, forks, wieners,
                             Fraction(product, aut))


# -- explicit enumeration --------------------------------------------------

def enumerate_line_covers(genus, mu, nu):
    """All isomorphism classes of covers for (genus, mu, nu), sorted by
    canonical_text."""
    return sorted(iter_line_covers(genus, mu, nu),
                  key=LineCover.canonical_text)


def iter_line_covers(genus, mu, nu):
    """Yield each isomorphism class of cover for (genus, mu, nu) once, in
    sweep order.

    The sweep runs depth first over states (open strands, attached left
    ends, bounded edges), with strands tagged by their origin level (0 =
    still-unused left end).  A state records its whole history, so no
    two paths reach the same state and no dedup is needed; levels pin
    the vertices, so distinct final states are distinct classes.  A
    level only makes the moves whose open weights can still reach nu in
    exactly the levels left (see _moves).
    """
    genus, mu, nu, s = _setup(genus, mu, nu)
    moves = _moves(nu.parts, s)

    def sweep(level, opens, weights, lefts, edges):
        by_weight = {}
        for strand in dict.fromkeys(opens):  # distinct, still in order
            by_weight.setdefault(strand[1], []).append(strand)
        for taken, made, after in moves[s - level].get(weights, ()):
            for picked in _picks(taken, by_weight, opens):
                pool = list(opens)
                next_lefts, next_edges = lefts, edges
                for origin, w in picked:
                    pool.remove((origin, w))
                    if origin:
                        next_edges += ((origin, level, w),)
                    else:
                        next_lefts += ((level, w),)
                pool = tuple(sorted(pool + [(level, w) for w in made]))
                if level < s:
                    yield from sweep(level + 1, pool, after, next_lefts,
                                     next_edges)
                # pool is sorted by origin, so an unused left end would
                # come first; lefts needs no sort, since levels append in
                # order and a merge takes the lighter strand first
                elif pool[0][0] and _levels_connected(s, next_edges):
                    yield LineCover(genus, mu.parts, nu.parts, s,
                                    next_lefts, tuple(sorted(next_edges)),
                                    pool)

    yield from sweep(1, tuple(sorted((0, m) for m in mu.parts)),
                     tuple(sorted(mu.parts)), (), ())


def _picks(taken, by_weight, opens):
    """The strand choices for taken weights: one strand, or an unordered
    pair of strands (the same strand twice only if it is open twice)."""
    if len(taken) == 1:
        for strand in by_weight.get(taken[0], ()):
            yield (strand,)
        return
    a, b = taken
    firsts = by_weight.get(a, ())
    if a != b:
        for x in firsts:
            for y in by_weight.get(b, ()):
                yield x, y
        return
    for i, x in enumerate(firsts):
        if opens.count(x) > 1:
            yield x, x
        for y in firsts[i + 1:]:
            yield x, y


def _moves(nu_parts, s):
    """moves[k]: sorted weight tuples that reach nu in exactly k + 1
    levels, each mapped to its moves (taken, made, after) into a tuple
    `after` that reaches nu in exactly k.

    A level merges two weights (taken a <= b, made a + b) or splits one
    (taken w, made x <= w - x).  Undoing either move is a move of the
    other kind, so each layer comes from the one before by running the
    moves forward.  Every key is a partition of the degree.
    """
    layer = {tuple(sorted(nu_parts))}
    moves = []
    while len(moves) < s:
        # a table depends only on its layer, so equal layers repeat in twos
        if len(moves) > 2 and layer == moves[-3].keys():
            return (moves + moves[-2:] * (s // 2))[:s]
        table = {}
        for after in layer:
            for i, c in enumerate(after):
                rest = after[:i] + after[i + 1:]
                for a in range(1, c // 2 + 1):  # undo merging a, c - a
                    table.setdefault(tuple(sorted(rest + (a, c - a))),
                                     set()).add(((a, c - a), (c,), after))
                for j in range(i + 1, len(after)):  # undo splitting
                    x, y = c, after[j]
                    before = rest[:j - 1] + rest[j:] + (x + y,)
                    table.setdefault(tuple(sorted(before)), set()).add(
                        ((x + y,), (x, y), after))
        moves.append(table)
        layer = set(table)
    return moves


def _levels_connected(s, edges) -> bool:
    """Whether the edges join levels 1..s into one piece: each union of
    two roots leaves one piece fewer (few levels, so no path halving)."""
    parent = list(range(s + 1))
    pieces = s
    for u, v, _ in edges:
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u != v:
            parent[u] = v
            pieces -= 1
    return pieces == 1


# -- collapsed-state total -------------------------------------------------
#
# For the total count the strand history is irrelevant; only which event
# factors fire.  A collapsed state keeps the multiset of untouched left-end
# weights plus, per connected component of the partial graph, the multiset
# of solo strand weights and of equal-weight strand pairs sharing an origin
# vertex.  Its weights (ends, solos, each pair twice) look up the level's
# entry of the _moves table, and every event is one of those moves acting
# on some strands, so the program makes exactly the moves of the cover
# walk and keeps only states that can still reach nu.  Each event carries
# the number of distinct (origin, weight) strand choices realizing it, so
# summing over collapsed paths equals summing multiplicities over
# isomorphism classes.

def _dp_events(state, table):
    """Yield (next_state, ways, factor) for each way one of the moves that
    table holds for the state's weights acts on its strands.

    A strand record (comp, kind, weight, count) stands for the untouched
    left ends of one weight (comp None), or for the solos or the pairs of
    one weight in one component.  factor is twice the event's
    multiplicity factor (the inner weights taken, halved for a fork or a
    wiener), so it is always an int.
    """
    ends, comps = state
    groups = [(None, "end", ends)]
    for ci, (solos, pairs) in enumerate(comps):
        groups += [(ci, "solo", solos), (ci, "pair", pairs)]
    weights, by_weight = [], {}
    for ci, kind, strands in groups:
        weights += strands * (2 if kind == "pair" else 1)
        for w in set(strands):
            by_weight.setdefault(w, []).append(
                (ci, kind, w, strands.count(w)))
    for taken, made, _ in table.get(tuple(sorted(weights)), ()):
        for picked, ways, factor in _record_picks(taken, by_weight):
            yield _apply(ends, comps, picked, made), ways, factor


def _record_picks(taken, by_weight):
    """(records, ways, factor) for each choice of strands of the taken
    weights, as _picks but over records: one strand, or an unordered pair
    of strands.  A record of ends gives one way (ends are unlabeled) and
    adds no weight to the factor; a record of m inner strands of weight w
    gives m ways and the factor w."""
    def one(record):
        return (1, 1) if record[0] is None else (record[3], record[2])

    if len(taken) == 1:
        for x in by_weight.get(taken[0], ()):
            ways, w = one(x)
            yield (x,), ways, 2 * w
        return
    a, b = taken
    firsts = by_weight.get(a, ())
    for i, x in enumerate(firsts):
        ci, kind, w, m = x
        if a == b and ci is None and m > 1:  # a fork
            yield (x, x), 1, 1
        elif a == b and m > 1:  # two solos, or members of two pairs
            yield (x, x), m * (m - 1) // 2, 2 * w * w
        if a == b and kind == "pair":  # both members of one: a wiener
            yield (x, (ci, "solo", w, 1)), m, w * w
        x_ways, x_w = one(x)
        for y in firsts[i + 1:] if a == b else by_weight.get(b, ()):
            y_ways, y_w = one(y)
            yield (x, y), x_ways * y_ways, 2 * x_w * y_w


def _apply(ends, comps, picked, made):
    """The state after one event: the components of the picked strands
    fuse into one (a new one if only ends were picked), which loses the
    picked strands and gains the made weights, as a pair when equal."""
    fused = {ci for ci, *_ in picked} - {None}
    ends = list(ends)
    solos = [w for ci in fused for w in comps[ci][0]]
    pairs = [w for ci in fused for w in comps[ci][1]]
    for ci, kind, w, _ in picked:
        if ci is None:
            ends.remove(w)
        elif kind == "pair":
            pairs.remove(w)
            solos.append(w)  # the partner, now solo
        else:
            solos.remove(w)
    if len(made) == 2 and made[0] == made[1]:
        pairs.append(made[0])
    else:
        solos += made
    rest = [c for ci, c in enumerate(comps) if ci not in fused]
    rest.append((tuple(sorted(solos)), tuple(sorted(pairs))))
    return tuple(ends), tuple(sorted(rest))


def double_hurwitz_tropical(genus, mu, nu) -> Fraction:
    """The tropical double Hurwitz number: sum of cover multiplicities.

    Computed by the collapsed-state sweep in integers: each level
    multiplies by twice its event factor, so after s levels a state
    holds its value scaled by 2^s, and each final state divides that
    back out together with its 2^(pairs) end symmetry.  Totals are
    memoised per normalised (genus, mu, nu), so permuted tuples share
    one sweep.  Agrees with summing multiplicity() over
    enumerate_line_covers() and with the symmetric group oracle.
    """
    genus, mu, nu, s = _setup(genus, mu, nu)
    return _dp_total(genus, mu.parts, nu.parts, s)


# Entries are a few small tuples and one Fraction; the bound only keeps a
# long-lived process from growing without limit.
@functools.lru_cache(maxsize=4096)
def _dp_total(genus, mu_parts, nu_parts, s) -> Fraction:
    values = {(tuple(sorted(mu_parts)), ()): 1}
    for table in reversed(_moves(nu_parts, s)):
        nxt = {}
        for state, v in values.items():
            for new_state, ways, factor in _dp_events(state, table):
                nxt[new_state] = nxt.get(new_state, 0) + v * ways * factor
        values = nxt

    # every state left has the weights of nu
    total = Fraction(0)
    for (ends, comps), v in values.items():
        if not ends and len(comps) == 1:
            total += Fraction(v, 2 ** (s + len(comps[0][1])))
    return total

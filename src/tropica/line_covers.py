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

The total count is additionally available through a collapsed-state
dynamic program over the same sweep, which avoids materializing the
cover list; both routes agree and are tested against each other.  The
program runs in integers scaled by 2^s, since its only denominators are
the powers of two from forks and wieners, and its totals are memoised
per partition triple, so callers that revisit a partition through a
permuted tuple (as chamber interpolation does) pay for one sweep.
"""

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArgumentError, DegenerateInputError
from .graphs import Multigraph, Partition, check_balancing, local_rh_defect


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


@dataclass(frozen=True, slots=True)
class LineCover:
    """One isomorphism class of tropical double Hurwitz cover.

    Levels are 1..num_levels.  left_ends and right_ends hold (level,
    weight) pairs for the vertex each end attaches to; bounded_edges
    hold (lower_level, upper_level, weight).  All tuples are sorted.
    """

    genus: int
    mu: tuple
    nu: tuple
    num_levels: int
    left_ends: tuple
    bounded_edges: tuple
    right_ends: tuple

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

    def to_multigraph(self) -> Multigraph:
        """The underlying source graph (levels become vertices 0..s-1)."""
        edges = [(u - 1, v - 1) for u, v, _ in self.bounded_edges]
        legs = [(v - 1, 0) for v, _ in self.left_ends]
        legs += [(v - 1, 0) for v, _ in self.right_ends]
        return Multigraph(self.num_levels, edges, legs)

    def flags_at(self, level):
        """(direction, weight) pairs of all flags at one vertex."""
        flags = []
        for v, w in self.left_ends:
            if v == level:
                flags.append(("left", w))
        for v, w in self.right_ends:
            if v == level:
                flags.append(("right", w))
        for u, v, w in self.bounded_edges:
            if u == level:
                flags.append(("right", w))
            if v == level:
                flags.append(("left", w))
        return flags

    def validate(self):
        """Check balancing, 3-valence, and the local defect at each vertex."""
        for level in range(1, self.num_levels + 1):
            flags = self.flags_at(level)
            if len(flags) != 3:
                raise ArgumentError(f"vertex {level} is not 3-valent")
            degree = check_balancing(flags)
            if degree is None:
                raise ArgumentError(f"vertex {level} is unbalanced")
            weights = [w for _, w in flags]
            if local_rh_defect(degree, 0, 0, weights) != 1:
                raise ArgumentError(f"vertex {level} has wrong local defect")
        graph = self.to_multigraph()
        if not graph.is_connected():
            raise ArgumentError("cover source is disconnected")
        if graph.first_betti() != self.genus:
            raise ArgumentError("cover source has wrong first Betti number")


@dataclass(frozen=True)
class CoverMultiplicity:
    weight_product: int
    forks: int
    wieners: int
    value: Fraction


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
# vertex.  Each collapsed transition carries the number of distinct
# (origin, weight) strand choices realizing it, so summing over collapsed
# paths equals summing multiplicities over isomorphism classes.

def _canon(ends, comps):
    cleaned = tuple(sorted(
        (tuple(sorted(solos)), tuple(sorted(pairs)))
        for solos, pairs in comps))
    return (tuple(sorted(ends)), cleaned)


def _dp_events(state):
    """Yield (next_state, ways, factor) for one level of the sweep.

    factor is twice the event's multiplicity factor (1/2, 1 or an edge
    weight product), so it is always an int.
    """
    ends, comps = state
    end_vals = sorted(set(ends))

    def ends_without(*remove):
        pool = list(ends)
        for r in remove:
            pool.remove(r)
        return pool

    # merge two left ends: a fork when the weights agree
    for i, a in enumerate(end_vals):
        for b in end_vals[i:]:
            if a == b and ends.count(a) < 2:
                continue
            new_comps = list(comps) + [((a + b,), ())]
            yield (_canon(ends_without(a, b), new_comps), 1,
                   1 if a == b else 2)

    # split a left end
    for a in end_vals:
        for x in range(1, a // 2 + 1):
            fresh = ((), (x,)) if x == a - x else ((x, a - x), ())
            yield (_canon(ends_without(a), list(comps) + [fresh]), 1, 2)

    handles = []
    for ci, (solos, pairs) in enumerate(comps):
        for w in sorted(set(solos)):
            handles.append((ci, "solo", w, solos.count(w)))
        for w in sorted(set(pairs)):
            handles.append((ci, "pair", w, pairs.count(w)))

    def take_one(comps_mut, ci, kind, w):
        solos, pairs = comps_mut[ci]
        if kind == "solo":
            solos = list(solos)
            solos.remove(w)
            comps_mut[ci] = (tuple(solos), pairs)
        else:
            pairs = list(pairs)
            pairs.remove(w)
            solos = list(solos) + [w]  # the widowed partner becomes solo
            comps_mut[ci] = (tuple(solos), tuple(pairs))

    def add_solo(comps_mut, ci, w):
        solos, pairs = comps_mut[ci]
        comps_mut[ci] = (tuple(list(solos) + [w]), pairs)

    def fuse(comps_mut, ci, cj):
        # merge component cj into ci, drop cj
        si, pi = comps_mut[ci]
        sj, pj = comps_mut[cj]
        comps_mut[ci] = (si + sj, pi + pj)
        del comps_mut[cj]
        return ci if ci < cj else ci - 1

    # merge a left end with an inner strand
    for a in end_vals:
        for ci, kind, w, m in handles:
            comps_mut = list(comps)
            take_one(comps_mut, ci, kind, w)
            add_solo(comps_mut, ci, a + w)
            yield (_canon(ends_without(a), comps_mut), m, 2 * w)

    # merge two inner strands
    for i in range(len(handles)):
        ci, kind_i, wi, mi = handles[i]
        # two instances of the same record
        if kind_i == "solo" and mi >= 2:
            comps_mut = list(comps)
            take_one(comps_mut, ci, "solo", wi)
            take_one(comps_mut, ci, "solo", wi)
            add_solo(comps_mut, ci, 2 * wi)
            yield (_canon(ends, comps_mut), mi * (mi - 1) // 2,
                   2 * wi * wi)
        if kind_i == "pair":
            # both members of one pair: a wiener
            comps_mut = list(comps)
            solos, pairs = comps_mut[ci]
            pairs = list(pairs)
            pairs.remove(wi)
            comps_mut[ci] = (solos, tuple(pairs))
            add_solo(comps_mut, ci, 2 * wi)
            yield (_canon(ends, comps_mut), mi, wi * wi)
            if mi >= 2:
                # one member from each of two different pairs
                comps_mut = list(comps)
                take_one(comps_mut, ci, "pair", wi)
                take_one(comps_mut, ci, "pair", wi)
                add_solo(comps_mut, ci, 2 * wi)
                yield (_canon(ends, comps_mut), mi * (mi - 1) // 2,
                       2 * wi * wi)
        for j in range(i + 1, len(handles)):
            cj, kind_j, wj, mj = handles[j]
            comps_mut = list(comps)
            take_one(comps_mut, ci, kind_i, wi)
            take_one(comps_mut, cj, kind_j, wj)
            target = ci
            if ci != cj:
                target = fuse(comps_mut, ci, cj)
            add_solo(comps_mut, target, wi + wj)
            yield (_canon(ends, comps_mut), mi * mj, 2 * wi * wj)

    # split an inner strand
    for ci, kind, w, m in handles:
        if w < 2:
            continue
        for x in range(1, w // 2 + 1):
            comps_mut = list(comps)
            take_one(comps_mut, ci, kind, w)
            if x == w - x:
                solos, pairs = comps_mut[ci]
                comps_mut[ci] = (solos, tuple(list(pairs) + [x]))
            else:
                add_solo(comps_mut, ci, x)
                add_solo(comps_mut, ci, w - x)
            yield (_canon(ends, comps_mut), m, 2 * w)


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
    values = {_canon(mu_parts, ()): 1}
    for _ in range(s):
        nxt = {}
        for state, v in values.items():
            for new_state, ways, factor in _dp_events(state):
                nxt[new_state] = nxt.get(new_state, 0) + v * ways * factor
        values = nxt

    target = tuple(sorted(nu_parts))
    total = Fraction(0)
    for (ends, comps), v in values.items():
        if ends or len(comps) != 1:
            continue
        solos, pairs = comps[0]
        weights = tuple(sorted(solos + pairs + pairs))
        if weights != target:
            continue
        total += Fraction(v, 2 ** (s + len(pairs)))
    return total

"""Tropical double Hurwitz covers of the line.

A cover for data (g, mu, nu) has s = -2 + 2g + len(mu) + len(nu)
trivalent genus-0 vertices, one over each of s fixed points ordered
left to right on the line.  Ends of weights mu point left, ends of
weights nu point right, bounded edges join vertices on distinct levels,
and every vertex is balanced.  Covers are enumerated by sweeping the
levels: at each level the single vertex either merges two incoming
strands or splits one into an unordered pair.

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


@dataclass(frozen=True)
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
        left = " ".join(f"{v}:{w}" for v, w in self.left_ends)
        mid = " ".join(f"{u}-{v}:{w}" for u, v, w in self.bounded_edges)
        right = " ".join(f"{v}:{w}" for v, w in self.right_ends)
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
    forks = 0
    for level in range(1, cover.num_levels + 1):
        for ends in (cover.left_ends, cover.right_ends):
            weights = [w for v, w in ends if v == level]
            if len(weights) == 2 and weights[0] == weights[1]:
                forks += 1
    edge_counts = {}
    for e in cover.bounded_edges:
        edge_counts[e] = edge_counts.get(e, 0) + 1
    wieners = 0
    for count in edge_counts.values():
        assert count <= 2, "trivalence bounds parallel multiplicity by 2"
        if count == 2:
            wieners += 1

    aut = 1
    for counts in (edge_counts,
                   _counts(cover.left_ends), _counts(cover.right_ends)):
        for c in counts.values():
            aut *= math.factorial(c)
    assert aut == 2 ** (forks + wieners), cover.canonical_text()

    product = cover.weight_product()
    return CoverMultiplicity(product, forks, wieners,
                             Fraction(product, aut))


def _counts(items):
    out = {}
    for item in items:
        out[item] = out.get(item, 0) + 1
    return out


# -- explicit enumeration --------------------------------------------------

def enumerate_line_covers(genus, mu, nu):
    """All isomorphism classes of covers for (genus, mu, nu).

    States of the sweep are (open strands, attached left ends, bounded
    edges) with strands tagged by their origin level (0 = still-unused
    left end); levels pin the vertices, so equal states are equal
    classes and set-dedup per level is exact.
    """
    genus, mu, nu, s = _setup(genus, mu, nu)
    start = (tuple(sorted((0, m) for m in mu.parts)), (), ())
    states = {start}
    for level in range(1, s + 1):
        nxt = set()
        for opens, lefts, edges in states:
            values = sorted(set(opens))

            def consumed(strand, lefts=lefts, edges=edges, level=level):
                origin, w = strand
                if origin == 0:
                    return (tuple(sorted(lefts + ((level, w),))), edges)
                return (lefts, tuple(sorted(edges + ((origin, level, w),))))

            for i, a in enumerate(values):
                for b in values[i:]:
                    if a == b and opens.count(a) < 2:
                        continue
                    pool = list(opens)
                    pool.remove(a)
                    pool.remove(b)
                    lefts1, edges1 = consumed(a)
                    lefts2, edges2 = (consumed(b, lefts1, edges1))
                    pool.append((level, a[1] + b[1]))
                    nxt.add((tuple(sorted(pool)), lefts2, edges2))
            for a in values:
                w = a[1]
                for x in range(1, w // 2 + 1):
                    pool = list(opens)
                    pool.remove(a)
                    lefts1, edges1 = consumed(a)
                    pool.append((level, x))
                    pool.append((level, w - x))
                    nxt.add((tuple(sorted(pool)), lefts1, edges1))
        states = nxt

    target = tuple(sorted(nu.parts, reverse=True))
    covers = []
    for opens, lefts, edges in states:
        if any(origin == 0 for origin, _ in opens):
            continue
        if tuple(sorted((w for _, w in opens), reverse=True)) != target:
            continue
        if not _levels_connected(s, edges):
            continue
        covers.append(LineCover(
            genus=genus, mu=mu.parts, nu=nu.parts, num_levels=s,
            left_ends=lefts, bounded_edges=edges,
            right_ends=tuple(sorted(opens))))
    covers.sort(key=LineCover.canonical_text)
    return covers


def _levels_connected(s, edges) -> bool:
    parent = list(range(s + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in edges:
        parent[find(u)] = find(v)
    roots = {find(v) for v in range(1, s + 1)}
    return len(roots) == 1


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

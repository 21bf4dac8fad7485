"""Exact truncated series and Feynman integrals over a circle target.

The engine works with exact series in two groups of variables:
per-vertex variables x_j with any integer exponents, and per-edge
variables q_k with nonnegative exponents of bounded total degree.

An edge between vertices u and v contributes one factor: a q-degree-0
geometric part sum_{w<=d} w*(x_lower/x_higher)^{2w} whose direction
is dictated by the chosen vertex order, plus for every a >= 1 and
every divisor w of a the symmetric pair w*((x_u/x_v)^{2w} +
(x_v/x_u)^{2w}) at q^{2a}.  The refined integral of a 3-valent shape
is the x-constant part of the product of its edge factors; the
coefficient of prod q_k^{2 a_k} is the weighted number of labeled
covers with multidegree a, which is how the counts of elliptic_covers
reappear as series coefficients.
"""

import bisect
import operator
from collections import namedtuple
from fractions import Fraction

from .elliptic_covers import (FeynmanGraph, enumerate_feynman_graphs,
                              order_orbits, simple_hurwitz_tropical)
from .errors import ArgumentError
from .graphs import automorphism_group_order
from .util import slot_of

def sigma(n) -> int:
    """Sum of the divisors of n."""
    m = int(n)
    if m < 1:
        raise ArgumentError("sigma is defined for positive integers")
    return sum(d for d in range(1, m + 1) if m % d == 0)


class TruncatedSeries:
    """A series truncated in total q-degree, with exact coefficients.

    Terms are keyed by (x_exponents, q_exponents); x-exponents are any
    integers, q-exponents are nonnegative with total degree at most
    q_bound.  Zero coefficients are never stored.  Arithmetic silently
    drops products past q_bound; explicit terms past it are an error.
    x needs no bound: every edge factor moves an x-exponent by at most
    2d, so a product of finitely many factors has finitely many terms.
    """

    __slots__ = ("num_x", "num_q", "q_bound", "terms")

    def __init__(self, num_x, num_q, q_bound, terms=None):
        self.num_x = int(num_x)
        self.num_q = int(num_q)
        self.q_bound = int(q_bound)
        if self.num_x < 0 or self.num_q < 0:
            raise ArgumentError("variable counts are nonnegative")
        if self.q_bound < 0:
            raise ArgumentError("q_bound is nonnegative")
        self.terms = {}
        for (x_exps, q_exps), coeff in (terms or {}).items():
            x_exps, q_exps = tuple(x_exps), tuple(q_exps)
            if len(x_exps) != self.num_x or len(q_exps) != self.num_q:
                raise ArgumentError("exponent vector has the wrong length")
            if min(q_exps, default=0) < 0 or sum(q_exps) > self.q_bound:
                raise ArgumentError("exponents exceed the truncation bound")
            if coeff:
                key = (x_exps, q_exps)
                self.terms[key] = self.terms.get(key, 0) + coeff
                if not self.terms[key]:
                    del self.terms[key]

    def shape(self):
        return (self.num_x, self.num_q, self.q_bound)

    def _same_shape(self, other):
        if not isinstance(other, TruncatedSeries):
            raise ArgumentError("expected a TruncatedSeries")
        if self.shape() != other.shape():
            raise ArgumentError("series shapes differ")

    @classmethod
    def constant(cls, value, num_x, num_q, q_bound) -> "TruncatedSeries":
        series = cls(num_x, num_q, q_bound)
        if value:
            series.terms[((0,) * series.num_x, (0,) * series.num_q)] = value
        return series

    def __add__(self, other) -> "TruncatedSeries":
        self._same_shape(other)
        out = TruncatedSeries(*self.shape())
        out.terms = dict(self.terms)
        for key, coeff in other.terms.items():
            total = out.terms.get(key, 0) + coeff
            if total:
                out.terms[key] = total
            else:
                out.terms.pop(key, None)
        return out

    def __sub__(self, other) -> "TruncatedSeries":
        return self + other.scale(-1)

    def __mul__(self, other) -> "TruncatedSeries":
        """The product within q_bound: other's terms are sorted by
        q-degree, so a term of degree k meets those of degree <= q_bound - k.
        """
        self._same_shape(other)
        out = TruncatedSeries(*self.shape())
        acc = out.terms
        ordered = sorted(((sum(bq), bx, bq, bc)
                          for (bx, bq), bc in other.terms.items()),
                         key=operator.itemgetter(0))
        degrees = [k for k, _, _, _ in ordered]
        for (ax, aq), ac in self.terms.items():
            stop = bisect.bisect_right(degrees, self.q_bound - sum(aq))
            for _, bx, bq, bc in ordered[:stop]:
                key = (tuple(map(operator.add, ax, bx)),
                       tuple(map(operator.add, aq, bq)))
                total = acc.get(key, 0) + ac * bc
                if total:
                    acc[key] = total
                else:
                    del acc[key]
        return out

    def scale(self, factor) -> "TruncatedSeries":
        out = TruncatedSeries(*self.shape())
        if factor:
            out.terms = {key: coeff * factor
                         for key, coeff in self.terms.items()}
        return out

    def coefficient(self, x_exps=(), q_exps=()):
        x_exps, q_exps = tuple(x_exps), tuple(q_exps)
        if len(x_exps) != self.num_x or len(q_exps) != self.num_q:
            raise ArgumentError("exponent vector has the wrong length")
        return self.terms.get((x_exps, q_exps), 0)

    def x_constant_part(self) -> "TruncatedSeries":
        """The all-x-degree-0 slice, as a series in the q variables."""
        out = TruncatedSeries(0, self.num_q, self.q_bound)
        zero = (0,) * self.num_x
        for (x_exps, q_exps), coeff in self.terms.items():
            if x_exps == zero:
                out.terms[((), q_exps)] = coeff
        return out

    def ordered_terms(self):
        """Terms sorted by total q-degree, then exponents."""
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0][1]), item[0][1],
                                        item[0][0]))

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.shape() == other.shape()
                and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        return (f"TruncatedSeries(num_x={self.num_x}, num_q={self.num_q}, "
                f"q_bound={self.q_bound}, terms={len(self.terms)})")


def eisenstein_E2(q_bound) -> TruncatedSeries:
    """1 - 24 sum_{d>=1} sigma(d) q^d, truncated at the given degree."""
    bound = int(q_bound)
    if bound < 0:
        raise ArgumentError("q_bound is nonnegative")
    series = TruncatedSeries.constant(1, 0, 1, bound)
    for d in range(1, bound + 1):
        series.terms[((), (d,))] = -24 * sigma(d)
    return series


def _divisors(n):
    return [w for w in range(1, n + 1) if n % w == 0]


def propagator_factor(k1, k2, lower, q_var, d, num_x,
                      num_q) -> TruncatedSeries:
    """The expanded factor of one edge between vertices k1 and k2.

    The q-degree-0 part is the geometric sum w*(x_lower/x_higher)^{2w}
    for w = 1..d, where lower names the endpoint that comes first in
    the vertex order.  The q^{2a} part, for a = 1..d, sums
    w*((x_k1/x_k2)^{2w} + (x_k2/x_k1)^{2w}) over divisors w of a.
    The series is truncated at q <= 2d, which every term meets.
    """
    if k1 == k2:
        raise ArgumentError("an edge factor needs two distinct vertices")
    if lower not in (k1, k2):
        raise ArgumentError("lower must be one of the two endpoints")
    if not (0 <= k1 < num_x and 0 <= k2 < num_x):
        raise ArgumentError("vertex variable index out of range")
    if not 0 <= q_var < num_q:
        raise ArgumentError("edge variable index out of range")
    if d < 0:
        raise ArgumentError("truncation degree is nonnegative")
    series = TruncatedSeries(num_x, num_q, 2 * d)
    higher = k2 if lower == k1 else k1

    def key(source, target, w, q_exp):
        x_exps = [0] * num_x
        x_exps[source] += 2 * w
        x_exps[target] -= 2 * w
        q_exps = [0] * num_q
        q_exps[q_var] = q_exp
        return (tuple(x_exps), tuple(q_exps))

    for w in range(1, d + 1):
        series.terms[key(lower, higher, w, 0)] = w
    for a in range(1, d + 1):
        for w in _divisors(a):
            series.terms[key(k1, k2, w, 2 * a)] = w
            series.terms[key(k2, k1, w, 2 * a)] = w
    return series


def _integral(shape: FeynmanGraph, order, d, coarse) -> TruncatedSeries:
    """x-constant part of the product of all edge factors.

    Each edge k gets its own variable q_k, or with coarse=True all edges
    share one q.  Factors are multiplied in vertex by vertex.  Each one
    moves x_v by at most 2d, so after each factor a term whose |x_v|
    exceeds 2d times the number of factors still to come at v can no
    longer reach the constant term and is dropped.  Once a vertex has
    no factors left, only its x-degree-0 slice survives.
    """
    edges = shape.graph.edges
    num_x = shape.num_vertices
    num_q = 1 if coarse else shape.num_edges
    if sorted(order) != list(range(num_x)):
        raise ArgumentError("order must list every vertex exactly once")
    if d < 0:
        raise ArgumentError("truncation degree is nonnegative")
    slots = slot_of(order)
    acc = TruncatedSeries.constant(1, num_x, num_q, 2 * d)
    # reach[x]: how far the factors still to come can move x's exponent
    reach = [2 * d * sum(e.count(x) for e in edges) for x in range(num_x)]
    # an edge is multiplied in at its endpoint that comes first in order
    for k in sorted(range(len(edges)),
                    key=lambda k: min(slots[x] for x in edges[k])):
        u, v = edges[k]
        lower = u if slots[u] < slots[v] else v
        acc = acc * propagator_factor(u, v, lower, 0 if coarse else k, d,
                                      num_x, num_q)
        reach[u] -= 2 * d
        reach[v] -= 2 * d
        acc.terms = {key: c for key, c in acc.terms.items()
                     if abs(key[0][u]) <= reach[u]
                     and abs(key[0][v]) <= reach[v]}
    return acc.x_constant_part()


def refined_integral(shape: FeynmanGraph, order, d) -> TruncatedSeries:
    """x-constant part of the edge product, with one q_k per edge.

    The coefficient of prod q_k^{2 a_k}, a nonnegative integer, is the
    weighted count of labeled covers of multidegree a.
    """
    return _integral(shape, order, d, coarse=False)


def coarse_integral(shape: FeynmanGraph, order, d) -> TruncatedSeries:
    """The refined integral with all edge variables identified.

    Built in one q from the start: q_k -> q is a ring map commuting with
    the product, the x-projection and the total-degree truncation.
    """
    return _integral(shape, order, d, coarse=True)


class MirrorRow(namedtuple("MirrorRow",
                           "degree q_power tropical series match")):
    """One degree of the cover-count versus series comparison."""

    __slots__ = ()


def mirror_check(genus, d_max):
    """Compare cover counts with the aggregated series, degree by degree.

    simple_hurwitz_tropical gives the counts, checked against the
    content sums; the series side sums coarse integrals over all shapes
    and vertex orders, each shape weighted by 1/|Aut|.  Orders in one
    Aut-orbit differ by a vertex automorphism, which only relabels the
    edges (see order_orbits), and the coarse integral shares one q among
    all edges.  So each orbit adds its first order's integral times the
    orbit size.  Series mismatches are reported in the rows, not raised.
    """
    g = int(genus)
    dm = int(d_max)
    if g not in (2, 3):
        raise ArgumentError("genus must be 2 or 3")
    if not 1 <= dm <= 6:
        raise ArgumentError("d_max must be between 1 and 6")
    total = TruncatedSeries(0, 1, 2 * dm)
    for shape in enumerate_feynman_graphs(g):
        aut = automorphism_group_order(shape.graph)
        per_shape = TruncatedSeries(0, 1, 2 * dm)
        for rep, orbit in order_orbits(shape.graph).items():
            per_shape = per_shape + coarse_integral(shape, rep,
                                                    dm).scale(len(orbit))
        total = total + per_shape.scale(Fraction(1, aut))
    rows = []
    for d in range(1, dm + 1):
        tropical = simple_hurwitz_tropical(d, g)
        series = total.coefficient(q_exps=(2 * d,))
        rows.append(MirrorRow(degree=d, q_power=2 * d, tropical=tropical,
                              series=series, match=tropical == series))
    return rows

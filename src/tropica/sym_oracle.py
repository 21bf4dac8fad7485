"""Hurwitz numbers via monodromy representations in symmetric groups.

This module is an independent counting route used to validate the
tropical enumerations.  It never touches graphs: everything reduces to
exact integer sums over conjugacy classes of S_d.

hurwitz_line(g, mu, nu) counts tuples (sigma_0, tau_1, ..., tau_s) with
sigma_0 of cycle type mu, each tau_i a transposition, the product
tau_s ... tau_1 sigma_0 of cycle type nu, generating a transitive
subgroup; the count is divided by d!.  Here s = 2g - 2 + len(mu) +
len(nu).  Products with a transposition are tallied once per
conjugacy class (a small transfer matrix), not once per element.

hurwitz_elliptic(d, g) counts tuples (alpha, beta, tau_1, ...,
tau_{2g-2}) whose commutator [alpha, beta] times the transposition
product is the identity, again transitive and divided by d!.  By
Frobenius's formula there are d! * sum_{lambda |- d} f2(lambda)^(2g-2)
such tuples, f2 being the content sum, so no permutation is built.

Transitivity is extracted afterwards by an inclusion-exclusion over the
orbit of a marked point.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .errors import ArgumentError
from .util import as_partition, cycle_type, partitions_of


def _class_rep(parts):
    """A permutation with the given cycle type, cycles on consecutive points."""
    perm = []
    start = 0
    for length in parts:
        perm.extend(list(range(start + 1, start + length)) + [start])
        start += length
    return tuple(perm)


def _class_size(parts) -> int:
    z = math.prod(math.factorial(m) * p ** m
                  for p, m in Counter(parts).items())
    return math.factorial(sum(parts)) // z


@lru_cache(maxsize=None)
def _all_types(d):
    """All cycle types of S_d, sorted."""
    return tuple(sorted(partitions_of(d)))


@lru_cache(maxsize=None)
def _transposition_step(d):
    """Matrix step[c][c'] = number of transpositions t with t * rep_c in c'.

    The count is independent of the representative, so one representative
    per class suffices.
    """
    types = _all_types(d)
    index = {t: i for i, t in enumerate(types)}
    step = [[0] * len(types) for _ in types]
    for i, parts in enumerate(types):
        rep = _class_rep(parts)
        for a in range(d):
            for b in range(a + 1, d):
                # left-multiply by the transposition (a b)
                image = [b if x == a else a if x == b else x for x in rep]
                step[i][index[cycle_type(tuple(image))]] += 1
    return step


@lru_cache(maxsize=None)
def _walks(d, start_type, steps):
    """Distribution over classes after multiplying by `steps` transpositions,
    starting from one fixed element of class start_type."""
    types = _all_types(d)
    index = {t: i for i, t in enumerate(types)}
    step = _transposition_step(d)
    vec = [0] * len(types)
    vec[index[tuple(start_type)]] = 1
    for _ in range(steps):
        nxt = [0] * len(types)
        for i, count in enumerate(vec):
            if count == 0:
                continue
            row = step[i]
            for j, w in enumerate(row):
                if w:
                    nxt[j] += count * w
        vec = nxt
    return {t: vec[i] for i, t in enumerate(types) if vec[i]}


def _sub_multisets(parts, target):
    """Distinct sub-multisets of a partition with part sum target,
    yielded with their complements."""
    items = sorted(set(parts), reverse=True)
    counts = [list(parts).count(p) for p in items]

    def rec(i, remaining):
        if remaining == 0:
            yield []
            return
        if i == len(items):
            return
        p, cmax = items[i], counts[i]
        for take in range(min(cmax, remaining // p), -1, -1):
            for rest in rec(i + 1, remaining - take * p):
                yield [p] * take + rest

    for chosen in rec(0, target):
        complement = list(parts)
        for p in chosen:
            complement.remove(p)
        yield tuple(chosen), tuple(complement)


@lru_cache(maxsize=None)
def _line_all(d, mu, nu, s) -> int:
    """Tuples (sigma_0 in C_mu, s transpositions) with product type nu,
    transitivity not required."""
    dist = _walks(d, mu, s)
    return _class_size(mu) * dist.get(nu, 0)


@lru_cache(maxsize=None)
def _line_transitive(d, mu, nu, s) -> int:
    """Same count restricted to transitive tuples.

    Subtracts tuples whose orbit of the first point is a proper block:
    the block inherits a transitive tuple, the complement an arbitrary
    one, and the transpositions interleave freely.
    """
    total = _line_all(d, mu, nu, s)
    for d1 in range(1, d):
        block_choices = math.comb(d - 1, d1 - 1)
        for mu1, mu2 in _sub_multisets(mu, d1):
            if not mu1 or not mu2:
                continue
            for nu1, nu2 in _sub_multisets(nu, d1):
                if not nu1 or not nu2:
                    continue
                for s1 in range(s + 1):
                    inner = _line_transitive(d1, mu1, nu1, s1)
                    if inner == 0:
                        continue
                    outer = _line_all(d - d1, mu2, nu2, s - s1)
                    if outer == 0:
                        continue
                    total -= (block_choices * math.comb(s, s1)
                              * inner * outer)
    return total


def hurwitz_line(genus, mu, nu) -> Fraction:
    """Double Hurwitz number of the line via symmetric group counts.

    genus is the genus of the covering curve; mu and nu are the
    ramification profiles over the two special points.
    """
    g = int(genus)
    if g < 0:
        raise ArgumentError("genus must be nonnegative")
    mu = as_partition(mu)
    nu = as_partition(nu)
    d = sum(mu)
    if d != sum(nu):
        raise ArgumentError("profiles must partition the same degree")
    s = 2 * g - 2 + len(mu) + len(nu)
    if s < 0:
        raise ArgumentError("no transposition count fits this genus")
    count = _line_transitive(d, mu, nu, s)
    return Fraction(count, math.factorial(d))


@lru_cache(maxsize=None)
def _content_sums(d):
    """f2(lambda) for each partition lambda of d: the sum of j - i over
    the boxes (i, j) of its diagram."""
    return tuple(sum(part * (part - 1) // 2 - i * part
                     for i, part in enumerate(lam))
                 for lam in partitions_of(d))


@lru_cache(maxsize=None)
def _elliptic_all(d, s) -> int:
    """Tuples (alpha, beta, s transpositions) multiplying to the identity,
    transitivity not required: d! * sum of f2(lambda)^s (Frobenius)."""
    return math.factorial(d) * sum(f ** s for f in _content_sums(d))


@lru_cache(maxsize=None)
def _elliptic_transitive(d, s) -> int:
    total = _elliptic_all(d, s)
    for d1 in range(1, d):
        block_choices = math.comb(d - 1, d1 - 1)
        for s1 in range(s + 1):
            inner = _elliptic_transitive(d1, s1)
            if inner == 0:
                continue
            outer = _elliptic_all(d - d1, s - s1)
            if outer == 0:
                continue
            total -= block_choices * math.comb(s, s1) * inner * outer
    return total


def hurwitz_elliptic(degree, genus) -> Fraction:
    """Simple Hurwitz number of an elliptic curve via monodromy counts.

    Covers of degree `degree` by genus-`genus` curves with s = 2g - 2
    simple branch points.
    """
    d, g = int(degree), int(genus)
    if d < 1:
        raise ArgumentError("degree must be positive")
    if g < 1:
        raise ArgumentError("genus must be at least 1")
    count = _elliptic_transitive(d, 2 * g - 2)
    return Fraction(count, math.factorial(d))

"""Hurwitz numbers via monodromy representations in symmetric groups.

This module is an independent counting route used to validate the
tropical enumerations.  It never touches graphs: everything reduces to
exact integer walks on conjugacy classes of S_d.

hurwitz_line(g, mu, nu) counts tuples (sigma_0, tau_1, ..., tau_s) with
sigma_0 of cycle type mu, each tau_i a transposition, the product
tau_s ... tau_1 sigma_0 of cycle type nu, generating a transitive
subgroup; the count is divided by d!.  Here s = 2g - 2 + len(mu) +
len(nu).

hurwitz_elliptic(d, g) counts tuples (alpha, beta, tau_1, ...,
tau_{2g-2}) whose commutator [alpha, beta] times the transposition
product is the identity, again transitive and divided by d!.

Since only cycle types matter, products with a transposition are
tallied once per conjugacy class (a small transfer matrix) instead of
once per group element, and transitivity is extracted afterwards by an
inclusion-exclusion over the orbit of a marked point.  This keeps the
oracle exact and fast for every degree the guards admit.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .errors import ArgumentError, SizeGuardError
from .graphs import Partition
from .util import cycle_type, partitions_of

LINE_DEGREE_GUARD = 6
ELLIPTIC_DEGREE_GUARD = 5
ELLIPTIC_GENUS_GUARD = 3


def _class_rep(parts):
    """A permutation with the given cycle type, cycles on consecutive points."""
    perm = []
    start = 0
    for length in parts:
        perm.extend(list(range(start + 1, start + length)) + [start])
        start += length
    return tuple(perm)


def _class_size(parts) -> int:
    d = sum(parts)
    z = 1
    mult = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    for p, m in mult.items():
        z *= math.factorial(m) * p ** m
    return math.factorial(d) // z


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
                image = list(rep)
                # left-multiply by the transposition (a b)
                image = [b if x == a else a if x == b else x for x in image]
                step[i][index[cycle_type(tuple(image))]] += 1
    return step


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


def hurwitz_line(genus, mu, nu, force=False) -> Fraction:
    """Double Hurwitz number of the line via symmetric group counts.

    genus is the genus of the covering curve; mu and nu are the
    ramification profiles over the two special points.  Degrees above 6
    are refused unless force=True.
    """
    g = int(genus)
    if g < 0:
        raise ArgumentError("genus must be nonnegative")
    mu = Partition(mu)
    nu = Partition(nu)
    if mu.size != nu.size:
        raise ArgumentError("profiles must partition the same degree")
    d = mu.size
    if d > LINE_DEGREE_GUARD and not force:
        raise SizeGuardError(
            f"degree {d} exceeds the guard ({LINE_DEGREE_GUARD}); "
            "pass force=True to compute anyway")
    s = 2 * g - 2 + mu.length + nu.length
    if s < 0:
        raise ArgumentError("no transposition count fits this genus")
    count = _line_transitive(d, mu.parts, nu.parts, s)
    return Fraction(count, math.factorial(d))


@lru_cache(maxsize=None)
def _commutator_distribution(d):
    """Class distribution of [alpha, beta] over all pairs in S_d^2.

    Conjugation-equivariance lets alpha run over class representatives
    only, weighted by class size.
    """
    types = _all_types(d)
    dist = {t: 0 for t in types}
    everyone = list(permutations(range(d)))
    for parts in types:
        alpha = _class_rep(parts)
        weight = _class_size(parts)
        inv_alpha = [0] * d
        for i, v in enumerate(alpha):
            inv_alpha[v] = i
        for beta in everyone:
            inv_beta = [0] * d
            for i, v in enumerate(beta):
                inv_beta[v] = i
            comm = tuple(alpha[beta[inv_alpha[inv_beta[x]]]] for x in range(d))
            dist[cycle_type(comm)] += weight
    return dist


@lru_cache(maxsize=None)
def _elliptic_all(d, s) -> int:
    """Tuples (alpha, beta, s transpositions) multiplying to the identity,
    transitivity not required."""
    identity = (1,) * d
    dist = _commutator_distribution(d)
    total = 0
    for start_type, pairs in dist.items():
        if pairs == 0:
            continue
        walks = _walks(d, start_type, s)
        total += pairs * walks.get(identity, 0)
    return total


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


def hurwitz_elliptic(degree, genus, force=False) -> Fraction:
    """Simple Hurwitz number of an elliptic curve via monodromy counts.

    Covers of degree `degree` by genus-`genus` curves with 2g - 2 simple
    branch points.  Degrees above 5 or genus above 3 are refused unless
    force=True.
    """
    d = int(degree)
    g = int(genus)
    if d < 1:
        raise ArgumentError("degree must be positive")
    if g < 1:
        raise ArgumentError("genus must be at least 1")
    if (d > ELLIPTIC_DEGREE_GUARD or g > ELLIPTIC_GENUS_GUARD) and not force:
        raise SizeGuardError(
            f"degree {d}, genus {g} exceeds the guard "
            f"(degree {ELLIPTIC_DEGREE_GUARD}, genus {ELLIPTIC_GENUS_GUARD}); "
            "pass force=True to compute anyway")
    count = _elliptic_transitive(d, 2 * g - 2)
    return Fraction(count, math.factorial(d))

"""Size guards: one work estimate per engine that can run without bound.

Each CLI command calls its guard before any engine runs; past its limit
a guard raises SizeGuardError unless forced (--force).  Each estimate is
in its own unit with its own limit, and every guard accepts any ints.
Most are closed forms; the two line guards walk the cover sweep's move
tables and stop once past the limit.
"""

import math
from collections import Counter

from .errors import SizeGuardError
from .line_covers import _moves, _table, _tables

LIMITS = {
    "line_oracle": 4_000_000,  # steps; (0, (19,), (19,)) is 3,601,011
    "line_covers": 50_000,  # paths or moves; (1, (6,5,4), (5,5,5)) is 5,143
    "line_dp": 250_000,  # events; (0, (3,3,2,2,1,1), (2^4,1^4)) is 158,956
    "elliptic": 50_000,  # steps; (7, 3) is 41,184 and runs in about 0.45 s
    "elliptic_oracle": 500_000,  # steps; (34, 2) is 423,164
    "chambers": 200_000,  # steps; (5, 1) is 42,875
    "feynman": 200_000,  # terms; dmax 10 on 6 edges is 168,168
    "moduli": 10_395,  # types; every (g, n) with six vertices
    "graph_complex": 6_190_283_353_629_375,  # pairings; genus 6 runs in 0.7 s
}
CAP = 100  # an argument past it counts as CAP, far past every limit


def _check(name, work, job, unit, force, detail="", bound="about"):
    if work > LIMITS[name] and not force:
        about = work if work < 2 ** 64 else f"2^{work.bit_length() - 1}"
        raise SizeGuardError(
            f"{job} is {bound} {about} {unit} of work{detail}, past the guard "
            f"of {LIMITS[name]}; pass --force to run anyway")
    return work


def _class_counts(d):
    """p(k) for k <= min(d, 200); p(200) is past every guard already."""
    counts = [1] + [0] * min(max(d, 0), 200)
    for part in range(1, len(counts)):
        for n in range(part, len(counts)):
            counts[n] += counts[n - part]
    return counts


def _sub_multiset_counts(parts):
    """The distinct sub-multisets of parts, counted by their sum."""
    counts = {0: 1}
    for part, m in Counter(parts).items():
        reached = dict(counts)
        for j in range(1, m + 1):
            for t, n in counts.items():
                reached[t + j * part] = reached.get(t + j * part, 0) + n
        counts = reached
    return Counter(counts)


def line_oracle(genus, mu, nu, force=False):
    """p(d) d^3, plus (s + 1) p(k)^2 per sub-multiset pair of one sum k."""
    d, s = sum(mu), 2 * genus - 2 + len(mu) + len(nu)
    p = _class_counts(d)
    a, b = _sub_multiset_counts(mu), _sub_multiset_counts(nu)
    blocks = sum(a[k] * b[k] * p[min(k, len(p) - 1)] ** 2 for k in a)
    return _check("line_oracle", p[-1] * d ** 3 + (s + 1) * blocks,
                  f"degree {d} with {s} transpositions", "steps", force)


def line_covers(genus, mu, nu, force=False):
    """The weight paths from mu to nu through the cover sweep's moves; as
    every kept state reaches nu, a walk past the limit stops ("at least").
    The sweep first builds the moves, a table per level from the weights
    of the one before, trying each merge and split of each; each layer is
    priced before its table is built, and the build stops once the moves
    it has tried pass the limit ("at least")."""
    s, bound = 2 * genus - 2 + len(mu) + len(nu), "about"
    job = f"listing {s}-level covers of degree {sum(mu)}"
    tried, layer, last, moves = 0, [tuple(sorted(nu))], s < 1, []
    tables = _tables(nu, s)
    while not last:
        tried += sum(math.comb(len(w), 2) + sum(c // 2 for c in w)
                     for w in layer)
        _check("line_covers", tried, job, "tried moves", force,
               bound="at least")
        layer, last = next(tables)
        moves.append(layer)
    k, paths = s, Counter({tuple(sorted(mu)): 1})
    one_back = two_back = None
    while k > 0 and paths:  # paths holds the paths from mu to level k
        if sum(paths.values()) > LIMITS["line_covers"] and not force:
            bound = "at least"
            break
        # where the tables repeat in twos, paths that repeat too stay put
        if k >= len(moves) + 2 and paths == two_back:
            k = len(moves) + (k - len(moves)) % 2
        two_back, one_back, k = one_back, paths, k - 1
        reached = Counter()
        for weights, count in paths.items():
            for _, _, after in _table(moves, k).get(weights, ()):
                reached[after] += count
        paths = reached
    return _check("line_covers", sum(paths.values()), job, "weight paths",
                  force, bound=bound)


def line_dp(genus, mu, nu, force=False):
    """The level DP's events: the moves of each weight multiset it can hold
    at a level, times 2^(its length) as a stand-in for the ways its
    strands group into ends and components (0.14 to 1.5 events per unit
    measured over 32 profiles); a walk past the limit stops ("at least")."""
    s, bound = 2 * genus - 2 + len(mu) + len(nu), "about"
    work, held, moves = 0, {tuple(sorted(mu))}, _moves(nu, s)
    for k in reversed(range(s)):
        if work > LIMITS["line_dp"] and not force:
            bound = "at least"
            break
        if not held:
            break
        table = _table(moves, k)
        work += sum(len(table.get(w, ())) << len(w) for w in held)
        held = {after for w in held for _, _, after in table.get(w, ())}
    return _check("line_dp", work, f"summing {s}-level covers of degree "
                  f"{sum(mu)}", "events", force, bound=bound)


def elliptic(degree, genus, force=False):
    """(2g - 2)! vertex orders times C(d + 3g - 3, 3g - 3) compositions."""
    d, e = min(degree, CAP), max(3 * min(genus, CAP) - 3, 0)  # e edges
    work = math.factorial(2 * e // 3) * math.comb(max(d + e, 0), e)
    return _check("elliptic", work, f"degree {degree}, genus {genus}",
                  "steps", force)


def elliptic_oracle(degree, genus, force=False):
    """p(d) * d for the content sums, (d * s)^2 for the rest, s = 2g - 2."""
    d, s = max(degree, 0), max(2 * genus - 2, 0)
    return _check("elliptic_oracle", _class_counts(d)[-1] * d + (d * s) ** 2,
                  f"degree {degree}, genus {genus}", "steps", force)


def chambers(lmu, lnu, force=False):
    """W + 1 chambers times B^3, B = C(2n - 5, n - 3), for W walls."""
    a, b = min(lmu, CAP), min(lnu, CAP)
    num_walls = (2 ** max(a - 1, 0) - 1) * (2 ** max(b, 0) - 2)
    unknowns = math.comb(max(2 * (a + b) - 5, 0), max(a + b - 3, 0))
    return _check("chambers", (num_walls + 1) * unknowns ** 3,
                  f"lmu {lmu}, lnu {lnu}", "steps", force,
                  f" (at least {num_walls + 1} chambers, {unknowns}^3 for "
                  f"the {unknowns} unknowns of each)")


def feynman(num_edges, dmax, force=False):
    """C(d + E, E) multidegrees of E edges, times 2d + 1 exponents of x."""
    work = math.comb(max(dmax, 0) + num_edges, num_edges) * (2 * dmax + 1)
    return _check("feynman", work, f"dmax {dmax} on {num_edges} edges",
                  "terms", force)


def moduli(genus, marks, force=False):
    """(2V - 1)!!, the maximal types at genus 0 with V = 2g - 2 + n."""
    v = 2 * genus - 2 + marks
    return _check("moduli", math.prod(range(1, 2 * min(v, CAP), 2)),
                  f"genus {genus} with {marks} marks", "types", force)


def graph_complex(genus, force=False):
    """(6g - 7)!!, the pairings of a trivalent genus-g graph's half-edges."""
    work = math.prod(range(1, 6 * min(genus, CAP) - 6, 2))
    return _check("graph_complex", work, f"genus {genus}", "pairings", force)

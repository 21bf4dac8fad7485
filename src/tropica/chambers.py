"""Chamber decomposition for genus-0 double Hurwitz counts.

As a function of the entries (mu_1..mu_l, nu_1..nu_l') on the slice
sum(mu) = sum(nu), the genus-0 count is polynomial on the open chambers
cut out by the walls sum_{i in I} mu_i - sum_{j in J} nu_j = 0.  On a
chamber the polynomial is assembled symbolically: every 3-valent tree
with l + l' labeled ends carries, per bounded edge, the linear weight
form forced by balancing; a tree contributes on the chamber where all
its edge weights are positive, with multiplicity the number of ways to
order its vertices compatibly with the edge orientations.  The same
polynomial is recomputed by exact interpolation from point counts and
the two must agree.

Chamber polynomials are reduced to slice coordinates (nu_l' is
eliminated via the relation) and evaluate the count for tuples with
pairwise distinct entries; at repeated entries the tuple count and the
partition count differ by symmetry factors.
"""

import functools
import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from .errors import ArgumentError, CrossCheckError, DegenerateInputError
from .line_covers import double_hurwitz_tropical
from .util import frac_str, linear_extension_count

class LinearForm(namedtuple("LinearForm", "mu_coeffs nu_coeffs")):
    """An integer linear form sum a_i mu_i + sum b_j nu_j."""

    __slots__ = ()

    def evaluate(self, mu, nu):
        if len(mu) != len(self.mu_coeffs) or len(nu) != len(self.nu_coeffs):
            raise ArgumentError("point has the wrong number of entries")
        return (sum(map(operator.mul, self.mu_coeffs, mu))
                + sum(map(operator.mul, self.nu_coeffs, nu)))

    def text(self) -> str:
        parts = []
        names = [(f"mu{i + 1}", a) for i, a in enumerate(self.mu_coeffs)]
        names += [(f"nu{j + 1}", b) for j, b in enumerate(self.nu_coeffs)]
        for name, coeff in names:
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            term = name if mag == 1 else f"{mag}*{name}"
            parts.append((sign, term))
        if not parts:
            return "0"
        first_sign, first_term = parts[0]
        out = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out


def walls(lmu: int, lnu: int):
    """Wall forms for profile lengths (lmu, lnu), one per wall.

    A wall comes from a pair (I, J) of proper nonempty index subsets;
    (I, J) and its complementary pair cut the same hyperplane on the
    slice and are identified, normalized so that index 1 of mu is in I.
    Walls are the only such forms that vanish at interior points.
    """
    lmu, lnu = int(lmu), int(lnu)
    if lmu < 1 or lnu < 1:
        raise ArgumentError("profile lengths must be at least 1")
    out = []
    for i_size in range(1, lmu):
        for rest in itertools.combinations(range(1, lmu), i_size - 1):
            ii = (0,) + rest
            for j_size in range(1, lnu):
                for jj in itertools.combinations(range(lnu), j_size):
                    mu_c = tuple(1 if i in ii else 0 for i in range(lmu))
                    nu_c = tuple(-1 if j in jj else 0 for j in range(lnu))
                    out.append(LinearForm(mu_c, nu_c))
    out.sort(key=lambda f: (f.mu_coeffs, f.nu_coeffs))
    return out


class Chamber(SimpleNamespace):
    """An open chamber: walls with fixed signs and an interior witness.

    Mutable, as chamber_polynomial sets polynomial; it compares by its
    fields and is unhashable.  signs holds "+" or "-" per wall.
    """

    def __init__(self, walls, signs, witness_mu, witness_nu, polynomial=None):
        super().__init__(walls=walls, signs=signs, witness_mu=witness_mu,
                         witness_nu=witness_nu, polynomial=polynomial)

    def contains(self, mu, nu) -> bool:
        if sum(mu) != sum(nu):
            return False
        for wall, sign in zip(self.walls, self.signs):
            value = wall.evaluate(mu, nu)
            if value == 0 or (value > 0) != (sign == "+"):
                return False
        return True


def _slice_points(lmu, lnu, bound):
    """Integer points of the box [1, bound]^(lmu+lnu) on the slice."""
    for mu in itertools.product(range(1, bound + 1), repeat=lmu):
        d = sum(mu)
        for head in itertools.product(range(1, bound + 1), repeat=lnu - 1):
            last = d - sum(head)
            if 1 <= last <= bound:
                yield mu, head + (last,)


def chamber_decomposition(lmu: int, lnu: int, bounding_box: int | None = None):
    """All chambers realized by integer points of the bounding box.

    Every sign vector with an interior integer point in the box appears
    exactly once; a box of side 2 * max(lmu, lnu) is large enough.
    Witnesses prefer points with pairwise distinct mu and nu entries.
    """
    wall_forms = walls(lmu, lnu)
    if bounding_box is None:
        bounding_box = 2 * max(int(lmu), int(lnu))
    bound = int(bounding_box)
    if bound < 1:
        raise ArgumentError("bounding box must be positive")
    witnesses = {}
    for mu, nu in _slice_points(int(lmu), int(lnu), bound):
        values = [w.evaluate(mu, nu) for w in wall_forms]
        if any(v == 0 for v in values):
            continue
        signs = tuple("+" if v > 0 else "-" for v in values)
        distinct = (len(set(mu)) == len(mu) and len(set(nu)) == len(nu))
        seen = witnesses.get(signs)
        if seen is None or (distinct and not seen[0]):
            witnesses[signs] = (distinct, mu, nu)
    chambers = [Chamber(tuple(wall_forms), signs, mu, nu)
                for signs, (_, mu, nu) in witnesses.items()]
    chambers.sort(key=lambda c: c.signs)
    return chambers


# -- exact polynomials on the slice -----------------------------------------

class ChamberPolynomial:
    """Polynomial with rational coefficients in slice coordinates.

    Variables are mu_1..mu_lmu, nu_1..nu_(lnu-1); the last nu entry is
    eliminated through the relation.  Terms map exponent tuples to
    nonzero Fractions.
    """

    def __init__(self, lmu, lnu, terms=None):
        self.lmu = lmu
        self.lnu = lnu
        self.num_vars = lmu + lnu - 1
        self.terms = {e: Fraction(c) for e, c in (terms or {}).items()
                      if c != 0}

    def __eq__(self, other):
        return (isinstance(other, ChamberPolynomial)
                and (self.lmu, self.lnu) == (other.lmu, other.lnu)
                and self.terms == other.terms)

    def add(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return ChamberPolynomial(self.lmu, self.lnu, terms)

    def multiply_linear(self, coeffs):
        """Multiply by sum coeffs[k] * var_k (slice coordinates)."""
        terms = {}
        for e, c in self.terms.items():
            for k, a in enumerate(coeffs):
                if a == 0:
                    continue
                bumped = list(e)
                bumped[k] += 1
                key = tuple(bumped)
                terms[key] = terms.get(key, Fraction(0)) + c * a
        return ChamberPolynomial(self.lmu, self.lnu, terms)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, mu, nu):
        if sum(mu) != sum(nu):
            raise ArgumentError("evaluation point must satisfy the slice "
                               "relation sum(mu) == sum(nu)")
        point = tuple(mu) + tuple(nu)[:-1]
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for value, power in zip(point, e):
                term *= value ** power
            total += term
        return total

    def ordered_terms(self):
        """Terms sorted by descending total degree, then exponents."""
        return sorted(self.terms.items(),
                      key=lambda item: (-sum(item[0]),
                                        tuple(-p for p in item[0])))

    def variable_names(self):
        return ([f"mu{i + 1}" for i in range(self.lmu)]
                + [f"nu{j + 1}" for j in range(self.lnu - 1)])

    def text(self) -> str:
        if not self.terms:
            return "0"
        names = self.variable_names()
        rendered = []
        for exps, coeff in self.ordered_terms():
            factors = []
            for name, p in zip(names, exps):
                if p == 1:
                    factors.append(name)
                elif p > 1:
                    factors.append(f"{name}^{p}")
            mag = abs(coeff)
            if not factors:
                body = frac_str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([frac_str(mag)] + factors)
            rendered.append(("-" if coeff < 0 else "+", body))
        sign, body = rendered[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in rendered[1:]:
            out += f" {sign} {body}"
        return out


def _reduce_to_slice(mu_coeffs, nu_coeffs):
    """Slice coordinates of a linear form: nu_last := sum mu - other nu."""
    lmu, lnu = len(mu_coeffs), len(nu_coeffs)
    last = nu_coeffs[-1]
    out = [a + last for a in mu_coeffs]
    out += [b - last for b in nu_coeffs[:-1]]
    assert len(out) == lmu + lnu - 1
    return out


# -- the symbolic route ------------------------------------------------------

def _trivalent_trees(num_leaves):
    """Edge lists of all 3-valent trees on leaves 0..num_leaves-1.

    Inner nodes are numbered from num_leaves on; there are (2n-5)!!
    trees, each produced exactly once.
    """
    n = num_leaves
    trees = [[(0, n), (1, n), (2, n)]]
    for leaf in range(3, n):
        new_inner = n + leaf - 2
        grown = []
        for edges in trees:
            for k, (u, v) in enumerate(edges):
                split = edges[:k] + edges[k + 1:]
                split += [(u, new_inner), (v, new_inner), (leaf, new_inner)]
                grown.append(split)
        trees = grown
    return trees


def _leaf_side(edges, drop_index, start):
    """Leaves reachable from `start` once edge `drop_index` is removed."""
    adjacency = {}
    for k, (u, v) in enumerate(edges):
        if k == drop_index:
            continue
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for other in adjacency.get(node, ()):
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return seen


def _symbolic_polynomial(chamber: Chamber, lmu, lnu) -> ChamberPolynomial:
    n = lmu + lnu
    mu_wit, nu_wit = chamber.witness_mu, chamber.witness_nu
    total = ChamberPolynomial(lmu, lnu)
    for edges in _trivalent_trees(n):
        inner = sorted({v for e in edges for v in e if v >= n})
        index = {node: k for k, node in enumerate(inner)}
        factors = []
        relations = []
        for k, (u, v) in enumerate(edges):
            if u < n or v < n:
                continue  # ends impose no vertex-order constraint
            side = _leaf_side(edges, k, u)
            mu_c = tuple(1 if i in side else 0 for i in range(lmu))
            nu_c = tuple(-1 if lmu + j in side else 0 for j in range(lnu))
            value = (sum(a * m for a, m in zip(mu_c, mu_wit))
                     + sum(b * w for b, w in zip(nu_c, nu_wit)))
            if value == 0:
                raise ArgumentError(
                    "chamber witness lies on a wall: "
                    + LinearForm(mu_c, nu_c).text())
            if value > 0:
                factors.append(_reduce_to_slice(mu_c, nu_c))
                relations.append((index[u], index[v]))
            else:
                factors.append(_reduce_to_slice(
                    tuple(1 - a for a in mu_c),
                    tuple(-1 - b for b in nu_c)))
                relations.append((index[v], index[u]))
        orderings = linear_extension_count(len(inner), relations)
        if orderings == 0:
            continue
        term = ChamberPolynomial(lmu, lnu,
                                 {(0,) * (lmu + lnu - 1): Fraction(orderings)})
        for coeffs in factors:
            term = term.multiply_linear(coeffs)
        total = total.add(term)
    return total


# -- the interpolation route -------------------------------------------------

def _distinct_chamber_points(chamber: Chamber, lmu, lnu):
    """Interior integer points with pairwise distinct mu and nu entries,
    in order of growing degree."""
    degree = max(lmu * (lmu + 1) // 2, lnu * (lnu + 1) // 2)
    while True:
        groups = _distinct_points_by_signs(chamber.walls, lmu, lnu, degree)
        yield from groups.get(tuple(chamber.signs), ())
        degree += 1


# Every chamber of one arrangement scans the same points, so the sign
# vectors of one degree are computed once and shared.
@functools.lru_cache(maxsize=64)
def _distinct_points_by_signs(wall_forms, lmu, lnu, degree):
    mu_tuples = [p for p in itertools.permutations(range(1, degree + 1), lmu)
                 if sum(p) == degree]
    nu_tuples = [p for p in itertools.permutations(range(1, degree + 1), lnu)
                 if sum(p) == degree]
    groups = {}
    for mu in mu_tuples:
        for nu in nu_tuples:
            values = [w.evaluate(mu, nu) for w in wall_forms]
            if 0 not in values:
                signs = tuple("+" if v > 0 else "-" for v in values)
                groups.setdefault(signs, []).append((mu, nu))
    return groups


def _interpolated_polynomial(chamber: Chamber, lmu, lnu) -> ChamberPolynomial:
    num_vars = lmu + lnu - 1
    max_degree = lmu + lnu - 3
    basis = [e for e in itertools.product(range(max_degree + 1),
                                          repeat=num_vars)
             if sum(e) <= max_degree]
    rows = []
    points = _distinct_chamber_points(chamber, lmu, lnu)
    for mu, nu in points:
        coords = tuple(mu) + tuple(nu)[:-1]
        count = double_hurwitz_tropical(0, mu, nu)
        # clear the count's power-of-two denominator so the row is integral
        row = [count.denominator * math.prod(x ** p for x, p in
                                             zip(coords, e))
               for e in basis]
        row.append(count.numerator)
        # fraction-free elimination to an upper triangular system: each
        # step takes an integer combination a*row - b*pivot_row, and the
        # row's content is divided out to keep the entries small
        for pivot_col, pivot_row in rows:
            b = row[pivot_col]
            if b != 0:
                a = pivot_row[pivot_col]
                shared = math.gcd(a, b)
                a, b = a // shared, b // shared
                row = [a * x - b * y for x, y in zip(row, pivot_row)]
        content = math.gcd(*row)
        if content > 1:
            row = [x // content for x in row]
        lead = next((k for k in range(len(basis)) if row[k] != 0), None)
        if lead is None:
            if row[-1] != 0:
                raise CrossCheckError(
                    "interpolation system is inconsistent; the chamber "
                    "counts are not polynomial of the expected degree")
            continue
        rows.append((lead, row))
        if len(rows) == len(basis):
            solution = [Fraction(0)] * len(basis)
            for pivot_col, pivot_row in sorted(rows, reverse=True):
                value = Fraction(pivot_row[-1])
                for k in range(pivot_col + 1, len(basis)):
                    value -= pivot_row[k] * solution[k]
                solution[pivot_col] = value / pivot_row[pivot_col]
            solved = ChamberPolynomial(
                lmu, lnu,
                {e: c for e, c in zip(basis, solution) if c != 0})
            # a few extra points act as consistency checks
            for extra, (mu2, nu2) in enumerate(points):
                if solved.evaluate(mu2, nu2) \
                        != double_hurwitz_tropical(0, mu2, nu2):
                    raise CrossCheckError(
                        "interpolated chamber polynomial fails at "
                        f"mu={mu2} nu={nu2}")
                if extra == 2:
                    return solved
    raise CrossCheckError("ran out of interpolation points")


def chamber_polynomial(chamber: Chamber) -> ChamberPolynomial:
    """The exact count polynomial on an open chamber.

    Computed symbolically from oriented trees and independently by
    interpolation from point counts; the routes must agree.  Rejects
    length profiles (1, 1), where no cover has a 3-valent vertex, and
    witnesses lying on a wall.
    """
    lmu = len(chamber.witness_mu)
    lnu = len(chamber.witness_nu)
    if lmu + lnu < 3:
        raise DegenerateInputError(
            "no chamber polynomial for length profiles (1, 1)")
    for wall in chamber.walls:
        if wall.evaluate(chamber.witness_mu, chamber.witness_nu) == 0:
            raise ArgumentError("chamber witness lies on a wall: "
                                + wall.text())
    symbolic = _symbolic_polynomial(chamber, lmu, lnu)
    interpolated = _interpolated_polynomial(chamber, lmu, lnu)
    if symbolic != interpolated:
        raise CrossCheckError(
            "symbolic and interpolated chamber polynomials disagree: "
            f"{symbolic.text()} vs {interpolated.text()}")
    chamber.polynomial = symbolic
    return symbolic

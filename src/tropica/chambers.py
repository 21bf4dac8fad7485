"""Chamber decomposition for genus-0 double Hurwitz counts.

As a function of the entries (mu_1..mu_l, nu_1..nu_l') on the slice
sum(mu) = sum(nu), the genus-0 count is polynomial on the open chambers
cut out by the walls sum_{i in I} mu_i - sum_{j in J} nu_j = 0.  On a
chamber the polynomial is assembled symbolically: every 3-valent tree
with l + l' labeled ends carries, per bounded edge, the linear weight
form forced by balancing, and the product of its n - 3 forms
(n = l + l') is tabulated once per profile.  On a chamber each edge is
oriented toward the side whose form is positive there, and the tree adds
its product times (-1)^(edges reversed) times the number of ways to
order its vertices compatibly, so every chamber polynomial is
homogeneous of degree n - 3.  The polynomial is then checked against
point counts at interior points whose monomials of that degree are
independent, which determine it, and at three more points.

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

from .errors import ArgumentError, CrossCheckError, DegenerateInputError
from .line_covers import double_hurwitz_tropical
from .util import frac_str, linear_extension_count, reduce_row


def _signed_sum(parts):
    """Join (sign, term) pairs as "a - b + c"; "0" when there are none."""
    if not parts:
        return "0"
    text = "".join(f" {sign} {term}" for sign, term in parts)
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


class LinearForm(namedtuple("LinearForm", "mu_coeffs nu_coeffs")):
    """An integer linear form sum a_i mu_i + sum b_j nu_j."""

    __slots__ = ()

    def evaluate(self, mu, nu):
        if len(mu) != len(self.mu_coeffs) or len(nu) != len(self.nu_coeffs):
            raise ArgumentError("point has the wrong number of entries")
        return (sum(map(operator.mul, self.mu_coeffs, mu))
                + sum(map(operator.mul, self.nu_coeffs, nu)))

    def text(self) -> str:
        names = [f"mu{i + 1}" for i in range(len(self.mu_coeffs))]
        names += [f"nu{j + 1}" for j in range(len(self.nu_coeffs))]
        coeffs = (*self.mu_coeffs, *self.nu_coeffs)
        return _signed_sum([("-" if c < 0 else "+",
                             name if abs(c) == 1 else f"{abs(c)}*{name}")
                            for name, c in zip(names, coeffs) if c])


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


class Chamber(namedtuple("Chamber", "walls signs witness_mu witness_nu")):
    """An open chamber: walls with fixed signs and an interior witness.

    signs holds "+" or "-" per wall.
    """

    __slots__ = ()

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


def chamber_decomposition(lmu: int, lnu: int):
    """All chambers realized by integer points of the bounding box.

    Every sign vector with an interior integer point in the box of side
    2 * max(lmu, lnu) appears exactly once.  That box finds every chamber
    of the profiles with walls and n = lmu + lnu <= 5 (4, 18 and 18 up to
    side 24) but not at n = 6: (3, 3) gives 30 of 342 chambers, and (4, 2)
    and (2, 4) 88 of 148.  Witnesses prefer points with pairwise distinct
    mu and nu entries.
    """
    wall_forms = walls(lmu, lnu)
    bound = 2 * max(int(lmu), int(lnu))
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
        self.terms = {e: Fraction(c) for e, c in (terms or {}).items()
                      if c != 0}

    def __eq__(self, other):
        return (isinstance(other, ChamberPolynomial)
                and (self.lmu, self.lnu) == (other.lmu, other.lnu)
                and self.terms == other.terms)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, mu, nu):
        if len(mu) != self.lmu or len(nu) != self.lnu:
            raise ArgumentError("point has the wrong number of entries")
        if sum(mu) != sum(nu):
            raise ArgumentError("evaluation point must satisfy the slice "
                               "relation sum(mu) == sum(nu)")
        point = tuple(mu) + tuple(nu)[:-1]
        return sum((c * math.prod(map(pow, point, e))
                    for e, c in self.terms.items()), Fraction(0))

    def ordered_terms(self):
        """Terms sorted by descending total degree, then exponents."""
        return sorted(self.terms.items(),
                      key=lambda item: (-sum(item[0]),
                                        tuple(-p for p in item[0])))

    def variable_names(self):
        return ([f"mu{i + 1}" for i in range(self.lmu)]
                + [f"nu{j + 1}" for j in range(self.lnu - 1)])

    def text(self) -> str:
        names = self.variable_names()
        rendered = []
        for exps, coeff in self.ordered_terms():
            factors = [name if p == 1 else f"{name}^{p}"
                       for name, p in zip(names, exps) if p]
            mag = abs(coeff)
            if not factors:
                body = frac_str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([frac_str(mag)] + factors)
            rendered.append(("-" if coeff < 0 else "+", body))
        return _signed_sum(rendered)


def _reduce_to_slice(mu_coeffs, nu_coeffs):
    """Slice coordinates of a linear form: nu_last := sum mu - other nu."""
    last = nu_coeffs[-1]
    return ([a + last for a in mu_coeffs]
            + [b - last for b in nu_coeffs[:-1]])


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
    """Nodes reachable from `start` once edge `drop_index` is removed."""
    seen, grown = {start}, True
    while grown:
        grown = False
        for k, (u, v) in enumerate(edges):
            if k != drop_index and (u in seen) != (v in seen):
                seen |= {u, v}
                grown = True
    return seen


@functools.lru_cache(maxsize=None)
def _tree_table(lmu, lnu):
    """Per 3-valent tree with lmu + lnu ends: its inner edges as (a, b,
    form of a's leaf side), inner nodes counted from 0, and the product of
    those forms in slice coordinates as {exponents: int}."""
    n = lmu + lnu
    table = []
    for edges in _trivalent_trees(n):
        inner_edges, product = [], {(0,) * (n - 1): 1}
        for k, (u, v) in enumerate(edges):
            if u < n or v < n:
                continue  # ends impose no vertex-order constraint
            side = _leaf_side(edges, k, u)
            form = LinearForm(tuple(int(i in side) for i in range(lmu)),
                              tuple(-int(lmu + j in side) for j in range(lnu)))
            inner_edges.append((u - n, v - n, form))
            grown = {}
            for exps, c in product.items():
                for var, a in enumerate(_reduce_to_slice(*form)):
                    if a:
                        key = exps[:var] + (exps[var] + 1,) + exps[var + 1:]
                        grown[key] = grown.get(key, 0) + a * c
            product = grown
        table.append((inner_edges, product))
    return table


def _symbolic_polynomial(chamber: Chamber, lmu, lnu) -> ChamberPolynomial:
    """Sum over trees of the sign and vertex orderings the witness fixes
    times the tree's product; on the slice the form of b's leaf side is
    minus that of a's, and a tree has lmu + lnu - 2 inner nodes."""
    terms = {}
    for inner_edges, product in _tree_table(lmu, lnu):
        sign, relations = 1, []
        for a, b, form in inner_edges:
            if form.evaluate(chamber.witness_mu, chamber.witness_nu) > 0:
                relations.append((a, b))
            else:
                sign = -sign
                relations.append((b, a))
        weight = sign * linear_extension_count(lmu + lnu - 2, relations)
        if weight:
            for exps, c in product.items():
                terms[exps] = terms.get(exps, 0) + weight * c
    return ChamberPolynomial(lmu, lnu, terms)


# -- the check on counted points ---------------------------------------------

def _distinct_chamber_points(chamber: Chamber, lmu, lnu):
    """Interior integer points with pairwise distinct mu and nu entries,
    in order of growing degree.

    One degree shell fixes a homogeneous polynomial, so each chamber
    scans its own shells; a point is inside when every wall form,
    negated where the chamber's sign is "-", is positive."""
    forms = [wall if sign == "+" else LinearForm(
                 tuple(-a for a in wall.mu_coeffs),
                 tuple(-b for b in wall.nu_coeffs))
             for wall, sign in zip(chamber.walls, chamber.signs)]
    degree = max(lmu * (lmu + 1) // 2, lnu * (lnu + 1) // 2)
    while True:
        shell = range(1, degree + 1)
        nus = [(nu, [sum(map(operator.mul, f.nu_coeffs, nu)) for f in forms])
               for nu in itertools.permutations(shell, lnu)
               if sum(nu) == degree]
        for mu in itertools.permutations(shell, lmu):
            if sum(mu) != degree:
                continue
            mu_part = [sum(map(operator.mul, f.mu_coeffs, mu)) for f in forms]
            for nu, nu_part in nus:
                if min(map(operator.add, mu_part, nu_part), default=1) > 0:
                    yield mu, nu
        degree += 1


def _check_on_counts(polynomial, chamber: Chamber, lmu, lnu):
    """Check a chamber polynomial against point counts that determine it.

    Every chamber polynomial is homogeneous of degree n - 3, so a term of
    another degree is refused at once.  The scanned points' monomials of
    that degree are reduced until B = C(2n - 5, n - 3) are independent; a
    homogeneous polynomial that matches the counts there is the one they
    fix.  Three check points follow: the first kept point scaled by the
    least k past every kept degree (2 on every admitted profile), which
    lies in the same open cone and catches a count that is not
    homogeneous of degree n - 3, and the next two scanned points.
    """
    degree = lmu + lnu - 3
    if any(sum(e) != degree for e in polynomial.terms):
        raise CrossCheckError(f"chamber polynomial {polynomial.text()} is "
                              f"not homogeneous of degree {degree}")
    basis = [e for e in itertools.product(range(degree + 1),
                                          repeat=lmu + lnu - 1)
             if sum(e) == degree]
    rows, kept = [], []
    points = _distinct_chamber_points(chamber, lmu, lnu)
    while len(rows) < len(basis):
        mu, nu = next(points)
        coords = mu + nu[:-1]
        lead, row = reduce_row(rows, [math.prod(map(pow, coords, e))
                                      for e in basis])
        if lead is not None:
            rows.append((lead, row))
            kept.append((mu, nu))
    first, last = kept[0], kept[-1]
    scale = sum(last[0]) // sum(first[0]) + 1
    scaled = tuple(tuple(scale * x for x in part) for part in first)
    for mu, nu in [*kept, scaled, *itertools.islice(points, 2)]:
        value = polynomial.evaluate(mu, nu)
        count = double_hurwitz_tropical(0, mu, nu)
        if value != count:
            raise CrossCheckError(
                f"chamber polynomial {polynomial.text()} gives "
                f"{frac_str(value)} at mu={mu} nu={nu}, where the count "
                f"is {frac_str(count)}")


def chamber_polynomial(chamber: Chamber) -> ChamberPolynomial:
    """The exact count polynomial on an open chamber.

    Computed symbolically from oriented trees and checked against
    independent point counts at points that determine it.  Rejects
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
    polynomial = _symbolic_polynomial(chamber, lmu, lnu)
    _check_on_counts(polynomial, chamber, lmu, lnu)
    return polynomial

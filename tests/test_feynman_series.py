"""Tests for the truncated series engine and Feynman integrals."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from tropica.elliptic_covers import (FeynmanGraph, count_labeled_covers,
                                     enumerate_feynman_graphs, order_orbits)
from tropica.errors import ArgumentError
from tropica.feynman_series import (MirrorRow, TruncatedSeries,
                                    coarse_integral, eisenstein_E2,
                                    mirror_check, propagator_factor,
                                    refined_integral, sigma)
from tropica.graphs import Multigraph, automorphism_group_order
from tropica.sym_oracle import hurwitz_elliptic
from tropica.util import compositions_of, slot_of

from helpers import (eisenstein_series, naive_series_terms_product,
                     series_times)

THETA = FeynmanGraph(Multigraph(2, [(0, 1), (0, 1), (0, 1)]))
CATERPILLAR = FeynmanGraph(
    Multigraph(4, [(0, 2), (0, 1), (0, 1), (1, 3), (2, 3), (2, 3)]))
# the two genus-3 shapes as the benchmark's feynman cases label them
BENCH_SHAPES = (
    FeynmanGraph(Multigraph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3),
                                (2, 3)])),
    FeynmanGraph(Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                (2, 3)])),
)


def test_sigma_values():
    assert sigma(1) == 1
    assert sigma(6) == 12
    assert sigma(12) == 28
    assert [sigma(n) for n in range(1, 9)] == [1, 3, 4, 7, 6, 12, 8, 15]
    with pytest.raises(ArgumentError):
        sigma(0)


def test_divisor_sum_record():
    assert sigma(1) == 1
    for n in range(2, 30):
        assert sigma(n) >= n + 1


def test_eisenstein_series():
    assert eisenstein_E2(0).coefficient(q_exps=(0,)) == 1
    e2 = eisenstein_E2(2)
    assert e2.coefficient(q_exps=(0,)) == 1
    assert e2.coefficient(q_exps=(1,)) == -24
    assert e2.coefficient(q_exps=(2,)) == -72
    assert eisenstein_E2(1) == eisenstein_E2(1)


def test_series_construction_and_bounds():
    s = TruncatedSeries(1, 1, 2, {((2,), (1,)): 5, ((0,), (0,)): 1})
    assert s.coefficient(x_exps=(2,), q_exps=(1,)) == 5
    with pytest.raises(ArgumentError):
        TruncatedSeries(1, 1, 2, {((0,), (3,)): 1})  # q out of bounds
    with pytest.raises(ArgumentError):
        TruncatedSeries(1, 1, 2, {((0,), (-1,)): 1})
    with pytest.raises(ArgumentError):
        s.coefficient(x_exps=(), q_exps=(1,))
    # zero coefficients are dropped, also when terms cancel
    t = TruncatedSeries(0, 1, 3, {((), (1,)): 7})
    assert (t - t).terms == {}


def test_series_arithmetic_properties():
    rng = random.Random(1402)

    def sample():
        s = TruncatedSeries(2, 1, 4)
        for _ in range(rng.randrange(1, 6)):
            x = (4 * rng.randrange(-1, 2), 4 * rng.randrange(-1, 2))
            q = (rng.randrange(2),)
            c = rng.randrange(-5, 6)
            s = s + TruncatedSeries(2, 1, 4, {(x, q): c})
        return s

    for _ in range(25):
        # the ring laws survive truncation in q
        a, b, c = sample(), sample(), sample()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a.scale(3) == a + a + a


def test_product_matches_pairwise_product():
    # negative x-exponents, terms exactly at q_bound and cancelling
    # coefficients, on several seeded shapes
    rng = random.Random(8107)
    for num_x, num_q, x_range, q_bound in ((2, 2, 4, 3), (1, 3, 2, 4),
                                           (3, 1, 3, 2), (0, 2, 0, 3)):
        def sample():
            terms = {}
            for i in range(rng.randrange(1, 25)):
                x = tuple(rng.randint(-x_range, x_range)
                          for _ in range(num_x))
                q = [0] * num_q
                # the first term sits exactly at q_bound
                for _ in range(q_bound if i == 0
                               else rng.randrange(q_bound + 1)):
                    q[rng.randrange(num_q)] += 1
                terms[x, tuple(q)] = rng.choice(
                    (rng.randint(1, 3), Fraction(rng.randint(-3, 3), 2)))
            return TruncatedSeries(num_x, num_q, q_bound, terms)

        for _ in range(40):
            a, b = sample(), sample()
            assert (a * b).terms == naive_series_terms_product(a, b)
            assert (a * (b - b)).terms == {}


def _unpruned_integral(shape, order, d, coarse):
    """The plain product of every edge factor, then its x-constant part."""
    edges = shape.graph.edges
    num_x, num_q = shape.num_vertices, 1 if coarse else len(edges)
    slots = slot_of(order)
    acc = TruncatedSeries.constant(1, num_x, num_q, 2 * d)
    for k, (u, v) in enumerate(edges):
        lower = u if slots[u] < slots[v] else v
        acc = acc * propagator_factor(u, v, lower, 0 if coarse else k, d,
                                      num_x, num_q)
    return acc.x_constant_part()


def test_pruned_integrals_match_the_plain_product():
    orders = list(itertools.permutations(range(4)))[::5]
    cases = [(shape, order, range(4))
             for shape in enumerate_feynman_graphs(3) for order in orders]
    cases += [(shape, order, range(6))
              for shape in enumerate_feynman_graphs(2)
              for order in itertools.permutations(range(2))]
    for shape, order, degrees in cases:
        for d in degrees:
            assert refined_integral(shape, order, d) == \
                _unpruned_integral(shape, order, d, coarse=False)
            assert coarse_integral(shape, order, d) == \
                _unpruned_integral(shape, order, d, coarse=True)


def test_bench_problems_match_labeled_counts():
    # the dmax-6 integral has exactly the multidegrees with a cover, each
    # with count_labeled_covers as its coefficient: no extra term
    for shape in BENCH_SHAPES:
        order = tuple(range(4))
        expected = {}
        for total in range(1, 7):
            for a in compositions_of(total, shape.num_edges):
                count = count_labeled_covers(shape, order, a)
                if count:
                    expected[tuple(2 * x for x in a)] = count
        series = refined_integral(shape, order, 6)
        assert {q: c for (_, q), c in series.terms.items()} == expected


def test_series_shape_mismatch():
    a = TruncatedSeries(1, 1, 2)
    b = TruncatedSeries(1, 1, 4)
    with pytest.raises(ArgumentError):
        a + b
    with pytest.raises(ArgumentError):
        a * b


def test_propagator_factor_contents():
    p = propagator_factor(0, 1, 0, 0, 2, num_x=2, num_q=1)
    # geometric part in the ordered direction only
    assert p.coefficient(x_exps=(2, -2), q_exps=(0,)) == 1
    assert p.coefficient(x_exps=(4, -4), q_exps=(0,)) == 2
    assert p.coefficient(x_exps=(-2, 2), q_exps=(0,)) == 0
    # q^2: weight 1 both ways
    assert p.coefficient(x_exps=(2, -2), q_exps=(2,)) == 1
    assert p.coefficient(x_exps=(-2, 2), q_exps=(2,)) == 1
    # q^4: divisors of 2
    assert p.coefficient(x_exps=(2, -2), q_exps=(4,)) == 1
    assert p.coefficient(x_exps=(4, -4), q_exps=(4,)) == 2
    assert p.coefficient(x_exps=(-4, 4), q_exps=(4,)) == 2
    # odd q powers never appear
    assert all(q[0] % 2 == 0 for _, q in p.terms)
    flipped = propagator_factor(0, 1, 1, 0, 2, num_x=2, num_q=1)
    assert flipped.coefficient(x_exps=(-2, 2), q_exps=(0,)) == 1
    assert flipped.coefficient(x_exps=(2, -2), q_exps=(0,)) == 0


def test_propagator_factor_errors():
    with pytest.raises(ArgumentError):
        propagator_factor(1, 1, 1, 0, 2, num_x=2, num_q=1)
    with pytest.raises(ArgumentError):
        propagator_factor(0, 1, 2, 0, 2, num_x=2, num_q=1)
    with pytest.raises(ArgumentError):
        propagator_factor(0, 2, 0, 0, 2, num_x=2, num_q=1)
    with pytest.raises(ArgumentError):
        propagator_factor(0, 1, 0, 1, 2, num_x=2, num_q=1)


def test_refined_integral_caterpillar_instance():
    series = refined_integral(CATERPILLAR, (0, 2, 3, 1), 4)
    assert series.coefficient(q_exps=(0, 2, 2, 0, 0, 4)) == 48
    assert series.coefficient(q_exps=(0,) * 6) == 0
    assert all(isinstance(c, int) and c > 0 for c in series.terms.values())
    assert all(all(e % 2 == 0 for e in q) for _, q in series.terms)


def test_refined_matches_labeled_counts():
    # every multidegree with total at most 4, both shapes of genus 3
    # and the single genus-2 shape, all vertex orders
    for g in (2, 3):
        for shape in enumerate_feynman_graphs(g):
            for order in itertools.permutations(range(shape.num_vertices)):
                series = refined_integral(shape, order, 4)
                for total in range(1, 5):
                    for a in compositions_of(total, shape.num_edges):
                        coeff = series.coefficient(
                            q_exps=tuple(2 * x for x in a))
                        assert coeff == count_labeled_covers(shape, order, a)


def test_truncation_stability():
    for shape, order in ((THETA, (0, 1)), (CATERPILLAR, (1, 3, 0, 2))):
        small = refined_integral(shape, order, 2)
        large = refined_integral(shape, order, 4)
        for (_, q_exps), coeff in small.terms.items():
            assert large.coefficient(q_exps=q_exps) == coeff
        for (_, q_exps), coeff in large.terms.items():
            if sum(q_exps) <= 4:
                assert small.coefficient(q_exps=q_exps) == coeff


def test_coarse_integral():
    refined = refined_integral(THETA, (0, 1), 3)
    coarse = coarse_integral(THETA, (0, 1), 3)
    assert coarse.num_q == 1
    for power in range(7):
        want = sum(c for (_, q), c in refined.terms.items()
                   if sum(q) == power)
        assert coarse.coefficient(q_exps=(power,)) == want
    assert all(q[0] % 2 == 0 for _, q in coarse.terms)


def test_coarse_integral_is_the_collapsed_refined_integral():
    shapes = [THETA] + enumerate_feynman_graphs(3)
    assert len(shapes) == 3
    for shape in shapes:
        for order in itertools.permutations(range(shape.num_vertices)):
            for d in range(5):
                collapsed = Counter()
                for (x, q), c in refined_integral(shape, order,
                                                  d).terms.items():
                    collapsed[x, (sum(q),)] += c
                coarse = coarse_integral(shape, order, d)
                assert coarse.shape() == (0, 1, 2 * d)
                assert coarse.terms == collapsed


def test_theta_order_symmetry():
    a = refined_integral(THETA, (0, 1), 3)
    b = refined_integral(THETA, (1, 0), 3)
    assert a == b


def test_refined_integral_errors():
    with pytest.raises(ArgumentError):
        refined_integral(THETA, (0, 0), 2)
    with pytest.raises(ArgumentError):
        refined_integral(THETA, (0, 1, 2), 2)
    with pytest.raises(ArgumentError):
        refined_integral(THETA, (0, 1), -1)


def test_mirror_check_genus_two():
    rows = mirror_check(2, 4)
    assert [r.q_power for r in rows] == [2, 4, 6, 8]
    assert [r.tropical for r in rows] == [0, 2, 16, 60]
    assert [r.series for r in rows] == [0, 2, 16, 60]
    assert all(r.match for r in rows)
    assert all(isinstance(r, MirrorRow) for r in rows)


def test_mirror_check_genus_three():
    rows = mirror_check(3, 3)
    assert [r.tropical for r in rows] == [0, 2, 160]
    assert all(r.match for r in rows)


def test_mirror_check_matches_every_order():
    # one coarse integral per Aut-orbit, times the orbit size, against
    # the sum over every vertex order
    for genus, d_max in ((2, 6), (3, 4)):
        total = TruncatedSeries(0, 1, 2 * d_max)
        for shape in enumerate_feynman_graphs(genus):
            per_shape = TruncatedSeries(0, 1, 2 * d_max)
            for order in itertools.permutations(range(shape.num_vertices)):
                per_shape = per_shape + coarse_integral(shape, order, d_max)
            total = total + per_shape.scale(
                Fraction(1, automorphism_group_order(shape.graph)))
        rows = mirror_check(genus, d_max)
        assert [r.series for r in rows] == [
            total.coefficient(q_exps=(2 * d,)) for d in range(1, d_max + 1)]


def test_mirror_check_arguments():
    with pytest.raises(ArgumentError):
        mirror_check(4, 2)
    with pytest.raises(ArgumentError):
        mirror_check(2, 0)
    with pytest.raises(ArgumentError):
        mirror_check(2, 7)


def _quasimodular_monomials(weight, bound):
    """The coefficient lists of E2^i E4^j E6^k of the given weight."""
    e2 = [eisenstein_E2(bound).coefficient(q_exps=(n,))
          for n in range(bound + 1)]
    e4, e6 = (eisenstein_series(4, 240, bound),
              eisenstein_series(6, -504, bound))
    monomials = []
    for i in range(weight // 2 + 1):
        for j in range((weight - 2 * i) // 4 + 1):
            k, rest = divmod(weight - 2 * i - 4 * j, 6)
            if rest == 0:
                m = [1] + [0] * bound
                for series in [e2] * i + [e4] * j + [e6] * k:
                    m = series_times(m, series)
                monomials.append(m)
    return monomials


def _solve(rows, rhs):
    """The solution of a nonsingular square system, exactly."""
    m = [[Fraction(x) for x in row] + [Fraction(b)]
         for row, b in zip(rows, rhs)]
    for col in range(len(m)):
        pivot = next(r for r in range(col, len(m)) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(len(m)):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][-1] / m[r][r] for r in range(len(m))]


def _mirror_series(genus, d_max):
    """The coarse series summed over shapes and order orbits as
    mirror_check sums it, without its d_max cap."""
    total = TruncatedSeries(0, 1, 2 * d_max)
    for shape in enumerate_feynman_graphs(genus):
        per_shape = TruncatedSeries(0, 1, 2 * d_max)
        for rep, orbit in order_orbits(shape.graph).items():
            per_shape = per_shape + coarse_integral(shape, rep,
                                                    d_max).scale(len(orbit))
        total = total + per_shape.scale(
            Fraction(1, automorphism_group_order(shape.graph)))
    return total


def test_elliptic_counts_are_quasimodular():
    # sum_d N_{d,g} q^d is quasimodular of weight 6g - 6 (Dijkgraaf 1995;
    # Kaneko & Zagier 1995; Boehm, Bringmann, Buchholz & Markwig 2017):
    # fit it in the E2/E4/E6 monomials from the lowest degrees, then
    # check each degree to d_max on the series and on the oracle
    for genus, d_max, size in ((2, 12, 3), (3, 10, 7)):
        monomials = _quasimodular_monomials(6 * genus - 6, d_max)
        assert len(monomials) == size
        counts = [0] + [hurwitz_elliptic(d, genus) for d in range(1, size)]
        coeffs = _solve([[m[n] for m in monomials] for n in range(size)],
                        counts)
        fitted = [sum(c * m[n] for c, m in zip(coeffs, monomials))
                  for n in range(d_max + 1)]
        series = _mirror_series(genus, d_max)
        for d in range(1, d_max + 1):
            assert series.coefficient(q_exps=(2 * d,)) == fitted[d]
            assert hurwitz_elliptic(d, genus) == fitted[d]
        if genus == 2:  # 2 F_2 = (20 E2^3 - 12 E2 E4 - 8 E6) / 103680
            assert coeffs == [Fraction(c, 103680) for c in (-8, -12, 20)]

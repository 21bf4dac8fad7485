"""Tests for the genus-0 chamber decomposition and chamber polynomials."""

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from tropica import chambers as chambers_module, guards
from tropica.chambers import (Chamber, ChamberPolynomial, _check_on_counts,
                              _symbolic_polynomial, chamber_decomposition,
                              chamber_polynomial, walls)
from tropica.errors import (ArgumentError, CrossCheckError,
                            DegenerateInputError, SizeGuardError)
from tropica.line_covers import double_hurwitz_tropical
from tropica.util import frac_str

from helpers import reference_symbolic_polynomial

REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench"
             / "reference.json")


def interior_distinct_points(chamber, degree_range):
    """Interior lattice points with distinct mu and distinct nu entries."""
    lmu = len(chamber.witness_mu)
    lnu = len(chamber.witness_nu)
    for degree in degree_range:
        values = range(1, degree + 1)
        for mu in itertools.permutations(values, lmu):
            if sum(mu) != degree:
                continue
            for nu in itertools.permutations(values, lnu):
                if sum(nu) == degree and chamber.contains(mu, nu):
                    yield mu, nu


def test_wall_examples():
    assert [w.text() for w in walls(2, 2)] == ["mu1 - nu1", "mu1 - nu2"]
    assert walls(1, 1) == []
    assert walls(2, 1) == []
    assert walls(1, 2) == []
    assert len(walls(3, 2)) == 6
    assert len(walls(3, 3)) == 18


def test_wall_forms_touch_both_sides():
    # a wall always mixes mu and nu entries, never one side alone
    for lmu, lnu in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        for form in walls(lmu, lnu):
            assert any(c != 0 for c in form.mu_coeffs)
            assert any(c != 0 for c in form.nu_coeffs)
            assert form.mu_coeffs[0] == 1


def test_walls_validation():
    with pytest.raises(ArgumentError):
        walls(0, 2)
    with pytest.raises(ArgumentError):
        walls(2, -1)


def test_chamber_counts():
    assert len(chamber_decomposition(1, 1)) == 1
    assert len(chamber_decomposition(2, 1)) == 1
    assert len(chamber_decomposition(2, 2)) == 4
    assert len(chamber_decomposition(3, 1)) == 1


def test_chamber_count_is_box_stable():
    # the sign vectors off the walls in a box two wider than the default
    for lmu, lnu in [(2, 2), (3, 2), (2, 3)]:
        forms, side = walls(lmu, lnu), 2 * max(lmu, lnu) + 2
        bigger = set()
        for mu in itertools.product(range(1, side + 1), repeat=lmu):
            for nu in itertools.product(range(1, side + 1), repeat=lnu):
                if sum(mu) != sum(nu):
                    continue
                values = [w.evaluate(mu, nu) for w in forms]
                if all(values):
                    bigger.add(tuple("+" if v > 0 else "-" for v in values))
        base = chamber_decomposition(lmu, lnu)
        assert len(base) == len(bigger)
        assert {c.signs for c in base} == bigger


def test_witnesses_lie_inside():
    for lmu, lnu in [(2, 2), (3, 2)]:
        chambers = chamber_decomposition(lmu, lnu)
        assert len({c.signs for c in chambers}) == len(chambers)
        for ch in chambers:
            assert ch.contains(ch.witness_mu, ch.witness_nu)


def test_decomposition_is_deterministic():
    once = chamber_decomposition(2, 2)
    again = chamber_decomposition(2, 2)
    assert [(c.signs, c.witness_mu, c.witness_nu) for c in once] \
        == [(c.signs, c.witness_mu, c.witness_nu) for c in again]


def test_four_chamber_polynomials():
    chambers = chamber_decomposition(2, 2)
    by_signs = {c.signs: chamber_polynomial(c).text() for c in chambers}
    # slice coordinates are mu1, mu2, nu1 with nu2 eliminated
    assert by_signs[("+", "+")] == "2*mu1"
    assert by_signs[("-", "-")] == "2*mu2"
    assert by_signs[("-", "+")] == "2*nu1"
    assert by_signs[("+", "-")] == "2*mu1 + 2*mu2 - 2*nu1"


def test_max_chamber_polynomial_is_twice_mu1():
    chambers = chamber_decomposition(2, 2)
    top = next(c for c in chambers if c.signs == ("+", "+"))
    poly = chamber_polynomial(top)
    assert poly.terms == {(1, 0, 0): Fraction(2)}
    assert poly.total_degree() == 1
    for mu, nu in itertools.islice(interior_distinct_points(top, range(5, 30)),
                                   5):
        assert poly.evaluate(mu, nu) == 2 * mu[0]
        assert double_hurwitz_tropical(0, mu, nu) == 2 * mu[0]


def test_polynomials_match_counts_on_interior_points():
    for ch in chamber_decomposition(2, 2):
        poly = chamber_polynomial(ch)
        seen = 0
        for mu, nu in interior_distinct_points(ch, range(5, 30)):
            assert poly.evaluate(mu, nu) \
                == double_hurwitz_tropical(0, mu, nu), (ch.signs, mu, nu)
            seen += 1
            if seen == 6:
                break
        assert seen == 6


def test_degree_bound():
    # homogeneous of degree n - 3, the premise of the check's basis
    for lmu, lnu in [(2, 2), (3, 2)]:
        for ch in chamber_decomposition(lmu, lnu):
            poly = chamber_polynomial(ch)
            assert poly.terms
            assert all(sum(e) == lmu + lnu - 3 for e in poly.terms)


def test_three_two_polynomials_match_reference():
    # the frozen (3,2) polynomials the benchmark verifies its runs against
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    expected = reference["cases"]["chambers --lmu 3 --lnu 2"]["chambers"]
    got = {"".join(c.signs): sorted(
        [list(e), frac_str(coeff)]
        for e, coeff in chamber_polynomial(c).ordered_terms())
        for c in chamber_decomposition(3, 2)}
    assert got == expected


def test_symbolic_route_matches_the_per_chamber_reference():
    # (3, 3) is past the guard; these are the 30 chambers a forced run lists
    for lmu, lnu in [(2, 2), (2, 3), (3, 2), (2, 1), (3, 1), (1, 3), (4, 1),
                     (5, 1), (1, 5), (3, 3)]:
        for chamber in chamber_decomposition(lmu, lnu):
            assert _symbolic_polynomial(chamber, lmu, lnu).terms \
                == reference_symbolic_polynomial(chamber, lmu, lnu)


def test_tree_table_is_built_once_per_profile(monkeypatch):
    # 15 trees with 2 inner edges each; once per chamber this took 540
    calls = []

    def counting(edges, drop_index, start):
        calls.append(drop_index)
        return leaf_side(edges, drop_index, start)

    leaf_side = chambers_module._leaf_side
    monkeypatch.setattr(chambers_module, "_leaf_side", counting)
    chambers_module._tree_table.cache_clear()
    for chamber in chamber_decomposition(3, 2):
        _symbolic_polynomial(chamber, 3, 2)
    assert len(calls) == 30


def test_routes_fit_the_chamber_their_inputs_name():
    # the symbolic route reads its signs off the witness and the check
    # its points off the chamber's signs, so a witness taken from
    # another chamber makes them disagree
    for lmu, lnu in [(2, 2), (3, 2)]:
        chambers = chamber_decomposition(lmu, lnu)
        for first, second in itertools.permutations(chambers, 2):
            mixed = first._replace(witness_mu=second.witness_mu,
                                   witness_nu=second.witness_nu)
            with pytest.raises(CrossCheckError):
                chamber_polynomial(mixed)


def recorded_counts(monkeypatch, chamber):
    """The (mu, nu) of each count chamber_polynomial asks for, in order."""
    calls = []

    def recording(genus, mu, nu):
        calls.append((mu, nu))
        return double_hurwitz_tropical(genus, mu, nu)

    monkeypatch.setattr("tropica.chambers.double_hurwitz_tropical",
                        recording)
    chamber_polynomial(chamber)
    return calls


def refuse_counts_off_at(monkeypatch, chamber, wrong):
    """Make the counts at points with wrong(mu, nu) one too large and
    return the CrossCheckError that chamber_polynomial raises."""
    def off_by_one(genus, mu, nu):
        return double_hurwitz_tropical(genus, mu, nu) + wrong(mu, nu)

    monkeypatch.setattr("tropica.chambers.double_hurwitz_tropical",
                        off_by_one)
    with pytest.raises(CrossCheckError) as refused:
        chamber_polynomial(chamber)
    return refused.value


@pytest.mark.parametrize("wrong_call", [
    0,  # the first kept point
    9,  # the last of the 10 kept points
    10,  # the first kept point, scaled
    -1,  # the last scanned point
])
def test_a_wrong_count_is_named(monkeypatch, wrong_call):
    chamber = next(c for c in chamber_decomposition(3, 2)
                   if c.signs == ("+",) * 6)
    calls = recorded_counts(monkeypatch, chamber)
    assert len(calls) == 13
    assert calls[10] == tuple(tuple(2 * x for x in part)
                              for part in calls[0])
    mu, nu = calls[wrong_call]
    refused = refuse_counts_off_at(monkeypatch, chamber,
                                   lambda *point: point == (mu, nu))
    assert f"at mu={mu} nu={nu}," in str(refused)


@pytest.mark.parametrize("lmu, lnu", [(2, 1), (3, 1), (1, 3), (2, 2),
                                      (3, 2)])
def test_counts_one_too_large_are_refused(monkeypatch, lmu, lnu):
    for chamber in chamber_decomposition(lmu, lnu):
        refuse_counts_off_at(monkeypatch, chamber, lambda *point: 1)


@pytest.mark.parametrize("lmu, lnu", [(2, 1), (2, 2), (3, 2)])
def test_a_term_of_another_degree_is_refused_before_counting(monkeypatch,
                                                             lmu, lnu):
    calls = []
    monkeypatch.setattr("tropica.chambers.double_hurwitz_tropical",
                        lambda *args: calls.append(args))
    for chamber in chamber_decomposition(lmu, lnu):
        polynomial = _symbolic_polynomial(chamber, lmu, lnu)
        for extra in [(0,) * (lmu + lnu - 1),
                      (lmu + lnu - 2,) + (0,) * (lmu + lnu - 2)]:
            if extra in polynomial.terms:
                continue
            wrong = ChamberPolynomial(lmu, lnu,
                                      {**polynomial.terms, extra: 1})
            with pytest.raises(CrossCheckError, match="not homogeneous"):
                _check_on_counts(wrong, chamber, lmu, lnu)
    assert calls == []


@pytest.mark.parametrize("lmu, lnu", [(2, 1), (3, 1), (1, 3), (2, 2),
                                      (3, 2)])
def test_counts_wrong_only_at_the_scaled_point_are_refused(monkeypatch,
                                                            lmu, lnu):
    # counts right on every scanned shell but not beyond: only the scaled
    # point, past every scanned degree, sees them
    for chamber in chamber_decomposition(lmu, lnu):
        calls = recorded_counts(monkeypatch, chamber)
        unknowns = math.comb(2 * (lmu + lnu) - 5, lmu + lnu - 3)
        scaled = calls.pop(unknowns)
        top = max(sum(mu) for mu, _ in calls)
        assert sum(scaled[0]) > top
        refused = refuse_counts_off_at(monkeypatch, chamber,
                                       lambda mu, nu: sum(mu) > top)
        assert f"at mu={scaled[0]} nu={scaled[1]}," in str(refused)


def test_three_two_chambers_take_few_counts(monkeypatch):
    # B = C(2n - 5, n - 3) points that fix the polynomial and 3 checks per
    # chamber; fitting a second polynomial from every scanned point took
    # 344 counts at (3,2) and 244 at (5,1)
    for lmu, lnu, counts in [(2, 2, 24), (3, 2, 234), (2, 3, 234),
                             (4, 1, 13), (1, 4, 13), (5, 1, 38), (1, 5, 38)]:
        calls = []
        for chamber in chamber_decomposition(lmu, lnu):
            calls += recorded_counts(monkeypatch, chamber)
        assert len(calls) == counts, (lmu, lnu)


def test_neighbours_agree_on_walls():
    chambers = chamber_decomposition(2, 2)
    polys = {c.signs: chamber_polynomial(c) for c in chambers}
    wall_forms = walls(2, 2)
    pairs = [(a, b) for a in polys for b in polys
             if sum(x != y for x, y in zip(a, b)) == 1 and a < b]
    assert len(pairs) == 4
    for a, b in pairs:
        crossed = next(k for k in range(len(a)) if a[k] != b[k])
        agreements = 0
        for mu in itertools.permutations(range(1, 9), 2):
            for nu in itertools.permutations(range(1, 9), 2):
                if sum(mu) != sum(nu):
                    continue
                values = [w.evaluate(mu, nu) for w in wall_forms]
                if values[crossed] != 0:
                    continue
                shared_ok = all(
                    (values[k] > 0) == (a[k] == "+")
                    for k in range(len(a)) if k != crossed)
                if not shared_ok or any(
                        values[k] == 0 for k in range(len(a))
                        if k != crossed):
                    continue
                assert polys[a].evaluate(mu, nu) == polys[b].evaluate(mu, nu)
                agreements += 1
        assert agreements >= 3


def test_swap_of_profiles_is_consistent():
    forward = chamber_decomposition(3, 2)
    backward = chamber_decomposition(2, 3)
    samples = [(c, c.witness_mu, c.witness_nu) for c in forward
               if len(set(c.witness_mu)) == 3 and len(set(c.witness_nu)) == 2]
    assert len(samples) >= 3
    for ch, mu, nu in samples[:3]:
        swapped = next(c for c in backward if c.contains(nu, mu))
        value = chamber_polynomial(ch).evaluate(mu, nu)
        assert value == chamber_polynomial(swapped).evaluate(nu, mu)
        assert value == double_hurwitz_tropical(0, mu, nu)


def test_witness_on_wall_is_rejected():
    wall_forms = tuple(walls(2, 2))
    bad = Chamber(wall_forms, ("+", "+"), (2, 2), (2, 2))
    with pytest.raises(ArgumentError):
        chamber_polynomial(bad)


def test_trivial_profile_is_rejected():
    trivial = chamber_decomposition(1, 1)[0]
    with pytest.raises(DegenerateInputError):
        chamber_polynomial(trivial)


def test_constant_polynomial_without_walls():
    only = chamber_decomposition(2, 1)[0]
    poly = chamber_polynomial(only)
    assert poly.text() == "1"
    assert poly.total_degree() == 0


def test_evaluation_requires_the_slice():
    poly = chamber_polynomial(chamber_decomposition(2, 1)[0])
    with pytest.raises(ArgumentError):
        poly.evaluate((2, 1), (4,))
    # points of the wrong shape, though on the slice
    poly = chamber_polynomial(next(c for c in chamber_decomposition(2, 2)
                                   if c.signs == ("+", "+")))
    assert poly.text() == "2*mu1"
    for mu, nu in [((1, 2, 3), (6,)), ((4,), (1, 3))]:
        with pytest.raises(ArgumentError):
            poly.evaluate(mu, nu)


def test_polynomial_term_order():
    poly = ChamberPolynomial(2, 2, {(0, 0, 0): 1, (2, 0, 0): 3,
                                    (1, 1, 0): 2, (0, 0, 1): 5})
    ordered = [e for e, _ in poly.ordered_terms()]
    assert ordered == [(2, 0, 0), (1, 1, 0), (0, 0, 1), (0, 0, 0)]
    assert poly.text() == "3*mu1^2 + 2*mu1*mu2 + 5*nu1 + 1"


@pytest.mark.parametrize("lmu, lnu", [(2, 2), (3, 2), (2, 3), (4, 1),
                                      (1, 4), (5, 1), (1, 5)])
def test_work_guard_admits_profiles_that_finish(lmu, lnu):
    # each of these runs in under 1 s
    assert guards.chambers(lmu, lnu) <= guards.LIMITS["chambers"]


@pytest.mark.parametrize("lmu, lnu", [(3, 3), (4, 2), (2, 4), (6, 1),
                                      (1, 6)])
def test_work_guard_refuses_profiles_that_do_not(lmu, lnu):
    # forced, (3, 3) takes about 12 s and (4, 2) about 25 s on a 2-core
    # VM; (6, 1) has no walls but 126 unknowns
    with pytest.raises(SizeGuardError, match="steps of work"):
        guards.chambers(lmu, lnu)
    assert guards.chambers(lmu, lnu, force=True) > guards.LIMITS["chambers"]


def test_work_estimate_counts_walls_and_unknowns():
    # (walls + 1) * B^3 for B unknowns per chamber, the
    # monomials of degree exactly n - 3
    for lmu, lnu, unknowns in ((3, 2, 10), (5, 1, 35), (3, 3, 35), (1, 1, 1)):
        assert guards.chambers(lmu, lnu, force=True) == (
            len(walls(lmu, lnu)) + 1) * unknowns ** 3
    # the estimate takes any ints; the library refuses the profile
    assert guards.chambers(0, 2) == 1
    with pytest.raises(ArgumentError):
        walls(0, 2)

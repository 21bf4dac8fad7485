"""Tests for the symmetric group counting oracle."""

from fractions import Fraction

import pytest

from helpers import (commutator_elliptic_all, eisenstein_series,
                     naive_elliptic_hurwitz, naive_line_hurwitz, series_times)
from tropica import guards, sym_oracle
from tropica.errors import ArgumentError, SizeGuardError
from tropica.sym_oracle import _elliptic_all, hurwitz_line, hurwitz_elliptic


def test_line_known_values():
    assert hurwitz_line(0, (1, 1), (1, 1)) == Fraction(1, 2)
    assert hurwitz_line(1, (3,), (3,)) == 2
    assert hurwitz_line(0, (2, 1), (2, 1)) == 4
    assert hurwitz_line(0, (3, 1), (2, 2)) == 3
    # a single maximal cycle on both sides forces a cyclic cover
    for d in range(1, 6):
        assert hurwitz_line(0, (d,), (d,)) == Fraction(1, d)


def test_line_matches_naive_enumeration():
    cases = [
        (0, (1, 1), (1, 1)),
        (0, (2,), (2,)),
        (0, (2, 1), (2, 1)),
        (0, (2, 1), (1, 1, 1)),
        (0, (3,), (2, 1)),
        (1, (3,), (3,)),
        (1, (2, 1), (3,)),
        (0, (2, 2), (4,)),
        (0, (3, 1), (2, 2)),
        (1, (4,), (4,)),
    ]
    for g, mu, nu in cases:
        assert hurwitz_line(g, mu, nu) == naive_line_hurwitz(g, mu, nu), (g, mu, nu)


def test_line_composition_convention_is_irrelevant():
    for g, mu, nu in [(0, (2, 1), (2, 1)), (1, (3,), (3,)), (0, (2, 2), (4,))]:
        value = hurwitz_line(g, mu, nu)
        assert value == naive_line_hurwitz(g, mu, nu, left_to_right=False)
        assert value == naive_line_hurwitz(g, mu, nu, left_to_right=True)


def test_line_input_handling():
    # unsorted part lists are fine, order never matters
    assert hurwitz_line(1, [1, 2], [2, 1]) == hurwitz_line(1, (2, 1), (2, 1))
    # swapping the two profiles keeps the count
    assert hurwitz_line(0, (3, 1), (2, 2)) == hurwitz_line(0, (2, 2), (3, 1))
    with pytest.raises(ArgumentError):
        hurwitz_line(0, (2,), (3,))
    with pytest.raises(ArgumentError):
        hurwitz_line(-1, (2,), (2,))
    with pytest.raises(ArgumentError):
        hurwitz_line(0, (), (2,))


def test_line_size_guard():
    # the work estimate: 3,601,011 steps for (19) against (19), under the
    # guard of 4,000,000, and 5,409,130 for (20) against (20); the oracle
    # itself has no guard
    assert guards.line_oracle(0, (19,), (19,)) == 3601011
    assert hurwitz_line(0, (19,), (19,)) == Fraction(1, 19)
    with pytest.raises(SizeGuardError, match="about 5409130 steps"):
        guards.line_oracle(0, (20,), (20,))
    assert hurwitz_line(0, (20,), (20,)) == Fraction(1, 20)
    # each block is priced at p(k)^2 for its own degree k, so this
    # profile is admitted: 485,213 steps, not 4,680,599 at p(d)^2
    mu, nu = (3, 2, 1, 3, 2, 1), (2, 2, 1, 1, 2, 2, 1, 1)
    assert guards.line_oracle(0, mu, nu) == 485213
    # degree 7, past the former fixed limit of 6, is admitted
    assert guards.line_oracle(0, (7,), (7,)) < guards.LIMITS["line_oracle"]
    assert hurwitz_line(0, (7,), (7,)) == Fraction(1, 7)


def test_elliptic_known_small_values():
    # degree 1 forces the cover to be the curve itself, so genus > 1 is empty
    assert hurwitz_elliptic(1, 2) == 0
    assert hurwitz_elliptic(1, 3) == 0
    assert hurwitz_elliptic(2, 2) == 2


def test_elliptic_matches_naive_enumeration():
    cases = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]
    for d, g in cases:
        assert hurwitz_elliptic(d, g) == naive_elliptic_hurwitz(d, g), (d, g)


def test_elliptic_guards():
    # the work estimate p(d) * d + (d * s)^2: 423,164 steps at (34, 2),
    # just under the guard of 500,000, and 525,805 at (35, 2); 480420 is
    # helpers.elliptic_genus_two_content_sum(34)
    assert guards.elliptic_oracle(34, 2) == 423164
    assert hurwitz_elliptic(34, 2) == 480420
    with pytest.raises(SizeGuardError, match="about 525805 steps"):
        guards.elliptic_oracle(35, 2)
    with pytest.raises(ArgumentError):
        hurwitz_elliptic(0, 2)
    with pytest.raises(ArgumentError):
        hurwitz_elliptic(2, 0)
    # (6, 2) and (2, 4), past the former fixed limits, are admitted
    assert hurwitz_elliptic(6, 2) == 360
    assert hurwitz_elliptic(2, 4) == naive_elliptic_hurwitz(2, 4)
    assert hurwitz_elliptic(35, 2) > 0


def test_content_sums_match_commutator_loop():
    for d in range(1, 7):
        for g in (1, 2, 3):
            assert _elliptic_all(d, 2 * g - 2) == commutator_elliptic_all(
                d, 2 * g - 2), (d, g)


def test_genus_two_matches_dijkgraaf():
    # Dijkgraaf's F_2 = (10 E_2^3 - 6 E_2 E_4 - 4 E_6) / 103680, whose
    # q^d coefficient is half the genus-2 count: no content sums involved
    e2, e4, e6 = (eisenstein_series(2, -24, 12),
                  eisenstein_series(4, 240, 12),
                  eisenstein_series(6, -504, 12))
    f2 = [Fraction(10 * a - 6 * b - 4 * c, 103680) for a, b, c in
          zip(series_times(series_times(e2, e2), e2), series_times(e2, e4),
              e6)]
    expected = [0, 2, 16, 60, 160, 360, 672, 1240, 1920, 3180, 4400, 6832]
    assert [2 * f2[d] for d in range(1, 13)] == expected
    assert [hurwitz_elliptic(d, 2) for d in range(1, 13)] == expected


def test_line_runs_each_walk_once():
    # 742 (mu, nu, s) blocks of the inclusion-exclusion share 326 walks
    for cached in (sym_oracle._walks, sym_oracle._line_all,
                   sym_oracle._line_transitive):
        cached.cache_clear()
    hurwitz_line(0, (3, 2, 1, 3, 2, 1), (2, 2, 1, 1, 2, 2, 1, 1))
    info = sym_oracle._walks.cache_info()
    assert (info.misses, info.hits + info.misses) == (326, 742)

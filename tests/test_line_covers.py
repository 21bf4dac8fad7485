"""Tests for tropical double Hurwitz covers of the line."""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (line_cover_multigraph, reference_cover_row,
                     validate_line_cover)
from tropica import line_covers
from tropica.errors import (ArgumentError, CrossCheckError,
                            DegenerateInputError)
from tropica.line_covers import (LineCover, _dp_total, _moves, _table,
                                 double_hurwitz_tropical,
                                 enumerate_line_covers, iter_line_covers,
                                 multiplicity)
from tropica.sym_oracle import hurwitz_line
from tropica.util import partitions_of

REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench"
             / "reference.json")


def explicit_total(genus, mu, nu):
    return sum((multiplicity(c).value
                for c in enumerate_line_covers(genus, mu, nu)),
               Fraction(0))


def small_cases(dmax, gmax, smax=None):
    for d in range(1, dmax + 1):
        parts = list(partitions_of(d))
        for g in range(gmax + 1):
            for mu in parts:
                for nu in parts:
                    s = -2 + 2 * g + len(mu) + len(nu)
                    if s < 1:
                        continue
                    if smax is not None and s > smax:
                        continue
                    yield g, mu, nu


def test_genus_one_three_sheets():
    covers = enumerate_line_covers(1, (3,), (3,))
    assert len(covers) == 1
    m = multiplicity(covers[0])
    assert m.value == 2
    assert (m.weight_product, m.forks, m.wieners) == (2, 0, 0)
    assert covers[0].bounded_edges == ((1, 2, 1), (1, 2, 2))
    assert double_hurwitz_tropical(1, (3,), (3,)) == 2


def test_known_totals():
    assert double_hurwitz_tropical(0, (1, 1), (1, 1)) == Fraction(1, 2)
    assert double_hurwitz_tropical(0, (2, 1), (2, 1)) == 4
    assert double_hurwitz_tropical(0, (3, 1), (2, 2)) == 3
    assert double_hurwitz_tropical(0, (2, 1), (3,)) == 1
    assert double_hurwitz_tropical(1, (2, 2), (2, 1, 1)) == 480


def test_fork_halving():
    # two weight-1 ends meeting at one vertex give a single 1/2 class
    covers = enumerate_line_covers(0, (1, 1), (2,))
    assert len(covers) == 1
    m = multiplicity(covers[0])
    assert (m.forks, m.wieners, m.value) == (1, 0, Fraction(1, 2))


def test_double_fork():
    covers = enumerate_line_covers(0, (1, 1), (1, 1))
    assert len(covers) == 1
    m = multiplicity(covers[0])
    assert (m.weight_product, m.forks, m.wieners) == (2, 2, 0)
    assert m.value == Fraction(1, 2)


def test_wiener_halving():
    # the unique genus-1 degree-2 cover is a pair of parallel weight-1 edges
    covers = enumerate_line_covers(1, (2,), (2,))
    assert len(covers) == 1
    m = multiplicity(covers[0])
    assert covers[0].bounded_edges == ((1, 2, 1), (1, 2, 1))
    assert (m.forks, m.wieners, m.value) == (0, 1, Fraction(1, 2))


def test_class_structure_2_1():
    covers = enumerate_line_covers(0, (2, 1), (2, 1))
    values = sorted(multiplicity(c).value for c in covers)
    assert values == [1, 3]


# three equal right ends at one vertex: 3! automorphisms, but the fork
# count reads two repeats as two forks, 2^2
THREE_EQUAL_ENDS = LineCover(0, (3,), (1, 1, 1), 2, ((1, 3),), (),
                             ((1, 1), (1, 1), (1, 1)))


def test_multiplicity_check_raises_on_a_mismatch():
    with pytest.raises(CrossCheckError,
                       match="has 6 automorphisms but 2 forks and 0 wieners"):
        multiplicity(THREE_EQUAL_ENDS)


@pytest.mark.parametrize("key", [
    (1, (3, 2, 1), (2, 2, 1, 1)),  # forks and wieners, the most covers
    (2, (4, 2), (3, 2, 1)),  # wieners only
    (0, (2, 2, 2), (1,) * 6),  # forks only
])
def test_memoised_rows_match_a_reference_from_scratch(key):
    for cover in iter_line_covers(*key):
        canonical, product, forks, wieners, aut = reference_cover_row(cover)
        assert multiplicity(cover) == (product, forks, wieners,
                                       Fraction(product, aut))
        assert cover.canonical_text() == canonical


# covers of the pairs above with their tuples out of order, equal entries
# apart, and their (forks, wieners, |Aut|)
SHUFFLED_COVERS = [
    (LineCover(1, (3, 2, 1), (2, 2, 1, 1), 7, ((2, 3), (1, 1), (1, 2)),
               ((5, 6, 2), (1, 2, 3), (6, 7, 4), (2, 3, 6), (5, 6, 2),
                (3, 4, 5), (4, 5, 4)),
               ((7, 2), (3, 1), (7, 2), (4, 1))), (1, 1, 4)),
    (LineCover(0, (2, 2, 2), (1,) * 6, 7, ((1, 2), (2, 2), (1, 2)),
               ((5, 7, 2), (1, 2, 4), (2, 3, 6), (3, 4, 2), (3, 5, 4),
                (5, 6, 2)),
               ((6, 1), (4, 1), (7, 1), (4, 1), (6, 1), (7, 1))), (4, 0, 16)),
]


@pytest.mark.parametrize("cover, expected", SHUFFLED_COVERS)
def test_multiplicity_reads_unsorted_tuples(cover, expected):
    canonical, product, forks, wieners, aut = reference_cover_row(cover)
    assert (forks, wieners, aut) == expected
    m = multiplicity(cover)
    assert (m.weight_product, m.forks, m.wieners, m.value) \
        == (product, forks, wieners, Fraction(product, aut))
    assert cover.canonical_text() == canonical
    with pytest.raises(ArgumentError, match="is not sorted"):
        validate_line_cover(cover)
    ordered = cover._replace(**{field: tuple(sorted(getattr(cover, field)))
                                for field in ("left_ends", "bounded_edges",
                                              "right_ends")})
    validate_line_cover(ordered)
    assert multiplicity(ordered) == m


def test_routes_agree_battery():
    for g, mu, nu in small_cases(4, 2):
        ex = explicit_total(g, mu, nu)
        dp = double_hurwitz_tropical(g, mu, nu)
        orc = hurwitz_line(g, mu, nu)
        assert ex == dp == orc, (g, mu, nu)


def test_routes_agree_degree_five():
    for g, mu, nu in [(0, (3, 2), (2, 2, 1)), (1, (5,), (2, 2, 1))]:
        assert explicit_total(g, mu, nu) \
            == double_hurwitz_tropical(g, mu, nu) == hurwitz_line(g, mu, nu)


@pytest.mark.parametrize("degree", [5, 6, 7])
def test_dp_against_oracle(degree):
    parts = list(partitions_of(degree))
    for mu in parts:
        for nu in parts:
            for g in (0, 1, 2):
                s = -2 + 2 * g + len(mu) + len(nu)
                if 1 <= s <= 8:
                    assert double_hurwitz_tropical(g, mu, nu) \
                        == hurwitz_line(g, mu, nu), (g, mu, nu)


def test_dp_steps_only_from_states_that_reach_nu(monkeypatch):
    # every state the DP steps from has weights that are a key of its
    # level's move table; at this profile a DP that made every merge and
    # split would also reach states that cannot end at nu
    events = line_covers._dp_events
    stepped = []

    def checked(state, table):
        ends, comps = state
        weights = list(ends)
        for solos, pairs in comps:
            weights += solos + pairs + pairs
        assert tuple(sorted(weights)) in table, state
        stepped.append(state)
        return events(state, table)

    monkeypatch.setattr(line_covers, "_dp_events", checked)
    genus, mu, nu = 1, (3, 2, 1), (2, 2, 1, 1)
    assert _dp_total.__wrapped__(genus, mu, nu, 7) == hurwitz_line(genus, mu,
                                                                    nu)
    assert len(stepped) > 7


def test_cover_invariants():
    for g, mu, nu in small_cases(4, 2):
        d = sum(mu)
        for cover in enumerate_line_covers(g, mu, nu):
            validate_line_cover(cover)
            assert tuple(sorted((w for _, w in cover.left_ends),
                                reverse=True)) == mu
            assert tuple(sorted((w for _, w in cover.right_ends),
                                reverse=True)) == nu
            graph = line_cover_multigraph(cover)
            assert graph.first_betti() == g
            assert set(graph.valences()) == {3}
            # every level slice cuts edges and ends of total weight d
            for t in range(1, cover.num_levels):
                crossing = sum(w for v, w in cover.left_ends if v > t)
                crossing += sum(w for u, v, w in cover.bounded_edges
                                if u <= t < v)
                crossing += sum(w for v, w in cover.right_ends if v <= t)
                assert crossing == d


def brute_list_symmetries(items):
    count = 0
    for perm in itertools.permutations(range(len(items))):
        if all(items[perm[i]] == items[i] for i in range(len(items))):
            count += 1
    return count


def test_symmetry_count_matches_halving():
    # the 2^(forks + wieners) denominator is the cover's symmetry count
    cases = list(small_cases(3, 1)) + [(2, (2,), (2,)), (2, (1, 1), (2,))]
    checked = 0
    for g, mu, nu in cases:
        for cover in enumerate_line_covers(g, mu, nu):
            lists = (cover.left_ends, cover.bounded_edges, cover.right_ends)
            if any(len(lst) > 7 for lst in lists):
                continue
            brute = 1
            for lst in lists:
                brute *= brute_list_symmetries(lst)
            m = multiplicity(cover)
            assert brute == 2 ** (m.forks + m.wieners), cover.canonical_text()
            checked += 1
    assert checked > 50


def test_reflection_symmetry():
    for g, mu, nu in small_cases(4, 2, smax=6):
        assert double_hurwitz_tropical(g, mu, nu) \
            == double_hurwitz_tropical(g, nu, mu), (g, mu, nu)


def test_input_order_is_irrelevant():
    assert enumerate_line_covers(0, (1, 2), (1, 2)) \
        == enumerate_line_covers(0, (2, 1), (2, 1))
    assert double_hurwitz_tropical(1, [2, 3], [1, 4]) \
        == double_hurwitz_tropical(1, (3, 2), (4, 1))


def test_permuted_tuples_share_one_memoised_total():
    value = double_hurwitz_tropical(1, (3, 1, 2), (1, 4, 1))
    for mu in itertools.permutations((1, 2, 3)):
        for nu in set(itertools.permutations((1, 1, 4))):
            assert double_hurwitz_tropical(1, mu, nu) == value, (mu, nu)
    hits = _dp_total.cache_info().hits
    assert double_hurwitz_tropical(1, [2, 1, 3], [4, 1, 1]) == value
    assert _dp_total.cache_info().hits == hits + 1


def test_scaled_dp_matches_covers_with_forks_and_wieners():
    # each case has covers with forks or wieners, so the sweep's 2^s
    # scaling must divide back out to halves and non-integer totals
    battery = [(0, (1, 1), (1, 1)), (2, (1, 1), (1, 1)), (1, (6,), (6,)),
               (0, (3, 3), (3, 3)), (1, (3, 3), (6,)), (2, (3, 3), (3, 3)),
               (2, (2, 2), (2, 2)), (1, (2, 2, 2), (3, 3))]
    halved = 0
    for g, mu, nu in battery:
        covers = [multiplicity(c) for c in enumerate_line_covers(g, mu, nu)]
        assert any(m.forks or m.wieners for m in covers), (g, mu, nu)
        halved = max(halved, max(m.forks + m.wieners for m in covers))
        total = sum((m.value for m in covers), Fraction(0))
        assert double_hurwitz_tropical(g, mu, nu) == total, (g, mu, nu)
    assert halved == 4
    assert double_hurwitz_tropical(0, (1, 1), (1, 1)) == Fraction(1, 2)
    assert double_hurwitz_tropical(2, (3, 3), (3, 3)) == Fraction(146043, 2)


def test_cover_ordering_is_canonical():
    covers = enumerate_line_covers(1, (2, 2), (2, 1, 1))
    texts = [c.canonical_text() for c in covers]
    assert texts == sorted(texts)
    assert len(set(texts)) == len(texts)


def test_sweep_order_holds_each_class_once():
    for genus, mu, nu in ((1, (2, 2), (2, 1, 1)), (0, (2, 1, 1), (2, 1, 1)),
                          (1, (3, 2, 1), (2, 2, 1, 1))):
        swept = list(iter_line_covers(genus, mu, nu))
        assert sorted(swept, key=LineCover.canonical_text) \
            == enumerate_line_covers(genus, mu, nu)
        assert len(set(swept)) == len(swept)


def test_degree_six_covers_match_reference():
    # the frozen class counts the benchmark verifies --list-covers runs
    # against; the pairs with 5,000 classes or more are left out for time
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    checked = 0
    for key, count in sorted(reference["double_hurwitz_covers"].items()):
        if count >= 5000:
            continue
        genus, mu, nu = key.split()
        genus = int(genus)
        mu = tuple(int(p) for p in mu.split(","))
        nu = tuple(int(p) for p in nu.split(","))
        covers = enumerate_line_covers(genus, mu, nu)
        assert len(covers) == count, key
        assert len({c.canonical_text() for c in covers}) == count, key
        for cover in covers:
            validate_line_cover(cover)
        total = sum((multiplicity(c).value for c in covers), Fraction(0))
        assert total == double_hurwitz_tropical(genus, mu, nu) \
            == hurwitz_line(genus, mu, nu), key
        checked += 1
    assert checked == 14


def test_move_table():
    moves = _moves((2, 1, 1), 3)
    assert len(moves) == 3
    nu = (1, 1, 2)
    # one level before nu: each move lands on nu, and a level changes the
    # length, so nu itself and (1, 1, 1, 1, 1) have no move
    assert set(moves[0]) == {(1, 1, 1, 1), (1, 3), (2, 2)}
    assert nu not in moves[0]
    assert all(after == nu for table in moves[0].values()
               for _, _, after in table)
    # the two 1s of nu give one move, not two
    assert moves[0][(1, 3)] == {((3,), (1, 2), nu)}
    assert moves[0][(1, 1, 1, 1)] == {((1, 1), (2,), nu)}
    for k in range(1, 3):
        assert all(after in moves[k - 1] for table in moves[k].values()
                   for _, _, after in table)
    assert all(sum(weights) == 4 for table in moves for weights in table)


def test_level_tables_repeat_in_twos():
    # each level's table, against the list of one entry per level that the
    # built tables were once expanded to
    for d in range(1, 9):
        for nu in partitions_of(d):
            for s in range(25):
                moves = _moves(nu, s)
                assert len(moves) <= s
                assert [_table(moves, k) for k in range(s)] == \
                    (moves + moves[-2:] * (s // 2))[:s]


def test_input_validation():
    with pytest.raises(ArgumentError):
        enumerate_line_covers(0, (2, 1), (2, 2))
    with pytest.raises(ArgumentError):
        double_hurwitz_tropical(-1, (2,), (2,))
    with pytest.raises(ArgumentError):
        enumerate_line_covers(0, (0, 2), (1, 1))
    # a single unbranched sheet pair has no 3-valent vertex at all
    with pytest.raises(DegenerateInputError):
        enumerate_line_covers(0, (3,), (3,))
    with pytest.raises(DegenerateInputError):
        double_hurwitz_tropical(0, (2,), (2,))


def test_degenerate_is_argument_error_subclass():
    assert issubclass(DegenerateInputError, ArgumentError)

"""The size guards: each estimate at its limit, and --force past it."""

import json
from collections import Counter
from itertools import combinations

import pytest

from tropica import guards
from tropica.cli import main
from tropica.errors import SizeGuardError
from tropica.line_covers import _moves

THETA_TEXT = "V 2 E 3 L 0\ne 0 1\ne 0 1\ne 0 1\n"


@pytest.mark.parametrize("guard, admitted, admitted_work, refused, message", [
    (guards.line_oracle, (0, (19,), (19,)), 3601011, (0, (20,), (20,)),
     "degree 20 with 0 transpositions is about 5409130 steps of work,"),
    (guards.line_oracle, (0, (3, 2, 1, 3, 2, 1), (2, 2, 1, 1, 2, 2, 1, 1)),
     485213, (0, (20,), (19, 1)),
     "degree 20 with 1 transpositions is about 5802260 steps of work,"),
    (guards.line_covers, (1, (6, 5, 4), (5, 5, 5)), 5143,
     (2, (6, 5, 4), (5, 5, 5)),
     "listing 8-level covers of degree 15 is at least 60235 weight paths"),
    (guards.line_covers, (1, (3, 2, 1), (2, 2, 1, 1)), 1955,
     (2, (6, 5, 4), (5, 5, 5)),
     "listing 8-level covers of degree 15 is at least 60235 weight paths"),
    (guards.line_dp, (0, (3, 3, 2, 2, 1, 1), (2, 2, 2, 2, 1, 1, 1, 1)),
     158956, (0, (1,) * 12, (1,) * 12),
     "summing 22-level covers of degree 12 is at least 258412 events"),
    (guards.elliptic, (7, 3), 41184, (8, 3),
     "degree 8, genus 3 is about 72072 steps of work,"),
    (guards.elliptic, (2, 4), 39600, (3, 4),
     "degree 3, genus 4 is about 158400 steps of work,"),
    (guards.elliptic, (51, 2), 49608, (52, 2),
     "degree 52, genus 2 is about 52470 steps of work,"),
    (guards.elliptic, (5, 3), 11088, (5, 4),
     "degree 5, genus 4 is about 1441440 steps of work,"),
    (guards.elliptic_oracle, (34, 2), 423164, (35, 2),
     "degree 35, genus 2 is about 525805 steps of work,"),
    (guards.chambers, (5, 1), 42875, (3, 3),
     "lmu 3, lnu 3 is about 814625 steps of work (at least 19 chambers, "
     "35^3 for the 35 unknowns of each),"),
    (guards.feynman, (6, 10), 168168, (6, 11),
     "dmax 11 on 6 edges is about 284648 terms of work,"),
    (guards.moduli, (0, 8), 10395, (0, 9),
     "genus 0 with 9 marks is about 135135 types of work,"),
    (guards.moduli, (4, 0), 10395, (4, 1),
     "genus 4 with 1 marks is about 135135 types of work,"),
    (guards.graph_complex, (6,), 6190283353629375, (7,),
     "genus 7 is about 2^67 pairings of work,"),
], ids=["line-oracle", "line-oracle-multi-part", "line-covers",
        "line-covers-bench", "line-dp", "elliptic-genus-3", "elliptic-genus-4",
        "elliptic-genus-2", "elliptic-former-limit", "elliptic-oracle",
        "chambers", "feynman", "moduli-genus-0", "moduli-genus-4",
        "graph-complex"])
def test_estimate_at_the_limit(guard, admitted, admitted_work, refused,
                               message):
    assert guard(*admitted) == admitted_work
    with pytest.raises(SizeGuardError) as exc:
        guard(*refused)
    text = str(exc.value)
    assert text.startswith(message)
    assert text.endswith("; pass --force to run anyway")
    words = text.split(" is ", 1)[1].split()
    if words[0] == "about":  # in full below 2^64, as a power of 2 past it
        work = guard(*refused, force=True)
        assert words[1] == (str(work) if work < 2 ** 64
                            else f"2^{work.bit_length() - 1}")
    else:  # a walk that stopped past the limit gives a lower bound
        assert words[:2] == ["at", "least"]
        assert guard(*refused, force=True) > int(words[2])


def test_line_covers_walk_stops_past_the_limit():
    # (3) to (3) has 2^(g - 1) weight paths; the tables repeat in twos
    assert len({id(table) for table in _moves((3,), 200_000)}) == 3
    with pytest.raises(SizeGuardError, match="is at least 65536 weight"):
        guards.line_covers(100_000, (3,), (3,))
    assert guards.line_covers(17, (3,), (3,), force=True) == 2 ** 16


def test_line_covers_build_stops_past_the_limit():
    # (40) to 1^40 builds 39 tables, the last ones of thousands of keys;
    # the build stops after 9 of them
    with pytest.raises(SizeGuardError,
                       match="is at least 67844 tried moves of work"):
        guards.line_covers(0, (40,), (1,) * 40)
    # the layer after the last table is compared, never expanded, so it is
    # not priced: the walk refuses this one
    with pytest.raises(SizeGuardError, match="is at least 77192 weight"):
        guards.line_covers(3, (9, 9), (12, 1, 1, 1, 1, 1, 1))


BIG = 10 ** 21


def test_line_covers_walk_skips_the_levels_that_repeat():
    # degree 2 has one weight path at any genus: where the tables repeat
    # in twos and the paths do too, the walk jumps to the last levels
    assert guards.line_covers(BIG, (2,), (2,)) == 1
    assert guards.line_covers(BIG, (2,), (1, 1)) == 1
    assert guards.line_covers(BIG, (1, 1), (1, 1)) == 1


# every integer the CLI passes on from its arguments, but the parts of a
# profile (the line guards' other routes refuse a large part first) and
# feynman's edge count, which comes from a parsed graph
@pytest.mark.parametrize("guard, args", [
    (guards.line_oracle, (BIG, (3,), (2, 1))),
    (guards.line_covers, (BIG, (3,), (2, 1))),
    (guards.line_dp, (BIG, (3,), (2, 1))),
    (guards.elliptic, (BIG, 2)), (guards.elliptic, (3, BIG)),
    (guards.elliptic_oracle, (BIG, 2)), (guards.elliptic_oracle, (3, BIG)),
    (guards.chambers, (BIG, 2)), (guards.chambers, (2, BIG)),
    (guards.feynman, (3, BIG)),
    (guards.moduli, (BIG, 2)), (guards.moduli, (1, BIG)),
    (guards.graph_complex, (BIG,)),
])
@pytest.mark.parametrize("sign", (1, -1))
def test_every_guard_takes_any_int(guard, args, sign):
    args = tuple(sign * a if a == BIG else a for a in args)
    try:
        assert isinstance(guard(*args), int)
    except SizeGuardError:
        pass


def test_line_oracle_counts_sub_multisets_once_per_sum():
    parts = (3, 2, 1, 3, 2, 1, 1)
    chosen = {tuple(sorted(c)) for r in range(len(parts) + 1)
              for c in combinations(parts, r)}
    assert guards._sub_multiset_counts(parts) == Counter(map(sum, chosen))
    # a long profile is refused at once, with the estimate it always had
    with pytest.raises(SizeGuardError, match="is about 2\\^90 steps"):
        guards.line_oracle(0, tuple(range(1, 121)), (7260,))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name, argv", [
    ("line_oracle", ("double-hurwitz", "--genus", "1", "--mu", "3",
                     "--nu", "3")),
    ("line_covers", ("double-hurwitz", "--genus", "1", "--mu", "3",
                     "--nu", "3", "--list-covers")),
    ("line_dp", ("double-hurwitz", "--genus", "1", "--mu", "3",
                 "--nu", "3")),
    ("chambers", ("chambers", "--lmu", "2", "--lnu", "2")),
    ("elliptic", ("elliptic", "--degree", "3", "--genus", "2")),
    ("elliptic_oracle", ("elliptic", "--degree", "3", "--genus", "2")),
    ("feynman", ("feynman", "--graph", "theta.txt", "--order", "1,2",
                 "--dmax", "2")),
    ("graph_complex", ("graph-complex", "--genus", "3")),
    ("moduli", ("moduli", "--genus", "1", "--marks", "2", "--poset")),
    ("line_oracle", ("oracle", "line", "--genus", "0", "--mu", "2,1",
                     "--nu", "1,1,1")),
    ("elliptic_oracle", ("oracle", "elliptic", "--degree", "3",
                         "--genus", "2")),
], ids=["double-hurwitz", "list-covers", "double-hurwitz-dp", "chambers",
        "elliptic", "elliptic-content-sums", "feynman", "graph-complex", "moduli",
        "oracle-line", "oracle-elliptic"])
def test_force_runs_past_a_lowered_limit(tmp_path, capsys, monkeypatch,
                                         name, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "theta.txt").write_text(THETA_TEXT, encoding="utf-8")
    expected = run(capsys, *argv, "--json")
    assert expected[0] == 0
    assert json.loads(expected[1])["command"] == argv[0]
    monkeypatch.setitem(guards.LIMITS, name, 0)
    code, out, err = run(capsys, *argv, "--json")
    assert (code, out) == (3, "")
    assert err.startswith("error: size guard: ")
    assert err.endswith(", past the guard of 0; pass --force to run anyway\n")
    assert run(capsys, *argv, "--json", "--force") == expected

import csv
import importlib
import io
import itertools
import json
import os
import random
import resource
import shlex
import shutil
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

from tropica import (cli, elliptic_covers, guards, line_covers, moduli_space,
                     sym_oracle)
from tropica.cli import main
from tropica.errors import LoopContractionError
from tropica.feynman_series import MirrorRow
from tropica.graphs import automorphisms, parse_graph, serialize
from tropica.util import exact_digits, frac_str, slot_of

THETA_TEXT = "V 2 E 3 L 0\ne 0 1\ne 0 1\ne 0 1\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_double_hurwitz_prints_value(capsys):
    code, out, _ = run(capsys, "double-hurwitz", "--genus", "1",
                       "--mu", "3", "--nu", "3")
    assert code == 0
    assert out == "2\n"


def test_double_hurwitz_list_covers(capsys):
    code, out, _ = run(capsys, "double-hurwitz", "--genus", "1",
                       "--mu", "3", "--nu", "3", "--list-covers")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("mult=2 weight=2")
    assert lines[1] == "2"


def test_double_hurwitz_json(capsys):
    code, out, _ = run(capsys, "double-hurwitz", "--genus", "1",
                       "--mu", "3", "--nu", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "tropica/1"
    assert report["command"] == "double-hurwitz"
    result = report["result"]
    assert result["total"] == "2"
    assert result["s"] == 2
    assert "covers" not in result
    code, out, _ = run(capsys, "double-hurwitz", "--genus", "1",
                       "--mu", "3", "--nu", "3", "--list-covers", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result["covers"]) == 1
    cover = result["covers"][0]
    assert set(cover) == {"canonical", "weightProduct", "forks",
                          "wieners", "multiplicity"}
    assert cover["multiplicity"] == "2"


def test_double_hurwitz_enumerates_only_when_listing(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("covers enumerated without --list-covers")

    monkeypatch.setattr(cli, "iter_line_covers", refuse)
    monkeypatch.setattr(cli, "multiplicity", refuse)
    code, out, _ = run(capsys, "double-hurwitz", "--genus", "1",
                       "--mu", "3,2,1", "--nu", "2,2,1,1", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert "covers" not in result
    assert result["total"] == "3069360"


def test_double_hurwitz_oracle_mismatch_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "hurwitz_line",
                        lambda genus, mu, nu: Fraction(-1))
    code, out, err = run(capsys, "double-hurwitz", "--genus", "1",
                         "--mu", "3", "--nu", "3")
    assert code == 4
    assert out == ""
    assert "S_d monodromy count gives -1" in err


def test_double_hurwitz_past_degree_six_checks_the_oracle(
        capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sym_oracle.hurwitz_line(*args, **kwargs)

    def refuse(*args):
        raise AssertionError("must not run here")

    monkeypatch.setattr(cli, "hurwitz_line", counted)
    monkeypatch.setattr(cli, "iter_line_covers", refuse)
    argv = ("double-hurwitz", "--genus", "0", "--mu", "4,3",
            "--nu", "3,2,2", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1
    result = json.loads(out)["result"]
    assert "covers" not in result
    assert Fraction(result["total"]) == line_covers.double_hurwitz_tropical(
        0, (4, 3), (3, 2, 2))
    # with --list-covers the cover enumeration is the second route
    monkeypatch.setattr(cli, "iter_line_covers", line_covers.iter_line_covers)
    monkeypatch.setattr(cli, "double_hurwitz_tropical",
                        lambda genus, mu, nu: Fraction(-1))
    code, _, err = run(capsys, *argv, "--list-covers")
    assert code == 4
    assert "cover enumeration and the level sweep disagree" in err
    # past the oracle's guard the refusal comes before the DP runs
    monkeypatch.setattr(cli, "double_hurwitz_tropical", refuse)
    code, _, err = run(capsys, "double-hurwitz", "--genus", "3",
                       "--mu", "10,10", "--nu", "4,4,4,4,4")
    assert code == 3
    assert "about 9733560 steps of work" in err


def test_listed_covers_build_the_move_tables_twice(capsys, monkeypatch):
    # the guard's price pass builds them once, and the DP guard, the cover
    # sweep and the DP share one more build; they once took four
    builds = []
    tables = line_covers._tables

    def counted(nu_parts, s):
        builds.append((nu_parts, s))
        return tables(nu_parts, s)

    monkeypatch.setattr(line_covers, "_tables", counted)
    monkeypatch.setattr(guards, "_tables", counted)
    line_covers._moves.cache_clear()
    line_covers._dp_total.cache_clear()
    code, out, _ = run(capsys, "double-hurwitz", "--genus", "1", "--mu",
                       "6,5,4", "--nu", "5,5,5", "--list-covers")
    assert (code, out.splitlines()[-1]) == (0, "42750000")
    assert len(builds) <= 2


@pytest.mark.parametrize("genus, mu, nu", [
    ("3", "5,4", "3,3,3"), ("4", "6,3", "3,3,3"), ("5", "8", "2,2,2,2")])
def test_double_hurwitz_large_degrees_finish_quickly(capsys, monkeypatch,
                                                     genus, mu, nu):
    # these took 20 s to over 40 s while past degree 6 the covers were
    # enumerated as the second route
    def refuse(*args):
        raise AssertionError("covers enumerated without --list-covers")

    monkeypatch.setattr(cli, "iter_line_covers", refuse)
    start = time.monotonic()
    code, out, _ = run(capsys, "double-hurwitz", "--genus", genus,
                       "--mu", mu, "--nu", nu)
    assert time.monotonic() - start < 1.0
    assert code == 0
    assert Fraction(out) == sym_oracle.hurwitz_line(
        int(genus), cli._partition(mu), cli._partition(nu))


def test_elliptic_value(capsys):
    # independent routes agree on 60 for (4, 2)
    code, out, _ = run(capsys, "elliptic", "--degree", "4", "--genus", "2")
    assert code == 0
    assert out == "60\n"


def test_elliptic_per_graph(capsys):
    code, out, _ = run(capsys, "elliptic", "--degree", "4", "--genus", "2",
                       "--per-graph")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph 0: |Aut|=12 labeled=720 contribution=60"
    assert lines[-1] == "60"


def test_elliptic_json_structure(capsys):
    code, out, _ = run(capsys, "elliptic", "--degree", "2", "--genus", "2",
                       "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["total"] == "2"
    graph = result["graphs"][0]
    assert graph["automorphisms"] == 12
    assert graph["labeledTotal"] == 24
    assert len(graph["orders"]) == 2
    for order in graph["orders"]:
        assert sorted(order["order"]) == [1, 2]
        assert order["total"] == sum(entry["count"]
                                     for entry in order["multidegrees"])
        assert all(entry["count"] > 0 for entry in order["multidegrees"])


def test_elliptic_runs_one_labeled_sweep(capsys, monkeypatch):
    # the labeled table takes one unconstrained edge-data sweep per
    # Aut-orbit of vertex orders, on the orbit's first order, and the
    # content sums take none
    sweeps = []
    assignments = elliptic_covers._assignments

    def counted(edges, slots, degree, multidegree=None):
        sweeps.append((tuple(edges), tuple(slots), multidegree))
        return assignments(edges, slots, degree, multidegree)

    monkeypatch.setattr(elliptic_covers, "_assignments", counted)
    for degree, genus, orbits in ((3, 2, 1), (5, 3, 7)):
        sweeps.clear()
        code, _, _ = run(capsys, "elliptic", "--degree", str(degree),
                         "--genus", str(genus), "--json")
        assert code == 0
        expected = []
        for shape in elliptic_covers.enumerate_feynman_graphs(genus):
            auts = automorphisms(shape.graph)
            firsts = {min(tuple(sigma[x] for x in order) for sigma in auts)
                      for order in itertools.permutations(
                          range(shape.num_vertices))}
            expected += [(shape.graph.edges, tuple(slot_of(order)), None)
                         for order in firsts]
        assert len(expected) == orbits
        assert sorted(sweeps) == sorted(expected)


def test_elliptic_oracle_mismatch_exits_4(capsys, monkeypatch):
    monkeypatch.setattr("tropica.elliptic_covers.hurwitz_elliptic",
                        lambda degree, genus: Fraction(17))
    code, out, err = run(capsys, "elliptic", "--degree", "3", "--genus", "2")
    assert (code, out) == (4, "")
    assert "S_d monodromy count gives 17" in err


def test_elliptic_labeled_table_mismatch_exits_4(capsys, monkeypatch):
    table = elliptic_covers.labeled_table
    monkeypatch.setattr(elliptic_covers, "labeled_table",
                        lambda d, g: table(d, g)[1:])
    code, out, err = run(capsys, "elliptic", "--degree", "3", "--genus", "3")
    assert (code, out) == (4, "")
    assert "labeled aggregation gives" in err
    assert "S_d monodromy count gives 160" in err


def test_oracle_values(capsys):
    assert run(capsys, "oracle", "line", "--genus", "1",
               "--mu", "3", "--nu", "3")[:2] == (0, "2\n")
    assert run(capsys, "oracle", "elliptic", "--degree", "4",
               "--genus", "2")[:2] == (0, "60\n")
    # rationals render as p/q
    assert run(capsys, "oracle", "line", "--genus", "0",
               "--mu", "1,1", "--nu", "1,1")[:2] == (0, "1/2\n")


def test_chambers_output(capsys):
    code, out, _ = run(capsys, "chambers", "--lmu", "2", "--lnu", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "walls:"
    assert lines[1:3] == ["  mu1 - nu1", "  mu1 - nu2"]
    assert lines[3] == "chambers:"
    assert len(lines) == 8
    assert any("[++]" in line and "2*mu1" in line for line in lines)
    code, out, _ = run(capsys, "chambers", "--lmu", "2", "--lnu", "2",
                       "--json")
    result = json.loads(out)["result"]
    assert len(result["walls"]) == 2
    assert len(result["chambers"]) == 4
    plus_plus = next(c for c in result["chambers"]
                     if c["signs"] == ["+", "+"])
    assert plus_plus["polynomial"] == "2*mu1"
    assert plus_plus["degree"] == 1


def test_feynman_refined_output(tmp_path, capsys):
    path = tmp_path / "theta.txt"
    path.write_text(THETA_TEXT, encoding="utf-8")
    code, out, _ = run(capsys, "feynman", "--graph", str(path),
                       "--order", "1,2", "--dmax", "1")
    assert code == 0
    assert out == "0\n"
    code, out, _ = run(capsys, "feynman", "--graph", str(path),
                       "--order", "1,2", "--dmax", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.endswith("= 2") for line in lines)
    assert lines[0] == "q^(0,0,4) = 2"


def test_feynman_errors(tmp_path, capsys):
    path = tmp_path / "theta.txt"
    path.write_text(THETA_TEXT, encoding="utf-8")
    assert run(capsys, "feynman", "--graph", str(tmp_path / "nope.txt"),
               "--order", "1,2", "--dmax", "2")[0] == 2
    assert run(capsys, "feynman", "--graph", str(path),
               "--order", "1,3", "--dmax", "2")[0] == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("V 2 E 1 L 0\ne 0 1\n", encoding="utf-8")
    assert run(capsys, "feynman", "--graph", str(bad),
               "--order", "1,2", "--dmax", "2")[0] == 2


def test_mirror_check_matches(capsys):
    code, out, _ = run(capsys, "mirror-check", "--genus", "2",
                       "--dmax", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d=1 q^2 tropical=0 series=0 ok"
    assert lines[-1] == "all 2 degrees match"


def test_mirror_check_walks_no_covers(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mirror-check enumerated covers")

    monkeypatch.setattr(elliptic_covers, "enumerate_elliptic_covers", refuse)
    code, out, _ = run(capsys, "mirror-check", "--genus", "3",
                       "--dmax", "2")
    assert code == 0
    assert out.splitlines()[-1] == "all 2 degrees match"


def test_mirror_check_mismatch_exits_4(capsys, monkeypatch):
    rows = [MirrorRow(degree=1, q_power=2, tropical=Fraction(0),
                      series=Fraction(1), match=False)]
    monkeypatch.setattr("tropica.cli.mirror_check",
                        lambda genus, dmax: rows)
    code, out, _ = run(capsys, "mirror-check", "--genus", "2",
                       "--dmax", "1")
    assert code == 4
    assert "MISMATCH" in out
    assert "1 of 1 degrees mismatch" in out


def test_graph_complex_report(tmp_path, capsys):
    code, out, _ = run(capsys, "graph-complex", "--genus", "3")
    assert code == 0
    assert out.splitlines() == [
        "n=4 basis=0 homology=0",
        "n=5 basis=0 homology=0",
        "n=6 basis=1 homology=1 (H0)",
    ]
    matrix = tmp_path / "boundary.txt"
    code, out, _ = run(capsys, "graph-complex", "--genus", "3",
                       "--edges", "6", "--dump-matrix", str(matrix))
    assert code == 0
    assert matrix.read_text(encoding="utf-8") == ""
    assert "matrix 0x1 (0 entries)" in out
    code, out, _ = run(capsys, "graph-complex", "--genus", "3",
                       "--edges", "6", "--json")
    result = json.loads(out)["result"]
    assert result["rows"] == [{"edges": 6, "basisSize": 1,
                               "homologyDimension": 1, "isHZero": True}]


def test_graph_complex_genus_five_runs_unforced(capsys):
    # W5, the wheel with five spokes, gives the one class at genus 5
    code, out, _ = run(capsys, "graph-complex", "--genus", "5")
    assert code == 0
    assert "n=10 basis=2 homology=1 (H0)" in out.splitlines()


def test_graph_complex_exit_codes(capsys):
    assert run(capsys, "graph-complex", "--genus", "7")[0] == 3
    assert run(capsys, "graph-complex", "--genus", "1")[0] == 2
    assert run(capsys, "graph-complex", "--genus", "3",
               "--dump-matrix", "x.txt")[0] == 2


def test_moduli_output(capsys):
    code, out, _ = run(capsys, "moduli", "--genus", "0", "--marks", "4")
    assert code == 0
    assert out.splitlines()[0] == "4 types (max dimension 1)"
    code, out, _ = run(capsys, "moduli", "--genus", "0", "--marks", "4",
                       "--poset")
    lines = out.splitlines()
    assert "covers:" in lines
    assert sum(1 for line in lines if " < " in line) == 3
    code, out, _ = run(capsys, "moduli", "--genus", "1", "--marks", "2",
                       "--json")
    result = json.loads(out)["result"]
    assert result["count"] == 5
    assert result["maxDimension"] == 2
    assert sum(1 for t in result["types"] if t["folded"]) == 1


@pytest.mark.parametrize("poset", [False, True])
def test_moduli_folds_each_type_once(capsys, monkeypatch, poset):
    calls = []
    folded = moduli_space.is_folded

    def counted(graph):
        calls.append(graph)
        return folded(graph)

    monkeypatch.setattr(moduli_space, "is_folded", counted)
    argv = ["moduli", "--genus", "1", "--marks", "3", "--json"]
    code, out, _ = run(capsys, *argv + ["--poset"] * poset)
    assert code == 0
    types = json.loads(out)["result"]["types"]
    assert len(types) == 23
    # with or without the poset, the flags come from enumeration, which
    # reads them off the stabilisers it holds, and agree with is_folded
    assert calls == []
    assert [t["folded"] for t in types] == [
        folded(parse_graph(t["graph"])) for t in types]


def test_csv_outputs(capsys):
    code, out, _ = run(capsys, "mirror-check", "--genus", "2",
                       "--dmax", "2", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree,q_power,tropical,series,match"
    assert lines[1] == "1,2,0,0,yes"
    code, out, _ = run(capsys, "oracle", "elliptic", "--degree", "2",
                       "--genus", "2", "--csv")
    assert out.splitlines() == ["problem,degree,genus,value",
                                "elliptic,2,2,2"]
    code, out, _ = run(capsys, "moduli", "--genus", "0", "--marks", "4",
                       "--csv")
    assert out.splitlines()[0] == "index,dimension,folded,graph"


@pytest.mark.parametrize("argv, csv_rows, text_lines", [
    (("double-hurwitz", "--genus", "1", "--mu", "2,1", "--nu", "2,1",
      "--list-covers"),
     lambda p: len(p["covers"]) + 1, lambda p: len(p["covers"]) + 1),
    (("chambers", "--lmu", "2", "--lnu", "1"), lambda p: len(p["chambers"]),
     lambda p: len(p["walls"]) + len(p["chambers"]) + 2),
    (("elliptic", "--degree", "3", "--genus", "2", "--per-graph"),
     lambda p: len(p["graphs"]) + 1, lambda p: len(p["graphs"]) + 1),
    (("feynman", "--graph", "theta.txt", "--order", "1,2", "--dmax", "3"),
     lambda p: len(p["terms"]), lambda p: len(p["terms"])),
    (("mirror-check", "--genus", "2", "--dmax", "3"),
     lambda p: len(p["rows"]), lambda p: len(p["rows"]) + 1),
    (("graph-complex", "--genus", "3"),
     lambda p: len(p["rows"]), lambda p: len(p["rows"])),
    (("moduli", "--genus", "1", "--marks", "2", "--poset"),
     lambda p: len(p["types"]),
     lambda p: 2 + len(p["covers"]) + sum(
         1 + len(t["graph"].splitlines()) for t in p["types"])),
    (("oracle", "line", "--genus", "0", "--mu", "2,1", "--nu", "1,1,1"),
     lambda p: 1, lambda p: 1),
], ids=["double-hurwitz", "chambers", "elliptic", "feynman", "mirror-check",
        "graph-complex", "moduli", "oracle"])
def test_views_match_the_payload(tmp_path, capsys, monkeypatch, argv,
                                 csv_rows, text_lines):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "theta.txt").write_text(THETA_TEXT, encoding="utf-8")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    payload = json.loads(out)["result"]
    code, out, _ = run(capsys, *argv, "--csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert [len(row) for row in rows] == [len(header)] * len(rows)
    assert len(rows) == csv_rows(payload)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(out.splitlines()) == text_lines(payload)


def _stdlib_json(value):
    return json.dumps(value, indent=2, sort_keys=True)


def _random_json(rng, depth=0):
    """A nested value mixing scalars, containers of scalars and runs of
    them, with strings that look like the writer's seams."""
    texts = ["", "a", "},", "{", '"', "\\", "\n", "],\n  [", "é", "☃"]
    scalars = [lambda: rng.randint(-10 ** 6, 10 ** 6),
               lambda: rng.choice(texts), lambda: rng.random() * 1e3,
               lambda: True, lambda: False, lambda: None, lambda: 2 ** 70,
               lambda: float("nan")]
    kind = rng.random()
    if depth > 3 or kind < 0.3:
        return rng.choice(scalars)()
    size = rng.choice([0, 1, 2, 5])
    if kind < 0.5:
        return [_random_json(rng, depth + 1) for _ in range(size)]
    if kind < 0.6:
        return tuple(_random_json(rng, depth + 1) for _ in range(size))
    if kind < 0.7:  # a run of dicts of scalars
        return [{rng.choice(texts): rng.choice(scalars)()
                 for _ in range(rng.randint(1, 2))}
                for _ in range(rng.randint(1, 40))]
    if kind < 0.8:  # a run of lists of scalars
        return [[rng.choice(scalars)() for _ in range(rng.randint(1, 2))]
                for _ in range(rng.randint(1, 40))]
    return {rng.choice(texts) + str(i): _random_json(rng, depth + 1)
            for i in range(size)}


JSON_TRAPS = [
    [{"a": 1}, [1, 2]],  # one of each kind: no run, so no shared seam
    {3: [1]}, {1.5: [1], 2: [3]}, {True: [1], False: 2}, {None: [[1]]},
    [{}, []], [[], {}], [{}], [[]], [[1], []], [{"a": 1}, {}],
    [[[], []], [[]]], ({"k": (1, 2)}, [(3,), [4]]),
    ["},", "{", '"', "\\", "\n", "é ☃"], [{"},\n  {": "},\n  {"}] * 3,
    [{"x": s} for s in ["},", "]", "{", "\n"]],
    [(1.5, True, None), (-0.0, float("inf"), float("-inf"))],
]


def test_json_writer_matches_the_stdlib():
    rng = random.Random(28)
    values = JSON_TRAPS + [_random_json(rng) for _ in range(1500)]
    for value in values:
        assert "".join(cli._json_chunks(value)) == _stdlib_json(value)
    with exact_digits():  # an int past CPython's digit limit
        value = {"covers": [{"weightProduct": 2 ** 19999, "forks": 0}],
                 "total": [2 ** 19999, [1]]}
        assert "".join(cli._json_chunks(value)) == _stdlib_json(value)


def _report(argv):
    args = cli.build_parser().parse_args([*argv, "--json"])
    payload = cli._COMMANDS[args.command][0](args)
    return args, payload, {"schema": cli.SCHEMA_VERSION,
                           "command": args.command, "result": payload}


@pytest.mark.parametrize("argv", [
    ("double-hurwitz", "--genus", "1", "--mu", "3,1", "--nu", "2,2"),
    ("double-hurwitz", "--genus", "1", "--mu", "3,1", "--nu", "2,2",
     "--list-covers"),
    ("chambers", "--lmu", "2", "--lnu", "2"),
    ("elliptic", "--degree", "3", "--genus", "2"),
    ("feynman", "--graph", "theta.txt", "--order", "1,2", "--dmax", "3"),
    ("mirror-check", "--genus", "2", "--dmax", "3"),
    ("graph-complex", "--genus", "3", "--edges", "6", "--dump-matrix", "m"),
    ("moduli", "--genus", "1", "--marks", "3", "--poset"),
    ("oracle", "line", "--genus", "0", "--mu", "2,1", "--nu", "1,1,1"),
    ("oracle", "elliptic", "--degree", "3", "--genus", "2"),
], ids=lambda argv: "-".join(argv[:2]) + ("-list" if len(argv) > 7 else ""))
def test_json_writer_matches_the_stdlib_on_every_payload(
        tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "theta.txt").write_text(THETA_TEXT, encoding="utf-8")
    args, payload, report = _report(argv)
    out = io.StringIO()
    cli._write(args, payload, out)
    assert out.getvalue() == _stdlib_json(report) + "\n"


@pytest.mark.parametrize("argv", [
    ("double-hurwitz", "--genus", "2", "--mu", "4,2", "--nu", "3,2,1",
     "--list-covers"),
    ("moduli", "--genus", "0", "--marks", "7", "--poset"),
    ("elliptic", "--degree", "5", "--genus", "3"),
], ids=["list-covers", "moduli", "elliptic"])
def test_writes_stay_bounded(argv):
    # batches of about 64 KiB, none past 128 KiB, and nothing lost
    args, payload, report = _report(argv)
    sizes = []
    cli._write(args, payload, types.SimpleNamespace(
        write=lambda text: sizes.append(len(text))))
    assert max(sizes) <= 128 * 1024
    assert sum(sizes) == len(_stdlib_json(report)) + 1
    assert len(sizes) > 1


def test_a_chunk_past_the_batch_is_split():
    args = types.SimpleNamespace(json=True, command="oracle")
    payload = {"value": "x" * 300_000, "rows": [[1, "y" * 200_000]]}
    texts = []
    cli._write(args, payload, types.SimpleNamespace(write=texts.append))
    assert max(map(len, texts)) <= 128 * 1024
    assert "".join(texts) == _stdlib_json(
        {"schema": cli.SCHEMA_VERSION, "command": "oracle",
         "result": payload}) + "\n"


def test_multiplicity_check_holds_under_optimize():
    # -O strips asserts; a cover whose |Aut| is not 2^(forks + wieners)
    # still ends in exit 4 with a message, not in a wrong value
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = (
        "import sys\n"
        "from tropica import cli\n"
        "from tropica.line_covers import LineCover\n"
        "bad = LineCover(0, (3,), (1, 1, 1), 2, ((1, 3),), (),\n"
        "                ((1, 1), (1, 1), (1, 1)))\n"
        "cli.iter_line_covers = lambda *args: iter([bad])\n"
        "sys.exit(cli.main(['double-hurwitz', '--genus', '0', '--mu', '3',\n"
        "                   '--nu', '1,1,1', '--list-covers']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == (
        "cross-check failed: cover left 1:3 | edges  | right 1:1 1:1 1:1 "
        "has 6 automorphisms but 2 forks and 0 wieners\n")


@pytest.mark.parametrize("flag", ["--json", "--force"])
def test_oracle_flags_go_after_the_problem(capsys, flag):
    for problem in (("line", "--genus", "0", "--mu", "2,1", "--nu", "2,1"),
                    ("elliptic", "--degree", "3", "--genus", "2")):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", flag, *problem])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert run(capsys, "oracle", problem[0], flag, *problem[1:])[0] == 0


def test_oracle_csv_replays_from_cache(tmp_path, capsys):
    argv = ("oracle", "line", "--genus", "0", "--mu", "2,1", "--nu", "1,1,1",
            "--csv", "--cache-dir", str(tmp_path))
    first = run(capsys, *argv)
    assert first[1].splitlines()[0] == "problem,genus,mu,nu,value"
    assert run(capsys, *argv) == first


def test_readme_examples_run(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent
              / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line) for line in block.splitlines()]
    assert examples and all(e[0] == "tropica" for e in examples)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "theta.txt").write_text(THETA_TEXT, encoding="utf-8")
    for example in examples:
        code, _, err = run(capsys, *example[1:])
        assert (code, err) == (0, ""), example


def test_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("elliptic", "--degree", "3", "--genus", "2",
            "--cache-dir", str(cache))
    code, first, _ = run(capsys, *args)
    assert code == 0
    files = list(cache.iterdir())
    assert len(files) == 1
    code, second, _ = run(capsys, *args)
    assert code == 0
    assert first == second
    # the second run reads the cached payload, not a fresh computation
    payload = json.loads(files[0].read_text(encoding="utf-8"))
    payload["total"] = "999"
    files[0].write_text(json.dumps(payload), encoding="utf-8")
    code, tampered, _ = run(capsys, *args)
    assert tampered == "999\n"
    # format flags do not touch the cache key
    assert len(list(cache.iterdir())) == 1
    code, as_json, _ = run(capsys, *args, "--json")
    assert json.loads(as_json)["result"]["total"] == "999"


def test_truncated_cache_file_is_a_miss(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("double-hurwitz", "--genus", "1", "--mu", "2,2",
            "--nu", "2,1,1", "--json", "--cache-dir", str(cache))
    code, first, _ = run(capsys, *args)
    assert code == 0
    (entry,) = cache.iterdir()
    whole = entry.read_bytes()
    entry.write_bytes(whole[:len(whole) // 2])
    code, second, err = run(capsys, *args)
    assert (code, err) == (0, "")
    assert second == first
    assert entry.read_bytes() == whole
    assert [p.name for p in cache.iterdir()] == [entry.name]


def test_cache_key_holds_the_package_version(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    args = ("oracle", "line", "--genus", "1", "--mu", "3", "--nu", "3",
            "--cache-dir", str(cache))
    assert run(capsys, *args)[0] == 0
    monkeypatch.setattr(cli, "__version__", cli.__version__ + ".post1")
    assert run(capsys, *args)[0] == 0
    assert len(list(cache.iterdir())) == 2


def test_package_version_matches_the_project_file():
    root = Path(__file__).resolve().parent.parent
    text = (root / "pyproject.toml").read_text(encoding="utf-8")
    assert f'\nversion = "{cli.__version__}"\n' in text
    assert cli.__version__ == "0.2.0"


def test_unusable_cache_dir_exits_2(tmp_path, capsys):
    plain = tmp_path / "plain"
    plain.write_text("", encoding="utf-8")
    argv = ("moduli", "--genus", "0", "--marks", "4", "--cache-dir")
    for where in (plain / "sub", plain):
        code, out, err = run(capsys, *argv, str(where))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot create cache directory: ")
    # an entry path taken by a directory cannot be written
    cache = tmp_path / "cache"
    expected = run(capsys, "moduli", "--genus", "0", "--marks", "4")
    assert run(capsys, *argv, str(cache)) == expected
    (entry,) = cache.iterdir()
    entry.unlink()
    entry.mkdir()
    code, out, err = run(capsys, *argv, str(cache))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write to cache directory: ")
    assert [p.name for p in cache.iterdir()] == [entry.name]


@pytest.mark.parametrize("argv, flag, check", [
    (("moduli", "--genus", "1", "--marks", "3"), ("--poset",),
     lambda out, tmp_path: "covers:" in out.splitlines()),
    (("graph-complex", "--genus", "3", "--edges", "6"),
     ("--dump-matrix", "matrix.txt"),
     lambda out, tmp_path: (tmp_path / "matrix.txt").is_file()),
    (("double-hurwitz", "--genus", "1", "--mu", "3", "--nu", "3"),
     ("--list-covers",),
     lambda out, tmp_path: out.startswith("mult=2 weight=2")),
], ids=["poset", "dump-matrix", "list-covers"])
def test_cache_key_holds_payload_flags(tmp_path, capsys, monkeypatch,
                                       argv, flag, check):
    # a flag that adds to the payload must not replay a run without it
    monkeypatch.chdir(tmp_path)
    cache = ("--cache-dir", str(tmp_path / "cache"))
    assert run(capsys, *argv, *cache)[0] == 0
    code, out, err = run(capsys, *argv, *flag, *cache)
    assert (code, err) == (0, "")
    assert check(out, tmp_path)
    assert len(list((tmp_path / "cache").iterdir())) == 2


def test_loop_contraction_error_exits_2(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise LoopContractionError("cannot contract a loop edge this way")

    monkeypatch.setattr(cli, "enumerate_types", refuse)
    code, out, err = run(capsys, "moduli", "--genus", "1", "--marks", "2")
    assert code == 2
    assert out == ""
    assert err == "error: cannot contract a loop edge this way\n"


def test_repeated_runs_byte_identical(capsys):
    outputs = set()
    for _ in range(2):
        outputs.add(run(capsys, "moduli", "--genus", "1", "--marks", "2",
                        "--json")[1])
        outputs.add(run(capsys, "graph-complex", "--genus", "3",
                        "--csv")[1])
    assert len(outputs) == 2


def test_argument_errors_exit_2(capsys):
    assert run(capsys, "double-hurwitz", "--genus", "1",
               "--mu", "3", "--nu", "2,2")[0] == 2
    assert run(capsys, "double-hurwitz", "--genus", "1",
               "--mu", "x", "--nu", "3")[0] == 2
    for extra in ((), ("--list-covers",)):  # the guards run first
        assert run(capsys, "double-hurwitz", "--genus", "-1",
                   "--mu", "1", "--nu", "1", *extra)[0] == 2
    assert run(capsys, "moduli", "--genus", "0", "--marks", "2")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def _run_process(argv):
    """(process, seconds) of one CLI run in a subprocess with a timeout and
    1 GiB of address space, so that a missing guard fails the case instead
    of hanging the suite or taking the machine's memory."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "tropica.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=30,
                          preexec_fn=lambda: resource.setrlimit(
                              resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    return proc, time.perf_counter() - start


FORTY_ONES = ",".join(["1"] * 40)
BIG = str(10 ** 21)


@pytest.mark.parametrize("argv, expected", [
    (("feynman", "--graph", "{tmp}/nope.txt", "--order", "1,2",
      "--dmax", "2"), 2),
    (("feynman", "--graph", "{tmp}/huge.txt", "--order", "1,2",
      "--dmax", "2"), 2),
    (("feynman", "--graph", "{tmp}/million-digits.txt", "--order", "1,2",
      "--dmax", "2"), 2),
    (("graph-complex", "--genus", "3", "--edges", "6",
      "--dump-matrix", "{tmp}/missing/x.txt"), 2),
    (("moduli", "--genus", "0", "--marks", "4",
      "--cache-dir", "{tmp}/plain/sub"), 2),
    (("double-hurwitz", "--genus", "0", "--mu", "20", "--nu", "19,1"), 3),
    (("double-hurwitz", "--genus", "2", "--mu", "6,5,4", "--nu", "5,5,5",
      "--list-covers"), 3),
    (("double-hurwitz", "--genus", "0", "--mu", ",".join(["1"] * 15),
      "--nu", ",".join(["1"] * 15)), 3),
    (("double-hurwitz", "--genus", "0", "--mu", "40", "--nu", FORTY_ONES,
      "--list-covers"), 3),
    (("double-hurwitz", "--genus", "1", "--mu", "5000", "--nu", "5000",
      "--list-covers"), 3),
    (("double-hurwitz", "--genus", BIG, "--mu", "3", "--nu", "3",
      "--list-covers"), 3),
    (("double-hurwitz", "--genus", BIG, "--mu", "2", "--nu", "2",
      "--list-covers"), 3),
    (("double-hurwitz", "--genus", "-" + BIG, "--mu", "3", "--nu", "3"), 2),
    (("chambers", "--lmu", "3", "--lnu", "3"), 3),
    (("elliptic", "--degree", "5", "--genus", "4"), 3),
    (("feynman", "--graph", "{tmp}/shape.txt", "--order", "1,2,3,4",
      "--dmax", "11"), 3),
    (("mirror-check", "--genus", "2", "--dmax", "7"), 2),
    (("graph-complex", "--genus", "7"), 3),
    (("graph-complex", "--genus", "7", "--edges", "14"), 3),
    (("moduli", "--genus", "0", "--marks", "9"), 3),
    (("oracle", "line", "--genus", "0", "--mu", "20", "--nu", "20"), 3),
    (("oracle", "elliptic", "--degree", "35", "--genus", "2"), 3),
], ids=["missing-graph", "huge-vertex-count", "million-digit-header",
        "dump-matrix-dir", "cache-dir-under-file", "double-hurwitz",
        "list-covers",
        "double-hurwitz-dp", "list-covers-table", "list-covers-one-part",
        "list-covers-genus", "list-covers-degree-two",
        "double-hurwitz-negative-genus", "chambers", "elliptic", "feynman",
        "mirror-check", "graph-complex", "graph-complex-edges", "moduli",
        "oracle-line", "oracle-elliptic"])
def test_bad_input_is_refused_without_traceback(tmp_path, argv, expected):
    (tmp_path / "plain").write_text("", encoding="utf-8")
    (tmp_path / "huge.txt").write_text("V 99999999999 E 0 L 0\n",
                                       encoding="utf-8")
    # CPython refuses to parse this count in int(); past its digit limit
    # the parse alone would take seconds
    (tmp_path / "million-digits.txt").write_text(
        f"V {'9' * 10 ** 6} E 3 L 0\ne 0 1\ne 0 1\ne 0 1\n",
        encoding="utf-8")
    shape = elliptic_covers.enumerate_feynman_graphs(3)[0]
    (tmp_path / "shape.txt").write_text(serialize(shape.graph),
                                        encoding="utf-8")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    proc, elapsed = _run_process(argv)
    assert (proc.returncode, proc.stdout) == (expected, "")
    if FORTY_ONES in argv or "5000" in argv:  # priced before it is built
        assert elapsed < 5
    if argv[2].endswith("million-digits.txt"):
        assert elapsed < 2
        assert len(proc.stderr) < 200  # the header is quoted in part
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    if expected == 3:
        assert proc.stderr.startswith("error: size guard: ")
        assert proc.stderr.endswith("; pass --force to run anyway\n")


HURWITZ_5000 = ("--genus", "5000", "--mu", "3", "--nu", "3")
LISTED_20000 = ("double-hurwitz", "--genus", "20000", "--mu", "2",
                "--nu", "2", "--list-covers")


@pytest.mark.parametrize("argv", [
    ("oracle", "line", *HURWITZ_5000),
    ("double-hurwitz", *HURWITZ_5000),
    LISTED_20000,
    (*LISTED_20000, "--csv"),
    (*LISTED_20000, "--json"),
], ids=["oracle-line", "double-hurwitz", "list-covers", "list-covers-csv",
        "list-covers-json"])
def test_counts_past_the_digit_limit_print_in_full(argv):
    # CPython refuses to write an int of more than 4,300 digits as text;
    # the count at genus 5000 has 4,771 digits and the weight product
    # 2^19999 has 6,021: each prints exactly
    proc, _ = _run_process(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    if "20000" not in argv:
        value = frac_str(sym_oracle.hurwitz_line(5000, (3,), (3,)))
        assert len(value) == 4771
        assert proc.stdout == value + "\n"
        return
    with exact_digits():
        weight = str(2 ** 19999)
        report = json.loads(proc.stdout) if "--json" in argv else None
    assert len(weight) == 6021
    if report:
        (cover,) = report["result"]["covers"]
        assert cover["weightProduct"] == 2 ** 19999
        assert report["result"]["total"] == "1/2"
    elif "--csv" in argv:
        # no cell holds a comma or a quote; the cover's cell is longer
        # than the csv module reads by default
        header, row, total = proc.stdout.splitlines()
        assert row.split(",")[1] == weight and total == "total,,,,1/2"
    else:
        cover, total = proc.stdout.splitlines()
        assert f" weight={weight} " in cover and total == "1/2"


def test_cache_entry_past_the_digit_limit_is_reused(tmp_path, capsys):
    # the entry holds 2^19999, past the digit limit of int from text: the
    # second run reads it back rather than computing and writing it again
    cache = tmp_path / "cache"
    args = (*LISTED_20000, "--json", "--cache-dir", str(cache))
    code, first, _ = run(capsys, *args)
    assert code == 0
    (entry,) = cache.iterdir()
    written = entry.stat()
    code, second, err = run(capsys, *args)
    assert (code, err) == (0, "")
    assert second == first
    read = entry.stat()
    assert (read.st_ino, read.st_mtime_ns) == (written.st_ino,
                                               written.st_mtime_ns)


def test_degree_one_at_any_genus_has_no_cover(capsys):
    # every move table is empty, so the walks stop at the first level
    start = time.perf_counter()
    assert run(capsys, "double-hurwitz", "--genus", BIG, "--mu", "1",
               "--nu", "1", "--list-covers") == (0, "0\n", "")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("genus", ["600", "5000"])
def test_list_covers_walks_any_number_of_levels(capsys, genus):
    # degree 2 has one weight path at any genus; the walk keeps its levels
    # on a list, so a sweep of 10^4 levels is not cut by the recursion limit
    argv = ("double-hurwitz", "--genus", genus, "--mu", "2", "--nu", "2")
    assert run(capsys, *argv) == (0, "1/2\n", "")
    code, out, err = run(capsys, *argv, "--list-covers")
    assert (code, err) == (0, "")
    cover, total = out.splitlines()
    assert cover.startswith("mult=1/2 ") and total == "1/2"


def test_size_guard_and_force(capsys):
    code, _, err = run(capsys, "elliptic", "--degree", "5", "--genus", "4")
    assert code == 3
    assert "size guard: degree 5, genus 4 is about 1441440 steps" in err
    # (6, 2), past the former fixed limit of degree 5, is admitted
    assert run(capsys, "elliptic", "--degree", "6", "--genus", "2") == (
        0, "360\n", "")
    assert run(capsys, "oracle", "elliptic", "--degree", "35",
               "--genus", "2")[0] == 3


def test_closed_stdout_pipe_exits_without_traceback():
    # like `tropica moduli ... --json | head -c 10`: the output is larger
    # than a pipe buffer, so the write fails once the reader is gone
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tropica.cli", "moduli", "--genus", "1",
         "--marks", "5", "--json"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert b"Traceback" not in err
    assert err == b""


def test_import_loads_no_heavy_modules():
    # dataclasses pulls in inspect, ast and dis; hashlib loads OpenSSL.
    # Every launch would pay for them, and only --cache-dir needs hashlib.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = ("import sys; before = set(sys.modules); import tropica.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "tropica.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "hashlib", "csv"}


@pytest.mark.skipif(shutil.which("tropica") is None,
                    reason="the tropica console script is not installed "
                           "on PATH")
def test_console_script_entry_point():
    result = subprocess.run(
        ["tropica", "double-hurwitz", "--genus", "1", "--mu", "3",
         "--nu", "3"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "2\n"


def test_console_script_target_runs(capsys, monkeypatch):
    # the installed script calls the [project.scripts] target with no
    # arguments, so a broken entry-point string fails here without an install
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["tropica"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(sys, "argv", ["tropica", "double-hurwitz", "--genus",
                                      "1", "--mu", "3", "--nu", "3"])
    assert entry() == 0
    assert capsys.readouterr().out == "2\n"

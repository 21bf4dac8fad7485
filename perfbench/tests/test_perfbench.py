"""Tests of the benchmark itself: generator, verifier and tracer.

Run from the repository root with `python -m pytest perfbench/tests`.
"""

import json
import sys

import pytest

import run
import tracer
import workloads
from tropica import feynman_series, graph_complex, graphs, moduli_space


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_in_the_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    draws = {json.dumps([[c.argv for c in cases], files])
             for cases, files in (workloads.generate(workload, seed)
                                  for seed in range(1, 9))}
    assert len(draws) > 1


def test_line_draw_keeps_one_pair_per_stratum_and_its_oracle():
    for seed in range(1, 9):
        cases, _ = workloads.generate("line", seed)
        pairs = [c for c in cases if c.check == "double_hurwitz"]
        assert len(pairs) == len(workloads.DOUBLE_HURWITZ_STRATA)
        for stratum, case in zip(workloads.DOUBLE_HURWITZ_STRATA,
                                 sorted(pairs, key=_stratum)):
            assert case.ref[0] in stratum
        by_id = {c.id: c for c in cases}
        for case in pairs:
            oracle = by_id[case.ref[1]]
            assert oracle.check == "oracle_line" and oracle.ref == case.ref[0]
        listed = sum("--list-covers" in c.argv for c in pairs)
        assert listed == len(pairs) // 2


def _stratum(case):
    for index, stratum in enumerate(workloads.DOUBLE_HURWITZ_STRATA):
        if case.ref[0] in stratum:
            return index
    raise AssertionError(case)


def _line_pair(seed=3):
    cases, _ = workloads.generate("line", seed)
    dh = next(c for c in cases if c.check == "double_hurwitz"
              and "--list-covers" not in c.argv)
    oracle = next(c for c in cases if c.id == dh.ref[1])
    return dh, oracle


def _line_results(dh, oracle, total, value):
    genus, mu, nu = dh.ref[0]
    parts = [sorted(map(int, p.split(",")), reverse=True) for p in (mu, nu)]
    return {
        dh.id: {"total": str(total), "covers": []},
        oracle.id: {"genus": genus, "mu": parts[0], "nu": parts[1],
                    "value": str(value)},
    }


def test_verifier_fails_a_total_off_by_one_and_counts_it():
    dh, oracle = _line_pair()
    verifier = workloads.Verifier(workloads.load_reference())
    good = _line_results(dh, oracle, 26880, 26880)
    bad = _line_results(dh, oracle, 26881, 26880)
    assert verifier.failure(dh, good) is None
    assert verifier.failure(oracle, good) is None
    assert "oracle gives 26880" in verifier.failure(dh, bad)

    runs = [run.CaseRun(c.id, 0.1, 0.1, 1024, 0, False, 10)
            for c in (dh, oracle)]
    outputs = {c.id: json.dumps({"result": bad[c.id]}).encode()
               for c in (dh, oracle)}
    failed = run.verify_pass([dh, oracle], runs, outputs, verifier)
    assert failed == 1 and failed / len(runs) == 0.5
    assert runs[0].failure and runs[1].failure is None


def test_verifier_fails_a_tampered_fixed_total():
    verifier = workloads.Verifier(workloads.load_reference())
    cases, _ = workloads.generate("elliptic", 1)
    oracle = next(c for c in cases if c.check == "oracle_elliptic")
    assert verifier.failure(oracle, {oracle.id: {"value": "18304"}}) is None
    assert verifier.failure(oracle, {oracle.id: {"value": "18305"}})
    assert verifier.failure(oracle, {}) == "no JSON result"


ALIASES = (
    (graphs, "canonical_form"), (graph_complex, "canonical_form"),
    (moduli_space, "canonical_form"),
    (sys.modules["tropica"], "canonical_form"),
)


def test_tracer_rebinds_and_restores_every_alias():
    import tropica.cli
    original = graphs.canonical_form
    original_mul = feynman_series.TruncatedSeries.__mul__
    original_dp = tropica.cli.double_hurwitz_tropical
    probe = tracer.Tracer("probe")
    probe.install()
    try:
        wrapped = graphs.canonical_form
        assert wrapped is not original and wrapped.__wrapped__ is original
        for module, name in ALIASES:
            assert getattr(module, name) is wrapped
        assert feynman_series.TruncatedSeries.__mul__ is not original_mul
        assert tropica.chambers.double_hurwitz_tropical is \
            tropica.cli.double_hurwitz_tropical is not original_dp
    finally:
        probe.uninstall()
    for module, name in ALIASES:
        assert getattr(module, name) is original
    assert feynman_series.TruncatedSeries.__mul__ is original_mul
    assert tropica.cli.double_hurwitz_tropical is original_dp
    assert tropica.chambers.double_hurwitz_tropical is original_dp


def test_self_time_excludes_children():
    spans = [
        ["parent", 0, 10_000, -1, "c", None],
        ["child", 1_000, 3_000, 0, "c", None],
        ["grandchild", 1_500, 2_000, 1, "c", None],
        ["child", 5_000, 6_000, 0, "c", None],
    ]
    assert tracer.self_times(spans) == [7e-6, 1.5e-6, 5e-7, 1e-6]


def test_self_time_on_a_tiny_traced_case():
    import tropica.cli  # noqa: F401  (install wraps the loaded modules)
    probe = tracer.Tracer("tiny")
    probe.install()
    try:
        found = graphs.enumerate_graphs(2, (3, 3))
    finally:
        probe.uninstall()
    assert len(found) == 1
    spans = probe.spans
    own = tracer.self_times(spans)
    root = next(i for i, s in enumerate(spans)
                if s[0] == "graphs.enumerate_graphs")
    children = [i for i, s in enumerate(spans) if s[3] == root]
    assert children
    duration = (spans[root][2] - spans[root][1]) / 1e9
    covered = sum((spans[i][2] - spans[i][1]) / 1e9 for i in children)
    assert own[root] == pytest.approx(duration - covered)
    assert 0 < own[root] < duration
    metrics = tracer.layer_metrics([spans], 0, 0.1, 1.0)
    assert metrics["graphs.enumerate_graphs.classes"][0] == 1
    assert metrics["graphs.enumerate_graphs.canon_per_class"][0] == \
        metrics["graphs.canonical_form.calls"][0]


def test_import_seconds_reads_the_top_level_line():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      3651 |      79182 |   tropica\n"
            "import time:     10258 |     100670 | tropica.cli\n")
    assert tracer.import_seconds(text) == pytest.approx(0.10067)

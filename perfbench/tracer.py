"""Layer spans recorded from outside tropica, and the metrics built on them.

Run as a script, this is the entry point of a traced case process:

    python perfbench/tracer.py SPANS_FILE CASE_ID -- <tropica arguments>

It imports tropica.cli, wraps the layer functions listed in LAYERS,
calls tropica.cli.main with the arguments, and writes the spans to
SPANS_FILE when main returns or raises.  Each span is
[name, start_ns, end_ns, parent_index, case_id, counts]; parent_index is
-1 for a root span.

A function is wrapped in every tropica module that holds it under any
name, because the modules import by name (cli.double_hurwitz_tropical,
chambers.double_hurwitz_tropical, ...).  Only functions that return
their work are wrapped: a generator's span would close before it runs.
"""

import json
import sys
import time

# (span name, module, attribute, counts from (args, result) or None)
LAYERS = (
    ("cli.main", "tropica.cli", "main", None),
    ("graphs.canonical_form", "tropica.graphs", "canonical_form", None),
    ("graphs.canonical_key", "tropica.graphs", "canonical_key", None),
    ("graphs.automorphisms", "tropica.graphs", "automorphisms", None),
    ("graphs.automorphism_group_order", "tropica.graphs",
     "automorphism_group_order", None),
    ("graphs.enumerate_graphs", "tropica.graphs", "enumerate_graphs",
     lambda args, result: len(result)),
    ("line_covers.dp", "tropica.line_covers", "double_hurwitz_tropical",
     lambda args, result: repr(args)),
    ("line_covers.enumerate", "tropica.line_covers", "enumerate_line_covers",
     lambda args, result: len(result)),
    ("line_covers.multiplicity", "tropica.line_covers", "multiplicity", None),
    ("chambers.polynomial", "tropica.chambers", "chamber_polynomial", None),
    ("elliptic_covers.enumerate", "tropica.elliptic_covers",
     "enumerate_elliptic_covers", lambda args, result: len(result)),
    ("elliptic_covers.count_labeled", "tropica.elliptic_covers",
     "count_labeled_covers", lambda args, result: int(result != 0)),
    ("feynman_series.mul", "tropica.feynman_series", "TruncatedSeries.__mul__",
     lambda args, result: [len(args[0].terms) * len(args[1].terms),
                           len(result.terms)]),
    ("feynman_series.refined_integral", "tropica.feynman_series",
     "refined_integral", None),
    ("graph_complex.basis", "tropica.graph_complex", "basis",
     lambda args, result: [repr(args), len(result)]),
    ("graph_complex.normalize", "tropica.graph_complex", "normalize", None),
    ("graph_complex.differential_matrix", "tropica.graph_complex",
     "differential_matrix", lambda args, result: len(result[2])),
    ("graph_complex.homology_dimension", "tropica.graph_complex",
     "homology_dimension", None),
    ("moduli_space.enumerate_types", "tropica.moduli_space",
     "enumerate_types", lambda args, result: len(result)),
    ("moduli_space.build_poset", "tropica.moduli_space", "build_poset", None),
    ("moduli_space.is_folded", "tropica.moduli_space", "is_folded", None),
    ("sym_oracle.hurwitz_line", "tropica.sym_oracle", "hurwitz_line", None),
    ("sym_oracle.hurwitz_elliptic", "tropica.sym_oracle", "hurwitz_elliptic",
     None),
)


class Tracer:
    """Wraps the LAYERS functions and records one span per call.

    install() rebinds every alias; uninstall() puts the originals back.
    """

    def __init__(self, case_id):
        self.case_id = case_id
        self.spans = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn, counts):
        spans, stack, case_id = self.spans, self._stack, self.case_id
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = None if counts is None or result is None \
                    else counts(args, result)
                spans[index] = [name, start, end, parent, case_id, extra]

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [module for key, module in sorted(sys.modules.items())
                   if key == "tropica" or key.startswith("tropica.")]
        for name, module_name, attribute, counts in LAYERS:
            owner = sys.modules[module_name]
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original, counts)
            if path:  # a method: patch it on its class
                self._patched.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, alias, original))
                        setattr(module, alias, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


# -- aggregation -------------------------------------------------------------

def self_times(spans):
    """Self time in seconds per span index: duration minus direct children.

    Spans nest on one thread, so direct children never overlap and the
    part of a span they cover is the sum of their durations.
    """
    covered = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start - covered[i]) / 1e9
            for i, (_, start, end, _, _, _) in enumerate(spans)]


CANONICAL_SPANS = ("graphs.canonical_form", "graphs.canonical_key",
                   "graphs.automorphisms", "graphs.automorphism_group_order")


def layer_metrics(span_lists, output_bytes, import_s, overhead_ratio):
    """Per-layer metrics of one traced pass.

    span_lists holds one span list per case process; output_bytes is the
    stdout size of the pass; import_s is the median cumulative import
    time of tropica.cli.
    """
    calls, self_s, extras = {}, {}, {}
    canon_under_enumeration = 0
    distinct_dp = 0
    basis_size = 0
    for spans in span_lists:
        own = self_times(spans)
        dp_keys, basis_keys = set(), {}
        for i, (name, _, _, parent, _, extra) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[i]
            extras.setdefault(name, []).append(extra)
            if name == "line_covers.dp":
                dp_keys.add(extra)
            elif name == "graph_complex.basis" and extra is not None:
                basis_keys[extra[0]] = extra[1]
            elif name == "graphs.canonical_form" and _has_ancestor(
                    spans, parent, "graphs.enumerate_graphs"):
                canon_under_enumeration += 1
        distinct_dp += len(dp_keys)
        basis_size += sum(basis_keys.values())

    def count(name):
        return calls.get(name, 0)

    def own(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    def total(name, index=None):
        return sum(e if index is None else e[index]
                   for e in extras.get(name, ()) if e is not None)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    classes = total("graphs.enumerate_graphs")
    term_pairs = total("feynman_series.mul", 0)
    oracle_calls = count("sym_oracle.hurwitz_line") + count(
        "sym_oracle.hurwitz_elliptic")
    return {
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (own("cli.main"), "s"),
        "cli.output_bytes": (output_bytes, "B"),
        "graphs.canonical_form.calls": (count("graphs.canonical_form"),
                                        "count"),
        "graphs.automorphisms.calls": (count("graphs.automorphisms"),
                                       "count"),
        "graphs.canonical.self_s": (own(*CANONICAL_SPANS), "s"),
        "graphs.enumerate_graphs.self_s": (own("graphs.enumerate_graphs"),
                                           "s"),
        "graphs.enumerate_graphs.classes": (classes, "count"),
        "graphs.enumerate_graphs.canon_per_class": (
            ratio(canon_under_enumeration, classes), "1"),
        "line_covers.dp.calls": (count("line_covers.dp"), "count"),
        "line_covers.dp.self_s": (own("line_covers.dp"), "s"),
        "line_covers.dp.distinct_ratio": (
            ratio(distinct_dp, count("line_covers.dp")), "1"),
        "line_covers.enumerate.self_s": (own("line_covers.enumerate"), "s"),
        "line_covers.enumerate.covers": (total("line_covers.enumerate"),
                                         "count"),
        "line_covers.multiplicity.self_s": (own("line_covers.multiplicity"),
                                            "s"),
        "chambers.polynomial.calls": (count("chambers.polynomial"), "count"),
        "chambers.polynomial.self_s": (own("chambers.polynomial"), "s"),
        "elliptic_covers.enumerate.self_s": (
            own("elliptic_covers.enumerate"), "s"),
        "elliptic_covers.enumerate.covers": (
            total("elliptic_covers.enumerate"), "count"),
        "elliptic_covers.count_labeled.calls": (
            count("elliptic_covers.count_labeled"), "count"),
        "elliptic_covers.count_labeled.self_s": (
            own("elliptic_covers.count_labeled"), "s"),
        "elliptic_covers.count_labeled.nonzero_ratio": (
            ratio(total("elliptic_covers.count_labeled"),
                  count("elliptic_covers.count_labeled")), "1"),
        "feynman_series.mul.calls": (count("feynman_series.mul"), "count"),
        "feynman_series.mul.self_s": (own("feynman_series.mul"), "s"),
        "feynman_series.mul.term_pairs": (term_pairs, "count"),
        "feynman_series.mul.kept_ratio": (
            ratio(total("feynman_series.mul", 1), term_pairs), "1"),
        "feynman_series.refined_integral.self_s": (
            own("feynman_series.refined_integral"), "s"),
        "graph_complex.basis.size": (basis_size, "count"),
        "graph_complex.normalize.self_s": (own("graph_complex.normalize"),
                                           "s"),
        "graph_complex.matrix_nnz": (
            total("graph_complex.differential_matrix"), "count"),
        "graph_complex.rank.self_s": (
            own("graph_complex.homology_dimension"), "s"),
        "moduli_space.enumerate_types.self_s": (
            own("moduli_space.enumerate_types"), "s"),
        "moduli_space.build_poset.self_s": (own("moduli_space.build_poset"),
                                            "s"),
        "moduli_space.is_folded.self_s": (own("moduli_space.is_folded"),
                                          "s"),
        "moduli_space.types": (total("moduli_space.enumerate_types"),
                               "count"),
        "sym_oracle.calls": (oracle_calls, "count"),
        "sym_oracle.self_s": (own("sym_oracle.hurwitz_line",
                                  "sym_oracle.hurwitz_elliptic"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "1"),
    }


def _has_ancestor(spans, index, name):
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def import_seconds(importtime_stderr):
    """Cumulative seconds of the top-level `tropica.cli` line that
    `python -X importtime -c "import tropica.cli"` writes to stderr."""
    for line in importtime_stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].rstrip() == " tropica.cli":
            return int(fields[1]) / 1e6
    raise ValueError("no top-level tropica.cli line in -X importtime output")


def main(argv):
    spans_path, case_id, separator, *cli_argv = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE CASE_ID -- ARGS...")
    import tropica.cli
    tracer = Tracer(case_id)
    tracer.install()
    try:
        return tropica.cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Seeded case lists for the four benchmark workloads, and their verifier.

A case is one `tropica` CLI invocation.  generate(workload, seed) is a
pure function of its arguments: it returns the cases in run order and the
text of every file they read.  The program sees only those arguments and
files.

Seeds choose inputs but are kept from choosing how much work a pass does,
so that the spread between runs with different seeds reflects the program
and not the draw:

- line: one double-Hurwitz pair per cost stratum of the 26 degree-6
  pairs with s = 7 and g <= 2.  The cheapest stratum holds two pairs of
  equal cost and sets the pass median; the heaviest holds the family's
  largest sweep alone and sets the pass peak RSS.
- elliptic: each Feynman case relabels one fixed (shape, order, dmax)
  problem by a seeded vertex permutation, so the graph file and the
  order differ between seeds while the elimination does the same work.
- graphs, moduli: the seed only permutes the case order.

Verifier.failure() checks a case's JSON result against invariants only (totals,
counts, polynomial terms, a second route), never against serialised
graphs, whose canonical representatives may change.
"""

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("line", "elliptic", "graphs", "moduli")

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

ONES = "1,1,1,1,1,1"

# (genus, mu, nu), cheapest stratum first; ranked by wall time per case at
# the commit that introduced the benchmark.
DOUBLE_HURWITZ_STRATA = (
    ((0, "2,2,2", ONES), (1, "6", ONES)),
    ((1, "3,3", "2,1,1,1,1"), (1, "2,2,2", "2,2,1,1"), (2, "6", "2,2,1,1"),
     (2, "6", "3,1,1,1"), (2, "3,3", "2,2,2"), (2, "4,2", "2,2,2")),
    ((0, "4,1,1", ONES), (1, "4,2", "2,1,1,1,1"), (2, "3,3", "3,2,1"),
     (0, "3,1,1,1", "2,1,1,1,1"), (2, "4,1,1", "3,3"),
     (1, "5,1", "2,1,1,1,1")),
    ((2, "5,1", "4,1,1"), (2, "5,1", "2,2,2"), (1, "4,1,1", "3,1,1,1"),
     (2, "4,2", "4,1,1"), (0, "2,2,1,1", "2,1,1,1,1"),
     (1, "3,1,1,1", "2,2,2")),
    ((1, "4,1,1", "2,2,1,1"), (0, "3,2,1", ONES), (2, "4,2", "3,2,1"),
     (2, "5,1", "3,2,1"), (1, "3,2,1", "3,1,1,1")),
    ((1, "3,2,1", "2,2,1,1"),),
)

# The two loop-free trivalent shapes of genus 3 as edge lists.
FEYNMAN_SHAPES = (
    ((0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
)
FEYNMAN_PROBLEMS = ((0, 5), (0, 6), (1, 5), (1, 6))  # (shape, dmax)

GRAPHS_CASES = (
    ("graph-complex", "--genus", "3"),
    ("graph-complex", "--genus", "4"),
    ("moduli", "--genus", "3", "--marks", "0", "--poset"),
    ("moduli", "--genus", "2", "--marks", "1", "--poset"),
    ("moduli", "--genus", "2", "--marks", "2", "--poset"),
)
MODULI_CASES = (
    ("moduli", "--genus", "0", "--marks", "7", "--poset"),
    ("moduli", "--genus", "1", "--marks", "5", "--poset"),
    ("moduli", "--genus", "2", "--marks", "3", "--poset"),
)


@dataclass(frozen=True)
class Case:
    """One CLI invocation: argv after `tropica`, and how to check it.

    check names the verifier rule; ref holds what that rule needs: a
    reference key, the (genus, mu, nu) of a double-Hurwitz pair with the
    id of its oracle case, or the relabelled Feynman problem.
    """

    id: str
    argv: tuple
    check: str
    ref: object


def _dh_argv(pair, list_covers):
    genus, mu, nu = pair
    argv = ("double-hurwitz", "--genus", str(genus), "--mu", mu, "--nu", nu)
    return argv + (("--list-covers",) if list_covers else ())


def _line_units(rng):
    pairs = [rng.choice(stratum) for stratum in DOUBLE_HURWITZ_STRATA]
    listed = set(rng.sample(range(len(pairs)), len(pairs) // 2))
    units = [_fixed("chambers", ("chambers", "--lmu", "3", "--lnu", "2"))]
    for i, pair in enumerate(pairs):
        genus, mu, nu = pair
        units.append([
            ("double_hurwitz", _dh_argv(pair, i in listed), pair),
            ("oracle_line", ("oracle", "line", "--genus", str(genus),
                             "--mu", mu, "--nu", nu), pair),
        ])
    return units


def _feynman_unit(rng, shape, dmax):
    perm = rng.sample(range(4), 4)
    edges = tuple((perm[u], perm[v]) for u, v in FEYNMAN_SHAPES[shape])
    order = tuple(perm)  # the identity order on the base shape, relabelled
    return [("feynman", None, (edges, order, dmax))]


def _elliptic_units(rng):
    units = [
        _fixed("elliptic", ("elliptic", "--degree", "5", "--genus", "3")),
        _fixed("mirror", ("mirror-check", "--genus", "3", "--dmax", "4")),
        _fixed("oracle_elliptic",
               ("oracle", "elliptic", "--degree", "5", "--genus", "3")),
    ]
    units += [_feynman_unit(rng, shape, dmax)
              for shape, dmax in FEYNMAN_PROBLEMS]
    return units


def _fixed(check, argv):
    """A case checked against the reference entry named by its argv."""
    return [(check, argv, " ".join(argv))]


def generate(workload, seed):
    """Return (cases, files) for one pass of a workload.

    files maps a file name, relative to the directory the cases run in,
    to its text.  Equal arguments give equal results.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "line":
        units = _line_units(rng)
    elif workload == "elliptic":
        units = _elliptic_units(rng)
    elif workload == "graphs":
        units = [_fixed("graph_complex" if argv[0] == "graph-complex"
                        else "moduli", argv) for argv in GRAPHS_CASES]
    else:
        units = [_fixed("moduli", argv) for argv in MODULI_CASES]
    rng.shuffle(units)

    cases, files = [], {}
    flat = [item for unit in units for item in unit]
    for index, (check, argv, ref) in enumerate(flat):
        case_id = f"{workload}-{index:02d}"
        if check == "feynman":
            edges, order, dmax = ref
            name = f"{case_id}.graph"
            files[name] = f"V 4 E {len(edges)} L 0\n" + "".join(
                f"e {u} {v}\n" for u, v in edges)
            argv = ("feynman", "--graph", name,
                    "--order", ",".join(str(v + 1) for v in order),
                    "--dmax", str(dmax))
        elif check == "double_hurwitz":
            ref = (ref, f"{workload}-{index + 1:02d}")
        cases.append(Case(case_id, argv + ("--json",), check, ref))
    return cases, files


# -- verification -----------------------------------------------------------

def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class Verifier:
    """Checks case results; holds the reference and route-2 values.

    Feynman expectations come from count_labeled_covers, imported from
    the checkout and computed on first use, which is after timing.
    """

    def __init__(self, reference):
        self.reference = reference
        self._expected_terms = {}

    def failure(self, case, results):
        """Why the case's result is wrong, or None when it checks out.

        results maps case id to the parsed `result` object of every case
        of the same pass that printed valid JSON.
        """
        result = results.get(case.id)
        if result is None:
            return "no JSON result"
        try:
            return getattr(self, "_" + case.check)(case, result, results)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return f"malformed result: {exc!r}"

    def _chambers(self, case, result, results):
        expected = self.reference["cases"][case.ref]["chambers"]
        got = {"".join(row["signs"]): sorted(
            [t["exponents"], t["coefficient"]] for t in row["terms"])
            for row in result["chambers"]}
        if got != expected:
            return "chamber polynomials differ from the reference"
        return None

    def _double_hurwitz(self, case, result, results):
        (genus, mu, nu), oracle_id = case.ref
        oracle = results.get(oracle_id)
        if oracle is None:
            return "the oracle case gave no value to compare with"
        total = Fraction(result["total"])
        if total != Fraction(oracle["value"]):
            return f"total {result['total']} but the oracle gives " \
                   f"{oracle['value']}"
        if "--list-covers" in case.argv:
            covers = result["covers"]
            key = f"{genus} {mu} {nu}"
            if len(covers) != self.reference["double_hurwitz_covers"][key]:
                return f"{len(covers)} cover classes, reference " \
                       f"{self.reference['double_hurwitz_covers'][key]}"
            if sum(Fraction(c["multiplicity"]) for c in covers) != total:
                return "cover multiplicities do not sum to the total"
        return None

    def _oracle_line(self, case, result, results):
        genus, mu, nu = case.ref
        if (result["genus"], result["mu"], result["nu"]) != (
                genus, _parts(mu), _parts(nu)):
            return "oracle answered a different problem"
        Fraction(result["value"])
        return None

    def _elliptic(self, case, result, results):
        expected = Fraction(self.reference["cases"][case.ref]["total"])
        total = Fraction(result["total"])
        if total != expected:
            return f"total {result['total']}, reference {expected}"
        labeled = sum(Fraction(g["labeledTotal"], g["automorphisms"])
                      for g in result["graphs"])
        if labeled != total:
            return "per-graph contributions do not sum to the total"
        for graph in result["graphs"]:
            if sum(o["total"] for o in graph["orders"]) != \
                    graph["labeledTotal"]:
                return "per-order totals do not sum to the labeled total"
        return None

    def _oracle_elliptic(self, case, result, results):
        expected = Fraction(self.reference["cases"][case.ref]["total"])
        if Fraction(result["value"]) != expected:
            return f"value {result['value']}, reference {expected}"
        return None

    def _mirror(self, case, result, results):
        expected = self.reference["cases"][case.ref]["rows"]
        got = [[r["degree"], r["tropical"], r["series"]]
               for r in result["rows"]]
        if got != expected or not result["allMatch"]:
            return "mirror rows differ from the reference"
        return None

    def _feynman(self, case, result, results):
        got = {tuple(t["qExponents"]): int(t["coefficient"])
               for t in result["terms"]}
        if got != self._feynman_expected(case.ref):
            return "series terms differ from count_labeled_covers"
        return None

    def _feynman_expected(self, problem):
        if problem not in self._expected_terms:
            from tropica.elliptic_covers import (FeynmanGraph,
                                                 count_labeled_covers)
            from tropica.graphs import Multigraph
            from tropica.util import compositions_of
            edges, order, dmax = problem
            shape = FeynmanGraph(Multigraph(len(order), edges))
            expected = {}
            for total in range(1, dmax + 1):
                for a in compositions_of(total, len(edges)):
                    count = count_labeled_covers(shape, order, a)
                    if count:
                        expected[tuple(2 * x for x in a)] = count
            self._expected_terms[problem] = expected
        return self._expected_terms[problem]

    def _graph_complex(self, case, result, results):
        expected = self.reference["cases"][case.ref]["rows"]
        got = [[r["edges"], r["basisSize"], r["homologyDimension"]]
               for r in result["rows"]]
        if got != expected:
            return "basis sizes or homology differ from the reference"
        return None

    def _moduli(self, case, result, results):
        expected = self.reference["cases"][case.ref]
        got = moduli_summary(result)
        if got != expected:
            return f"moduli summary {got} differs from the reference"
        return None


def moduli_summary(result):
    """Invariants of a `moduli --poset` result: counts, not graph keys."""
    dims = {}
    for t in result["types"]:
        dims[str(t["dimension"])] = dims.get(str(t["dimension"]), 0) + 1
    return {
        "count": result["count"],
        "maxDimension": result["maxDimension"],
        "byDimension": dims,
        "folded": sum(1 for t in result["types"] if t["folded"]),
        "covers": len(result["covers"]),
    }


def _parts(text):
    return sorted((int(p) for p in text.split(",")), reverse=True)

"""Command line interface for the tropica toolkit.

One subcommand per computation family, plus shared flags: --json or
--csv select the output format (default is terse text), --cache-dir
enables an on-disk result cache, --force overrides size guards where
the library supports it.

Exit codes: 0 success, 1 stdout closed before the output was written,
2 argument error, 3 size-guard refusal, 4 cross-check failure.
"""

import argparse
import contextlib
import csv
import hashlib
import itertools
import json
import operator
import os
import sys
import types
from fractions import Fraction

from . import __version__
from .chambers import (chamber_decomposition, chamber_polynomial,
                       check_work, walls)
from .elliptic_covers import FeynmanGraph, simple_hurwitz_routes
from .errors import (ArgumentError, CrossCheckError, LoopContractionError,
                     SizeGuardError)
from .feynman_series import mirror_check, refined_integral
from .graph_complex import basis, differential_matrix, homology_dimension
from .graphs import parse_graph, serialize
from .line_covers import (double_hurwitz_tropical, iter_line_covers,
                          multiplicity)
from .moduli_space import build_poset, enumerate_types, is_folded
from .sym_oracle import hurwitz_elliptic, hurwitz_line
from .util import frac_str

SCHEMA_VERSION = "tropica/1"


def _partition(text: str):
    try:
        parts = tuple(int(p) for p in str(text).split(",") if p.strip())
    except ValueError:
        raise ArgumentError(f"not a partition: {text!r}")
    if not parts or any(p < 1 for p in parts):
        raise ArgumentError("partitions need positive integer parts")
    return tuple(sorted(parts, reverse=True))


def _int_list(text: str):
    try:
        return tuple(int(p) for p in str(text).split(",") if p.strip())
    except ValueError:
        raise ArgumentError(f"not an integer list: {text!r}")


# -- computations (format independent payloads) ----------------------------

def _run_double_hurwitz(args):
    mu, nu = _partition(args.mu), _partition(args.nu)
    # the second route: the cover list when it is asked for, the S_d
    # oracle otherwise, run first so that its guard refuses before the DP
    oracle = None if args.list_covers else hurwitz_line(
        args.genus, mu, nu, force=args.force)
    total = double_hurwitz_tropical(args.genus, mu, nu)
    payload = {
        "genus": args.genus,
        "mu": list(mu),
        "nu": list(nu),
        "s": 2 * args.genus - 2 + len(mu) + len(nu),
        "total": frac_str(total),
    }
    if oracle is not None:
        if oracle != total:
            raise CrossCheckError(
                f"the level sweep gives {total} but the S_d monodromy "
                f"count gives {oracle}")
        return payload
    # the covers stream past one at a time: only their rows are kept
    rows, numerators, labels = [], {}, {}
    for cover in iter_line_covers(args.genus, mu, nu):
        m = multiplicity(cover)
        key = num, den = m.value.numerator, m.value.denominator
        numerators[den] = numerators.get(den, 0) + num
        if key not in labels:  # one string per distinct value
            labels[key] = frac_str(m.value)
        rows.append({
            "canonical": cover.canonical_text(),
            "weightProduct": m.weight_product,
            "forks": m.forks,
            "wieners": m.wieners,
            "multiplicity": labels[key],
        })
    rows.sort(key=operator.itemgetter("canonical"))
    total_from_covers = sum(
        (Fraction(n, d) for d, n in numerators.items()), Fraction(0))
    if total != total_from_covers:
        raise CrossCheckError(
            "cover enumeration and the level sweep disagree: "
            f"{total_from_covers} vs {total}")
    payload["covers"] = rows
    return payload


def _run_chambers(args):
    check_work(args.lmu, args.lnu, force=args.force)
    forms = walls(args.lmu, args.lnu)
    chambers = chamber_decomposition(args.lmu, args.lnu)
    rows = []
    for chamber in chambers:
        poly = chamber_polynomial(chamber)
        rows.append({
            "signs": list(chamber.signs),
            "witnessMu": list(chamber.witness_mu),
            "witnessNu": list(chamber.witness_nu),
            "polynomial": poly.text(),
            "degree": poly.total_degree(),
            "terms": [{"exponents": list(e), "coefficient": frac_str(c)}
                      for e, c in poly.ordered_terms()],
        })
    return {
        "lmu": args.lmu,
        "lnu": args.lnu,
        "walls": [w.text() for w in forms],
        "chambers": rows,
    }


def _run_elliptic(args):
    d, g = args.degree, args.genus
    total, table = simple_hurwitz_routes(d, g, force=args.force)
    graphs = []
    for shape, aut, orders in table:
        rows = [{
            "order": [v + 1 for v in order],
            "total": sum(count for _, count in counts),
            "multidegrees": [{"multidegree": list(a), "count": count}
                             for a, count in counts],
        } for order, counts in orders]
        labeled_total = sum(row["total"] for row in rows)
        graphs.append({
            "graph": serialize(shape.graph),
            "automorphisms": aut,
            "labeledTotal": labeled_total,
            "contribution": frac_str(Fraction(labeled_total, aut)),
            "orders": rows,
        })
    return {
        "degree": d,
        "genus": g,
        "graphs": graphs,
        "total": frac_str(total),
    }


def _run_feynman(args):
    try:
        with open(args.graph, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ArgumentError(f"cannot read graph file: {exc}")
    shape = FeynmanGraph(parse_graph(text))
    order = _int_list(args.order)
    if sorted(order) != list(range(1, shape.graph.num_vertices + 1)):
        raise ArgumentError(
            "--order must list every vertex once, 1-based")
    series = refined_integral(shape, tuple(v - 1 for v in order), args.dmax,
                              force=args.force)
    return {
        "graph": serialize(shape.graph),
        "order": list(order),
        "dmax": args.dmax,
        "terms": [{"qExponents": list(q), "coefficient": frac_str(c)}
                  for (_, q), c in series.ordered_terms()],
    }


def _run_mirror_check(args):
    rows = mirror_check(args.genus, args.dmax)
    return {
        "genus": args.genus,
        "dmax": args.dmax,
        "rows": [{
            "degree": r.degree,
            "qPower": r.q_power,
            "tropical": frac_str(r.tropical),
            "series": frac_str(r.series),
            "match": r.match,
        } for r in rows],
        "allMatch": all(r.match for r in rows),
    }


def _run_graph_complex(args):
    g = args.genus
    if g < 2:
        raise ArgumentError("genus must be at least 2")
    if args.dump_matrix and args.edges is None:
        raise ArgumentError("--dump-matrix needs --edges")
    edge_range = [args.edges] if args.edges is not None \
        else list(range(g + 1, 3 * g - 2))
    rows = []
    for n in edge_range:
        rows.append({
            "edges": n,
            "basisSize": len(basis(g, n)),
            "homologyDimension": homology_dimension(g, n),
            "isHZero": n == 2 * g,
        })
    payload = {"genus": g, "rows": rows}
    if args.dump_matrix:
        n = args.edges
        domain, codomain, entries = differential_matrix(g, n)
        payload["matrix"] = {
            "edges": n,
            "rows": len(codomain),
            "columns": len(domain),
            "entries": [[r, c, frac_str(v)]
                        for (r, c), v in sorted(entries.items())],
        }
    return payload


def _run_moduli(args):
    types = enumerate_types(args.genus, args.marks, force=args.force)
    top = max(t.dimension for t in types)
    expected = 3 * args.genus - 3 + args.marks
    if top != expected:
        raise CrossCheckError(
            f"max dimension {top} disagrees with 3g-3+n = {expected}")
    poset = build_poset(types) if args.poset else None
    folded = poset.folded if poset else [is_folded(t.graph) for t in types]
    payload = {
        "genus": args.genus,
        "marks": args.marks,
        "count": len(types),
        "maxDimension": top,
        "types": [{
            "graph": t.key,
            "dimension": t.dimension,
            "folded": flag,
        } for t, flag in zip(types, folded)],
    }
    if poset:
        payload["covers"] = list(poset.covers)  # pairs encode as arrays
    return payload


def _run_oracle(args):
    if args.problem == "line":
        mu, nu = _partition(args.mu), _partition(args.nu)
        value = hurwitz_line(args.genus, mu, nu, force=args.force)
        return {"problem": "line", "genus": args.genus,
                "mu": list(mu), "nu": list(nu), "value": frac_str(value)}
    value = hurwitz_elliptic(args.degree, args.genus, force=args.force)
    return {"problem": "elliptic", "degree": args.degree,
            "genus": args.genus, "value": frac_str(value)}


# -- text rendering ---------------------------------------------------------

def _text_double_hurwitz(args, payload):
    if args.list_covers:
        for row in payload["covers"]:
            yield (f"mult={row['multiplicity']} "
                   f"weight={row['weightProduct']} forks={row['forks']} "
                   f"wieners={row['wieners']} :: {row['canonical']}")
    yield payload["total"]


def _text_chambers(args, payload):
    lines = ["walls:"]
    lines += [f"  {w}" for w in payload["walls"]]
    lines.append("chambers:")
    for row in payload["chambers"]:
        signs = "".join(row["signs"])
        mu = ",".join(str(m) for m in row["witnessMu"])
        nu = ",".join(str(n) for n in row["witnessNu"])
        lines.append(f"  [{signs}] witness mu=({mu}) nu=({nu}): "
                     f"{row['polynomial']}")
    return lines


def _text_elliptic(args, payload):
    lines = []
    if args.per_graph:
        for i, row in enumerate(payload["graphs"]):
            lines.append(
                f"graph {i}: |Aut|={row['automorphisms']} "
                f"labeled={row['labeledTotal']} "
                f"contribution={row['contribution']}")
    lines.append(payload["total"])
    return lines


def _text_feynman(args, payload):
    lines = []
    for term in payload["terms"]:
        exps = ",".join(str(e) for e in term["qExponents"])
        lines.append(f"q^({exps}) = {term['coefficient']}")
    if not lines:
        lines.append("0")
    return lines


def _text_mirror_check(args, payload):
    lines = []
    for row in payload["rows"]:
        verdict = "ok" if row["match"] else "MISMATCH"
        lines.append(
            f"d={row['degree']} q^{row['qPower']} "
            f"tropical={row['tropical']} series={row['series']} {verdict}")
    if payload["allMatch"]:
        lines.append(f"all {len(payload['rows'])} degrees match")
    else:
        bad = sum(1 for r in payload["rows"] if not r["match"])
        lines.append(f"{bad} of {len(payload['rows'])} degrees mismatch")
    return lines


def _text_graph_complex(args, payload):
    lines = []
    for row in payload["rows"]:
        suffix = " (H0)" if row["isHZero"] else ""
        lines.append(f"n={row['edges']} basis={row['basisSize']} "
                     f"homology={row['homologyDimension']}{suffix}")
    if "matrix" in payload:
        m = payload["matrix"]
        lines.append(f"matrix {m['rows']}x{m['columns']} "
                     f"({len(m['entries'])} entries) -> {args.dump_matrix}")
    return lines


def _text_moduli(args, payload):
    lines = [f"{payload['count']} types "
             f"(max dimension {payload['maxDimension']})"]
    for i, row in enumerate(payload["types"]):
        folded = "yes" if row["folded"] else "no"
        lines.append(f"type {i}: dimension {row['dimension']}, "
                     f"folded {folded}")
        lines += [f"  {line}" for line in row["graph"].splitlines()]
    if "covers" in payload:
        lines.append("covers:")
        lines += [f"  {lower} < {upper}"
                  for lower, upper in payload["covers"]]
    return lines


def _text_oracle(args, payload):
    return [payload["value"]]


# -- csv rendering ----------------------------------------------------------

def _csv_double_hurwitz(payload):
    header = ["canonical", "weight_product", "forks", "wieners",
              "multiplicity"]
    rows = itertools.chain(
        ([r["canonical"], r["weightProduct"], r["forks"], r["wieners"],
          r["multiplicity"]] for r in payload.get("covers", ())),
        [["total", "", "", "", payload["total"]]])
    return header, rows


def _csv_chambers(payload):
    header = ["signs", "witness_mu", "witness_nu", "degree", "polynomial"]
    rows = [["".join(r["signs"]),
             ",".join(str(m) for m in r["witnessMu"]),
             ",".join(str(n) for n in r["witnessNu"]),
             r["degree"], r["polynomial"]] for r in payload["chambers"]]
    return header, rows


def _csv_elliptic(payload):
    header = ["graph", "automorphisms", "labeled_total", "contribution"]
    rows = [[r["graph"], r["automorphisms"], r["labeledTotal"],
             r["contribution"]] for r in payload["graphs"]]
    rows.append(["total", "", "", payload["total"]])
    return header, rows


def _csv_feynman(payload):
    header = ["q_exponents", "coefficient"]
    rows = [[",".join(str(e) for e in t["qExponents"]), t["coefficient"]]
            for t in payload["terms"]]
    return header, rows


def _csv_mirror_check(payload):
    header = ["degree", "q_power", "tropical", "series", "match"]
    rows = [[r["degree"], r["qPower"], r["tropical"], r["series"],
             "yes" if r["match"] else "no"] for r in payload["rows"]]
    return header, rows


def _csv_graph_complex(payload):
    header = ["edges", "basis_size", "homology_dimension", "h_zero"]
    rows = [[r["edges"], r["basisSize"], r["homologyDimension"],
             "yes" if r["isHZero"] else "no"] for r in payload["rows"]]
    return header, rows


def _csv_moduli(payload):
    header = ["index", "dimension", "folded", "graph"]
    rows = [[i, r["dimension"], "yes" if r["folded"] else "no", r["graph"]]
            for i, r in enumerate(payload["types"])]
    return header, rows


def _csv_oracle(payload):
    if payload["problem"] == "line":
        header = ["problem", "genus", "mu", "nu", "value"]
        rows = [["line", payload["genus"],
                 ",".join(str(m) for m in payload["mu"]),
                 ",".join(str(n) for n in payload["nu"]),
                 payload["value"]]]
    else:
        header = ["problem", "degree", "genus", "value"]
        rows = [["elliptic", payload["degree"], payload["genus"],
                 payload["value"]]]
    return header, rows


_RUNNERS = {
    "double-hurwitz": (_run_double_hurwitz, _text_double_hurwitz,
                       _csv_double_hurwitz),
    "chambers": (_run_chambers, _text_chambers, _csv_chambers),
    "elliptic": (_run_elliptic, _text_elliptic, _csv_elliptic),
    "feynman": (_run_feynman, _text_feynman, _csv_feynman),
    "mirror-check": (_run_mirror_check, _text_mirror_check,
                     _csv_mirror_check),
    "graph-complex": (_run_graph_complex, _text_graph_complex,
                      _csv_graph_complex),
    "moduli": (_run_moduli, _text_moduli, _csv_moduli),
    "oracle": (_run_oracle, _text_oracle, _csv_oracle),
}


# -- cache ------------------------------------------------------------------

def _cache_params(args):
    """The parameters a run's payload depends on; format flags stay out.

    --dump-matrix adds the matrix to the payload, but its path only says
    where the matrix is written, so the key holds whether it was given.
    """
    skip = {"command", "json", "csv", "cache_dir", "per_graph"}
    params = {key: value for key, value in sorted(vars(args).items())
              if key not in skip}
    if "dump_matrix" in params:
        params["dump_matrix"] = params["dump_matrix"] is not None
    return params


def _with_cache(args, compute):
    if not args.cache_dir:
        return compute()
    try:
        os.makedirs(args.cache_dir, exist_ok=True)
    except OSError as exc:
        raise ArgumentError(f"cannot create cache directory: {exc}")
    blob = json.dumps({"command": args.command,
                       "parameters": _cache_params(args),
                       "schema": SCHEMA_VERSION,
                       "version": __version__},
                      sort_keys=True).encode("utf-8")
    key = hashlib.sha256(blob).hexdigest()
    path = os.path.join(args.cache_dir, key + ".json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        pass  # missing, unreadable or truncated: recompute and overwrite
    payload = compute()
    scratch = f"{path}.{os.getpid()}.tmp"
    try:
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(scratch, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(scratch)
        raise ArgumentError(f"cannot write to cache directory: {exc}")
    return payload


# -- parser and entry point -------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="emit a versioned JSON report")
    fmt.add_argument("--csv", action="store_true",
                     help="emit a CSV table")
    common.add_argument("--cache-dir", metavar="PATH",
                        help="cache computed results under PATH")
    common.add_argument("--force", action="store_true",
                        help="override size guards where supported")

    parser = argparse.ArgumentParser(
        prog="tropica",
        description="Exact tropical Hurwitz counts, chamber polynomials, "
                    "Feynman series, graph homology, and moduli posets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("double-hurwitz", parents=[common],
                       help="tropical double Hurwitz number of the line")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--mu", required=True, metavar="PARTS",
                   help="partition over 0, comma separated")
    p.add_argument("--nu", required=True, metavar="PARTS",
                   help="partition over infinity, comma separated")
    p.add_argument("--list-covers", action="store_true",
                   help="print one line per cover class")

    p = sub.add_parser("chambers", parents=[common],
                       help="genus-0 wall and chamber decomposition")
    p.add_argument("--lmu", type=int, required=True,
                   help="number of parts of mu")
    p.add_argument("--lnu", type=int, required=True,
                   help="number of parts of nu")

    p = sub.add_parser("elliptic", parents=[common],
                       help="simple Hurwitz number of the elliptic curve")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--per-graph", action="store_true",
                   help="print one line per source graph")

    p = sub.add_parser("feynman", parents=[common],
                       help="refined Feynman integral of a graph file")
    p.add_argument("--graph", required=True, metavar="FILE",
                   help="file holding a serialized trivalent graph")
    p.add_argument("--order", required=True, metavar="LIST",
                   help="vertex order, 1-based, comma separated")
    p.add_argument("--dmax", type=int, required=True,
                   help="truncation degree")

    p = sub.add_parser("mirror-check", parents=[common],
                       help="covers versus Feynman series, degree by degree")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)

    p = sub.add_parser("graph-complex", parents=[common],
                       help="basis sizes and homology of the graph complex")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--edges", type=int,
                   help="restrict to one edge count")
    p.add_argument("--dump-matrix", metavar="PATH",
                   help="write the boundary matrix as 'row col p/q' lines")

    p = sub.add_parser("moduli", parents=[common],
                       help="combinatorial types of a tropical moduli space")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--marks", type=int, required=True)
    p.add_argument("--poset", action="store_true",
                   help="include contraction cover relations")

    p = sub.add_parser("oracle", parents=[common],
                       help="symmetric group oracle values")
    osub = p.add_subparsers(dest="problem", required=True)
    oline = osub.add_parser("line", parents=[common],
                            help="double Hurwitz number via factorizations")
    oline.add_argument("--genus", type=int, required=True)
    oline.add_argument("--mu", required=True, metavar="PARTS")
    oline.add_argument("--nu", required=True, metavar="PARTS")
    oelliptic = osub.add_parser("elliptic", parents=[common],
                                help="elliptic Hurwitz number via "
                                     "commutator factorizations")
    oelliptic.add_argument("--degree", type=int, required=True)
    oelliptic.add_argument("--genus", type=int, required=True)

    return parser


def _write(args, payload, out):
    """Render the payload to out, ending in a newline.

    The text and CSV renderers give at least one line each.
    """
    command = args.command
    _, text_fn, csv_fn = _RUNNERS[command]
    if args.json:
        report = {"schema": SCHEMA_VERSION, "command": command,
                  "result": payload}
        encoder = json.JSONEncoder(indent=2, sort_keys=True)
        chunks = itertools.chain(encoder.iterencode(report), ["\n"])
    elif args.csv:
        # writerow returns what the file's write returns: here the line
        writer = csv.writer(types.SimpleNamespace(write=str),
                            lineterminator="\n")
        header, rows = csv_fn(payload)
        chunks = map(writer.writerow, itertools.chain([header], rows))
    else:
        chunks = (line + "\n" for line in text_fn(args, payload))
    # written in batches of chunks rather than as one string, since a
    # cover list runs to megabytes, and rather than chunk by chunk,
    # since stdout may be unbuffered
    while batch := list(itertools.islice(chunks, 4096)):
        out.write("".join(batch))


def _write_matrix_file(args, payload):
    lines = [f"{r} {c} {v}" for r, c, v in payload["matrix"]["entries"]]
    try:
        with open(args.dump_matrix, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
    except OSError as exc:
        raise ArgumentError(f"cannot write the matrix file: {exc}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        runner = _RUNNERS[args.command][0]
        payload = _with_cache(args, lambda: runner(args))
        if args.command == "graph-complex" and args.dump_matrix:
            _write_matrix_file(args, payload)
        try:
            _write(args, payload, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left early (`| head`): point stdout at devnull so
            # the flush at interpreter exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        if args.command == "mirror-check" and not payload["allMatch"]:
            return 4
        return 0
    except (ArgumentError, LoopContractionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        print(f"error: size guard: {exc}", file=sys.stderr)
        return 3
    except CrossCheckError as exc:
        print(f"cross-check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface for the tropica toolkit.

One subcommand per computation family, plus shared flags: --json or
--csv select the output format (default is terse text), --cache-dir
enables an on-disk result cache.  Each command checks its size guard
(guards.py) before any work starts; --force runs a job past it.

Exit codes: 0 success, 1 stdout closed before the output was written,
2 argument error, 3 size-guard refusal, 4 cross-check failure.
"""

import argparse
import contextlib
import functools
import itertools
import json
import operator
import os
import sys
import types
from fractions import Fraction

from . import __version__, guards
from .chambers import chamber_decomposition, chamber_polynomial, walls
from .elliptic_covers import FeynmanGraph, simple_hurwitz_routes
from .errors import (ArgumentError, CrossCheckError, LoopContractionError,
                     SizeGuardError)
from .feynman_series import mirror_check, refined_integral
from .graph_complex import basis, differential_matrix, homology_dimension
from .graphs import parse_graph, serialize
from .line_covers import (double_hurwitz_tropical, iter_line_covers,
                          multiplicity)
from .moduli_space import build_poset, enumerate_types, max_dimension
from .sym_oracle import hurwitz_elliptic, hurwitz_line
from .util import as_partition, exact_digits, frac_str

SCHEMA_VERSION = "tropica/1"


def _int_list(text: str):
    try:
        return tuple(int(p) for p in str(text).split(",") if p.strip())
    except ValueError:
        raise ArgumentError(f"not an integer list: {text!r}")


def _partition(text: str):
    return as_partition(_int_list(text))


# -- computations (format independent payloads) ----------------------------

def _run_double_hurwitz(args):
    mu, nu = _partition(args.mu), _partition(args.nu)
    # the second route: the cover list with --list-covers, else the oracle
    guard = guards.line_covers if args.list_covers else guards.line_oracle
    guard(args.genus, mu, nu, args.force)
    guards.line_dp(args.genus, mu, nu, args.force)
    oracle = None if args.list_covers else hurwitz_line(args.genus, mu, nu)
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
                f"the level sweep gives {frac_str(total)} but the S_d "
                f"monodromy count gives {frac_str(oracle)}")
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
            f"{frac_str(total_from_covers)} vs {frac_str(total)}")
    payload["covers"] = rows
    return payload


def _run_chambers(args):
    guards.chambers(args.lmu, args.lnu, args.force)
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
    guards.elliptic(d, g, args.force)
    guards.elliptic_oracle(d, g, args.force)  # the second route
    total, table = simple_hurwitz_routes(d, g)
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
    guards.feynman(shape.num_edges, args.dmax, args.force)
    order = _int_list(args.order)
    if sorted(order) != list(range(1, shape.graph.num_vertices + 1)):
        raise ArgumentError(
            "--order must list every vertex once, 1-based")
    series = refined_integral(shape, tuple(v - 1 for v in order), args.dmax)
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
    guards.graph_complex(g, args.force)
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
    guards.moduli(args.genus, args.marks, args.force)
    types = enumerate_types(args.genus, args.marks)
    top = max_dimension(args.genus, args.marks, types)
    poset = build_poset(types) if args.poset else None
    payload = {
        "genus": args.genus,
        "marks": args.marks,
        "count": len(types),
        "maxDimension": top,
        "types": [{
            "graph": t.key,
            "dimension": t.dimension,
            "folded": t.folded,
        } for t in types],
    }
    if poset:
        payload["covers"] = list(poset.covers)  # pairs encode as arrays
    return payload


def _run_oracle(args):
    if args.problem == "line":
        mu, nu = _partition(args.mu), _partition(args.nu)
        guards.line_oracle(args.genus, mu, nu, args.force)
        value = hurwitz_line(args.genus, mu, nu)
        return {"problem": "line", "genus": args.genus,
                "mu": list(mu), "nu": list(nu), "value": frac_str(value)}
    guards.elliptic_oracle(args.degree, args.genus, args.force)
    value = hurwitz_elliptic(args.degree, args.genus)
    return {"problem": "elliptic", "degree": args.degree,
            "genus": args.genus, "value": frac_str(value)}


# -- views: the cells that text and CSV both read --------------------------
#
# Each view returns (text lines, CSV header, CSV rows) for one payload.

def _joined(values):
    return ",".join(str(v) for v in values)


def _yes_no(flag):
    return "yes" if flag else "no"


def _view_double_hurwitz(args, payload):
    # generators, so that a listed cover run streams in either format
    covers = payload.get("covers", ())
    total = payload["total"]
    lines = itertools.chain(
        (f"mult={r['multiplicity']} weight={r['weightProduct']} "
         f"forks={r['forks']} wieners={r['wieners']} :: {r['canonical']}"
         for r in covers), [total])
    rows = itertools.chain(
        ([r["canonical"], r["weightProduct"], r["forks"], r["wieners"],
          r["multiplicity"]] for r in covers),
        [["total", "", "", "", total]])
    return lines, ["canonical", "weight_product", "forks", "wieners",
                   "multiplicity"], rows


def _view_chambers(args, payload):
    rows = [["".join(r["signs"]), _joined(r["witnessMu"]),
             _joined(r["witnessNu"]), r["degree"], r["polynomial"]]
            for r in payload["chambers"]]
    lines = ["walls:", *(f"  {w}" for w in payload["walls"]), "chambers:"]
    lines += [f"  [{signs}] witness mu=({mu}) nu=({nu}): {poly}"
              for signs, mu, nu, _, poly in rows]
    return lines, ["signs", "witness_mu", "witness_nu", "degree",
                   "polynomial"], rows


def _view_elliptic(args, payload):
    rows = [[r["graph"], r["automorphisms"], r["labeledTotal"],
             r["contribution"]] for r in payload["graphs"]]
    lines = [f"graph {i}: |Aut|={aut} labeled={labeled} contribution={part}"
             for i, (_, aut, labeled, part) in enumerate(rows)]
    total = payload["total"]
    return ((lines if args.per_graph else []) + [total],
            ["graph", "automorphisms", "labeled_total", "contribution"],
            rows + [["total", "", "", total]])


def _view_feynman(args, payload):
    rows = [[_joined(t["qExponents"]), t["coefficient"]]
            for t in payload["terms"]]
    lines = [f"q^({exps}) = {coefficient}" for exps, coefficient in rows]
    return lines or ["0"], ["q_exponents", "coefficient"], rows


def _view_mirror_check(args, payload):
    rows = [[r["degree"], r["qPower"], r["tropical"], r["series"],
             _yes_no(r["match"])] for r in payload["rows"]]
    lines = [f"d={d} q^{q} tropical={tropical} series={series} "
             f"{'ok' if match == 'yes' else 'MISMATCH'}"
             for d, q, tropical, series, match in rows]
    bad = sum(not r["match"] for r in payload["rows"])
    lines.append(f"all {len(rows)} degrees match" if payload["allMatch"]
                 else f"{bad} of {len(rows)} degrees mismatch")
    return lines, ["degree", "q_power", "tropical", "series", "match"], rows


def _view_graph_complex(args, payload):
    rows = [[r["edges"], r["basisSize"], r["homologyDimension"],
             _yes_no(r["isHZero"])] for r in payload["rows"]]
    lines = [f"n={n} basis={size} homology={dim}"
             f"{' (H0)' if h_zero == 'yes' else ''}"
             for n, size, dim, h_zero in rows]
    if "matrix" in payload:
        m = payload["matrix"]
        lines.append(f"matrix {m['rows']}x{m['columns']} "
                     f"({len(m['entries'])} entries) -> {args.dump_matrix}")
    return lines, ["edges", "basis_size", "homology_dimension", "h_zero"], rows


def _view_moduli(args, payload):
    rows = [[i, r["dimension"], _yes_no(r["folded"]), r["graph"]]
            for i, r in enumerate(payload["types"])]
    lines = [f"{payload['count']} types "
             f"(max dimension {payload['maxDimension']})"]
    for i, dimension, folded, graph in rows:
        lines.append(f"type {i}: dimension {dimension}, folded {folded}")
        lines += [f"  {line}" for line in graph.splitlines()]
    if "covers" in payload:
        lines.append("covers:")
        lines += [f"  {lower} < {upper}"
                  for lower, upper in payload["covers"]]
    return lines, ["index", "dimension", "folded", "graph"], rows


def _view_oracle(args, payload):
    row = [_joined(v) if isinstance(v, list) else v
           for v in payload.values()]
    return [payload["value"]], list(payload), [row]


_COMMANDS = {
    "double-hurwitz": (_run_double_hurwitz, _view_double_hurwitz),
    "chambers": (_run_chambers, _view_chambers),
    "elliptic": (_run_elliptic, _view_elliptic),
    "feynman": (_run_feynman, _view_feynman),
    "mirror-check": (_run_mirror_check, _view_mirror_check),
    "graph-complex": (_run_graph_complex, _view_graph_complex),
    "moduli": (_run_moduli, _view_moduli),
    "oracle": (_run_oracle, _view_oracle),
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
    import hashlib  # here only: it loads OpenSSL, which costs every launch
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
        # our own files: an int past CPython's digit limit reads back whole
        with open(path, encoding="utf-8") as handle, exact_digits():
            return json.load(handle)
    except (OSError, ValueError):
        pass  # missing, unreadable or truncated: recompute and overwrite
    payload = compute()
    scratch = f"{path}.{os.getpid()}.tmp"
    try:
        with open(scratch, "w", encoding="utf-8") as handle, exact_digits():
            # in payload order, which the oracle's CSV columns follow
            json.dump(payload, handle)
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
                        help="run a job past its size guard")

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

    # the global flags go after the problem name, on line and elliptic
    p = sub.add_parser("oracle", help="symmetric group oracle values")
    osub = p.add_subparsers(dest="problem", required=True)
    oline = osub.add_parser("line", parents=[common],
                            help="double Hurwitz number via factorizations")
    oline.add_argument("--genus", type=int, required=True)
    oline.add_argument("--mu", required=True, metavar="PARTS")
    oline.add_argument("--nu", required=True, metavar="PARTS")
    oelliptic = osub.add_parser("elliptic", parents=[common],
                                help="elliptic Hurwitz number via "
                                     "content sums")
    oelliptic.add_argument("--degree", type=int, required=True)
    oelliptic.add_argument("--genus", type=int, required=True)

    return parser


_BATCH = 1 << 16  # characters per write, about; never twice as many
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.lru_cache(maxsize=None)
def _encoder(depth):
    """The C encoder, with a newline and depth indents between entries."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "),
                            sort_keys=True).encode


def _slices(items, depth):
    """Yield containers of scalars, all dicts or all lists, at depth, a
    slice per C-encoder call.  An encoded string holds no raw newline, so
    a closing bracket before a separator is a seam between items."""
    line, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    encode, start, step = _encoder(depth + 1), 0, 16
    while start < len(items):
        text = encode(items[start:start + step])[1:-1]
        first, last = text[0], text[-1]
        yield ("," + line if start else "") + first + inner + text[
            1:-1].replace(last + "," + inner + first, line + last + ","
                          + line + first + inner) + line + last
        start += step
        step = max(1, step * _BATCH // (2 * len(text)))


def _json_chunks(value, depth=0):
    """Yield the text of json.dumps(value, indent=2, sort_keys=True),
    through _slices wherever a container holds only scalars or only
    such containers."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        yield repr(value) if type(value) is int else _encoder(0)(value)
        return
    is_dict = isinstance(value, dict)
    if _SCALARS.issuperset(map(type, value.values() if is_dict else value)):
        yield from _slices([value], depth)
        return
    line = "\n" + "  " * (depth + 1)
    kinds = set() if is_dict else set(map(type, value))
    if is_dict:
        for i, (key, item) in enumerate(sorted(value.items())):
            # a key that is not a str is written as the stdlib writes it
            yield ("," if i else "{") + line + (
                _encoder(0)(key) if type(key) is str
                else _encoder(0)({key: 0})[1:-4]) + ": "
            yield from _json_chunks(item, depth + 1)
    elif (kinds == {dict} or kinds <= {list, tuple}) and all(value) and (
            _SCALARS.issuperset(map(type, itertools.chain.from_iterable(
                map(dict.values, value) if kinds == {dict} else value)))):
        yield "[" + line
        yield from _slices(value, depth + 1)
    else:
        for i, item in enumerate(value):
            yield ("," if i else "[") + line
            yield from _json_chunks(item, depth + 1)
    yield line[:-2] + ("}" if is_dict else "]")


def _write(args, payload, out):
    """Render the payload to out, ending in a newline.

    Every view gives at least one text line, and CSV has its header.
    JSON goes through _json_chunks, as CPython runs its C encoder only
    without an indent.  A cover list runs to megabytes and stdout may be
    unbuffered, so the text goes out in batches of about _BATCH
    characters: by size, as one chunk may hold a slice of a long list.
    """
    if args.json:
        report = {"schema": SCHEMA_VERSION, "command": args.command,
                  "result": payload}
        chunks = itertools.chain(_json_chunks(report), ["\n"])
    else:
        lines, header, rows = _COMMANDS[args.command][1](args, payload)
        chunks = (line + "\n" for line in lines)
        if args.csv:
            import csv  # here only, like hashlib: most launches print no CSV
            # writerow returns what the file's write returns: here the line
            writer = csv.writer(types.SimpleNamespace(write=str),
                                lineterminator="\n")
            chunks = map(writer.writerow, itertools.chain([header], rows))
    batch, size = [], 0
    for chunk in itertools.chain(chunks, [None]):
        batch.append(chunk or "")
        size += len(batch[-1])
        if size >= _BATCH or chunk is None:
            text, batch, size = "".join(batch), [], 0
            for start in range(0, len(text), 2 * _BATCH):
                out.write(text[start:start + 2 * _BATCH])


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
        runner = _COMMANDS[args.command][0]
        payload = _with_cache(args, lambda: runner(args))
        if args.command == "graph-complex" and args.dump_matrix:
            _write_matrix_file(args, payload)
        try:
            with exact_digits():  # every argument is parsed by now
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

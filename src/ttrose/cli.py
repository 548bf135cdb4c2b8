"""Command line surface: analyze maps, test target graphs, sweep catalogs,
export artifacts.

Each command and export kind declares only the arguments it reads, so
argparse refuses any other as a usage error; check-graph also refuses
--seed unless --oracle-samples draws a sample smaller than all the
structures, and --format with nowhere to write.

Exit codes: 0 when a verdict or report was produced, 2 for an invalid
target graph, 1 for other input errors (usage errors included) and for
a disagreement with the birecurrency oracle.  Output is deterministic
given identical inputs.  Artifacts land in --out, falling back to the
TTROSE_CACHE_DIR environment variable when set.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import json
import os
import sys

# pathlib, random and the map layer are imported where used: a call that
# writes no artifact loads no pathlib, one that draws no sample no random,
# and only analyze-map, export map-ltt and --max-loop-len load maps (the
# pathlib.Path and RoseMap annotations are strings, never evaluated)
from . import __version__
from .catalog import connected_simplicial_graphs
from .diagram import (
    INCONCLUSIVE,
    InvalidTargetGraph,
    build_preliminary,
    check_target_rank,
    diagram_to_dot,
    diagram_to_json,
    epp_classes,
    find_loops,
    id_diagram,
    iter_structures,
    star_target,
    structures_at,
    target_from_json,
    target_verdict,
    validate_target,
)
from .ltt import brute_force_birecurrent, is_birecurrent, ltt_to_dot, validate_ltt
from .rose import format_direction
from .whitehead import WhiteheadGraph, index_list


def _out_dir(args, default: str | None = None) -> str | None:
    return getattr(args, "out", None) or os.environ.get("TTROSE_CACHE_DIR") or default


def _paths(args, stem: str, formats, default: str | None = None) -> list[pathlib.Path]:
    """The file stem.FMT for each of formats in the output directory, each
    checked writable; none when there is no output directory."""
    out = _out_dir(args, default)
    if out is None:
        return []
    import pathlib

    paths = [pathlib.Path(out) / f"{stem}.{fmt}" for fmt in formats]
    for path in paths:
        _check_writable(path)
    return paths


@contextlib.contextmanager
def _writing(path: pathlib.Path):
    """An OSError inside is a one-line error naming path."""
    try:
        yield
    except OSError as exc:
        raise SystemExit(f"error: cannot write {path}: {exc}")


def _check_writable(path: pathlib.Path) -> None:
    """Fail as writing path would if it is a directory or its nearest
    existing ancestor is not a directory this process may write, so an
    unwritable output fails before the work that fills it; creates nothing."""
    with _writing(path):
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        found = path.parent
        while not found.exists():
            found = found.parent
        if not found.is_dir():
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(found))
        if not os.access(found, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(found))


def _write(path: pathlib.Path, chunks) -> None:
    """Write the text chunks to path as they come, making its directory."""
    with _writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.writelines(chunks)
    print(f"wrote {path}")


def _json(payload):
    """The text of json.dump(payload, indent=2, sort_keys=True) and a
    newline, in chunks.  An iterator is the list of its items, each encoded
    as it is drawn, so no two items are held at once."""
    encode = json.JSONEncoder(indent=2, sort_keys=True).iterencode
    if not hasattr(payload, "__next__"):
        # a chain, not a generator: a diagram is millions of chunks
        return itertools.chain(encode(payload), "\n")

    def items():
        sep = "[\n  "
        for item in payload:
            # JSON text holds a raw newline only between tokens
            yield sep + "".join(encode(item)).replace("\n", "\n  ")
            sep = ",\n  "
        yield "[]\n" if sep == "[\n  " else "\n]\n"
    return items()


def _load_json(source: str) -> dict:
    try:
        if source == "-":
            return json.load(sys.stdin)
        with open(source, encoding="utf-8") as f:  # JSON is UTF-8 (RFC 8259)
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: invalid JSON in {source}: line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}")
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"error: cannot read {source}: {exc}")
    except (ValueError, RecursionError) as exc:
        # an integer past int's digit limit, or nesting deeper than the stack
        raise SystemExit(f"error: invalid JSON in {source}: {exc}")


def _load_map(source: str) -> RoseMap:
    from .maps import RoseMap

    data = _load_json(source)
    try:
        return RoseMap.from_json(data)
    except ValueError as exc:
        raise SystemExit(f"error: bad rose map input: {exc}")


def _load_target(args) -> WhiteheadGraph:
    """The validated target; InvalidTargetGraph reaches main as exit code 2."""
    target = star_target(args.rank) if args.star else target_from_json(_load_json(args.input))
    validate_target(target, args.rank)
    return target


def _fmt_turn(t) -> str:
    return "{" + format_direction(t[0]) + "," + format_direction(t[1]) + "}"


def _fmt_turns(turns) -> str:
    return " ".join(_fmt_turn(t) for t in sorted(turns)) or "(none)"


def cmd_analyze_map(args) -> int:
    from .maps import (LttRegimeError, NotProperFullFolds, local_whitehead_graph, ltt_of_map,
                       stable_whitehead_graph, stallings_fold_decomposition)

    m = _load_map(args.input)
    print(f"map: {m}")
    illegal = m.illegal_turn
    print(f"train track: {'yes' if illegal is None else f'no (illegal taken turn {_fmt_turn(illegal)})'}")
    print("gates: " + " ".join("{" + ",".join(format_direction(d) for d in sorted(g)) + "}"
                               for g in m.gates))
    print("fixed directions: " + " ".join(format_direction(d) for d in sorted(m.fixed)))
    print("periodic directions: " + " ".join(format_direction(d) for d in sorted(m.periodic)))
    if illegal is None:
        lw = local_whitehead_graph(m)
        sw = stable_whitehead_graph(m)
        print(f"LW edges: {_fmt_turns(lw.edges)}")
        print(f"SW edges: {_fmt_turns(sw.edges)}")
        print("index list (per SW component): "
              + (", ".join(str(x) for x in index_list(sw)) or "(empty)"))
        print("note: SW is reported as the ideal Whitehead graph assuming the map "
              "is pNp-free; pNp-freeness is not verified")
        try:
            G = ltt_of_map(m)
            print(f"ltt structure: {G}")
            ok = validate_ltt(G)
            if not ok:
                print("  validation: " + "; ".join(ok.violations))
            print(f"birecurrent: {'yes' if is_birecurrent(G) else 'no'}")
        except LttRegimeError as exc:
            print(f"ltt structure: not constructed ({exc})")
    try:
        dec = stallings_fold_decomposition(m)
        gens = ", ".join(str(g) for g in dec.generators) or "(none)"
        print(f"fold decomposition: {len(dec.generators)} proper full folds: {gens}")
        if not dec.has_trivial_permutation():
            perm = " ".join(
                f"{format_direction(2 * i - 1)}->{format_direction(dec.final_permutation[2 * i - 2])}"
                for i in range(1, m.rank + 1))
            print(f"final homeomorphism: {perm}")
        rt = dec.composite
        print(f"decomposition round-trip: {'exact' if rt == m else 'MISMATCH'}")
    except NotProperFullFolds as exc:
        print(f"fold decomposition: failed at step {exc.step}: {exc.description}")
    return 0


def _write_diagram(paths: list[pathlib.Path], diagram) -> None:
    for path in paths:
        _write(path, _json(diagram_to_json(diagram)) if path.suffix == ".json"
               else [diagram_to_dot(diagram, path.stem)])


def cmd_check_graph(args) -> int:
    if args.format and _out_dir(args) is None:
        raise SystemExit("error: --format selects the artifacts to write; give --out "
                         "or set TTROSE_CACHE_DIR")
    if args.seed is not None and not args.oracle_samples:
        raise SystemExit("error: --seed seeds the oracle's samples; give --oracle-samples")
    target = _load_target(args)
    formats = [args.format] if args.format else ["json", "dot"]
    paths = _paths(args, f"diagram_r{args.rank}", formats)
    result = target_verdict(target, args.rank)
    if args.seed is not None and args.oracle_samples >= result.num_structures:
        raise SystemExit(f"error: --oracle-samples {args.oracle_samples} checks all "
                         f"{result.num_structures} structures, so --seed goes unread; drop it")
    print(f"target: {len(target.vertices)} vertices, {len(target.edges)} edges")
    print(f"structures: {result.num_structures} total, {result.num_admissible} birecurrent")
    if result.diagram is not None:
        prelim = result.diagram.preliminary
        print(f"ID diagram: {len(result.diagram.components)} component(s), "
              f"{sum(map(len, prelim.rows))} preliminary edge(s)")
        for i, comp in enumerate(result.diagram.components):
            census = " ".join(format_direction(d) for d in sorted(comp.red_label_census))
            passing = "pass" if result.ip.per_component[i] else "fail"
            edges = sum(1 for _ in prelim.edge_ends(comp.nodes))
            print(f"  component {i}: {len(comp.nodes)} nodes, {edges} edges, "
                  f"red labels {{{census}}} -> {passing}")
        classes = epp_classes(result.diagram)
        print(f"EPP classes of components: {len(classes)}")
        if args.max_loop_len:
            _report_loops(result.diagram, args.max_loop_len)
    print(f"verdict: {result.verdict}")
    agree = _oracle_check(result, args) if args.oracle_samples else True
    if result.diagram is not None:
        _write_diagram(paths, result.diagram)
    return 0 if agree else 1


def _report_loops(diagram, max_len: int) -> None:
    from .maps import verify_loop

    for i, comp in enumerate(diagram.components):
        loops = find_loops(diagram.preliminary, comp, max_len)
        ok = sum(1 for lp in loops if verify_loop(lp).ok)
        print(f"  component {i}: {len(loops)} loop(s) of length <= {max_len} "
              f"at its first node; {ok} fully ideal")


def _oracle_check(result, args) -> bool:
    """Does the brute-force oracle agree with the birecurrency the verdict
    decided on the samples?  They are drawn from the verdict's base slice
    by structures_at, so only they are decoded."""
    import random

    n = result.num_structures
    positions = range(n) if n <= args.oracle_samples \
        else random.Random(args.seed or 0).sample(range(n), args.oracle_samples)
    samples = structures_at(result.base, args.rank, positions)
    bad = [G for G, decided in samples if decided != brute_force_birecurrent(G)]
    print(f"birecurrency oracle agreement: {len(samples) - len(bad)}/{len(samples)}")
    if bad:
        print("DISAGREEMENT on:", bad[0])
    return not bad


def _catalog(n: int) -> list:
    try:
        return connected_simplicial_graphs(n)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _sweep_row(name: str, graph: WhiteheadGraph, rank: int) -> dict:
    """One target's sweep row; its diagram is dropped on return, so a
    sweep holds one diagram at a time."""
    result = target_verdict(graph, rank)
    return {
        "id": name,
        "edges": len(graph.edges),
        "structures": result.num_structures,
        "admissible": result.num_admissible,
        "components": len(result.diagram.components) if result.diagram else 0,
        "verdict": result.verdict,
    }


def cmd_sweep(args) -> int:
    n = 2 * args.rank - 1
    paths = _paths(args, f"sweep_r{args.rank}", ["json"])
    entries = _catalog(n)
    print(f"catalog: {len(entries)} connected simplicial {n}-vertex graphs")
    # each row is printed once it is decided, so the width is the IDs'
    width = max((len(e.id) for e in entries), default=len("id"))
    print(f"{'id':<{width}}  edges  structures  admissible  components  verdict")
    rows = []
    for e in entries:
        r = _sweep_row(e.id, e.graph(), args.rank)
        print(f"{r['id']:<{width}}  {r['edges']:>5}  {r['structures']:>10}  "
              f"{r['admissible']:>10}  {r['components']:>10}  {r['verdict']}", flush=True)
        rows.append(r)
    flagged = [r for r in rows if r["verdict"] != INCONCLUSIVE]
    print(f"unachieved: {len(flagged)} of {len(rows)}")
    for path in paths:
        _write(path, _json({"rank": args.rank, "results": rows}))
    return 0


def cmd_export_diagram(args) -> int:
    target = _load_target(args)
    paths = _paths(args, f"diagram_r{args.rank}", [args.format], ".")
    _write_diagram(paths, id_diagram(target, args.rank, build_preliminary(target, args.rank)))
    return 0


def cmd_export_structures(args) -> int:
    target = _load_target(args)
    suffix = "_admissible" if args.admissible_only else ""
    [path] = _paths(args, f"structures_r{args.rank}{suffix}", [args.format], ".")
    structures = iter_structures(target, args.rank, admissible_only=args.admissible_only)
    if args.format == "json":
        _write(path, _json(G.to_json() for G in structures))
    else:
        _write(path, (("\n" if i else "") + ltt_to_dot(G, f"ltt_{i}")
                      for i, G in enumerate(structures)))
    return 0


def cmd_export_catalog(args) -> int:
    [path] = _paths(args, f"catalog_n{2 * args.rank - 1}", [args.format], ".")
    _write(path, _json(e.to_json() for e in _catalog(2 * args.rank - 1)))
    return 0


def cmd_export_map_ltt(args) -> int:
    from .maps import LttRegimeError, ltt_of_map

    m = _load_map(args.input)
    [path] = _paths(args, "ltt", [args.format], ".")
    try:
        G = ltt_of_map(m)
    except LttRegimeError as exc:
        raise SystemExit(f"error: {exc}")
    _write(path, _json(G.to_json()) if args.format == "json" else [ltt_to_dot(G)])
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # a usage error is an input error: one line, exit 1; subparsers use this class
        raise SystemExit(f"error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ttrose",
        description="Decide desk-scale unachievability of candidate ideal Whitehead "
                    "graphs via train track maps on roses.")
    parser.add_argument("--version", action="version", version=f"ttrose {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-map", help="report on a rose self-map given as JSON")
    p.add_argument("input", help="path to a rose map JSON file, or - for stdin")
    p.set_defaults(func=cmd_analyze_map)

    check = sub.add_parser("check-graph", help="run the unachievability tests on a target graph")
    check.add_argument("--rank", type=int, required=True)
    check.add_argument("--max-loop-len", type=int, default=0,
                       help="also enumerate and verify loops up to this length")
    check.add_argument("--oracle-samples", type=int, default=0,
                       help="cross-check birecurrency against the brute-force oracle "
                            "on this many sampled structures")
    check.add_argument("--seed", type=int,
                       help="seed for the --oracle-samples sample (default 0)")
    check.add_argument("--out", help="directory for DOT/JSON artifacts")
    check.add_argument("--format", choices=("dot", "json"), help="restrict artifact format")
    check.set_defaults(func=cmd_check_graph)

    p = sub.add_parser("sweep", help="run the verdict over the whole graph catalog")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--out", help="directory for the machine-readable results")
    p.set_defaults(func=cmd_sweep)

    kinds = sub.add_parser("export", help="emit DOT/JSON artifacts").add_subparsers(
        metavar="KIND", required=True)
    diagram = kinds.add_parser("diagram", help="the ID diagram of a target graph")
    structures = kinds.add_parser("structures", help="the ltt structures of a target graph")
    catalog = kinds.add_parser("catalog", help="the connected simplicial (2r-1)-vertex graphs")
    map_ltt = kinds.add_parser("map-ltt", help="the ltt structure of a rose map")
    map_ltt.add_argument("input", help="path to a rose map JSON file, or - for stdin")
    one = "; exactly one of input and --star is required"
    for p in (check, diagram, structures):
        source = p.add_mutually_exclusive_group(required=True)
        # the usage line shows both as optional, so each help says otherwise
        source.add_argument("input", nargs="?",
                            help="path to a target graph JSON file, or - for stdin" + one)
        source.add_argument("--star", action="store_true",
                            help="use the 2r-2 edge star target" + one)
    for p in (diagram, structures, catalog):
        p.add_argument("--rank", type=int, default=3, help="rank r (default 3)")
    structures.add_argument("--admissible-only", action="store_true",
                            help="only the birecurrent structures")
    for p, func in ((diagram, cmd_export_diagram), (structures, cmd_export_structures),
                    (catalog, cmd_export_catalog), (map_ltt, cmd_export_map_ltt)):
        p.add_argument("--format", choices=("json",) if p is catalog else ("dot", "json"),
                       default="json")
        p.add_argument("--out", help="output directory")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "rank", None) is not None:
        try:
            check_target_rank(args.rank)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    for flag in ("max_loop_len", "oracle_samples"):
        if getattr(args, flag, 0) < 0:
            raise SystemExit(f"error: --{flag.replace('_', '-')} must be non-negative")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except InvalidTargetGraph as exc:
        print(f"invalid target graph: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone (`| head -1`); devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code

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
import json
import os
import sys

# pathlib and random are imported where used, so a call that writes no
# artifact and draws no sample loads neither (the pathlib.Path annotations
# are strings, never evaluated)
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
    verify_loop,
)
from .ltt import (
    LttRegimeError,
    brute_force_birecurrent,
    is_birecurrent,
    ltt_of_map,
    ltt_to_dot,
    validate_ltt,
)
from .maps import (
    NotProperFullFolds,
    RoseMap,
    gates,
    is_train_track,
    local_whitehead_graph,
    periodic_and_fixed_directions,
    stable_whitehead_graph,
    stallings_fold_decomposition,
)
from .rose import format_direction
from .whitehead import WhiteheadGraph, index_list


def _out_dir(args, default: str | None = None) -> pathlib.Path | None:
    out = getattr(args, "out", None) or os.environ.get("TTROSE_CACHE_DIR") or default
    if not out:
        return None
    import pathlib

    return pathlib.Path(out)


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


@contextlib.contextmanager
def _output(path: pathlib.Path):
    """The file at path, open for writing; an OSError is a one-line error."""
    with _writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            yield f
    print(f"wrote {path}")


def _write(path: pathlib.Path, text: str) -> None:
    with _output(path) as f:
        f.write(text)


def _write_json(path: pathlib.Path, payload) -> None:
    with _output(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_json_list(path: pathlib.Path, payloads) -> None:
    """The list as _write_json writes it, each item encoded as it is
    produced, so no two items' payloads are held at once."""
    with _output(path) as f:
        sep = "[\n  "
        for payload in payloads:
            f.write(sep + json.dumps(payload, indent=2, sort_keys=True).replace("\n", "\n  "))
            sep = ",\n  "
        f.write("[]\n" if sep == "[\n  " else "\n]\n")


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


def _load_map(source: str) -> RoseMap:
    data = _load_json(source)
    try:
        if not isinstance(data, dict):
            raise ValueError('expected an object with "rank" and "images"')
        if unknown := sorted(data.keys() - {"rank", "images"}):
            raise ValueError(f'unknown key "{unknown[0]}"')
        if missing := [key for key in ("rank", "images") if key not in data]:
            raise ValueError(f'missing key "{missing[0]}"')
        return RoseMap.from_strings(data["rank"], data["images"])
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
    m = _load_map(args.input)
    print(f"map: {m}")
    verdict = is_train_track(m)
    print(f"train track: {'yes' if verdict.ok else f'no (illegal taken turn {_fmt_turn(verdict.witness)})'}")
    gs = gates(m)
    print("gates: " + " ".join("{" + ",".join(format_direction(d) for d in sorted(g)) + "}"
                               for g in gs))
    periodic, fixed = periodic_and_fixed_directions(m)
    print("fixed directions: " + " ".join(format_direction(d) for d in sorted(fixed)))
    print("periodic directions: " + " ".join(format_direction(d) for d in sorted(periodic)))
    if verdict.ok:
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
        rt = dec.compose_all()
        print(f"decomposition round-trip: {'exact' if rt == m else 'MISMATCH'}")
    except NotProperFullFolds as exc:
        print(f"fold decomposition: failed at step {exc.step}: {exc.description}")
    return 0


def _artifact_paths(out: pathlib.Path, fmt: str | None, stem: str) -> list[pathlib.Path]:
    """The diagram's JSON and DOT files under out, or only the one fmt names."""
    return [out / f"{stem}.{ext}" for ext in ("json", "dot") if fmt in (None, ext)]


def _artifact(out: pathlib.Path | None, fmt: str | None, diagram, stem: str) -> None:
    if out is None or diagram is None:
        return
    for path in _artifact_paths(out, fmt, stem):
        if path.suffix == ".json":
            _write_json(path, diagram_to_json(diagram))
        else:
            _write(path, diagram_to_dot(diagram, stem))


def cmd_check_graph(args) -> int:
    if args.format and _out_dir(args) is None:
        raise SystemExit("error: --format selects the artifacts to write; give --out "
                         "or set TTROSE_CACHE_DIR")
    if args.seed is not None and not args.oracle_samples:
        raise SystemExit("error: --seed seeds the oracle's samples; give --oracle-samples")
    target = _load_target(args)
    out = _out_dir(args)
    if out is not None:
        for path in _artifact_paths(out, args.format, f"diagram_r{args.rank}"):
            _check_writable(path)
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
    _artifact(out, args.format, result.diagram, f"diagram_r{args.rank}")
    return 0 if agree else 1


def _report_loops(diagram, max_len: int) -> None:
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
    out = _out_dir(args)
    if out is not None:
        _check_writable(out / f"sweep_r{args.rank}.json")
    entries = _catalog(n)
    print(f"catalog: {len(entries)} connected simplicial {n}-vertex graphs")
    rows = [_sweep_row(e.id, e.graph(), args.rank) for e in entries]
    width = max((len(r["id"]) for r in rows), default=len("id"))
    print(f"{'id':<{width}}  edges  structures  admissible  components  verdict")
    for r in rows:
        print(f"{r['id']:<{width}}  {r['edges']:>5}  {r['structures']:>10}  "
              f"{r['admissible']:>10}  {r['components']:>10}  {r['verdict']}")
    flagged = [r for r in rows if r["verdict"] != INCONCLUSIVE]
    print(f"unachieved: {len(flagged)} of {len(rows)}")
    if out is not None:
        _write_json(out / f"sweep_r{args.rank}.json", {"rank": args.rank, "results": rows})
    return 0


def _export_path(args, stem: str) -> pathlib.Path:
    """The one file an export writes, checked before it is built."""
    path = _out_dir(args, ".") / f"{stem}.{args.format}"
    _check_writable(path)
    return path


def cmd_export_diagram(args) -> int:
    target = _load_target(args)
    path = _export_path(args, f"diagram_r{args.rank}")
    diagram = id_diagram(target, args.rank, build_preliminary(target, args.rank))
    _artifact(path.parent, args.format, diagram, path.stem)
    return 0


def cmd_export_structures(args) -> int:
    target = _load_target(args)
    path = _export_path(args, f"structures_r{args.rank}"
                              + ("_admissible" if args.admissible_only else ""))
    structures = iter_structures(target, args.rank, admissible_only=args.admissible_only)
    if args.format == "json":
        _write_json_list(path, (G.to_json() for G in structures))
    else:
        with _output(path) as f:
            for i, G in enumerate(structures):
                f.write(("\n" if i else "") + ltt_to_dot(G, f"ltt_{i}"))
    return 0


def cmd_export_catalog(args) -> int:
    path = _export_path(args, f"catalog_n{2 * args.rank - 1}")
    _write_json_list(path, (e.to_json() for e in _catalog(2 * args.rank - 1)))
    return 0


def cmd_export_map_ltt(args) -> int:
    m = _load_map(args.input)
    path = _export_path(args, "ltt")
    try:
        G = ltt_of_map(m)
    except LttRegimeError as exc:
        raise SystemExit(f"error: {exc}")
    if args.format == "json":
        _write_json(path, G.to_json())
    else:
        _write(path, ltt_to_dot(G))
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

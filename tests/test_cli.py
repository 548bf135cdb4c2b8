"""Command line behavior: reports, exit codes, artifact determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttrose.cli import main

EXAMPLE = {
    "rank": 3,
    "images": {"a": "abacbabac'abacbaba", "b": "bac'",
               "c": "ca'b'a'b'a'b'c'a'b'a'c"},
}

MIDDLE = {"edges": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2]]}

STAR_P2 = {"edges": [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [0, 6], [1, 2], [3, 4]]}


@pytest.fixture()
def example_map_file(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(EXAMPLE))
    return str(path)


def test_analyze_map_report(example_map_file, capsys):
    assert main(["analyze-map", example_map_file]) == 0
    out = capsys.readouterr().out
    assert "train track: yes" in out
    assert "gates: {a} {a'} {b} {b',c} {c'}" in out
    assert "fixed directions: a a' b c c'" in out
    assert "SW edges: {a,c} {a',b} {a',c} {a',c'} {b,c'}" in out
    assert "red vertex b'" in out
    assert "red [a,b']" in out
    assert "index list (per SW component): -3/2" in out
    assert "birecurrent: yes" in out
    assert "decomposition round-trip: exact" in out


def test_analyze_map_identity(tmp_path, capsys):
    path = tmp_path / "id.json"
    path.write_text(json.dumps({"rank": 2, "images": {"a": "a", "b": "b"}}))
    assert main(["analyze-map", str(path)]) == 0
    out = capsys.readouterr().out
    assert "train track: yes" in out
    assert "LW edges: (none)" in out
    assert "not constructed" in out
    assert "final homeomorphism" not in out
    # the petal swap has no fold: its decomposition is the homeomorphism alone
    path.write_text(json.dumps({"rank": 2, "images": {"a": "b", "b": "a"}}))
    assert main(["analyze-map", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == ["fold decomposition: 0 proper full folds: (none)",
                          "final homeomorphism: a->b b->a",
                          "decomposition round-trip: exact"]


def test_analyze_map_reports_ltt_violations(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"rank": 2, "images": {"a": "a", "b": "a'b"}}))
    assert main(["analyze-map", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "map: a -> a, b -> a'b",
        "train track: yes",
        "gates: {a} {a',b} {b'}",
        "fixed directions: a a' b'",
        "periodic directions: a a' b'",
        "LW edges: {a,a'} {a,b}",
        "SW edges: {a,a'}",
        "index list (per SW component): 0",
        "note: SW is reported as the ideal Whitehead graph assuming the map is pNp-free; "
        "pNp-freeness is not verified",
        "ltt structure: ltt(rank=2, red vertex b, red [a,b], purple [a,a'])",
        "  validation: tt1/tt3: directions [4] meet no colored edge",
        "birecurrent: no",
        "fold decomposition: 1 proper full folds: b -> a'b",
        "decomposition round-trip: exact",
    ]


def test_analyze_map_non_train_track(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rank": 2, "images": {"a": "ab", "b": "b'a'"}}))
    assert main(["analyze-map", str(path)]) == 0
    out = capsys.readouterr().out
    assert "train track: no" in out
    assert "gates:" in out


def test_analyze_map_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"rank": 3, ')
    with pytest.raises(SystemExit) as exc:
        main(["analyze-map", str(path)])
    assert "line 1" in str(exc.value)
    path.write_text('[3]')
    with pytest.raises(SystemExit) as exc:
        main(["analyze-map", str(path)])
    assert str(exc.value).startswith("error: bad rose map input")
    # each was misread: rank 2.7 as 2, true as 1, "ab" as the words a and b,
    # petal c dropped at rank 2, and a misspelt key left unread
    for payload, reason in (({"rank": 2.7, "images": {"a": "a", "b": "b"}},
                             "rank must be a positive integer, got 2.7"),
                            ({"rank": True, "images": {"a": "a"}},
                             "rank must be a positive integer, got True"),
                            ({"rank": 2, "images": "ab"},
                             "expected an object of petal images, not 'ab'"),
                            ({"rank": 2, "images": ["ab", "b"]},
                             "expected an object of petal images, not ['ab', 'b']"),
                            ({"rank": 2, "images": {"a": "a", "b": "b", "c": "c"}},
                             "no petal 'c' at rank 2"),
                            ({"rank": 2, "images": {"a": "ab", "b": "b"}, "imgs": {"a": "a"}},
                             'unknown key "imgs"'),
                            # each printed Python's own exception text
                            ({"images": {}}, 'missing key "rank"'),
                            ({"rank": 2}, 'missing key "images"'),
                            ({"rank": 26, "images": {}}, "no image for petal 'a'"),
                            ({"rank": 2, "images": {"a": 5, "b": "b"}},
                             "the image of petal 'a' is not a string: 5"),
                            ([], 'expected an object with "rank" and "images"'),
                            ({"rank": 2, "images": {"a": "a", "b": "'b"}},
                             "dangling prime in \"'b\"")):
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as exc:
            main(["analyze-map", str(path)])
        assert str(exc.value) == f"error: bad rose map input: {reason}"
    missing = tmp_path / "missing.json"
    with pytest.raises(SystemExit) as exc:
        main(["analyze-map", str(missing)])
    assert str(exc.value) == \
        f"error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"
    # JSON is UTF-8, so other bytes are unreadable input, not a traceback
    path.write_bytes(b'\xff\xfe{"rank": 2, "images": {}}')
    with pytest.raises(SystemExit) as exc:
        main(["analyze-map", str(path)])
    assert str(exc.value) == (f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
                              "in position 0: invalid start byte")
    assert capsys.readouterr().out == ""


def test_check_graph_star(capsys):
    assert main(["check-graph", "--star", "--rank", "3"]) == 0
    out = capsys.readouterr().out
    assert "structures: 120 total, 0 birecurrent" in out
    assert "verdict: UnachievedByBirecurrency" in out


def test_check_graph_flagged(tmp_path, capsys):
    path = tmp_path / "mid.json"
    path.write_text(json.dumps(MIDDLE))
    assert main(["check-graph", str(path), "--rank", "3"]) == 0
    out = capsys.readouterr().out
    assert "verdict: UnachievedByIrreducibilityPotential" in out
    assert "EPP classes of components: 1" in out
    # any hashable names: 0 and "a" do not compare, so their edge is sorted
    # by repr, and the graph with vertex 1 named "a" reports as it does
    path.write_text(json.dumps({"edges": [[0, "a"], [0, 2], [0, 3], [0, 4], ["a", 2]]}))
    assert main(["check-graph", str(path), "--rank", "3"]) == 0
    assert capsys.readouterr().out == out


def test_check_graph_loops(tmp_path, capsys):
    # G5.04, inconclusive at rank 3: its three components pass IP, and no
    # short loop at a first node is fully ideal
    path = tmp_path / "g5_04.json"
    path.write_text(json.dumps({"edges": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4]]}))
    assert main(["check-graph", str(path), "--rank", "3", "--max-loop-len", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-5:] == [
        "EPP classes of components: 1",
        "  component 0: 9 loop(s) of length <= 3 at its first node; 0 fully ideal",
        "  component 1: 15 loop(s) of length <= 3 at its first node; 0 fully ideal",
        "  component 2: 6 loop(s) of length <= 3 at its first node; 0 fully ideal",
        "verdict: Inconclusive",
    ]


def test_check_graph_invalid_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for payload in ({"edges": [[0, 1], [1, 2]]}, {"edges": [[0, 1], [1, 1]]}, {"edges": 5},
                    {"edges": [[0, 1, 2]]}, {"vertices": [0, 1]}, [[0, 1]]):
        path.write_text(json.dumps(payload))
        assert main(["check-graph", str(path), "--rank", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid target graph: ")
        assert captured.err.count("\n") == 1
    path.write_text(json.dumps({"edges": [[0, 1]], "vertices": 5}))
    assert main(["check-graph", str(path), "--rank", "3"]) == 2
    assert capsys.readouterr() == ("", 'invalid target graph: "vertices" must be a list\n')
    # a misspelt key is refused: with "vertex" ignored, the 3-vertex path
    # would be decided at rank 2
    for payload, key in (({"edges": [[0, 1], [1, 2]], "vertex": [0, 1, 2, 3, 4]}, "vertex"),
                         ({"edge": [[0, 1], [1, 2]]}, "edge"),
                         ({"edges": [[0, 1], [1, 2]], "vertices": [0, 1, 2], "name": "p3",
                           "id": 1}, "id")):
        path.write_text(json.dumps(payload))
        assert main(["check-graph", str(path), "--rank", "2"]) == 2
        assert capsys.readouterr() == ("", f'invalid target graph: unknown key "{key}"\n')
    # true == 1 in Python: [0, true] would merge into a 5-vertex path,
    # and [1, true] would read as a loop edge at 1
    for payload in ({"edges": [[0, True], [1, 2], [2, 3], [3, 4]]}, {"edges": [[0, 1], [1, True]]},
                    {"vertices": [False], "edges": [[1, 2], [2, 3], [3, 4], [4, 5]]}):
        path.write_text(json.dumps(payload))
        assert main(["check-graph", str(path), "--rank", "3"]) == 2
        assert capsys.readouterr() == ("", "invalid target graph: a vertex must not be a boolean\n")
    # NaN != NaN: [NaN, NaN] would pass the loop check, and [NaN, 1] and
    # [1, NaN] would be two edges of a 3-vertex path
    for text in ('{"edges": [[NaN, NaN], [NaN, 1], [1, 2]]}',
                 '{"edges": [[NaN, 1], [1, NaN], [1, 2]]}'):
        path.write_text(text)
        assert main(["check-graph", str(path), "--rank", "2"]) == 2
        assert capsys.readouterr() == ("", "invalid target graph: a vertex must not be NaN\n")


@pytest.mark.parametrize("command", [["check-graph"], ["export", "diagram"],
                                     ["export", "structures"]])
def test_unreadable_target_exits_1(command, tmp_path):
    # a target that cannot be read or is not JSON is an input error, exit 1;
    # exit 2 is for JSON that is not a connected simple graph on 2r-1 vertices.
    # JSON is UTF-8, so a file in another encoding cannot be read
    missing, out = tmp_path / "missing.json", tmp_path / "out"
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'\xff\xfe{"edges": []}')
    for source, stdin, error in (
            ("-", "{bad", "invalid JSON in -: line 1, column 2: "
                          "Expecting property name enclosed in double quotes"),
            (str(missing), "", f"cannot read {missing}: "
                               f"[Errno 2] No such file or directory: '{missing}'"),
            (str(latin), "", f"cannot read {latin}: 'utf-8' codec can't decode byte 0xff "
                             "in position 0: invalid start byte")):
        run = subprocess.run([sys.executable, "-m", "ttrose", *command, source,
                              "--rank", "3", "--out", str(out)],
                             input=stdin, capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (1, "", f"error: {error}\n")
    assert not out.exists()


def test_rank_out_of_range_is_one_line_error(tmp_path, capsys):
    for rank in ("0", "1", "27"):
        for argv in (["check-graph", "--star"], ["sweep"],
                     ["export", "structures", "--star", "--out", str(tmp_path)],
                     ["export", "catalog", "--out", str(tmp_path)]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--rank", rank])
            assert str(exc.value).startswith("error: rank ")
            assert "\n" not in str(exc.value)
    assert not list(tmp_path.iterdir())


def test_catalog_past_rank_4_is_one_line_error(tmp_path):
    # the catalog stops at 7 vertices; rank 5 would walk 2^36 edge sets
    for argv in (["export", "catalog", "--out", str(tmp_path)], ["sweep"]):
        run = subprocess.run([sys.executable, "-m", "ttrose", *argv, "--rank", "5"],
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr == "error: the graph catalog stops at 7 vertices (rank 4), not 9\n"
    assert not list(tmp_path.iterdir())


def test_import_does_not_load_typing():
    # every CLI call pays for `import ttrose.cli`; -S keeps site's own
    # imports (a .pth hook may load typing) out of the modules the import
    # is charged with
    import ttrose.cli
    code = ("import sys; before = set(sys.modules); import ttrose.cli; "
            "print(*sorted(set(sys.modules) - before))")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         timeout=60, env={**os.environ,
                                          "PYTHONPATH": str(Path(ttrose.cli.__file__).parents[1])})
    assert run.returncode == 0, run.stderr
    loaded = run.stdout.split()
    assert "ttrose.diagram" in loaded and "typing" not in loaded


def test_python_m_ttrose_runs_the_cli():
    # the package runs as `python -m ttrose`, with no installed script
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def run(*argv: str) -> str:
        return subprocess.run([sys.executable, "-m", "ttrose", *argv], env=env, check=True,
                              capture_output=True, text=True, timeout=60).stdout

    assert run("--version") == "ttrose 0.1.0\n"
    assert run("check-graph", "--star", "--rank", "3").splitlines()[-1] \
        == "verdict: UnachievedByBirecurrency"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_is_not_a_traceback(unbuffered):
    # as `ttrose sweep --rank 3 | head -1` once the reader has gone; with
    # stdout unbuffered the first print fails, else the flush at the end
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, "-m", "ttrose", "sweep", "--rank", "3"],
                             stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
                             env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (1, "")


def test_rank_1_maps_are_still_analyzed(tmp_path, capsys):
    # rank 1 has no candidate target graph, but a rank-1 map is a map
    path = tmp_path / "r1.json"
    path.write_text(json.dumps({"rank": 1, "images": {"a": "a"}}))
    assert main(["analyze-map", str(path)]) == 0
    assert "train track: yes" in capsys.readouterr().out


def test_negative_counts_are_one_line_errors(capsys):
    for flag in ("--oracle-samples", "--max-loop-len"):
        with pytest.raises(SystemExit) as exc:
            main(["check-graph", "--star", "--rank", "3", flag, "-1"])
        assert str(exc.value) == f"error: {flag} must be non-negative"
    assert capsys.readouterr().out == ""


def test_map_ltt_without_structure_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "id.json"
    path.write_text(json.dumps({"rank": 2, "images": {"a": "a", "b": "b"}}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["export", "map-ltt", str(path), "--out", str(out)])
    assert str(exc.value).startswith("error: expected exactly 1 nonperiodic direction")
    with pytest.raises(SystemExit) as exc:
        main(["export", "map-ltt", "--out", str(out)])
    assert exc.value.code == "error: the following arguments are required: input"
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_map_ltt_refuses_a_rank(example_map_file, tmp_path, capsys):
    # the map carries its rank, so an explicit --rank would go unread
    with pytest.raises(SystemExit) as exc:
        main(["export", "map-ltt", example_map_file, "--rank", "7", "--out", str(tmp_path)])
    assert exc.value.code == "error: unrecognized arguments: --rank 7"
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "ltt.json").exists()
    assert main(["export", "map-ltt", example_map_file, "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "ltt.json").read_text())["rank"] == 3


def test_target_file_and_star_are_refused_together(tmp_path, capsys):
    # P5 alone is Inconclusive at rank 3; with --star the file went unread
    path = tmp_path / "p5.json"
    path.write_text(json.dumps({"edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}))
    out = tmp_path / "out"
    for command in (["check-graph"], ["export", "structures"], ["export", "diagram"]):
        with pytest.raises(SystemExit) as exc:
            main(command + [str(path), "--star", "--rank", "3", "--out", str(out)])
        assert exc.value.code == "error: argument --star: not allowed with argument input"
        with pytest.raises(SystemExit) as exc:
            main(command + ["--rank", "3", "--out", str(out)])
        assert exc.value.code == "error: one of the arguments input --star is required"
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_export_refuses_arguments_its_kind_never_reads(example_map_file, tmp_path, capsys):
    # each of these exited 0 with the argument ignored
    path = tmp_path / "p5.json"
    path.write_text(json.dumps({"edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}))
    out = tmp_path / "out"
    cases = [
        (["catalog", str(path), "--star", "--rank", "3"], f"{path} --star"),
        (["catalog", "--star", "--rank", "3"], "--star"),
        (["catalog", "--admissible-only"], "--admissible-only"),
        (["diagram", str(path), "--rank", "3", "--admissible-only"], "--admissible-only"),
        (["map-ltt", example_map_file, "--star"], "--star"),
        (["map-ltt", example_map_file, "--admissible-only"], "--admissible-only"),
    ]
    for argv, shown in cases:
        with pytest.raises(SystemExit) as exc:
            main(["export"] + argv + ["--out", str(out)])
        assert exc.value.code == f"error: unrecognized arguments: {shown}"
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("kind, options", [
    ("diagram", ["input", "--star", "--rank", "--format", "--out"]),
    ("structures", ["input", "--star", "--rank", "--admissible-only", "--format", "--out"]),
    ("catalog", ["--rank", "--format", "--out"]),
    ("map-ltt", ["input", "--format", "--out"]),
])
def test_export_kind_help_lists_only_its_options(kind, options, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", kind, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines()
              if line.startswith("  ") and not line.startswith("   ")]
    assert sorted(listed) == sorted(["-h,"] + options)


@pytest.mark.parametrize("command", [["check-graph"], ["export", "diagram"],
                                     ["export", "structures"]])
def test_target_source_help_says_exactly_one_is_required(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")  # one line per option
    with pytest.raises(SystemExit) as exc:
        main(command + ["--help"])
    assert exc.value.code == 0
    helps = {line.split()[0]: " ".join(line.split()[1:])
             for line in capsys.readouterr().out.splitlines() if line.startswith("  ")}
    assert helps["input"] == ("path to a target graph JSON file, or - for stdin; "
                              "exactly one of input and --star is required")
    assert helps["--star"] == ("use the 2r-2 edge star target; "
                               "exactly one of input and --star is required")


_VERTEX = st.integers(0, 2) | st.sampled_from([3, "a", None, True, 1.5])
_EDGE = st.lists(_VERTEX, min_size=2, max_size=2) | st.lists(_VERTEX, max_size=3)
_JSON = st.recursive(st.none() | st.booleans() | st.integers(-2, 4) | st.text(max_size=2),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.sampled_from(["edges", "vertices", "x"]), inner,
                                       max_size=2),
                     max_leaves=6)
_TARGET = (st.fixed_dictionaries({"edges": st.lists(st.sampled_from([[0, 1], [0, 2], [1, 2]]),
                                                   min_size=1, max_size=3)})
           | st.fixed_dictionaries({"edges": st.lists(_EDGE, max_size=5)},
                                   optional={"vertices": st.lists(_VERTEX, max_size=4)})
           | _JSON)


@settings(max_examples=60, deadline=None)
@given(target=_TARGET, rank=st.just(2) | st.sampled_from([None, -1, 0, 1, 3, 27]),
       command=st.sampled_from([["check-graph"], ["export", "structures"],
                                ["export", "diagram"], ["export", "catalog"],
                                ["export", "map-ltt"], ["sweep"]]),
       extra=st.lists(st.sampled_from([("--star",), ("--admissible-only",), ("--format", "dot")]),
                      unique=True))
def test_cli_fails_cleanly_on_random_input(target, rank, command, extra):
    # rank 2 targets run the whole pipeline; rank 3 only sweeps, writes the
    # 21-graph catalog or rejects a target that is not on 5 vertices, so
    # each call stays fast; map-ltt, which takes no --rank, reads the target
    # as a map and refuses it
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "target.json"
        path.write_text(json.dumps(target))
        argv = command + ([] if command in (["sweep"], ["export", "catalog"]) else [str(path)])
        argv += [] if rank is None else ["--rank", str(rank)]
        argv += ["--out", str(Path(tmp) / "out")] + [arg for option in extra for arg in option]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert isinstance(exc.code, str) and "\n" not in exc.code
                code = 1
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("invalid target graph: ")
        assert err.getvalue().count("\n") == 1


def test_check_graph_oracle_samples(capsys):
    assert main(["check-graph", "--star", "--rank", "3",
                 "--oracle-samples", "30", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "birecurrency oracle agreement: 30/30" in out
    # only the oracle's sample reads the seed; alone it went unread, exit 0
    for extra in ([], ["--oracle-samples", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(["check-graph", "--star", "--rank", "3", "--seed", "5"] + extra)
        assert str(exc.value) == "error: --seed seeds the oracle's samples; give --oracle-samples"
    # a sample of at least all 120 structures checks each one, so --seed 1
    # and --seed 2 printed the same 120/120 and exited 0
    with pytest.raises(SystemExit) as exc:
        main(["check-graph", "--star", "--rank", "3", "--oracle-samples", "500", "--seed", "1"])
    assert exc.value.code == \
        "error: --oracle-samples 500 checks all 120 structures, so --seed goes unread; drop it"
    assert capsys.readouterr().out == ""


def test_oracle_samples_decode_only_the_sampled_structures(monkeypatch, capsys):
    # the sample is drawn as positions k*m + b, slice map k's image of base
    # member b, read off the verdict's own base slice: built once, and only
    # the sampled structures are decoded.  The oracle is made wrong on every
    # star structure, so each sampled one is printed or counted as a
    # disagreement
    import random

    import ttrose.cli
    import ttrose.diagram
    from oracles import epp_structure
    from ttrose.diagram import _base_slice, _rank_tables, star_target
    from ttrose.ltt import LttStructure
    from ttrose.whitehead import mask_pairs
    tables, base = _rank_tables(4), _base_slice(star_target(4), 4)
    maps, m = list(tables.maps.values()), len(base.masks)
    members = [LttStructure(4, 1, frozenset(mask_pairs(mask, tables.bits))) for mask in base.masks]
    expected = [epp_structure(maps[p // m], members[p % m])
                for p in random.Random(3).sample(range(336), 20)]
    checked, decoded, sliced = [], [], []
    decode, base_slice = ttrose.diagram._decode, ttrose.diagram._base_slice

    def wrong(G):
        checked.append(G)
        return True

    def counted(rank, keys):
        decoded.append(len(keys))
        return decode(rank, keys)

    def built(target, rank):
        sliced.append(rank)
        return base_slice(target, rank)

    monkeypatch.setattr(ttrose.cli, "brute_force_birecurrent", wrong)
    monkeypatch.setattr(ttrose.diagram, "_decode", counted)
    monkeypatch.setattr(ttrose.diagram, "_base_slice", built)
    assert main(["check-graph", "--star", "--rank", "4", "--oracle-samples", "20",
                 "--seed", "3"]) == 1
    out = capsys.readouterr().out
    assert checked == expected and decoded == [20] and sliced == [4]
    assert "birecurrency oracle agreement: 0/20" in out
    assert f"DISAGREEMENT on: {expected[0]}" in out


def test_oracle_disagreement_exits_1(monkeypatch, capsys):
    import ttrose.cli
    monkeypatch.setattr(ttrose.cli, "brute_force_birecurrent", lambda G: True)  # wrong on every star
    assert main(["check-graph", "--star", "--rank", "3", "--oracle-samples", "5"]) == 1
    out = capsys.readouterr().out
    assert "birecurrency oracle agreement: 0/5" in out
    assert "DISAGREEMENT on: ltt(rank=3" in out
    assert "verdict: UnachievedByBirecurrency" in out


def test_oracle_checks_the_birecurrency_the_verdict_decided(monkeypatch, tmp_path, capsys):
    # G5.02's base slice has 30 members, one of them birecurrent, so a
    # sample of all 720 structures agrees with the verdict; once the verdict
    # decides one K-orbit wrongly (its first birecurrent_turns call
    # flipped), the oracle must see the 24 images of that orbit's one member
    import ttrose.diagram
    graph = tmp_path / "g502.json"
    graph.write_text(json.dumps(MIDDLE))
    argv = ["check-graph", str(graph), "--rank", "3", "--oracle-samples", "720"]
    assert main(argv) == 0
    assert "birecurrency oracle agreement: 720/720" in capsys.readouterr().out
    decide, calls = ttrose.diagram.birecurrent_turns, []

    def flipped_first(rank, colored):
        calls.append(rank)
        return decide(rank, colored) != (len(calls) == 1)

    monkeypatch.setattr(ttrose.diagram, "birecurrent_turns", flipped_first)
    assert main(argv) == 1
    assert "birecurrency oracle agreement: 696/720" in capsys.readouterr().out


def test_artifacts_are_deterministic(tmp_path, capsys):
    graph = tmp_path / "mid.json"
    graph.write_text(json.dumps(MIDDLE))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        assert main(["export", "diagram", str(graph), "--rank", "3",
                     "--format", "json", "--out", str(out)]) == 0
        assert main(["export", "diagram", str(graph), "--rank", "3",
                     "--format", "dot", "--out", str(out)]) == 0
    # rank 4 too: star_p2 (672 nodes, 160 components) pins the node and
    # component order of a diagram larger than any at rank 3
    graph4 = tmp_path / "star_p2.json"
    graph4.write_text(json.dumps(STAR_P2))
    for out in (out1, out2):
        for fmt in ("json", "dot"):
            assert main(["export", "diagram", str(graph4), "--rank", "4",
                         "--format", fmt, "--out", str(out)]) == 0
    # every colored edge of a structure prints its color
    (tmp_path / "map.json").write_text(json.dumps(EXAMPLE))
    for out in (out1, out2):
        for fmt in ("json", "dot"):
            assert main(["export", "structures", str(graph), "--rank", "3",
                         "--format", fmt, "--out", str(out)]) == 0
            assert main(["export", "map-ltt", str(tmp_path / "map.json"),
                         "--format", fmt, "--out", str(out)]) == 0
    pinned = {
        "diagram_r3.json": "a330872810c0749a7b64647b7c8ebadc4ae25cbf9838b411d6bb78734922768c",
        "diagram_r3.dot": "8d983924d00ed05551f12b2535bac603f3934d7eaf5cc1cf4dbfb8fd3cd61be6",
        "diagram_r4.json": "ddc09f4f64f235ae42131fd9ca66902acae31100bf73c18ec1cc2f54b68d4d5e",
        "diagram_r4.dot": "d5130b7a2601d1b3255c6f38579d4049f8a412e9ec650696eae93532fbc6357c",
        "structures_r3.json": "6fdc20689cf96639227ab1016cb00a877c2e6c793f0654697a0e65644287b234",
        "structures_r3.dot": "51898a51a560b3bf6f2adc8913380b8e398165f9af79cfbc03b3fa6b83ee8134",
        "ltt.json": "1a31fc870d8c1944809dc1fe09d6528b0d53fc275962255c8676f14d549bf217",
        "ltt.dot": "cf83cd2ea85be7833ba0f64dcbdef44f5fa6e2c3fd78add6a04c9f4dca541dcc",
    }
    for name, digest in pinned.items():
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert hashlib.sha256((out1 / name).read_bytes()).hexdigest() == digest


def test_unwritable_out_is_one_line_error(tmp_path, capsys):
    graph = tmp_path / "mid.json"
    graph.write_text(json.dumps(MIDDLE))
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    for out in (blocked, blocked / "sub"):
        for argv in (["check-graph", str(graph), "--rank", "3"], ["sweep", "--rank", "4"],
                     ["export", "structures", "--star", "--rank", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out", str(out)])
            assert str(exc.value).startswith(f"error: cannot write {out}{os.sep}")
            assert "\n" not in str(exc.value)
    assert blocked.read_text() == "a file, not a directory"


def test_unwritable_out_fails_before_any_verdict(tmp_path, monkeypatch, capsys):
    # the whole rank-3 sweep, and every structure or diagram an export
    # built, used to run before its results could not be written; so did
    # they when an artifact's own path was a directory, and check-graph
    # checked only its JSON when it writes its DOT too
    import ttrose.cli

    def no_build(*args, **kwargs):
        raise AssertionError("a verdict or export ran before its output was checked")

    for builder in ("target_verdict", "iter_structures", "build_preliminary", "id_diagram"):
        monkeypatch.setattr(ttrose.cli, builder, no_build)
    graph = tmp_path / "mid.json"
    graph.write_text(json.dumps(MIDDLE))
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    commands = [(["sweep", "--rank", "3"], "sweep_r3.json"),
                (["check-graph", str(graph), "--rank", "3"], "diagram_r3.json"),
                (["check-graph", str(graph), "--rank", "3", "--format", "dot"], "diagram_r3.dot"),
                (["export", "structures", str(graph), "--rank", "3"], "structures_r3.json"),
                (["export", "diagram", str(graph), "--rank", "3", "--format", "dot"],
                 "diagram_r3.dot")]
    for argv, name in commands:
        for via_env in (False, True):
            monkeypatch.delenv("TTROSE_CACHE_DIR", raising=False)
            if via_env:
                monkeypatch.setenv("TTROSE_CACHE_DIR", str(blocked))
            with pytest.raises(SystemExit) as exc:
                main(argv if via_env else argv + ["--out", str(blocked)])
            assert str(exc.value).startswith(f"error: cannot write {blocked / name}: ")
            assert "\n" not in str(exc.value)
            assert capsys.readouterr().out == ""
    commands.append((["check-graph", str(graph), "--rank", "3"], "diagram_r3.dot"))
    for n, (argv, name) in enumerate(commands):
        out = tmp_path / f"out{n}"
        (out / name).mkdir(parents=True)
        for via_env in (False, True):
            monkeypatch.delenv("TTROSE_CACHE_DIR", raising=False)
            if via_env:
                monkeypatch.setenv("TTROSE_CACHE_DIR", str(out))
            with pytest.raises(SystemExit) as exc:
                main(argv if via_env else argv + ["--out", str(out)])
            assert str(exc.value).startswith(f"error: cannot write {out / name}: [Errno 21] ")
            assert capsys.readouterr().out == ""
            assert list(out.rglob("*")) == [out / name]


def test_out_dir_is_made_only_for_an_artifact(tmp_path, monkeypatch, capsys):
    # the early check creates nothing: a target with no birecurrent
    # structure has no diagram to write, and a failed run writes nothing
    import ttrose.cli
    out = tmp_path / "new" / "dir"
    for via_env in (False, True):
        monkeypatch.delenv("TTROSE_CACHE_DIR", raising=False)
        argv = ["check-graph", "--star", "--rank", "3"]
        if via_env:
            monkeypatch.setenv("TTROSE_CACHE_DIR", str(out))
        else:
            argv += ["--out", str(out)]
        assert main(argv) == 0
        assert "verdict: UnachievedByBirecurrency" in capsys.readouterr().out
        assert not (tmp_path / "new").exists()

    def failing(target, rank):
        raise RuntimeError("the run fails after the check")

    monkeypatch.setattr(ttrose.cli, "target_verdict", failing)
    for argv in (["sweep", "--rank", "3"], ["check-graph", "--star", "--rank", "3"]):
        with pytest.raises(RuntimeError):
            main(argv + ["--out", str(out)])
        assert not (tmp_path / "new").exists()


def test_sweep_writes_its_pinned_results(tmp_path, capsys):
    assert main(["sweep", "--rank", "3", "--out", str(tmp_path)]) == 0
    path = tmp_path / "sweep_r3.json"
    assert capsys.readouterr().out.splitlines()[-2:] == ["unachieved: 3 of 21", f"wrote {path}"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() \
        == "67b9aa93d03e4ca3af74ebb2dc876507d539ba2d771db8f7f5afca35cf566810"


def test_sweep_holds_one_diagram_at_a_time(monkeypatch, capsys):
    # each target's diagram is freed before the next verdict starts, so a
    # full rank-4 sweep peaks at its largest diagram, not the sum of two
    import gc
    import weakref

    import ttrose.cli
    from ttrose.diagram import target_verdict

    results, alive = [], []

    def recording(target, rank):
        gc.collect()
        alive.append(sum(ref() is not None for ref in results))
        result = target_verdict(target, rank)
        results.append(weakref.ref(result))
        return result

    monkeypatch.setattr(ttrose.cli, "target_verdict", recording)
    assert main(["sweep", "--rank", "3"]) == 0
    assert alive == [0] * 21


def test_export_structures_and_catalog(tmp_path, capsys):
    # the lists are written item by item, byte for byte as json.dump of the
    # whole list (indent 2, sorted keys) and the joined DOT texts would be
    from ttrose.diagram import enumerate_structures, star_target
    from ttrose.ltt import ltt_to_dot

    def dumped(name):
        text = (tmp_path / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        return json.loads(text)

    assert main(["export", "catalog", "--rank", "3", "--format", "json",
                 "--out", str(tmp_path)]) == 0
    assert len(dumped("catalog_n5.json")) == 21
    star = ["export", "structures", "--star", "--rank", "3", "--out", str(tmp_path)]
    assert main([*star, "--admissible-only", "--format", "json"]) == 0
    assert dumped("structures_r3_admissible.json") == []
    assert main([*star, "--format", "json"]) == 0
    structures = enumerate_structures(star_target(3), 3)
    assert dumped("structures_r3.json") == [G.to_json() for G in structures]
    assert main([*star, "--format", "dot"]) == 0
    assert (tmp_path / "structures_r3.dot").read_text() == \
        "\n".join(ltt_to_dot(G, f"ltt_{i}") for i, G in enumerate(structures))


def test_export_unknown_format(tmp_path, capsys):
    # usage errors are one line, exit 1 (a str code), like other input errors;
    # exit 2 stays reserved for an invalid target graph
    for argv in (["export", "catalog", "--rank", "3", "--format", "svg",
                  "--out", str(tmp_path)],
                 ["check-graph", "--star", "--rank", "x"],
                 ["sweep", "--rank", "3", "--bogus"],
                 # an export kind's options follow the kind
                 ["export", "--rank", "4", "catalog", "--out", str(tmp_path)],
                 []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code = exc.value.code
        assert isinstance(code, str) and code.startswith("error: ") and "\n" not in code
    assert capsys.readouterr().err == ""
    with pytest.raises(SystemExit) as exc:
        main(["export", "catalog", "--rank", "3", "--format", "dot", "--out", str(tmp_path)])
    # Python 3.12.8 and later print the choices without quotes
    invalid = "error: argument --format: invalid choice: 'dot' (choose from {})"
    assert exc.value.code in (invalid.format("'json'"), invalid.format("json"))
    assert capsys.readouterr().out == ""
    assert not list(tmp_path.iterdir())
    for argv in (["--version"], ["sweep", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


def test_cache_dir_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TTROSE_CACHE_DIR", str(tmp_path / "cache"))
    graph = tmp_path / "mid.json"
    graph.write_text(json.dumps(MIDDLE))
    assert main(["check-graph", str(graph), "--rank", "3"]) == 0
    assert (tmp_path / "cache" / "diagram_r3.json").exists()
    assert (tmp_path / "cache" / "diagram_r3.dot").exists()


def test_check_graph_format_needs_an_output_directory(tmp_path, monkeypatch, capsys):
    # --format only narrows which artifacts are written, so with nowhere to
    # write them it is an unread argument
    monkeypatch.delenv("TTROSE_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    graph = tmp_path / "mid.json"
    graph.write_text(json.dumps(MIDDLE))
    for fmt in ("dot", "json"):
        with pytest.raises(SystemExit) as exc:
            main(["check-graph", str(graph), "--rank", "3", "--format", fmt])
        code = exc.value.code
        assert isinstance(code, str) and code.startswith("error: ") and "\n" not in code
    assert capsys.readouterr().out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["mid.json"]
    # the environment's directory is an output directory too
    monkeypatch.setenv("TTROSE_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["check-graph", str(graph), "--rank", "3", "--format", "dot"]) == 0
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["diagram_r3.dot"]


def test_export_empty_diagram(tmp_path, capsys):
    assert main(["export", "diagram", "--star", "--rank", "3",
                 "--format", "dot", "--out", str(tmp_path)]) == 0
    dot = (tmp_path / "diagram_r3.dot").read_text()
    assert dot.startswith('digraph')
    assert "->" not in dot  # no admissible structures, no edges

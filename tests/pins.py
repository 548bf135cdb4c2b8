"""The pinned results, one record per check, run by tests/run_pins.py.

A record runs `cmd` with `stdin` in a fresh directory, its standard output going
to the file `stdout` there.  Each of `lines` is a line of that output, `files`
maps a path there to its sha256, `cap` is in seconds, and its peak RSS is at most
`rss` MB and `rss_of` = (name, ratio) times that earlier record's.
"""

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PY = sys.executable
P7 = '{"edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6]]}\n'
CHECK3 = "ttrose check-graph - --rank 3".split()
CHECK4 = "ttrose check-graph - --rank 4".split()
STRUCTURES = "ttrose export structures - --rank 4 --format".split()
IP = "verdict: UnachievedByIrreducibilityPotential"
SPIDER = '{"edges": [[0,1],[1,2],[0,3],[3,4],[0,5],[0,6],[0,7],[0,8]]}\n'
P5 = """echo '{"edges": [[0,1],[1,2],[2,3],[3,4]]}' > graph.json"""

# `ttrose sweep` decides all 21 graphs in one process on per-rank tables the
# earlier targets filled, while one `ttrose check-graph` per graph builds
# every table for its one target (the cold-table path of the benchmark's
# check_r3): each graph's counts and verdict must equal its sweep row
COLD = r"""
import json, re, subprocess
from ttrose.catalog import connected_simplicial_graphs
from ttrose.diagram import target_to_json
subprocess.run(["ttrose", "sweep", "--rank", "3", "--out", "."], check=True)
rows = {r["id"]: r for r in json.load(open("sweep_r3.json"))["results"]}
entries = connected_simplicial_graphs(5)
assert len(entries) == len(rows) == 21
for e in entries:
    out = subprocess.run(["ttrose", "check-graph", "-", "--rank", "3"], text=True, check=True,
                         input=json.dumps(target_to_json(e.graph())), capture_output=True).stdout
    s = re.search(r"^structures: (\d+) total, (\d+) birecurrent$", out, re.M)
    c = re.search(r"^ID diagram: (\d+) component", out, re.M)
    got = [int(s[1]), int(s[2]), int(c[1] if c else 0), re.search(r"^verdict: (\S+)$", out, re.M)[1]]
    r = rows[e.id]
    assert got == [r["structures"], r["admissible"], r["components"], r["verdict"]], (e.id, got, r)
"""

# every `ttrose export` line of the README, run as written, then each kind's
# --help, so that a documented invocation that stops parsing fails
EXPORTS = P5 + """
echo '{"rank": 2, "images": {"a": "b", "b": "ab"}}' > examples_map.json
grep '^ttrose export ' "$0" > export.sh
test "$(wc -l < export.sh)" -eq 4
bash -e export.sh
for f in diagram_r3.dot structures_r3_admissible.json catalog_n5.json ltt.dot; do test -s "out/$f"; done
for kind in diagram structures catalog map-ltt; do ttrose export "$kind" --help; done
"""

# every `ttrose check-graph` line of the README, run as written on the P5 of
# EXPORTS, the oracle's sample among them
CHECKS = P5 + """
grep '^ttrose check-graph ' "$0" > check.sh
test "$(wc -l < check.sh)" -eq 6
bash -e check.sh
"""

# the brute-force oracle on every structure of each of the 21 rank-3 graphs,
# each in its own check-graph: 17,472 structures against the birecurrency
# the verdict decided on one component per K-orbit of its base slice
ORACLE3 = r"""
import json, re, subprocess
from ttrose.catalog import connected_simplicial_graphs
from ttrose.diagram import target_to_json
entries = connected_simplicial_graphs(5)
assert len(entries) == 21
total = 0
for e in entries:
    out = subprocess.run(["ttrose", "check-graph", "-", "--rank", "3", "--oracle-samples", "100000"],
                         text=True, check=True, input=json.dumps(target_to_json(e.graph())),
                         capture_output=True).stdout
    n = int(re.search(r"^structures: (\d+) total", out, re.M)[1])
    assert f"birecurrency oracle agreement: {n}/{n}" in out.splitlines(), (e.id, out)
    total += n
print("rank-3 structures checked:", total)
"""

# the base slice's labeled copies, its K-orbits and its admissible K-orbits
P9 = """
from ttrose.diagram import _base_slice
from ttrose.whitehead import WhiteheadGraph
base = _base_slice(WhiteheadGraph.build(range(9), [(i, i + 1) for i in range(8)]), 5)
reps = set(base.reps)
print("P9:", len(base.masks), len(reps), sum(base.birecurrent[i] for i in reps))
"""

# random.Random(13).sample of the 853-graph catalog, decided again in reverse
# order in the same process, on the rank-4 tables the first round built
SEEDED = """
import hashlib, json, random
from ttrose.catalog import connected_simplicial_graphs
from ttrose.diagram import epp_classes, target_verdict
def row(entry):
    result = target_verdict(entry.graph(), 4)
    d = result.diagram
    return [entry.id, result.verdict, result.num_structures, result.num_admissible,
            len(d.components) if d else 0, len(epp_classes(d)) if d else 0]
sample = random.Random(13).sample(connected_simplicial_graphs(7), 16)
rows = [row(e) for e in sample]
assert [row(e) for e in reversed(sample)][::-1] == rows
print("sweep rows:", hashlib.sha256(json.dumps(rows).encode()).hexdigest())
"""

RECORDS = [
    # run.py exits 1 when a verdict, a count, an EPP class count or an
    # ID-diagram digest differs from perfbench/pins.json; the traced passes
    # stage the diagram through build_preliminary and id_diagram, not
    # target_verdict, so they pin that staging too
    *(dict(name=f"perfbench {w} trace {t}", cap=120, cmd=[PY, str(ROOT / "perfbench/run.py"),
           *f"--workload {w} --seed 1 --seconds 1 --trace {t}".split()])
      for t in (0, 1) for w in ("sweep_r3", "check_r3", "verdict_r4", "star_r3_8")),
    *(dict(name=f"star rank {r}", cmd=f"ttrose check-graph --star --rank {r}".split(), cap=10,
           lines=[f"structures: {n} total, 0 birecurrent", "verdict: UnachievedByBirecurrency"])
      for r, n in ((3, 120), (4, 336), (5, 720), (6, 1320), (7, 2184), (8, 3360))),
    dict(name="sweep rank 3", cmd="ttrose sweep --rank 3 --out .".split(), cap=10,
         lines=["unachieved: 3 of 21"],
         files={"sweep_r3.json": "67b9aa93d03e4ca3af74ebb2dc876507d539ba2d771db8f7f5afca35cf566810"}),
    *(dict(name=f"{g} flagged by IP", cmd=CHECK3, stdin=f'{{"edges": {e}}}\n', cap=10,
           lines=[IP, "EPP classes of components: 1"]) for g, e in (
        ("G5.02", "[[0,1],[0,2],[0,3],[0,4],[1,2]]"), ("G5.14", "[[0,1],[0,2],[0,3],[1,2],[1,4]]"))),
    dict(name="rank-3 graphs alone", cmd=[PY, "-c", COLD], cap=30, lines=["unachieved: 3 of 21"]),
    dict(name="README exports", cmd=["bash", "-ec", EXPORTS, str(ROOT / "README.md")], cap=30),
    dict(name="README check-graph lines", cmd=["bash", "-ec", CHECKS, str(ROOT / "README.md")],
         cap=30),
    # check-graph exits 1 when the birecurrency the verdict decided and the
    # brute-force covering-cycle search disagree on any sampled structure
    dict(name="G5.02 oracle", cmd=[*CHECK3, "--oracle-samples", "200"], cap=10, stdin=json.dumps(
        {"vertices": list(range(5)), "edges": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2]]}) + "\n"),
    dict(name="star rank 4 oracle", cap=10,
         cmd="ttrose check-graph --star --rank 4 --oracle-samples 200".split()),
    dict(name="rank-3 graphs oracle", cmd=[PY, "-c", ORACLE3], cap=30,
         lines=["rank-3 structures checked: 17472"]),
    # every order of proper full folds ends at the same images, so the map is
    # folded along the first fold at each step
    dict(name="unfoldable rank-4 map", cmd="ttrose analyze-map -".split(), cap=10,
         stdin=json.dumps({"rank": 4, "images": {"a": "a", "b": "da'dc'ba'ba'a'a'dc'ba'cd'a",
                                                 "c": "a'dc'ba'cd'a", "d": "d"}}) + "\n",
         lines=["fold decomposition: failed at step 12: maximal fold of turn (3, 5) is partial;"
                " quotient would not be a rose"]),
    # the whole fold report of oracles.EXAMPLE_MAP, its 9 generators among it
    dict(name="example map report", cmd="ttrose analyze-map -".split(), cap=10,
         stdin=json.dumps({"rank": 3, "images": {"a": "abacbabac'abacbaba", "b": "bac'",
                                                 "c": "ca'b'a'b'a'b'c'a'b'a'c"}}) + "\n",
         files={"stdout": "1c1ffc4449f7fb932fd75215508b75086a8a8b95a49812b570d889818bd39473"}),
    dict(name="P7", cmd=CHECK4, stdin=P7, cap=120, rss=300),
    # P7's oracle sample checks the birecurrency the verdict decided, reading
    # the verdict's own base slice and decoding only its 20 structures, so its
    # cost follows the sample, not the 120,960 structures: its peak stays within
    # 1.1 times the plain run's
    dict(name="P7 oracle sample", cmd=[*CHECK4, "--oracle-samples", "20", "--seed", "5"], stdin=P7,
         cap=120, rss=300, rss_of=("P7", 1.1),
         files={"stdout": "cbdb0bf2147839b1aee8f0f39983195b193a051a9c2851b0515b4656fc4b7ea7"}),
    # the digests pin every node, edge and component and their order
    dict(name="P7 diagram", cmd=[*CHECK4, "--out", "."], stdin=P7, cap=120, rss=300,
         lines=["structures: 120960 total, 33792 birecurrent", "EPP classes of components: 3",
                "ID diagram: 577 component(s), 80640 preliminary edge(s)"],
         files={"diagram_r4.json": "64099a742fc9cea2bf51647de67898404fd334e90ad692e0870e65898060c373",
                "diagram_r4.dot": "b6bcb14bc211f1a72e313d26f648b9e025829ec4af9bbd5d172bdd0eb3f0d7f4"}),
    dict(name="P7 loops", cmd=[*CHECK4, "--max-loop-len", "2"], stdin=P7, cap=60,
         lines=["verdict: Inconclusive"],
         files={"stdout": "d92880786c65efa858ae205df574a1c12c24c2ed24762ff17cde1c5011231044"}),
    # P7's loops are all "0 fully ideal"; at P5, 12 components have a loop
    # whose composite verify_loop accepts
    dict(name="P5 loops", cmd=[*CHECK3, "--max-loop-len", "4"], cap=10,
         stdin='{"edges": [[0,1],[1,2],[2,3],[3,4]]}\n',
         lines=["  component 2: 9 loop(s) of length <= 4 at its first node; 1 fully ideal"],
         files={"stdout": "bc6f884d2186f0045f3a1c77d15690c58440564511cbcfcdd7ea4268edb607e7"}),
    *(dict(name=f"P7 admissible structures {fmt}", stdin=P7, cap=60,
           cmd=[*STRUCTURES, fmt, "--admissible-only"],
           files={f"structures_r4_admissible.{fmt}": digest}) for fmt, digest in (
        ("json", "9b2d45f0d82fe5a34bd5fd6325ccbd39dbb94ab1a47b795934501b434c91938c"),
        ("dot", "038bd26184d76cbc66bbbb006e2a70c22f80d5da2d25acd21ace7c865e97f33a"))),
    # each structure is decoded from its sorted key and encoded as it is
    # written, so the peak is the keys', not the 120,960 structures'
    dict(name="P7 structures", cmd=[*STRUCTURES, "json"], stdin=P7, cap=120, rss=60,
         files={"structures_r4.json": "b1d8a5dadfcac3e63caac754cc7665082abbcd0943eee367b5a98dd19a2a4183"}),
    # K13's one class is read off the diagram's quotient by EPP, imaging no
    # node under the 645,120 elements of EPP
    dict(name="K13 rank 7", cmd="ttrose check-graph - --rank 7".split(), cap=30,
         stdin=json.dumps({"edges": list(itertools.combinations(range(13), 2))}) + "\n",
         lines=["structures: 168 total, 168 birecurrent", "EPP classes of components: 1"]),
    # the spider S(2,2,1^4), flagged by IP outside the paper's families
    dict(name="spider rank 5", cmd="ttrose check-graph - --rank 5".split(), cap=30, stdin=SPIDER,
         lines=["structures: 604800 total, 7680 birecurrent", "EPP classes of components: 4", IP,
                "ID diagram: 2880 component(s), 11520 preliminary edge(s)"],
         files={"stdout": "5a243f91c63faeaf89cb28cb9b0db99d6e8703603a9b8f1d67507d8f249d3b1a"}),
    # its oracle sample decodes 20 of the 604,800 structures off the
    # verdict's base slice, so its peak stays within 1.1 times the plain run's
    dict(name="spider oracle sample", cap=30, stdin=SPIDER, rss_of=("spider rank 5", 1.1),
         cmd="ttrose check-graph - --rank 5 --oracle-samples 20 --seed 5".split(),
         lines=["birecurrency oracle agreement: 20/20", IP]),
    dict(name="P9 base slice", cmd=[PY, "-c", P9], cap=60, lines=["P9: 181440 3780 1393"]),
    dict(name="sixteen seeded rank-4 targets", cmd=[PY, "-c", SEEDED], cap=120, rss=75,
         lines=["sweep rows: 6e6238c224de74ec07c702685806909e8dae216296abf6d4f14138764946a91f"]),
    dict(name="rank-4 catalog", cmd="ttrose export catalog --rank 4".split(), cap=60,
         files={"catalog_n7.json": "2a85284ac0bfb0766b4c759387c43ffcfc2e47b94bf4c9d0482b3798890960d7"}),
]

"""Write pins.json: every workload's targets and their expected outputs.

Run from the repository root with `PYTHONPATH=src python3 perfbench/make_pins.py`.
The pins record the library's outputs on its own vertex labels; the
benchmark relabels targets by its seed and checks the same outputs.
Regenerate only for a change that is meant to alter verdicts, counts or
diagrams, and say so where the change is recorded.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

from ttrose.catalog import connected_simplicial_graphs
from ttrose.diagram import epp_classes, star_target, target_verdict
from ttrose.whitehead import WhiteheadGraph

from worker import EPP_WORKLOADS, outputs

STAR7 = [(0, i) for i in range(1, 7)]

# Rank-4 targets on vertices 0..6, chosen to load the diagram layers at
# rank 4 in different proportions (see BENCHMARK.json for the workload).
RANK4 = {
    "broom": [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6)],
    "star_p1": STAR7 + [(1, 2)],
    "star_p2": STAR7 + [(1, 2), (3, 4)],
    "star_p3": STAR7 + [(1, 2), (3, 4), (5, 6)],
    "k5_2pend": list(itertools.combinations(range(5), 2)) + [(4, 5), (4, 6)],
    "k24_pend": [(a, b) for a in (0, 1) for b in (2, 3, 4, 5)] + [(0, 6)],
    "k34": [(a, b) for a in (0, 1, 2) for b in (3, 4, 5, 6)],
    "c7": [(i, (i + 1) % 7) for i in range(7)],
}


def target_sets() -> dict[str, list[tuple[str, int, WhiteheadGraph]]]:
    rank3 = [(e.id, 3, e.graph()) for e in connected_simplicial_graphs(5)]
    return {
        "sweep_r3": rank3,
        "check_r3": rank3,
        "verdict_r4": [(name, 4, WhiteheadGraph.build(range(7), edges))
                       for name, edges in RANK4.items()],
        "star_r3_8": [(f"star_r{r}", r, star_target(r)) for r in range(3, 9)],
    }


def pin(name: str, ident: str, rank: int, graph: WhiteheadGraph) -> dict:
    result = target_verdict(graph, rank)
    classes = None
    if name in EPP_WORKLOADS and result.diagram is not None:
        classes = epp_classes(result.diagram)
    return {
        "id": ident,
        "rank": rank,
        "vertices": len(graph.vertices),
        "edges": [list(e) for e in graph.sorted_edges()],
        "expected": outputs(result, classes),
    }


def main() -> int:
    pins = {"workloads": {}}
    for name, targets in target_sets().items():
        pins["workloads"][name] = {"targets": [pin(name, *t) for t in targets]}
        print(f"{name}: {len(targets)} targets", file=sys.stderr)
    path = Path(__file__).with_name("pins.json")
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of a benchmark workload, in a fresh interpreter.

`run.py` starts this script once per pass and once per set-up probe, with
`src` on PYTHONPATH, and reads one JSON object from its standard output.

A pass builds the workload's targets, then runs the verdict on each one
inside a timed region, either through the library's own `target_verdict`
(untraced) or through the same stages called one by one inside trace
spans (traced).  Outputs are digested for the pinned-value check after
each target's timed region, so checking costs no measured time.

The host's speed drifts by more than ten percent over minutes, with
nothing of this benchmark running, so every time is also reported scaled
to a reference speed.  A fixed pure-Python loop (`calibrate`) is timed
just before and just after every timed region, and inside it every
SAMPLE_EVERY_S of CPU time from a SIGPROF handler; the region's time is
multiplied by REFERENCE_CAL_S over the mean of its samples.  The time the
samples inside a region take is taken off the region and off every span
that was open.  The loop touches nothing of ttrose and runs with the
garbage collector off, so the program's heap cannot slow it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import random
import resource
import signal
import sys
import time

from ttrose.catalog import connected_simplicial_graphs
from ttrose.diagram import (
    INCONCLUSIVE,
    UNACHIEVED_BIRECURRENCY,
    UNACHIEVED_IRREDUCIBILITY,
    VerdictResult,
    build_preliminary,
    diagram_to_json,
    enumerate_structures,
    epp_classes,
    epp_elements,
    id_diagram,
    irreducibility_potential_test,
    target_verdict,
)
from ttrose.ltt import is_birecurrent
from ttrose.moves import determining_edges
from ttrose.whitehead import WhiteheadGraph

# A target running longer than this is stopped and recorded as a timeout.
TARGET_CAP_S = 60.0

# A calibration sample is one run of the loop inside a timed region and
# the median of five around it; the reference is the loop's median time
# on a 2-CPU x86-64 host with Python 3.11.7.  Short, frequent samples
# inside a region track the host's speed better than longer, sparser ones
# of the same total cost; together they add about 4% to a run's length.
CAL_ITERS = 5_000
REFERENCE_CAL_S = 0.0019
SAMPLE_EVERY_S = 0.05

# The workloads that end in the check-graph path (verdict plus EPP classes);
# the others stop at the verdict, as `ttrose sweep` does.
EPP_WORKLOADS = {"check_r3"}


def now() -> float:
    """Seconds on the system-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate(reps: int = 5) -> float:
    """Seconds of one calibration sample: a fixed mix of the tuple, dict,
    list and set work that the library does, independent of the library.
    It holds well under a megabyte, so it does not move peak RSS."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            start = now()
            counts: dict = {}
            keys = []
            for i in range(CAL_ITERS):
                key = (i % 31, i % 29)
                counts[key] = counts.get(key, 0) + 1
                keys.append(key)
                if len(keys) == 256:
                    set(keys)
                    keys.clear()
            sorted(counts.items())
            times.append(now() - start)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[len(times) // 2]


class TargetTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise TargetTimeout


class Tracer:
    """Spans kept in memory: name, start, end, parent span index, target id,
    and the calibration time inside the span (`paused`)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, target: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if target is None and parent is not None:
            target = self.spans[parent]["target"]
        index = len(self.spans)
        record = {"name": name, "start": now(), "end": None, "paused": 0.0,
                  "parent": parent, "target": target}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = now()
            self._stack.pop()

    def pause(self, seconds: float) -> None:
        for index in self._stack:
            self.spans[index]["paused"] += seconds


class Sampler:
    """Times one region at a time, with calibration samples around and inside it."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.samples: list[float] = []
        self.paused = 0.0
        self.started = 0.0
        signal.signal(signal.SIGPROF, self._tick)

    def start(self) -> None:
        self.samples = [calibrate()]
        self.paused = 0.0
        self.started = now()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> tuple[float, float]:
        """Ends the region; returns its seconds without the samples inside
        it, and the factor from this host's speed over the region to the
        reference speed."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        seconds = now() - self.started - self.paused
        self.samples.append(calibrate())
        return seconds, REFERENCE_CAL_S * len(self.samples) / sum(self.samples)

    def _tick(self, signum, frame) -> None:
        start = now()
        self.samples.append(calibrate(reps=1))
        seconds = now() - start
        self.paused += seconds
        if self.tracer is not None:
            self.tracer.pause(seconds)


def traced_verdict(tracer: Tracer, target: WhiteheadGraph, rank: int) -> VerdictResult:
    """`target_verdict`, stage by stage, with a span around each library call."""
    with tracer.span("diagram.enum"):
        raw = enumerate_structures(target, rank, admissible_only=False)
    with tracer.span("ltt.birec"):
        admissible = [G for G in raw if is_birecurrent(G)]
    if not admissible:
        return VerdictResult(UNACHIEVED_BIRECURRENCY, len(raw), 0, None, None)
    with tracer.span("moves.prelim"):
        prelim = build_preliminary(target, rank, nodes=admissible)
    with tracer.span("diagram.id"):
        diagram = id_diagram(target, rank, preliminary=prelim)
    with tracer.span("diagram.ip"):
        ip = irreducibility_potential_test(diagram)
    verdict = UNACHIEVED_IRREDUCIBILITY if ip.overall_unachieved else INCONCLUSIVE
    return VerdictResult(verdict, len(raw), len(admissible), diagram, ip)


def relabeled(edges, perm: list[int]) -> WhiteheadGraph:
    return WhiteheadGraph.build(range(len(perm)), [(perm[u], perm[v]) for u, v in edges])


def build_inputs(workload: dict, seed: int) -> list[dict]:
    """The workload's targets in seeded order, each with its vertices
    relabeled by a seeded permutation.  Every pinned output is
    independent of vertex labels."""
    rng = random.Random(seed)
    order = list(workload["targets"])
    rng.shuffle(order)
    jobs = []
    for pin in order:
        perm = list(range(pin["vertices"]))
        rng.shuffle(perm)
        jobs.append({"pin": pin, "graph": relabeled(pin["edges"], perm)})
    return jobs


def diagram_digest(diagram) -> str:
    data = diagram_to_json(diagram)
    del data["target"]
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def outputs(result: VerdictResult, classes) -> dict:
    """The label-independent outputs that are pinned."""
    diagram = result.diagram
    return {
        "verdict": result.verdict,
        "structures": result.num_structures,
        "admissible": result.num_admissible,
        "components": len(diagram.components) if diagram else 0,
        "epp_classes": None if classes is None else len(classes),
        "digest": diagram_digest(diagram) if diagram else None,
    }


def counts(result: VerdictResult, classes) -> dict:
    """Work done and outcomes per layer, for the traced run."""
    diagram = result.diagram
    c = {
        "diagram.enum.structures": result.num_structures,
        "ltt.birec.calls": result.num_structures,
        "ltt.birec.admissible": result.num_admissible,
        "moves.prelim.attempts": 0,
        "moves.prelim.edges": 0,
        "diagram.id.components": 0,
        "diagram.id.nodes": 0,
        "diagram.ip.passing": 0,
        "diagram.epp.images": 0,
        "diagram.epp.classes": 0,
        "verdict.unachieved_birec": int(result.verdict == UNACHIEVED_BIRECURRENCY),
        "verdict.unachieved_ip": int(result.verdict == UNACHIEVED_IRREDUCIBILITY),
        "verdict.inconclusive": int(result.verdict == INCONCLUSIVE),
    }
    if diagram is not None:
        prelim = diagram.preliminary
        c["moves.prelim.attempts"] = 2 * sum(len(determining_edges(G)) for G in prelim.nodes)
        c["moves.prelim.edges"] = len(prelim.edges)
        c["diagram.id.components"] = len(diagram.components)
        c["diagram.id.nodes"] = sum(len(comp.nodes) for comp in diagram.components)
        c["diagram.ip.passing"] = sum(result.ip.per_component)
    if classes is not None:
        c["diagram.epp.images"] = len(diagram.components) * len(epp_elements(diagram.rank))
        c["diagram.epp.classes"] = len(classes)
    return c


def run_target(job: dict, epp: bool, tracer: Tracer | None, sampler: Sampler,
               deadline: float) -> dict:
    pin = job["pin"]
    record = {"id": pin["id"]}
    cap = min(TARGET_CAP_S, deadline - now())
    if cap <= 0:
        return {**record, "status": "timeout", "cap_s": 0.0}
    target, rank = job["graph"], pin["rank"]
    classes = None
    sampler.start()
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        if tracer is None:
            result = target_verdict(target, rank)
            if epp and result.diagram is not None:
                classes = epp_classes(result.diagram)
        else:
            with tracer.span("target", pin["id"]):
                result = traced_verdict(tracer, target, rank)
                if epp and result.diagram is not None:
                    with tracer.span("diagram.epp"):
                        classes = epp_classes(result.diagram)
    except TargetTimeout:
        seconds, factor = sampler.stop()
        return {**record, "status": "timeout", "cap_s": cap, "seconds": seconds,
                "scale": factor}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    record["seconds"], record["scale"] = sampler.stop()
    # read before this target's outputs are digested; ru_maxrss is a high-water mark
    record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["status"] = "ok"
    record["outputs"] = outputs(result, classes)
    record["counts"] = counts(result, classes)
    return record


def run_pass(name: str, jobs: list[dict], tracer: Tracer | None, deadline: float) -> dict:
    """Wall time of the pass (`wall_s`), the same scaled to the reference
    speed (`ref_s`) and each target's scale factor, keyed by the target id
    its spans carry."""
    epp = name in EPP_WORKLOADS
    sampler = Sampler(tracer)
    wall = ref = 0.0
    scales = {}
    catalog = None
    if name == "sweep_r3":
        # `ttrose sweep --rank 3` builds the catalog before its verdicts
        sampler.start()
        if tracer is None:
            entries = connected_simplicial_graphs(5)
        else:
            with tracer.span("catalog", "catalog"):
                entries = connected_simplicial_graphs(5)
        seconds, scales["catalog"] = sampler.stop()
        wall += seconds
        ref += seconds * scales["catalog"]
        catalog = [[e.id, [list(edge) for edge in e.edges]] for e in entries]
    records = []
    for job in jobs:
        record = run_target(job, epp, tracer, sampler, deadline)
        if "seconds" in record:
            wall += record["seconds"]
            ref += record["seconds"] * record["scale"]
            scales[record["id"]] = record["scale"]
        records.append(record)
    rss_kb = max((r["rss_kb"] for r in records if "rss_kb" in r), default=0)
    return {"wall_s": wall, "ref_s": ref, "scales": scales, "rss_kb": rss_kb,
            "catalog": catalog, "targets": records}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--spawned", type=float, required=True,
                   help="monotonic clock reading taken just before this process started")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pins", required=True)
    p.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    p.add_argument("--deadline", type=float, required=True,
                   help="monotonic clock reading after which no target starts")
    p.add_argument("--index", type=int,
                   help="run only this target of the seeded order (default: all)")
    args = p.parse_args(argv)
    with open(args.pins) as f:
        workload = json.load(f)["workloads"][args.workload]
    jobs = build_inputs(workload, args.seed)
    if args.index is not None:
        jobs = jobs[args.index:args.index + 1]
    setup = now() - args.spawned
    out = {"setup_s": setup, "setup_ref_s": setup * REFERENCE_CAL_S / calibrate()}
    if args.mode != "setup":
        signal.signal(signal.SIGALRM, _on_alarm)
        tracer = Tracer() if args.mode == "traced" else None
        out.update(run_pass(args.workload, jobs, tracer, args.deadline))
        out["spans"] = tracer.spans if tracer else []
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of ttrose verdicts.

    python3 perfbench/run.py --workload sweep_r3 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from
`src`, nothing is installed.  Workloads (the reasons are in BENCHMARK.json):

  sweep_r3    `ttrose sweep --rank 3`: the 5-vertex catalog, then the
              verdict on its 21 graphs
  check_r3    the `check-graph` path on the same 21 graphs: verdict plus
              EPP classes of the ID diagram's components
  verdict_r4  the verdict on 8 pinned rank-4 targets
  star_r3_8   the verdict on the star target at ranks 3 to 8

The load is one process with one thread, closed loop: each pass runs the
workload's targets one after another in a fresh interpreter (worker.py),
so caches, GC state and peak RSS start clean in every pass.  Passes repeat
until --seconds have been measured, always at least one; a workload whose
pass is longer than --seconds runs exactly one.  Set-up time is measured
on separate probes that start an interpreter, import ttrose and build the
inputs, and on every pass.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics (medians over passes):
  wall_s       time of one pass of the workload
  setup_s      interpreter start, `import ttrose` and building the inputs
  peak_rss_mb  peak resident memory of a pass
  ok_frac      targets with the pinned outputs, over targets attempted

Every time the object holds, per-layer ones too, is in seconds at a
reference speed of the host: a small shared host drifts by more than ten
percent over minutes, which no length of run averages out.  worker.py
times a fixed pure-Python loop, independent of ttrose, right before and
after every timed region and every 0.05 s of CPU time inside it, and
scales the region's time by the loop's reference time over its mean
measured time.
A change to the program moves the scaled time as much as the raw one.
The raw wall time of every pass is printed above the result line.

With --trace 1 the passes alternate untraced and traced, and the object
holds per-layer metrics from the traced passes: self time per layer span,
work counts, yields, verdict tallies, the tracing overhead and the share
of traced wall time that layer spans cover.  The spans are written to
perfbench/out/.  A layer that a workload never reaches reports 0.  The
end-to-end metric each layer metric should move:
  catalog.*                 wall_s on sweep_r3 (a small share)
  diagram.enum.*            wall_s on verdict_r4 and star_r3_8
  ltt.birec.*               wall_s on star_r3_8 (nearly all of it), sweep_r3
                            and verdict_r4; calls also peak_rss_mb on verdict_r4
  moves.prelim.*            wall_s on sweep_r3 and verdict_r4
  diagram.id.*              wall_s on verdict_r4
  diagram.epp.*             wall_s on check_r3 only
  diagram.ip.*, verdict.*   none (bookkeeping and tallies)

Every target's verdict, structure counts, component count, EPP class count
(check_r3) and ID-diagram digest are checked against pins.json.  A target
that differs, fails or exceeds its time cap counts as failed, and then the
run exits 1 after printing its result.  The seed shuffles the target order
and relabels every target's vertices; the pinned outputs do not depend on
labels.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PINS = HERE / "pins.json"
OUT = HERE / "out"

WORKLOADS = ("sweep_r3", "check_r3", "verdict_r4", "star_r3_8")

# No target starts later than this after the run begins, so a run ends
# well inside three minutes even when targets time out.
RUN_BUDGET_S = 150.0
# Extra time a worker gets to digest outputs after the last target.
WORKER_GRACE_S = 20.0
SETUP_PROBES = 10
# These workloads model one `check-graph` call per target, so every target
# runs in its own interpreter and peak RSS is that of the largest target.
# The others model one long-lived `ttrose sweep` process.
PER_TARGET = {"check_r3", "verdict_r4"}
# The paper's rank-3 result: 3 of the 21 graphs are flagged unachieved.
FLAGGED_R3 = 3

LAYERS = ("catalog", "diagram.enum", "ltt.birec", "moves.prelim",
          "diagram.id", "diagram.ip", "diagram.epp")
COUNTS = ("diagram.enum.structures", "ltt.birec.calls", "ltt.birec.admissible",
          "moves.prelim.attempts", "moves.prelim.edges", "diagram.id.components",
          "diagram.id.nodes", "diagram.ip.passing", "diagram.epp.images",
          "diagram.epp.classes", "verdict.unachieved_birec", "verdict.unachieved_ip",
          "verdict.inconclusive")


def now() -> float:
    """Seconds on the system-wide monotonic clock; worker.py reads the same clock."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment(args) -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def spawn(args, mode: str, deadline: float, index: int | None = None) -> dict | None:
    """Run one worker to completion; None when it crashed or hung."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--pins", str(args.pins), "--mode", mode,
           "--deadline", repr(deadline)]
    if index is not None:
        cmd += ["--index", str(index)]
    limit = max(deadline - now(), 0.0) + WORKER_GRACE_S
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(now())], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        print(f"worker ({mode}) exceeded {limit:.0f} s and was stopped", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def run_pass(args, mode: str, num_targets: int, deadline: float) -> dict | None:
    """One pass of the workload, merged from its workers; None when one failed."""
    if args.workload in PER_TARGET:
        parts = [spawn(args, mode, deadline, i) for i in range(num_targets)]
    else:
        parts = [spawn(args, mode, deadline)]
    if None in parts:
        return None
    return {"wall_s": sum(p["wall_s"] for p in parts),
            "ref_s": sum(p["ref_s"] for p in parts),
            "scales": {k: v for p in parts for k, v in p["scales"].items()},
            "rss_kb": max(p["rss_kb"] for p in parts),
            "setups": [p["setup_ref_s"] for p in parts],
            "catalog": parts[0]["catalog"],
            "targets": [t for p in parts for t in p["targets"]],
            "spans": [p["spans"] for p in parts]}


def check_pass(workload: str, pins: list[dict], result: dict | None,
               problems: list[str]) -> tuple[int, int]:
    """Compare one pass with the pins; returns (attempted, failed)."""
    if result is None:
        problems.append("a worker failed; all its targets count as failed")
        return len(pins), len(pins)
    if workload == "sweep_r3":
        expected = [[p["id"], p["edges"]] for p in pins]
        if result["catalog"] != expected:
            problems.append("catalog differs from the pinned 5-vertex graphs")
    expected = {p["id"]: p["expected"] for p in pins}
    failed = 0
    for rec in result["targets"]:
        if rec["status"] != "ok":
            problems.append(f"{rec['id']}: {rec['status']} (cap {rec['cap_s']:.1f} s)")
            failed += 1
        elif rec["outputs"] != expected[rec["id"]]:
            problems.append(f"{rec['id']}: outputs differ from the pins")
            failed += 1
    if workload in ("sweep_r3", "check_r3") and failed == 0:
        flagged = sum(rec["outputs"]["verdict"] != "Inconclusive" for rec in result["targets"])
        if flagged != FLAGGED_R3:
            problems.append(f"rank 3 flags {flagged} graphs, the paper flags {FLAGGED_R3}")
    return len(pins), failed


def self_times(span_lists: list[list[dict]], scales: dict[str, float]) -> dict[str, float]:
    """Per span name: span durations minus the time their child spans cover,
    without calibration time, scaled to the reference speed by the factor
    of the span's target.
    Each list holds one worker's spans; parents index into the same list."""
    out: dict[str, float] = defaultdict(float)
    for spans in span_lists:
        for s in spans:
            seconds = (s["end"] - s["start"] - s["paused"]) * scales[s["target"]]
            out[s["name"]] += seconds
            if s["parent"] is not None:
                out[spans[s["parent"]]["name"]] -= seconds
    return out


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    walls = [p["ref_s"] for p in traced]
    selfs = [self_times(p["spans"], p["scales"]) for p in traced]
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.s"] = (statistics.median(s.get(layer, 0.0) for s in selfs), "s")
    total: Counter = Counter()
    for rec in traced[0]["targets"]:
        total.update(rec.get("counts", {}))
    for name in COUNTS:
        m[name] = (total[name], "count")
    m["catalog.graphs"] = (len(traced[0]["catalog"] or ()), "count")
    m["ltt.birec.yield"] = (_ratio(total["ltt.birec.admissible"], total["ltt.birec.calls"]),
                            "frac")
    m["moves.prelim.yield"] = (_ratio(total["moves.prelim.edges"],
                                      total["moves.prelim.attempts"]), "frac")
    m["trace.overhead_s"] = (statistics.median(walls)
                             - statistics.median(p["ref_s"] for p in untraced), "s")
    m["trace.layer_share"] = (statistics.median(
        sum(s.get(layer, 0.0) for layer in LAYERS) / w for s, w in zip(selfs, walls)), "frac")
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def write_trace(args, env: dict, traced: list[dict], metrics: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
    payload = {"environment": env,
               "passes": [{"wall_s": p["wall_s"], "ref_s": p["ref_s"], "scales": p["scales"],
                           "spans": p["spans"]} for p in traced],
               "metrics": metrics}
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--pins", type=Path, default=PINS,
                   help="pinned outputs to check against (default: pins.json)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "ttrose" / "__init__.py").is_file():
        print(f"error: no ttrose sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    pins = json.loads(args.pins.read_text())["workloads"][args.workload]["targets"]
    env = environment(args)
    print("environment: " + json.dumps(env, sort_keys=True))

    deadline = now() + RUN_BUDGET_S
    setups = []
    for _ in range(SETUP_PROBES):
        probe = spawn(args, "setup", deadline)
        if probe is not None:
            setups.append(probe["setup_ref_s"])
    modes = ("untraced", "traced") if args.trace else ("untraced",)
    runs: dict[str, list] = {mode: [] for mode in modes}
    start = now()
    while True:
        for mode in modes:
            t0 = now()
            runs[mode].append(run_pass(args, mode, len(pins), deadline))
            last = now() - t0
        if now() - start >= args.seconds or now() + last > deadline:
            break

    problems: list[str] = []
    attempted = failed = 0
    for mode in modes:
        for result in runs[mode]:
            a, f = check_pass(args.workload, pins, result, problems)
            attempted += a
            failed += f
    passes = {mode: [r for r in runs[mode] if r is not None] for mode in modes}
    for mode in modes:
        for r in passes[mode]:
            setups.extend(r["setups"])
            print(f"{mode} pass: wall {r['wall_s']:.3f} s, at reference speed {r['ref_s']:.3f} s,"
                  f" peak RSS {r['rss_kb'] / 1024:.1f} MB")
    for line in dict.fromkeys(problems):
        print(f"FAIL: {line}")

    metrics: dict[str, tuple[float, str]] = {}
    if all(passes.values()):
        if args.trace:
            metrics = layer_metrics(passes["untraced"], passes["traced"])
            print(f"spans written to {write_trace(args, env, passes['traced'], metrics)}")
        else:
            untraced = passes["untraced"]
            metrics = {
                "wall_s": (statistics.median(r["ref_s"] for r in untraced), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (statistics.median(r["rss_kb"] for r in untraced) / 1024, "MB"),
                "ok_frac": (1 - failed / attempted, "frac"),
            }
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

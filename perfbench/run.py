#!/usr/bin/env python3
"""PDSL benchmark runner: builds pdsl_perfbench from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mnist_full8 --seed 1 --seconds 45 --trace 0

The pdsl_perfbench binary and the library are built into
.bench_build/perfbench (an incremental no-op after the first run). --trace 0
prints the end-to-end metrics, --trace 1 the per-layer metrics from a
separate traced run whose Chrome trace is written to .bench_build/traces/. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics. See
perfbench/README.md for workloads, metric definitions and the layer map.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "pdsl_perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
RUN_TIMEOUT_S = 170
PHASES = ("local_grad", "crossgrad", "shapley", "aggregate", "gossip")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step with its output on stderr; True when it succeeded."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources (src/) next to perfbench/; nothing to build")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs])


def check_trace(path):
    """Independent checks on the written trace: it parses, every run_round span
    has its phase spans as children from the same round, and they do not cover
    more than the round."""
    problems = []
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return ["trace file does not parse: %s" % e]
    by_id = {ev["args"]["id"]: ev for ev in events}
    children = {}
    for ev in events:
        children.setdefault(ev["args"]["parent"], []).append(ev)
    rounds = [ev for ev in events if ev["name"] == "run_round"]
    if not rounds:
        problems.append("no run_round spans")
    for r in rounds:
        kids = children.get(r["args"]["id"], [])
        names = {k["name"] for k in kids}
        if not names & set(PHASES):
            problems.append("round %d has no phase spans" % r["args"]["round"])
            break
        covered = sum(k["dur"] for k in kids)
        if covered > r["dur"] * (1 + 1e-9) + 1e-3:
            problems.append("round %d phases exceed the round" % r["args"]["round"])
            break
        if any(k["args"]["round"] != r["args"]["round"] for k in kids):
            problems.append("round %d has a child from another round" % r["args"]["round"])
            break
    for ev in events:
        if ev["args"]["parent"] and ev["args"]["parent"] not in by_id:
            problems.append("span %s has a missing parent" % ev["name"])
            break
    return problems


def print_probe_table(m):
    """Each probe beside the in-situ time it explains (per round, ms)."""
    v = {k: x["value"] for k, x in m.items()}
    grads = v["dp.releases_per_round"] or 0.0
    rows = [
        ("dp noise x releases", v["dp.noise_ms_per_round"],
         "local_grad+crossgrad", v["core.local_grad_ms"] + v["core.crossgrad_ms"]),
        ("nn loss_and_backward x releases", v["nn.loss_and_backward_ms"] * grads,
         "local_grad+crossgrad", v["core.local_grad_ms"] + v["core.crossgrad_ms"]),
        ("shapley score x evals (linear)",
         v["shapley.linear_score_us"] * v["shapley.evals_per_round"] / 1e3,
         "shapley", v["core.shapley_ms"]),
        ("shapley score x evals (sequential)",
         v["shapley.sequential_score_us"] * v["shapley.evals_per_round"] / 1e3,
         "shapley", v["core.shapley_ms"]),
        ("wire round-trip x frames", v["net.wire_roundtrip_us"] * v["net.wire_frames_per_round"] / 1e3,
         "crossgrad+gossip", v["core.crossgrad_ms"] + v["core.gossip_ms"]),
        ("send+receive x messages", v["net.send_recv_us"] * v["net.msgs_per_round"] / 1e3,
         "crossgrad+gossip", v["core.crossgrad_ms"] + v["core.gossip_ms"]),
        ("parallel_for barrier x 5 phases", v["runtime.parallel_for_us"] * 5 / 1e3,
         "round", v["core.round_ms"]),
    ]
    log("probe (ms/round)                         probe    | in-situ")
    for name, probe, where, insitu in rows:
        log("  %-36s %9.3f | %-22s %9.3f" % (name, probe, where, insitu))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(TRACE_DIR, "%s-seed%d.trace.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_path]
    env = dict(os.environ)
    env.pop("PDSL_KERNEL_BACKEND", None)  # measure the library's default backend
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        log("perfbench: pdsl_perfbench exited with %d" % proc.returncode)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    result = report["result"]
    log("fingerprint: " + json.dumps(report["fingerprint"], sort_keys=True))
    failed = [c for c in report["checks"] if not c["ok"]]
    log("checks: %d passed, %d failed%s" % (len(report["checks"]) - len(failed), len(failed),
        "".join("\n  FAILED " + c["name"] + " " + c.get("detail", "") for c in failed)))
    if trace_path:
        problems = check_trace(trace_path)
        for p in problems:
            log("  FAILED trace check: " + p)
        if problems:
            result["correct"] = False
        log("trace: " + os.path.relpath(trace_path, ROOT))
        print_probe_table(result["metrics"])
    if "wall_clock" in report:
        log("wall clock (not gated): " + ", ".join(
            "%s=%.6g" % kv for kv in sorted(report["wall_clock"].items())))
    for name, m in sorted(result["metrics"].items()):
        extra = "  (n=%d)" % m["samples"] if "samples" in m else ""
        log("  %-28s %14.6g %s%s" % (name, m["value"], m["unit"], extra))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if wanted != set(result["metrics"]):
        log("perfbench: metrics do not match BENCHMARK.json: missing %s, extra %s" % (
            sorted(wanted - set(result["metrics"])), sorted(set(result["metrics"]) - wanted)))
        return 1
    out = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

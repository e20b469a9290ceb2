#!/usr/bin/env python3
"""The repository benchmark: one command, three checkpoint workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. It builds perfbench/ (the library sources
from src/ plus perfbench.cpp) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs one workload, checks every recovered or
restored state bit-exact against the seeded oracle, and prints each
metric with its unit and sample count. The last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, taken from a traced pass whose
Chrome trace is validated with bench/check_trace.py. Scratch files live
under the build directory and are removed at the end.

Workloads (closed loop, one trainer thread; flush policy
PosixEnv(durable=true)):
  small-wal       ~50 KiB classical state, params-only, WAL on, install
                  every 16 steps, keep_last=3.
  large-drift     + 4 MiB simulator snapshot, full-state, 64 KiB chunks,
                  async pipeline, a checkpoint every step, 1/8 of the
                  chunks rewritten per step, keep_last=3. The trainer
                  calls again as soon as each call returns, so the async
                  pipeline runs saturated.
  recover-tiered  4 MiB snapshot (a quarter zero), incremental with
                  full_every=8, keep_last=24, hot ShapedEnv(local_nvme) /
                  cold ShapedEnv(object_store) TieredEnv, hot budget of 3
                  states, promote_on_read=false.

Each run: several set-ups (setup_s is their median), a write phase of
rounds of trainer steps, each ending in a flush, then a read phase that
alternates recover_latest with load_checkpoint of the oldest retained
entry. The amount of work is fixed per workload and proportional to
--seconds (30 takes about 10-35 s on a 4-core box), with at least 110
checkpoints and 110 read samples of each kind, so p90 has at least 10
samples beyond it. A read sample is one call, or on small-wal the mean
of 8 consecutive sub-millisecond calls. When a phase has enough samples,
p90 is the median of the p90s of consecutive windows of at least 110
samples, so a burst of load from outside the program that covers less
than half the phase does not set it. The program takes every allocation
from malloc heaps that are never trimmed, so large buffers do not
page-fault afresh on each call (see perfbench.cpp).

End-to-end metrics (trace 0), gated by BENCHMARK.json's bounds:
  setup_s                 Checkpointer construction, the recover-tiered
                          directory build, the first full checkpoint.
  written_bytes_per_ckpt  Env bytes written in the write phase / checkpoints.
  stored_bytes_per_ckpt   median, over the checkpoints of the second half
                          of the write phase, of bytes on disk / checkpoints
                          the latest MANIFEST lists.
  recover_ms.p50/.p90     wall time of recover_latest.
  restore_oldest_ms.p50/.p90  wall time of load_checkpoint(oldest retained);
                          cold-tier resident on recover-tiered.

The write path's timings are measured in the same untraced pass but
reported with the per-layer metrics, which have no bound: on a shared
disk their run-to-run spread follows fsync latency, which drifts 2-3x
within minutes, so they cannot gate a change.
  checkpointer.stall_ms.p50/.p90    trainer time inside each
                          maybe_checkpoint call.
  checkpointer.durable_ms.p50/.p90  maybe_checkpoint entry -> end of the
                          first MANIFEST atomic install that lists the id.
  checkpointer.mb_per_s   raw state bytes handed to maybe_checkpoint per
                          second spent inside maybe_checkpoint and flush.

Per-layer metrics (trace 1) are named after src/ modules; layer_map.json
says which end-to-end metric each should move, on which workload. Span
metrics are mean self times (a span's duration minus the spans nested in
it on the same thread) over the timed phase; write-side counters are per
checkpoint, read-side ones per read operation (recover or restore).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from bisect import bisect_left
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Metrics the issue asked for that this benchmark reports differently.
NOT_PRODUCED = {
    "crc.backend": "a name, not a number: recorded in the run context",
    "failed_frac": "reported as the result's attempted and failed counts",
    "recover_device_s": "deterministic modeled seconds: per-layer "
                        "recovery.recover_device_s",
    "restore_cold_device_s": "deterministic modeled seconds: per-layer "
                             "recovery.restore_device_s",
    "restore_cold_ms": "named restore_oldest_ms: the oldest retained entry, "
                       "cold-tier resident on recover-tiered only",
    "stall_ms, durable_ms, ckpt_mb_per_s": "fsync-bound, so not gated: "
                                           "per-layer checkpointer.stall_ms, "
                                           "checkpointer.durable_ms and "
                                           "checkpointer.mb_per_s",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds perfbench; returns the binary path."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def run_context(workdir):
    ctx = {}
    try:
        ctx["filesystem"] = subprocess.run(
            ["stat", "-f", "-c", "%T", str(workdir)], capture_output=True,
            text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        ctx["filesystem"] = "unknown"
    rev = os.environ.get("QNNCKPT_GIT_REV", "")
    if not rev:
        try:
            rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = ""
    ctx["git_rev"] = rev or "unknown"
    return ctx


# ---------------------------------------------------------------------------
# Trace -> per-layer span metrics
# ---------------------------------------------------------------------------

def spans_of(trace_path):
    """Every B/E pair as a dict with name, tid, ts, end, args, self."""
    with open(trace_path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    stacks = defaultdict(list)
    spans = []
    for ev in events:
        if ev["ph"] == "B":
            stacks[ev["tid"]].append({"name": ev["name"], "tid": ev["tid"],
                                      "ts": ev["ts"],
                                      "args": ev.get("args", {}),
                                      "children": 0})
        elif ev["ph"] == "E":
            sp = stacks[ev["tid"]].pop()
            sp["end"] = ev["ts"]
            sp["end_args"] = ev.get("args", {})
            dur = sp["end"] - sp["ts"]
            sp["self"] = dur - sp["children"]
            if stacks[ev["tid"]]:
                stacks[ev["tid"]][-1]["children"] += dur
            spans.append(sp)
    return spans


def span_metrics(trace_path):
    spans = spans_of(trace_path)
    timed = [s for s in spans if s["name"] == "bench.timed"]
    if not timed:
        raise ValueError("trace has no bench.timed span")
    t0, t1 = timed[-1]["ts"], timed[-1]["end"]
    window = [s for s in spans if t0 <= s["ts"] <= t1]
    by_name = defaultdict(list)
    for s in window:
        by_name[s["name"]].append(s)

    def mean_self_ms(name, pool=by_name):
        v = [s["self"] for s in pool[name]]
        return (sum(v) / len(v) / 1e3 if v else 0.0), len(v)

    m = {}
    for layer, name in (("checkpointer.snapshot_ms", "snapshot"),
                        ("checkpointer.encode_ms", "encode"),
                        ("checkpointer.install_ms", "install"),
                        ("gc.collect_ms", "gc.collect")):
        value, n = mean_self_ms(name)
        m[layer] = {"value": value, "unit": "ms", "samples": n}

    # Time in maybe_checkpoint outside the snapshot stage, for calls
    # that produced a checkpoint.
    snaps = defaultdict(list)
    for s in by_name["snapshot"]:
        snaps[s["tid"]].append((s["ts"], s["end"]))
    for v in snaps.values():
        v.sort()
    blocked = []
    for s in by_name["bench.maybe_checkpoint"]:
        if str(s["end_args"].get("checkpoint")) != "1":
            continue
        inside = 0
        v = snaps[s["tid"]]
        i = bisect_left(v, (s["ts"], -1))
        while i < len(v) and v[i][1] <= s["end"]:
            inside += v[i][1] - v[i][0]
            i += 1
        blocked.append(s["end"] - s["ts"] - inside)
    m["checkpointer.blocked_ms"] = {
        "value": sum(blocked) / len(blocked) / 1e3 if blocked else 0.0,
        "unit": "ms", "samples": len(blocked)}

    # End of encode -> start of install of the same checkpoint (both
    # spans name the checkpoint span as parent).
    encode_end = {s["args"].get("parent"): s["end"] for s in by_name["encode"]}
    handoff = [s["ts"] - encode_end[s["args"].get("parent")]
               for s in by_name["install"]
               if s["args"].get("parent") in encode_end]
    m["checkpointer.handoff_ms"] = {
        "value": sum(handoff) / len(handoff) / 1e3 if handoff else 0.0,
        "unit": "ms", "samples": len(handoff)}

    # Demotion runs in set-up and on the install tail: whole trace.
    demote = [s["self"] for s in spans if s["name"] == "demote"]
    m["tier.demote_ms"] = {
        "value": sum(demote) / len(demote) / 1e3 if demote else 0.0,
        "unit": "ms", "samples": len(demote)}
    return m


def check_trace(trace_path):
    """Validates the trace with the repository's checker."""
    checker = Path("bench") / "check_trace.py"
    if not checker.exists():
        log("bench/check_trace.py not found; trace not validated")
        return False
    r = subprocess.run([sys.executable, str(checker), str(trace_path)],
                       stdout=sys.stderr, timeout=120)
    return r.returncode == 0


def trace_overhead(plain, traced):
    """Median over the timings of traced / untraced p50."""
    ratios = []
    for name in ("checkpointer.stall_ms.p50", "checkpointer.durable_ms.p50",
                 "recover_ms.p50", "restore_oldest_ms.p50"):
        a = plain["e2e"].get(name) or plain["write"].get(name)
        b = traced["e2e"].get(name) or traced["write"].get(name)
        if a and b and a["value"] > 0:
            ratios.append(b["value"] / a["value"])
            log(f"trace overhead {name}: {ratios[-1]:.3f}x")
    return {"value": statistics.median(ratios) if ratios else 0.0,
            "unit": "ratio", "samples": len(ratios)}


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    layer_map = json.loads((HERE / "layer_map.json").read_text(
        encoding="utf-8"))
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_root / "perfbench")
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 2
    if args.self_test:
        return subprocess.run([str(binary), "--self-test"],
                              timeout=RUN_TIMEOUT_S).returncode
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {names}")

    workdir = build_root / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, spec, layer_map, binary, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, layer_map, binary, workdir):
    out_path = workdir / "result.json"
    trace_path = workdir / "trace.json"
    # The generator's own test runs first: a generator that is not
    # deterministic cannot serve as the oracle.
    gen_ok = subprocess.run([str(binary), "--self-test"], stdout=sys.stderr,
                            timeout=RUN_TIMEOUT_S).returncode == 0
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--workdir", str(workdir / "data"), "--out",
           str(out_path), "--trace-file", str(trace_path)]
    rc = subprocess.run(cmd, stdout=sys.stderr,
                        timeout=RUN_TIMEOUT_S).returncode
    if not out_path.exists():
        log(f"perfbench exited {rc} without a result")
        return 1
    result = json.loads(out_path.read_text(encoding="utf-8"))
    passes = result["passes"]
    context = dict(result["context"], **run_context(workdir))
    print("context " + json.dumps(context, sort_keys=True))
    for p in passes:
        for e in p["errors"]:
            log("error: " + e)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = gen_ok and rc == 0 and all(p["mismatches"] == 0 and
                                         not p["errors"] for p in passes)

    if args.trace:
        if len(passes) < 2:
            log("no traced pass")
            return 1
        got = dict(passes[1]["layer"])
        got.update(span_metrics(trace_path))
        got.update(passes[0]["write"])
        got["obs.trace_overhead"] = trace_overhead(passes[0], passes[1])
        correct = check_trace(trace_path) and correct
        wanted = spec["per_layer"]
        for name, reason in NOT_PRODUCED.items():
            print(f"not produced: {name}: {reason}")
    else:
        got = passes[0]["e2e"]
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        x = got.get(m["name"])
        if x is None or x["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or not in {m['unit']}: {x}")
            return 1
        layer = next((k for k in layer_map if m["name"].startswith(k + ".")),
                     "end-to-end")
        print(f"{m['name']:36s} {x['value']:>16.6g} {x['unit']:6s} "
              f"n={x['samples']:<6d} {layer}")
        metrics[m["name"]] = {"value": x["value"], "unit": x["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

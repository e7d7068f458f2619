#!/usr/bin/env python3
"""Cold-process benchmark of the SoftSKU workflows.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench` (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then starts one fresh process per
sample until `--seconds` are used, so process-wide memos start empty every
time. Even-numbered processes rerun the pinned seed, whose digest the binary
checks; odd process i uses seed `n * 1000 + i`, checked by the workload
invariants (and, with --trace 1, by its traced twin's digest). Pinning half
the samples keeps a run's median from hinging on which code paths its
seeded inputs happen to take, while the seeded half keeps a change honest
on inputs it was not tuned on.

--trace 0 reports the end-to-end metrics (medians over processes).
--trace 1 alternates untraced and traced processes on the same seed, checks
that their digests agree, and reports the per-layer metrics (medians over
the traced processes) plus the tracing overhead. Span files land in
$CARGO_TARGET_DIR/perfbench-spans/.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
WORKLOADS = ("lifecycle_web", "chaos_campaign", "mesh_canary_social")
PINNED_SEED = 21
MIN_SAMPLES = {False: 3, True: 2}
# Every process must end inside this budget, so one run ends within 180 s.
RUN_BUDGET_S = 170.0


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, "--target-dir", target_dir()]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    binary = os.path.join(target_dir(), "release", "perfbench")
    if proc.returncode != 0 or not os.path.isfile(binary):
        sys.exit("perfbench: build failed")
    return binary


def sample_seed(seed, i):
    return PINNED_SEED if i % 2 == 0 else (seed * 1000 + i) % (1 << 64)


def launch(args, deadline):
    """Runs one process; returns its parsed JSON line, or None on failure."""
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {args}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(proc.stderr.strip(), file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"perfbench: unreadable output from {args}", file=sys.stderr)
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(binary, workload, seed, seconds, traced):
    """Samples until the time is used; returns (untraced, traced, attempted, failed)."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    spans_dir = os.path.join(target_dir(), "perfbench-spans")
    if traced:
        os.makedirs(spans_dir, exist_ok=True)
    cold, trace = [], []
    attempted = failed = 0
    last = 0.0
    i = 0
    while True:
        elapsed = time.monotonic() - start
        if i >= MIN_SAMPLES[traced] and elapsed + last > seconds:
            break
        if elapsed + last > RUN_BUDGET_S - 10:
            break
        t0 = time.monotonic()
        s = sample_seed(seed, i)
        attempted += 1
        c = launch([binary, "cold", workload, str(s)], deadline)
        t = None
        if traced and c is not None:
            path = os.path.join(spans_dir, f"{workload}-{s}.json")
            t = launch([binary, "traced", workload, str(s), path], deadline)
            if t is not None and t["digest"] != c["digest"]:
                print(f"perfbench: traced digest {t['digest']} != untraced {c['digest']}",
                      file=sys.stderr)
                t = None
        if c is None or (traced and t is None):
            failed += 1
        else:
            cold.append(c)
            if t is not None:
                trace.append(t)
        last = time.monotonic() - t0
        i += 1
    return cold, trace, attempted, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(cold):
    med = lambda key: statistics.median(c[key] for c in cold)
    return {
        "wall_s": metric(med("wall_s"), "s"),
        "setup_s": metric(med("setup_s"), "s"),
    }


# Per-layer metrics: unit, which way is better, and the end-to-end metric
# and workloads a change to that layer should move. Metrics of a layer a
# workload never calls read 0 there.
LAYERS = {
    "layer.archsim.engine_cold_s": ("s", "lower", "wall_s on all three"),
    "layer.archsim.window_nomemo_ms": ("ms", "lower", "wall_s on lifecycle_web, chaos_campaign"),
    "layer.archsim.tracegen_new_ms": ("ms", "lower", "wall_s and setup_s on chaos_campaign"),
    "layer.archsim.tracegen_fill_ns_per_event": (
        "ns/event", "lower", "wall_s on lifecycle_web, mesh_canary_social"),
    "layer.archsim.struct_build_ms": ("ms", "lower", "wall_s on chaos_campaign"),
    "layer.archsim.struct_pass_ns_per_event": ("ns/event", "lower", "wall_s on lifecycle_web"),
    "layer.archsim.memo_hit_us": ("us", "lower", "wall_s on mesh_canary_social"),
    "layer.cluster.curve_ms": ("ms", "lower", "wall_s on lifecycle_web"),
    "layer.cluster.fleet_tick_us": ("us", "lower", "wall_s on lifecycle_web, chaos_campaign"),
    "layer.usku.tune_s": ("s", "lower", "wall_s on lifecycle_web"),
    "layer.usku.busy_share": ("ratio", "higher", "wall_s on lifecycle_web"),
    "layer.usku.ab_tests": ("count", "lower", "divisor for lifecycle_web"),
    "layer.usku.ab_samples": ("count", "lower", "divisor for lifecycle_web"),
    "layer.rollout.compose_s": ("s", "lower", "wall_s on lifecycle_web"),
    "layer.rollout.staged_s": ("s", "lower", "wall_s on lifecycle_web"),
    "layer.rollout.drift_s": ("s", "lower", "wall_s on lifecycle_web"),
    "layer.rollout.coordinator_s": ("s", "lower", "wall_s on chaos_campaign"),
    "layer.rollout.coordinator_warm_s": ("s", "lower", "wall_s on chaos_campaign"),
    "layer.rollout.service_ticks": ("count", "lower", "divisor for chaos_campaign"),
    "layer.mesh.baseline_s": ("s", "lower", "wall_s on mesh_canary_social"),
    "layer.mesh.tune_s": ("s", "lower", "wall_s on mesh_canary_social"),
    "layer.mesh.canary_s": ("s", "lower", "wall_s on mesh_canary_social"),
    "layer.mesh.request_loop_s": ("s", "lower", "wall_s on mesh_canary_social"),
    "layer.mesh.calibration_s": ("s", "lower", "wall_s on mesh_canary_social"),
    "layer.mesh.sim_requests_per_s": ("req/s", "higher", "wall_s on mesh_canary_social"),
    "layer.telemetry.slo_gate_s": ("s", "lower", "wall_s on mesh_canary_social"),
    "layer.telemetry.spans": ("count", "lower", "wall_s on mesh_canary_social"),
    "layer.telemetry.ledger_points": ("count", "lower", "wall_s on all three"),
    "layer.warm_rerun_s": ("s", "lower", "wall_s on all three"),
    "layer.span_coverage": ("ratio", "higher", "none: top-level spans over traced wall"),
    "layer.peak_rss_mb": ("MB", "lower", "none: host memory of a cold process"),
    "layer.trace_overhead_s": ("s", "lower", "none: traced minus untraced median wall"),
    "layer.untraced_wall_q1_s": ("s", "lower", "none: quartile of trace_overhead_s"),
    "layer.untraced_wall_median_s": ("s", "lower", "none: median of trace_overhead_s"),
    "layer.untraced_wall_q3_s": ("s", "lower", "none: quartile of trace_overhead_s"),
    "layer.traced_wall_q1_s": ("s", "lower", "none: quartile of trace_overhead_s"),
    "layer.traced_wall_median_s": ("s", "lower", "none: median of trace_overhead_s"),
    "layer.traced_wall_q3_s": ("s", "lower", "none: quartile of trace_overhead_s"),
}


def per_layer(cold, trace):
    out = {}
    # Counts are exact: take them from the first (pinned-seed) sample rather
    # than a median that mixes seeds.
    for name in trace[0]["layers"]:
        exact = LAYERS.get(name, ("",))[0] == "count"
        out[name] = trace[0]["layers"][name] if exact else statistics.median(
            t["layers"][name] for t in trace)
    untraced = [c["wall_s"] for c in cold]
    traced = [t["traced_wall_s"] for t in trace]
    uq = quartiles(untraced)
    tq = quartiles(traced)
    out["layer.trace_overhead_s"] = tq[1] - uq[1]
    for label, q in (("untraced", uq), ("traced", tq)):
        out[f"layer.{label}_wall_q1_s"] = q[0]
        out[f"layer.{label}_wall_median_s"] = q[1]
        out[f"layer.{label}_wall_q3_s"] = q[2]
    # Peak RSS moves by more than a tenth between processes (the engine's
    # load-grid threads race), so it is reported here, without a bound.
    out["layer.peak_rss_mb"] = statistics.median(c["peak_rss_mb"] for c in cold)
    sims = statistics.median(c["sim_requests"] for c in cold)
    out["layer.mesh.sim_requests_per_s"] = sims / uq[1]
    if set(out) != set(LAYERS):
        sys.exit(f"perfbench: layer metrics out of step with LAYERS: {set(out) ^ set(LAYERS)}")
    return {name: metric(out[name], LAYERS[name][0]) for name in LAYERS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    cold, trace, attempted, failed = measure(
        binary, args.workload, args.seed, args.seconds, args.trace == 1)
    if not cold or (args.trace == 1 and not trace):
        sys.exit("perfbench: every sample failed")
    metrics = per_layer(cold, trace) if args.trace == 1 else end_to_end(cold)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Merge per-binary benchmark dumps into one BENCH_substrate.json.

Inputs (produced in the working directory by the bench binaries):
  BENCH_micro_substrate.json   google-benchmark JSON from bench_micro_substrate
  BENCH_intro_overhead.json    campaign-level JSON from bench_intro_overhead

Output:
  BENCH_substrate.json         one machine-readable record of the repo's
                               substrate performance, including the derived
                               headline metrics:
                                 - fiber_core_ns.{launch.<n>,
                                   allreduce.<n>, p2p_round_trip}:
                                   absolute simmpi costs in ns — one
                                   empty job launch, one fused 1-double
                                   allreduce, one 8-byte round trip —
                                   each with an upper bar
                                   (FIBER_CORE_BARS_NS)
                                 - collective_speedup.<n>: fused
                                   allreduce vs the mailbox decomposition
                                   of the same collective (bar: >= 1.0x at
                                   every benched rank count)
                                 - allocs_per_msg.<bytes>: envelope-pool
                                   payload allocations per message
                                 - real_scalar_speedup.{unarmed,armed}:
                                   countdown fast path vs the seed per-op
                                   structure (out-of-line context lookup +
                                   pre-countdown bookkeeping) on
                                   element-wise Real arithmetic (bar:
                                   >= 3x unarmed); the _vs_reference
                                   variant compares against the
                                   reference per-op path
                                   (set_fast_real_enabled(false))
                                 - blocked_dot_speedup.{unarmed,armed}:
                                   blocked local_dot vs the reference
                                   per-op path (bar: >= 5x)
                                 - telemetry_overhead.disabled: unarmed
                                   Real axpy with set_metrics_enabled(0)
                                   vs the default leg (bar: <= 1.05 — the
                                   disabled path is one cached-atomic
                                   branch); .scoped is the armed leg under
                                   a live metric scope vs without one
                                 - checkpoint_speedup.<app.mix|late_mix>:
                                   campaign wall time with the golden-
                                   checkpoint fast path off vs on;
                                   late_mix pools the late-injection legs
                                   of all apps (bar: >= 2x)
                                 - early_exit_rate.<app.mix|late_mix>:
                                   fraction of trials pruned by the
                                   early-exit equivalence test
                                 - adaptive_trial_reduction.<app|mean>:
                                   trials requested / trials executed of
                                   the CI-driven adaptive campaign legs
                                   (bar: >= 3x mean); each leg also
                                   asserts the fixed-budget success rate
                                   landed inside the adaptive 95% CI
                                 - shard_speedup.<n>: in-process serial
                                   campaign wall time vs the same
                                   deployment fanned out over n
                                   coordinator-spawned worker processes
                                   (bar: >= 2x at 4 shards); results are
                                   bit-identical by construction
                                 - golden_store_hit_rate: store hits /
                                   (hits + misses) of a sharded rerun
                                   against a persistent golden store —
                                   1.0 means nobody re-profiled

When any input dump carries a load_avg above its num_cpus the host was
saturated while benching; the merge warns and stamps the output with
"load_exceeds_cpus" so wall-clock ratios are read with suspicion.

Usage: tools/merge_bench.py [--dir DIR] [--out BENCH_substrate.json]
Missing inputs are skipped with a warning so partial runs still merge.

Debug-build dumps are refused: ratios between unoptimized legs say
nothing about the production substrate. Pass --allow-debug to merge one
anyway; the output is then annotated with "debug_build": true so no
downstream consumer mistakes it for a release measurement.
"""

import argparse
import json
import pathlib
import sys

# Upper bars on the absolute fiber-core costs, in ns: about three times
# the values recorded with a Release build on a 4-CPU x86-64 host, so a
# regression of the substrate shows while host-to-host spread does not.
FIBER_CORE_BARS_NS = {
    "launch.4": 20_000,
    "launch.1024": 5_000_000,
    "allreduce.4": 20_000,
    "allreduce.1024": 7_000_000,
    "p2p_round_trip": 6_000,
}


def load(path: pathlib.Path):
    if not path.is_file():
        print(f"merge_bench: skipping missing {path}", file=sys.stderr)
        return None
    with path.open() as f:
        return json.load(f)


def real_time(benchmarks, name):
    """Best (minimum) real_time in ns of the named google-benchmark entry.

    With --benchmark_repetitions the dump holds one iteration entry per
    repetition; the minimum is the least-interfered sample, the robust
    choice on a shared/noisy host. Single runs reduce to that run's time.
    """
    times = [float(b["real_time"]) for b in benchmarks
             if b.get("name", "").split("/repeats:")[0] == name
             and b.get("run_type", "iteration") == "iteration"]
    return min(times) if times else None


def derive_micro_metrics(micro):
    """Headline ratios from the micro-substrate google-benchmark dump."""
    benchmarks = micro.get("benchmarks", [])
    metrics = {"fiber_core_ns": {}, "collective_speedup": {},
               "allocs_per_msg": {}}
    # The in-job legs time kRounds (256) operations per job.
    rounds = 256
    for key, name, per_job in (
            ("launch.4", "BM_JobLaunch/4", 1),
            ("launch.1024", "BM_JobLaunch/1024", 1),
            ("allreduce.4", "BM_FusedAllreduce/4", rounds),
            ("allreduce.1024", "BM_FusedAllreduce/1024", rounds),
            ("p2p_round_trip", "BM_P2PRoundTrip", rounds)):
        ns = real_time(benchmarks, name)
        if ns:
            metrics["fiber_core_ns"][key] = ns / per_job
    for ranks in (4, 8, 16, 64):
        fused = real_time(benchmarks, f"BM_AllreduceRound/{ranks}")
        mailbox = real_time(benchmarks, f"BM_AllreduceRoundMailbox/{ranks}")
        if fused and mailbox:
            metrics["collective_speedup"][str(ranks)] = mailbox / fused
    for b in benchmarks:
        if b.get("name", "").startswith("BM_PingPong/") and "allocs_per_msg" in b:
            size = b["name"].split("/", 1)[1]
            metrics["allocs_per_msg"][size] = float(b["allocs_per_msg"])

    def ratio(reference_name, fast_name):
        reference = real_time(benchmarks, reference_name)
        fast = real_time(benchmarks, fast_name)
        return reference / fast if reference and fast else None

    # Speedup over the seed per-op structure (out-of-line context lookup +
    # pre-countdown bookkeeping) — the improvement the fast-path PR
    # delivers. The _vs_reference variant compares against the reference
    # per-op path (set_fast_real_enabled(false)), which already benefits
    # from the inlined context lookup and so isolates the countdown
    # dispatcher.
    scalar = {"unarmed": ratio("BM_RealAxpySeedPath",
                               "BM_RealAxpyUnderContext"),
              "armed": ratio("BM_RealAxpySeedPathArmed",
                             "BM_RealAxpyArmedPlan")}
    scalar_ref = {"unarmed": ratio("BM_RealAxpyUnderContextReference",
                                   "BM_RealAxpyUnderContext"),
                  "armed": ratio("BM_RealAxpyArmedPlanReference",
                                 "BM_RealAxpyArmedPlan")}
    blocked = {"unarmed": ratio("BM_LocalDotReference",
                                "BM_LocalDotUnderContext"),
               "armed": ratio("BM_LocalDotReference", "BM_LocalDotArmedPlan")}
    metrics["real_scalar_speedup"] = {k: v for k, v in scalar.items() if v}
    metrics["real_scalar_speedup_vs_reference"] = {
        k: v for k, v in scalar_ref.items() if v}
    metrics["blocked_dot_speedup"] = {k: v for k, v in blocked.items() if v}

    # Telemetry overhead ratios (>1.0 = slower with telemetry). `disabled`
    # is the acceptance bar (<= 1.05): metrics off must cost at most the
    # cached-atomic branch. `scoped` reports the live-counting cost of an
    # armed trial under an active metric scope.
    telemetry = {"disabled": ratio("BM_RealAxpyTelemetryOff",
                                   "BM_RealAxpyUnderContext"),
                 "scoped": ratio("BM_RealAxpyTelemetryScoped",
                                 "BM_RealAxpyArmedPlan")}
    metrics["telemetry_overhead"] = {k: v for k, v in telemetry.items() if v}
    return metrics


def derive_checkpoint_metrics(intro):
    """Headline ratios of the golden-checkpoint fast path legs."""
    speedup = {}
    early_rate = {}
    late_on = late_off = 0.0
    late_trials = late_exits = 0
    for leg in intro.get("checkpoint", []):
        key = f"{leg['app']}.{leg['mix']}"
        if leg.get("on_wall_seconds"):
            speedup[key] = leg["off_wall_seconds"] / leg["on_wall_seconds"]
        if leg.get("trials"):
            early_rate[key] = leg["early_exits"] / leg["trials"]
        if leg.get("mix") == "late":
            late_on += leg.get("on_wall_seconds", 0.0)
            late_off += leg.get("off_wall_seconds", 0.0)
            late_trials += leg.get("trials", 0)
            late_exits += leg.get("early_exits", 0)
    if late_on > 0:
        speedup["late_mix"] = late_off / late_on
    if late_trials:
        early_rate["late_mix"] = late_exits / late_trials
    return {"checkpoint_speedup": speedup, "early_exit_rate": early_rate}


def derive_adaptive_metrics(intro):
    """Trial-reduction ratios of the adaptive campaign legs."""
    reduction = {}
    outside_ci = []
    for leg in intro.get("adaptive", []):
        if leg.get("trials_executed"):
            reduction[leg["app"]] = (
                leg["trials_requested"] / leg["trials_executed"])
        if not leg.get("fixed_rate_in_ci", True):
            outside_ci.append(leg["app"])
    if reduction:
        reduction["mean"] = sum(
            v for k, v in reduction.items()) / len(reduction)
    return {"adaptive_trial_reduction": reduction}, outside_ci


def derive_shard_metrics(intro):
    """Process-fan-out speedup and store-reuse hit rate of the shard legs."""
    shard = intro.get("shard", {})
    metrics = {}
    if shard.get("sharded_wall_seconds"):
        metrics["shard_speedup"] = {
            str(shard.get("shards", 0)):
                shard["serial_wall_seconds"] / shard["sharded_wall_seconds"]}
    hits = shard.get("reuse_store_hits", 0)
    misses = shard.get("reuse_store_misses", 0)
    if hits + misses:
        metrics["golden_store_hit_rate"] = hits / (hits + misses)
    return metrics


def check_host_load(merged, name, dump, fallback_cpus=None):
    """Warn and stamp the merge when a dump was taken on a saturated host.

    google-benchmark stamps load_avg as a 1/5/15-minute triple in its
    context block; bench_intro_overhead stamps a single 1-minute value at
    top level. Either way, load above num_cpus means the bench shared the
    machine and its wall-clock ratios are unreliable.
    """
    context = dump.get("context", dump)
    load = context.get("load_avg")
    if load is None:
        return
    load = max(load) if isinstance(load, list) else float(load)
    cpus = context.get("num_cpus", fallback_cpus)
    if not cpus or load <= cpus:
        return
    print(f"merge_bench: warning: {name} was benched under load_avg "
          f"{load:.1f} on {cpus} CPUs; wall-clock ratios are unreliable",
          file=sys.stderr)
    merged.setdefault("load_exceeds_cpus", {})[name] = {
        "load_avg": load, "num_cpus": cpus}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default=".",
                        help="directory holding the input dumps")
    parser.add_argument("--out", default="BENCH_substrate.json")
    parser.add_argument("--allow-debug", action="store_true",
                        help="merge a debug-build dump anyway, annotating "
                             "the output with debug_build: true")
    args = parser.parse_args()
    base = pathlib.Path(args.dir)

    merged = {"schema": "resilience-bench-substrate/1"}
    micro = load(base / "BENCH_micro_substrate.json")
    if micro is not None:
        # binary_build_type is stamped by bench_micro_substrate itself from
        # its own optimization flags; library_build_type only describes the
        # prebuilt google-benchmark library and is the fallback for dumps
        # from older binaries.
        context = micro.get("context", {})
        build_type = context.get("binary_build_type",
                                 context.get("library_build_type", ""))
        if build_type not in ("release", ""):
            if not args.allow_debug:
                print(f"merge_bench: refusing {build_type} build input "
                      "(speedup ratios of unoptimized legs are meaningless); "
                      "rebuild with an optimized CMAKE_BUILD_TYPE or pass "
                      "--allow-debug to annotate-and-merge",
                      file=sys.stderr)
                return 1
            merged["debug_build"] = True
            print(f"merge_bench: warning: merging {build_type} build input; "
                  "output annotated with debug_build: true",
                  file=sys.stderr)
        merged["micro_substrate"] = micro
        merged["metrics"] = derive_micro_metrics(micro)
        merged["host"] = {k: context[k] for k in
                          ("host_name", "num_cpus", "mhz_per_cpu",
                           "binary_build_type", "library_build_type")
                          if k in context}
    if micro is not None:
        check_host_load(merged, "micro_substrate", micro)
    intro = load(base / "BENCH_intro_overhead.json")
    outside_ci = []
    if intro is not None:
        merged["intro_overhead"] = intro
        merged.setdefault("metrics", {}).update(
            derive_checkpoint_metrics(intro))
        adaptive_metrics, outside_ci = derive_adaptive_metrics(intro)
        merged["metrics"].update(adaptive_metrics)
        merged["metrics"].update(derive_shard_metrics(intro))
        check_host_load(merged, "intro_overhead", intro,
                        fallback_cpus=merged.get("host", {}).get("num_cpus"))

    out_path = base / args.out
    with out_path.open("w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"merge_bench: wrote {out_path}")

    metrics = merged.get("metrics", {})
    for key, ns in metrics.get("fiber_core_ns", {}).items():
        limit = FIBER_CORE_BARS_NS[key]
        bar = "" if ns <= limit else f"  ** ABOVE the <= {limit} ns bar **"
        print(f"  fiber core {key}: {ns:.0f} ns{bar}")
    for ranks, ratio in sorted(metrics.get("collective_speedup", {}).items(),
                               key=lambda kv: int(kv[0])):
        bar = "" if ratio >= 1.0 else "  ** BELOW the >= 1.0x bar **"
        print(f"  fused collective speedup @{ranks} ranks: {ratio:.2f}x{bar}")
    for label, ratio in metrics.get("real_scalar_speedup", {}).items():
        print(f"  Real scalar fast-path speedup ({label}): {ratio:.2f}x")
    for label, ratio in metrics.get("blocked_dot_speedup", {}).items():
        print(f"  blocked dot fast-path speedup ({label}): {ratio:.2f}x")
    for label, ratio in metrics.get("telemetry_overhead", {}).items():
        print(f"  telemetry overhead ({label}): {ratio:.3f}x")
    for label, ratio in sorted(metrics.get("checkpoint_speedup", {}).items()):
        rate = metrics.get("early_exit_rate", {}).get(label)
        rate_str = f", early-exit rate {rate:.0%}" if rate is not None else ""
        print(f"  checkpoint speedup ({label}): {ratio:.2f}x{rate_str}")
    adaptive = metrics.get("adaptive_trial_reduction", {})
    for label, ratio in sorted(adaptive.items()):
        bar = ""
        if label == "mean" and ratio < 3.0:
            bar = "  ** BELOW the >= 3x bar **"
        print(f"  adaptive trial reduction ({label}): {ratio:.2f}x{bar}")
    for app in outside_ci:
        print(f"  ** adaptive CI for {app} does NOT contain the "
              "fixed-budget rate **")
    for shards, ratio in sorted(metrics.get("shard_speedup", {}).items(),
                                key=lambda kv: int(kv[0])):
        bar = ""
        if int(shards) >= 4 and ratio < 2.0:
            bar = "  ** BELOW the >= 2x bar **"
        print(f"  sharded campaign speedup @{shards} shards: {ratio:.2f}x{bar}")
    hit_rate = metrics.get("golden_store_hit_rate")
    if hit_rate is not None:
        print(f"  golden-store reuse hit rate: {hit_rate:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

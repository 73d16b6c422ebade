// RuntimeOptions: every RESILIENCE_* environment knob resolved in one
// place.
//
// The substrate layers used to read their own env vars at first use
// (comm.cpp, checkpoint.cpp, executor.cpp), which made the configuration
// surface hard to document and impossible to inject under test.
// RuntimeOptions::from_env() is now the only code path that touches the
// process environment (the repo-wide invariant is: no getenv/env_int call
// sites outside util/options.cpp), and global() is the resolved-once copy
// every layer consumes.
//
// Tests inject a configuration with set_global() and restore the
// environment-derived one with reset_global(); the per-feature
// set_*_enabled() runtime overrides in each layer still win over the
// global options, preserving the existing precedence:
//   programmatic override > RuntimeOptions (env) > built-in default.
#pragma once

#include <cstdint>
#include <string>

#include "util/env.hpp"

namespace resilience::util {

/// One resolved copy of every RESILIENCE_* knob.
struct RuntimeOptions {
  /// RESILIENCE_THREADS — campaign executor worker count; 0 = auto
  /// (hardware concurrency).
  int threads = 0;
  /// RESILIENCE_FIBER_STACK_KB — per-rank fiber stack size in KiB
  /// (rounded up to whole pages, plus a guard page).
  std::size_t fiber_stack_kb = 256;
  /// RESILIENCE_CHECKPOINT — trial use of golden checkpoints
  /// (fast-forward + early-exit pruning). Golden runs always capture;
  /// this gates consumption only.
  bool checkpoint = true;
  /// RESILIENCE_CHECKPOINT_BUDGET — max full state snapshots kept per
  /// golden run.
  std::size_t checkpoint_budget = 8;
  /// RESILIENCE_ADAPTIVE — adaptive campaign engine: CI-driven early
  /// stopping + stratified sampling (DESIGN.md §12). Off by default:
  /// campaigns run their full fixed trial count, bit-identical to
  /// previous releases.
  bool adaptive = false;
  /// RESILIENCE_ADAPTIVE_CI — absolute CI half-width target each outcome
  /// rate must meet before an adaptive campaign stops early.
  double adaptive_ci_half_width = 0.02;
  /// RESILIENCE_ADAPTIVE_REL — relative half-width target; > 0 switches
  /// the stop rule to relative mode (with a rare-outcome floor).
  double adaptive_ci_relative = 0.0;
  /// RESILIENCE_ADAPTIVE_BATCH — trials per adaptive batch (the stop
  /// rule's evaluation granularity).
  std::size_t adaptive_batch = 64;
  /// RESILIENCE_ADAPTIVE_MIN — minimum trials before a stop decision.
  std::size_t adaptive_min_trials = 128;
  /// RESILIENCE_ADAPTIVE_STRATIFY — stratified sampling over
  /// (region x kind x dynamic-op decile) with post-stratified estimates.
  bool adaptive_stratify = true;
  /// RESILIENCE_SHARDS — worker processes for sharded campaign execution
  /// (DESIGN.md §13); 0 = in-process (no sharding).
  int shards = 0;
  /// RESILIENCE_GOLDEN_STORE — on-disk golden-run store directory ("" =
  /// none for in-process runs; sharded runs fall back to a private temp
  /// store). A persistent directory lets repeated invocations skip the
  /// golden pre-pass entirely.
  std::string golden_store;
  /// RESILIENCE_SHARD_KILL — crash-recovery testing hook: worker 0's
  /// first incarnation SIGKILLs itself after completing this many units.
  /// -1 = off.
  int shard_kill_unit = -1;
  /// RESILIENCE_FRAME_CAP_MB — largest shard frame either side will
  /// write or accept, in MiB. A backstop against corrupted length
  /// prefixes; raise it for apps whose metrics/result payloads
  /// legitimately exceed the default.
  std::size_t frame_cap_mb = 256;
  /// RESILIENCE_SCENARIO — default fault-scenario catalog entry for the
  /// CLI and benches ("" = "paper", the pre-catalog behaviour). See
  /// `resilience scenarios` for the catalog.
  std::string scenario;
  /// RESILIENCE_MTBF — mean-time-between-faults factor for Poisson
  /// scenarios, as a fraction of the trial's sample-space size; 0 = keep
  /// the scenario's own default (0.5).
  double mtbf_factor = 0.0;
  /// RESILIENCE_TRACE — default trace output path ("" = tracing off).
  /// A ".json" suffix selects the Chrome trace_event format; anything
  /// else gets JSON Lines.
  std::string trace_path;
  /// RESILIENCE_METRICS — default metrics JSON output path ("" = off).
  std::string metrics_path;

  /// Resolve every knob from the environment (warning on stderr for each
  /// malformed value, which then falls back to the default above).
  static RuntimeOptions from_env();

  /// The process-wide options: resolved from the environment once on
  /// first use, unless a test replaced them via set_global().
  static const RuntimeOptions& global();

  /// Replace the process-wide options (tests). Layers that latch their
  /// knob in a function-local static (simmpi, checkpoint) only see values
  /// injected before their first use; the documented test hook for those
  /// is their set_*_enabled() override.
  static void set_global(const RuntimeOptions& options);

  /// Drop an injected global; the next global() re-reads the environment.
  static void reset_global();
};

}  // namespace resilience::util

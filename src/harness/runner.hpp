// Single-run execution of an application under fault-injection contexts.
//
// The runner launches one simmpi job for the app, installs a FaultContext
// in every rank's execution context (optionally armed with per-rank injection plans),
// and collects what the fault injector observed: per-rank dynamic
// operation profiles, per-rank contamination flags, and the rank-0 output.
//
// With golden checkpoints supplied (DESIGN.md §9), an armed run also gets
// a FastForwardControl per rank: the app's boundary hooks let the trial
// resume from the latest stored checkpoint before its injection and
// terminate early once every rank reconverges to the golden run, with the
// observable outputs synthesized to stay bit-identical to a full run.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "apps/app.hpp"
#include "fsefi/fault_context.hpp"
#include "harness/checkpoint.hpp"
#include "simmpi/runtime.hpp"

namespace resilience::harness {

struct RunOptions {
  /// Per-rank dynamic-operation budget; 0 disables the hang guard.
  std::uint64_t op_budget = 0;
  /// Golden capture: when set, every rank records per-boundary op counts,
  /// state digests, and budgeted full-state snapshots into this sink.
  CheckpointCapture* capture = nullptr;
  /// Trial fast-forward: golden checkpoints of this (app, nranks)
  /// deployment. Armed runs resume at the latest stored boundary before
  /// their first injection and exit early after reconvergence.
  const CheckpointData* checkpoints = nullptr;
};

struct RunOutput {
  simmpi::RunResult runtime;             ///< how the job ended
  std::optional<apps::AppResult> result; ///< rank-0 output if the job finished
  std::vector<fsefi::OpCountProfile> profiles;  ///< per rank
  std::vector<bool> contaminated;               ///< per rank
  /// Per rank: dynamic ops that matched the armed plan's filters (0 for
  /// counting-only runs), and the trace of performed injections.
  std::vector<std::uint64_t> filtered_ops;
  std::vector<std::vector<fsefi::InjectionEvent>> injection_events;
  /// Per rank: fsefi::Real elements delivered by receives — the
  /// MessagePayload scenario sample space, recorded on golden runs.
  std::vector<std::uint64_t> recv_reals;
  bool hang = false;  ///< failure was the op-budget (hang) guard
  /// Failure was an injected fail-stop fault (RankCrash): the planned
  /// rank death aborted the job through simmpi teardown.
  bool crashed = false;
  /// Checkpoint fast path: whether the run resumed from a stored golden
  /// boundary (and at which iteration), and whether it exited early with
  /// synthesized outputs.
  bool checkpoint_restored = false;
  int resume_iteration = 0;
  bool early_exit = false;

  /// Number of ranks whose memory or computation touched corrupted data.
  [[nodiscard]] int contaminated_ranks() const noexcept {
    int n = 0;
    for (bool c : contaminated) n += c ? 1 : 0;
    return n;
  }
};

/// Run `app` on `nranks` ranks. `plans[r]`, when present, is armed on rank
/// r before the run; an empty vector means a fault-free (counting-only)
/// run. Throws simmpi::UsageError for unsupported rank counts.
RunOutput run_app_once(const apps::App& app, int nranks,
                       const std::vector<fsefi::InjectionPlan>& plans,
                       const RunOptions& options = {});

/// Fault-free profiling pre-pass: dynamic op counts per rank and the
/// golden output signature of this (app, nranks) deployment.
struct GoldenRun {
  std::vector<fsefi::OpCountProfile> profiles;  ///< per rank
  std::vector<double> signature;                ///< rank-0 output
  std::uint64_t max_rank_ops = 0;
  /// Per-rank delivered-Real counts (the MessagePayload sample space).
  /// Empty in campaign files saved before the scenario catalog; such
  /// golden runs cannot drive payload deployments until re-profiled.
  std::vector<std::uint64_t> recv_reals;
  /// Boundary checkpoints captured during the pre-pass (null when capture
  /// was disabled or the app has no boundary hooks). Not part of the
  /// campaign file schema; the on-disk GoldenStore serializes them with
  /// full fidelity (golden-v2) so a loaded golden run drives the
  /// checkpoint fast path exactly like a fresh one.
  std::shared_ptr<const CheckpointData> checkpoints;

  /// Fraction of all dynamic operations spent in the parallel-unique
  /// region (the op-count analogue of the paper's Table 1 time fraction).
  [[nodiscard]] double unique_fraction() const noexcept;

  /// Total operations matching the filters, summed over ranks.
  [[nodiscard]] std::uint64_t matching_total(fsefi::KindMask kinds,
                                             fsefi::RegionMask regions) const;
};

/// Run the fault-free pre-pass; throws std::runtime_error if the golden
/// run itself fails (an app/configuration bug, never an injected fault).
/// Capture is on by default regardless of checkpoint_enabled(): that
/// toggle gates trial *use* (fast-forward + early exit), but the boundary
/// metadata a capture records is also the ResidentState scenario's sample
/// space, which must not change shape with the toggle.
GoldenRun profile_app(const apps::App& app, int nranks,
                      bool capture_checkpoints = true);

}  // namespace resilience::harness

// Fault-injection deployments and campaigns (paper Section 2).
//
// A *deployment* fixes the configuration — application, rank count, how
// many errors per test, which instruction kinds and code regions are
// eligible — and a *campaign* executes many independent fault-injection
// tests under that configuration, classifying each test as Success, SDC,
// or Failure and profiling how many ranks the error contaminated.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fsefi/scenario.hpp"
#include "harness/result.hpp"
#include "harness/runner.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"

namespace resilience::harness {

/// How the target rank of a trial is chosen.
enum class TargetSelection {
  /// Uniform over all eligible dynamic operations of the whole job (ranks
  /// are implicitly weighted by their operation counts) — matches "pick a
  /// random instruction during application execution".
  UniformInstruction,
  /// Uniform over ranks, then uniform over that rank's operations.
  UniformRank,
};

/// Adaptive campaign engine configuration (DESIGN.md §12). Default off:
/// with enabled == false CampaignRunner::run executes exactly
/// config.trials trials, bit-identical to a build without the engine.
struct AdaptiveConfig {
  bool enabled = false;
  /// Trials per batch. The stop rule is evaluated only at batch
  /// boundaries on the merged tallies, which is what makes adaptive
  /// stopping points reproducible for a given seed regardless of worker
  /// count or scheduler mode.
  std::size_t batch = 64;
  /// No stopping decision before this many trials: intervals on very
  /// small samples are too noisy to trust a stop.
  std::size_t min_trials = 128;
  /// Absolute CI half-width target every tracked outcome rate (Success,
  /// SDC, Failure) must meet before the campaign stops early.
  double ci_half_width = 0.02;
  /// Relative mode: > 0 replaces the absolute target for an outcome with
  /// estimate p by ci_relative * max(p, rare_threshold) — the
  /// rare-outcome floor keeps a zero-count outcome from demanding a
  /// zero-width interval.
  double ci_relative = 0.0;
  /// Two-sided normal quantile of every interval (1.96 ~ 95%).
  double confidence_z = 1.96;
  /// Outcomes whose pooled rate sits below this (or whose complement
  /// does, or with < 8 counts either way) use Clopper–Pearson bounds:
  /// exact coverage where the Wilson normal approximation under-covers.
  double rare_threshold = 0.02;
  /// Stratified sampling over (region x op kind x dynamic-op decile)
  /// with Neyman-refined allocation and post-stratified estimates.
  /// Applies to single-error UniformInstruction deployments; other
  /// deployments keep uniform drawing (early stopping still applies).
  bool stratify = true;
  /// Dynamic-op deciles per (region, kind) cell.
  int deciles = 10;
};

/// Why an adaptive campaign stopped drawing trials.
enum class StopReason : std::uint8_t {
  /// Every tracked outcome met its CI half-width target.
  Converged,
  /// The config.trials cap was reached before convergence.
  TrialCap,
};

const char* to_string(StopReason reason) noexcept;

/// One outcome's rate estimate with its confidence envelope. For
/// stratified campaigns the rate is the post-stratified estimate — an
/// unbiased estimate of the uniform-injection campaign the paper defines
/// — and the bounds come from the stratified variance (or, on the rare
/// tail, Clopper–Pearson on the pooled counts, widened to contain the
/// post-stratified point).
struct OutcomeInterval {
  double rate = 0.0;
  double lo = 0.0;
  double hi = 1.0;
  bool exact = false;  ///< true when the bounds are Clopper–Pearson

  [[nodiscard]] double half_width() const noexcept { return (hi - lo) / 2.0; }
  [[nodiscard]] bool contains(double p) const noexcept {
    return p >= lo && p <= hi;
  }
};

/// What the adaptive engine did and estimated. Absent from fixed runs.
struct AdaptiveStats {
  std::size_t trials_requested = 0;  ///< the config.trials cap
  std::size_t trials_executed = 0;
  StopReason stop_reason = StopReason::TrialCap;
  bool stratified = false;
  std::size_t strata = 1;  ///< non-empty strata sampled (1 = unstratified)
  OutcomeInterval success;
  OutcomeInterval sdc;
  OutcomeInterval failure;
  /// Post-stratified propagation probabilities r_x (x = 1..nranks);
  /// empty for unstratified runs (raw histogram normalization applies).
  std::vector<double> propagation;

  [[nodiscard]] const OutcomeInterval& envelope(Outcome o) const noexcept {
    return (o == Outcome::Success) ? success
                                   : (o == Outcome::SDC) ? sdc : failure;
  }
  /// Requested / executed — the paper-campaign cost this run avoided.
  [[nodiscard]] double trial_reduction() const noexcept {
    if (trials_executed == 0) return 1.0;
    return static_cast<double>(trials_requested) /
           static_cast<double>(trials_executed);
  }
};

struct DeploymentConfig {
  int nranks = 1;
  /// Errors injected per fault-injection test. For parallel deployments
  /// all errors of one test are injected into the same target rank (the
  /// paper's multi-error tests run serially; parallel tests use 1 error).
  int errors_per_test = 1;
  /// What is injected and when: the full fault-scenario descriptor
  /// (domain, pattern, arrival model, instruction-kind and code-region
  /// filters, MTBF knob). The default value reproduces the paper's
  /// campaigns — single-bit register flips at a fixed drawn operation.
  fsefi::FaultScenario scenario;
  std::size_t trials = 400;
  std::uint64_t seed = 20180813;  // ICPP 2018 opening day
  TargetSelection selection = TargetSelection::UniformInstruction;
  /// Hang guard: budget = factor * fault-free max rank ops + slack.
  double hang_budget_factor = 8.0;
  std::uint64_t hang_budget_slack = 1u << 16;
  /// Campaign-executor worker count. 0 = auto (hardware concurrency);
  /// 1 = the serial inline path. Execution policy only: results are
  /// bit-identical for every value (trials have independent per-trial seed
  /// streams and merge in trial order), so this is not part of the
  /// deployment's identity — serialization ignores it.
  int max_workers = 0;
  /// Adaptive engine (DESIGN.md §12); disabled by default, in which case
  /// exactly `trials` tests run and results are bit-identical to a
  /// config without this member. When enabled, `trials` becomes the cap
  /// and `seed` still fully determines every drawn plan.
  AdaptiveConfig adaptive;
};

/// Everything a campaign produced.
struct CampaignResult {
  DeploymentConfig config;
  FaultInjectionResult overall;
  /// contamination_hist[x] = tests whose error contaminated exactly x
  /// ranks (x in [0, nranks]). Bit-flip injection itself contaminates the
  /// target, so those trials land at x >= 1; fail-stop (RankCrash) trials
  /// corrupt no value and land at x = 0.
  std::vector<std::size_t> contamination_hist;
  /// Fault-injection result conditioned on x ranks contaminated.
  std::vector<FaultInjectionResult> by_contamination;
  /// The golden (fault-free) pre-pass of this deployment.
  GoldenRun golden;
  /// Time spent running injected trials (the paper's "fault injection
  /// time"; excludes the golden pre-pass). Summed across workers when the
  /// campaign ran in parallel, i.e. the serial-equivalent cost — the
  /// wall-clock of the serial path, and comparable across worker counts.
  double wall_seconds = 0.0;
  /// Execution-diagnostic counters and histograms of everything this
  /// campaign ran (trials, golden-cache traffic, checkpoint fast path,
  /// substrate activity), merged from the campaign's metric scope at the
  /// end of the run (DESIGN.md §10). Execution statistics only — the
  /// classified outcomes are bit-identical whatever these say — so not
  /// part of the serialized campaign schema.
  telemetry::MetricsSnapshot metrics;
  /// Adaptive-engine record: stopping point, CI envelope, post-stratified
  /// estimates. Engaged iff config.adaptive.enabled.
  std::optional<AdaptiveStats> adaptive;

  /// r_x (paper Eq. 3): probability that an injected error contaminates
  /// exactly x ranks, for x = 1..nranks. Returned as a vector of size
  /// nranks with r[0] == r_1. Post-stratified when the adaptive engine
  /// sampled strata (unbiased for the uniform campaign); the raw
  /// contamination histogram otherwise.
  [[nodiscard]] std::vector<double> propagation_probabilities() const;
};

class Executor;
class GoldenCache;

/// Shared infrastructure a campaign may run on. Both members are
/// optional: a null executor makes the campaign schedule trials by
/// itself (per config.max_workers), a null cache makes it profile its
/// own golden run. run_study wires one executor + one cache through all
/// of its campaigns so phases share a rank-concurrency budget and no
/// deployment is profiled twice.
struct CampaignContext {
  Executor* executor = nullptr;
  GoldenCache* golden_cache = nullptr;
  /// Parent metric scope (the study's): the campaign's own scope rolls
  /// its totals up into it when the campaign finishes.
  telemetry::MetricScope* metrics_parent = nullptr;
};

/// Runs fault-injection campaigns. Stateless apart from configuration;
/// each call is deterministic in (app, config.seed) — independent of
/// worker count and of any shared context.
class CampaignRunner {
 public:
  /// Execute `config.trials` fault-injection tests. Throws
  /// std::runtime_error when the deployment has an empty sample space
  /// (no operations match the filters) or the golden run fails.
  static CampaignResult run(const apps::App& app,
                            const DeploymentConfig& config);

  /// Same, on shared infrastructure (see CampaignContext).
  static CampaignResult run(const apps::App& app,
                            const DeploymentConfig& config,
                            const CampaignContext& context);

  /// Classify one run output against the golden signature (exposed for
  /// tests and for custom drivers).
  static Outcome classify(const RunOutput& out,
                          const std::vector<double>& golden_signature,
                          double tolerance);
};

/// Relative deviation used by the checker: max over components of
/// |a - b| / max(|b|, floor).
double signature_deviation(const std::vector<double>& a,
                           const std::vector<double>& b,
                           double floor = 1e-30);

}  // namespace resilience::harness

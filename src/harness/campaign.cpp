#include "harness/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "harness/campaign_engine.hpp"
#include "harness/executor.hpp"
#include "harness/golden_cache.hpp"
#include "util/options.hpp"

namespace resilience::harness {

const char* to_string(Outcome o) noexcept {
  switch (o) {
    case Outcome::Success:
      return "Success";
    case Outcome::SDC:
      return "SDC";
    case Outcome::Failure:
      return "Failure";
    case Outcome::Crash:
      return "Crash";
  }
  return "?";
}

const char* to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::Converged:
      return "converged";
    case StopReason::TrialCap:
      return "trial-cap";
  }
  return "?";
}

AdaptiveConfig AdaptiveConfig::from_runtime() {
  const auto& opt = util::RuntimeOptions::global();
  AdaptiveConfig cfg;
  cfg.enabled = opt.adaptive;
  cfg.batch = opt.adaptive_batch;
  cfg.min_trials = opt.adaptive_min_trials;
  cfg.ci_half_width = opt.adaptive_ci_half_width;
  cfg.ci_relative = opt.adaptive_ci_relative;
  cfg.stratify = opt.adaptive_stratify;
  return cfg;
}

double signature_deviation(const std::vector<double>& a,
                           const std::vector<double>& b, double floor) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!std::isfinite(a[i])) return std::numeric_limits<double>::infinity();
    const double scale = std::max(std::abs(b[i]), floor);
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

Outcome CampaignRunner::classify(const RunOutput& out,
                                 const std::vector<double>& golden_signature,
                                 double tolerance) {
  // A planned rank death is the fault itself, not a symptom of one: the
  // abort that tears the job down classifies as Crash, not Failure.
  if (out.crashed) return Outcome::Crash;
  if (!out.runtime.ok || !out.result.has_value()) return Outcome::Failure;
  const auto& sig = out.result->signature;
  if (sig == golden_signature) return Outcome::Success;  // bit-identical
  const double dev = signature_deviation(sig, golden_signature);
  // "Different from the fault-free run but passes the application
  // checkers" (paper Success case 1).
  return dev <= tolerance ? Outcome::Success : Outcome::SDC;
}

std::vector<double> CampaignResult::propagation_probabilities() const {
  if (adaptive.has_value() && !adaptive->propagation.empty()) {
    return adaptive->propagation;
  }
  std::size_t injected_total = 0;
  for (std::size_t x = 1; x < contamination_hist.size(); ++x) {
    injected_total += contamination_hist[x];
  }
  std::vector<double> r(static_cast<std::size_t>(config.nranks), 0.0);
  if (injected_total == 0) return r;
  for (std::size_t x = 1; x < contamination_hist.size(); ++x) {
    r[x - 1] = static_cast<double>(contamination_hist[x]) /
               static_cast<double>(injected_total);
  }
  return r;
}

CampaignResult CampaignRunner::run(const apps::App& app,
                                   const DeploymentConfig& cfg) {
  return run(app, cfg, CampaignContext{});
}

CampaignResult CampaignRunner::run(const apps::App& app,
                                   const DeploymentConfig& cfg,
                                   const CampaignContext& context) {
  if (cfg.errors_per_test < 1) {
    throw std::invalid_argument("errors_per_test must be >= 1");
  }
  // The campaign's accounting domain. Every count below — whether from
  // this thread, an executor worker running a trial chunk, or a rank
  // thread inside a job — lands here; totals roll up into the study's
  // scope (if any) when this scope dies.
  telemetry::MetricScope metrics(context.metrics_parent);
  telemetry::TraceSpan span("harness", "campaign", "trials", cfg.trials);

  CampaignResult result;
  result.config = cfg;
  {
    telemetry::ScopeGuard guard(&metrics);
    telemetry::count(telemetry::Counter::HarnessCampaigns);
    if (context.golden_cache != nullptr) {
      result.golden = *context.golden_cache->get_or_profile(
          app, cfg.nranks, context.executor);
    } else {
      result.golden = profile_app(app, cfg.nranks);
      telemetry::count(telemetry::Counter::HarnessGoldenProfiles);
    }
  }

  // The deterministic trial machinery (plan drawing, execution, strata) —
  // shared with the shard coordinator/worker path (src/shard), which is
  // why a sharded campaign is bit-identical to this in-process one.
  TrialSpace space(app, cfg, result.golden);

  result.contamination_hist.assign(static_cast<std::size_t>(cfg.nranks) + 1,
                                   0);
  result.by_contamination.assign(static_cast<std::size_t>(cfg.nranks) + 1,
                                 FaultInjectionResult{});

  Executor* executor = context.executor;
  std::unique_ptr<Executor> local_executor;
  if (executor == nullptr && cfg.trials > 1) {
    const int workers = Executor::resolve_workers(cfg.max_workers);
    if (workers > 1) {
      local_executor = std::make_unique<Executor>(workers);
      executor = local_executor.get();
    }
  }

  // Run trials [0, n) of `body` to completion and return the
  // serial-equivalent seconds. Inline when no executor; otherwise
  // contiguous chunks, several per worker: large enough to amortise
  // queueing, small enough that the tail stays balanced.
  auto run_chunked = [&](std::size_t n, auto&& body) -> double {
    if (n == 0) return 0.0;
    if (executor == nullptr) {
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < n; ++i) body(i);
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    }
    const std::size_t chunk_target =
        static_cast<std::size_t>(executor->workers()) * 4;
    const std::size_t nchunks =
        std::min(n, std::max<std::size_t>(chunk_target, 1));
    const std::size_t chunk = (n + nchunks - 1) / nchunks;
    std::vector<double> chunk_seconds(nchunks, 0.0);
    std::vector<Executor::Task> tasks;
    tasks.reserve(nchunks);
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t lo = c * chunk;
      const std::size_t hi = std::min(lo + chunk, n);
      if (lo >= hi) break;
      tasks.push_back([&, c, lo, hi] {
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = lo; i < hi; ++i) body(i);
        chunk_seconds[c] = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      });
    }
    executor->run(std::move(tasks));
    // Serial-equivalent injection time: execution spans summed across
    // workers, in chunk order so the sum itself is reproducible.
    double total = 0.0;
    for (double s : chunk_seconds) total += s;
    return total;
  };

  // Fold one finished trial into the campaign tallies. Always called in
  // deterministic trial order — the parallel path stays bit-identical to
  // the serial one no matter how chunks were scheduled.
  auto merge_trial = [&](const TrialResult& t) {
    result.overall.add(t.outcome);
    if (t.contaminated >= 0 &&
        t.contaminated < static_cast<int>(result.contamination_hist.size())) {
      result.contamination_hist[static_cast<std::size_t>(t.contaminated)] += 1;
      result.by_contamination[static_cast<std::size_t>(t.contaminated)].add(
          t.outcome);
    }
  };

  // One trial body: the executing thread may be this function's thread
  // (inline path) or an executor worker (chunked path); the scope push
  // makes the trial's counts land in this campaign's scope either way.
  auto run_ref = [&](const TrialRef& ref) -> TrialResult {
    telemetry::ScopeGuard guard(&metrics);
    return space.run(ref);
  };

  if (!cfg.adaptive.enabled) {
    std::vector<TrialResult> outcomes(cfg.trials);
    result.wall_seconds = run_chunked(cfg.trials, [&](std::size_t trial) {
      outcomes[trial] = run_ref({kNoStratum, trial, trial});
    });
    for (const TrialResult& t : outcomes) merge_trial(t);
    result.metrics = metrics.snapshot();
    return result;
  }

  // ---- adaptive engine (DESIGN.md §12) ------------------------------------
  // CI-driven early stopping over (optionally) stratified sampling. The
  // driver issues refs and evaluates the stop rule only at batch
  // boundaries on tallies folded in deterministic (stratum, index) order,
  // so for a given seed the stopping point — and therefore every
  // classified outcome — is reproducible across worker counts and
  // scheduler modes.
  AdaptiveDriver driver(cfg, space);
  std::vector<TrialRef> refs;
  while (!(refs = driver.next_batch()).empty()) {
    std::vector<TrialResult> out(refs.size());
    result.wall_seconds += run_chunked(
        refs.size(), [&](std::size_t i) { out[i] = run_ref(refs[i]); });
    // Merge in (stratum, index) order — fixed before the batch ran.
    for (const TrialResult& t : out) merge_trial(t);
    driver.fold(refs, out);
  }

  const AdaptiveStats stats = driver.stats();
  result.adaptive = stats;
  {
    telemetry::ScopeGuard guard(&metrics);
    telemetry::count(telemetry::Counter::CampaignTrialsSaved,
                     static_cast<std::uint64_t>(stats.trials_requested -
                                                stats.trials_executed));
    telemetry::count(telemetry::Counter::CampaignStrata,
                     static_cast<std::uint64_t>(stats.strata));
    telemetry::trace_instant("harness",
                             stats.stop_reason == StopReason::Converged
                                 ? "adaptive_stop_converged"
                                 : "adaptive_stop_trial_cap",
                             "executed",
                             static_cast<std::uint64_t>(stats.trials_executed));
  }
  // Workers have quiesced (executor->run returned / inline loop ended):
  // the merge is exact. The scope's destructor then rolls these totals up
  // into the study scope, if any.
  result.metrics = metrics.snapshot();
  return result;
}

}  // namespace resilience::harness

#include "core/study.hpp"

#include <exception>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness/executor.hpp"
#include "harness/golden_cache.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace resilience::core {

namespace {

harness::DeploymentConfig base_deployment(const StudyConfig& cfg,
                                          std::uint64_t stream) {
  harness::DeploymentConfig dep;
  dep.trials = cfg.trials;
  dep.seed = util::derive_seed(cfg.seed, stream);
  dep.adaptive = cfg.adaptive;
  return dep;
}

/// Run independent study phases, one thread each, their campaigns
/// interleaving inside the shared executor. Phase threads only wait on
/// their own batches (they are not pool workers), so nesting is safe.
/// The lowest-index exception is rethrown after all phases finished —
/// the same error the serial order would surface first.
void run_phases(std::vector<std::function<void()>>& phases, bool overlap) {
  if (!overlap) {
    for (auto& phase : phases) phase();
    return;
  }
  std::vector<std::exception_ptr> errors(phases.size());
  std::vector<std::thread> threads;
  threads.reserve(phases.size());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    threads.emplace_back([&phases, &errors, i] {
      try {
        phases[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace

StudyResult run_study(const apps::App& app, const StudyConfig& cfg) {
  if (cfg.small_p < 1 || cfg.large_p < cfg.small_p ||
      cfg.large_p % cfg.small_p != 0) {
    throw std::invalid_argument("run_study: small_p must divide large_p");
  }
  if (!app.supports(cfg.small_p) || !app.supports(cfg.large_p)) {
    throw std::invalid_argument("run_study: " + app.label() +
                                " does not support the requested scales");
  }

  StudyResult out;
  out.config = cfg;

  // One executor (global rank-concurrency budget) and one golden cache
  // across every campaign of the study: no deployment is profiled twice,
  // and all phases' trials share the hardware fairly. The study's metric
  // scope is the rollup target of every campaign scope below.
  telemetry::MetricScope metrics;
  telemetry::TraceSpan study_span("core", "study");
  harness::Executor executor(cfg.max_workers);
  harness::GoldenCache golden_cache;
  const harness::CampaignContext ctx{&executor, &golden_cache, &metrics};
  {
    telemetry::ScopeGuard guard(&metrics);
    telemetry::count(telemetry::Counter::CoreStudies);
  }

  /// Each phase body runs with the study scope active on its thread (for
  /// counts outside any campaign, e.g. direct golden-cache probes) and a
  /// span covering the phase.
  auto as_phase = [&metrics](const char* name, std::function<void()> body) {
    return [&metrics, name, body = std::move(body)] {
      telemetry::ScopeGuard guard(&metrics);
      telemetry::TraceSpan span("core", name);
      telemetry::count(telemetry::Counter::CoreStudyPhases);
      body();
    };
  };

  out.sweep.large_p = cfg.large_p;
  out.sweep.sample_x = SerialSweep::sample_points(cfg.large_p, cfg.small_p);
  out.sweep.results.resize(out.sweep.sample_x.size());
  std::vector<double> sweep_seconds(out.sweep.sample_x.size(), 0.0);
  std::vector<harness::CampaignResult> small_campaign(1);
  // Per-phase adaptive records, each phase writing its own slot (phases
  // overlap on threads); assembled into out.adaptive_phases afterwards in
  // a fixed order.
  std::vector<std::optional<harness::AdaptiveStats>> sweep_adaptive(
      out.sweep.sample_x.size());
  std::optional<harness::AdaptiveStats> large_adaptive;
  std::optional<harness::AdaptiveStats> unique_adaptive;

  // All serial sweep points, the small-scale campaign, the large-scale
  // fault-free profile, and the optional measured large-scale campaign
  // are mutually independent — they overlap through the executor.
  std::vector<std::function<void()>> phases;

  // ---- serial sweeps: FI_ser_x at the paper's sample points --------------
  for (std::size_t i = 0; i < out.sweep.sample_x.size(); ++i) {
    phases.push_back(as_phase("serial_sweep", [&, i] {
      harness::DeploymentConfig dep = base_deployment(cfg, 1000 + i);
      dep.nranks = 1;
      dep.errors_per_test = out.sweep.sample_x[i];
      dep.scenario.regions = fsefi::RegionMask::Common;  // errors go into the common
                                                // computation (Section 3.3)
      const auto campaign = harness::CampaignRunner::run(app, dep, ctx);
      sweep_seconds[i] = campaign.wall_seconds;
      out.sweep.results[i] = campaign.overall;
      sweep_adaptive[i] = campaign.adaptive;
    }));
  }

  // ---- small-scale campaign: propagation + conditional results -----------
  phases.push_back(as_phase("small_campaign", [&] {
    harness::DeploymentConfig dep = base_deployment(cfg, 2000);
    dep.nranks = cfg.small_p;
    small_campaign[0] = harness::CampaignRunner::run(app, dep, ctx);
  }));

  // ---- large-scale fault-free profile (for prob2, Eq. 1) -----------------
  // The paper assumes the large scale's time split is known/predictable;
  // one fault-free profile supplies it. The cache keeps it for the
  // measured campaign too.
  phases.push_back(as_phase("large_profile", [&] {
    out.prob_unique =
        golden_cache
            .get_or_profile(app, cfg.large_p, &executor)
            ->unique_fraction();
  }));

  // ---- optional measured large-scale campaign ----------------------------
  if (cfg.measure_large) {
    phases.push_back(as_phase("large_campaign", [&] {
      harness::DeploymentConfig dep = base_deployment(cfg, 4000);
      dep.nranks = cfg.large_p;
      const auto campaign = harness::CampaignRunner::run(app, dep, ctx);
      out.large_injection_seconds = campaign.wall_seconds;
      out.measured_large = campaign.overall;
      out.measured_propagation = campaign.propagation_probabilities();
      large_adaptive = campaign.adaptive;
    }));
  }

  run_phases(phases, /*overlap=*/executor.workers() > 1);

  for (double s : sweep_seconds) out.serial_injection_seconds += s;
  out.small_injection_seconds = small_campaign[0].wall_seconds;
  out.small = SmallScaleObservation::from_campaign(small_campaign[0]);

  // ---- parallel-unique term (Eq. 1) --------------------------------------
  PredictorOptions popts = cfg.predictor;
  if (out.prob_unique > cfg.unique_fraction_threshold) {
    as_phase("unique_campaign", [&] {
      harness::DeploymentConfig dep = base_deployment(cfg, 3000);
      dep.nranks = cfg.small_p;
      dep.scenario.regions = fsefi::RegionMask::ParallelUnique;
      const auto campaign = harness::CampaignRunner::run(app, dep, ctx);
      out.small_injection_seconds += campaign.wall_seconds;
      popts.prob_unique = out.prob_unique;
      popts.unique_result = campaign.overall;
      unique_adaptive = campaign.adaptive;
    })();
  }

  // ---- adaptive records (DESIGN.md §12) ----------------------------------
  // Fixed assembly order; measured_adaptive feeds the accuracy gate.
  for (std::size_t i = 0; i < sweep_adaptive.size(); ++i) {
    if (sweep_adaptive[i]) {
      out.adaptive_phases.push_back(
          {"serial_sweep_x" + std::to_string(out.sweep.sample_x[i]),
           *sweep_adaptive[i]});
    }
  }
  if (small_campaign[0].adaptive) {
    out.adaptive_phases.push_back(
        {"small_campaign", *small_campaign[0].adaptive});
  }
  if (large_adaptive) {
    out.adaptive_phases.push_back({"large_campaign", *large_adaptive});
    out.measured_adaptive = large_adaptive;
  }
  if (unique_adaptive) {
    out.adaptive_phases.push_back({"unique_campaign", *unique_adaptive});
  }

  // Every campaign scope has folded its totals into the study scope by
  // now (campaigns end before their phase returns).
  out.metrics = metrics.snapshot();

  // ---- predict ------------------------------------------------------------
  const ResiliencePredictor predictor(out.sweep, out.small, popts);
  out.prediction = predictor.predict(cfg.large_p);
  return out;
}

}  // namespace resilience::core

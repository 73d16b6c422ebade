// Telemetry determinism gates (DESIGN.md §10): telemetry is execution
// policy only. Every app, at two rank counts, must produce bit-identical
// campaign results with metrics+tracing enabled and disabled; and two
// runs with the same seed must report identical logical counters and
// histograms (the timing-born diagnostics are exempt — see is_logical).
#include <gtest/gtest.h>

#include "harness/campaign.hpp"
#include "core/study.hpp"
#include "simmpi/runtime.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"

namespace resilience {
namespace {

using harness::CampaignRunner;
using harness::DeploymentConfig;
using telemetry::Counter;

/// Restores the production default on scope exit.
struct MetricsRestore {
  ~MetricsRestore() { telemetry::set_metrics_enabled(true); }
};

std::vector<int> rank_counts(const apps::App& app) {
  std::vector<int> out;
  for (const int n : {2, 4}) {
    if (app.supports(n)) out.push_back(n);
  }
  if (out.size() < 2 && app.supports(1)) out.insert(out.begin(), 1);
  return out;
}

void expect_same_campaign(const harness::CampaignResult& a,
                          const harness::CampaignResult& b,
                          const std::string& label) {
  EXPECT_EQ(a.overall.trials, b.overall.trials) << label;
  EXPECT_EQ(a.overall.success, b.overall.success) << label;
  EXPECT_EQ(a.overall.sdc, b.overall.sdc) << label;
  EXPECT_EQ(a.overall.failure, b.overall.failure) << label;
  EXPECT_EQ(a.contamination_hist, b.contamination_hist) << label;
  ASSERT_EQ(a.by_contamination.size(), b.by_contamination.size()) << label;
  for (std::size_t x = 0; x < b.by_contamination.size(); ++x) {
    EXPECT_EQ(a.by_contamination[x].trials, b.by_contamination[x].trials)
        << label << " x=" << x;
    EXPECT_EQ(a.by_contamination[x].success, b.by_contamination[x].success)
        << label << " x=" << x;
    EXPECT_EQ(a.by_contamination[x].sdc, b.by_contamination[x].sdc)
        << label << " x=" << x;
    EXPECT_EQ(a.by_contamination[x].failure, b.by_contamination[x].failure)
        << label << " x=" << x;
  }
  EXPECT_EQ(a.golden.signature, b.golden.signature) << label;
}

TEST(TelemetryDiff, EveryAppCampaignBitIdenticalTelemetryOnVsOff) {
  MetricsRestore restore;
  for (const auto id : apps::all_app_ids()) {
    const auto app = apps::make_app(id);
    for (const int nranks : rank_counts(*app)) {
      DeploymentConfig cfg;
      cfg.nranks = nranks;
      cfg.trials = 15;
      cfg.seed = 20180813;
      const std::string label = app->label() + " p=" + std::to_string(nranks);

      // "On" leg: metrics enabled AND an active trace session, so every
      // span/instant call site in the stack actually emits.
      telemetry::set_metrics_enabled(true);
      auto sink = std::make_shared<telemetry::MemorySink>();
      telemetry::TraceSession::start(sink);
      const auto on = CampaignRunner::run(*app, cfg);
      telemetry::TraceSession::stop();
      EXPECT_FALSE(sink->events().empty()) << label;
      EXPECT_EQ(on.metrics.value(Counter::HarnessTrials), cfg.trials)
          << label;

      telemetry::set_metrics_enabled(false);
      const auto off = CampaignRunner::run(*app, cfg);
      telemetry::set_metrics_enabled(true);
      EXPECT_TRUE(off.metrics.empty()) << label;

      expect_same_campaign(on, off, label);
    }
  }
}

TEST(TelemetryDiff, SameSeedTwiceReportsIdenticalLogicalCounters) {
  for (const auto id : apps::all_app_ids()) {
    const auto app = apps::make_app(id);
    const int nranks = app->supports(4) ? 4 : 2;
    DeploymentConfig cfg;
    cfg.nranks = nranks;
    cfg.trials = 15;
    cfg.seed = 20180813;
    const std::string label = app->label() + " p=" + std::to_string(nranks);

    const auto first = CampaignRunner::run(*app, cfg);
    const auto second = CampaignRunner::run(*app, cfg);
    expect_same_campaign(first, second, label);
    EXPECT_TRUE(first.metrics.logical_equal(second.metrics)) << label;
    EXPECT_EQ(first.metrics.value(Counter::HarnessTrials), cfg.trials)
        << label;
    EXPECT_EQ(first.metrics.value(Counter::HarnessCampaigns), 1u) << label;
    EXPECT_EQ(first.metrics.value(Counter::HarnessGoldenProfiles), 1u)
        << label;
    EXPECT_EQ(
        first.metrics.histogram(telemetry::Histogram::HarnessContaminatedRanks)
            .total(),
        cfg.trials)
        << label;
  }
}

TEST(TelemetryDiff, ConcurrentTrialsRollUpEveryCountExactlyOnce) {
  // Every rank fiber of a trial counts through its executor thread's
  // shard, and trials run side by side on the executor's threads. The campaign
  // rollup must still fold every shard exactly once: the logical view of
  // a 4-worker fused campaign equals the serial mailbox-path view bit for
  // bit, and the absolute harness counters match the trial count (a
  // double-fold or dropped shard would show up here, not just as an
  // inequality between legs).
  const auto app = apps::make_app(apps::AppId::MG);
  DeploymentConfig cfg;
  cfg.nranks = 4;
  cfg.trials = 15;
  cfg.seed = 20180813;

  cfg.max_workers = 4;
  const auto fused = CampaignRunner::run(*app, cfg);
  cfg.max_workers = 1;
  simmpi::detail::set_fused_collectives_enabled(false);
  const auto mailbox = CampaignRunner::run(*app, cfg);
  simmpi::detail::set_fused_collectives_enabled(true);

  expect_same_campaign(fused, mailbox, "fused@4workers vs mailbox@1worker");
  EXPECT_TRUE(fused.metrics.logical_equal(mailbox.metrics));
  EXPECT_EQ(fused.metrics.value(Counter::HarnessTrials), cfg.trials);
  EXPECT_EQ(fused.metrics.value(Counter::HarnessCampaigns), 1u);
  EXPECT_EQ(fused.metrics.value(Counter::HarnessGoldenProfiles), 1u);
  EXPECT_EQ(
      fused.metrics.histogram(telemetry::Histogram::HarnessContaminatedRanks)
          .total(),
      cfg.trials);
}

TEST(TelemetryDiff, StudyBitIdenticalTelemetryOnVsOff) {
  MetricsRestore restore;
  const auto app = apps::make_app(apps::AppId::CG);
  core::StudyConfig cfg;
  cfg.small_p = 2;
  cfg.large_p = 4;
  cfg.trials = 12;

  telemetry::set_metrics_enabled(true);
  const auto on = core::run_study(*app, cfg);
  telemetry::set_metrics_enabled(false);
  const auto off = core::run_study(*app, cfg);
  telemetry::set_metrics_enabled(true);

  EXPECT_EQ(on.prediction.combined.success, off.prediction.combined.success);
  EXPECT_EQ(on.prediction.combined.sdc, off.prediction.combined.sdc);
  EXPECT_EQ(on.prediction.combined.failure, off.prediction.combined.failure);
  EXPECT_EQ(on.prob_unique, off.prob_unique);
  ASSERT_EQ(on.sweep.results.size(), off.sweep.results.size());
  for (std::size_t i = 0; i < off.sweep.results.size(); ++i) {
    EXPECT_EQ(on.sweep.results[i].success, off.sweep.results[i].success)
        << "sweep " << i;
    EXPECT_EQ(on.sweep.results[i].sdc, off.sweep.results[i].sdc)
        << "sweep " << i;
  }
  ASSERT_TRUE(on.measured_large.has_value());
  ASSERT_TRUE(off.measured_large.has_value());
  EXPECT_EQ(on.measured_large->success, off.measured_large->success);
  EXPECT_EQ(on.measured_large->sdc, off.measured_large->sdc);
  EXPECT_EQ(on.measured_large->failure, off.measured_large->failure);

  // The on leg rolled up its campaigns; the off leg collected nothing.
  EXPECT_GT(on.metrics.value(Counter::CoreStudyPhases), 0u);
  EXPECT_GT(on.metrics.value(Counter::HarnessCampaigns), 0u);
  EXPECT_TRUE(off.metrics.empty());
}

}  // namespace
}  // namespace resilience

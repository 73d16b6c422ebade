// Scheduling-independence stress tests: campaign results must be a pure
// function of (app, config) regardless of how many trials run side by
// side and how collectives execute. This is what makes every number in
// EXPERIMENTS.md exactly reproducible, and what the profiling pre-pass's
// dynamic-op indices rely on.
#include <gtest/gtest.h>

#include "harness/campaign.hpp"
#include "simmpi/runtime.hpp"

namespace resilience {
namespace {

using harness::CampaignRunner;
using harness::DeploymentConfig;

TEST(Determinism, SixteenRankCampaignIdenticalAcrossRepeats) {
  const auto app = apps::make_app(apps::AppId::CG);
  DeploymentConfig cfg;
  cfg.nranks = 16;
  cfg.trials = 30;
  cfg.seed = 4242;
  const auto first = CampaignRunner::run(*app, cfg);
  for (int repeat = 0; repeat < 2; ++repeat) {
    const auto again = CampaignRunner::run(*app, cfg);
    EXPECT_EQ(again.overall.success, first.overall.success);
    EXPECT_EQ(again.overall.sdc, first.overall.sdc);
    EXPECT_EQ(again.overall.failure, first.overall.failure);
    EXPECT_EQ(again.contamination_hist, first.contamination_hist);
    EXPECT_EQ(again.golden.signature, first.golden.signature);
  }
}

TEST(Determinism, EveryAppGoldenStableAtEightRanks) {
  for (const auto id : apps::all_app_ids()) {
    const auto app = apps::make_app(id);
    const auto a = harness::profile_app(*app, 8);
    const auto b = harness::profile_app(*app, 8);
    EXPECT_EQ(a.signature, b.signature) << app->label();
    for (std::size_t r = 0; r < 8; ++r) {
      // Per-rank dynamic op counts are the injection sample space: any
      // scheduling sensitivity here would corrupt index targeting.
      EXPECT_EQ(a.profiles[r].total(), b.profiles[r].total())
          << app->label() << " rank " << r;
      EXPECT_EQ(a.profiles[r].matching(fsefi::KindMask::AddMul,
                                       fsefi::RegionMask::All),
                b.profiles[r].matching(fsefi::KindMask::AddMul,
                                       fsefi::RegionMask::All))
          << app->label() << " rank " << r;
    }
  }
}

TEST(Determinism, InjectedRunReplaysExactly) {
  // Re-running one trial's plan reproduces the identical outcome and
  // contamination pattern — the debugging workflow the seeded design
  // exists for.
  const auto app = apps::make_app(apps::AppId::FT);
  const auto golden = harness::profile_app(*app, 8);
  std::vector<fsefi::InjectionPlan> plans(8);
  plans[3].points = {{.op_index = 777, .operand = 1, .bit = 51}};
  const auto a = harness::run_app_once(*app, 8, plans);
  const auto b = harness::run_app_once(*app, 8, plans);
  EXPECT_EQ(a.runtime.ok, b.runtime.ok);
  EXPECT_EQ(a.contaminated, b.contaminated);
  if (a.result && b.result) {
    EXPECT_EQ(a.result->signature, b.result->signature);
  }
  EXPECT_EQ(
      CampaignRunner::classify(a, golden.signature, app->checker_tolerance()),
      CampaignRunner::classify(b, golden.signature, app->checker_tolerance()));
}

// The parallel campaign executor's determinism contract: for the same
// seed, any worker count produces the same CampaignResult bit for bit —
// overall counts, contamination histogram, and the per-contamination
// splits. Exercised across two apps, a serial deployment and a
// small-parallel one.
TEST(Determinism, ParallelCampaignBitIdenticalToSerial) {
  struct Case {
    apps::AppId id;
    int nranks;
  };
  for (const Case c : {Case{apps::AppId::LU, 1}, Case{apps::AppId::LU, 4},
                       Case{apps::AppId::MG, 1}, Case{apps::AppId::MG, 4}}) {
    const auto app = apps::make_app(c.id);
    DeploymentConfig cfg;
    cfg.nranks = c.nranks;
    cfg.trials = 40;
    cfg.seed = 20180813;
    if (c.nranks == 1) cfg.scenario.regions = fsefi::RegionMask::Common;

    cfg.max_workers = 1;
    const auto serial = CampaignRunner::run(*app, cfg);
    for (const int workers : {3, 8}) {
      cfg.max_workers = workers;
      const auto parallel = CampaignRunner::run(*app, cfg);
      const auto label =
          app->label() + " @" + std::to_string(c.nranks) + " ranks, " +
          std::to_string(workers) + " workers";
      EXPECT_EQ(parallel.overall.trials, serial.overall.trials) << label;
      EXPECT_EQ(parallel.overall.success, serial.overall.success) << label;
      EXPECT_EQ(parallel.overall.sdc, serial.overall.sdc) << label;
      EXPECT_EQ(parallel.overall.failure, serial.overall.failure) << label;
      EXPECT_EQ(parallel.contamination_hist, serial.contamination_hist)
          << label;
      ASSERT_EQ(parallel.by_contamination.size(),
                serial.by_contamination.size())
          << label;
      for (std::size_t x = 0; x < serial.by_contamination.size(); ++x) {
        EXPECT_EQ(parallel.by_contamination[x].trials,
                  serial.by_contamination[x].trials)
            << label << " x=" << x;
        EXPECT_EQ(parallel.by_contamination[x].success,
                  serial.by_contamination[x].success)
            << label << " x=" << x;
        EXPECT_EQ(parallel.by_contamination[x].sdc,
                  serial.by_contamination[x].sdc)
            << label << " x=" << x;
      }
      EXPECT_EQ(parallel.golden.signature, serial.golden.signature) << label;
    }
  }
}

// The execution-mode determinism contract: a campaign is a pure function
// of (app, config) whether collectives are fused (the default) or
// decomposed into mailbox messages, and no matter how many campaign
// workers run trials side by side. The fused legs guard the production
// configuration; the pre-deletion outputs of the multi-threaded cores
// live on as fixtures (test_output_fixtures.cpp).
TEST(Determinism, SchedulerModeCampaignBitIdenticalAcrossCores) {
  const auto app = apps::make_app(apps::AppId::CG);
  DeploymentConfig cfg;
  cfg.nranks = 8;
  cfg.trials = 30;
  cfg.seed = 20180813;

  struct Leg {
    const char* name;
    bool fused;
    int max_workers;  // campaign executor width
  };
  const Leg legs[] = {
      {"fibers/fused/1w", true, 1},
      {"fibers/fused/8w", true, 8},
      {"fibers/fused/8w repeat", true, 8},
      {"fibers/mailbox", false, 8},
  };
  harness::CampaignResult baseline;
  bool have_baseline = false;
  for (const Leg& leg : legs) {
    simmpi::detail::set_fused_collectives_enabled(leg.fused);
    cfg.max_workers = leg.max_workers;
    const auto got = CampaignRunner::run(*app, cfg);
    if (!have_baseline) {
      baseline = got;
      have_baseline = true;
      continue;
    }
    EXPECT_EQ(got.overall.success, baseline.overall.success) << leg.name;
    EXPECT_EQ(got.overall.sdc, baseline.overall.sdc) << leg.name;
    EXPECT_EQ(got.overall.failure, baseline.overall.failure) << leg.name;
    EXPECT_EQ(got.contamination_hist, baseline.contamination_hist) << leg.name;
    EXPECT_EQ(got.golden.signature, baseline.golden.signature) << leg.name;
  }
  simmpi::detail::set_fused_collectives_enabled(true);
}

TEST(Determinism, ParallelCampaignWithFewerTrialsThanWorkers) {
  const auto app = apps::make_app(apps::AppId::LU);
  DeploymentConfig cfg;
  cfg.nranks = 2;
  cfg.trials = 3;  // fewer than the worker count
  cfg.seed = 99;
  cfg.max_workers = 1;
  const auto serial = CampaignRunner::run(*app, cfg);
  cfg.max_workers = 8;
  const auto parallel = CampaignRunner::run(*app, cfg);
  EXPECT_EQ(parallel.overall.success, serial.overall.success);
  EXPECT_EQ(parallel.overall.sdc, serial.overall.sdc);
  EXPECT_EQ(parallel.overall.failure, serial.overall.failure);
  EXPECT_EQ(parallel.contamination_hist, serial.contamination_hist);
}

TEST(Determinism, Cg2dStableUnderThreadScheduling) {
  // The 2D decomposition adds split communicators, transpose exchanges
  // and merge traffic; repeat runs must still agree bit for bit.
  const auto app = apps::make_app(apps::AppId::CG, "2D");
  const auto a = harness::profile_app(*app, 16);
  const auto b = harness::profile_app(*app, 16);
  EXPECT_EQ(a.signature, b.signature);
}

}  // namespace
}  // namespace resilience

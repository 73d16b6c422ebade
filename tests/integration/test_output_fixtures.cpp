// Output fixtures: campaign and study results recorded before simmpi
// jobs became single-threaded (pre_single_thread_outputs.inc documents
// how each was produced). The current code must reproduce them exactly —
// saved campaign JSON byte for byte, study rates to the bit — at every
// executor width.
#include <gtest/gtest.h>

#include <string>

#include "apps/app.hpp"
#include "core/study.hpp"
#include "harness/campaign.hpp"
#include "harness/serialize.hpp"

namespace resilience {
namespace {

using harness::CampaignResult;
using harness::CampaignRunner;
using harness::DeploymentConfig;

struct FixedCampaignFixture {
  apps::AppId app;
  int nranks;
  const char* json;
};

struct RateFixture {
  double success;
  double sdc;
  double failure;
};

struct StudyFixture {
  RateFixture common;
  RateFixture combined;
  RateFixture measured;
};

#include "pre_single_thread_outputs.inc"

/// The saved-campaign form with the wall clock zeroed.
std::string saved_form(CampaignResult result) {
  result.wall_seconds = 0.0;
  return harness::to_json(result).dump(2);
}

TEST(OutputFixtures, FixedCampaignsReproduceSavedJson) {
  for (const FixedCampaignFixture& fixture : kFixedCampaigns) {
    const auto app = apps::make_app(fixture.app);
    DeploymentConfig cfg;
    cfg.nranks = fixture.nranks;
    cfg.trials = 32;
    cfg.seed = 1808;
    for (const int workers : {1, 4}) {
      cfg.max_workers = workers;
      EXPECT_EQ(saved_form(CampaignRunner::run(*app, cfg)), fixture.json)
          << app->label() << " @" << fixture.nranks << " ranks, " << workers
          << " workers";
    }
  }
}

TEST(OutputFixtures, AdaptiveCampaignReproducesSavedJson) {
  const auto app = apps::make_app(apps::AppId::CG);
  DeploymentConfig cfg;
  cfg.nranks = 4;
  cfg.trials = 256;
  cfg.seed = 1808;
  cfg.adaptive.enabled = true;
  cfg.adaptive.batch = 16;
  cfg.adaptive.min_trials = 32;
  cfg.adaptive.ci_half_width = 0.1;
  for (const int workers : {1, 4}) {
    cfg.max_workers = workers;
    EXPECT_EQ(saved_form(CampaignRunner::run(*app, cfg)), kAdaptiveCampaign)
        << workers << " workers";
  }
}

void expect_rates(const core::Rates& got, const RateFixture& want,
                  const char* what) {
  EXPECT_EQ(got.success, want.success) << what;
  EXPECT_EQ(got.sdc, want.sdc) << what;
  EXPECT_EQ(got.failure, want.failure) << what;
}

TEST(OutputFixtures, StudyReproducesPredictedAndMeasuredRates) {
  const auto app = apps::make_app(apps::AppId::LU);
  core::StudyConfig cfg;
  cfg.small_p = 2;
  cfg.large_p = 8;
  cfg.trials = 40;
  cfg.seed = 1808;
  for (const int workers : {1, 4}) {
    cfg.max_workers = workers;
    const core::StudyResult study = core::run_study(*app, cfg);
    ASSERT_TRUE(study.measured_large.has_value());
    expect_rates(study.prediction.common, kStudy.common, "common");
    expect_rates(study.prediction.combined, kStudy.combined, "combined");
    expect_rates(core::Rates::from(*study.measured_large), kStudy.measured,
                 "measured");
  }
}

}  // namespace
}  // namespace resilience

// Whole-application differential tests of the instrumented-arithmetic
// fast path (DESIGN.md §8): every app, run with injections armed, must
// produce bit-identical observables under set_fast_real_enabled(false)
// (the pre-countdown reference implementation) and the countdown + blocked-
// kernel fast path — op-count profiles, filtered-stream lengths,
// injection traces, contamination, output signatures, and whole campaign
// results. This is the acceptance gate that lets the fast path replace
// the reference implementation in every experiment.
#include <gtest/gtest.h>

#include "harness/campaign.hpp"

namespace resilience {
namespace {

using harness::CampaignRunner;
using harness::DeploymentConfig;

/// Restores the production default on scope exit.
struct FastRealRestore {
  ~FastRealRestore() { fsefi::set_fast_real_enabled(true); }
};

int small_rank_count(const apps::App& app) {
  for (const int n : {4, 2, 1}) {
    if (app.supports(n)) return n;
  }
  return 1;
}

harness::RunOutput run_mode(bool fast, const apps::App& app, int nranks,
                            const std::vector<fsefi::InjectionPlan>& plans,
                            const harness::RunOptions& opts = {}) {
  fsefi::set_fast_real_enabled(fast);
  return harness::run_app_once(app, nranks, plans, opts);
}

void expect_same_output(const harness::RunOutput& fast,
                        const harness::RunOutput& ref,
                        const std::string& label) {
  EXPECT_EQ(fast.runtime.ok, ref.runtime.ok) << label;
  EXPECT_EQ(fast.hang, ref.hang) << label;
  EXPECT_EQ(fast.result.has_value(), ref.result.has_value()) << label;
  if (fast.result && ref.result) {
    EXPECT_EQ(fast.result->signature, ref.result->signature) << label;
  }
  ASSERT_EQ(fast.profiles.size(), ref.profiles.size()) << label;
  for (std::size_t r = 0; r < ref.profiles.size(); ++r) {
    EXPECT_EQ(fast.profiles[r], ref.profiles[r]) << label << " rank " << r;
  }
  EXPECT_EQ(fast.filtered_ops, ref.filtered_ops) << label;
  EXPECT_EQ(fast.contaminated, ref.contaminated) << label;
  ASSERT_EQ(fast.injection_events.size(), ref.injection_events.size()) << label;
  for (std::size_t r = 0; r < ref.injection_events.size(); ++r) {
    EXPECT_EQ(fast.injection_events[r], ref.injection_events[r])
        << label << " rank " << r;
  }
}

TEST(FastRealDiff, EveryAppInjectedRunBitIdenticalToReference) {
  FastRealRestore restore;
  for (const auto id : apps::all_app_ids()) {
    const auto app = apps::make_app(id);
    const int nranks = small_rank_count(*app);

    // The golden pre-pass itself (unarmed contexts, blocked kernels on
    // the fast leg) must agree first: its per-rank op counts are the
    // sample space every plan below indexes into.
    fsefi::set_fast_real_enabled(false);
    const auto golden = harness::profile_app(*app, nranks);
    fsefi::set_fast_real_enabled(true);
    const auto golden_fast = harness::profile_app(*app, nranks);
    EXPECT_EQ(golden_fast.signature, golden.signature) << app->label();
    for (int r = 0; r < nranks; ++r) {
      EXPECT_EQ(golden_fast.profiles[static_cast<std::size_t>(r)],
                golden.profiles[static_cast<std::size_t>(r)])
          << app->label() << " golden rank " << r;
    }

    // Per-rank plans: flips spread across each rank's filtered stream
    // (start, interior, last), one high-exponent and one mantissa flip, a
    // multi-bit burst, and on rank 0 a duplicate-index double flip.
    std::vector<fsefi::InjectionPlan> plans(
        static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      auto& plan = plans[static_cast<std::size_t>(r)];
      const std::uint64_t matching =
          golden.profiles[static_cast<std::size_t>(r)].matching(
              plan.kinds, plan.regions);
      ASSERT_GT(matching, 8u) << app->label() << " rank " << r;
      plan.points = {
          {.op_index = 0, .operand = 0, .bit = 12},
          {.op_index = matching / 3, .operand = 1, .bit = 57},
          {.op_index = matching / 2, .operand = 0, .bit = 40, .width = 4},
          {.op_index = matching - 1, .operand = 1, .bit = 3},
      };
      if (r == 0) {
        plan.points.insert(plan.points.begin() + 1,
                           {.op_index = matching / 3, .operand = 1, .bit = 5});
      }
    }

    const auto ref = run_mode(false, *app, nranks, plans);
    const auto fast = run_mode(true, *app, nranks, plans);
    expect_same_output(fast, ref, app->label());
    // The plans were built to perform every flip.
    for (int r = 0; r < nranks; ++r) {
      EXPECT_EQ(fast.injection_events[static_cast<std::size_t>(r)].size(),
                plans[static_cast<std::size_t>(r)].points.size())
          << app->label() << " rank " << r;
      EXPECT_TRUE(fast.contaminated[static_cast<std::size_t>(r)])
          << app->label() << " rank " << r;
    }
  }
}

TEST(FastRealDiff, HangBudgetRunBitIdenticalToReference) {
  FastRealRestore restore;
  const auto app = apps::make_app(apps::AppId::CG);
  const int nranks = small_rank_count(*app);
  fsefi::set_fast_real_enabled(true);
  const auto golden = harness::profile_app(*app, nranks);

  // A budget below the fault-free op count: every rank hits the guard at
  // a deterministic op in both modes, and the run classifies as a hang.
  harness::RunOptions opts;
  opts.op_budget = golden.max_rank_ops / 2;
  const std::vector<fsefi::InjectionPlan> plans(
      static_cast<std::size_t>(nranks));

  const auto ref = run_mode(false, *app, nranks, plans, opts);
  const auto fast = run_mode(true, *app, nranks, plans, opts);
  EXPECT_FALSE(fast.runtime.ok);
  EXPECT_TRUE(fast.hang);
  EXPECT_EQ(fast.runtime.ok, ref.runtime.ok);
  EXPECT_EQ(fast.hang, ref.hang);
}

TEST(FastRealDiff, CampaignBitIdenticalToReference) {
  FastRealRestore restore;
  for (const auto id : {apps::AppId::CG, apps::AppId::MG}) {
    const auto app = apps::make_app(id);
    DeploymentConfig cfg;
    cfg.nranks = 4;
    cfg.trials = 25;
    cfg.seed = 20180813;

    fsefi::set_fast_real_enabled(false);
    const auto ref = CampaignRunner::run(*app, cfg);
    fsefi::set_fast_real_enabled(true);
    const auto fast = CampaignRunner::run(*app, cfg);

    const std::string label = app->label();
    EXPECT_EQ(fast.overall.trials, ref.overall.trials) << label;
    EXPECT_EQ(fast.overall.success, ref.overall.success) << label;
    EXPECT_EQ(fast.overall.sdc, ref.overall.sdc) << label;
    EXPECT_EQ(fast.overall.failure, ref.overall.failure) << label;
    EXPECT_EQ(fast.contamination_hist, ref.contamination_hist) << label;
    ASSERT_EQ(fast.by_contamination.size(), ref.by_contamination.size())
        << label;
    for (std::size_t x = 0; x < ref.by_contamination.size(); ++x) {
      EXPECT_EQ(fast.by_contamination[x].trials, ref.by_contamination[x].trials)
          << label << " x=" << x;
      EXPECT_EQ(fast.by_contamination[x].sdc, ref.by_contamination[x].sdc)
          << label << " x=" << x;
    }
    EXPECT_EQ(fast.golden.signature, ref.golden.signature) << label;
  }
}

}  // namespace
}  // namespace resilience

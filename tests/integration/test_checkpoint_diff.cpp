// Whole-application differential tests of the golden-checkpoint fast
// path (DESIGN.md §9): every app, at several rank counts, must produce
// bit-identical observables with checkpoint fast-forward + early-exit
// pruning enabled and disabled — output signatures, op-count profiles,
// filtered-stream lengths, injection traces, contamination, and whole
// campaign results. This is the acceptance gate that lets campaigns skip
// fault-free prefixes and reconverged tails by default.
#include <gtest/gtest.h>

#include "harness/campaign.hpp"
#include "harness/checkpoint.hpp"
#include "telemetry/telemetry.hpp"

namespace resilience {
namespace {

using harness::CampaignRunner;
using harness::DeploymentConfig;

/// Restores the production default on scope exit.
struct CheckpointRestore {
  ~CheckpointRestore() { harness::set_checkpoint_enabled(true); }
};

std::vector<int> rank_counts(const apps::App& app) {
  std::vector<int> out;
  for (const int n : {2, 4}) {
    if (app.supports(n)) out.push_back(n);
  }
  if (out.size() < 2 && app.supports(1)) out.insert(out.begin(), 1);
  return out;
}

void expect_same_output(const harness::RunOutput& on,
                        const harness::RunOutput& off,
                        const std::string& label) {
  EXPECT_EQ(on.runtime.ok, off.runtime.ok) << label;
  EXPECT_EQ(on.hang, off.hang) << label;
  EXPECT_EQ(on.result.has_value(), off.result.has_value()) << label;
  if (on.result && off.result) {
    EXPECT_EQ(on.result->signature, off.result->signature) << label;
    EXPECT_EQ(on.result->iterations, off.result->iterations) << label;
  }
  ASSERT_EQ(on.profiles.size(), off.profiles.size()) << label;
  for (std::size_t r = 0; r < off.profiles.size(); ++r) {
    EXPECT_EQ(on.profiles[r], off.profiles[r]) << label << " rank " << r;
  }
  EXPECT_EQ(on.filtered_ops, off.filtered_ops) << label;
  EXPECT_EQ(on.contaminated, off.contaminated) << label;
  ASSERT_EQ(on.injection_events.size(), off.injection_events.size()) << label;
  for (std::size_t r = 0; r < off.injection_events.size(); ++r) {
    EXPECT_EQ(on.injection_events[r], off.injection_events[r])
        << label << " rank " << r;
  }
}

TEST(CheckpointDiff, EveryAppInjectedRunBitIdenticalToCheckpointOff) {
  CheckpointRestore restore;
  harness::set_checkpoint_enabled(true);
  std::size_t restored_runs = 0;
  std::size_t early_exits = 0;
  for (const auto id : apps::all_app_ids()) {
    const auto app = apps::make_app(id);
    for (const int nranks : rank_counts(*app)) {
      const auto golden =
          harness::profile_app(*app, nranks, /*capture_checkpoints=*/true);
      ASSERT_NE(golden.checkpoints, nullptr)
          << app->label() << " at " << nranks << " ranks captured nothing";

      // One late single-flip plan per rank (deep in the filtered stream,
      // where fast-forward pays off), plus on rank 0 an *early* flip that
      // rules out any restore — both legs must agree in every case. Low
      // mantissa bits are used on half the ranks so some runs reconverge
      // and exercise the early exit.
      for (const bool late : {true, false}) {
        std::vector<fsefi::InjectionPlan> plans(
            static_cast<std::size_t>(nranks));
        for (int r = 0; r < nranks; ++r) {
          auto& plan = plans[static_cast<std::size_t>(r)];
          const std::uint64_t matching =
              golden.profiles[static_cast<std::size_t>(r)].matching(
                  plan.kinds, plan.regions);
          ASSERT_GT(matching, 8u) << app->label() << " rank " << r;
          const std::uint64_t index = late ? matching - 1 - matching / 8
                                           : (r == 0 ? 0 : matching / 2);
          plan.points = {{.op_index = index,
                          .operand = 0,
                          .bit = static_cast<std::uint8_t>(
                              (r % 2 == 0) ? 2 : 52)}};
        }

        const std::string label = app->label() + " p=" +
                                  std::to_string(nranks) +
                                  (late ? " late" : " early");
        harness::RunOptions on_opts;
        on_opts.checkpoints = golden.checkpoints.get();
        const auto on = harness::run_app_once(*app, nranks, plans, on_opts);
        const auto off = harness::run_app_once(*app, nranks, plans, {});
        expect_same_output(on, off, label);
        EXPECT_FALSE(off.checkpoint_restored) << label;
        if (on.checkpoint_restored) ++restored_runs;
        if (on.early_exit) ++early_exits;
      }
    }
  }
  // The late plans must actually engage the fast path somewhere, and the
  // low-bit flips must reconverge at least once.
  EXPECT_GT(restored_runs, 0u);
  EXPECT_GT(early_exits, 0u);
}

TEST(CheckpointDiff, HangBudgetRunBitIdenticalAtRestoredBoundary) {
  CheckpointRestore restore;
  harness::set_checkpoint_enabled(true);
  const auto app = apps::make_app(apps::AppId::CG);
  const int nranks = 2;
  const auto golden =
      harness::profile_app(*app, nranks, /*capture_checkpoints=*/true);
  ASSERT_NE(golden.checkpoints, nullptr);

  // A late plan makes the checkpoint leg restore; a budget between the
  // restored boundary and the end of the run must throw at the same
  // absolute op count on both legs because fast_forward() jumps the
  // counters to the golden values.
  std::vector<fsefi::InjectionPlan> plans(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    auto& plan = plans[static_cast<std::size_t>(r)];
    const std::uint64_t matching =
        golden.profiles[static_cast<std::size_t>(r)].matching(plan.kinds,
                                                              plan.regions);
    plan.points = {{.op_index = matching / 2, .operand = 0, .bit = 30}};
  }
  harness::RunOptions on_opts;
  on_opts.checkpoints = golden.checkpoints.get();
  harness::RunOptions off_opts;
  on_opts.op_budget = off_opts.op_budget = golden.max_rank_ops * 3 / 4;

  const auto on = harness::run_app_once(*app, nranks, plans, on_opts);
  const auto off = harness::run_app_once(*app, nranks, plans, off_opts);
  EXPECT_TRUE(on.checkpoint_restored);
  EXPECT_FALSE(on.runtime.ok);
  EXPECT_TRUE(on.hang);
  EXPECT_EQ(on.runtime.ok, off.runtime.ok);
  EXPECT_EQ(on.hang, off.hang);
}

TEST(CheckpointDiff, CampaignBitIdenticalToCheckpointOff) {
  CheckpointRestore restore;
  std::size_t total_restores = 0;
  std::size_t total_early_exits = 0;
  for (const auto id : apps::all_app_ids()) {
    const auto app = apps::make_app(id);
    for (const int nranks : rank_counts(*app)) {
      DeploymentConfig cfg;
      cfg.nranks = nranks;
      cfg.trials = 25;
      cfg.seed = 20180813;

      harness::set_checkpoint_enabled(false);
      const auto off = CampaignRunner::run(*app, cfg);
      harness::set_checkpoint_enabled(true);
      const auto on = CampaignRunner::run(*app, cfg);

      using telemetry::Counter;
      const std::string label = app->label() + " p=" + std::to_string(nranks);
      EXPECT_EQ(off.metrics.value(Counter::HarnessCheckpointRestores), 0u)
          << label;
      EXPECT_EQ(off.metrics.value(Counter::HarnessEarlyExits), 0u) << label;
      total_restores += on.metrics.value(Counter::HarnessCheckpointRestores);
      total_early_exits += on.metrics.value(Counter::HarnessEarlyExits);

      EXPECT_EQ(on.overall.trials, off.overall.trials) << label;
      EXPECT_EQ(on.overall.success, off.overall.success) << label;
      EXPECT_EQ(on.overall.sdc, off.overall.sdc) << label;
      EXPECT_EQ(on.overall.failure, off.overall.failure) << label;
      EXPECT_EQ(on.contamination_hist, off.contamination_hist) << label;
      ASSERT_EQ(on.by_contamination.size(), off.by_contamination.size())
          << label;
      for (std::size_t x = 0; x < off.by_contamination.size(); ++x) {
        EXPECT_EQ(on.by_contamination[x].trials, off.by_contamination[x].trials)
            << label << " x=" << x;
        EXPECT_EQ(on.by_contamination[x].success, off.by_contamination[x].success)
            << label << " x=" << x;
        EXPECT_EQ(on.by_contamination[x].sdc, off.by_contamination[x].sdc)
            << label << " x=" << x;
        EXPECT_EQ(on.by_contamination[x].failure, off.by_contamination[x].failure)
            << label << " x=" << x;
      }
      EXPECT_EQ(on.golden.signature, off.golden.signature) << label;
    }
  }
  EXPECT_GT(total_restores, 0u);
  EXPECT_GT(total_early_exits, 0u);
}

}  // namespace
}  // namespace resilience

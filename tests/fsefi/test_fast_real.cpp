// Differential tests of the countdown fast path against the pre-countdown
// reference implementation (set_fast_real_enabled(false)). The two paths
// must agree bit for bit on every observable: op-count profiles,
// filtered-stream indices, injection traces, contamination, and the exact
// op at which the hang budget throws. Integration-level coverage (whole apps,
// campaigns) lives in tests/integration/test_fast_real_diff.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <utility>

#include "fsefi/fault_context.hpp"
#include "fsefi/real.hpp"

namespace resilience::fsefi {
namespace {

/// Restores the production default on scope exit so later tests in this
/// binary see the ordinary configuration.
struct FastRealRestore {
  ~FastRealRestore() { set_fast_real_enabled(true); }
};

/// One context per mode, armed with the same plan.
struct ModePair {
  FaultContext fast;
  FaultContext ref;

  void arm_both(const InjectionPlan& plan) {
    set_fast_real_enabled(true);
    fast.arm(plan);
    set_fast_real_enabled(false);
    ref.arm(plan);
  }

  void budget_both(std::uint64_t budget) {
    fast.set_op_budget(budget);
    ref.set_op_budget(budget);
  }
};

/// Run one instrumented op on `ctx` in `region`, returning the (possibly
/// flipped) operand values the context left behind.
std::pair<double, double> step(FaultContext& ctx, Region region, OpKind kind,
                               double a, double b) {
  ContextGuard guard(&ctx);
  RegionScope scope(region);
  ctx.on_op(kind, a, b);
  return {a, b};
}

void expect_same_state(const ModePair& pair, const char* where) {
  EXPECT_EQ(pair.fast.profile(), pair.ref.profile()) << where;
  EXPECT_EQ(pair.fast.ops_total(), pair.ref.ops_total()) << where;
  EXPECT_EQ(pair.fast.filtered_ops(), pair.ref.filtered_ops()) << where;
  EXPECT_EQ(pair.fast.injections_done(), pair.ref.injections_done()) << where;
  EXPECT_EQ(pair.fast.injection_events(), pair.ref.injection_events()) << where;
  EXPECT_EQ(pair.fast.contaminated(), pair.ref.contaminated()) << where;
  if (pair.fast.contaminated() && pair.ref.contaminated()) {
    EXPECT_EQ(pair.fast.first_contamination_op(),
              pair.ref.first_contamination_op())
        << where;
  }
}

TEST(FastRealDiff, MixedOpStreamMatchesReferenceBitForBit) {
  FastRealRestore restore;
  InjectionPlan plan;
  plan.kinds = KindMask::AddMul;
  plan.regions = RegionMask::All;
  // Duplicate index 7 exercises the multi-flip loop; 23 lands mid-stream;
  // 3000 is never reached (the plan stays partially armed).
  plan.points = {{.op_index = 0, .operand = 0, .bit = 52},
                 {.op_index = 7, .operand = 1, .bit = 30},
                 {.op_index = 7, .operand = 1, .bit = 3, .width = 4},
                 {.op_index = 23, .operand = 0, .bit = 61},
                 {.op_index = 3000, .operand = 0, .bit = 1}};
  ModePair pair;
  pair.arm_both(plan);

  constexpr OpKind kKinds[] = {OpKind::Add, OpKind::Mul, OpKind::Sub,
                               OpKind::Add, OpKind::Div, OpKind::Mul,
                               OpKind::Sqrt, OpKind::Add};
  for (int i = 0; i < 400; ++i) {
    const OpKind kind = kKinds[i % 8];
    // Region alternates in runs of 5 so both (region, kind) lanes are hit.
    const Region region =
        (i / 5) % 3 == 1 ? Region::ParallelUnique : Region::Common;
    const double a = 1.0 + 0.5 * i;
    const double b = 2.0 - 0.25 * i;
    const auto [fa, fb] = step(pair.fast, region, kind, a, b);
    const auto [ra, rb] = step(pair.ref, region, kind, a, b);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fa),
              std::bit_cast<std::uint64_t>(ra))
        << "op " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fb),
              std::bit_cast<std::uint64_t>(rb))
        << "op " << i;
    EXPECT_EQ(pair.fast.filtered_ops(), pair.ref.filtered_ops()) << "op " << i;
  }
  expect_same_state(pair, "after stream");
  EXPECT_EQ(pair.fast.injections_done(), 4u);  // idx 3000 still pending
}

TEST(FastRealDiff, BudgetThrowsAtTheSameOpInBothModes) {
  FastRealRestore restore;
  InjectionPlan plan;  // armed with no points: filter accounting still runs
  ModePair pair;
  pair.arm_both(plan);
  pair.budget_both(50);

  for (auto* ctx : {&pair.fast, &pair.ref}) {
    std::uint64_t threw_at = 0;
    for (int i = 0; i < 60 && threw_at == 0; ++i) {
      double a = 1.0, b = 2.0;
      try {
        step(*ctx, Region::Common, OpKind::Add, a, b);
      } catch (const HangBudgetExceeded&) {
        threw_at = ctx->ops_total();
      }
    }
    // The guard throws during the op that makes ops_total exceed budget.
    EXPECT_EQ(threw_at, 51u);
  }
  expect_same_state(pair, "after budget throw");

  // Catch-and-continue: every further op keeps throwing, and the states
  // keep agreeing (the fast path must re-arm its countdown each time).
  for (int i = 0; i < 3; ++i) {
    double a = 1.0, b = 2.0;
    EXPECT_THROW(step(pair.fast, Region::Common, OpKind::Mul, a, b),
                 HangBudgetExceeded);
    EXPECT_THROW(step(pair.ref, Region::Common, OpKind::Mul, a, b),
                 HangBudgetExceeded);
  }
  expect_same_state(pair, "after continued throws");
}

TEST(FastRealDiff, QuietWindowNeverCoversAnEvent) {
  FastRealRestore restore;
  InjectionPlan plan;
  plan.kinds = KindMask::AddMul;
  plan.points = {{.op_index = 10, .operand = 0, .bit = 51}};
  set_fast_real_enabled(true);
  FaultContext ctx;
  ctx.arm(plan);

  // 10 filtered ops must pass before the injection can fire, so exactly 10
  // ops are quiet (and a smaller ask is honored as-is).
  EXPECT_EQ(ctx.quiet_ops(1000), 10u);
  EXPECT_EQ(ctx.quiet_ops(4), 4u);

  {
    ContextGuard guard(&ctx);
    ctx.on_block(OpKind::Add, 6);
    ctx.on_block(OpKind::Mul, 4);
  }
  EXPECT_EQ(ctx.filtered_ops(), 10u);
  EXPECT_EQ(ctx.quiet_ops(1000), 0u);  // the next op is the injection

  double a = 2.0, b = 3.0;
  step(ctx, Region::Common, OpKind::Add, a, b);
  ASSERT_EQ(ctx.injection_events().size(), 1u);
  EXPECT_EQ(ctx.injection_events()[0].op_filtered, 10u);
  EXPECT_EQ(ctx.injection_events()[0].op_total, 11u);
  EXPECT_TRUE(ctx.contaminated());

  // Non-matching kinds never advance the filtered stream in bulk either.
  const std::uint64_t filtered = ctx.filtered_ops();
  {
    ContextGuard guard(&ctx);
    ctx.on_block(OpKind::Sqrt, 8);
  }
  EXPECT_EQ(ctx.filtered_ops(), filtered);
  EXPECT_EQ(ctx.profile().counts[0][static_cast<int>(OpKind::Sqrt)], 8u);
}

TEST(FastRealDiff, ReferenceModeDisablesBlocking) {
  FastRealRestore restore;
  set_fast_real_enabled(false);
  FaultContext ctx;
  ctx.reset();
  // quiet_ops == 0 forces kernels through per-op instrumentation, which is
  // what makes the reference path a faithful reference configuration.
  EXPECT_EQ(ctx.quiet_ops(1000), 0u);

  set_fast_real_enabled(true);
  ctx.reset();  // the toggle is latched at reset/arm time
  EXPECT_GT(ctx.quiet_ops(1000), 0u);
}

TEST(FastRealDiff, UnarmedFastContextCountsLikeReference) {
  FastRealRestore restore;
  ModePair pair;
  set_fast_real_enabled(true);
  pair.fast.reset();
  set_fast_real_enabled(false);
  pair.ref.reset();
  for (int i = 0; i < 100; ++i) {
    double a = 0.5 * i, b = 1.5;
    step(pair.fast, Region::Common, OpKind::Mul, a, b);
    a = 0.5 * i;
    b = 1.5;
    step(pair.ref, Region::Common, OpKind::Mul, a, b);
  }
  expect_same_state(pair, "unarmed counting");
  // Unarmed contexts advance no filtered stream in either mode.
  EXPECT_EQ(pair.fast.filtered_ops(), 0u);
}

}  // namespace
}  // namespace resilience::fsefi

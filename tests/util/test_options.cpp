// RuntimeOptions: the one place every RESILIENCE_* knob is resolved
// (src/util/options.cpp is the only translation unit allowed to read the
// process environment). These tests cover env resolution, defaults,
// malformed-value warnings, and the set_global/reset_global injection
// hooks the other suites use to run with known options.
#include "util/options.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace resilience::util {
namespace {

const char* const kAllVars[] = {
    "RESILIENCE_THREADS",        "RESILIENCE_FIBER_STACK_KB",
    "RESILIENCE_CHECKPOINT",     "RESILIENCE_CHECKPOINT_BUDGET",
    "RESILIENCE_TRACE",          "RESILIENCE_METRICS",
};

/// Clears every knob before and after each test so the suite is immune
/// to the invoking shell's environment.
class RuntimeOptionsTest : public ::testing::Test {
 protected:
  void SetUp() override { clear(); }
  void TearDown() override {
    clear();
    RuntimeOptions::reset_global();
  }
  static void clear() {
    for (const char* var : kAllVars) ::unsetenv(var);
  }
};

TEST_F(RuntimeOptionsTest, DefaultsWhenNothingSet) {
  const RuntimeOptions opts = RuntimeOptions::from_env();
  EXPECT_EQ(opts.threads, 0);
  EXPECT_EQ(opts.fiber_stack_kb, 256u);
  EXPECT_TRUE(opts.checkpoint);
  EXPECT_EQ(opts.checkpoint_budget, 8u);
  EXPECT_TRUE(opts.trace_path.empty());
  EXPECT_TRUE(opts.metrics_path.empty());
}

TEST_F(RuntimeOptionsTest, ResolvesEveryVariable) {
  ::setenv("RESILIENCE_THREADS", "6", 1);
  ::setenv("RESILIENCE_FIBER_STACK_KB", "512", 1);
  ::setenv("RESILIENCE_CHECKPOINT", "0", 1);
  ::setenv("RESILIENCE_CHECKPOINT_BUDGET", "3", 1);
  ::setenv("RESILIENCE_TRACE", "trace.jsonl", 1);
  ::setenv("RESILIENCE_METRICS", "metrics.json", 1);
  const RuntimeOptions opts = RuntimeOptions::from_env();
  EXPECT_EQ(opts.threads, 6);
  EXPECT_EQ(opts.fiber_stack_kb, 512u);
  EXPECT_FALSE(opts.checkpoint);
  EXPECT_EQ(opts.checkpoint_budget, 3u);
  EXPECT_EQ(opts.trace_path, "trace.jsonl");
  EXPECT_EQ(opts.metrics_path, "metrics.json");
}

TEST_F(RuntimeOptionsTest, WarnsAndFallsBackOnMalformedValues) {
  ::setenv("RESILIENCE_THREADS", "many", 1);
  ::setenv("RESILIENCE_CHECKPOINT", "yes", 1);
  ::setenv("RESILIENCE_CHECKPOINT_BUDGET", "lots", 1);
  ::testing::internal::CaptureStderr();
  const RuntimeOptions opts = RuntimeOptions::from_env();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(opts.threads, 0);
  EXPECT_TRUE(opts.checkpoint);
  EXPECT_EQ(opts.checkpoint_budget, 8u);
  EXPECT_NE(err.find("warning"), std::string::npos);
  EXPECT_NE(err.find("RESILIENCE_THREADS"), std::string::npos);
  EXPECT_NE(err.find("RESILIENCE_CHECKPOINT:"), std::string::npos);
  EXPECT_NE(err.find("RESILIENCE_CHECKPOINT_BUDGET"), std::string::npos);
}

TEST_F(RuntimeOptionsTest, BelowMinimumValuesClamp) {
  ::setenv("RESILIENCE_THREADS", "-4", 1);
  ::setenv("RESILIENCE_CHECKPOINT_BUDGET", "0", 1);
  ::setenv("RESILIENCE_FIBER_STACK_KB", "4", 1);
  ::testing::internal::CaptureStderr();
  const RuntimeOptions opts = RuntimeOptions::from_env();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(opts.threads, 0);            // clamped to the 0 = auto floor
  EXPECT_EQ(opts.checkpoint_budget, 1u); // at least one snapshot
  EXPECT_EQ(opts.fiber_stack_kb, 16u);   // floor keeps fibers viable
  EXPECT_NE(err.find("below the minimum"), std::string::npos);
}

TEST_F(RuntimeOptionsTest, GlobalInjectionForTests) {
  RuntimeOptions opts;
  opts.threads = 3;
  opts.checkpoint_budget = 2;
  RuntimeOptions::set_global(opts);
  EXPECT_EQ(RuntimeOptions::global().threads, 3);
  EXPECT_EQ(RuntimeOptions::global().checkpoint_budget, 2u);

  // reset_global() re-resolves from the (cleared) environment.
  RuntimeOptions::reset_global();
  EXPECT_EQ(RuntimeOptions::global().threads, 0);
  EXPECT_EQ(RuntimeOptions::global().checkpoint_budget, 8u);
}

TEST_F(RuntimeOptionsTest, GlobalPicksUpEnvironmentOnReset) {
  ::setenv("RESILIENCE_TRACE", "/tmp/t.json", 1);
  RuntimeOptions::reset_global();
  EXPECT_EQ(RuntimeOptions::global().trace_path, "/tmp/t.json");
}

}  // namespace
}  // namespace resilience::util

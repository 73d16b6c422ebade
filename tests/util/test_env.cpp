#include "util/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace resilience::util {
namespace {

TEST(EnvInt, FallsBackWhenUnset) {
  ::unsetenv("RESILIENCE_TEST_UNSET");
  EXPECT_EQ(env_int("RESILIENCE_TEST_UNSET", 42), 42);
}

TEST(EnvInt, ParsesValue) {
  ::setenv("RESILIENCE_TEST_INT", "123", 1);
  EXPECT_EQ(env_int("RESILIENCE_TEST_INT", 42), 123);
  ::unsetenv("RESILIENCE_TEST_INT");
}

TEST(EnvInt, RejectsGarbage) {
  ::setenv("RESILIENCE_TEST_BAD", "12abc", 1);
  EXPECT_EQ(env_int("RESILIENCE_TEST_BAD", 42), 42);
  ::setenv("RESILIENCE_TEST_BAD", "", 1);
  EXPECT_EQ(env_int("RESILIENCE_TEST_BAD", 42), 42);
  ::unsetenv("RESILIENCE_TEST_BAD");
}

TEST(EnvInt, WarnsOnGarbage) {
  ::setenv("RESILIENCE_TEST_BAD", "threads=4", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_int("RESILIENCE_TEST_BAD", 42), 42);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("warning"), std::string::npos);
  EXPECT_NE(err.find("RESILIENCE_TEST_BAD"), std::string::npos);
  EXPECT_NE(err.find("threads=4"), std::string::npos);
  ::unsetenv("RESILIENCE_TEST_BAD");
}

TEST(EnvInt, WarnsOnOutOfRangeValue) {
  // Far beyond the int64 range: strtoll reports ERANGE, and the value is
  // rejected rather than silently saturated.
  ::setenv("RESILIENCE_TEST_HUGE", "99999999999999999999999999", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_int("RESILIENCE_TEST_HUGE", 7), 7);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("warning"), std::string::npos);
  ::unsetenv("RESILIENCE_TEST_HUGE");
}

TEST(EnvInt, ClampsToMinimum) {
  ::setenv("RESILIENCE_TEST_MIN", "0", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_int("RESILIENCE_TEST_MIN", 42, 10), 10);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("below the minimum"), std::string::npos);
  ::unsetenv("RESILIENCE_TEST_MIN");
}

TEST(BenchConfig, ReadsTrialsAndSeed) {
  ::setenv("RESILIENCE_TRIALS", "777", 1);
  ::setenv("RESILIENCE_SEED", "9", 1);
  const auto cfg = BenchConfig::from_env();
  EXPECT_EQ(cfg.trials, 777u);
  EXPECT_EQ(cfg.seed, 9u);
  ::unsetenv("RESILIENCE_TRIALS");
  ::unsetenv("RESILIENCE_SEED");
}

TEST(BenchConfig, DefaultTrials) {
  ::unsetenv("RESILIENCE_TRIALS");
  ::unsetenv("RESILIENCE_SEED");
  const auto cfg = BenchConfig::from_env(123);
  EXPECT_EQ(cfg.trials, 123u);
}

}  // namespace
}  // namespace resilience::util

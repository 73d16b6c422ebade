#include "harness/executor.hpp"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace resilience::harness {
namespace {

std::vector<Executor::Task> copies(int count,
                                   const std::function<void()>& fn) {
  return std::vector<Executor::Task>(static_cast<std::size_t>(count), fn);
}

TEST(Executor, RunsEveryTask) {
  Executor ex(4);
  std::atomic<int> count{0};
  ex.run(copies(100, [&] { ++count; }));
  EXPECT_EQ(count.load(), 100);
}

TEST(Executor, FewerTasksThanWorkers) {
  Executor ex(8);
  std::atomic<int> count{0};
  ex.run(copies(3, [&] { ++count; }));
  EXPECT_EQ(count.load(), 3);
}

TEST(Executor, SingleWorkerRunsInlineOnCaller) {
  Executor ex(1);
  EXPECT_EQ(ex.workers(), 1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran;
  std::vector<Executor::Task> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([&] { ran.push_back(std::this_thread::get_id()); });
  }
  ex.run(std::move(tasks));
  ASSERT_EQ(ran.size(), 4u);
  for (const auto id : ran) EXPECT_EQ(id, caller);
}

TEST(Executor, InFlightTasksNeverExceedWorkers) {
  constexpr int kWorkers = 3;
  Executor ex(kWorkers);
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  ex.run(copies(24, [&] {
    const int now = ++in_flight;
    int prev = peak.load();
    while (now > prev && !peak.compare_exchange_weak(prev, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    --in_flight;
  }));
  EXPECT_LE(peak.load(), kWorkers);
  EXPECT_GE(peak.load(), 1);
}

TEST(Executor, RethrowsLowestIndexException) {
  Executor ex(4);
  std::atomic<int> completed{0};
  std::vector<Executor::Task> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([&, i] {
      if (i == 3 || i == 11) {
        throw std::runtime_error("task " + std::to_string(i));
      }
      ++completed;
    });
  }
  try {
    ex.run(std::move(tasks));
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");
  }
  // The batch still drained: every non-throwing task ran.
  EXPECT_EQ(completed.load(), 14);
}

TEST(Executor, NestedRunFromWorkerExecutesInline) {
  Executor ex(2);
  std::atomic<int> inner{0};
  // Both outer tasks occupy the whole pool, then submit nested batches;
  // without the inline fallback this deadlocks.
  ex.run(copies(2, [&] {
    ex.run(copies(8, [&] { ++inner; }));
  }));
  EXPECT_EQ(inner.load(), 16);
}

TEST(Executor, ConcurrentBatchesShareThePool) {
  Executor ex(4);
  std::atomic<int> count{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back(
        [&] { ex.run(copies(20, [&] { ++count; })); });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(count.load(), 60);
}

TEST(Executor, ResolveWorkersPrecedence) {
  // An explicit count wins; 0 (or less) means hardware concurrency.
  EXPECT_EQ(Executor::resolve_workers(3), 3);
  EXPECT_EQ(Executor::resolve_workers(2), 2);
  const unsigned hw = std::thread::hardware_concurrency();
  const int expected = hw == 0 ? 1 : static_cast<int>(hw);
  EXPECT_EQ(Executor::resolve_workers(0), expected);
  EXPECT_EQ(Executor::resolve_workers(-1), expected);
}

}  // namespace
}  // namespace resilience::harness

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "simmpi/runtime.hpp"

namespace resilience::simmpi {
namespace {

TEST(Runtime, RejectsZeroRanks) {
  EXPECT_THROW(Runtime::run(0, [](Comm&) {}), UsageError);
}

TEST(Runtime, SerialRunsInline) {
  // nranks == 1 executes on the calling thread (cheap serial campaigns).
  const auto caller = std::this_thread::get_id();
  std::thread::id body_thread;
  const auto result = Runtime::run(1, [&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    body_thread = std::this_thread::get_id();
  });
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(body_thread == caller);
}

TEST(Runtime, MultiRankJobRunsOnCallingThread) {
  // Every rank is a fiber on the launching thread: parallelism comes from
  // running jobs side by side, never from spreading one job over threads.
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> rank_threads(8);
  const auto result = Runtime::run(8, [&](Comm& comm) {
    comm.barrier();
    rank_threads[static_cast<std::size_t>(comm.rank())] =
        std::this_thread::get_id();
  });
  EXPECT_TRUE(result.ok);
  for (const auto id : rank_threads) EXPECT_TRUE(id == caller);
}

TEST(Runtime, ReportsRankAndSize) {
  std::atomic<int> rank_sum{0};
  const auto result = Runtime::run(5, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 5);
    rank_sum += comm.rank();
  });
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(rank_sum.load(), 10);
}

TEST(Runtime, ExceptionAbortsJobAndRecordsRank) {
  const auto result = Runtime::run(4, [](Comm& comm) {
    if (comm.rank() == 2) throw std::runtime_error("rank 2 died");
    // Other ranks block forever; the abort must wake them.
    double v;
    comm.recv((comm.rank() + 1) % 4, 1, std::span<double>(&v, 1));
  });
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.aborted);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.failed_rank, 2);
  EXPECT_EQ(result.error, "rank 2 died");
}

TEST(Runtime, DeadlockIsDetectedAndFlagged) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    // Both ranks wait for a message that never arrives.
    double v;
    comm.recv(1 - comm.rank(), 0, std::span<double>(&v, 1));
  });
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.deadlocked);
}

TEST(Runtime, SerialSelfReceiveDeadlocksAtOnce) {
  // A serial job has no other rank that could ever send, so a receive
  // with no queued match is a deadlock the moment it is posted.
  const auto start = std::chrono::steady_clock::now();
  const auto result = Runtime::run(1, [](Comm& comm) {
    comm.recv_value<double>(0, 0);
  });
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(50));
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.deadlocked);
  EXPECT_EQ(result.failed_rank, 0);
}

TEST(Runtime, FirstFailureWins) {
  // Many ranks fail; exactly one root cause is recorded.
  const auto result = Runtime::run(6, [](Comm& comm) {
    throw std::runtime_error("rank " + std::to_string(comm.rank()));
  });
  EXPECT_FALSE(result.ok);
  EXPECT_GE(result.failed_rank, 0);
  EXPECT_LT(result.failed_rank, 6);
  EXPECT_EQ(result.error, "rank " + std::to_string(result.failed_rank));
}

TEST(Runtime, HooksRunOnEveryRank) {
  std::atomic<int> starts{0}, exits{0};
  RunOptions opts;
  opts.on_rank_start = [&](int) { ++starts; };
  opts.on_rank_exit = [&](int) { ++exits; };
  const auto result = Runtime::run(3, [](Comm&) {}, opts);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(starts.load(), 3);
  EXPECT_EQ(exits.load(), 3);
}

TEST(Runtime, ExitHookRunsEvenWhenBodyThrows) {
  std::atomic<int> exits{0};
  RunOptions opts;
  opts.on_rank_exit = [&](int) { ++exits; };
  const auto result = Runtime::run(
      2, [](Comm& comm) { if (comm.rank() == 0) throw std::runtime_error("x"); },
      opts);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(exits.load(), 2);
}

TEST(Runtime, NonStdExceptionIsCaptured) {
  const auto result = Runtime::run(1, [](Comm&) { throw 42; });
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "unknown exception");
}

TEST(Runtime, ManyRanksComplete) {
  // A 64-rank job — the paper's large scale — runs to completion.
  const auto result = Runtime::run(64, [](Comm& comm) {
    const double sum = comm.allreduce_value(1.0);
    EXPECT_DOUBLE_EQ(sum, 64.0);
  });
  EXPECT_TRUE(result.ok);
}

}  // namespace
}  // namespace resilience::simmpi

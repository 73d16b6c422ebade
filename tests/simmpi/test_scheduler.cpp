// Scheduler edge cases: deterministic deadlock with zero runnable
// fibers, abort teardown mid-collective, a 512-rank smoke job, and pooled
// resource reuse across an aborted job. The value-parameterized fixture
// runs each case on both collective paths: "fibers" is the production
// configuration (fused collectives), "mailbox" decomposes every
// collective into point-to-point messages.
#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "simmpi/collective.hpp"
#include "simmpi/runtime.hpp"

namespace resilience::simmpi {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

class SchedulerModes : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { detail::set_fused_collectives_enabled(GetParam()); }
  void TearDown() override { detail::set_fused_collectives_enabled(true); }
};

std::string mode_name(const ::testing::TestParamInfo<bool>& param) {
  return param.param ? "fibers" : "mailbox";
}

INSTANTIATE_TEST_SUITE_P(Cores, SchedulerModes, ::testing::Bool(), mode_name);

TEST_P(SchedulerModes, ZeroRunnableRanksIsDeadlock) {
  // Both ranks block receiving a message nobody will send. The scheduler
  // must declare the deadlock the moment its run queue drains.
  const auto start = steady_clock::now();
  const auto result = Runtime::run(2, [](Comm& comm) {
    comm.recv_value<int>(1 - comm.rank(), 0);
  });
  EXPECT_TRUE(result.deadlocked);
  EXPECT_TRUE(result.aborted);
  EXPECT_GE(result.failed_rank, 0);
  // Event-driven detection: no timeout is involved.
  EXPECT_LT(steady_clock::now() - start, milliseconds(150));
}

TEST_P(SchedulerModes, AbortMidCollectiveTearsDownEveryParkedRank) {
  const auto result = Runtime::run(16, [](Comm& comm) {
    if (comm.rank() == 5) throw std::runtime_error("rank 5 dies");
    const double sum = comm.allreduce_value(1.0);
    (void)sum;
  });
  EXPECT_TRUE(result.aborted);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.failed_rank, 5);
  EXPECT_EQ(result.error, "rank 5 dies");

  // The job's scheduler state dies with the job: a follow-up job on the
  // same process must be unaffected.
  const auto clean = Runtime::run(16, [](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_value(1.0), 16.0);
  });
  EXPECT_TRUE(clean.ok);
}

TEST_P(SchedulerModes, AbortRacingActiveCombinesStaysCoherent) {
  // A job abort lands while a sub-communicator streams collectives: the
  // dying rank lives *outside* the collective's sub-communicator, so its
  // abort arrives between combines at a point set by the schedule. Every
  // parked participant must wake, observe the abort and unwind, and the
  // per-fiber TLS banks the combiner borrows must stay intact for the
  // next job.
  for (int round = 0; round < 8; ++round) {
    const auto result = Runtime::run(12, [round](Comm& comm) {
      const int killer = comm.size() - 1;
      Comm sub = comm.split(comm.rank() == killer ? 1 : 0, comm.rank());
      if (comm.rank() == killer) {
        // Let the group stream collectives, then die at a point of their
        // combine pipeline that differs from round to round.
        for (int i = 0; i < 20 * (round + 1); ++i) {
          FiberScheduler::yield_current();
        }
        throw std::runtime_error("outsider dies");
      }
      std::vector<double> buf(256, comm.rank() + 1.0);
      std::vector<double> sum(256);
      for (int i = 0;; ++i) {
        sub.allreduce(std::span<const double>(buf), std::span<double>(sum));
        sub.bcast(std::span<double>(sum), i % sub.size());
      }
    });
    EXPECT_TRUE(result.aborted);
    EXPECT_FALSE(result.deadlocked);
    EXPECT_EQ(result.failed_rank, 11);
    EXPECT_EQ(result.error, "outsider dies");
  }
  const auto clean = Runtime::run(12, [](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_value(1.0), 12.0);
  });
  EXPECT_TRUE(clean.ok) << clean.error;
}

TEST(FusedGroup, StaleEpochArrivalIsRejectedBeforeRecordingState) {
  // A rank re-arriving with an already-completed epoch has diverged from
  // the SPMD sequence. It must be rejected up front: recording the
  // arrival would pin current_epoch_ to the stale value and misreport
  // the divergence at a healthy rank's next collective.
  detail::FusedGroup group;
  FiberScheduler sched(0);
  const detail::Arrival arrival;
  EXPECT_EQ(group.arrive(0, 1, arrival, 2),
            detail::FusedGroup::ArriveOutcome::Waiter);
  EXPECT_EQ(group.arrive(1, 1, arrival, 2),
            detail::FusedGroup::ArriveOutcome::Combiner);
  group.complete(1, sched);
  EXPECT_EQ(group.arrive(0, 1, arrival, 2),
            detail::FusedGroup::ArriveOutcome::EpochMismatch);
  // Group state stayed clean: the next epoch still completes normally.
  EXPECT_EQ(group.arrive(0, 2, arrival, 2),
            detail::FusedGroup::ArriveOutcome::Waiter);
  EXPECT_EQ(group.arrive(1, 2, arrival, 2),
            detail::FusedGroup::ArriveOutcome::Combiner);
  group.complete(2, sched);
  EXPECT_EQ(group.done_epoch(), 2u);
}

TEST_P(SchedulerModes, FiveTwelveRankSmoke) {
  // 512 ranks: collectives, a ring exchange and a reduction, all on the
  // calling thread.
  const auto result = Runtime::run(512, [](Comm& comm) {
    comm.barrier();
    const int total = comm.allreduce_value(1);
    EXPECT_EQ(total, comm.size());
    const int right = (comm.rank() + 1) % comm.size();
    const int left = (comm.rank() + comm.size() - 1) % comm.size();
    const int mine = comm.rank();
    int from_left = -1;
    comm.sendrecv(right, 3, std::span<const int>(&mine, 1), left, 3,
                  std::span<int>(&from_left, 1));
    EXPECT_EQ(from_left, left);
    const long r = comm.rank();
    long sum = 0;
    comm.allreduce(std::span<const long>(&r, 1), std::span<long>(&sum, 1));
    EXPECT_EQ(sum, 512L * 511L / 2L);
  });
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_P(SchedulerModes, PooledResourcesSurviveAnAbortedJob) {
  // An abort tears a job down mid-flight with ranks parked and pooled
  // resources (fiber stacks, envelope buffers) checked out. The pools must hand all of it back: follow-up jobs of the same
  // and larger widths run clean.
  const auto aborted = Runtime::run(32, [](Comm& comm) {
    if (comm.rank() == 31) throw std::runtime_error("late rank dies");
    comm.barrier();
    comm.recv_value<int>(comm.rank(), 0);  // unreachable: abort wakes us
  });
  EXPECT_TRUE(aborted.aborted);
  EXPECT_EQ(aborted.failed_rank, 31);

  for (const int nranks : {32, 64}) {
    const auto clean = Runtime::run(nranks, [](Comm& comm) {
      const int total = comm.allreduce_value(1);
      EXPECT_EQ(total, comm.size());
      comm.barrier();
    });
    EXPECT_TRUE(clean.ok) << nranks << " ranks: " << clean.error;
  }
}

TEST(FiberScheduler, WorkerCountDoesNotChangeResults) {
  // The same job body must produce identical values no matter how many
  // jobs run side by side on other threads: jobs share nothing but the
  // process-wide stack pool.
  const auto job = [](std::vector<double>* out) {
    return Runtime::run(8, [out](Comm& comm) {
      std::vector<double> v(3, 1.5 * (comm.rank() + 1));
      std::vector<double> sum(3);
      comm.allreduce(std::span<const double>(v), std::span<double>(sum));
      if (comm.rank() == 0) *out = sum;
    });
  };
  std::vector<double> baseline;
  ASSERT_TRUE(job(&baseline).ok);
  for (const int workers : {2, 4}) {
    std::vector<std::vector<double>> outs(static_cast<std::size_t>(workers));
    std::vector<std::thread> threads;
    for (auto& out : outs) {
      threads.emplace_back([&job, &out] { EXPECT_TRUE(job(&out).ok); });
    }
    for (auto& t : threads) t.join();
    for (const auto& out : outs) {
      EXPECT_EQ(out, baseline) << workers << " concurrent jobs";
    }
  }
}

}  // namespace
}  // namespace resilience::simmpi

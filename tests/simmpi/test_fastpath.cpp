// Failure-delivery and equivalence tests for the fused collectives and
// the envelope pool.
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "simmpi/collective.hpp"
#include "simmpi/runtime.hpp"

namespace resilience::simmpi {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// Restores fused collectives (the default) on scope exit.
struct FusedRestore {
  ~FusedRestore() { detail::set_fused_collectives_enabled(true); }
};

/// Run `body` with fused collectives on.
RunResult run_fused(int nranks, const std::function<void(Comm&)>& body) {
  detail::set_fused_collectives_enabled(true);
  return Runtime::run(nranks, body);
}

TEST(FusedCollectives, AbortMidAllreduceWakesParkedPeers) {
  // A rank that throws while its peers are parked at the fused meeting
  // point must wake them promptly — abort teardown unparks every fiber,
  // so no timeout is involved at all.
  const auto start = steady_clock::now();
  const auto result = run_fused(4, [](Comm& comm) {
    if (comm.rank() == 2) throw std::runtime_error("injected failure");
    double v = 1.0;
    double out = 0.0;
    comm.allreduce(std::span<const double>(&v, 1),
                   std::span<double>(&out, 1));
  });
  const auto elapsed = steady_clock::now() - start;
  EXPECT_TRUE(result.aborted);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.failed_rank, 2);
  EXPECT_EQ(result.error, "injected failure");
  EXPECT_LT(elapsed, milliseconds(2500));  // peers woke, not timed out
}

TEST(FusedCollectives, AbortMidBarrierWakesParkedPeers) {
  const auto start = steady_clock::now();
  const auto result = run_fused(8, [](Comm& comm) {
    if (comm.rank() == 7) throw std::runtime_error("boom");
    comm.barrier();
  });
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.failed_rank, 7);
  EXPECT_LT(steady_clock::now() - start, milliseconds(2500));
}

TEST(FusedCollectives, MissingRankDeadlocksDeterministically) {
  // One rank never joins the collective. The fiber scheduler declares the
  // deadlock the moment no fiber is runnable — deterministically, with no
  // timeout.
  const auto start = steady_clock::now();
  const auto result = run_fused(2, [](Comm& comm) {
    if (comm.rank() == 0) comm.barrier();  // rank 1 never arrives
  });
  EXPECT_TRUE(result.deadlocked);
  EXPECT_EQ(result.failed_rank, 0);
  // Detection is event-driven, not timer-driven.
  EXPECT_LT(steady_clock::now() - start, milliseconds(2500));
}

TEST(FusedCollectives, CollectiveSizeMismatchAbortsJob) {
  // The combiner detects the mismatch, so the reporting rank depends on
  // arrival order (unlike the mailbox path, where the receiver reports);
  // the job-level verdict is what matters.
  const auto result = run_fused(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.bcast_value(1.0, 0);
    } else {
      std::vector<double> buf(3);  // wrong size for the published payload
      comm.bcast(std::span<double>(buf), 0);
    }
  });
  EXPECT_TRUE(result.aborted);
  EXPECT_NE(result.error.find("size mismatch"), std::string::npos)
      << result.error;
}

TEST(FusedCollectives, ResultsAndStatsMatchMailboxPath) {
  // Differential run of a mixed collective sequence: the fused path and
  // the mailbox decomposition must produce bit-identical values and
  // identical logical transport stats.
  const auto body = [](std::vector<double>* out) {
    return [out](Comm& comm) {
      std::vector<double> v(4, 0.25 * (comm.rank() + 1));
      std::vector<double> sum(4);
      comm.allreduce(std::span<const double>(v), std::span<double>(sum));
      comm.barrier();
      double top = comm.rank() == 1 ? sum[0] * 3 : 0.0;
      comm.bcast(std::span<double>(&top, 1), 1);
      std::vector<double> reduced(comm.rank() == 0 ? 4 : 0);
      comm.reduce(std::span<const double>(sum), std::span<double>(reduced),
                  0, Prod{});
      if (comm.rank() == 0) {
        *out = reduced;
        out->push_back(top);
      }
    };
  };

  FusedRestore restore;
  detail::set_fused_collectives_enabled(true);
  std::vector<double> fused_out;
  const auto fused = Runtime::run(6, body(&fused_out));

  detail::set_fused_collectives_enabled(false);
  std::vector<double> mailbox_out;
  const auto mailbox = Runtime::run(6, body(&mailbox_out));

  EXPECT_TRUE(fused.ok);
  EXPECT_TRUE(mailbox.ok);
  EXPECT_EQ(fused_out, mailbox_out);  // bit-identical values
  EXPECT_EQ(fused.messages_sent, mailbox.messages_sent);
  EXPECT_EQ(fused.bytes_sent, mailbox.bytes_sent);
}

TEST(FusedCollectives, SplitCommunicatorsUseDistinctFusedGroups) {
  const auto result = run_fused(8, [](Comm& comm) {
    Comm row = comm.split(comm.rank() / 4, comm.rank() % 4);
    const int row_sum = row.allreduce_value(1);
    EXPECT_EQ(row_sum, 4);
    row.barrier();
    const int world_sum = comm.allreduce_value(1);
    EXPECT_EQ(world_sum, 8);
  });
  EXPECT_TRUE(result.ok);
}

TEST(FusedGroupUnit, DivergedEpochIsReportedNotCollected) {
  // A rank arriving with an epoch other than the one the first arriver
  // pinned has diverged from SPMD order; arrive() reports it instead of
  // mixing two collectives in one slot table.
  detail::FusedGroup group;
  std::byte payload{};
  detail::Arrival arrival{&payload, &payload, 1, nullptr};
  EXPECT_EQ(group.arrive(0, 7, arrival, 3),
            detail::FusedGroup::ArriveOutcome::Waiter);
  EXPECT_EQ(group.arrive(1, 8, arrival, 3),
            detail::FusedGroup::ArriveOutcome::EpochMismatch);
  // The diverged arrival was not recorded: epoch 7 still completes when
  // its real participants show up.
  EXPECT_EQ(group.arrive(1, 7, arrival, 3),
            detail::FusedGroup::ArriveOutcome::Waiter);
  EXPECT_EQ(group.arrive(2, 7, arrival, 3),
            detail::FusedGroup::ArriveOutcome::Combiner);
}

TEST(EnvelopePool, SteadyTrafficRecyclesBuffers) {
  const auto result = Runtime::run(2, [](Comm& comm) {
    double v = comm.rank();
    for (int round = 0; round < 50; ++round) {
      if (comm.rank() == 0) {
        comm.send_value(1, 0, v);
        v = comm.recv_value<double>(1, 1);
      } else {
        v = comm.recv_value<double>(0, 0);
        comm.send_value(0, 1, v + 1);
      }
    }
  });
  EXPECT_TRUE(result.ok);
  // 100 point-to-point messages in two buffers: everything past the first
  // envelope per mailbox reuses pooled capacity.
  EXPECT_EQ(result.messages_sent, 100u);
  EXPECT_LE(result.pool_allocs, 4u);
  EXPECT_GE(result.pool_reuses, 96u);
}

TEST(EnvelopePool, ReusesBuffersAfterAbortedJob) {
  // A job that aborts leaves envelopes queued and buffers checked out;
  // the next job must still pool cleanly (fresh JobState, fresh pools)
  // and the aborted job's stats must still be reported.
  const auto aborted = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 8; ++i) comm.send_value(1, 0, i);
      throw std::runtime_error("die with traffic in flight");
    }
    // Depending on scheduling the receiver sees either queued values
    // followed by the abort, or AbortError straight out of the first
    // blocking receive; both teardowns are legal.
    comm.recv_value<int>(0, 0);
    comm.recv_value<int>(0, 0);
    EXPECT_THROW(comm.recv_value<int>(0, 1), AbortError);
    throw AbortError();
  });
  EXPECT_TRUE(aborted.aborted);
  EXPECT_EQ(aborted.failed_rank, 0);
  EXPECT_GE(aborted.pool_allocs, 1u);

  const auto clean = Runtime::run(2, [](Comm& comm) {
    for (int round = 0; round < 10; ++round) {
      const double sum = comm.allreduce_value(1.0);
      EXPECT_DOUBLE_EQ(sum, 2.0);
    }
  });
  EXPECT_TRUE(clean.ok);
}

}  // namespace
}  // namespace resilience::simmpi

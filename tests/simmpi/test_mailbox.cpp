// Direct unit tests of the mailbox transport primitive. Blocking cases
// drive two fibers on a FiberScheduler, exactly as a 2-rank job would.
#include "simmpi/mailbox.hpp"

#include <gtest/gtest.h>

#include <functional>

namespace resilience::simmpi {
namespace {

Envelope make_envelope(int source, int tag, std::size_t bytes = 8) {
  Envelope env;
  env.source = source;
  env.tag = tag;
  env.bytes.assign(bytes, std::byte{0x5a});
  return env;
}

/// Run `receiver` and `sender` as the two fibers of one scheduler, with
/// `box` parking its receives on it. The receiver starts first.
void run_pair(Mailbox& box, const std::function<void()>& receiver,
              const std::function<void(FiberScheduler&)>& sender) {
  FiberScheduler sched(2);
  box.set_scheduler(&sched);
  sched.start([&](int rank) { rank == 0 ? receiver() : sender(sched); });
  sched.run();
  box.set_scheduler(nullptr);
}

TEST(Mailbox, PopMatchesSourceAndTag) {
  AbortToken abort;
  Mailbox box(&abort);
  box.push(make_envelope(1, 10));
  box.push(make_envelope(2, 20));
  const Envelope got = box.pop_matching(2, 20);
  EXPECT_EQ(got.source, 2);
  EXPECT_EQ(got.tag, 20);
  EXPECT_EQ(box.pending(), 1u);
}

TEST(Mailbox, WildcardsMatchAnything) {
  AbortToken abort;
  Mailbox box(&abort);
  box.push(make_envelope(3, 30));
  EXPECT_EQ(box.pop_matching(kAnySource, kAnyTag).source, 3);
}

TEST(Mailbox, FifoWithinMatchingMessages) {
  AbortToken abort;
  Mailbox box(&abort);
  for (int i = 0; i < 3; ++i) {
    Envelope env = make_envelope(1, 7, 1);
    env.bytes[0] = static_cast<std::byte>(i);
    box.push(std::move(env));
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(static_cast<int>(box.pop_matching(1, 7).bytes[0]), i);
  }
}

TEST(Mailbox, NonMatchingMessagesAreSkippedNotConsumed) {
  AbortToken abort;
  Mailbox box(&abort);
  box.push(make_envelope(1, 1));
  box.push(make_envelope(1, 2));
  EXPECT_EQ(box.pop_matching(1, 2).tag, 2);
  EXPECT_EQ(box.pop_matching(1, 1).tag, 1);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, ProbeDoesNotConsume) {
  AbortToken abort;
  Mailbox box(&abort);
  EXPECT_FALSE(box.probe(1, 1));
  box.push(make_envelope(1, 1));
  EXPECT_TRUE(box.probe(1, 1));
  EXPECT_TRUE(box.probe(kAnySource, kAnyTag));
  EXPECT_FALSE(box.probe(2, 1));
  EXPECT_EQ(box.pending(), 1u);
}

TEST(Mailbox, BlockedPopWakesOnPush) {
  AbortToken abort;
  Mailbox box(&abort);
  int got_tag = -1;
  run_pair(
      box, [&] { got_tag = box.pop_matching(0, 9).tag; },
      [&](FiberScheduler&) { box.push(make_envelope(0, 9)); });
  EXPECT_EQ(got_tag, 9);
}

TEST(Mailbox, EmptyPopOutsideFibersRaisesDeadlock) {
  // Outside a fiber (a serial job's only rank) nobody can ever send, so
  // an unmatched receive is a deadlock at once instead of a wait.
  AbortToken abort;
  Mailbox box(&abort);
  EXPECT_THROW(box.pop_matching(0, 0), DeadlockError);
}

TEST(Mailbox, AbortWakesBlockedPop) {
  AbortToken abort;
  Mailbox box(&abort);
  bool aborted = false;
  run_pair(
      box,
      [&] {
        try {
          box.pop_matching(0, 0);
        } catch (const AbortError&) {
          aborted = true;
        }
      },
      [&](FiberScheduler& sched) {
        // A job abort: raise the token, then wake every parked fiber.
        abort.trigger();
        sched.wake_all_parked();
      });
  EXPECT_TRUE(aborted);
}

TEST(Mailbox, AbortedBoxThrowsImmediately) {
  AbortToken abort;
  abort.trigger();
  Mailbox box(&abort);
  EXPECT_THROW(box.pop_matching(kAnySource, kAnyTag), AbortError);
}

TEST(Mailbox, WildcardTakesEarliestArrivalAcrossSubQueues) {
  // Matching is indexed by (source, tag); a wildcard receive must still
  // see global arrival order, not per-sub-queue order.
  AbortToken abort;
  Mailbox box(&abort);
  box.push(make_envelope(2, 20));
  box.push(make_envelope(1, 10));
  box.push(make_envelope(2, 20));
  EXPECT_EQ(box.pop_matching(kAnySource, kAnyTag).source, 2);
  EXPECT_EQ(box.pop_matching(kAnySource, kAnyTag).source, 1);
  EXPECT_EQ(box.pop_matching(kAnySource, kAnyTag).source, 2);
}

TEST(Mailbox, WildcardSourceWithExactTag) {
  AbortToken abort;
  Mailbox box(&abort);
  box.push(make_envelope(5, 7));
  box.push(make_envelope(3, 9));
  box.push(make_envelope(4, 7));
  EXPECT_EQ(box.pop_matching(kAnySource, 7).source, 5);
  EXPECT_EQ(box.pop_matching(kAnySource, 7).source, 4);
  EXPECT_EQ(box.pop_matching(3, kAnyTag).tag, 9);
}

TEST(Mailbox, HealthyTrafficDoesNotTriggerDeadlock) {
  // A receive parked behind a stream of non-matching messages is not a
  // deadlock while its sender is still running; only the match wakes it.
  AbortToken abort;
  Mailbox box(&abort);
  int got_tag = -1;
  run_pair(
      box, [&] { got_tag = box.pop_matching(0, 2).tag; },
      [&](FiberScheduler&) {
        for (int i = 0; i < 10; ++i) {
          box.push(make_envelope(0, 1));  // non-matching traffic
          FiberScheduler::yield_current();
        }
        box.push(make_envelope(0, 2));
      });
  EXPECT_EQ(got_tag, 2);
  EXPECT_EQ(box.pending(), 10u);
}

TEST(Mailbox, SilenceAfterTrafficStillDeadlocks) {
  AbortToken abort;
  Mailbox box(&abort);
  box.push(make_envelope(0, 1));
  EXPECT_THROW(box.pop_matching(0, 2), DeadlockError);
}

TEST(Mailbox, BufferPoolRecyclesCapacity) {
  AbortToken abort;
  Mailbox box(&abort);
  Envelope env;
  env.source = 0;
  env.tag = 0;
  env.bytes = box.acquire_buffer(64);
  EXPECT_EQ(env.bytes.size(), 64u);
  box.push(std::move(env));
  box.recycle(box.pop_matching(0, 0));
  // Second acquisition must come from the freelist, even at another size.
  const auto buf = box.acquire_buffer(32);
  EXPECT_EQ(buf.size(), 32u);
  const auto stats = box.pool_stats();
  EXPECT_EQ(stats.allocs, 1u);
  EXPECT_EQ(stats.reuses, 1u);
}

}  // namespace
}  // namespace resilience::simmpi

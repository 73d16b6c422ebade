// Per-rank mailbox with MPI-style (source, tag) matching.
//
// Sends are buffered (they enqueue and return, like MPI_Send on small
// messages); receives block until a matching envelope arrives, the job is
// aborted, or the job deadlocks. Matching is FIFO per (source, tag) pair,
// which is exactly MPI's non-overtaking guarantee.
//
// Matching is indexed: envelopes are stored in per-(source, tag)
// sub-queues keyed by the wire pair, so the common exact-match receive is
// a hash lookup instead of a scan of every queued message. Wildcard
// receives (kAnySource / kAnyTag) scan the sub-queue fronts and take the
// envelope with the smallest arrival stamp — identical to what an
// arrival-ordered linear scan returns, at a cost proportional to the
// number of *distinct* live (source, tag) pairs, not the number of
// queued messages.
//
// Blocking: a receive without a match records the calling fiber and its
// (source, tag) filter in the mailbox's waiter list and parks it; push
// unparks exactly the waiters its envelope can match (a job abort wakes
// every parked fiber). There is no timeout: the scheduler detects deadlock
// deterministically (zero runnable fibers) and wakes parked receivers,
// which observe deadlocked() and throw. A serial job runs inline with no
// scheduler, so a receive there with no queued match can never be
// satisfied and throws DeadlockError at once.
//
// A mailbox belongs to one job, and a job's ranks share one thread, so
// nothing here is locked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "simmpi/errors.hpp"
#include "simmpi/pool.hpp"
#include "simmpi/scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace resilience::simmpi {

/// Wildcard source for receives (the analogue of MPI_ANY_SOURCE).
inline constexpr int kAnySource = -1;
/// Wildcard tag for receives (the analogue of MPI_ANY_TAG).
inline constexpr int kAnyTag = -1;

/// A message in flight: raw bytes plus the matching metadata.
struct Envelope {
  int source = 0;
  int tag = 0;
  std::vector<std::byte> bytes;
};

/// Shared abort flag for one job.
class AbortToken {
 public:
  void trigger() noexcept { aborted_ = true; }
  [[nodiscard]] bool triggered() const noexcept { return aborted_; }

 private:
  bool aborted_ = false;
};

class Mailbox {
 public:
  explicit Mailbox(AbortToken* abort) : abort_(abort) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Attach the owning job's fiber scheduler; receives called from a
  /// fiber park until a matching envelope arrives.
  void set_scheduler(FiberScheduler* scheduler) noexcept {
    sched_ = scheduler;
  }

  /// Enqueue an envelope; never blocks. Only parked receivers whose
  /// (source, tag) filter matches the envelope are woken — waking the
  /// rest would be a thundering herd of resume/re-park cycles (each a
  /// full TLS swap and context switch) for receives that cannot match.
  void push(Envelope env) {
    const int source = env.source;
    const int tag = env.tag;
    auto& queue = queues_[key_of(source, tag)];
    queue.push_back(Stamped{next_stamp_++, std::move(env)});
    ++pending_;
    if (sched_ != nullptr) {
      for (const RecvWaiter& waiter : recv_waiters_) {
        if (waiter.matches(source, tag)) sched_->unpark(waiter.fiber);
      }
    }
  }

  /// Dequeue the first envelope matching (source, tag), parking the
  /// calling fiber as needed. Throws AbortError if the job aborts while
  /// waiting and DeadlockError once no rank can ever send the match: the
  /// scheduler found no runnable fiber, or the caller is a serial job's
  /// only rank.
  Envelope pop_matching(int source, int tag) {
    bool counted_wait = false;
    detail::Fiber* const self = FiberScheduler::current_fiber();
    for (;;) {
      if (abort_->triggered()) throw AbortError();
      if (SubQueue* queue = find_match(source, tag); queue != nullptr) {
        return take_front(*queue);
      }
      if (sched_ == nullptr || self == nullptr) {
        throw DeadlockError("receive with no matching message in a serial "
                            "job: deadlock");
      }
      if (sched_->deadlocked()) {
        throw DeadlockError("receive blocked with no runnable fiber: deadlock");
      }
      if (!counted_wait) {
        // Diagnostic counter: this receive is about to park — its match
        // has not arrived yet. Counted once per call.
        telemetry::count(telemetry::Counter::SimmpiMailboxWaits);
        counted_wait = true;
      }
      recv_waiters_.push_back(RecvWaiter{self, source, tag});
      sched_->park();
      remove_recv_waiter(self);
    }
  }

  /// Non-blocking probe: true if a matching envelope is queued.
  [[nodiscard]] bool probe(int source, int tag) {
    return find_match(source, tag) != nullptr;
  }

  /// Number of queued envelopes (any source/tag).
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  // ---- payload buffer pool --------------------------------------------------

  /// A payload buffer of `bytes` size for a message addressed to this
  /// mailbox, recycled from previously consumed envelopes when possible.
  [[nodiscard]] std::vector<std::byte> acquire_buffer(std::size_t bytes) {
    return pool_.get(bytes);
  }

  /// Return a consumed envelope's payload capacity to this mailbox's pool.
  void recycle(Envelope&& env) { pool_.put(std::move(env.bytes)); }

  [[nodiscard]] BufferPool::Stats pool_stats() const { return pool_.stats(); }

 private:
  struct Stamped {
    std::uint64_t stamp;  ///< global arrival order across all sub-queues
    Envelope env;
  };
  using SubQueue = std::deque<Stamped>;

  Envelope take_front(SubQueue& queue) {
    Envelope env = std::move(queue.front().env);
    queue.pop_front();
    --pending_;
    if (queue.empty()) {
      // One-shot keys (every collective op salts a fresh tag) would
      // otherwise grow the index without bound.
      queues_.erase(key_of(env.source, env.tag));
    }
    return env;
  }

  /// A parked receiving fiber plus the (source, tag) filter it awaits;
  /// push() uses the filter to wake only receivers the envelope can
  /// satisfy.
  struct RecvWaiter {
    detail::Fiber* fiber = nullptr;
    int source = 0;
    int tag = 0;

    [[nodiscard]] bool matches(int env_source, int env_tag) const noexcept {
      return (source == kAnySource || source == env_source) &&
             (tag == kAnyTag || tag == env_tag);
    }
  };

  void remove_recv_waiter(detail::Fiber* fiber) {
    for (auto it = recv_waiters_.begin(); it != recv_waiters_.end(); ++it) {
      if (it->fiber == fiber) {
        recv_waiters_.erase(it);
        return;
      }
    }
  }

  /// Wire sources are world ranks (>= 0) and wire tags are non-negative
  /// 31-bit values, so the pair packs into one index key.
  static std::uint64_t key_of(int source, int tag) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }
  static int key_source(std::uint64_t key) noexcept {
    return static_cast<int>(key >> 32);
  }
  static int key_tag(std::uint64_t key) noexcept {
    return static_cast<int>(key & 0xffffffffu);
  }

  /// The sub-queue whose front is the earliest-arrived matching envelope,
  /// or nullptr. Exact (source, tag) pairs are one hash lookup; wildcards
  /// scan the live sub-queue fronts for the smallest arrival stamp, which
  /// preserves the arrival-order semantics of the old linear scan.
  SubQueue* find_match(int source, int tag) {
    if (source != kAnySource && tag != kAnyTag) {
      const auto it = queues_.find(key_of(source, tag));
      return it == queues_.end() ? nullptr : &it->second;
    }
    SubQueue* best = nullptr;
    std::uint64_t best_stamp = 0;
    for (auto& [key, queue] : queues_) {
      const bool src_ok = source == kAnySource || key_source(key) == source;
      const bool tag_ok = tag == kAnyTag || key_tag(key) == tag;
      if (!src_ok || !tag_ok) continue;
      const std::uint64_t stamp = queue.front().stamp;
      if (best == nullptr || stamp < best_stamp) {
        best = &queue;
        best_stamp = stamp;
      }
    }
    return best;
  }

  AbortToken* abort_;
  FiberScheduler* sched_ = nullptr;  ///< null for a serial job
  std::vector<RecvWaiter> recv_waiters_;  ///< parked receivers
  /// (source, tag) -> FIFO of envelopes; empty sub-queues are erased.
  std::unordered_map<std::uint64_t, SubQueue> queues_;
  std::uint64_t next_stamp_ = 0;
  std::size_t pending_ = 0;
  BufferPool pool_;
};

}  // namespace resilience::simmpi

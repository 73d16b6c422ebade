// Fused collectives for the fiber scheduler.
//
// Decomposed into mailbox messages, a collective costs one park/wake per
// tree edge. Fused, each participating fiber instead *arrives* at its
// communicator's FusedGroup carrying pointers to its contribution and its
// output slot, then parks. The last arriver executes the entire combine
// in one pass on its own stack (one fused combine instead of 2(N-1)
// message hops), marks the epoch done and wakes everyone. Logical
// instrumentation is preserved exactly: each rank records its own logical
// sends *before* arriving (mirroring the mailbox decomposition byte for
// byte), and the combiner replays per-rank receive hooks under
// BorrowFiberTls so taint and telemetry land on the logical rank that
// would have executed them.
//
// Safety of the borrowed pointers and TLS banks: every non-last
// arriver's Arrival points into its own fiber stack (accumulator
// buffers, user output slots), and the combiner swaps each arriver's
// saved thread-local bank onto the thread while replaying that rank's
// instrumentation. Both are safe because a job's fibers share one thread
// and the combiner never parks mid-combine: every other arriver stays
// parked, untouched, until complete() wakes it.
//
// Epochs: collectives on one communicator are totally ordered by the
// Comm's collective sequence number. The first arriver of an epoch pins
// it; a rank arriving with a different epoch has diverged from SPMD order
// and is reported as a usage error. `done_epoch_` is monotonic, so a
// waiter's predicate is simply done_epoch() >= its epoch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "simmpi/scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace resilience::simmpi::detail {

/// One rank's contribution to a fused collective, valid while its fiber
/// stays parked (or, for the combiner, for the duration of the combine).
struct Arrival {
  std::byte* data = nullptr;  ///< this rank's input contribution
  std::byte* out = nullptr;   ///< where the combiner writes this rank's result
  std::size_t len = 0;        ///< contribution size in bytes
  Fiber* fiber = nullptr;     ///< arriving fiber, for BorrowFiberTls
};

/// Fused-collective meeting point for one communicator (one per salt).
class FusedGroup {
 public:
  enum class ArriveOutcome { Waiter, Combiner, EpochMismatch };

  /// Record `vrank`'s arrival for `epoch`. The last arriver becomes the
  /// combiner and must run the combine before it parks or returns;
  /// arrival slots stay valid exactly that long.
  ArriveOutcome arrive(int vrank, std::uint64_t epoch, const Arrival& arrival,
                       int group_size) {
    if (epoch <= done_epoch_) {
      // A rank arriving with an already-completed epoch has fallen behind
      // the group's SPMD sequence (it skipped collectives its peers ran).
      // Reject before recording anything: pinning current_epoch_ to the
      // stale value would corrupt group state and misreport the error at
      // a healthy rank's next collective instead of the diverged rank.
      return ArriveOutcome::EpochMismatch;
    }
    if (arrived_ == 0) {
      current_epoch_ = epoch;
      if (arrivals_.size() < static_cast<std::size_t>(group_size)) {
        arrivals_.resize(static_cast<std::size_t>(group_size));
      }
    } else if (epoch != current_epoch_) {
      return ArriveOutcome::EpochMismatch;
    }
    arrivals_[static_cast<std::size_t>(vrank)] = arrival;
    ++arrived_;
    if (arrived_ == group_size) {
      arrived_ = 0;  // slots are consumed by this combine; epoch may reuse
      return ArriveOutcome::Combiner;
    }
    return ArriveOutcome::Waiter;
  }

  /// The combiner's view of a participant's arrival.
  [[nodiscard]] Arrival& slot(int vrank) {
    return arrivals_[static_cast<std::size_t>(vrank)];
  }

  /// Combiner only, after all outputs are written: publish the epoch and
  /// wake every parked participant.
  void complete(std::uint64_t epoch, FiberScheduler& scheduler) {
    done_epoch_ = epoch;
    telemetry::count(telemetry::Counter::SimmpiFusedCollectives);
    waiters_.wake_all(scheduler);
  }

  [[nodiscard]] std::uint64_t done_epoch() const noexcept {
    return done_epoch_;
  }
  [[nodiscard]] WaitList& waiters() noexcept { return waiters_; }

 private:
  WaitList waiters_;
  std::vector<Arrival> arrivals_;
  int arrived_ = 0;
  std::uint64_t current_epoch_ = 0;
  std::uint64_t done_epoch_ = 0;
};

/// Lazily materialised FusedGroup per communicator salt; owned by the
/// JobState so split communicators get distinct meeting points.
class FusedHub {
 public:
  FusedGroup& group(std::uint32_t salt) {
    auto& slot = groups_[salt];
    if (slot == nullptr) slot = std::make_unique<FusedGroup>();
    return *slot;
  }

 private:
  std::unordered_map<std::uint32_t, std::unique_ptr<FusedGroup>> groups_;
};

}  // namespace resilience::simmpi::detail

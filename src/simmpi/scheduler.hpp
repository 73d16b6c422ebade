// Cooperative fiber scheduler: every rank of a job is a resumable fiber,
// and all of a job's fibers run one at a time on the thread that launched
// the job (DESIGN.md §11).
//
// A blocking point (mailbox receive, fused-collective arrival) parks the
// running fiber and the scheduler switches to the next runnable one, so a
// 1024-rank job costs one OS thread and 1024 small stacks. Parallelism
// comes from running several jobs side by side (the campaign executor,
// shard worker processes), never from spreading one job over threads —
// the same design SimGrid uses for its simulated actors.
//
// Park/wake protocol: a fiber that must block registers itself in the
// owning structure's wait list, marks itself parked and switches back to
// the scheduler loop. Wakers call unpark(), which queues a parked fiber at
// the back of the run queue; waking a fiber that is not parked is a
// satisfied or spurious wake and is ignored. Parked fibers remove themselves from their wait
// list after resuming, then re-check their predicate. Only one fiber of a
// job runs at any moment, so none of this needs a lock: a fiber is
// suspended exactly where it called park() or yield_current(), never in
// between.
//
// Deadlock detection is deterministic, not timer-based: the moment no
// fiber is runnable while some are still unfinished, no future event can
// ever unblock them (there are no timers and no external inputs), so the
// scheduler declares the job deadlocked and wakes every parked fiber; the
// blocking primitives observe deadlocked() and throw DeadlockError, which
// Runtime::run records as the job's deadlock verdict.
//
// Per-fiber TLS: resume() installs the fiber's saved bank of registered
// thread-local slots (util::FiberTlsRegistry — fault-injector context
// and trial control) and restores the launching thread's bank on
// suspend, so every rank keeps its own per-rank state although all ranks
// share one thread.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "simmpi/fiber.hpp"
#include "util/fiber_tls.hpp"

namespace resilience::simmpi {

class FiberScheduler;
class BorrowFiberTls;

namespace detail {

/// One rank's resumable execution context plus its scheduler state.
class Fiber {
 public:
  Fiber(FiberScheduler* scheduler, int rank);

 private:
  friend class ::resilience::simmpi::FiberScheduler;
  friend class ::resilience::simmpi::BorrowFiberTls;

  static void entry_thunk(void* arg);

  FiberScheduler* scheduler_;
  int rank_;
  bool parked_ = false;    ///< suspended in park(), waiting for unpark()
  bool finished_ = false;  ///< set by the fiber before its last switch-out
  util::FiberTlsRegistry::Values tls_{};  ///< saved bank while suspended
  FiberContext context_;  ///< last member: entry may run immediately never
};

}  // namespace detail

class FiberScheduler {
 public:
  /// Prepares a scheduler for `nranks` fibers.
  explicit FiberScheduler(int nranks);
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Create one runnable fiber per rank executing `body(rank)`. `body`
  /// must not throw (Runtime's rank wrapper catches everything) and must
  /// outlive run().
  void start(const std::function<void(int rank)>& body);

  /// Drive fibers on the calling thread until every one of them finished.
  void run();

  /// Suspend the calling fiber until unpark() makes it runnable again.
  /// The caller must already be registered in a wait list its wakers use.
  void park();

  /// Make a parked fiber runnable; satisfied and spurious wakes are
  /// ignored.
  void unpark(detail::Fiber* fiber);

  /// Wake every parked fiber (job abort teardown): each resumes inside
  /// its blocking primitive, re-checks its predicate and observes the
  /// abort token.
  void wake_all_parked();

  /// True once the scheduler declared the job deadlocked (every fiber
  /// blocked). Blocking primitives check this after resuming and throw
  /// DeadlockError.
  [[nodiscard]] bool deadlocked() const noexcept { return deadlocked_; }

  /// Reschedule the calling fiber at the back of the run queue so its
  /// peers can make progress; no-op outside fibers. The non-blocking
  /// query primitives (probe, Request::test) yield on failure, because a
  /// cooperative core would otherwise starve the very rank a polling
  /// loop is waiting on.
  static void yield_current();

  /// The fiber running on the calling thread (nullptr outside fibers).
  [[nodiscard]] static detail::Fiber* current_fiber() noexcept;

 private:
  friend class detail::Fiber;

  void fiber_entry(detail::Fiber* fiber);
  void resume(detail::Fiber* fiber);

  const int nranks_;
  std::function<void(int)> body_;
  std::deque<detail::Fiber*> run_queue_;
  std::vector<std::unique_ptr<detail::Fiber>> fibers_;
  int finished_ = 0;  ///< fibers whose body returned
  bool deadlocked_ = false;
};

namespace detail {

/// Parked fibers blocked on one structure (a fused-collective group).
/// Entries are removed by the fibers themselves after they resume.
class WaitList {
 public:
  void add(Fiber* fiber) { fibers_.push_back(fiber); }
  void remove(Fiber* fiber) {
    for (auto it = fibers_.begin(); it != fibers_.end(); ++it) {
      if (*it == fiber) {
        fibers_.erase(it);
        return;
      }
    }
  }
  void wake_all(FiberScheduler& scheduler) {
    for (Fiber* fiber : fibers_) scheduler.unpark(fiber);
  }

 private:
  std::vector<Fiber*> fibers_;
};

}  // namespace detail

/// Temporarily install a *parked* fiber's saved thread-local bank on the
/// calling thread. The fused-collective combiner uses this to attribute
/// per-rank instrumentation (TransportTraits::on_receive, fault-context
/// taint, telemetry counts) to the logical rank it belongs to while
/// executing the whole combine on one fiber. No-op for null or the
/// calling fiber itself. The borrowed fiber stays parked for the borrow's
/// lifetime because nothing else runs until the combiner parks or ends.
class BorrowFiberTls {
 public:
  explicit BorrowFiberTls(detail::Fiber* fiber);
  ~BorrowFiberTls();
  BorrowFiberTls(const BorrowFiberTls&) = delete;
  BorrowFiberTls& operator=(const BorrowFiberTls&) = delete;

 private:
  detail::Fiber* fiber_ = nullptr;
};

}  // namespace resilience::simmpi

#include "simmpi/scheduler.hpp"

#include <cstdio>
#include <cstdlib>

namespace resilience::simmpi {

namespace {

/// The fiber the calling thread is currently executing, if any. resume()
/// sets it around each slice; everything else (mailbox waits, collective
/// arrivals) reads it to decide whether the caller can park.
thread_local detail::Fiber* tl_current_fiber = nullptr;

[[noreturn]] void fatal(const char* what) {
  std::fprintf(stderr, "scheduler: %s\n", what);
  std::abort();
}

}  // namespace

namespace detail {

Fiber::Fiber(FiberScheduler* scheduler, int rank)
    : scheduler_(scheduler), rank_(rank), context_(&Fiber::entry_thunk, this) {}

void Fiber::entry_thunk(void* arg) {
  auto* fiber = static_cast<Fiber*>(arg);
  fiber->scheduler_->fiber_entry(fiber);
}

}  // namespace detail

FiberScheduler::FiberScheduler(int nranks) : nranks_(nranks) {}

FiberScheduler::~FiberScheduler() = default;

void FiberScheduler::start(const std::function<void(int rank)>& body) {
  body_ = body;
  fibers_.reserve(static_cast<std::size_t>(nranks_));
  for (int rank = 0; rank < nranks_; ++rank) {
    fibers_.push_back(std::make_unique<detail::Fiber>(this, rank));
    run_queue_.push_back(fibers_.back().get());
  }
}

void FiberScheduler::fiber_entry(detail::Fiber* fiber) {
  body_(fiber->rank_);
  fiber->finished_ = true;
  // Final switch back to run(), which marks the fiber Done. The fiber is
  // never resumed again; the trampoline aborts if it somehow is.
  fiber->context_.switch_out();
}

void FiberScheduler::resume(detail::Fiber* fiber) {
  util::FiberTlsRegistry::swap(fiber->tls_);
  tl_current_fiber = fiber;
  fiber->context_.switch_in();
  tl_current_fiber = nullptr;
  util::FiberTlsRegistry::swap(fiber->tls_);
}

void FiberScheduler::run() {
  while (finished_ < nranks_) {
    if (run_queue_.empty()) {
      // Nothing runnable, some fibers unfinished: every one of them is
      // parked and no future event can wake them (no timers, no external
      // input). The job is deadlocked — deterministically, not after a
      // timeout. Wake them so their blocking primitives observe
      // deadlocked() and throw.
      deadlocked_ = true;
      wake_all_parked();
      if (run_queue_.empty()) fatal("unfinished fibers but none parked");
    }
    detail::Fiber* fiber = run_queue_.front();
    run_queue_.pop_front();
    resume(fiber);
    // A fiber that did not finish has parked, or yielded itself back
    // onto the run queue.
    if (fiber->finished_) ++finished_;
  }
}

void FiberScheduler::park() {
  detail::Fiber* fiber = current_fiber();
  if (fiber == nullptr) fatal("park called outside a fiber");
  fiber->parked_ = true;
  fiber->context_.switch_out();
}

void FiberScheduler::unpark(detail::Fiber* fiber) {
  if (!fiber->parked_) return;
  fiber->parked_ = false;
  run_queue_.push_back(fiber);
}

void FiberScheduler::yield_current() {
  detail::Fiber* fiber = current_fiber();
  if (fiber == nullptr) return;
  fiber->scheduler_->run_queue_.push_back(fiber);
  fiber->context_.switch_out();
}

void FiberScheduler::wake_all_parked() {
  for (auto& fiber : fibers_) unpark(fiber.get());
}

detail::Fiber* FiberScheduler::current_fiber() noexcept {
  return tl_current_fiber;
}

BorrowFiberTls::BorrowFiberTls(detail::Fiber* fiber) {
  if (fiber == nullptr || fiber == FiberScheduler::current_fiber()) return;
  if (!fiber->parked_) fatal("borrowed fiber is not parked");
  fiber_ = fiber;
  util::FiberTlsRegistry::swap(fiber_->tls_);
}

BorrowFiberTls::~BorrowFiberTls() {
  if (fiber_ != nullptr) {
    util::FiberTlsRegistry::swap(fiber_->tls_);
  }
}

}  // namespace resilience::simmpi

#include "simmpi/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#if defined(RESILIENCE_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif
#if defined(RESILIENCE_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif

#ifndef MAP_STACK
#define MAP_STACK 0
#endif

namespace resilience::simmpi::detail {

namespace {

std::size_t page_size() noexcept {
  static const std::size_t size = [] {
    const long s = ::sysconf(_SC_PAGESIZE);
    return s > 0 ? static_cast<std::size_t>(s) : std::size_t{4096};
  }();
  return size;
}

/// Bytes of one stack mapping: the guard page plus the usable stack.
std::size_t mapping_bytes() noexcept { return page_size() + kFiberStackBytes; }

/// Process-wide freelist of idle stack mappings. Campaigns churn one
/// fiber per rank per job; recycling mappings keeps that churn off the
/// mmap path (and keeps the pages warm).
class StackPool {
 public:
  static StackPool& instance() {
    static StackPool* pool = new StackPool;  // leaked: alive at exit
    return *pool;
  }

  void* get() {
    {
      std::lock_guard lock(mu_);
      if (!idle_.empty()) {
        void* mapping = idle_.back();
        idle_.pop_back();
        return mapping;
      }
    }
    void* mapping =
        ::mmap(nullptr, mapping_bytes(), PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (mapping == MAP_FAILED) throw std::bad_alloc();
    // Guard page at the low end: stacks grow down on every platform this
    // runs on, so an overflow hits PROT_NONE instead of a neighbour.
    if (::mprotect(mapping, page_size(), PROT_NONE) != 0) {
      ::munmap(mapping, mapping_bytes());
      throw std::bad_alloc();
    }
    return mapping;
  }

  void put(void* mapping) noexcept {
    {
      std::lock_guard lock(mu_);
      if (idle_.size() < kMaxIdle) {
        idle_.push_back(mapping);
        return;
      }
    }
    ::munmap(mapping, mapping_bytes());
  }

 private:
  /// Bounds resident idle mappings: a 1024-rank job parks ~256 MiB of
  /// (mostly untouched) address space.
  static constexpr std::size_t kMaxIdle = 2048;

  std::mutex mu_;
  std::vector<void*> idle_;
};

/// Where a switched-out fiber returns to: the resuming scheduler loop
/// saves its own context here for the duration of the slice.
/// Thread-local, because jobs on different threads switch independently.
thread_local ucontext_t* tl_return_context = nullptr;
#if defined(RESILIENCE_TSAN_FIBERS)
thread_local void* tl_worker_tsan_fiber = nullptr;
#endif

}  // namespace

FiberContext::FiberContext(Entry entry, void* arg)
    : entry_(entry), arg_(arg) {
  mapping_ = StackPool::instance().get();
  if (::getcontext(&context_) != 0) {
    StackPool::instance().put(mapping_);
    mapping_ = nullptr;
    throw std::bad_alloc();
  }
  context_.uc_stack.ss_sp =
      static_cast<std::byte*>(mapping_) + page_size();
  context_.uc_stack.ss_size = kFiberStackBytes;
  context_.uc_link = nullptr;  // the entry must switch_out, never fall off
  // makecontext only passes ints; split the pointer across two of them.
  // Widen to 64 bits first: on a 32-bit target `uintptr_t >> 32` would
  // shift by the full type width, which is undefined behavior.
  const auto self =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
  ::makecontext(&context_, reinterpret_cast<void (*)()>(&trampoline), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
#if defined(RESILIENCE_TSAN_FIBERS)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

FiberContext::~FiberContext() {
#if defined(RESILIENCE_TSAN_FIBERS)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  if (mapping_ != nullptr) StackPool::instance().put(mapping_);
}

void FiberContext::trampoline(unsigned hi, unsigned lo) {
  const auto bits =
      (static_cast<std::uint64_t>(hi) << 32) | static_cast<std::uint64_t>(lo);
  auto* self =
      reinterpret_cast<FiberContext*>(static_cast<std::uintptr_t>(bits));
#if defined(RESILIENCE_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(nullptr, &self->asan_return_bottom_,
                                  &self->asan_return_size_);
#endif
  self->entry_(self->arg_);
  // The entry contract is a final switch_out(); falling off the context
  // would terminate the thread (uc_link is null).
  std::fprintf(stderr, "fiber: entry returned without switch_out\n");
  std::abort();
}

void FiberContext::switch_in() {
  ucontext_t here;
  ucontext_t* const previous = tl_return_context;
  tl_return_context = &here;
#if defined(RESILIENCE_TSAN_FIBERS)
  void* const previous_tsan = tl_worker_tsan_fiber;
  tl_worker_tsan_fiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(RESILIENCE_ASAN_FIBERS)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, context_.uc_stack.ss_sp,
                                 context_.uc_stack.ss_size);
#endif
  if (::swapcontext(&here, &context_) != 0) {
    std::fprintf(stderr, "fiber: swapcontext into fiber failed\n");
    std::abort();
  }
#if defined(RESILIENCE_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
#if defined(RESILIENCE_TSAN_FIBERS)
  tl_worker_tsan_fiber = previous_tsan;
#endif
  tl_return_context = previous;
}

void FiberContext::switch_out() {
  ucontext_t* const back = tl_return_context;
#if defined(RESILIENCE_TSAN_FIBERS)
  __tsan_switch_to_fiber(tl_worker_tsan_fiber, 0);
#endif
#if defined(RESILIENCE_ASAN_FIBERS)
  // A finished fiber's last switch_out never returns, so its saved fake
  // stack (used only with detect_stack_use_after_return) is not reclaimed.
  __sanitizer_start_switch_fiber(&asan_fake_stack_, asan_return_bottom_,
                                 asan_return_size_);
#endif
  if (::swapcontext(&context_, back) != 0) {
    std::fprintf(stderr, "fiber: swapcontext out of fiber failed\n");
    std::abort();
  }
#if defined(RESILIENCE_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &asan_return_bottom_,
                                  &asan_return_size_);
#endif
}

}  // namespace resilience::simmpi::detail

// Stackful fiber primitive for the simmpi scheduler: an owned, pooled
// mmap stack plus a ucontext execution context.
//
// A FiberContext is the mechanism only — allocate a stack, run an entry
// function on it, switch in from the scheduler loop and out from the fiber.
// All policy (run queues, park/wake states, deadlock detection) lives in
// scheduler.{hpp,cpp}.
//
// Stacks: each fiber owns a private mmap'd stack with a PROT_NONE guard
// page below it, so an overflow faults instead of silently corrupting a
// neighbour. Campaigns create and destroy thousands of fibers (one per
// rank per job), so mappings are recycled through a process-wide freelist
// — steady-state jobs pay no mmap/munmap at all. Every stack is
// kFiberStackBytes.
//
// ThreadSanitizer: tsan models each fiber as a logical thread. Every
// context switch is announced via __tsan_switch_to_fiber immediately
// before the swapcontext, and fiber creation/destruction via
// __tsan_create_fiber/__tsan_destroy_fiber, so the tsan-labeled test
// suite runs unchanged on the fiber scheduler.
//
// AddressSanitizer: every swapcontext is bracketed by
// __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber, so
// ASan knows which stack is live. Without them, an exception unwinding
// on a fiber stack makes ASan's no-return handler poison the wrong stack
// and report a false stack-use-after-scope.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_THREAD__)
#define RESILIENCE_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RESILIENCE_TSAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define RESILIENCE_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RESILIENCE_ASAN_FIBERS 1
#endif
#endif

#include <ucontext.h>

namespace resilience::simmpi::detail {

/// Usable stack of every fiber (256 KiB; a whole number of pages on every
/// page size in use). App ranks carry only solver state; deep
/// allocations live in heap-backed vectors.
inline constexpr std::size_t kFiberStackBytes = 256 * 1024;

/// One resumable execution context on an owned stack.
class FiberContext {
 public:
  using Entry = void (*)(void* arg);

  /// Acquires a stack (pooled) and prepares `entry(arg)` to run on it at
  /// the first switch_in(). `entry` must finish with a final switch_out()
  /// and never return.
  FiberContext(Entry entry, void* arg);
  ~FiberContext();

  FiberContext(const FiberContext&) = delete;
  FiberContext& operator=(const FiberContext&) = delete;

  /// Transfer the calling thread into the fiber; returns when the fiber
  /// next calls switch_out(). Not reentrant: a fiber must not switch into
  /// another fiber.
  void switch_in();

  /// Transfer from inside the fiber back to the loop that resumed it.
  void switch_out();

 private:
  static void trampoline(unsigned hi, unsigned lo);

  Entry entry_;
  void* arg_;
  void* mapping_ = nullptr;  ///< guard page + stack
  ucontext_t context_{};
#if defined(RESILIENCE_TSAN_FIBERS)
  void* tsan_fiber_ = nullptr;
#endif
#if defined(RESILIENCE_ASAN_FIBERS)
  void* asan_fake_stack_ = nullptr;  ///< saved while switched out
  /// Stack that switch_out() returns to (the resuming loop's thread).
  const void* asan_return_bottom_ = nullptr;
  std::size_t asan_return_size_ = 0;
#endif
};

}  // namespace resilience::simmpi::detail

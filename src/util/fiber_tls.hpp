// Execution-context-local storage registry for the fiber scheduler.
//
// Several layers above util keep per-rank state in C++ thread_local slots
// (the fault injector's installed context, the trial-control hook). Under
// the fiber scheduler all ranks of a job share one OS thread, each as a
// resumable fiber, so "thread-local" must become "fiber-local". Rather
// than teach simmpi about every layer above it (an inverted dependency),
// each layer registers its slot here — a (get, set) accessor pair — and
// the scheduler swaps every registered slot's live value against the
// fiber's saved bank at each suspend/resume. Plain threads never pay
// anything: the registry is only consulted on a fiber switch.
//
// Registration happens from namespace-scope initializers in each layer's
// translation unit, i.e. before main() and before any fiber exists. A
// binary that never links a layer simply never swaps that layer's slot —
// consistent, because it never installs it either.
#pragma once

#include <array>
#include <cstddef>

namespace resilience::util {

/// Accessors for one thread_local slot the fiber scheduler must swap.
struct FiberTlsSlot {
  /// Read the calling thread's live value.
  void* (*get)() noexcept;
  /// Overwrite the calling thread's live value.
  void (*set)(void*) noexcept;
};

class FiberTlsRegistry {
 public:
  /// Upper bound on registered slots; a handful of layers, fixed storage.
  static constexpr std::size_t kMaxSlots = 8;
  /// One execution context's saved bank of slot values; a fresh fiber
  /// starts with every slot null.
  using Values = std::array<void*, kMaxSlots>;

  /// Register a slot (namespace-scope initializers only; registering
  /// after fibers started switching would corrupt saved banks). Returns
  /// the slot index.
  static std::size_t add(const FiberTlsSlot& slot) noexcept;

  /// Exchange the calling thread's live slot values with `values`. Called
  /// by the scheduler on both sides of a fiber switch: once to install
  /// the fiber's bank (saving the worker's), once to restore the
  /// worker's (saving the fiber's).
  static void swap(Values& values) noexcept;
};

}  // namespace resilience::util

// Envelope payload freelist.
//
// A fault-injection campaign sends millions of short-lived messages, and
// the seed runtime heap-allocated every payload (`Envelope::bytes`) on
// send and freed it on receive. The pool recycles that capacity instead:
// consumed payload buffers return to a freelist and the next send reuses
// them, so steady-state traffic performs no allocations at all.
//
// The pool is unsynchronized: each Mailbox embeds one, and a job's ranks
// share one thread. Embedding shards the freelists by destination rank:
// a ping-pong pair recycles the same two buffers forever.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace resilience::simmpi {

class BufferPool {
 public:
  struct Stats {
    /// Buffers handed out that had to be freshly allocated.
    std::uint64_t allocs = 0;
    /// Buffers handed out from the freelist (capacity recycled).
    std::uint64_t reuses = 0;
  };

  /// A buffer of exactly `bytes` size, reusing freelist capacity when
  /// available. Contents are unspecified; callers overwrite them.
  [[nodiscard]] std::vector<std::byte> get(std::size_t bytes) {
    if (free_.empty()) {
      ++stats_.allocs;
      return std::vector<std::byte>(bytes);
    }
    ++stats_.reuses;
    std::vector<std::byte> buf = std::move(free_.back());
    free_.pop_back();
    buf.resize(bytes);
    return buf;
  }

  /// Return a consumed buffer's capacity to the freelist. The freelist is
  /// bounded so a burst of in-flight messages cannot pin memory forever.
  void put(std::vector<std::byte>&& buf) {
    if (free_.size() < kMaxFree) free_.push_back(std::move(buf));
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// More in-flight messages per rank than any app here posts; beyond it
  /// the excess buffers simply free.
  static constexpr std::size_t kMaxFree = 256;

  std::vector<std::vector<std::byte>> free_;
  Stats stats_;
};

}  // namespace resilience::simmpi

// The per-rank communicator handle: typed point-to-point messaging and
// deterministic collectives over the mailbox transport.
//
// Semantics follow MPI where it matters for resilience modeling:
//  - sends are buffered and non-blocking (MPI_Send on eager-size messages);
//  - receives block with (source, tag) matching and non-overtaking order;
//  - collectives are SPMD: every rank of a communicator must call the same
//    sequence of collectives (the paper's application model, Section 2,
//    assumes all MPI processes run the same computation);
//  - reductions combine contributions in a fixed tree order so that
//    floating-point results — and corruption propagation — are
//    deterministic run-to-run, which the fault injector's profiling
//    pre-pass relies on;
//  - split() carves sub-communicators out of the world communicator; each
//    gets its own tag space (an 8-bit salt folded into every wire tag), so
//    traffic in different communicators can never cross-match.
//
// Wire tag layout (31 usable bits of a non-negative int):
//   [bit 30]     internal (collective) flag
//   [bits 22-29] communicator salt (0 = world)
//   [bits 0-21]  user tag, or collective sequence * 8 + operation slot
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "simmpi/collective.hpp"
#include "simmpi/errors.hpp"
#include "simmpi/mailbox.hpp"
#include "simmpi/request.hpp"
#include "simmpi/scheduler.hpp"
#include "simmpi/transport_traits.hpp"

namespace resilience::simmpi {

namespace detail {

/// Shared state of one running job; owned by Runtime::run. All of a
/// job's ranks run on one thread, so none of it is locked.
struct JobState {
  explicit JobState(int nranks) {
    mailboxes.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      mailboxes.push_back(std::make_unique<Mailbox>(&abort));
    }
  }

  /// Wire a multi-rank job to its fiber scheduler: blocking receives park
  /// their fiber, and collectives take the fused path.
  void attach_scheduler(FiberScheduler* sched) {
    scheduler = sched;
    for (auto& box : mailboxes) box->set_scheduler(sched);
  }

  void trigger_abort() {
    abort.trigger();
    if (scheduler != nullptr) scheduler->wake_all_parked();
  }

  /// Aggregate envelope-pool statistics across every rank's mailbox.
  [[nodiscard]] BufferPool::Stats pool_stats() const {
    BufferPool::Stats total;
    for (const auto& box : mailboxes) {
      const BufferPool::Stats s = box->pool_stats();
      total.allocs += s.allocs;
      total.reuses += s.reuses;
    }
    return total;
  }

  AbortToken abort;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  /// Fiber scheduler driving this job's ranks; null for a serial job.
  FiberScheduler* scheduler = nullptr;
  /// Fused-collective meeting points, keyed by communicator salt.
  FusedHub fused;
  /// Transport statistics for the whole job (all communicators).
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
};

/// Whether collectives fuse at the group meeting point (the default) or
/// decompose into mailbox messages — the reference the fused path is
/// tested against. A programmatic test/bench toggle only, with no
/// environment knob. The two paths agree on every completed job's values,
/// but not on aborted ones: how far peers progress before an abort
/// reaches them differs, so a failing trial's contamination count (and
/// with it a campaign's contamination histogram) can differ between them.
[[nodiscard]] bool fused_collectives_enabled() noexcept;
void set_fused_collectives_enabled(bool enabled) noexcept;

inline constexpr int kUserTagBits = 22;
inline constexpr int kSaltBits = 8;
inline constexpr int kInternalFlag = 1 << 30;
inline constexpr int kCollectiveSlots = 8;

constexpr int wire_user_tag(int salt, int tag) noexcept {
  return (salt << kUserTagBits) | tag;
}
constexpr int wire_internal_tag(int salt, int seq, int slot) noexcept {
  return kInternalFlag | (salt << kUserTagBits) |
         (seq * kCollectiveSlots + slot);
}

}  // namespace detail

/// Largest user-visible message tag.
inline constexpr int kMaxUserTag = (1 << detail::kUserTagBits) - 1;

template <typename T>
concept Transportable = std::is_trivially_copyable_v<T>;

/// Binary reduction operators for reduce/allreduce/scan.
/// Any callable T(const T&, const T&) works; these cover the common cases.
struct Sum {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a + b;
  }
};
struct Prod {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a * b;
  }
};
struct Min {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return b < a ? b : a;
  }
};
struct Max {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a < b ? b : a;
  }
};

class Comm {
 public:
  /// World communicator handle (constructed by Runtime).
  Comm(detail::JobState* job, int rank, int size)
      : job_(job), rank_(rank), size_(size) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return size_; }
  /// This rank's identity in the world communicator.
  [[nodiscard]] int world_rank() const noexcept { return translate(rank_); }

  // ---- point to point -----------------------------------------------------

  /// Buffered send: copies `values` and returns immediately.
  template <Transportable T>
  void send(int dest, int tag, std::span<const T> values) {
    check_peer(dest, "send");
    check_tag(tag);
    post(dest, detail::wire_user_tag(salt_, tag), values);
  }

  template <Transportable T>
  void send_value(int dest, int tag, const T& value) {
    send(dest, tag, std::span<const T>(&value, 1));
  }

  /// Blocking receive into a caller-sized buffer. The matched message must
  /// contain exactly `out.size()` elements of T.
  /// `source` may be kAnySource and `tag` may be kAnyTag.
  /// Returns the actual source rank (in this communicator).
  template <Transportable T>
  int recv(int source, int tag, std::span<T> out) {
    Envelope env = my_mailbox().pop_matching(wire_source(source, "recv"),
                                             wire_recv_tag(tag));
    if (env.bytes.size() != out.size_bytes()) {
      throw UsageError("recv: message size " + std::to_string(env.bytes.size()) +
                       " bytes does not match buffer " +
                       std::to_string(out.size_bytes()) + " bytes");
    }
    if (!out.empty()) std::memcpy(out.data(), env.bytes.data(), out.size_bytes());
    const int source_rank = local_rank_of(env.source);
    my_mailbox().recycle(std::move(env));
    TransportTraits<T>::on_receive(std::span<T>(out.data(), out.size()));
    return source_rank;
  }

  template <Transportable T>
  T recv_value(int source, int tag) {
    T value{};
    recv(source, tag, std::span<T>(&value, 1));
    return value;
  }

  /// Combined send+receive (deadlock-free because sends are buffered).
  template <Transportable T>
  void sendrecv(int dest, int send_tag, std::span<const T> send_buf,
                int source, int recv_tag, std::span<T> recv_buf) {
    send(dest, send_tag, send_buf);
    recv(source, recv_tag, recv_buf);
  }

  /// True if a matching message is already queued (MPI_Iprobe).
  [[nodiscard]] bool probe(int source, int tag) {
    if (my_mailbox().probe(wire_source(source, "probe"),
                           wire_recv_tag(tag))) {
      return true;
    }
    // Probe loops would starve the sender under the cooperative core;
    // let the peers run before reporting no.
    FiberScheduler::yield_current();
    return false;
  }

  // ---- nonblocking ----------------------------------------------------------

  /// Nonblocking send. Sends are buffered, so the returned request is
  /// already complete; it exists for symmetric wait_all code.
  template <Transportable T>
  Request isend(int dest, int tag, std::span<const T> values) {
    send(dest, tag, values);
    return Request{};
  }

  /// Nonblocking receive: matching is deferred to wait()/test() on the
  /// returned request. The buffer must stay alive until completion.
  template <Transportable T>
  Request irecv(int source, int tag, std::span<T> out) {
    const int wire_src = wire_source(source, "irecv");
    return Request(&my_mailbox(), wire_src, wire_recv_tag(tag),
                   std::as_writable_bytes(out),
                   [](std::span<std::byte> bytes) {
                     TransportTraits<T>::on_receive(std::span<T>(
                         reinterpret_cast<T*>(bytes.data()),
                         bytes.size() / sizeof(T)));
                   });
  }

  /// Complete every request in the span (MPI_Waitall).
  static void wait_all(std::span<Request> requests) {
    for (auto& request : requests) request.wait();
  }

  // ---- collectives ----------------------------------------------------------

  /// Synchronize all ranks (linear gather to rank 0 + release fan-out).
  void barrier();

  /// Broadcast `buf` from `root` to all ranks over a binomial tree.
  /// By default the broadcast executes as one fused combine (the last
  /// arriving fiber copies each parent's buffer to its children);
  /// otherwise every tree edge is a mailbox message. Both paths deliver
  /// the same bytes with the same per-rank receive instrumentation and
  /// the same logical transport stats.
  template <Transportable T>
  void bcast(std::span<T> buf, int root) {
    check_peer(root, "bcast");
    if (fused_active()) {
      bcast_fused(buf, root);
      return;
    }
    const int tag = next_collective_tag(0);
    // Renumber so the root is virtual rank 0, then walk the binomial tree.
    const int vrank = (rank_ - root + size_) % size_;
    // Receive from parent (unless root).
    if (vrank != 0) {
      const int parent = ((vrank - 1) / 2 + root) % size_;
      recv_internal(parent, tag, buf);
    }
    // Forward to children.
    for (int child_v : {2 * vrank + 1, 2 * vrank + 2}) {
      if (child_v < size_) {
        send_internal((child_v + root) % size_, tag, std::span<const T>(buf));
      }
    }
  }

  template <Transportable T>
  T bcast_value(T value, int root) {
    bcast(std::span<T>(&value, 1), root);
    return value;
  }

  /// Element-wise reduction of `in` into `out` on `root`.
  /// Contributions are combined bottom-up over a fixed binary tree, so the
  /// combine order is identical for every run at a given job size.
  template <Transportable T, typename Op = Sum>
  void reduce(std::span<const T> in, std::span<T> out, int root, Op op = {}) {
    check_peer(root, "reduce");
    if (in.size() != out.size() && rank_ == root) {
      throw UsageError("reduce: in/out size mismatch on root");
    }
    if (fused_active()) {
      reduce_fused(in, out, root, op);
      return;
    }
    const int tag = next_collective_tag(1);
    const int vrank = (rank_ - root + size_) % size_;
    std::vector<T> acc(in.begin(), in.end());
    // Gather children's partial results (left child first: fixed order).
    for (int child_v : {2 * vrank + 1, 2 * vrank + 2}) {
      if (child_v < size_) {
        std::vector<T> child(in.size());
        recv_internal((child_v + root) % size_, tag, std::span<T>(child));
        // Combine as library code: not application computation.
        [[maybe_unused]] typename TransportTraits<T>::LibraryGuard guard{};
        for (std::size_t i = 0; i < acc.size(); ++i) {
          acc[i] = op(acc[i], child[i]);
        }
      }
    }
    if (vrank == 0) {
      std::copy(acc.begin(), acc.end(), out.begin());
    } else {
      const int parent = ((vrank - 1) / 2 + root) % size_;
      send_internal(parent, tag, std::span<const T>(acc));
    }
  }

  /// Reduce-to-all: tree reduce onto rank 0 followed by a broadcast, so
  /// every rank observes the same bit pattern (and corruption) in the
  /// result.
  template <Transportable T, typename Op = Sum>
  void allreduce(std::span<const T> in, std::span<T> out, Op op = {}) {
    if (in.size() != out.size()) {
      throw UsageError("allreduce: in/out size mismatch");
    }
    reduce(in, out, /*root=*/0, op);
    bcast(out, /*root=*/0);
  }

  template <Transportable T, typename Op = Sum>
  T allreduce_value(const T& value, Op op = {}) {
    T out{};
    allreduce(std::span<const T>(&value, 1), std::span<T>(&out, 1), op);
    return out;
  }

  /// Gather equal-size blocks onto `root`; out must hold size()*in.size()
  /// elements on the root and may be empty elsewhere.
  template <Transportable T>
  void gather(std::span<const T> in, std::span<T> out, int root) {
    check_peer(root, "gather");
    const int tag = next_collective_tag(2);
    if (rank_ == root) {
      if (out.size() != in.size() * static_cast<std::size_t>(size_)) {
        throw UsageError("gather: out must be size()*block elements on root");
      }
      for (int r = 0; r < size_; ++r) {
        auto slot = out.subspan(static_cast<std::size_t>(r) * in.size(),
                                in.size());
        if (r == rank_) {
          std::copy(in.begin(), in.end(), slot.begin());
        } else {
          recv_internal(r, tag, slot);
        }
      }
    } else {
      send_internal(root, tag, in);
    }
  }

  /// Gather-to-all: gather on rank 0 + broadcast.
  template <Transportable T>
  void allgather(std::span<const T> in, std::span<T> out) {
    if (out.size() != in.size() * static_cast<std::size_t>(size_)) {
      throw UsageError("allgather: out must be size()*block elements");
    }
    gather(in, out, /*root=*/0);
    bcast(out, /*root=*/0);
  }

  /// Variable-count gather (MPI_Gatherv): rank r contributes counts[r]
  /// elements; `counts` must be identical on every rank (exchange sizes
  /// with an allgather first if they are not known). `out` must hold
  /// sum(counts) elements on the root.
  template <Transportable T>
  void gatherv(std::span<const T> in, std::span<T> out,
               std::span<const std::size_t> counts, int root) {
    check_peer(root, "gatherv");
    check_counts(counts, in.size(), "gatherv");
    const int tag = next_collective_tag(2);
    if (rank_ == root) {
      std::size_t offset = 0;
      for (int r = 0; r < size_; ++r) {
        auto slot = out.subspan(offset, counts[static_cast<std::size_t>(r)]);
        if (r == rank_) {
          std::copy(in.begin(), in.end(), slot.begin());
        } else {
          recv_internal(r, tag, slot);
        }
        offset += counts[static_cast<std::size_t>(r)];
      }
      if (offset != out.size()) {
        throw UsageError("gatherv: out must hold sum(counts) elements");
      }
    } else {
      send_internal(root, tag, in);
    }
  }

  /// Variable-count gather-to-all (MPI_Allgatherv).
  template <Transportable T>
  void allgatherv(std::span<const T> in, std::span<T> out,
                  std::span<const std::size_t> counts) {
    gatherv(in, out, counts, /*root=*/0);
    bcast(out, /*root=*/0);
  }

  /// Scatter equal-size blocks from `root`; in must hold size()*out.size()
  /// elements on the root and may be empty elsewhere.
  template <Transportable T>
  void scatter(std::span<const T> in, std::span<T> out, int root) {
    check_peer(root, "scatter");
    const int tag = next_collective_tag(3);
    if (rank_ == root) {
      if (in.size() != out.size() * static_cast<std::size_t>(size_)) {
        throw UsageError("scatter: in must be size()*block elements on root");
      }
      for (int r = 0; r < size_; ++r) {
        auto block = in.subspan(static_cast<std::size_t>(r) * out.size(),
                                out.size());
        if (r == rank_) {
          std::copy(block.begin(), block.end(), out.begin());
        } else {
          send_internal(r, tag, block);
        }
      }
    } else {
      recv_internal(root, tag, out);
    }
  }

  /// Personalized all-to-all exchange of equal-size blocks: block j of `in`
  /// goes to rank j; block i of `out` comes from rank i. This is the
  /// communication pattern of FT's distributed transpose.
  template <Transportable T>
  void alltoall(std::span<const T> in, std::span<T> out) {
    const auto p = static_cast<std::size_t>(size_);
    if (in.size() != out.size() || in.size() % p != 0) {
      throw UsageError("alltoall: buffers must be size()*block elements");
    }
    const std::size_t block = in.size() / p;
    const int tag = next_collective_tag(4);
    for (int r = 0; r < size_; ++r) {
      if (r == rank_) continue;
      send_internal(r, tag,
                    in.subspan(static_cast<std::size_t>(r) * block, block));
    }
    auto self_in = in.subspan(static_cast<std::size_t>(rank_) * block, block);
    auto self_out = out.subspan(static_cast<std::size_t>(rank_) * block, block);
    std::copy(self_in.begin(), self_in.end(), self_out.begin());
    for (int r = 0; r < size_; ++r) {
      if (r == rank_) continue;
      recv_internal(r, tag,
                    out.subspan(static_cast<std::size_t>(r) * block, block));
    }
  }

  /// Variable-count personalized exchange (MPI_Alltoallv). `in` holds my
  /// blocks back to back in rank order with sizes `send_counts`; `out`
  /// receives blocks in rank order with sizes `recv_counts`.
  template <Transportable T>
  void alltoallv(std::span<const T> in,
                 std::span<const std::size_t> send_counts, std::span<T> out,
                 std::span<const std::size_t> recv_counts) {
    check_counts(send_counts, SIZE_MAX, "alltoallv");
    check_counts(recv_counts, SIZE_MAX, "alltoallv");
    const int tag = next_collective_tag(4);
    std::size_t send_offset = 0;
    std::span<const T> self_block;
    for (int r = 0; r < size_; ++r) {
      const auto count = send_counts[static_cast<std::size_t>(r)];
      auto block = in.subspan(send_offset, count);
      if (r == rank_) {
        self_block = block;
      } else if (count > 0) {
        send_internal(r, tag, block);
      }
      send_offset += count;
    }
    std::size_t recv_offset = 0;
    for (int r = 0; r < size_; ++r) {
      const auto count = recv_counts[static_cast<std::size_t>(r)];
      auto slot = out.subspan(recv_offset, count);
      if (r == rank_) {
        if (self_block.size() != count) {
          throw UsageError("alltoallv: self block size mismatch");
        }
        std::copy(self_block.begin(), self_block.end(), slot.begin());
      } else if (count > 0) {
        recv_internal(r, tag, slot);
      }
      recv_offset += count;
    }
  }

  /// Reduce size()*block elements element-wise, then scatter one block to
  /// each rank (MPI_Reduce_scatter_block). `in` holds size()*out.size()
  /// elements; rank r receives block r of the reduction.
  template <Transportable T, typename Op = Sum>
  void reduce_scatter(std::span<const T> in, std::span<T> out, Op op = {}) {
    if (in.size() != out.size() * static_cast<std::size_t>(size_)) {
      throw UsageError("reduce_scatter: in must be size()*block elements");
    }
    std::vector<T> reduced(rank_ == 0 ? in.size() : 0);
    reduce(in, std::span<T>(reduced), /*root=*/0, op);
    scatter(std::span<const T>(reduced), out, /*root=*/0);
  }

  /// Inclusive prefix reduction: rank r receives op(in_0, ..., in_r).
  /// Linear chain — deterministic and sufficient for our job sizes.
  template <Transportable T, typename Op = Sum>
  void scan(std::span<const T> in, std::span<T> out, Op op = {}) {
    if (in.size() != out.size()) throw UsageError("scan: size mismatch");
    const int tag = next_collective_tag(5);
    std::vector<T> acc(in.begin(), in.end());
    if (rank_ > 0) {
      std::vector<T> prev(in.size());
      recv_internal(rank_ - 1, tag, std::span<T>(prev));
      // Combine as library code: not application computation.
      [[maybe_unused]] typename TransportTraits<T>::LibraryGuard guard{};
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = op(prev[i], acc[i]);
    }
    if (rank_ + 1 < size_) send_internal(rank_ + 1, tag, std::span<const T>(acc));
    std::copy(acc.begin(), acc.end(), out.begin());
  }

  // ---- communicator management ----------------------------------------------

  /// Partition this communicator by `color` (MPI_Comm_split): ranks with
  /// equal color form a new communicator ordered by (key, rank). Only the
  /// world communicator can be split (one nesting level), and at most 16
  /// split calls of up to 15 colors each are supported — enough for
  /// row/column sub-grids at every scale this framework runs.
  /// Collective over this communicator.
  Comm split(int color, int key);

 private:
  friend class Runtime;

  /// Sub-communicator constructor (used by split).
  Comm(detail::JobState* job, int rank, int size, int salt,
       std::vector<int> group)
      : job_(job),
        rank_(rank),
        size_(size),
        salt_(salt),
        group_(std::move(group)) {}

  /// Internal send/recv used by collectives: identical to the public pair
  /// but permitted to use the reserved collective tag space.
  template <Transportable T>
  void send_internal(int dest, int wire_tag, std::span<const T> values) {
    check_peer(dest, "send");
    post(dest, wire_tag, values);
  }

  template <Transportable T>
  void recv_internal(int source, int wire_tag, std::span<T> out) {
    check_peer(source, "recv");
    Envelope env = my_mailbox().pop_matching(translate(source), wire_tag);
    if (env.bytes.size() != out.size_bytes()) {
      throw UsageError("collective: message size mismatch");
    }
    if (!out.empty()) {
      std::memcpy(out.data(), env.bytes.data(), out.size_bytes());
    }
    my_mailbox().recycle(std::move(env));
    TransportTraits<T>::on_receive(std::span<T>(out.data(), out.size()));
  }

  // ---- fused collectives ----------------------------------------------------
  //
  // The fused implementations below mirror the mailbox tree walks exactly
  // — same virtual-rank numbering, same child order, same combine order
  // under the same LibraryGuard, same on_receive payloads attributed to
  // the same logical rank — but execute the whole tree as one combine on
  // the last arriving fiber instead of 2(N-1) parked message hops.
  // Transport stats record the *logical* tree messages (each rank records
  // its own sends before arriving) so either path reports identical
  // counts. See collective.hpp for the arrival/epoch protocol and the
  // pointer-safety argument.

  /// True when collectives should fuse: a multi-rank communicator (whose
  /// job therefore runs on the fiber scheduler) with the toggle on.
  [[nodiscard]] bool fused_active() const noexcept {
    return size_ > 1 && detail::fused_collectives_enabled();
  }

  /// This communicator's fused meeting point (created on first use).
  [[nodiscard]] detail::FusedGroup& fused_group() {
    if (fg_ == nullptr) {
      fg_ = &job_->fused.group(static_cast<std::uint32_t>(salt_));
    }
    return *fg_;
  }

  /// Count one logical tree message that the fused path did not
  /// physically enqueue, keeping messages_sent/bytes_sent path-independent.
  void record_logical_send(std::size_t bytes) noexcept {
    ++job_->messages_sent;
    job_->bytes_sent += bytes;
  }

  /// The epoch of the collective op about to run. Consumes the same SPMD
  /// sequence number that the mailbox path folds into its wire tags, so
  /// mixed fused/mailbox collective sequences stay aligned and every op
  /// gets a unique, monotonically increasing epoch per communicator.
  std::uint64_t next_collective_epoch(int slot) noexcept {
    const auto epoch = static_cast<std::uint64_t>(collective_seq_) + 1;
    next_collective_tag(slot);
    return epoch;
  }

  /// Park until the fused group's combiner publishes `epoch`. A job
  /// abort or the scheduler's no-runnable sweep wakes the fiber early;
  /// abort and deadlock are observed here after resuming.
  void await_fused(detail::FusedGroup& group, std::uint64_t epoch) {
    detail::Fiber* const self = FiberScheduler::current_fiber();
    group.waiters().add(self);
    while (group.done_epoch() < epoch) {
      job_->scheduler->park();
      if (group.done_epoch() >= epoch) break;
      if (job_->abort.triggered()) {
        group.waiters().remove(self);
        throw AbortError();
      }
      if (job_->scheduler->deadlocked()) {
        group.waiters().remove(self);
        throw DeadlockError(
            "collective blocked with no runnable fiber: deadlock");
      }
    }
    group.waiters().remove(self);
  }

  template <Transportable T>
  void bcast_fused(std::span<T> buf, int root) {
    if (job_->abort.triggered()) throw AbortError();
    const std::uint64_t epoch = next_collective_epoch(0);
    detail::FusedGroup& group = fused_group();
    const int vrank = (rank_ - root + size_) % size_;
    // Record this rank's own logical tree sends (edges to its children),
    // exactly as the mailbox walk would have.
    for (int child_v : {2 * vrank + 1, 2 * vrank + 2}) {
      if (child_v < size_) record_logical_send(buf.size_bytes());
    }
    detail::Arrival arrival;
    arrival.data = reinterpret_cast<std::byte*>(buf.data());
    arrival.out = arrival.data;
    arrival.len = buf.size_bytes();
    arrival.fiber = FiberScheduler::current_fiber();
    switch (group.arrive(vrank, epoch, arrival, size_)) {
      case detail::FusedGroup::ArriveOutcome::EpochMismatch:
        throw UsageError("collective: SPMD sequence mismatch");
      case detail::FusedGroup::ArriveOutcome::Combiner:
        combine_bcast_subtree<T>(group, 0);
        group.complete(epoch, *job_->scheduler);
        return;
      case detail::FusedGroup::ArriveOutcome::Waiter:
        await_fused(group, epoch);
        return;  // combiner already wrote buf and replayed on_receive
    }
  }

  /// Combiner side of a fused bcast: pre-order walk from virtual rank
  /// `v`, copying each parent's buffer to its children and replaying the
  /// child's receive instrumentation under the child's own fiber TLS.
  /// The copy source is the *parent's* buffer, not the root's: the
  /// mailbox walk forwards whatever bytes a rank holds after its own
  /// receive, so a payload flip landing mid-tree contaminates that rank's
  /// whole subtree. Copying from the root would silently localize the
  /// corruption and make trial outcomes scheduler-dependent.
  template <Transportable T>
  void combine_bcast_subtree(detail::FusedGroup& group, int v) {
    const detail::Arrival& parent = group.slot(v);
    for (int child_v : {2 * v + 1, 2 * v + 2}) {
      if (child_v >= size_) continue;
      detail::Arrival& child = group.slot(child_v);
      if (child.len != parent.len) {
        throw UsageError("collective: message size mismatch");
      }
      if (child.len != 0 && child.out != parent.out) {
        std::memcpy(child.out, parent.out, child.len);
      }
      {
        BorrowFiberTls borrow(child.fiber);
        TransportTraits<T>::on_receive(std::span<T>(
            reinterpret_cast<T*>(child.out), child.len / sizeof(T)));
      }
      combine_bcast_subtree<T>(group, child_v);
    }
  }

  template <Transportable T, typename Op>
  void reduce_fused(std::span<const T> in, std::span<T> out, int root,
                    Op op) {
    if (job_->abort.triggered()) throw AbortError();
    const std::uint64_t epoch = next_collective_epoch(1);
    detail::FusedGroup& group = fused_group();
    const int vrank = (rank_ - root + size_) % size_;
    // The accumulator lives on this fiber's stack; it stays valid for the
    // combiner because this fiber stays parked until the combine is done
    // (see collective.hpp).
    std::vector<T> acc(in.begin(), in.end());
    if (vrank != 0) record_logical_send(acc.size() * sizeof(T));
    detail::Arrival arrival;
    arrival.data = reinterpret_cast<std::byte*>(acc.data());
    arrival.out =
        vrank == 0 ? reinterpret_cast<std::byte*>(out.data()) : nullptr;
    arrival.len = acc.size() * sizeof(T);
    arrival.fiber = FiberScheduler::current_fiber();
    switch (group.arrive(vrank, epoch, arrival, size_)) {
      case detail::FusedGroup::ArriveOutcome::EpochMismatch:
        throw UsageError("collective: SPMD sequence mismatch");
      case detail::FusedGroup::ArriveOutcome::Combiner: {
        combine_reduce_subtree<T>(group, 0, op);
        // Root-local finish: copy virtual rank 0's accumulator into its
        // out span (plain copy, no receive instrumentation — identical to
        // the mailbox walk's local std::copy on the root).
        detail::Arrival& root_a = group.slot(0);
        if (root_a.len != 0) {
          std::memcpy(root_a.out, root_a.data, root_a.len);
        }
        group.complete(epoch, *job_->scheduler);
        return;
      }
      case detail::FusedGroup::ArriveOutcome::Waiter:
        await_fused(group, epoch);
        return;
    }
  }

  /// Combiner side of a fused reduce: post-order walk (left child first,
  /// the mailbox path's fixed order) folding each child's accumulator
  /// into its parent's, replaying the parent's receive instrumentation
  /// and LibraryGuard under the parent's fiber TLS.
  template <Transportable T, typename Op>
  void combine_reduce_subtree(detail::FusedGroup& group, int v, Op op) {
    detail::Arrival& parent = group.slot(v);
    auto* parent_vals = reinterpret_cast<T*>(parent.data);
    const std::size_t count = parent.len / sizeof(T);
    for (int child_v : {2 * v + 1, 2 * v + 2}) {
      if (child_v >= size_) continue;
      combine_reduce_subtree<T>(group, child_v, op);
      detail::Arrival& child = group.slot(child_v);
      if (child.len != parent.len) {
        throw UsageError("collective: message size mismatch");
      }
      // child.data is the child fiber's stack-local accumulator (a copy
      // of its contribution), so a payload flip here corrupts only what
      // this parent combines — the same bytes the mailbox path would have
      // flipped in its own receive temp — never the child's live state.
      auto* child_vals = reinterpret_cast<T*>(child.data);
      BorrowFiberTls borrow(parent.fiber);
      TransportTraits<T>::on_receive(std::span<T>(child_vals, count));
      // Combine as library code: not application computation.
      [[maybe_unused]] typename TransportTraits<T>::LibraryGuard guard{};
      for (std::size_t i = 0; i < count; ++i) {
        parent_vals[i] = op(parent_vals[i], child_vals[i]);
      }
    }
  }

  /// Local rank -> world rank.
  [[nodiscard]] int translate(int local) const noexcept {
    return group_.empty() ? local : group_[static_cast<std::size_t>(local)];
  }

  /// World rank -> local rank (receives report communicator-local ranks).
  [[nodiscard]] int local_rank_of(int world) const noexcept {
    if (group_.empty()) return world;
    const auto it = std::find(group_.begin(), group_.end(), world);
    return it == group_.end() ? -1
                              : static_cast<int>(it - group_.begin());
  }

  [[nodiscard]] Mailbox& my_mailbox() const {
    return *job_->mailboxes[static_cast<std::size_t>(translate(rank_))];
  }

  /// Map a possibly-wildcard local source to the wire (world) source.
  int wire_source(int source, const char* what) const {
    if (source == kAnySource) {
      if (!group_.empty()) {
        // Wildcard receives on a sub-communicator could match traffic from
        // members only by source filtering, which the mailbox does not
        // implement per-group; keep the feature world-only.
        throw UsageError(std::string(what) +
                         ": kAnySource unsupported on sub-communicators");
      }
      return kAnySource;
    }
    check_peer(source, what);
    return translate(source);
  }

  /// Salt a user receive tag (wildcard passes through; the salt keeps
  /// cross-communicator traffic from matching anyway via the source).
  [[nodiscard]] int wire_recv_tag(int tag) const {
    if (tag == kAnyTag) return kAnyTag;
    check_tag(tag);
    return detail::wire_user_tag(salt_, tag);
  }

  void check_peer(int peer, const char* what) const {
    if (peer < 0 || peer >= size_) {
      throw UsageError(std::string(what) + ": rank " + std::to_string(peer) +
                       " out of range [0, " + std::to_string(size_) + ")");
    }
  }

  static void check_tag(int tag) {
    if (tag < 0 || tag > kMaxUserTag) {
      throw UsageError("tag " + std::to_string(tag) + " out of user range");
    }
  }

  void check_counts(std::span<const std::size_t> counts, std::size_t mine,
                    const char* what) const {
    if (counts.size() != static_cast<std::size_t>(size_)) {
      throw UsageError(std::string(what) + ": counts must have size() entries");
    }
    if (mine != SIZE_MAX &&
        counts[static_cast<std::size_t>(rank_)] != mine) {
      throw UsageError(std::string(what) +
                       ": my count does not match my buffer size");
    }
  }

  /// Per-rank collective sequence counter. Because every rank executes the
  /// same sequence of collectives (SPMD), identical counters on each rank
  /// yield matching tags without any global coordination.
  int next_collective_tag(int slot) noexcept {
    return detail::wire_internal_tag(salt_, collective_seq_++, slot);
  }

  template <Transportable T>
  void post(int dest, int wire_tag, std::span<const T> values) {
    Mailbox& dest_box =
        *job_->mailboxes[static_cast<std::size_t>(translate(dest))];
    Envelope env;
    env.source = translate(rank_);
    env.tag = wire_tag;
    // Recycle payload capacity from envelopes the destination already
    // consumed; steady-state traffic allocates nothing.
    env.bytes = dest_box.acquire_buffer(values.size_bytes());
    if (!values.empty()) {
      std::memcpy(env.bytes.data(), values.data(), values.size_bytes());
    }
    if (job_->abort.triggered()) throw AbortError();
    ++job_->messages_sent;
    job_->bytes_sent += values.size_bytes();
    dest_box.push(std::move(env));
  }

  detail::JobState* job_;
  int rank_;
  int size_;
  int salt_ = 0;
  std::vector<int> group_;  ///< local -> world rank map; empty on the world
  detail::FusedGroup* fg_ = nullptr;  ///< cached fused-hub lookup
  int collective_seq_ = 0;
  int split_seq_ = 0;
};

}  // namespace resilience::simmpi

// Job launcher for the simulated MPI runtime.
//
// Runtime::run executes `body` once per rank and reports how the job
// ended: clean completion, abort (a rank threw), or deadlock. The
// campaign harness maps abnormal endings onto the paper's "Failure"
// fault-injection outcome.
//
// A job runs entirely on the calling thread. A serial job runs its one
// rank inline; a multi-rank job runs each rank as a cooperative fiber
// (scheduler.hpp), one at a time, so a 1024-rank job costs one OS thread
// and deadlock is detected deterministically the moment no fiber is
// runnable. Parallelism comes from running jobs side by side — the
// campaign executor's threads and the shard worker processes — never
// from spreading one job over threads.
#pragma once

#include <functional>
#include <string>

#include "simmpi/comm.hpp"

namespace resilience::simmpi {

namespace detail {

/// OS threads a job of `nranks` runs on: always 1. Kept because the
/// end-to-end benchmark's host stamp reads it.
[[nodiscard]] inline int resolved_scheduler_workers(int) noexcept { return 1; }

}  // namespace detail

struct RunOptions {
  /// Optional hook run in each rank's execution context before the body
  /// (the fault injector uses it to install per-rank thread-local state,
  /// which the scheduler keeps per fiber).
  std::function<void(int rank)> on_rank_start{};
  /// Optional hook run in each rank's execution context after the body,
  /// even when the body throws.
  std::function<void(int rank)> on_rank_exit{};
};

struct RunResult {
  bool ok = false;          ///< all ranks returned normally
  bool aborted = false;     ///< a rank threw; job torn down
  bool deadlocked = false;  ///< every unfinished rank was blocked
  int failed_rank = -1;     ///< rank whose exception triggered the abort
  std::string error;        ///< what() of the first exception
  /// Transport statistics over the whole job: point-to-point messages and
  /// the messages collectives decompose into. Fused collectives still
  /// report their logical decomposition, so these counts do not depend
  /// on whether collectives were fused.
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  /// Envelope-pool statistics: payload buffers freshly heap-allocated vs
  /// recycled from the per-mailbox freelists. Also published to the
  /// telemetry registry as simmpi.buffer_allocs / simmpi.buffer_reuses.
  std::uint64_t pool_allocs = 0;
  std::uint64_t pool_reuses = 0;

  [[nodiscard]] bool failed() const noexcept { return !ok; }
};

class Runtime {
 public:
  /// Run `body` on `nranks` ranks, on the calling thread, until every
  /// rank finished. Exceptions thrown by a rank trigger an
  /// MPI_Abort-style teardown: the first exception is recorded and every
  /// blocked rank is woken with AbortError. Never throws for in-job
  /// errors; throws UsageError for nranks < 1.
  static RunResult run(int nranks, const std::function<void(Comm&)>& body,
                       const RunOptions& options = {});
};

}  // namespace resilience::simmpi

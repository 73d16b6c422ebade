#include "simmpi/runtime.hpp"

#include <exception>

#include "simmpi/scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace resilience::simmpi {

RunResult Runtime::run(int nranks, const std::function<void(Comm&)>& body,
                       const RunOptions& options) {
  if (nranks < 1) throw UsageError("Runtime::run: nranks must be >= 1");

  detail::JobState job(nranks);

  RunResult result;
  result.ok = true;

  auto record_failure = [&](int rank, const char* what, bool deadlock) {
    // Keep the first root cause; ranks that die with AbortError are
    // collateral damage of an already-recorded failure.
    if (result.ok) {
      result.ok = false;
      result.aborted = true;
      result.deadlocked = deadlock;
      result.failed_rank = rank;
      result.error = what;
    }
  };

  // Rank fibers run on this thread, so their counts land in its metric
  // scope stack — the campaign that launched the job (telemetry.hpp).
  auto rank_main = [&](int rank) {
    Comm comm(&job, rank, nranks);
    if (options.on_rank_start) options.on_rank_start(rank);
    try {
      body(comm);
    } catch (const AbortError&) {
      // Torn down because another rank failed first; nothing to record.
    } catch (const DeadlockError& e) {
      record_failure(rank, e.what(), /*deadlock=*/true);
      job.trigger_abort();
    } catch (const std::exception& e) {
      record_failure(rank, e.what(), /*deadlock=*/false);
      job.trigger_abort();
    } catch (...) {
      record_failure(rank, "unknown exception", /*deadlock=*/false);
      job.trigger_abort();
    }
    if (options.on_rank_exit) options.on_rank_exit(rank);
  };

  if (nranks == 1) {
    // Serial execution runs inline with no scheduler: the fault
    // injector's thread-local context installed by the caller stays valid
    // and serial campaigns are cheap.
    rank_main(0);
  } else {
    FiberScheduler sched(nranks);
    job.attach_scheduler(&sched);
    sched.start(rank_main);
    sched.run();
    job.attach_scheduler(nullptr);  // sched dies at scope exit
  }
  result.messages_sent = job.messages_sent;
  result.bytes_sent = job.bytes_sent;
  const BufferPool::Stats pool = job.pool_stats();
  result.pool_allocs = pool.allocs;
  result.pool_reuses = pool.reuses;
  telemetry::count(telemetry::Counter::SimmpiJobs);
  if (pool.allocs != 0) {
    telemetry::count(telemetry::Counter::SimmpiBufferAllocs, pool.allocs);
  }
  if (pool.reuses != 0) {
    telemetry::count(telemetry::Counter::SimmpiBufferReuses, pool.reuses);
  }
  return result;
}

}  // namespace resilience::simmpi

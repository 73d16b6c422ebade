#include "shard/coordinator.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "apps/app.hpp"
#include "harness/campaign_engine.hpp"
#include "harness/golden_store.hpp"
#include "shard/protocol.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"

namespace resilience::shard {

namespace {

using Clock = std::chrono::steady_clock;

/// One dispatchable slice of a campaign: contiguous refs, executed as a
/// unit on one worker. `results`/`wall` are filled when the unit's result
/// frame arrives; a unit lost to a worker crash is simply re-dispatched.
struct Unit {
  std::vector<harness::TrialRef> refs;
  std::optional<std::vector<harness::TrialResult>> results;
  double wall = 0.0;
};

/// Split `refs` into at most `max_units` contiguous units (ceil-div
/// chunking, mirroring the in-process executor's chunk shape). Unit order
/// preserves ref order, so concatenating unit results in unit-id order
/// reproduces the ref order the driver and merge loop expect.
std::vector<Unit> split_units(const std::vector<harness::TrialRef>& refs,
                              std::size_t max_units) {
  std::vector<Unit> units;
  const std::size_t n = refs.size();
  if (n == 0) return units;
  const std::size_t nunits = std::min(n, std::max<std::size_t>(max_units, 1));
  const std::size_t chunk = (n + nunits - 1) / nunits;
  for (std::size_t lo = 0; lo < n; lo += chunk) {
    const std::size_t hi = std::min(lo + chunk, n);
    Unit unit;
    unit.refs.assign(refs.begin() + static_cast<std::ptrdiff_t>(lo),
                     refs.begin() + static_cast<std::ptrdiff_t>(hi));
    units.push_back(std::move(unit));
  }
  return units;
}

/// Owns the worker fleet for one campaign: spawning over socketpairs,
/// dispatching units, folding worker metric snapshots into the campaign
/// scope, and replacing workers that die or wedge.
class Coordinator {
 public:
  Coordinator(const apps::App& app, const harness::DeploymentConfig& config,
              const ShardOptions& opts, int shards, std::string store_dir,
              telemetry::MetricScope& metrics)
      : app_(app),
        config_(config),
        opts_(opts),
        store_dir_(std::move(store_dir)),
        metrics_(metrics) {
    worker_path_ = opts.worker_path.empty() ? "/proc/self/exe"
                                            : opts.worker_path;
    workers_.resize(static_cast<std::size_t>(shards));
    for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
      // The crash-recovery hook arms only the first incarnation of worker
      // 0; its replacement (and every other worker) runs to completion.
      spawn_worker(slot, slot == 0 ? opts.debug_kill_unit : -1);
    }
  }

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  ~Coordinator() {
    for (Worker& w : workers_) {
      if (w.fd < 0) continue;
      try {
        write_message(w.fd, ShutdownMsg{});
      } catch (...) {
      }
      ::close(w.fd);
      w.fd = -1;
    }
    for (Worker& w : workers_) {
      if (w.pid > 0) ::waitpid(w.pid, nullptr, 0);
      w.pid = -1;
    }
  }

  /// Drive `units` to completion across the fleet; fills every unit's
  /// results and wall. Throws std::runtime_error when the whole fleet is
  /// lost with work outstanding.
  void run_units(std::vector<Unit>& units) {
    units_ = &units;
    pending_.clear();
    for (std::size_t id = 0; id < units.size(); ++id) pending_.push_back(id);
    remaining_ = units.size();

    for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
      if (workers_[slot].fd >= 0 && workers_[slot].ready &&
          workers_[slot].unit < 0) {
        dispatch(slot);
      }
    }

    // After the last result, keep serving until every live worker has
    // reported Ready: a worker whose init finished after its siblings
    // drained the queue still owes the campaign its init metrics (the
    // golden-store hit or profile of its pre-pass).
    while (remaining_ > 0 || awaiting_ready()) {
      std::vector<pollfd> fds;
      std::vector<std::size_t> slots;
      int timeout_ms = -1;
      const auto now = Clock::now();
      for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
        const Worker& w = workers_[slot];
        if (w.fd < 0) continue;
        fds.push_back({w.fd, POLLIN, 0});
        slots.push_back(slot);
        if (w.unit >= 0 || !w.ready) {
          const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
              w.deadline - now);
          const int ms = static_cast<int>(std::max<std::int64_t>(
              0, std::min<std::int64_t>(left.count(), 60'000)));
          timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
        }
      }
      if (fds.empty()) {
        throw std::runtime_error(
            "shard: all workers lost with " + std::to_string(remaining_) +
            " unit(s) outstanding" +
            (last_error_.empty() ? "" : " (last worker error: " + last_error_ +
                                            ")"));
      }

      const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("shard: poll failed: ") +
                                 std::strerror(errno));
      }

      // Drain readable sockets before enforcing deadlines: a frame that
      // already sits in the buffer proves the worker is alive, and
      // processing it may clear the deadline condition.
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        handle_readable(slots[i]);
      }
      const auto after = Clock::now();
      for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
        Worker& w = workers_[slot];
        if (w.fd < 0 || (w.unit < 0 && w.ready)) continue;
        if (w.deadline <= after) {
          ::kill(w.pid, SIGKILL);
          handle_worker_down(slot);
        }
      }
    }
    units_ = nullptr;
  }

 private:
  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    bool handshaken = false;  ///< protocol handshake echoed and validated
    /// This incarnation already sent an ErrorMsg naming its failure; the
    /// transport noise that follows (ECONNRESET from its exit) must not
    /// overwrite that cause in last_error_.
    bool errored = false;
    bool ready = false;
    int unit = -1;  ///< in-flight unit id, -1 when idle
    Clock::time_point deadline{};
  };

  void spawn_worker(std::size_t slot, int kill_after_units) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::runtime_error(std::string("shard: socketpair failed: ") +
                               std::strerror(errno));
    }
    // The coordinator end must not leak into workers forked later — a
    // worker holding a sibling's coordinator fd would mask that sibling's
    // EOF. The worker end stays inheritable across exec by design.
    ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
    const std::string fd_arg = "--shard-worker=" + std::to_string(sv[1]);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      throw std::runtime_error(std::string("shard: fork failed: ") +
                               std::strerror(errno));
    }
    if (pid == 0) {
      // Child: only async-signal-safe calls until exec (the parent may be
      // multi-threaded — a campaign executor may be running beside us).
      ::execl(worker_path_.c_str(), worker_path_.c_str(), fd_arg.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(sv[1]);
    Worker& w = workers_[slot];
    w.pid = pid;
    w.fd = sv[0];
    w.handshaken = false;
    w.errored = false;
    w.ready = false;
    w.unit = -1;
    w.deadline = Clock::now() + opts_.unit_timeout;

    InitMsg init;
    init.app = app_.name();
    init.size_class = app_.size_class();
    init.config = config_;
    init.store = store_dir_;
    init.kill_after_units = kill_after_units;
    try {
      // Handshake first, init pipelined behind it: the worker validates
      // the handshake before it parses anything else.
      write_handshake(w.fd);
      write_message(w.fd, init);
    } catch (const std::exception&) {
      // A worker that died before reading init surfaces as EOF in the
      // event loop; the recovery path there replaces it.
    }
  }

  [[nodiscard]] bool awaiting_ready() const {
    return std::any_of(workers_.begin(), workers_.end(), [](const Worker& w) {
      return w.fd >= 0 && !w.ready;
    });
  }

  void dispatch(std::size_t slot) {
    if (pending_.empty()) return;
    Worker& w = workers_[slot];
    const std::size_t id = pending_.front();
    pending_.pop_front();
    try {
      write_message(w.fd, UnitMsg{static_cast<std::uint64_t>(id),
                                  (*units_)[id].refs});
    } catch (const std::exception&) {
      pending_.push_front(id);
      handle_worker_down(slot);
      return;
    }
    w.unit = static_cast<int>(id);
    w.deadline = Clock::now() + opts_.unit_timeout;
    telemetry::ScopeGuard guard(&metrics_);
    telemetry::count(telemetry::Counter::ShardUnitsDispatched);
  }

  void handle_readable(std::size_t slot) {
    Worker& w = workers_[slot];
    if (w.fd < 0) return;
    std::optional<std::vector<std::byte>> payload;
    try {
      payload = read_frame_bytes(w.fd);
    } catch (const std::exception& e) {
      if (!w.errored) last_error_ = e.what();
      handle_worker_down(slot);
      return;
    }
    if (!payload) {
      handle_worker_down(slot);
      return;
    }
    if (!w.handshaken) {
      handle_handshake(slot, *payload);
      return;
    }
    Message msg;
    try {
      msg = decode_message(*payload);
    } catch (const std::exception& e) {
      last_error_ = e.what();
      handle_worker_down(slot);
      return;
    }
    if (const auto* ready = std::get_if<ReadyMsg>(&msg)) {
      w.ready = true;
      metrics_.absorb(ready->metrics);
      dispatch(slot);
      return;
    }
    if (auto* result = std::get_if<ResultMsg>(&msg)) {
      const auto id = static_cast<std::size_t>(result->id);
      Unit& unit = (*units_)[id];
      unit.results = std::move(result->outcomes);
      unit.wall = result->wall_seconds;
      metrics_.absorb(result->metrics);
      w.unit = -1;
      remaining_ -= 1;
      dispatch(slot);
      return;
    }
    if (const auto* error = std::get_if<ErrorMsg>(&msg)) {
      last_error_ = error->message;
      w.errored = true;
      // The worker exits right after; its EOF drives the recovery path.
      return;
    }
    last_error_ = "shard: unexpected frame from worker";
    handle_worker_down(slot);
  }

  /// First frame from a fresh worker: its handshake echo — or, when the
  /// worker bailed out (protocol-version mismatch, bad environment), its
  /// error frame, whose message is worth keeping over a generic parse failure.
  void handle_handshake(std::size_t slot, std::span<const std::byte> payload) {
    Worker& w = workers_[slot];
    if (const auto hs = parse_handshake(payload)) {
      if (hs->version != kShardProtocolVersion) {
        last_error_ = "shard: worker speaks protocol version " +
                      std::to_string(hs->version) + ", coordinator speaks " +
                      std::to_string(kShardProtocolVersion);
        handle_worker_down(slot);
        return;
      }
      w.handshaken = true;
      return;
    }
    try {
      const Message msg = decode_message(payload);
      if (const auto* error = std::get_if<ErrorMsg>(&msg)) {
        last_error_ = error->message;
        w.errored = true;
        return;  // the worker's EOF drives the recovery path
      }
    } catch (const std::exception&) {
    }
    last_error_ = "shard: worker did not send a protocol handshake";
    handle_worker_down(slot);
  }

  /// Reap a dead (or presumed-wedged, already SIGKILLed) worker,
  /// re-enqueue its in-flight unit, and spawn a replacement while the
  /// restart budget lasts. The re-run unit produces identical outcomes —
  /// a crash costs wall time, never correctness.
  void handle_worker_down(std::size_t slot) {
    Worker& w = workers_[slot];
    if (w.fd < 0) return;
    ::kill(w.pid, SIGKILL);
    ::waitpid(w.pid, nullptr, 0);
    ::close(w.fd);
    w.fd = -1;
    w.pid = -1;
    w.ready = false;
    if (w.unit >= 0) {
      pending_.push_front(static_cast<std::size_t>(w.unit));
      w.unit = -1;
    }
    if (remaining_ == 0) return;
    if (restarts_used_ >= opts_.max_worker_restarts) return;
    restarts_used_ += 1;
    {
      telemetry::ScopeGuard guard(&metrics_);
      telemetry::count(telemetry::Counter::ShardWorkerRestarts);
    }
    spawn_worker(slot, /*kill_after_units=*/-1);
  }

  const apps::App& app_;
  const harness::DeploymentConfig& config_;
  const ShardOptions& opts_;
  std::string store_dir_;
  std::string worker_path_;
  telemetry::MetricScope& metrics_;
  std::vector<Worker> workers_;
  std::vector<Unit>* units_ = nullptr;
  std::deque<std::size_t> pending_;
  std::size_t remaining_ = 0;
  int restarts_used_ = 0;
  std::string last_error_;
};

}  // namespace

harness::CampaignResult run_sharded_campaign(
    const apps::App& app, const harness::DeploymentConfig& cfg,
    const ShardOptions& opts, telemetry::MetricScope* metrics_parent) {
  if (cfg.errors_per_test < 1) {
    throw std::invalid_argument("errors_per_test must be >= 1");
  }
  // Dispatching a unit to a worker that just died must surface as EPIPE
  // (an exception the recovery path handles), not a process signal.
  ::signal(SIGPIPE, SIG_IGN);
  const int shards = std::max(1, opts.shards);

  telemetry::MetricScope metrics(metrics_parent);
  telemetry::TraceSpan span("shard", "campaign", "trials", cfg.trials);

  std::string store_dir = opts.golden_store_dir;
  const bool temp_store = store_dir.empty();
  if (temp_store) {
    store_dir = (std::filesystem::temp_directory_path() /
                 ("resilience-shard-" + std::to_string(::getpid())))
                    .string();
  }

  std::shared_ptr<const harness::GoldenRun> golden;
  {
    // Golden pre-pass: fill the store before spawning workers so the
    // campaign profiles exactly once (one HarnessGoldenProfiles here) and
    // every worker's acquisition is a disk hit.
    telemetry::ScopeGuard guard(&metrics);
    telemetry::count(telemetry::Counter::HarnessCampaigns);
    harness::GoldenStore store(store_dir);
    golden = store.load_or_fill(app, cfg.nranks, [&] {
      telemetry::count(telemetry::Counter::HarnessGoldenProfiles);
      return harness::profile_app(app, cfg.nranks);
    });
  }

  // The fleet spawns on the first batch, once the campaign loop has
  // validated the deployment. Fixed runs split into several units per
  // worker, like the in-process chunk shape: large enough to amortise
  // framing, small enough to balance the tail. Adaptive batches fan out
  // as at most one unit per worker, with a barrier at the batch boundary
  // (the stop rule needs the whole batch folded).
  std::optional<Coordinator> coord;
  const std::size_t max_units =
      static_cast<std::size_t>(shards) * (cfg.adaptive.enabled ? 1 : 4);
  auto run_batch = [&](const harness::TrialSpace&,
                       const std::vector<harness::TrialRef>& refs) {
    if (!coord) coord.emplace(app, cfg, opts, shards, store_dir, metrics);
    std::vector<Unit> units = split_units(refs, max_units);
    coord->run_units(units);
    harness::BatchResult batch;
    batch.results.reserve(refs.size());
    for (const Unit& unit : units) {
      batch.busy_seconds += unit.wall;
      batch.results.insert(batch.results.end(), unit.results->begin(),
                           unit.results->end());
    }
    return batch;
  };

  harness::CampaignResult result =
      harness::run_campaign_loop(app, cfg, *golden, metrics, run_batch);
  coord.reset();  // shutdown frames, close, reap

  result.metrics = metrics.snapshot();
  if (temp_store) {
    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);
  }
  return result;
}

}  // namespace resilience::shard

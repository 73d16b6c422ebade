#include "shard/worker.hpp"

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <variant>

#include "apps/app.hpp"
#include "harness/campaign_engine.hpp"
#include "harness/golden_store.hpp"
#include "shard/protocol.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"

namespace resilience::shard {

namespace {

void worker_loop(int fd) {
  // The coordinator detects a dead worker by EOF; a worker writing into a
  // dead coordinator should get EPIPE (an exception), not a process kill.
  ::signal(SIGPIPE, SIG_IGN);

  // Handshake: the coordinator speaks first. Validate its version, then
  // echo our handshake so the coordinator can validate us symmetrically.
  (void)read_handshake(fd);
  write_handshake(fd);

  auto init_msg = read_message(fd);
  if (!init_msg || !std::holds_alternative<InitMsg>(*init_msg)) {
    throw std::runtime_error("shard worker: expected init frame");
  }
  const InitMsg& init = std::get<InitMsg>(*init_msg);
  const harness::DeploymentConfig& config = init.config;

  const std::unique_ptr<apps::App> app =
      apps::make_app(apps::parse_app_id(init.app), init.size_class);

  // Golden acquisition. The coordinator pre-fills the store before
  // spawning workers, so this is a disk load (golden_store.hits), not a
  // re-profile — the campaign's single HarnessGoldenProfiles count stays
  // with the coordinator. The fallback profile keeps a worker functional
  // if the store was cleaned underneath it; its extra counts surface in
  // the ready metrics rather than silently vanishing.
  telemetry::MetricScope init_scope;
  std::shared_ptr<const harness::GoldenRun> golden;
  {
    telemetry::ScopeGuard guard(&init_scope);
    harness::GoldenStore store(init.store);
    golden = store.load_or_fill(*app, config.nranks, [&] {
      telemetry::count(telemetry::Counter::HarnessGoldenProfiles);
      return harness::profile_app(*app, config.nranks);
    });
  }
  const harness::TrialSpace space(*app, config, *golden);

  write_message(fd, ReadyMsg{init_scope.snapshot()});

  int units_done = 0;
  while (true) {
    const auto msg = read_message(fd);
    if (!msg) return;  // coordinator went away: nothing left to do
    if (std::holds_alternative<ShutdownMsg>(*msg)) return;
    const auto* unit = std::get_if<UnitMsg>(&*msg);
    if (unit == nullptr) {
      throw std::runtime_error("shard worker: unexpected frame");
    }

    telemetry::MetricScope unit_scope;
    ResultMsg result;
    result.id = unit->id;
    result.outcomes.reserve(unit->refs.size());
    const auto start = std::chrono::steady_clock::now();
    for (const harness::TrialRef& ref : unit->refs) {
      telemetry::ScopeGuard guard(&unit_scope);
      result.outcomes.push_back(space.run(ref));
    }
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    // Crash-recovery hook (tests and CI): die without reporting, as a
    // crashed worker would — the unit's counts and outcomes are lost with
    // the process and the coordinator re-runs the unit elsewhere.
    if (init.kill_after_units >= 0 && ++units_done > init.kill_after_units) {
      ::raise(SIGKILL);
    }

    result.metrics = unit_scope.snapshot();
    write_message(fd, result);
  }
}

}  // namespace

int maybe_worker_main(int argc, char** argv) {
  constexpr const char* kFlag = "--shard-worker=";
  int fd = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      fd = std::atoi(argv[i] + std::strlen(kFlag));
      break;
    }
  }
  if (fd < 0) return -1;
  try {
    worker_loop(fd);
    return 0;
  } catch (const std::exception& e) {
    // Best-effort error frame so the coordinator can log the cause; the
    // EOF that follows is what triggers its recovery path.
    try {
      write_message(fd, ErrorMsg{e.what()});
    } catch (...) {
    }
    std::fprintf(stderr, "shard worker: %s\n", e.what());
    return 1;
  }
}

}  // namespace resilience::shard

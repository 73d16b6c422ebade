#include "harness/golden_cache.hpp"

#include "harness/executor.hpp"
#include "harness/golden_store.hpp"
#include "telemetry/telemetry.hpp"

namespace resilience::harness {

std::shared_ptr<const GoldenRun> GoldenCache::get_or_profile(
    const apps::App& app, int nranks, Executor* executor) {
  const Key key{app.label(), nranks};
  std::promise<std::shared_ptr<const GoldenRun>> promise;
  Future future;
  bool leader = false;
  {
    std::lock_guard lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      future = it->second;
      ++hits_;
      telemetry::count(telemetry::Counter::HarnessGoldenHits);
      if (future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        // Still in flight: this request blocks on the leader.
        ++waits_;
        telemetry::count(telemetry::Counter::HarnessGoldenWaits);
        telemetry::trace_instant("harness", "golden_cache_wait");
      }
    } else {
      leader = true;
      future = promise.get_future().share();
      entries_.emplace(key, future);
      ++misses_;
      telemetry::count(telemetry::Counter::HarnessGoldenMisses);
    }
  }
  if (leader) {
    try {
      auto run_profile = [&]() -> GoldenRun {
        GoldenRun result;
        auto profile = [&] { result = profile_app(app, nranks); };
        if (executor != nullptr) {
          executor->run({profile});
        } else {
          profile();
        }
        // Counted here (the requesting thread) rather than inside the
        // profile lambda: when the run is admitted through the executor it
        // executes on a worker thread outside any metric scope. Skipped
        // entirely when the on-disk store served the run — nothing was
        // profiled.
        telemetry::count(telemetry::Counter::HarnessGoldenProfiles);
        return result;
      };
      std::shared_ptr<const GoldenRun> golden;
      if (store_ != nullptr) {
        golden = store_->load_or_fill(app, nranks, run_profile);
      } else {
        golden = std::make_shared<const GoldenRun>(run_profile());
      }
      promise.set_value(std::move(golden));
    } catch (...) {
      promise.set_exception(std::current_exception());
      std::lock_guard lock(mu_);
      entries_.erase(key);
    }
  }
  return future.get();
}

std::size_t GoldenCache::hits() const {
  std::lock_guard lock(mu_);
  return hits_;
}

std::size_t GoldenCache::misses() const {
  std::lock_guard lock(mu_);
  return misses_;
}

std::size_t GoldenCache::waits() const {
  std::lock_guard lock(mu_);
  return waits_;
}

}  // namespace resilience::harness

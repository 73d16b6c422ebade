// The single translation unit allowed to read the process environment
// (see options.hpp). env_int/env_flag/env_str declared in env.hpp live
// here for that reason.
#include "util/options.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace resilience::util {

std::int64_t env_int(const char* name, std::int64_t fallback,
                     std::int64_t min_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr,
                 "warning: %s: ignoring non-numeric value \"%s\", using "
                 "default %lld\n",
                 name, raw, static_cast<long long>(fallback));
    return fallback;
  }
  if (parsed < min_value) {
    std::fprintf(stderr,
                 "warning: %s: value %lld is below the minimum %lld, "
                 "clamping\n",
                 name, parsed, static_cast<long long>(min_value));
    return min_value;
  }
  return parsed;
}

bool env_flag(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  if (std::strcmp(raw, "0") == 0) return false;
  if (std::strcmp(raw, "1") == 0) return true;
  std::fprintf(stderr,
               "warning: %s: ignoring invalid value \"%s\" (expected 0 or "
               "1), using default %d\n",
               name, raw, fallback ? 1 : 0);
  return fallback;
}

double env_double(const char* name, double fallback, double min_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(raw, &end);
  if (end == raw || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr,
                 "warning: %s: ignoring non-numeric value \"%s\", using "
                 "default %g\n",
                 name, raw, fallback);
    return fallback;
  }
  if (parsed < min_value) {
    std::fprintf(stderr,
                 "warning: %s: value %g is below the minimum %g, clamping\n",
                 name, parsed, min_value);
    return min_value;
  }
  return parsed;
}

std::string env_str(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  return (raw == nullptr || *raw == '\0') ? fallback : std::string(raw);
}

BenchConfig BenchConfig::from_env(std::size_t default_trials) {
  BenchConfig cfg{};
  cfg.trials = static_cast<std::size_t>(
      env_int("RESILIENCE_TRIALS", static_cast<std::int64_t>(default_trials)));
  cfg.seed = static_cast<std::uint64_t>(
      env_int("RESILIENCE_SEED", 20180813, /*min_value=*/0));
  return cfg;
}

RuntimeOptions RuntimeOptions::from_env() {
  RuntimeOptions options;
  options.threads = static_cast<int>(
      env_int("RESILIENCE_THREADS", 0, /*min_value=*/0));
  options.fiber_stack_kb = static_cast<std::size_t>(
      env_int("RESILIENCE_FIBER_STACK_KB",
              static_cast<std::int64_t>(options.fiber_stack_kb),
              /*min_value=*/16));
  options.checkpoint = env_flag("RESILIENCE_CHECKPOINT", options.checkpoint);
  options.checkpoint_budget = static_cast<std::size_t>(env_int(
      "RESILIENCE_CHECKPOINT_BUDGET",
      static_cast<std::int64_t>(options.checkpoint_budget)));
  options.adaptive = env_flag("RESILIENCE_ADAPTIVE", options.adaptive);
  options.adaptive_ci_half_width =
      env_double("RESILIENCE_ADAPTIVE_CI", options.adaptive_ci_half_width,
                 /*min_value=*/1e-4);
  options.adaptive_ci_relative = env_double(
      "RESILIENCE_ADAPTIVE_REL", options.adaptive_ci_relative, /*min_value=*/0.0);
  options.adaptive_batch = static_cast<std::size_t>(
      env_int("RESILIENCE_ADAPTIVE_BATCH",
              static_cast<std::int64_t>(options.adaptive_batch)));
  options.adaptive_min_trials = static_cast<std::size_t>(
      env_int("RESILIENCE_ADAPTIVE_MIN",
              static_cast<std::int64_t>(options.adaptive_min_trials)));
  options.adaptive_stratify =
      env_flag("RESILIENCE_ADAPTIVE_STRATIFY", options.adaptive_stratify);
  options.shards = static_cast<int>(
      env_int("RESILIENCE_SHARDS", 0, /*min_value=*/0));
  options.golden_store = env_str("RESILIENCE_GOLDEN_STORE", "");
  options.shard_kill_unit = static_cast<int>(
      env_int("RESILIENCE_SHARD_KILL", -1, /*min_value=*/-1));
  options.frame_cap_mb = static_cast<std::size_t>(
      env_int("RESILIENCE_FRAME_CAP_MB",
              static_cast<std::int64_t>(options.frame_cap_mb),
              /*min_value=*/1));
  options.scenario = env_str("RESILIENCE_SCENARIO", "");
  options.mtbf_factor =
      env_double("RESILIENCE_MTBF", options.mtbf_factor, /*min_value=*/0.0);
  options.trace_path = env_str("RESILIENCE_TRACE", "");
  options.metrics_path = env_str("RESILIENCE_METRICS", "");
  return options;
}

namespace {

std::mutex& global_mutex() {
  static std::mutex mu;
  return mu;
}

// Leaked on purpose: read during static destruction is possible (atexit
// flushes) and a destructed options object would be a trap.
RuntimeOptions*& global_slot() {
  static RuntimeOptions* slot = nullptr;
  return slot;
}

}  // namespace

const RuntimeOptions& RuntimeOptions::global() {
  std::lock_guard<std::mutex> lock(global_mutex());
  RuntimeOptions*& slot = global_slot();
  if (slot == nullptr) slot = new RuntimeOptions(from_env());
  return *slot;
}

void RuntimeOptions::set_global(const RuntimeOptions& options) {
  std::lock_guard<std::mutex> lock(global_mutex());
  RuntimeOptions*& slot = global_slot();
  if (slot == nullptr) {
    slot = new RuntimeOptions(options);
  } else {
    *slot = options;
  }
}

void RuntimeOptions::reset_global() {
  std::lock_guard<std::mutex> lock(global_mutex());
  RuntimeOptions*& slot = global_slot();
  delete slot;
  slot = nullptr;
}

}  // namespace resilience::util

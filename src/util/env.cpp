// The one translation unit that reads the process environment: the bench
// binaries' RESILIENCE_TRIALS / RESILIENCE_SEED (env.hpp). The library
// and the CLI take every other setting from code or flags.
#include "util/env.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

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

BenchConfig BenchConfig::from_env(std::size_t default_trials) {
  BenchConfig cfg{};
  cfg.trials = static_cast<std::size_t>(
      env_int("RESILIENCE_TRIALS", static_cast<std::int64_t>(default_trials)));
  cfg.seed = static_cast<std::uint64_t>(
      env_int("RESILIENCE_SEED", 20180813, /*min_value=*/0));
  return cfg;
}

}  // namespace resilience::util

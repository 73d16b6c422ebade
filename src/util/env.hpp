// Environment-variable configuration used to scale bench campaign sizes.
//
// The paper runs 4000 fault-injection tests per deployment on a cluster;
// the bench binaries default to smaller counts so the whole suite finishes
// on one workstation, and RESILIENCE_TRIALS / RESILIENCE_SEED let the user
// restore paper-scale counts (e.g. RESILIENCE_TRIALS=4000) without
// rebuilding. These are the only environment variables the project reads:
// the library and the CLI take every other setting from code or flags.
#pragma once

#include <cstddef>
#include <cstdint>

namespace resilience::util {

/// Read an integer environment variable; returns `fallback` when unset.
/// Non-numeric values are rejected with a warning on stderr (instead of
/// silently defaulting); values below `min_value` warn and clamp.
std::int64_t env_int(const char* name, std::int64_t fallback,
                     std::int64_t min_value = 1);

/// Campaign-size knobs shared by the bench harnesses.
struct BenchConfig {
  /// Fault-injection tests per deployment (paper: 4000).
  std::size_t trials;
  /// Base seed for all campaigns.
  std::uint64_t seed;

  /// Reads RESILIENCE_TRIALS and RESILIENCE_SEED.
  static BenchConfig from_env(std::size_t default_trials = 400);
};

}  // namespace resilience::util

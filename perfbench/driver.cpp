// End-to-end benchmark driver: runs one workload of the library from
// outside, through its public functions only, and writes what it measured
// as one JSON document. run.py builds this binary, runs it, and reduces
// the document to the benchmark's metrics (see README.md in this
// directory for the workloads and metrics).
//
//   perfbench_driver --workload campaign|predict|sharded --seed N
//                    --seconds S --trace 0|1 --out FILE --work DIR
//
// The driver times whole public calls with std::chrono::steady_clock and
// reads the counts the library already returns (CampaignResult::metrics,
// StudyResult::metrics, RunResult). With --trace 1 it interleaves
// untraced units with units recorded by the library's TraceSession on a
// MemorySink, wraps each public call in a span of its own, and measures
// the per-layer probes after the timed window.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "core/study.hpp"
#include "harness/campaign.hpp"
#include "harness/executor.hpp"
#include "harness/golden_cache.hpp"
#include "harness/golden_store.hpp"
#include "harness/runner.hpp"
#include "shard/coordinator.hpp"
#include "shard/protocol.hpp"
#include "shard/worker.hpp"
#include "simmpi/runtime.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"

extern char** environ;

namespace {

using namespace resilience;
using Clock = std::chrono::steady_clock;
using util::Json;
using util::JsonArray;
using util::JsonObject;

// ---- workload sizes --------------------------------------------------------
// Units are sized so a run of the benchmark's run_seconds holds enough of
// them for a steady median (README.md, "Hazard").

/// campaign: one unit is kCampaignRounds rounds of a CG then an FT fixed
/// campaign (CG S, FT S, 4 ranks), each round with its own campaign seed.
/// A campaign runs in one of two speed modes (README.md, "Hazard"); many
/// short campaigns per unit average the modes so unit times have one peak.
constexpr int kCampaignRounds = 4;
constexpr std::size_t kCampaignCgTrials = 100;
constexpr std::size_t kCampaignFtTrials = 50;
/// predict: trials of every study phase, including the 1024-rank campaign.
/// Units cycle through kPredictRounds study seeds: with this few trials on
/// the critical path, one seed's trial mix sets a unit's cost by itself.
constexpr std::size_t kPredictTrials = 12;
constexpr int kPredictRounds = 4;
constexpr int kPredictSmall = 4;
constexpr int kPredictLarge = 1024;
/// sharded: kShardedRounds rounds of adaptive CG then FT campaigns (CI
/// target + trial cap), each round with its own seed, so that a unit's
/// work averages several seed-dependent stopping points.
constexpr int kShardedRounds = 2;
constexpr std::size_t kShardedCap = 1024;
constexpr double kShardedCi = 0.04;
/// A shard worker holding one unit (a few dozen trials, well under a
/// second) longer than this is wedged; the coordinator replaces it and the
/// restart shows in shard.worker_restarts instead of a 600 s hang.
constexpr std::chrono::milliseconds kShardUnitTimeout{10'000};

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median seconds of `reps` calls of `fn`.
double time_median(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    times.push_back(since(start));
  }
  return median(times);
}

JsonArray doubles(const std::vector<double>& v) {
  JsonArray out;
  for (double d : v) out.emplace_back(d);
  return out;
}

// ---- deployments -----------------------------------------------------------

struct Deployment {
  const char* key;  ///< metric-name suffix, e.g. "cg_s4"
  apps::AppId app;
  const char* size_class;
  int nranks;
};

constexpr Deployment kCgS4{"cg_s4", apps::AppId::CG, "S", 4};
constexpr Deployment kFtS4{"ft_s4", apps::AppId::FT, "S", 4};
constexpr Deployment kCgC1{"cg_c1", apps::AppId::CG, "C", 1};
constexpr Deployment kCgC4{"cg_c4", apps::AppId::CG, "C", 4};
constexpr Deployment kCgC1024{"cg_c1024", apps::AppId::CG, "C", 1024};

/// Campaign seed of one deployment in one round of a unit: a pure
/// function of the workload seed, so every unit of a run repeats the same
/// campaigns.
std::uint64_t campaign_seed(std::uint64_t seed, const Deployment& d,
                            int round) {
  std::uint64_t h = (seed * 0x9E3779B97F4A7C15ull) ^ static_cast<std::uint64_t>(round);
  for (const char* c = d.key; *c != '\0'; ++c) {
    h = (h ^ static_cast<unsigned char>(*c)) * 0x100000001B3ull;
  }
  return h >> 1;
}

// ---- result records --------------------------------------------------------

Json counters_json(const telemetry::MetricsSnapshot& m) {
  JsonObject out;
  for (std::size_t c = 0; c < telemetry::kCounterCount; ++c) {
    out[telemetry::name(static_cast<telemetry::Counter>(c))] =
        Json(m.counters[c]);
  }
  JsonArray ops;
  for (auto b : m.histogram(telemetry::Histogram::HarnessTrialOps).buckets) {
    ops.emplace_back(b);
  }
  out["harness.trial_ops.buckets"] = Json(std::move(ops));
  return Json(std::move(out));
}

Json tallies_json(const harness::FaultInjectionResult& r) {
  return Json(JsonArray{Json(r.success), Json(r.sdc), Json(r.failure),
                        Json(r.crash)});
}

Json campaign_json(const Deployment& d, int round,
                   const harness::CampaignResult& r) {
  JsonObject out;
  out["deployment"] = Json(d.key);
  out["round"] = Json(round);
  out["trials"] = Json(r.overall.trials);
  out["requested"] = Json(r.config.trials);
  out["busy_s"] = Json(r.wall_seconds);
  out["tallies"] = tallies_json(r.overall);
  JsonArray hist;
  for (auto h : r.contamination_hist) hist.emplace_back(h);
  out["hist"] = Json(std::move(hist));
  out["counters"] = counters_json(r.metrics);
  return Json(std::move(out));
}

JsonArray events_json(const std::vector<telemetry::TraceEvent>& events) {
  JsonArray out;
  out.reserve(events.size());
  for (const auto& e : events) {
    const char* ph = e.type == telemetry::TraceEvent::Type::SpanBegin ? "B"
                     : e.type == telemetry::TraceEvent::Type::SpanEnd ? "E"
                                                                      : "i";
    out.emplace_back(JsonArray{Json(e.category), Json(e.name), Json(ph),
                               Json(static_cast<std::int64_t>(e.tid)),
                               Json(e.ts_ns), Json(e.arg)});
  }
  return out;
}

// ---- arguments and hygiene -------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string work;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload campaign|predict|sharded"
               " --seed N --seconds S --trace 0|1 --out FILE --work DIR\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = value == "1";
      } else if (flag == "--out") {
        a.out = value;
      } else if (flag == "--work") {
        a.work = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload != "campaign" && a.workload != "predict" &&
      a.workload != "sharded") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (a.out.empty() || a.work.empty()) usage("--out and --work are required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// Every RESILIENCE_* knob changes what is measured (one of them makes
/// the campaign workload 11x faster), and shard workers inherit the
/// environment, so the driver refuses to run with any of them set.
void refuse_knobs() {
  std::vector<std::string> set;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RESILIENCE_", 11) == 0) set.emplace_back(*e);
  }
  if (set.empty()) return;
  std::cerr << "perfbench_driver: refusing to run with library knobs set:";
  for (const auto& s : set) std::cerr << ' ' << s;
  std::cerr << '\n';
  std::exit(2);
}

Json host_json() {
  JsonObject host;
  host["build_type"] = Json(PERFBENCH_BUILD_TYPE);
  host["compiler"] = Json(__VERSION__);
  host["hardware_concurrency"] =
      Json(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  host["executor_width"] = Json(harness::Executor::resolve_workers(0));
  host["fiber_workers_r4"] =
      Json(simmpi::detail::resolved_scheduler_workers(4));
  host["fiber_workers_r1024"] =
      Json(simmpi::detail::resolved_scheduler_workers(1024));
  return Json(std::move(host));
}

/// A field of /proc/self/status in MB. Units reset "VmHWM:", the resident
/// high-water mark, first, so that it covers one unit; where the kernel
/// refuses the reset it is the process peak so far, like ru_maxrss.
double status_mb(const char* field) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(std::strlen(field))) / 1024.0;
    }
  }
  throw std::runtime_error(std::string("no ") + field + " in /proc/self/status");
}

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Largest ru_maxrss of the reaped child processes (shard workers), in MB.
double children_peak_rss_mb() {
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(children.ru_maxrss) / 1024.0;
}

// ---- workloads -------------------------------------------------------------

struct App {
  Deployment dep;
  std::unique_ptr<apps::App> app;
};

App make(const Deployment& d) {
  return {d, apps::make_app(d.app, d.size_class)};
}

/// One workload: set-up (timed, repeated), then timed units, each a call
/// of the public function the workload exercises.
class Workload {
 public:
  virtual ~Workload() = default;
  /// App construction plus a cold golden pre-pass of every deployment;
  /// the last repetition's state serves the timed units.
  virtual void setup(const Args& args) = 0;
  /// One timed unit; fills `unit` with what the public results returned.
  /// Units of one `cycle` repeat the same work (a traced run runs each
  /// cycle twice, untraced then traced); warm-up cycles are negative.
  virtual void run_unit(const Args& args, int cycle, JsonObject& unit) = 0;
  /// Untimed checks after the window (sharded: in-process equivalence).
  virtual void checks(const Args&, JsonArray&) {}
  /// Untimed clean-up between set-up repetitions.
  virtual void reset() {}
};

harness::DeploymentConfig fixed_config(const Args& args, const Deployment& d,
                                       int round, std::size_t trials) {
  harness::DeploymentConfig cfg;
  cfg.nranks = d.nranks;
  cfg.trials = trials;
  cfg.seed = campaign_seed(args.seed, d, round);
  return cfg;
}

class CampaignWorkload : public Workload {
 public:
  void setup(const Args&) override {
    apps_.clear();
    apps_.push_back(make(kCgS4));
    apps_.push_back(make(kFtS4));
    cache_ = std::make_unique<harness::GoldenCache>();
    for (const App& a : apps_) {
      (void)cache_->get_or_profile(*a.app, a.dep.nranks);
    }
  }

  void run_unit(const Args& args, int, JsonObject& unit) override {
    JsonArray campaigns;
    for (int round = 0; round < kCampaignRounds; ++round) {
      for (const App& a : apps_) {
        const auto cfg = fixed_config(
            args, a.dep, round,
            a.dep.app == apps::AppId::CG ? kCampaignCgTrials : kCampaignFtTrials);
        telemetry::TraceSpan span("harness", "CampaignRunner::run");
        const auto result = harness::CampaignRunner::run(
            *a.app, cfg, harness::CampaignContext{nullptr, cache_.get()});
        campaigns.push_back(campaign_json(a.dep, round, result));
      }
    }
    unit["campaigns"] = Json(std::move(campaigns));
  }

 private:
  std::vector<App> apps_;
  std::unique_ptr<harness::GoldenCache> cache_;
};

class PredictWorkload : public Workload {
 public:
  void setup(const Args&) override {
    app_ = make(kCgC1024);
    for (int p : {1, kPredictSmall, kPredictLarge}) {
      (void)harness::profile_app(*app_.app, p);
    }
  }

  void run_unit(const Args& args, int cycle, JsonObject& unit) override {
    const int round = (cycle % kPredictRounds + kPredictRounds) % kPredictRounds;
    core::StudyConfig cfg;
    cfg.small_p = kPredictSmall;
    cfg.large_p = kPredictLarge;
    cfg.trials = kPredictTrials;
    cfg.seed = campaign_seed(args.seed, kCgC1024, round);
    telemetry::TraceSpan span("core", "run_study");
    const core::StudyResult r = core::run_study(*app_.app, cfg);
    if (!r.measured_large) throw std::runtime_error("study measured nothing");

    JsonObject study;
    // The outcomes recorded are the measured 1024-rank campaign's; the
    // trial count is every trial of the study.
    study["deployment"] = Json(kCgC1024.key);
    study["round"] = Json(round);
    study["trials"] = Json(r.metrics.value(telemetry::Counter::HarnessTrials));
    study["requested"] = Json(r.metrics.value(telemetry::Counter::HarnessTrials));
    study["busy_s"] = Json(r.serial_injection_seconds +
                           r.small_injection_seconds +
                           r.large_injection_seconds);
    study["tallies"] = tallies_json(*r.measured_large);
    study["counters"] = counters_json(r.metrics);
    unit["campaigns"] = Json(JsonArray{Json(std::move(study))});
    const auto& c = r.prediction.combined;
    const auto& m = *r.measured_large;
    unit["prediction"] = Json(JsonObject{
        {"predicted", Json(JsonArray{Json(c.success), Json(c.sdc),
                                     Json(c.failure)})},
        {"measured", Json(JsonArray{Json(m.success_rate()), Json(m.sdc_rate()),
                                    Json(m.failure_rate())})}});
  }

 private:
  App app_;
};

harness::DeploymentConfig adaptive_config(const Args& args,
                                          const Deployment& d, int round) {
  auto cfg = fixed_config(args, d, round, kShardedCap);
  cfg.adaptive.enabled = true;
  cfg.adaptive.ci_half_width = kShardedCi;
  return cfg;
}

class ShardedWorkload : public Workload {
 public:
  void setup(const Args& args) override {
    apps_.clear();
    apps_.push_back(make(kCgS4));
    apps_.push_back(make(kFtS4));
    store_ = args.work + "/store-" + std::to_string(++fills_);
    harness::GoldenStore store(store_);
    for (const App& a : apps_) {
      (void)store.load_or_fill(*a.app, a.dep.nranks, [&] {
        return harness::profile_app(*a.app, a.dep.nranks);
      });
    }
  }

  void run_unit(const Args& args, int, JsonObject& unit) override {
    JsonArray campaigns;
    for (int round = 0; round < kShardedRounds; ++round) {
      for (const App& a : apps_) {
        telemetry::TraceSpan span("shard", "run_sharded_campaign");
        const auto result = shard::run_sharded_campaign(
            *a.app, adaptive_config(args, a.dep, round), options());
        campaigns.push_back(campaign_json(a.dep, round, result));
      }
    }
    unit["campaigns"] = Json(std::move(campaigns));
    unit["shards"] = Json(options().shards);
  }

  /// A fresh, empty store per repetition: every fill is cold.
  void reset() override {
    if (!store_.empty()) std::filesystem::remove_all(store_);
  }

  /// Once per run, untimed: the sharded tallies of round 0 must equal an
  /// in-process run of the same configuration.
  void checks(const Args& args, JsonArray& out) override {
    for (const App& a : apps_) {
      telemetry::TraceSpan span("harness", "CampaignRunner::run");
      const auto result =
          harness::CampaignRunner::run(*a.app, adaptive_config(args, a.dep, 0));
      JsonObject check;
      check["kind"] = Json("in_process");
      check["campaign"] = campaign_json(a.dep, 0, result);
      out.emplace_back(std::move(check));
    }
  }

 private:
  shard::ShardOptions options() const {
    shard::ShardOptions o;
    o.shards = std::max(1u, std::thread::hardware_concurrency());
    o.golden_store_dir = store_;
    o.unit_timeout = kShardUnitTimeout;
    return o;
  }

  std::vector<App> apps_;
  std::string store_;
  int fills_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "campaign") return std::make_unique<CampaignWorkload>();
  if (name == "predict") return std::make_unique<PredictWorkload>();
  return std::make_unique<ShardedWorkload>();
}

// ---- per-layer probes (--trace 1) -----------------------------------------

/// Microseconds per collective round, timed on rank 0 inside one job.
double collective_us(int nranks, int rounds,
                     const std::function<void(simmpi::Comm&)>& round) {
  double per_round = 0.0;
  const auto r = simmpi::Runtime::run(nranks, [&](simmpi::Comm& comm) {
    comm.barrier();
    const auto start = Clock::now();
    for (int i = 0; i < rounds; ++i) round(comm);
    if (comm.rank() == 0) per_round = since(start) * 1e6 / rounds;
  });
  if (!r.ok) throw std::runtime_error("probe job failed: " + r.error);
  return per_round;
}

class Probes {
 public:
  explicit Probes(std::string work) : work_(std::move(work)) {}

  Json run() {
    probe("simmpi", [&] { simmpi(); });
    probe("apps", [&] { apps_and_harness(); });
    probe("store", [&] { store(); });
    probe("shard", [&] { frames(); });
    probe("core", [&] { predictor(); });
    JsonArray errors;
    for (const auto& e : errors_) errors.emplace_back(e);
    return Json(JsonObject{{"values", Json(values_)},
                           {"errors", Json(std::move(errors))},
                           {"attempted", Json(attempted_)}});
  }

 private:
  void probe(const char* what, const std::function<void()>& fn) {
    ++attempted_;
    try {
      fn();
    } catch (const std::exception& e) {
      errors_.push_back(std::string(what) + ": " + e.what());
    }
  }

  void set(const std::string& name, double value) { values_[name] = Json(value); }

  void simmpi() {
    const auto empty = [](simmpi::Comm&) {};
    set("simmpi.launch_us.r4", 1e6 * time_median(201, [&] {
          if (!simmpi::Runtime::run(4, empty).ok) throw std::runtime_error("r4");
        }));
    set("simmpi.launch_us.r1024", 1e6 * time_median(21, [&] {
          if (!simmpi::Runtime::run(1024, empty).ok) {
            throw std::runtime_error("r1024");
          }
        }));
    const auto allreduce = [](simmpi::Comm& comm) {
      (void)comm.allreduce_value(1.0);
    };
    const auto halo = [](simmpi::Comm& comm) {
      const int n = comm.size();
      double out = comm.rank();
      double in = 0.0;
      comm.sendrecv((comm.rank() + 1) % n, 7, std::span<const double>(&out, 1),
                    (comm.rank() + n - 1) % n, 7, std::span<double>(&in, 1));
    };
    std::vector<double> a4, a1024, h1024;
    for (int rep = 0; rep < 5; ++rep) {
      a4.push_back(collective_us(4, 2000, allreduce));
      a1024.push_back(collective_us(1024, 40, allreduce));
      h1024.push_back(collective_us(1024, 40, halo));
    }
    set("simmpi.allreduce_us.r4", median(a4));
    set("simmpi.allreduce_us.r1024", median(a1024));
    set("simmpi.halo_us.r1024", median(h1024));
  }

  /// Golden profiles, clean runs and serial op rates of every deployment
  /// the workloads run. A clean run's output must equal its golden
  /// signature; its RunResult gives the messages a full trial sends.
  void apps_and_harness() {
    for (const Deployment& d : {kCgS4, kFtS4, kCgC1, kCgC4, kCgC1024}) {
      const App a = make(d);
      const int reps = d.nranks > 4 ? 3 : 7;
      harness::GoldenRun golden;
      set(std::string("harness.golden_profile_ms.") + d.key,
          1e3 * time_median(reps, [&] {
            golden = harness::profile_app(*a.app, d.nranks);
          }));
      // cg_c1 and cg_c4 are profiled by predict's study only; their
      // trials are off its critical path.
      if (d.nranks == 1 || std::strcmp(d.key, kCgC4.key) == 0) continue;
      harness::RunOutput out;
      set(std::string("apps.clean_run_ms.") + d.key,
          1e3 * time_median(reps, [&] {
            out = harness::run_app_once(*a.app, d.nranks, {});
          }));
      if (!out.runtime.ok || !out.result ||
          out.result->signature != golden.signature) {
        throw std::runtime_error(std::string("clean run of ") + d.key +
                                 " does not reproduce its golden output");
      }
      set(std::string("simmpi.msgs_per_run.") + d.key,
          static_cast<double>(out.runtime.messages_sent));
      set(std::string("simmpi.bytes_per_run.") + d.key,
          static_cast<double>(out.runtime.bytes_sent));
    }
    for (const Deployment& d : {kCgS4, kFtS4}) {
      const App a = make(d);
      harness::RunOutput out;
      const double s = time_median(9, [&] {
        out = harness::run_app_once(*a.app, 1, {});
      });
      if (!out.runtime.ok) throw std::runtime_error("serial clean run failed");
      set(std::string("fsefi.ops_per_s.") + (d.app == apps::AppId::CG ? "cg_s" : "ft_s"),
          static_cast<double>(out.profiles.at(0).total()) / s);
    }
  }

  /// GoldenStore put/load of the FT S4 golden run (checkpoints included).
  void store() {
    const App a = make(kFtS4);
    const auto golden = harness::profile_app(*a.app, kFtS4.nranks);
    const std::string dir = work_ + "/store-probe";
    harness::GoldenStore s(dir);
    set("harness.store_save_ms", 1e3 * time_median(15, [&] {
          s.put(*a.app, kFtS4.nranks, golden);
        }));
    set("harness.store_load_ms", 1e3 * time_median(15, [&] {
          const auto loaded = s.load(*a.app, kFtS4.nranks);
          if (!loaded || loaded->signature != golden.signature) {
            throw std::runtime_error("golden store load mismatch");
          }
        }));
    std::filesystem::remove_all(dir);
  }

  /// Encode + decode of one unit-sized UnitMsg and ResultMsg: an adaptive
  /// batch (64 trials) split across the sharded workload's shards.
  void frames() {
    const std::size_t unit_trials =
        64 / std::max(1u, std::thread::hardware_concurrency());
    shard::UnitMsg unit;
    unit.id = 3;
    shard::ResultMsg result;
    result.id = 3;
    result.wall_seconds = 0.25;
    for (std::size_t i = 0; i < unit_trials; ++i) {
      unit.refs.push_back({i % 40, i, i});
      result.outcomes.push_back(
          {static_cast<harness::Outcome>(i % 3), static_cast<int>(i % 5)});
    }
    for (std::size_t c = 0; c < telemetry::kCounterCount; ++c) {
      result.metrics.counters[c] = 1000 + c;
    }
    const shard::WireFormat wire = shard::wire_format_from_runtime();
    const shard::Message unit_msg{unit};
    const shard::Message result_msg{result};
    constexpr int kRounds = 200;
    std::vector<double> per_round;
    for (int rep = 0; rep < 9; ++rep) {
      const auto start = Clock::now();
      for (int i = 0; i < kRounds; ++i) {
        const auto u = shard::decode_message(
            shard::encode_message(unit_msg, wire), wire);
        const auto r = shard::decode_message(
            shard::encode_message(result_msg, wire), wire);
        if (std::get<shard::UnitMsg>(u).refs.size() != unit_trials ||
            std::get<shard::ResultMsg>(r).outcomes.size() != unit_trials) {
          throw std::runtime_error("frame round trip lost trials");
        }
      }
      per_round.push_back(since(start) * 1e6 / kRounds);
    }
    set("shard.frame_rt_us", median(per_round));
  }

  /// One ResiliencePredictor::predict call on a fixed synthetic sweep and
  /// small-scale observation (a control: no workload change moves it).
  void predictor() {
    core::SerialSweep sweep;
    sweep.large_p = kPredictLarge;
    sweep.sample_x = core::SerialSweep::sample_points(kPredictLarge, kPredictSmall);
    for (std::size_t i = 0; i < sweep.sample_x.size(); ++i) {
      harness::FaultInjectionResult r;
      r.trials = 400;
      r.success = 300 - 40 * i;
      r.sdc = 60 + 30 * i;
      r.failure = r.trials - r.success - r.sdc;
      sweep.results.push_back(r);
    }
    harness::CampaignResult small;
    small.config.nranks = kPredictSmall;
    small.overall = {400, 280, 80, 40, 0};
    small.contamination_hist = {0, 250, 90, 40, 20};
    small.by_contamination = {{}, {250, 190, 40, 20, 0}, {90, 60, 20, 10, 0},
                              {40, 20, 12, 8, 0}, {20, 10, 8, 2, 0}};
    const core::ResiliencePredictor predictor(
        sweep, core::SmallScaleObservation::from_campaign(small));
    constexpr int kCalls = 200;
    double sink = 0.0;
    std::vector<double> per_call;
    for (int rep = 0; rep < 9; ++rep) {
      const auto start = Clock::now();
      for (int i = 0; i < kCalls; ++i) {
        sink += predictor.predict(kPredictLarge).combined.success;
      }
      per_call.push_back(since(start) * 1e6 / kCalls);
    }
    if (!(sink > 0.0)) throw std::runtime_error("predictor returned nothing");
    set("core.predict_us", median(per_call));
  }

  std::string work_;
  JsonObject values_;
  std::vector<std::string> errors_;
  int attempted_ = 0;
};

// ---- main ------------------------------------------------------------------

/// Run one unit, traced or not; exceptions become a failed unit record.
Json timed_unit(Workload& w, const Args& args, int index, int cycle,
                bool traced) {
  JsonObject unit;
  unit["index"] = Json(index);
  unit["traced"] = Json(traced);
  std::shared_ptr<telemetry::MemorySink> sink;
  if (traced) {
    sink = std::make_shared<telemetry::MemorySink>();
    telemetry::TraceSession::start(sink);
  }
  reset_peak_rss();
  const auto start = Clock::now();
  try {
    telemetry::TraceSpan root("bench", "unit", "unit",
                              static_cast<std::uint64_t>(index));
    w.run_unit(args, cycle, unit);
    unit["ok"] = Json(true);
  } catch (const std::exception& e) {
    unit["ok"] = Json(false);
    unit["error"] = Json(e.what());
  }
  unit["elapsed_s"] = Json(since(start));
  unit["rss_mb"] = Json(status_mb("VmHWM:"));
  if (traced) {
    telemetry::TraceSession::stop();
    unit["events"] = Json(events_json(sink->events()));
  }
  return Json(std::move(unit));
}

int run(const Args& args) {
  std::filesystem::create_directories(args.work);
  const auto workload = make_workload(args.workload);

  // Set-up is short next to the window, so it repeats until a median
  // holds: at least three times and, for cheap set-ups, for two seconds.
  std::vector<double> setup_s;
  const auto setup_start = Clock::now();
  while (setup_s.size() < 3 ||
         (since(setup_start) < 2.0 && setup_s.size() < 400)) {
    workload->reset();
    const auto start = Clock::now();
    workload->setup(args);
    setup_s.push_back(since(start));
  }

  // Untimed units first, for about three seconds: lazily built pools and
  // first-touch pages are paid before the window, and a process often
  // starts in a faster mode than it keeps (README.md, "Hazard").
  JsonArray units;
  const auto warm = Clock::now();
  for (int index = -1; index == -1 || since(warm) < 3.0; --index) {
    units.push_back(timed_unit(*workload, args, index, index, false));
  }

  // The timed window: whole units until --seconds have passed. A traced
  // run alternates untraced and traced units of the same work, so the
  // overhead ratio compares neighbours.
  const int min_units = args.trace ? 2 : 1;
  const auto window = Clock::now();
  for (int index = 0;
       index < min_units || since(window) < args.seconds; ++index) {
    units.push_back(timed_unit(*workload, args, index,
                               args.trace ? index / 2 : index,
                               args.trace && index % 2 == 1));
  }

  JsonArray checks;
  JsonObject doc;
  try {
    std::shared_ptr<telemetry::MemorySink> sink;
    if (args.trace) {
      sink = std::make_shared<telemetry::MemorySink>();
      telemetry::TraceSession::start(sink);
    }
    workload->checks(args, checks);
    if (args.trace) {
      telemetry::TraceSession::stop();
      doc["check_events"] = Json(events_json(sink->events()));
    }
  } catch (const std::exception& e) {
    telemetry::TraceSession::stop();
    checks.emplace_back(JsonObject{{"kind", Json("error")},
                                   {"error", Json(e.what())}});
  }
  if (args.trace) doc["probes"] = Probes(args.work).run();

  doc["workload"] = Json(args.workload);
  doc["seed"] = Json(args.seed);
  doc["trace"] = Json(args.trace);
  doc["host"] = host_json();
  doc["setup_s"] = Json(doubles(setup_s));
  doc["units"] = Json(std::move(units));
  doc["checks"] = Json(std::move(checks));
  doc["children_rss_mb"] = Json(children_peak_rss_mb());

  std::ofstream out(args.out);
  out << Json(std::move(doc)).dump() << '\n';
  out.close();
  if (!out) {
    std::cerr << "perfbench_driver: cannot write " << args.out << '\n';
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The shard coordinator re-executes this binary as its workers; they
  // must enter the worker loop before anything else runs.
  if (const int rc = shard::maybe_worker_main(argc, argv); rc >= 0) return rc;
#ifndef __OPTIMIZE__
  std::cerr << "perfbench_driver: refusing to measure an unoptimized build\n";
  return 3;
#endif
  refuse_knobs();
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 1;
  }
}

// resilience — command-line front end to the library.
//
//   resilience list
//       Show the built-in benchmarks and their input problems.
//   resilience scenarios
//       Show the fault-scenario catalog (--scenario names).
//   resilience campaign --app CG [--ranks 8] [--trials 400] [--errors 1]
//       [--scenario paper|register-byte|payload|state|poisson|crash]
//       [--pattern single|double|burst|byte|crash]
//       [--region all|common|unique] [--mtbf F]
//       [--save campaign.json] [--seed N] [--jobs N]
//       Run one fault-injection deployment and print its result.
//       --scenario picks a catalog entry (default "paper");
//       --pattern/--region/--mtbf then override individual scenario
//       fields.
//   resilience predict --app CG [--small 8] [--large 64] [--trials 400]
//       [--no-measure] [--ci resamples] [--report out.md] [--seed N]
//       [--jobs N]
//       Run the paper's methodology: predict the large scale from serial +
//       small-scale campaigns (optionally validating by measurement).
//   resilience propagation --app CG [--ranks 8] [--trials 400] [--seed N]
//       [--jobs N]
//       Profile error propagation across ranks.
//
// campaign and propagation also accept multi-process sharding
// (DESIGN.md §13) and a persistent golden store:
//   --shards N           Execute the campaign's trials across N worker
//                        processes (default 0 = in-process). Results are
//                        bit-identical to the in-process run.
//   --golden-store DIR   Keep golden runs (checkpoints included) in DIR:
//                        repeated invocations skip re-profiling, sharded
//                        or not.
//
// campaign, predict, and propagation also accept the adaptive engine
// flags (DESIGN.md §12):
//   --trials-auto        CI-driven early stopping: --trials becomes a cap
//                        and each deployment stops once every outcome
//                        rate's confidence interval is tight enough.
//   --ci-half-width W    Absolute CI half-width target (default 0.02);
//                        implies --trials-auto.
// Stopping points are seed-deterministic (independent of --jobs and
// --shards).
//
// campaign, predict, and propagation also accept:
//   --trace out.jsonl    Write a structured trace of the run (spans for
//                        study phases, campaigns, and trials; instants for
//                        injections, restores, early exits). A .json suffix
//                        selects Chrome trace_event format (load the file
//                        in chrome://tracing or https://ui.perfetto.dev);
//                        anything else writes JSON Lines.
//   --metrics out.json   Dump the run's telemetry counters/histograms as
//                        JSON after the command finishes.
// Telemetry is execution-diagnostic only: results are bit-identical with
// tracing on or off.
//
// --jobs sets the campaign executor's worker count (0 = auto: hardware
// concurrency; 1 = serial). Results are bit-identical for every value.
//
// Flags are the only configuration: no environment variable changes what
// a command does. Integer flags take a whole non-negative number; a bad
// value exits 1 with "error: --<flag>: ...".
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "core/bootstrap.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "fsefi/scenario.hpp"
#include "harness/golden_cache.hpp"
#include "harness/golden_store.hpp"
#include "harness/serialize.hpp"
#include "shard/coordinator.hpp"
#include "shard/worker.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace resilience;

/// Minimal --key value parser; unknown keys are an error.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("unexpected argument: " + key);
      }
      key = key.substr(2);
      if (key == "no-measure" || key == "trials-auto") {
        values_[key] = "1";
        continue;
      }
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for --" + key);
      }
      values_[key] = argv[++i];
    }
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) {
    consumed_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// A count flag: the whole value must be a non-negative integer that
  /// fits T.
  template <typename T>
  [[nodiscard]] T get_count(const std::string& key, T fallback) {
    const std::string raw = get(key, "");
    if (raw.empty()) return fallback;
    long long value = 0;
    const char* last = raw.data() + raw.size();
    const auto [end, ec] = std::from_chars(raw.data(), last, value);
    if (ec != std::errc{} || end != last || value < 0 ||
        static_cast<unsigned long long>(value) >
            static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
      throw std::invalid_argument("--" + key +
                                  ": expected a non-negative integer, got \"" +
                                  raw + "\"");
    }
    return static_cast<T>(value);
  }

  [[nodiscard]] double get_double(const std::string& key, double fallback) {
    const std::string raw = get(key, "");
    if (raw.empty()) return fallback;
    char* end = nullptr;
    const double value = std::strtod(raw.c_str(), &end);
    if (end != raw.c_str() + raw.size()) {
      throw std::invalid_argument("--" + key + ": expected a number, got \"" +
                                  raw + "\"");
    }
    return value;
  }

  void check_consumed() const {
    for (const auto& [key, value] : values_) {
      if (consumed_.find(key) == consumed_.end()) {
        throw std::invalid_argument("unknown option --" + key);
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> consumed_;
};

/// --trace/--metrics handling shared by the run commands: keeps a
/// process-wide trace session open for the command's duration, and dumps
/// the final metrics snapshot as JSON.
class TelemetryOutputs {
 public:
  explicit TelemetryOutputs(Args& args)
      : trace_path_(args.get("trace", "")),
        metrics_path_(args.get("metrics", "")) {
    if (trace_path_.empty()) return;
    std::shared_ptr<telemetry::TraceSink> sink;
    if (trace_path_.ends_with(".json")) {
      sink = std::make_shared<telemetry::ChromeTraceSink>(trace_path_);
    } else {
      sink = std::make_shared<telemetry::JsonLinesSink>(trace_path_);
    }
    telemetry::TraceSession::start(std::move(sink));
    tracing_ = true;
  }
  ~TelemetryOutputs() { stop(); }
  TelemetryOutputs(const TelemetryOutputs&) = delete;
  TelemetryOutputs& operator=(const TelemetryOutputs&) = delete;

  /// Flushes the trace and writes the metrics dump, reporting both files.
  void finish(const telemetry::MetricsSnapshot& metrics) {
    stop();
    if (!trace_path_.empty()) {
      std::cout << "trace written to " << trace_path_ << "\n";
    }
    if (!metrics_path_.empty()) {
      std::ofstream out(metrics_path_);
      if (!out) {
        throw std::runtime_error("cannot write metrics to " + metrics_path_);
      }
      out << telemetry::metrics_to_json(metrics).dump(2) << "\n";
      std::cout << "metrics written to " << metrics_path_ << "\n";
    }
  }

 private:
  void stop() {
    if (tracing_) {
      telemetry::TraceSession::stop();
      tracing_ = false;
    }
  }

  std::string trace_path_;
  std::string metrics_path_;
  bool tracing_ = false;
};

/// Adaptive-engine flags: --trials-auto switches the engine on,
/// --ci-half-width sets (and also switches on) the convergence target.
harness::AdaptiveConfig parse_adaptive(Args& args) {
  harness::AdaptiveConfig adaptive;
  if (!args.get("trials-auto", "").empty()) adaptive.enabled = true;
  if (!args.get("ci-half-width", "").empty()) {
    const double half_width = args.get_double("ci-half-width", 0.0);
    if (!(half_width >= 1e-4 && half_width < 1.0)) {
      throw std::invalid_argument(
          "--ci-half-width must be in [0.0001, 1)");
    }
    adaptive.ci_half_width = half_width;
    adaptive.enabled = true;
  }
  return adaptive;
}

/// One-line adaptive summary after a campaign (requested vs executed
/// trials, stop reason, the success-rate CI).
void print_adaptive(const harness::CampaignResult& campaign) {
  if (!campaign.adaptive) return;
  const auto& a = *campaign.adaptive;
  std::cout << "adaptive: " << a.trials_executed << "/" << a.trials_requested
            << " trials (" << to_string(a.stop_reason) << ", " << a.strata
            << (a.strata == 1 ? " stratum" : " strata")
            << "); success 95% CI ["
            << util::TablePrinter::pct(a.success.lo) << ", "
            << util::TablePrinter::pct(a.success.hi) << "]\n";
}

fsefi::FaultPattern parse_pattern(const std::string& name) {
  if (name == "single") return fsefi::FaultPattern::SingleBit;
  if (name == "double") return fsefi::FaultPattern::DoubleBit;
  if (name == "burst") return fsefi::FaultPattern::Burst4;
  if (name == "byte") return fsefi::FaultPattern::Byte;
  if (name == "crash") return fsefi::FaultPattern::RankCrash;
  throw std::invalid_argument("unknown pattern: " + name);
}

fsefi::RegionMask parse_region(const std::string& name) {
  if (name == "all") return fsefi::RegionMask::All;
  if (name == "common") return fsefi::RegionMask::Common;
  if (name == "unique") return fsefi::RegionMask::ParallelUnique;
  throw std::invalid_argument("unknown region: " + name);
}

/// The deployment flags shared by campaign and propagation.
/// The scenario resolves in layers: the catalog entry (--scenario, default
/// "paper"), then field overrides (--pattern, --region, --mtbf).
harness::DeploymentConfig parse_deployment(Args& args) {
  harness::DeploymentConfig dep;
  dep.nranks = args.get_count("ranks", 8);
  dep.trials = args.get_count<std::size_t>("trials", 400);
  dep.errors_per_test = args.get_count("errors", 1);
  dep.scenario = fsefi::scenario_by_name(args.get("scenario", "paper"));
  const std::string pattern = args.get("pattern", "");
  if (!pattern.empty()) dep.scenario.pattern = parse_pattern(pattern);
  const std::string region = args.get("region", "");
  if (!region.empty()) dep.scenario.regions = parse_region(region);
  const double mtbf = args.get_double("mtbf", 0.0);
  if (mtbf > 0.0) dep.scenario.mtbf_factor = mtbf;
  dep.seed = args.get_count<std::uint64_t>("seed", 20180813);
  dep.max_workers = args.get_count("jobs", 0);
  dep.adaptive = parse_adaptive(args);
  return dep;
}

/// The execution flags shared by campaign and propagation: --shards and
/// --golden-store.
shard::ShardOptions parse_shard_options(Args& args) {
  shard::ShardOptions opts;
  opts.shards = args.get_count("shards", 0);
  opts.golden_store_dir = args.get("golden-store", "");
  return opts;
}

/// Run one campaign: --shards > 0 fans the trials out across worker
/// processes; otherwise in-process, with the golden pre-pass served
/// through the on-disk store when --golden-store names one.
harness::CampaignResult run_configured_campaign(
    const apps::App& app, const harness::DeploymentConfig& dep,
    const shard::ShardOptions& opts) {
  if (opts.shards > 0) return shard::run_sharded_campaign(app, dep, opts);
  if (!opts.golden_store_dir.empty()) {
    harness::GoldenStore store(opts.golden_store_dir);
    harness::GoldenCache cache(&store);
    harness::CampaignContext context;
    context.golden_cache = &cache;
    return harness::CampaignRunner::run(app, dep, context);
  }
  return harness::CampaignRunner::run(app, dep);
}

/// The Success/SDC/Failure outcome table of a campaign; a Crash row
/// appears only when a fail-stop scenario produced one, so the classic
/// output is unchanged.
void print_outcomes(const harness::FaultInjectionResult& overall) {
  util::TablePrinter table({"outcome", "tests", "rate"});
  table.add_row({"Success", std::to_string(overall.success),
                 util::TablePrinter::pct(overall.success_rate())});
  table.add_row({"SDC", std::to_string(overall.sdc),
                 util::TablePrinter::pct(overall.sdc_rate())});
  table.add_row({"Failure", std::to_string(overall.failure),
                 util::TablePrinter::pct(overall.failure_rate())});
  if (overall.crash != 0) {
    table.add_row({"Crash", std::to_string(overall.crash),
                   util::TablePrinter::pct(overall.crash_rate())});
  }
  table.print();
}

int cmd_scenarios() {
  util::TablePrinter table({"name", "domain", "pattern", "arrival", "notes"});
  for (const fsefi::ScenarioCatalogEntry& entry : fsefi::scenario_catalog()) {
    table.add_row({entry.name, to_string(entry.scenario.domain),
                   to_string(entry.scenario.pattern),
                   to_string(entry.scenario.arrival), entry.summary});
  }
  table.print();
  return 0;
}

int cmd_list() {
  util::TablePrinter table({"name", "input problem", "notes"});
  table.add_row({"CG", "S (also B, C)", "sparse eigenvalue, power + CG solves"});
  table.add_row({"FT", "S (also B)", "2D FFT with alltoall transpose"});
  table.add_row({"MG", "S", "2D multigrid V-cycles"});
  table.add_row({"LU", "W", "SSOR with pipelined wavefronts"});
  table.add_row({"MiniFE", "S (also B)", "FE assembly + CG solve"});
  table.add_row({"PENNANT", "leblanc", "1D Lagrangian shock hydro"});
  table.print();
  return 0;
}

int cmd_campaign(Args& args) {
  const auto app = apps::make_app(apps::parse_app_id(args.get("app", "CG")),
                                  args.get("class", ""));
  const harness::DeploymentConfig dep = parse_deployment(args);
  const shard::ShardOptions shard_opts = parse_shard_options(args);
  const std::string save_path = args.get("save", "");
  TelemetryOutputs telemetry_out(args);
  args.check_consumed();

  const auto start = std::chrono::steady_clock::now();
  const auto campaign = run_configured_campaign(*app, dep, shard_opts);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (!save_path.empty()) {
    harness::save_campaign(save_path, campaign);
    std::cout << "campaign saved to " << save_path << "\n";
  }
  std::cout << app->label() << " on " << dep.nranks << " ranks, "
            << dep.trials << " tests, " << dep.errors_per_test
            << " error(s)/test, scenario "
            << fsefi::scenario_name(dep.scenario) << " (pattern "
            << to_string(dep.scenario.pattern) << ")\n\n";
  print_outcomes(campaign.overall);
  print_adaptive(campaign);
  std::cout << "\npropagation r_x:";
  const auto r = campaign.propagation_probabilities();
  for (int x = 1; x <= dep.nranks; ++x) {
    if (r[static_cast<std::size_t>(x - 1)] > 0.0) {
      std::cout << "  " << x << ":"
                << util::TablePrinter::pct(r[static_cast<std::size_t>(x - 1)]);
    }
  }
  // wall_seconds sums every trial chunk's busy time, so it exceeds the
  // elapsed time whenever --jobs runs chunks side by side.
  std::cout << "\nsummed trial time: " << campaign.wall_seconds
            << " s (elapsed " << elapsed << " s)\n";
  std::cout << "checkpoint fast path: "
            << campaign.metrics.value(
                   telemetry::Counter::HarnessCheckpointRestores)
            << " restores, "
            << campaign.metrics.value(telemetry::Counter::HarnessEarlyExits)
            << " early exits\n";
  telemetry_out.finish(campaign.metrics);
  return 0;
}

int cmd_predict(Args& args) {
  const auto app = apps::make_app(apps::parse_app_id(args.get("app", "CG")),
                                  args.get("class", ""));
  core::StudyConfig cfg;
  cfg.small_p = args.get_count("small", 8);
  cfg.large_p = args.get_count("large", 64);
  cfg.trials = args.get_count<std::size_t>("trials", 400);
  cfg.seed = args.get_count<std::uint64_t>("seed", 20180813);
  cfg.measure_large = args.get("no-measure", "").empty();
  cfg.max_workers = args.get_count("jobs", 0);
  cfg.adaptive = parse_adaptive(args);
  const std::string report_path = args.get("report", "");
  const std::size_t ci_resamples = args.get_count<std::size_t>("ci", 0);
  TelemetryOutputs telemetry_out(args);
  args.check_consumed();

  const auto study = core::run_study(*app, cfg);
  if (!report_path.empty()) {
    core::write_report(report_path, app->label(), study);
    std::cout << "report written to " << report_path << "\n";
  }
  std::cout << app->label() << ": predicting " << cfg.large_p
            << " ranks from serial + " << cfg.small_p << " ranks\n\n";
  util::TablePrinter table({"", "success", "SDC", "failure"});
  table.add_row({"predicted",
                 util::TablePrinter::pct(study.prediction.combined.success),
                 util::TablePrinter::pct(study.prediction.combined.sdc),
                 util::TablePrinter::pct(study.prediction.combined.failure)});
  if (study.measured_large) {
    table.add_row({"measured",
                   util::TablePrinter::pct(study.measured_large->success_rate()),
                   util::TablePrinter::pct(study.measured_large->sdc_rate()),
                   util::TablePrinter::pct(study.measured_large->failure_rate())});
  }
  table.print();
  std::cout << "\nfine-tuned: " << (study.prediction.fine_tuned ? "yes" : "no")
            << "; parallel-unique fraction: "
            << util::TablePrinter::pct(study.prob_unique, 2) << "\n";
  using telemetry::Counter;
  std::cout << "golden cache: "
            << study.metrics.value(Counter::HarnessGoldenHits) << " hits, "
            << study.metrics.value(Counter::HarnessGoldenMisses)
            << " misses, " << study.metrics.value(Counter::HarnessGoldenWaits)
            << " waits; checkpoint fast path: "
            << study.metrics.value(Counter::HarnessCheckpointRestores)
            << " restores, "
            << study.metrics.value(Counter::HarnessEarlyExits)
            << " early exits\n";
  if (ci_resamples > 0) {
    // Resampled over the common-computation model inputs (sweep + small
    // scale); the unique term contributes little to the variance.
    core::BootstrapOptions bopts;
    bopts.resamples = ci_resamples;
    const auto interval = core::bootstrap_prediction(
        study.sweep, study.small, core::PredictorOptions{}, cfg.large_p,
        bopts);
    std::cout << "bootstrap 95% CI on predicted success (" << ci_resamples
              << " resamples): [" << util::TablePrinter::pct(interval.lo)
              << ", " << util::TablePrinter::pct(interval.hi) << "]\n";
  }
  if (study.measured_large) {
    std::cout << "success prediction error: "
              << util::TablePrinter::pct(study.success_error()) << "\n";
  }
  if (!study.adaptive_phases.empty()) {
    std::size_t requested = 0, executed = 0;
    for (const auto& rec : study.adaptive_phases) {
      requested += rec.stats.trials_requested;
      executed += rec.stats.trials_executed;
    }
    std::cout << "adaptive: " << executed << "/" << requested
              << " trials across " << study.adaptive_phases.size()
              << " deployments";
    if (study.measured_adaptive) {
      const auto& a = *study.measured_adaptive;
      std::cout << "; measured success 95% CI ["
                << util::TablePrinter::pct(a.success.lo) << ", "
                << util::TablePrinter::pct(a.success.hi) << "]";
    }
    std::cout << "\n";
    if (study.accuracy_gate_flagged()) {
      std::cout << "ACCURACY GATE: prediction falls outside the measured "
                   "success-rate CI envelope — unvalidated at this trial "
                   "budget\n";
    }
  }
  telemetry_out.finish(study.metrics);
  return 0;
}

int cmd_propagation(Args& args) {
  const auto app = apps::make_app(apps::parse_app_id(args.get("app", "CG")),
                                  args.get("class", ""));
  const harness::DeploymentConfig dep = parse_deployment(args);
  const shard::ShardOptions shard_opts = parse_shard_options(args);
  TelemetryOutputs telemetry_out(args);
  args.check_consumed();

  const auto campaign = run_configured_campaign(*app, dep, shard_opts);
  std::cout << app->label() << " error propagation at " << dep.nranks
            << " ranks\n\n";
  util::TablePrinter table({"ranks contaminated", "tests", "r_x",
                            "conditional success"});
  const auto r = campaign.propagation_probabilities();
  for (int x = 1; x <= dep.nranks; ++x) {
    const auto& cond = campaign.by_contamination[static_cast<std::size_t>(x)];
    if (cond.trials == 0) continue;
    table.add_row({std::to_string(x), std::to_string(cond.trials),
                   util::TablePrinter::pct(r[static_cast<std::size_t>(x - 1)]),
                   util::TablePrinter::pct(cond.success_rate())});
  }
  table.print();
  print_adaptive(campaign);
  telemetry_out.finish(campaign.metrics);
  return 0;
}

int usage() {
  std::cerr << "usage: resilience "
               "<list|scenarios|campaign|predict|propagation> "
               "[options]\n(see the header of tools/resilience_cli.cpp)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Shard-worker re-exec: when the coordinator spawned this process with
  // --shard-worker=<fd>, run the worker protocol loop instead of the CLI.
  if (const int rc = resilience::shard::maybe_worker_main(argc, argv);
      rc >= 0) {
    return rc;
  }
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    Args args(argc, argv, 2);
    if (command == "list") return cmd_list();
    if (command == "scenarios") {
      args.check_consumed();
      return cmd_scenarios();
    }
    if (command == "campaign") return cmd_campaign(args);
    if (command == "predict") return cmd_predict(args);
    if (command == "propagation") return cmd_propagation(args);
    std::cerr << "error: unknown command '" << command << "'\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

#include "harness/serialize.hpp"

#include <fstream>
#include <sstream>


namespace resilience::harness {

namespace {

constexpr int kSchemaVersion = 1;

util::Json profile_to_json(const fsefi::OpCountProfile& prof) {
  util::JsonArray counts;
  for (const auto& row : prof.counts) {
    for (std::uint64_t c : row) counts.push_back(util::Json(c));
  }
  return util::Json(std::move(counts));
}

fsefi::OpCountProfile profile_from_json(const util::Json& json) {
  const auto& counts = json.as_array();
  constexpr std::size_t kCells =
      static_cast<std::size_t>(fsefi::kNumRegions) * fsefi::kNumOpKinds;
  if (counts.size() != kCells) {
    throw util::JsonError("op-count profile has the wrong shape");
  }
  fsefi::OpCountProfile prof;
  std::size_t i = 0;
  for (auto& row : prof.counts) {
    for (auto& cell : row) {
      cell = static_cast<std::uint64_t>(counts[i++].as_int());
    }
  }
  return prof;
}

util::Json to_json(const FaultInjectionResult& r) {
  util::JsonObject obj;
  obj["trials"] = util::Json(r.trials);
  obj["success"] = util::Json(r.success);
  obj["sdc"] = util::Json(r.sdc);
  obj["failure"] = util::Json(r.failure);
  // Optional key (schema stays at version 1): only fail-stop scenarios
  // produce Crash outcomes, so pre-scenario campaigns keep their exact
  // bytes.
  if (r.crash != 0) obj["crash"] = util::Json(r.crash);
  return util::Json(std::move(obj));
}

FaultInjectionResult result_from_json(const util::Json& json) {
  FaultInjectionResult r;
  r.trials = static_cast<std::size_t>(json.at("trials").as_int());
  r.success = static_cast<std::size_t>(json.at("success").as_int());
  r.sdc = static_cast<std::size_t>(json.at("sdc").as_int());
  r.failure = static_cast<std::size_t>(json.at("failure").as_int());
  const auto& obj = json.as_object();
  if (const auto it = obj.find("crash"); it != obj.end()) {
    r.crash = static_cast<std::size_t>(it->second.as_int());
  }
  if (r.success + r.sdc + r.failure + r.crash != r.trials) {
    throw util::JsonError("fault injection result counts are inconsistent");
  }
  return r;
}

util::Json to_json(const DeploymentConfig& cfg) {
  util::JsonObject obj;
  obj["nranks"] = util::Json(cfg.nranks);
  obj["errors_per_test"] = util::Json(cfg.errors_per_test);
  // The legacy triple is always emitted (derived from the scenario), so
  // pre-scenario configs keep their exact bytes and old tooling keeps
  // reading the filters it understands.
  obj["kinds"] = util::Json(static_cast<int>(cfg.scenario.kinds));
  obj["pattern"] = util::Json(static_cast<int>(cfg.scenario.pattern));
  obj["regions"] = util::Json(static_cast<int>(cfg.scenario.regions));
  obj["trials"] = util::Json(cfg.trials);
  obj["seed"] = util::Json(cfg.seed);
  obj["selection"] = util::Json(static_cast<int>(cfg.selection));
  // Optional block: only scenarios the legacy triple cannot express carry
  // the full descriptor.
  if (!cfg.scenario.legacy()) {
    util::JsonObject sc;
    sc["domain"] = util::Json(static_cast<int>(cfg.scenario.domain));
    sc["pattern"] = util::Json(static_cast<int>(cfg.scenario.pattern));
    sc["arrival"] = util::Json(static_cast<int>(cfg.scenario.arrival));
    sc["kinds"] = util::Json(static_cast<int>(cfg.scenario.kinds));
    sc["regions"] = util::Json(static_cast<int>(cfg.scenario.regions));
    sc["mtbf_factor"] = util::Json(cfg.scenario.mtbf_factor);
    obj["scenario"] = util::Json(std::move(sc));
  }
  return util::Json(std::move(obj));
}

util::Json to_json(const OutcomeInterval& iv) {
  util::JsonObject obj;
  obj["rate"] = util::Json(iv.rate);
  obj["lo"] = util::Json(iv.lo);
  obj["hi"] = util::Json(iv.hi);
  obj["exact"] = util::Json(iv.exact);
  return util::Json(std::move(obj));
}

OutcomeInterval interval_from_json(const util::Json& json) {
  OutcomeInterval iv;
  iv.rate = json.at("rate").as_double();
  iv.lo = json.at("lo").as_double();
  iv.hi = json.at("hi").as_double();
  iv.exact = json.at("exact").as_bool();
  return iv;
}

util::Json to_json(const AdaptiveStats& stats) {
  util::JsonObject obj;
  obj["trials_requested"] = util::Json(stats.trials_requested);
  obj["trials_executed"] = util::Json(stats.trials_executed);
  obj["stop_reason"] = util::Json(static_cast<int>(stats.stop_reason));
  obj["stratified"] = util::Json(stats.stratified);
  obj["strata"] = util::Json(stats.strata);
  obj["success"] = to_json(stats.success);
  obj["sdc"] = to_json(stats.sdc);
  obj["failure"] = to_json(stats.failure);
  util::JsonArray propagation;
  for (double v : stats.propagation) propagation.push_back(util::Json(v));
  obj["propagation"] = util::Json(std::move(propagation));
  return util::Json(std::move(obj));
}

AdaptiveStats adaptive_from_json(const util::Json& json) {
  AdaptiveStats stats;
  stats.trials_requested =
      static_cast<std::size_t>(json.at("trials_requested").as_int());
  stats.trials_executed =
      static_cast<std::size_t>(json.at("trials_executed").as_int());
  stats.stop_reason = static_cast<StopReason>(json.at("stop_reason").as_int());
  stats.stratified = json.at("stratified").as_bool();
  stats.strata = static_cast<std::size_t>(json.at("strata").as_int());
  stats.success = interval_from_json(json.at("success"));
  stats.sdc = interval_from_json(json.at("sdc"));
  stats.failure = interval_from_json(json.at("failure"));
  for (const auto& item : json.at("propagation").as_array()) {
    stats.propagation.push_back(item.as_double());
  }
  return stats;
}

DeploymentConfig config_from_json(const util::Json& json) {
  DeploymentConfig cfg;
  cfg.nranks = static_cast<int>(json.at("nranks").as_int());
  cfg.errors_per_test = static_cast<int>(json.at("errors_per_test").as_int());
  cfg.trials = static_cast<std::size_t>(json.at("trials").as_int());
  cfg.seed = static_cast<std::uint64_t>(json.at("seed").as_int());
  cfg.selection =
      static_cast<TargetSelection>(json.at("selection").as_int());
  const auto& obj = json.as_object();
  if (const auto it = obj.find("scenario"); it != obj.end()) {
    const auto& sc = it->second;
    cfg.scenario.domain =
        static_cast<fsefi::FaultDomain>(sc.at("domain").as_int());
    cfg.scenario.pattern =
        static_cast<fsefi::FaultPattern>(sc.at("pattern").as_int());
    cfg.scenario.arrival =
        static_cast<fsefi::ArrivalModel>(sc.at("arrival").as_int());
    cfg.scenario.kinds = static_cast<fsefi::KindMask>(sc.at("kinds").as_int());
    cfg.scenario.regions =
        static_cast<fsefi::RegionMask>(sc.at("regions").as_int());
    cfg.scenario.mtbf_factor = sc.at("mtbf_factor").as_double();
  } else {
    // Pre-scenario file: the legacy triple is the whole description — an
    // implicit register-operand, fixed-arrival scenario.
    cfg.scenario.kinds = static_cast<fsefi::KindMask>(json.at("kinds").as_int());
    cfg.scenario.pattern =
        static_cast<fsefi::FaultPattern>(json.at("pattern").as_int());
    cfg.scenario.regions =
        static_cast<fsefi::RegionMask>(json.at("regions").as_int());
  }
  return cfg;
}

}  // namespace

util::Json to_json(const CampaignResult& result) {
  util::JsonObject obj;
  obj["version"] = util::Json(kSchemaVersion);
  obj["config"] = to_json(result.config);
  obj["overall"] = to_json(result.overall);

  util::JsonArray hist;
  for (std::size_t count : result.contamination_hist) {
    hist.push_back(util::Json(count));
  }
  obj["contamination_hist"] = util::Json(std::move(hist));

  util::JsonArray conditional;
  for (const auto& cond : result.by_contamination) {
    conditional.push_back(to_json(cond));
  }
  obj["by_contamination"] = util::Json(std::move(conditional));

  util::JsonObject golden;
  {
    util::JsonArray signature;
    for (double v : result.golden.signature) signature.push_back(util::Json(v));
    golden["signature"] = util::Json(std::move(signature));
    golden["max_rank_ops"] = util::Json(result.golden.max_rank_ops);
    util::JsonArray profiles;
    for (const auto& prof : result.golden.profiles) {
      profiles.push_back(profile_to_json(prof));
    }
    golden["profiles"] = util::Json(std::move(profiles));
    // Optional key: only non-legacy scenarios need the delivered-Real
    // counts (the payload sample space) to rerun from a saved file, and
    // omitting it keeps pre-scenario campaign files byte-identical.
    if (!result.config.scenario.legacy()) {
      util::JsonArray recv;
      for (std::uint64_t c : result.golden.recv_reals) {
        recv.push_back(util::Json(c));
      }
      golden["recv_reals"] = util::Json(std::move(recv));
    }
  }
  obj["golden"] = util::Json(std::move(golden));
  obj["wall_seconds"] = util::Json(result.wall_seconds);
  // Optional block (schema stays at version 1): present only for
  // adaptive runs, so fixed-campaign files are byte-identical to those of
  // builds without the adaptive engine.
  if (result.adaptive) obj["adaptive"] = to_json(*result.adaptive);
  return util::Json(std::move(obj));
}

CampaignResult campaign_from_json(const util::Json& json) {
  if (json.at("version").as_int() != kSchemaVersion) {
    throw util::JsonError("unsupported campaign schema version");
  }
  CampaignResult result;
  result.config = config_from_json(json.at("config"));
  result.overall = result_from_json(json.at("overall"));

  for (const auto& item : json.at("contamination_hist").as_array()) {
    result.contamination_hist.push_back(
        static_cast<std::size_t>(item.as_int()));
  }
  for (const auto& item : json.at("by_contamination").as_array()) {
    result.by_contamination.push_back(result_from_json(item));
  }
  if (result.contamination_hist.size() !=
          static_cast<std::size_t>(result.config.nranks) + 1 ||
      result.by_contamination.size() != result.contamination_hist.size()) {
    throw util::JsonError("contamination data has the wrong shape");
  }

  const auto& golden = json.at("golden");
  for (const auto& item : golden.at("signature").as_array()) {
    result.golden.signature.push_back(item.as_double());
  }
  result.golden.max_rank_ops =
      static_cast<std::uint64_t>(golden.at("max_rank_ops").as_int());
  for (const auto& item : golden.at("profiles").as_array()) {
    result.golden.profiles.push_back(profile_from_json(item));
  }
  const auto& golden_obj = golden.as_object();
  if (const auto it = golden_obj.find("recv_reals"); it != golden_obj.end()) {
    for (const auto& item : it->second.as_array()) {
      result.golden.recv_reals.push_back(
          static_cast<std::uint64_t>(item.as_int()));
    }
  }
  result.wall_seconds = json.at("wall_seconds").as_double();
  const auto& obj = json.as_object();
  if (const auto it = obj.find("adaptive"); it != obj.end()) {
    result.adaptive = adaptive_from_json(it->second);
  }
  return result;
}

void save_campaign(const std::string& path, const CampaignResult& result) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write campaign to " + path);
  out << to_json(result).dump(2) << '\n';
}

CampaignResult load_campaign(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read campaign from " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return campaign_from_json(util::Json::parse(buffer.str()));
}

}  // namespace resilience::harness

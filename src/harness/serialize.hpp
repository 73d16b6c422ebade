// Campaign persistence: serialize campaign results to JSON and load them
// back, so expensive fault-injection campaigns (the serial sweeps and
// small-scale profiles the model consumes) can be collected once —
// possibly on another machine — and reused across studies.
#pragma once

#include <string>

#include "harness/campaign.hpp"
#include "util/json.hpp"

namespace resilience::harness {

/// Campaign -> JSON value (schema versioned via a "version" field).
util::Json to_json(const CampaignResult& result);

/// JSON value -> campaign; throws util::JsonError on schema mismatch.
CampaignResult campaign_from_json(const util::Json& json);

/// Write a campaign to `path` (pretty-printed); throws std::runtime_error
/// on I/O failure.
void save_campaign(const std::string& path, const CampaignResult& result);

/// Load a campaign from `path`; throws std::runtime_error on I/O failure
/// and util::JsonError on malformed content.
CampaignResult load_campaign(const std::string& path);

}  // namespace resilience::harness

// Sharded campaign execution (DESIGN.md §13): wire protocol round trips,
// coordinator/worker end-to-end determinism against the in-process
// runner, worker-crash recovery, and golden-store reuse.
//
// This binary has a custom main: the coordinator re-execs the test binary
// itself as its worker processes (--shard-worker=<fd>), so main must
// route to the worker loop before gtest ever sees argv.
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "harness/campaign.hpp"
#include "harness/campaign_engine.hpp"
#include "harness/serialize.hpp"
#include "shard/coordinator.hpp"
#include "shard/protocol.hpp"
#include "shard/worker.hpp"
#include "telemetry/telemetry.hpp"
#include "util/binio.hpp"

namespace {

using namespace resilience;

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("resilience-shardtest-" + tag + "-" +
                    std::to_string(::getpid()) + "-" +
                    std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return dir.string();
}

harness::DeploymentConfig small_config(std::size_t trials) {
  harness::DeploymentConfig dep;
  dep.nranks = 4;
  dep.trials = trials;
  return dep;
}

std::string normalized_dump(harness::CampaignResult result) {
  result.wall_seconds = 0.0;  // the only timing-born field in the schema
  return harness::to_json(result).dump();
}

// Every execution-relevant deployment field, one by one: a codec that
// dropped any of them would run a different TrialSpace on the worker.
void expect_same_deployment(const harness::DeploymentConfig& a,
                            const harness::DeploymentConfig& b) {
  EXPECT_EQ(a.nranks, b.nranks);
  EXPECT_EQ(a.errors_per_test, b.errors_per_test);
  EXPECT_TRUE(a.scenario == b.scenario);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.selection, b.selection);
  EXPECT_EQ(a.hang_budget_factor, b.hang_budget_factor);
  EXPECT_EQ(a.hang_budget_slack, b.hang_budget_slack);
  EXPECT_EQ(a.max_workers, b.max_workers);
  EXPECT_EQ(a.adaptive.enabled, b.adaptive.enabled);
  EXPECT_EQ(a.adaptive.batch, b.adaptive.batch);
  EXPECT_EQ(a.adaptive.min_trials, b.adaptive.min_trials);
  EXPECT_EQ(a.adaptive.ci_half_width, b.adaptive.ci_half_width);
  EXPECT_EQ(a.adaptive.ci_relative, b.adaptive.ci_relative);
  EXPECT_EQ(a.adaptive.confidence_z, b.adaptive.confidence_z);
  EXPECT_EQ(a.adaptive.rare_threshold, b.adaptive.rare_threshold);
  EXPECT_EQ(a.adaptive.stratify, b.adaptive.stratify);
  EXPECT_EQ(a.adaptive.deciles, b.adaptive.deciles);
}

TEST(ShardProtocol, FramesRoundTripOverSocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  const std::vector<std::byte> sent = {std::byte{7}, std::byte{0},
                                       std::byte{0xFF}, std::byte{42}};
  shard::write_frame_bytes(sv[0], sent, "test frame");
  shard::write_frame_bytes(sv[0], {}, "empty frame");
  const auto got = shard::read_frame_bytes(sv[1]);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, sent);
  const auto empty = shard::read_frame_bytes(sv[1]);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());

  ::close(sv[0]);  // EOF at a frame boundary: clean nullopt
  EXPECT_FALSE(shard::read_frame_bytes(sv[1]).has_value());
  ::close(sv[1]);
}

TEST(ShardProtocol, TruncatedFrameThrows) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const unsigned char partial[] = {200, 0, 0, 0, 'x'};  // claims 200 bytes
  ASSERT_EQ(::write(sv[0], partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  ::close(sv[0]);
  EXPECT_THROW((void)shard::read_frame_bytes(sv[1]), std::runtime_error);
  ::close(sv[1]);
}

TEST(ShardProtocol, RefsKeepNoStratumAndConfigFullFidelity) {
  shard::UnitMsg unit;
  unit.refs = {{harness::kNoStratum, 3, 3}, {42, 7, 11}};
  const auto decoded =
      shard::decode_message(shard::encode_message(shard::Message(unit)));
  const auto& back = std::get<shard::UnitMsg>(decoded).refs;
  ASSERT_EQ(back.size(), unit.refs.size());
  for (std::size_t i = 0; i < unit.refs.size(); ++i) {
    EXPECT_EQ(back[i].stratum, unit.refs[i].stratum);
    EXPECT_EQ(back[i].index, unit.refs[i].index);
    EXPECT_EQ(back[i].tag, unit.refs[i].tag);
  }

  harness::DeploymentConfig dep = small_config(17);
  dep.errors_per_test = 2;
  dep.seed = 99;
  dep.adaptive.enabled = true;
  dep.adaptive.batch = 5;
  dep.adaptive.ci_half_width = 0.05;
  dep.scenario.mtbf_factor = 3.5;
  shard::InitMsg init;
  init.config = dep;
  const auto init_back =
      shard::decode_message(shard::encode_message(shard::Message(init)));
  expect_same_deployment(std::get<shard::InitMsg>(init_back).config, dep);
}

// ---- binary wire protocol ---------------------------------------------

telemetry::MetricsSnapshot sample_metrics() {
  telemetry::MetricsSnapshot m;
  m.counters[0] = 7;
  m.counters[telemetry::kCounterCount - 1] = 0xDEADBEEFCAFEull;
  m.histograms[0].buckets[0] = 1;
  m.histograms[telemetry::kHistogramCount - 1]
      .buckets[telemetry::kHistogramBuckets - 1] = 42;
  return m;
}

shard::Message round_trip(const shard::Message& message) {
  return shard::decode_message(shard::encode_message(message));
}

// Every message kind: decode(encode(m)) == m, field by field — including
// the adaptive engine parameters and kNoStratum refs that only a
// full-fidelity codec preserves.
TEST(ShardWire, EveryMessageKindRoundTrips) {
  shard::InitMsg init;
  init.app = "CG";
  init.size_class = "small";
  init.config = small_config(17);
  init.config.errors_per_test = 2;
  init.config.seed = 99;
  init.config.hang_budget_factor = 2.5;
  init.config.adaptive.enabled = true;
  init.config.adaptive.batch = 5;
  init.config.adaptive.ci_half_width = 0.05;
  init.store = "/tmp/store";
  init.kill_after_units = 3;

  shard::UnitMsg unit;
  unit.id = 12;
  unit.refs = {{harness::kNoStratum, 3, 3}, {42, 7, 11}};

  shard::ResultMsg result;
  result.id = 12;
  result.outcomes = {{harness::Outcome::Success, 0},
                     {harness::Outcome::SDC, 5},
                     {harness::Outcome::Failure, 2},
                     {harness::Outcome::Crash, 1}};
  result.wall_seconds = 1.25;
  result.metrics = sample_metrics();

  const auto init_back = round_trip(init);
  const auto* i = std::get_if<shard::InitMsg>(&init_back);
  ASSERT_NE(i, nullptr);
  EXPECT_EQ(i->app, init.app);
  EXPECT_EQ(i->size_class, init.size_class);
  EXPECT_EQ(i->store, init.store);
  EXPECT_EQ(i->kill_after_units, init.kill_after_units);
  expect_same_deployment(i->config, init.config);

  const auto ready_back = round_trip(shard::ReadyMsg{sample_metrics()});
  const auto* rd = std::get_if<shard::ReadyMsg>(&ready_back);
  ASSERT_NE(rd, nullptr);
  EXPECT_TRUE(rd->metrics.counters == sample_metrics().counters);
  EXPECT_TRUE(rd->metrics.histograms == sample_metrics().histograms);

  const auto unit_back = round_trip(unit);
  const auto* u = std::get_if<shard::UnitMsg>(&unit_back);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->id, unit.id);
  ASSERT_EQ(u->refs.size(), unit.refs.size());
  for (std::size_t r = 0; r < unit.refs.size(); ++r) {
    EXPECT_EQ(u->refs[r].stratum, unit.refs[r].stratum);
    EXPECT_EQ(u->refs[r].index, unit.refs[r].index);
    EXPECT_EQ(u->refs[r].tag, unit.refs[r].tag);
  }

  const auto result_back = round_trip(result);
  const auto* res = std::get_if<shard::ResultMsg>(&result_back);
  ASSERT_NE(res, nullptr);
  EXPECT_EQ(res->id, result.id);
  EXPECT_EQ(res->wall_seconds, result.wall_seconds);
  ASSERT_EQ(res->outcomes.size(), result.outcomes.size());
  for (std::size_t r = 0; r < result.outcomes.size(); ++r) {
    EXPECT_EQ(res->outcomes[r].outcome, result.outcomes[r].outcome);
    EXPECT_EQ(res->outcomes[r].contaminated, result.outcomes[r].contaminated);
  }
  EXPECT_TRUE(res->metrics.counters == result.metrics.counters);
  EXPECT_TRUE(res->metrics.histograms == result.metrics.histograms);

  const auto err_back = round_trip(shard::ErrorMsg{"boom"});
  const auto* err = std::get_if<shard::ErrorMsg>(&err_back);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->message, "boom");

  EXPECT_TRUE(std::holds_alternative<shard::ShutdownMsg>(
      round_trip(shard::ShutdownMsg{})));
}

// A hostile element count must throw before anything is sized: a 17-byte
// Unit (tag, id, count) or Result payload claiming 2^40 elements would
// otherwise ask for tens of terabytes.
TEST(ShardWire, DecoderRejectsCountsThePayloadCannotHold) {
  for (const std::uint8_t tag : {std::uint8_t{3}, std::uint8_t{4}}) {
    SCOPED_TRACE(static_cast<int>(tag));
    util::BinWriter w;
    w.u8(tag);  // Unit / Result
    w.u64(12);
    w.u64(std::uint64_t{1} << 40);
    const auto payload = std::move(w).take();
    ASSERT_EQ(payload.size(), 17u);
    EXPECT_THROW((void)shard::decode_message(payload), util::BinError);
  }
}

TEST(ShardWire, DecoderRejectsAnOutcomeOutsideTheEnum) {
  shard::ResultMsg result;
  result.outcomes = {{harness::Outcome::SDC, 1}};
  auto payload = shard::encode_message(shard::Message(result));
  payload[1 + 8 + 8] = std::byte{4};  // first outcome byte: one past Crash
  EXPECT_THROW((void)shard::decode_message(payload), util::BinError);
}

TEST(ShardWire, HandshakeRoundTripsAndRejectsNonHandshakes) {
  const auto hs = shard::parse_handshake(shard::encode_handshake());
  ASSERT_TRUE(hs.has_value());
  EXPECT_EQ(hs->version, shard::kShardProtocolVersion);
  // An error frame from a bailing worker is not a handshake — nullopt,
  // not a throw, so the caller can decode it for its message.
  const auto error_payload =
      shard::encode_message(shard::Message(shard::ErrorMsg{"bad"}));
  EXPECT_FALSE(shard::parse_handshake(error_payload).has_value());
  EXPECT_FALSE(shard::parse_handshake({}).has_value());
}

TEST(ShardWire, ReadHandshakeRejectsVersionMismatchOverSocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  auto payload = shard::encode_handshake();
  payload[4] = std::byte{99};  // version field, little-endian low byte
  shard::write_frame_bytes(sv[0], payload, "test handshake");
  try {
    (void)shard::read_handshake(sv[1]);
    FAIL() << "version mismatch not rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("99"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(shard::kShardProtocolVersion)),
              std::string::npos)
        << what;
  }
  ::close(sv[0]);
  ::close(sv[1]);
}

// A coordinator of protocol version 4 (magic, u32 version, and the
// wire-format byte that version carried) gets the protocol-version error
// from a worker, not a misparse: the worker answers with an error frame
// and exits non-zero.
TEST(ShardWorker, Version4HandshakeFailsWithTheProtocolVersionError) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::string prog = "worker";
  std::string fd_arg = "--shard-worker=" + std::to_string(sv[1]);
  char* argv[] = {prog.data(), fd_arg.data(), nullptr};
  int rc = -1;
  std::thread worker([&] { rc = shard::maybe_worker_main(2, argv); });

  util::BinWriter v4;
  for (const char c : {'R', 'S', 'W', 'H'}) v4.u8(static_cast<std::uint8_t>(c));
  v4.u32(4);
  v4.u8(1);  // v4's wire-format byte (binary)
  shard::write_frame_bytes(sv[0], std::move(v4).take(), "v4 handshake");
  const auto reply = shard::read_message(sv[0]);
  worker.join();

  EXPECT_EQ(rc, 1);
  ASSERT_TRUE(reply.has_value());
  const auto* err = std::get_if<shard::ErrorMsg>(&*reply);
  ASSERT_NE(err, nullptr);
  EXPECT_NE(err->message.find("protocol version 4"), std::string::npos)
      << err->message;
  EXPECT_NE(err->message.find(
                "speaks " + std::to_string(shard::kShardProtocolVersion)),
            std::string::npos)
      << err->message;
  ::close(sv[0]);
  ::close(sv[1]);
}

// The oversize error names the frame kind, unit id, and byte count —
// enough to tell a corrupt length prefix from a genuinely huge unit.
TEST(ShardWire, FrameCapErrorNamesFrameKindUnitAndByteCount) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string cap = std::to_string(shard::kFrameCapBytes);

  // Write side: a payload one byte over the cap. The mapping is reserved
  // but never touched, so the check costs no memory; nothing is written
  // to the socket.
  const std::size_t oversize = shard::kFrameCapBytes + 1;
  void* mapping = ::mmap(nullptr, oversize, PROT_READ,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(mapping, MAP_FAILED);
  try {
    shard::write_frame_bytes(
        sv[0],
        std::span<const std::byte>(static_cast<const std::byte*>(mapping),
                                   oversize),
        "\"unit\" frame for unit 77");
    ADD_FAILURE() << "oversize frame not rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"unit\" frame for unit 77"), std::string::npos)
        << what;
    EXPECT_NE(what.find(std::to_string(oversize) + " bytes"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(cap + "-byte frame cap"), std::string::npos) << what;
  }
  ::munmap(mapping, oversize);

  // Read side: a corrupt length prefix over the cap throws before any
  // allocation, naming the cap.
  const unsigned char huge_prefix[] = {0, 0, 0, 0x7F};  // ~2 GiB claimed
  ASSERT_EQ(::write(sv[0], huge_prefix, sizeof(huge_prefix)),
            static_cast<ssize_t>(sizeof(huge_prefix)));
  try {
    (void)shard::read_frame_bytes(sv[1]);
    FAIL() << "oversize prefix not rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(cap + "-byte frame cap"), std::string::npos) << what;
  }
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ShardCampaign, FixedShardedMatchesInProcess) {
  const auto app = apps::make_app(apps::AppId::CG);
  const harness::DeploymentConfig dep = small_config(24);

  const auto baseline = harness::CampaignRunner::run(*app, dep);

  shard::ShardOptions opts;
  opts.shards = 3;
  const auto sharded = shard::run_sharded_campaign(*app, dep, opts);

  EXPECT_EQ(normalized_dump(sharded), normalized_dump(baseline));
  EXPECT_TRUE(sharded.metrics.logical_equal(baseline.metrics));
  EXPECT_GE(sharded.metrics.value(telemetry::Counter::ShardUnitsDispatched),
            3u);
  EXPECT_EQ(sharded.metrics.value(telemetry::Counter::HarnessCampaigns), 1u);
  EXPECT_EQ(sharded.metrics.value(telemetry::Counter::HarnessGoldenProfiles),
            1u);
}

TEST(ShardCampaign, AdaptiveShardedMatchesInProcess) {
  const auto app = apps::make_app(apps::AppId::CG);
  harness::DeploymentConfig dep = small_config(48);
  dep.adaptive.enabled = true;
  dep.adaptive.batch = 8;
  dep.adaptive.min_trials = 16;

  const auto baseline = harness::CampaignRunner::run(*app, dep);

  shard::ShardOptions opts;
  opts.shards = 2;
  const auto sharded = shard::run_sharded_campaign(*app, dep, opts);

  EXPECT_EQ(normalized_dump(sharded), normalized_dump(baseline));
  EXPECT_TRUE(sharded.metrics.logical_equal(baseline.metrics));
  ASSERT_TRUE(sharded.adaptive.has_value());
  EXPECT_EQ(sharded.adaptive->trials_executed,
            baseline.adaptive->trials_executed);
  EXPECT_EQ(sharded.adaptive->stop_reason, baseline.adaptive->stop_reason);
}

// A worker SIGKILLed mid-campaign (before reporting its unit) must not
// perturb the result: the unit is re-run elsewhere bit-identically, and
// the lost process's unreported counts never reach the merged metrics.
TEST(ShardCampaign, KilledWorkerRecoversBitIdentically) {
  const auto app = apps::make_app(apps::AppId::CG);
  const harness::DeploymentConfig dep = small_config(24);

  const auto baseline = harness::CampaignRunner::run(*app, dep);

  shard::ShardOptions opts;
  opts.shards = 2;
  opts.debug_kill_unit = 0;  // worker 0 dies before its first result
  const auto sharded = shard::run_sharded_campaign(*app, dep, opts);

  EXPECT_EQ(normalized_dump(sharded), normalized_dump(baseline));
  EXPECT_TRUE(sharded.metrics.logical_equal(baseline.metrics));
  EXPECT_GE(sharded.metrics.value(telemetry::Counter::ShardWorkerRestarts),
            1u);
}

TEST(ShardCampaign, GoldenStoreServesSecondInvocation) {
  const auto app = apps::make_app(apps::AppId::CG);
  const harness::DeploymentConfig dep = small_config(12);
  shard::ShardOptions opts;
  opts.shards = 2;
  opts.golden_store_dir = fresh_dir("persist");

  const auto first = shard::run_sharded_campaign(*app, dep, opts);
  const auto second = shard::run_sharded_campaign(*app, dep, opts);

  EXPECT_EQ(normalized_dump(first), normalized_dump(second));
  EXPECT_EQ(first.metrics.value(telemetry::Counter::HarnessGoldenProfiles),
            1u);
  // Second invocation: nobody re-profiles — coordinator and both workers
  // all hit the persisted file.
  EXPECT_EQ(second.metrics.value(telemetry::Counter::HarnessGoldenProfiles),
            0u);
  EXPECT_GE(second.metrics.value(telemetry::Counter::GoldenStoreHits), 3u);
  std::filesystem::remove_all(opts.golden_store_dir);
}

}  // namespace

int main(int argc, char** argv) {
  // Worker re-exec path: must run before gtest touches the arguments.
  if (const int rc = resilience::shard::maybe_worker_main(argc, argv);
      rc >= 0) {
    return rc;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

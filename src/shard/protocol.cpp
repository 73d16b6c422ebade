#include "shard/protocol.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "telemetry/sinks.hpp"
#include "util/binio.hpp"

namespace resilience::shard {

namespace {

constexpr char kHandshakeMagic[4] = {'R', 'S', 'W', 'H'};
constexpr std::size_t kHandshakeSize = 8;  // magic + u32 version

void write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("shard: write failed: ") +
                               std::strerror(errno));
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// Read exactly `size` bytes. Returns false on EOF before the first byte;
/// throws on EOF mid-buffer.
bool read_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, p + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("shard: read failed: ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0) return false;
      throw std::runtime_error("shard: peer closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

// ---- message payloads -----------------------------------------------------

/// Wire size of one element of the Unit and Result arrays: decoders
/// check a claimed count against the payload before sizing anything.
constexpr std::size_t kRefWireBytes = 3 * 8;      // stratum, index, tag
constexpr std::size_t kOutcomeWireBytes = 1 + 4;  // outcome, contaminated

enum MsgTag : std::uint8_t {
  kTagInit = 1,
  kTagReady = 2,
  kTagUnit = 3,
  kTagResult = 4,
  kTagError = 5,
  kTagShutdown = 6,
};

void write_deployment(util::BinWriter& w,
                      const harness::DeploymentConfig& c) {
  w.i32(c.nranks);
  w.i32(c.errors_per_test);
  w.u8(static_cast<std::uint8_t>(c.scenario.domain));
  w.u8(static_cast<std::uint8_t>(c.scenario.pattern));
  w.u8(static_cast<std::uint8_t>(c.scenario.arrival));
  w.u32(static_cast<std::uint32_t>(c.scenario.kinds));
  w.u32(static_cast<std::uint32_t>(c.scenario.regions));
  w.f64(c.scenario.mtbf_factor);
  w.u64(c.trials);
  w.u64(c.seed);
  w.u32(static_cast<std::uint32_t>(c.selection));
  w.f64(c.hang_budget_factor);
  w.u64(c.hang_budget_slack);
  w.i32(c.max_workers);
  const harness::AdaptiveConfig& ad = c.adaptive;
  w.u8(ad.enabled ? 1 : 0);
  w.u64(ad.batch);
  w.u64(ad.min_trials);
  w.f64(ad.ci_half_width);
  w.f64(ad.ci_relative);
  w.f64(ad.confidence_z);
  w.f64(ad.rare_threshold);
  w.u8(ad.stratify ? 1 : 0);
  w.i32(ad.deciles);
}

harness::DeploymentConfig read_deployment(util::BinReader& r) {
  harness::DeploymentConfig c;
  c.nranks = r.i32();
  c.errors_per_test = r.i32();
  c.scenario.domain = static_cast<fsefi::FaultDomain>(r.u8());
  c.scenario.pattern = static_cast<fsefi::FaultPattern>(r.u8());
  c.scenario.arrival = static_cast<fsefi::ArrivalModel>(r.u8());
  c.scenario.kinds = static_cast<fsefi::KindMask>(r.u32());
  c.scenario.regions = static_cast<fsefi::RegionMask>(r.u32());
  c.scenario.mtbf_factor = r.f64();
  c.trials = r.u64();
  c.seed = r.u64();
  c.selection = static_cast<harness::TargetSelection>(r.u32());
  c.hang_budget_factor = r.f64();
  c.hang_budget_slack = r.u64();
  c.max_workers = r.i32();
  harness::AdaptiveConfig& ad = c.adaptive;
  ad.enabled = r.u8() != 0;
  ad.batch = r.u64();
  ad.min_trials = r.u64();
  ad.ci_half_width = r.f64();
  ad.ci_relative = r.f64();
  ad.confidence_z = r.f64();
  ad.rare_threshold = r.f64();
  ad.stratify = r.u8() != 0;
  ad.deciles = r.i32();
  return c;
}

/// Counter/histogram arrays as raw little-endian u64s, with the table
/// shapes up front: the handshake's version check already guarantees both
/// sides index the same telemetry tables, but a shape mismatch still
/// fails loudly instead of scrambling counters.
void write_metrics(util::BinWriter& w,
                   const telemetry::MetricsSnapshot& m) {
  w.u32(static_cast<std::uint32_t>(telemetry::kCounterCount));
  w.u64_array(m.counters);
  w.u32(static_cast<std::uint32_t>(telemetry::kHistogramCount));
  w.u32(static_cast<std::uint32_t>(telemetry::kHistogramBuckets));
  for (const telemetry::HistogramData& h : m.histograms) {
    w.u64_array(h.buckets);
  }
}

telemetry::MetricsSnapshot read_metrics(util::BinReader& r) {
  telemetry::MetricsSnapshot m;
  if (r.u32() != telemetry::kCounterCount) {
    throw util::BinError("shard: metrics counter table shape mismatch");
  }
  r.u64_array(m.counters);
  if (r.u32() != telemetry::kHistogramCount ||
      r.u32() != telemetry::kHistogramBuckets) {
    throw util::BinError("shard: metrics histogram table shape mismatch");
  }
  for (telemetry::HistogramData& h : m.histograms) {
    r.u64_array(h.buckets);
  }
  return m;
}

const char* message_kind(const Message& message) {
  if (std::holds_alternative<InitMsg>(message)) return "init";
  if (std::holds_alternative<ReadyMsg>(message)) return "ready";
  if (std::holds_alternative<UnitMsg>(message)) return "unit";
  if (std::holds_alternative<ResultMsg>(message)) return "result";
  if (std::holds_alternative<ErrorMsg>(message)) return "error";
  return "shutdown";
}

/// Frame-kind + unit-id context for the oversize error — the bug report
/// writes itself instead of a bare "frame too large".
std::string message_context(const Message& message) {
  std::string context = std::string("\"") + message_kind(message) + "\" frame";
  if (const auto* unit = std::get_if<UnitMsg>(&message)) {
    context += " for unit " + std::to_string(unit->id);
  } else if (const auto* result = std::get_if<ResultMsg>(&message)) {
    context += " for unit " + std::to_string(result->id);
  }
  return context;
}

}  // namespace

std::vector<std::byte> encode_message(const Message& message) {
  util::BinWriter w;
  if (const auto* init = std::get_if<InitMsg>(&message)) {
    w.u8(kTagInit);
    w.str(init->app);
    w.str(init->size_class);
    w.str(init->store);
    w.i32(init->kill_after_units);
    write_deployment(w, init->config);
  } else if (const auto* ready = std::get_if<ReadyMsg>(&message)) {
    w.u8(kTagReady);
    write_metrics(w, ready->metrics);
  } else if (const auto* unit = std::get_if<UnitMsg>(&message)) {
    w.u8(kTagUnit);
    w.u64(unit->id);
    w.u64(unit->refs.size());
    for (const harness::TrialRef& ref : unit->refs) {
      w.u64(ref.stratum);
      w.u64(ref.index);
      w.u64(ref.tag);
    }
  } else if (const auto* result = std::get_if<ResultMsg>(&message)) {
    w.u8(kTagResult);
    w.u64(result->id);
    w.u64(result->outcomes.size());
    for (const harness::TrialResult& t : result->outcomes) {
      w.u8(static_cast<std::uint8_t>(t.outcome));
      w.i32(t.contaminated);
    }
    w.f64(result->wall_seconds);
    write_metrics(w, result->metrics);
  } else if (const auto* error = std::get_if<ErrorMsg>(&message)) {
    w.u8(kTagError);
    w.str(error->message);
  } else {
    w.u8(kTagShutdown);
  }
  return std::move(w).take();
}

Message decode_message(std::span<const std::byte> payload) {
  util::BinReader r(payload);
  switch (r.u8()) {
    case kTagInit: {
      InitMsg m;
      m.app = r.str();
      m.size_class = r.str();
      m.store = r.str();
      m.kill_after_units = r.i32();
      m.config = read_deployment(r);
      return m;
    }
    case kTagReady: {
      ReadyMsg m;
      m.metrics = read_metrics(r);
      return m;
    }
    case kTagUnit: {
      UnitMsg m;
      m.id = r.u64();
      m.refs.resize(r.count(kRefWireBytes));
      for (harness::TrialRef& ref : m.refs) {
        ref.stratum = r.u64();
        ref.index = r.u64();
        ref.tag = r.u64();
      }
      return m;
    }
    case kTagResult: {
      ResultMsg m;
      m.id = r.u64();
      m.outcomes.resize(r.count(kOutcomeWireBytes));
      for (harness::TrialResult& t : m.outcomes) {
        const std::uint8_t outcome = r.u8();
        if (outcome > static_cast<std::uint8_t>(harness::Outcome::Crash)) {
          throw util::BinError("shard: outcome byte out of range");
        }
        t.outcome = static_cast<harness::Outcome>(outcome);
        t.contaminated = r.i32();
      }
      m.wall_seconds = r.f64();
      m.metrics = read_metrics(r);
      return m;
    }
    case kTagError:
      return ErrorMsg{r.str()};
    case kTagShutdown:
      return ShutdownMsg{};
    default:
      throw util::BinError("shard: unknown message tag");
  }
}


void write_frame_bytes(int fd, std::span<const std::byte> payload,
                       const std::string& context) {
  if (payload.size() > kFrameCapBytes) {
    throw std::runtime_error(
        "shard: " + context + " is " + std::to_string(payload.size()) +
        " bytes, over the " + std::to_string(kFrameCapBytes) +
        "-byte frame cap");
  }
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(len & 0xff),
      static_cast<std::uint8_t>((len >> 8) & 0xff),
      static_cast<std::uint8_t>((len >> 16) & 0xff),
      static_cast<std::uint8_t>((len >> 24) & 0xff),
  };
  write_all(fd, prefix, sizeof(prefix));
  write_all(fd, payload.data(), payload.size());
}

std::optional<std::vector<std::byte>> read_frame_bytes(int fd) {
  std::uint8_t prefix[4];
  if (!read_all(fd, prefix, sizeof(prefix))) return std::nullopt;
  const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                            (static_cast<std::uint32_t>(prefix[1]) << 8) |
                            (static_cast<std::uint32_t>(prefix[2]) << 16) |
                            (static_cast<std::uint32_t>(prefix[3]) << 24);
  if (len > kFrameCapBytes) {
    throw std::runtime_error(
        "shard: incoming frame of " + std::to_string(len) +
        " bytes exceeds the " + std::to_string(kFrameCapBytes) +
        "-byte frame cap (corrupt length prefix?)");
  }
  std::vector<std::byte> payload(len);
  if (len > 0 && !read_all(fd, payload.data(), len)) {
    throw std::runtime_error("shard: peer closed mid-frame");
  }
  return payload;
}

std::vector<std::byte> encode_handshake() {
  util::BinWriter w;
  w.bytes(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(kHandshakeMagic),
      sizeof(kHandshakeMagic)));
  w.u32(kShardProtocolVersion);
  return std::move(w).take();
}

std::optional<Handshake> parse_handshake(std::span<const std::byte> payload) {
  // Only the magic and the version are fixed across protocol versions: a
  // longer handshake (v4 appended a wire-format byte) still parses, so its
  // sender gets the version error rather than "not a handshake".
  if (payload.size() < kHandshakeSize ||
      std::memcmp(payload.data(), kHandshakeMagic, sizeof(kHandshakeMagic)) !=
          0) {
    return std::nullopt;
  }
  util::BinReader r(payload.subspan(sizeof(kHandshakeMagic)));
  return Handshake{r.u32()};
}

void write_handshake(int fd) {
  write_frame_bytes(fd, encode_handshake(), "handshake frame");
}

Handshake read_handshake(int fd) {
  const auto payload = read_frame_bytes(fd);
  if (!payload) {
    throw std::runtime_error("shard: peer closed before handshake");
  }
  const auto hs = parse_handshake(*payload);
  if (!hs) {
    throw std::runtime_error(
        "shard: peer did not send a protocol handshake (mixed binaries?)");
  }
  if (hs->version != kShardProtocolVersion) {
    throw std::runtime_error(
        "shard: peer speaks protocol version " + std::to_string(hs->version) +
        ", this binary speaks " + std::to_string(kShardProtocolVersion));
  }
  return *hs;
}

void write_message(int fd, const Message& message) {
  write_frame_bytes(fd, encode_message(message), message_context(message));
}

std::optional<Message> read_message(int fd) {
  auto payload = read_frame_bytes(fd);
  if (!payload) return std::nullopt;
  return decode_message(*payload);
}

}  // namespace resilience::shard

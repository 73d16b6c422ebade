// The on-disk GoldenStore (golden-v2): full-fidelity round trips
// (profiles, signature, checkpoints with raw rank state), byte-stable
// re-serialization, and the store's miss/fill/hit and corruption-recovery
// behavior, including hostile element counts.
#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "fsefi/plan.hpp"
#include "harness/campaign.hpp"
#include "harness/checkpoint.hpp"
#include "harness/golden_cache.hpp"
#include "harness/golden_store.hpp"
#include "harness/runner.hpp"
#include "harness/serialize.hpp"
#include "telemetry/telemetry.hpp"
#include "util/binio.hpp"
#include "util/json.hpp"

namespace {

using namespace resilience;

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("resilience-test-" + tag + "-" +
                    std::to_string(::getpid()) + "-" +
                    std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return dir.string();
}

harness::GoldenRun profile_cg(int nranks) {
  const auto app = apps::make_app(apps::AppId::CG);
  return harness::profile_app(*app, nranks);
}

TEST(CampaignJson, ReserializationIsByteStable) {
  const auto app = apps::make_app(apps::AppId::CG);
  harness::DeploymentConfig dep;
  dep.nranks = 2;
  dep.trials = 12;
  const auto campaign = harness::CampaignRunner::run(*app, dep);
  const std::string once = harness::to_json(campaign).dump();
  const std::string twice =
      harness::to_json(harness::campaign_from_json(util::Json::parse(once)))
          .dump();
  EXPECT_EQ(once, twice);
}

TEST(GoldenStore, MissFillHit) {
  const std::string dir = fresh_dir("store");
  const auto app = apps::make_app(apps::AppId::CG);
  telemetry::MetricScope metrics;
  int profiles = 0;
  {
    telemetry::ScopeGuard guard(&metrics);
    harness::GoldenStore store(dir);
    EXPECT_EQ(store.load(*app, 2), nullptr);  // cold: miss
    const auto filled = store.load_or_fill(*app, 2, [&] {
      ++profiles;
      return profile_cg(2);
    });
    ASSERT_NE(filled, nullptr);
    const auto again = store.load_or_fill(*app, 2, [&] {
      ++profiles;
      return profile_cg(2);
    });
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(again->signature, filled->signature);
  }
  EXPECT_EQ(profiles, 1);  // second load_or_fill served from disk
  const auto snap = metrics.snapshot();
  EXPECT_GE(snap.value(telemetry::Counter::GoldenStoreMisses), 2u);
  EXPECT_GE(snap.value(telemetry::Counter::GoldenStoreHits), 1u);
  std::filesystem::remove_all(dir);
}

TEST(GoldenStore, CorruptFileIsUnlinkedAndRefilled) {
  const std::string dir = fresh_dir("corrupt");
  const auto app = apps::make_app(apps::AppId::CG);
  harness::GoldenStore store(dir);
  int profiles = 0;
  (void)store.load_or_fill(*app, 2, [&] {
    ++profiles;
    return profile_cg(2);
  });
  const std::string path = store.path_for(*app, 2);
  ASSERT_TRUE(std::filesystem::exists(path));

  {  // not a golden-v2 file at all
    std::ofstream out(path, std::ios::trunc);
    out << "not golden {{{";
  }
  EXPECT_EQ(store.load(*app, 2), nullptr);
  EXPECT_FALSE(std::filesystem::exists(path)) << "corrupt file not unlinked";

  (void)store.load_or_fill(*app, 2, [&] {
    ++profiles;
    return profile_cg(2);
  });
  EXPECT_EQ(profiles, 2);  // clean refill after the corruption
  ASSERT_TRUE(std::filesystem::exists(path));

  {  // a valid file, truncated mid-section
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::trunc);
    out << text.substr(0, text.size() / 2);
  }
  EXPECT_EQ(store.load(*app, 2), nullptr);
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

TEST(GoldenStore, KeyedByAppAndScale) {
  const std::string dir = fresh_dir("keys");
  harness::GoldenStore store(dir);
  const auto cg = apps::make_app(apps::AppId::CG);
  const auto ft = apps::make_app(apps::AppId::FT);
  EXPECT_NE(store.path_for(*cg, 2), store.path_for(*cg, 4));
  EXPECT_NE(store.path_for(*cg, 2), store.path_for(*ft, 2));
  int profiles = 0;
  (void)store.load_or_fill(*cg, 2, [&] {
    ++profiles;
    return profile_cg(2);
  });
  // A different scale is a different key: no cross-talk.
  EXPECT_EQ(store.load(*cg, 4), nullptr);
  EXPECT_EQ(profiles, 1);
  std::filesystem::remove_all(dir);
}

// A golden run loaded from the store must drive a campaign to the exact
// result a freshly profiled one produces — checkpoint fast path included.
TEST(GoldenStore, LoadedGoldenReproducesCampaign) {
  const std::string dir = fresh_dir("repro");
  const auto app = apps::make_app(apps::AppId::CG);
  harness::DeploymentConfig dep;
  dep.nranks = 2;
  dep.trials = 16;

  auto baseline = harness::CampaignRunner::run(*app, dep);

  harness::GoldenStore store(dir);
  harness::GoldenCache cache(&store);
  harness::CampaignContext context;
  context.golden_cache = &cache;
  auto first = harness::CampaignRunner::run(*app, dep, context);

  harness::GoldenCache cache2(&store);  // fresh process-equivalent: disk hit
  harness::CampaignContext context2;
  context2.golden_cache = &cache2;
  auto second = harness::CampaignRunner::run(*app, dep, context2);

  baseline.wall_seconds = first.wall_seconds = second.wall_seconds = 0.0;
  EXPECT_EQ(harness::to_json(first).dump(), harness::to_json(baseline).dump());
  EXPECT_EQ(harness::to_json(second).dump(),
            harness::to_json(baseline).dump());
  EXPECT_EQ(second.metrics.value(telemetry::Counter::HarnessGoldenProfiles),
            0u);
  EXPECT_GE(second.metrics.value(telemetry::Counter::GoldenStoreHits), 1u);
  std::filesystem::remove_all(dir);
}

// ---- golden-v2 binary format ------------------------------------------

void expect_same_golden(const harness::GoldenRun& a,
                        const harness::GoldenRun& b) {
  EXPECT_EQ(b.signature, a.signature);
  EXPECT_EQ(b.max_rank_ops, a.max_rank_ops);
  ASSERT_EQ(b.profiles.size(), a.profiles.size());
  for (std::size_t r = 0; r < a.profiles.size(); ++r) {
    EXPECT_EQ(b.profiles[r], a.profiles[r]) << r;
  }
  ASSERT_EQ(b.checkpoints == nullptr, a.checkpoints == nullptr);
  if (a.checkpoints == nullptr) return;
  const auto& ca = *a.checkpoints;
  const auto& cb = *b.checkpoints;
  EXPECT_EQ(cb.nranks, ca.nranks);
  EXPECT_EQ(cb.iterations, ca.iterations);
  EXPECT_EQ(cb.signature, ca.signature);
  ASSERT_EQ(cb.final_profiles.size(), ca.final_profiles.size());
  for (std::size_t r = 0; r < ca.final_profiles.size(); ++r) {
    EXPECT_EQ(cb.final_profiles[r], ca.final_profiles[r]) << r;
  }
  ASSERT_EQ(cb.boundaries.size(), ca.boundaries.size());
  for (std::size_t i = 0; i < ca.boundaries.size(); ++i) {
    EXPECT_EQ(cb.boundaries[i].iter, ca.boundaries[i].iter);
    EXPECT_EQ(cb.boundaries[i].profiles, ca.boundaries[i].profiles);
    EXPECT_EQ(cb.boundaries[i].digests, ca.boundaries[i].digests);
    ASSERT_EQ(cb.boundaries[i].state.size(), ca.boundaries[i].state.size());
    for (std::size_t r = 0; r < ca.boundaries[i].state.size(); ++r) {
      EXPECT_EQ(cb.boundaries[i].state[r], ca.boundaries[i].state[r]);
    }
  }
}

TEST(GoldenStoreBinary, RoundTripsGoldenWithoutCheckpoints) {
  harness::GoldenRun golden = profile_cg(2);
  golden.checkpoints = nullptr;  // apps without boundary hooks
  const auto app = apps::make_app(apps::AppId::CG);
  const std::string dir = fresh_dir("no-ckpt");
  harness::GoldenStore store(dir);
  store.put(*app, 2, golden);
  const auto back = store.load(*app, 2);
  ASSERT_NE(back, nullptr);
  expect_same_golden(golden, *back);
  std::filesystem::remove_all(dir);
}

// The restore fast path copies checkpoint bytes exactly once: the store
// load must hand out state spans borrowed straight from the mmap, not
// heap copies of them.
TEST(GoldenStoreBinary, LoadedStateIsBorrowedFromTheMapping) {
  const auto app = apps::make_app(apps::AppId::CG);
  const std::string dir = fresh_dir("borrow");
  harness::GoldenStore store(dir);
  store.put(*app, 2, profile_cg(2));
  const auto back = store.load(*app, 2);
  ASSERT_NE(back, nullptr);
  ASSERT_NE(back->checkpoints, nullptr);
  EXPECT_NE(back->checkpoints->backing, nullptr) << "mmap not pinned";
  bool saw_state = false;
  for (const auto& boundary : back->checkpoints->boundaries) {
    for (const auto& state : boundary.state) {
      if (state.size() == 0) continue;
      saw_state = true;
      EXPECT_TRUE(state.is_borrowed());
    }
  }
  EXPECT_TRUE(saw_state) << "CG checkpoints should carry rank state";
  std::filesystem::remove_all(dir);
}

// A borrowed golden must outlive both the store object and the file's
// directory entry: the mapping pins the inode.
TEST(GoldenStoreBinary, LoadedGoldenSurvivesStoreAndFileRemoval) {
  const auto app = apps::make_app(apps::AppId::CG);
  const harness::GoldenRun golden = profile_cg(2);
  const std::string dir = fresh_dir("pin");
  std::shared_ptr<const harness::GoldenRun> back;
  {
    harness::GoldenStore store(dir);
    store.put(*app, 2, golden);
    back = store.load(*app, 2);
    ASSERT_NE(back, nullptr);
  }
  std::filesystem::remove_all(dir);
  expect_same_golden(golden, *back);  // still reads the unlinked mapping
}

TEST(GoldenStoreBinary, BitFlippedFileIsUnlinkedAndRefilled) {
  const auto app = apps::make_app(apps::AppId::CG);
  const std::string dir = fresh_dir("bitflip");
  telemetry::MetricScope metrics;
  int profiles = 0;
  {
    telemetry::ScopeGuard guard(&metrics);
    harness::GoldenStore store(dir);
    (void)store.load_or_fill(*app, 2, [&] {
      ++profiles;
      return profile_cg(2);
    });
    const std::string path = store.path_for(*app, 2);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Flip one bit in the middle of the section data: the section CRC
    // must catch it, unlink the file, and report a miss.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 100u);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_EQ(store.load(*app, 2), nullptr);
    EXPECT_FALSE(std::filesystem::exists(path)) << "corrupt v2 not unlinked";

    (void)store.load_or_fill(*app, 2, [&] {
      ++profiles;
      return profile_cg(2);
    });
    EXPECT_EQ(profiles, 2);
  }
  const auto snap = metrics.snapshot();
  EXPECT_GE(snap.value(telemetry::Counter::GoldenStoreRefills), 1u);
  std::filesystem::remove_all(dir);
}

TEST(GoldenStoreBinary, TruncatedFileIsUnlinkedAndRefilled) {
  const auto app = apps::make_app(apps::AppId::CG);
  const std::string dir = fresh_dir("trunc-bin");
  harness::GoldenStore store(dir);
  store.put(*app, 2, profile_cg(2));
  const std::string path = store.path_for(*app, 2);

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_EQ(store.load(*app, 2), nullptr);
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

// serialize -> load -> serialize must be byte-stable: the coordinator's
// fill and every later rewrite of a key agree on one canonical file.
TEST(GoldenStoreBinary, ReserializationIsByteStable) {
  const auto app = apps::make_app(apps::AppId::CG);
  const std::string dir = fresh_dir("restable");
  harness::GoldenStore store(dir);
  const auto read_file = [&] {
    std::ifstream in(store.path_for(*app, 2), std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  store.put(*app, 2, profile_cg(2));
  const std::string once = read_file();
  const auto back = store.load(*app, 2);
  ASSERT_NE(back, nullptr);
  store.put(*app, 2, *back);
  EXPECT_EQ(read_file(), once);
  std::filesystem::remove_all(dir);
}

// A `-v1.json` file left by an older binary is never read: the key
// misses and refills as golden-v2 beside it.
TEST(GoldenStoreBinary, LeftoverV1FileIsNeverRead) {
  const auto app = apps::make_app(apps::AppId::CG);
  const std::string dir = fresh_dir("leftover-v1");
  harness::GoldenStore store(dir);
  const std::string v2_path = store.path_for(*app, 2);
  const std::string v1_path =
      v2_path.substr(0, v2_path.size() - std::string("-v2.bin").size()) +
      "-v1.json";
  {
    std::ofstream out(v1_path);
    out << R"({"schema": "resilience-golden-store/1"})";
  }
  EXPECT_EQ(store.load(*app, 2), nullptr);
  int profiles = 0;
  const auto golden = store.load_or_fill(*app, 2, [&] {
    ++profiles;
    return profile_cg(2);
  });
  ASSERT_NE(golden, nullptr);
  EXPECT_EQ(profiles, 1);
  EXPECT_TRUE(std::filesystem::exists(v2_path));
  EXPECT_TRUE(std::filesystem::exists(v1_path)) << "v1 file was touched";
  std::filesystem::remove_all(dir);
}

// A boundary count the checkpoint section cannot hold — with the section
// CRC recomputed, so only the count check stands between it and a huge
// reserve — is a corrupt file: unlinked and refilled, never allocated.
TEST(GoldenStoreBinary, InflatedBoundaryCountIsUnlinkedAndRefilled) {
  const auto app = apps::make_app(apps::AppId::CG);
  const std::string dir = fresh_dir("inflated");
  harness::GoldenStore store(dir);
  store.put(*app, 2, profile_cg(2));
  const std::string path = store.path_for(*app, 2);

  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::vector<std::byte> file(text.size());
  std::memcpy(file.data(), text.data(), text.size());

  // Section table (after the 36-byte header): {u32 id, u32 crc,
  // u64 offset, u64 size} per section; the checkpoint section has id 3.
  constexpr std::size_t kHeader = 36;
  constexpr std::size_t kEntry = 24;
  constexpr std::size_t kProfileBytes =
      std::size_t{fsefi::kNumRegions} * fsefi::kNumOpKinds * 8;
  util::BinReader header(file);
  header.seek(12);
  const std::uint32_t nsections = header.u32();
  std::size_t entry = 0;
  for (std::uint32_t i = 0; i < nsections; ++i) {
    header.seek(kHeader + i * kEntry);
    if (header.u32() == 3) entry = kHeader + i * kEntry;
  }
  ASSERT_NE(entry, 0u) << "CG golden has no checkpoint section";
  header.seek(entry + 8);
  const std::size_t offset = header.u64();
  const std::size_t size = header.u64();

  // Walk the checkpoint section up to its boundary count.
  util::BinReader cp(std::span<const std::byte>(file).subspan(offset, size));
  const auto skip_array = [&](std::size_t elem_bytes) {
    const std::size_t n = cp.u64();
    cp.seek(cp.offset() + n * elem_bytes);
  };
  (void)cp.i32();  // nranks
  (void)cp.i32();  // iterations
  skip_array(8);              // state_reals
  skip_array(8);              // signature
  skip_array(kProfileBytes);  // final_profiles
  const std::size_t nbound_at = offset + cp.offset();
  ASSERT_GT(cp.u64(), 0u);

  util::BinWriter patched;
  patched.bytes(file);
  patched.patch_u64(nbound_at, std::uint64_t{1} << 40);
  patched.patch_u32(entry + 4,
                    util::crc32(patched.buffer().subspan(offset, size)));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(patched.buffer().data()),
              static_cast<std::streamsize>(patched.size()));
  }

  telemetry::MetricScope metrics;
  int profiles = 0;
  {
    telemetry::ScopeGuard guard(&metrics);
    const auto golden = store.load_or_fill(*app, 2, [&] {
      ++profiles;
      return profile_cg(2);
    });
    ASSERT_NE(golden, nullptr);
  }
  EXPECT_EQ(profiles, 1);
  EXPECT_EQ(metrics.snapshot().value(telemetry::Counter::GoldenStoreRefills),
            1u);
  EXPECT_NE(store.load(*app, 2), nullptr) << "refilled file does not load";
  std::filesystem::remove_all(dir);
}

}  // namespace

// Telemetry subsystem unit tests: counter/histogram registry semantics
// (scopes, rollup, cross-thread adoption, enable/disable), the trace
// session with each sink, and the deprecated counter-field accessors
// that forward into the registry (DESIGN.md §10).
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "harness/campaign.hpp"
#include "simmpi/runtime.hpp"
#include "telemetry/sinks.hpp"
#include "util/json.hpp"

namespace resilience::telemetry {
namespace {

TEST(MetricScope, CountsLandInActiveScope) {
  MetricScope scope;
  {
    ScopeGuard guard(&scope);
    count(Counter::HarnessTrials);
    count(Counter::HarnessTrials, 4);
    record(Histogram::HarnessContaminatedRanks, 3);
  }
  const MetricsSnapshot snap = scope.snapshot();
  EXPECT_EQ(snap.value(Counter::HarnessTrials), 5u);
  EXPECT_EQ(snap.histogram(Histogram::HarnessContaminatedRanks).buckets[3],
            1u);
  EXPECT_EQ(snap.histogram(Histogram::HarnessContaminatedRanks).total(), 1u);
  EXPECT_FALSE(snap.empty());
}

TEST(MetricScope, CountsOutsideAnyScopeAreDropped) {
  // No guard on this thread: count() must be a safe no-op.
  count(Counter::HarnessTrials);
  MetricScope scope;
  EXPECT_TRUE(scope.snapshot().empty());
}

TEST(MetricScope, NestedScopesCountOnceThroughTheFoldChain) {
  // The production shape: a phase thread holds the study guard, and the
  // campaign pushes its own guard above it on the same thread. The count
  // must reach the study exactly once (via the fold at ~campaign), not
  // twice (stack walk + fold).
  MetricScope study;
  {
    ScopeGuard study_guard(&study);
    MetricScope campaign(&study);
    {
      ScopeGuard campaign_guard(&campaign);
      count(Counter::HarnessTrials, 7);
      // Only the innermost scope observes the count directly.
      EXPECT_EQ(campaign.snapshot().value(Counter::HarnessTrials), 7u);
      EXPECT_EQ(study.snapshot().value(Counter::HarnessTrials), 0u);
    }
    // Counts outside the campaign guard land in the study again.
    count(Counter::HarnessCampaigns);
  }
  EXPECT_EQ(study.snapshot().value(Counter::HarnessTrials), 7u);
  EXPECT_EQ(study.snapshot().value(Counter::HarnessCampaigns), 1u);
}

TEST(MetricScope, ChildScopeAloneRollsUpAtDestruction) {
  MetricScope study;
  {
    MetricScope campaign(&study);
    ScopeGuard guard(&campaign);  // only the campaign is on the stack
    count(Counter::HarnessEarlyExits, 3);
    EXPECT_EQ(study.snapshot().value(Counter::HarnessEarlyExits), 0u);
  }
  EXPECT_EQ(study.snapshot().value(Counter::HarnessEarlyExits), 3u);
}

TEST(MetricScope, ManyThreadsCountLockFree) {
  MetricScope scope;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&scope] {
      ScopeGuard guard(&scope);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        count(Counter::FsefiInjections);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(scope.snapshot().value(Counter::FsefiInjections),
            kThreads * kPerThread);
}

TEST(MetricScope, RankFibersCountIntoTheLaunchersScope) {
  // A job's rank fibers run on the launching thread and count through its
  // scope stack, so per-rank activity lands in the campaign/study scopes.
  // SimmpiJobs is counted by the runtime itself.
  MetricScope scope;
  {
    ScopeGuard guard(&scope);
    const auto result = simmpi::Runtime::run(4, [](simmpi::Comm& comm) {
      count(Counter::CoreStudyPhases);  // arbitrary counter, one per rank
      (void)comm.allreduce_value(1.0);
    });
    ASSERT_TRUE(result.ok);
  }
  const MetricsSnapshot snap = scope.snapshot();
  EXPECT_EQ(snap.value(Counter::CoreStudyPhases), 4u);
  EXPECT_EQ(snap.value(Counter::SimmpiJobs), 1u);
}

TEST(MetricsEnabled, DisabledPathDropsCounts) {
  MetricScope scope;
  ScopeGuard guard(&scope);
  set_metrics_enabled(false);
  count(Counter::HarnessTrials);
  record(Histogram::HarnessTrialOps, 100);
  set_metrics_enabled(true);
  count(Counter::HarnessTrials);
  const MetricsSnapshot snap = scope.snapshot();
  EXPECT_EQ(snap.value(Counter::HarnessTrials), 1u);
  EXPECT_EQ(snap.histogram(Histogram::HarnessTrialOps).total(), 0u);
}

TEST(MetricsSnapshot, NameLookupAndAdd) {
  MetricsSnapshot a;
  a.counters[static_cast<std::size_t>(Counter::HarnessTrials)] = 3;
  EXPECT_EQ(a.value("harness.trials"), 3u);
  EXPECT_EQ(a.value("no.such.counter"), 0u);
  MetricsSnapshot b;
  b.counters[static_cast<std::size_t>(Counter::HarnessTrials)] = 2;
  b.histograms[0].buckets[5] = 1;
  a.add(b);
  EXPECT_EQ(a.value(Counter::HarnessTrials), 5u);
  EXPECT_EQ(a.histograms[0].buckets[5], 1u);
}

TEST(MetricsSnapshot, LogicalEqualIgnoresTimingBornCounters) {
  MetricsSnapshot a;
  MetricsSnapshot b;
  a.counters[static_cast<std::size_t>(Counter::HarnessTrials)] = 10;
  b.counters[static_cast<std::size_t>(Counter::HarnessTrials)] = 10;
  // Timing-born diagnostics may differ between identical logical runs.
  ASSERT_FALSE(is_logical(Counter::SimmpiMailboxWaits));
  a.counters[static_cast<std::size_t>(Counter::SimmpiMailboxWaits)] = 1;
  b.counters[static_cast<std::size_t>(Counter::SimmpiMailboxWaits)] = 99;
  EXPECT_TRUE(a.logical_equal(b));
  ASSERT_TRUE(is_logical(Counter::HarnessTrials));
  b.counters[static_cast<std::size_t>(Counter::HarnessTrials)] = 11;
  EXPECT_FALSE(a.logical_equal(b));
}

TEST(HistogramBuckets, TrialOpsUsesLog2AndContaminationIsLinear) {
  EXPECT_EQ(bucket_of(Histogram::HarnessTrialOps, 0), 0u);
  EXPECT_EQ(bucket_of(Histogram::HarnessTrialOps, 1), 1u);
  EXPECT_EQ(bucket_of(Histogram::HarnessTrialOps, 3), 2u);
  EXPECT_EQ(bucket_of(Histogram::HarnessTrialOps, 1024), 11u);
  EXPECT_EQ(bucket_of(Histogram::HarnessContaminatedRanks, 5), 5u);
  EXPECT_EQ(bucket_of(Histogram::HarnessContaminatedRanks, 1 << 20),
            kHistogramBuckets - 1);
}

TEST(CounterNames, AreStableAndDistinct) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const char* n = name(static_cast<Counter>(i));
    ASSERT_NE(n, nullptr);
    EXPECT_TRUE(seen.insert(n).second) << "duplicate counter name " << n;
    EXPECT_NE(std::string(n).find('.'), std::string::npos) << n;
  }
  EXPECT_STREQ(name(Histogram::HarnessTrialOps), "harness.trial_ops");
}

// ---- tracing ---------------------------------------------------------------

TEST(TraceSession, MemorySinkSeesBalancedSpansAndInstantArgs) {
  auto sink = std::make_shared<MemorySink>();
  EXPECT_FALSE(trace_enabled());
  TraceSession::start(sink);
  EXPECT_TRUE(trace_enabled());
  {
    TraceSpan span("core", "study", "trials", 42);
    trace_instant("fsefi", "injection", "op", 7);
  }
  TraceSession::stop();
  EXPECT_FALSE(trace_enabled());

  ASSERT_EQ(sink->events().size(), 3u);
  const auto& begin = sink->events()[0];
  const auto& instant = sink->events()[1];
  const auto& end = sink->events()[2];
  EXPECT_EQ(begin.type, TraceEvent::Type::SpanBegin);
  EXPECT_STREQ(begin.name, "study");
  ASSERT_NE(begin.arg_name, nullptr);
  EXPECT_EQ(begin.arg, 42u);
  EXPECT_EQ(instant.type, TraceEvent::Type::Instant);
  EXPECT_STREQ(instant.category, "fsefi");
  EXPECT_EQ(instant.arg, 7u);
  EXPECT_EQ(end.type, TraceEvent::Type::SpanEnd);
  EXPECT_LE(begin.ts_ns, instant.ts_ns);
  EXPECT_LE(instant.ts_ns, end.ts_ns);
}

TEST(TraceSession, SpanStartedBeforeSessionStaysSilent) {
  auto sink = std::make_shared<MemorySink>();
  {
    TraceSpan span("core", "study");  // not armed: no session yet
    TraceSession::start(sink);
    trace_instant("harness", "early_exit");
    TraceSession::stop();
  }  // destructor must not emit an unbalanced end
  ASSERT_EQ(sink->events().size(), 1u);
  EXPECT_EQ(sink->events()[0].type, TraceEvent::Type::Instant);
}

TEST(TraceSession, DisabledTracingEmitsNothing) {
  auto sink = std::make_shared<MemorySink>();
  {
    TraceSpan span("core", "study");
    trace_instant("fsefi", "injection");
  }
  TraceSession::start(sink);
  TraceSession::stop();
  EXPECT_TRUE(sink->events().empty());
}

TEST(TraceSession, JsonLinesSinkWritesParseableLines) {
  const std::string path = ::testing::TempDir() + "trace_test.jsonl";
  TraceSession::start(std::make_shared<JsonLinesSink>(path));
  {
    TraceSpan span("harness", "trial", "index", 3);
    trace_instant("harness", "checkpoint_restore", "resume_iteration", 12);
  }
  TraceSession::stop();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<util::Json> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(util::Json::parse(line));
  }
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].at("ph").as_string(), "B");
  EXPECT_EQ(lines[0].at("name").as_string(), "trial");
  EXPECT_EQ(lines[0].at("index").as_int(), 3);
  EXPECT_EQ(lines[1].at("ph").as_string(), "i");
  EXPECT_EQ(lines[1].at("resume_iteration").as_int(), 12);
  EXPECT_EQ(lines[2].at("ph").as_string(), "E");
  EXPECT_GE(lines[2].at("ts_ns").as_int(), lines[0].at("ts_ns").as_int());
}

TEST(TraceSession, ChromeTraceSinkWritesOneDocument) {
  const std::string path = ::testing::TempDir() + "trace_test.json";
  TraceSession::start(std::make_shared<ChromeTraceSink>(path));
  {
    TraceSpan span("core", "study");
    trace_instant("harness", "checkpoint_restore", "iteration", 4);
  }
  TraceSession::stop();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const util::Json doc = util::Json::parse(buf.str());
  std::remove(path.c_str());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at("ph").as_string(), "B");
  EXPECT_EQ(events[1].at("ph").as_string(), "i");
  EXPECT_EQ(events[1].at("s").as_string(), "t");
  EXPECT_EQ(events[1].at("args").at("iteration").as_int(), 4);
  EXPECT_EQ(events[2].at("ph").as_string(), "E");
  for (const auto& e : events) EXPECT_EQ(e.at("pid").as_int(), 1);
}

TEST(MetricsJson, SchemaHasNonZeroCountersAndNonEmptyHistograms) {
  MetricsSnapshot snap;
  snap.counters[static_cast<std::size_t>(Counter::HarnessTrials)] = 25;
  snap.histograms[static_cast<std::size_t>(Histogram::HarnessTrialOps)]
      .buckets[10] = 25;
  const util::Json doc = metrics_to_json(snap);
  EXPECT_EQ(doc.at("schema").as_string(), "resilience-metrics/1");
  const auto& counters = doc.at("counters").as_object();
  EXPECT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters.at("harness.trials").as_int(), 25);
  const auto& hist = doc.at("histograms").as_object();
  ASSERT_EQ(hist.size(), 1u);
  const auto& ops = hist.at("harness.trial_ops");
  EXPECT_EQ(ops.at("total").as_int(), 25);
  EXPECT_EQ(ops.at("buckets").as_array().size(), kHistogramBuckets);
  EXPECT_EQ(ops.at("buckets").as_array()[10].as_int(), 25);
}

// ---- registry-backed result fields -----------------------------------------

TEST(ResultFields, PoolCountersAndMetricsValues) {
  simmpi::RunResult run;
  run.pool_allocs = 3;
  run.pool_reuses = 97;
  EXPECT_EQ(run.pool_allocs, 3u);
  EXPECT_EQ(run.pool_reuses, 97u);

  harness::CampaignResult campaign;
  campaign.metrics
      .counters[static_cast<std::size_t>(Counter::HarnessCheckpointRestores)] =
      11;
  campaign.metrics
      .counters[static_cast<std::size_t>(Counter::HarnessEarlyExits)] = 5;
  EXPECT_EQ(campaign.metrics.value(Counter::HarnessCheckpointRestores), 11u);
  EXPECT_EQ(campaign.metrics.value(Counter::HarnessEarlyExits), 5u);
}

}  // namespace
}  // namespace resilience::telemetry

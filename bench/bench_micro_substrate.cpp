// Micro-benchmarks of the substrates (google-benchmark): the cost of the
// instrumented Real relative to plain double, the injector's hot path,
// and simmpi messaging/collective latency across job sizes — the numbers
// that determine how long a fault-injection campaign takes.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/kernels.hpp"
#include "fsefi/real.hpp"
#include "fsefi/transport.hpp"
#include "simmpi/runtime.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using resilience::fsefi::ContextGuard;
using resilience::fsefi::FaultContext;
using resilience::fsefi::Real;
using resilience::simmpi::Comm;
using resilience::simmpi::Runtime;

void BM_DoubleAxpy(benchmark::State& state) {
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<double> x(n, 1.5), y(n, 0.5);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] += 1.000001 * x[i];
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_DoubleAxpy);

void BM_RealAxpyUninstrumented(benchmark::State& state) {
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] += Real(1.000001) * x[i];
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpyUninstrumented)->Repetitions(9);

void BM_RealAxpyUnderContext(benchmark::State& state) {
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  FaultContext ctx;
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] += Real(1.000001) * x[i];
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpyUnderContext)->Repetitions(9);

void BM_RealAxpyArmedPlan(benchmark::State& state) {
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  FaultContext ctx;
  resilience::fsefi::InjectionPlan plan;
  plan.points = {{.op_index = ~0ULL, .operand = 0, .bit = 0}};  // never fires
  ctx.arm(std::move(plan));
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] += Real(1.000001) * x[i];
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpyArmedPlan)->Repetitions(9);

// ---- telemetry overhead (DESIGN.md §10) ------------------------------------
// Telemetry must cost one branch when disabled: the TelemetryOff leg pins
// set_metrics_enabled(false) around the default unarmed axpy, and
// merge_bench.py derives telemetry_overhead.disabled = TelemetryOff /
// UnderContext (acceptance bar <= 1.05). The Scoped leg arms a
// never-firing plan under a live metric scope, so every countdown refill
// pays an enabled count() — the heaviest per-op-stream telemetry cost a
// campaign trial sees.

/// Scoped override of the metrics switch; restores the default on exit.
struct MetricsMode {
  explicit MetricsMode(bool enabled) {
    resilience::telemetry::set_metrics_enabled(enabled);
  }
  ~MetricsMode() { resilience::telemetry::set_metrics_enabled(true); }
};

void BM_RealAxpyTelemetryOff(benchmark::State& state) {
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  MetricsMode mode(false);
  FaultContext ctx;
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] += Real(1.000001) * x[i];
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpyTelemetryOff)->Repetitions(9);

void BM_RealAxpyTelemetryScoped(benchmark::State& state) {
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  resilience::telemetry::MetricScope scope;
  resilience::telemetry::ScopeGuard scope_guard(&scope);
  FaultContext ctx;
  resilience::fsefi::InjectionPlan plan;
  plan.points = {{.op_index = ~0ULL, .operand = 0, .bit = 0}};  // never fires
  ctx.arm(std::move(plan));
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] += Real(1.000001) * x[i];
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpyTelemetryScoped)->Repetitions(9);

// ---- instrumented-arithmetic fast path (DESIGN.md §8) ----------------------
// The per-op legs above run in the production configuration (countdown
// fast path). The *Reference legs below pin set_fast_real_enabled(false)
// — the pre-countdown implementation — so tools/merge_bench.py can derive
// real_scalar_speedup (acceptance bar: >= 3x unarmed) and
// blocked_dot_speedup (>= 5x) from the same dump.

/// Scoped override of the fast-real toggle; contexts latch it at
/// construction/reset/arm, so set it before creating the context.
struct FastRealMode {
  explicit FastRealMode(bool fast) {
    resilience::fsefi::set_fast_real_enabled(fast);
  }
  ~FastRealMode() { resilience::fsefi::set_fast_real_enabled(true); }
};

void BM_RealAxpyUnderContextReference(benchmark::State& state) {
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  FastRealMode mode(false);
  FaultContext ctx;
  ctx.reset();
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] += Real(1.000001) * x[i];
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpyUnderContextReference)->Repetitions(9);

void BM_RealAxpyArmedPlanReference(benchmark::State& state) {
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  FastRealMode mode(false);
  FaultContext ctx;
  resilience::fsefi::InjectionPlan plan;
  plan.points = {{.op_index = ~0ULL, .operand = 0, .bit = 0}};  // never fires
  ctx.arm(std::move(plan));
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] += Real(1.000001) * x[i];
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpyArmedPlanReference)->Repetitions(9);

// ---- seed-path baseline ----------------------------------------------------
// The *Reference legs above still benefit from this repo's inlined
// thread-local context lookup; the seed fetched the context through an
// out-of-line call (current_context lived in fault_context.cpp) on every
// instrumented operation. The SeedPath legs reproduce that pre-PR call
// structure — out-of-line lookup per op + the pre-countdown per-op
// bookkeeping (preserved as the reference path) — so merge_bench.py can
// report the speedup this PR actually delivered over the seed.

__attribute__((noinline)) FaultContext* seed_context_lookup() {
  return resilience::fsefi::current_context();
}

// seed_binary/seed_eval replicate header-inline seed code, so only the
// context lookup may stay out of line.
__attribute__((always_inline)) inline double seed_eval(
    resilience::fsefi::OpKind kind, double a, double b) {
  using resilience::fsefi::OpKind;
  switch (kind) {
    case OpKind::Add:
      return a + b;
    case OpKind::Mul:
      return a * b;
    default:
      std::abort();  // the axpy loop only dispatches Add and Mul
  }
}

/// One instrumented op exactly as the seed's Real::binary performed it.
__attribute__((always_inline)) inline Real seed_binary(
    resilience::fsefi::OpKind kind, Real a, Real b) {
  double av = a.value(), bv = b.value();
  if (FaultContext* ctx = seed_context_lookup()) {
    ctx->on_op(kind, av, bv);
    const Real r = Real::corrupted(seed_eval(kind, av, bv),
                                   seed_eval(kind, a.shadow(), b.shadow()));
    ctx->observe_result(r.value(), r.shadow());
    return r;
  }
  return Real::corrupted(seed_eval(kind, av, bv),
                         seed_eval(kind, a.shadow(), b.shadow()));
}

void BM_RealAxpySeedPath(benchmark::State& state) {
  using resilience::fsefi::OpKind;
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  FastRealMode mode(false);
  FaultContext ctx;
  ctx.reset();
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = seed_binary(OpKind::Add,
                         seed_binary(OpKind::Mul, Real(1.000001), x[i]), y[i]);
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpySeedPath)->Repetitions(9);

void BM_RealAxpySeedPathArmed(benchmark::State& state) {
  using resilience::fsefi::OpKind;
  const std::size_t n = 1024;  // L1-resident: measures instrumentation, not cache
  std::vector<Real> x(n, Real(1.5)), y(n, Real(0.5));
  FastRealMode mode(false);
  FaultContext ctx;
  resilience::fsefi::InjectionPlan plan;
  plan.points = {{.op_index = ~0ULL, .operand = 0, .bit = 0}};  // never fires
  ctx.arm(std::move(plan));
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = seed_binary(OpKind::Add,
                         seed_binary(OpKind::Mul, Real(1.000001), x[i]), y[i]);
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RealAxpySeedPathArmed)->Repetitions(9);

void BM_DotPlainDouble(benchmark::State& state) {
  const std::size_t n = 4096;  // matches the LocalDot legs below
  std::vector<double> a(n, 1.5), b(n, 0.75);
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_DotPlainDouble);

/// The blocked local_dot kernel under an unarmed context (the golden
/// pre-pass configuration): quiet windows run as raw double arithmetic.
void BM_LocalDotUnderContext(benchmark::State& state) {
  const std::size_t n = 4096;
  std::vector<Real> a(n, Real(1.5)), b(n, Real(0.75));
  FaultContext ctx;
  ctx.reset();
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    Real acc = resilience::apps::local_dot(a, b);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_LocalDotUnderContext)->Repetitions(9);

/// Same kernel with a never-firing plan armed: the campaign configuration
/// between injections.
void BM_LocalDotArmedPlan(benchmark::State& state) {
  const std::size_t n = 4096;
  std::vector<Real> a(n, Real(1.5)), b(n, Real(0.75));
  FaultContext ctx;
  resilience::fsefi::InjectionPlan plan;
  plan.points = {{.op_index = ~0ULL, .operand = 0, .bit = 0}};
  ctx.arm(std::move(plan));
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    Real acc = resilience::apps::local_dot(a, b);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_LocalDotArmedPlan)->Repetitions(9);

/// The seed behavior: quiet_ops() is 0 on the reference path, so the same
/// kernel degrades to per-op instrumented arithmetic.
void BM_LocalDotReference(benchmark::State& state) {
  const std::size_t n = 4096;
  std::vector<Real> a(n, Real(1.5)), b(n, Real(0.75));
  FastRealMode mode(false);
  FaultContext ctx;
  ctx.reset();
  ContextGuard guard(&ctx);
  for (auto _ : state) {
    Real acc = resilience::apps::local_dot(a, b);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_LocalDotReference)->Repetitions(9);

// ---- fiber core (DESIGN.md §11) --------------------------------------------
// Absolute costs of the simmpi substrate, which every trial pays:
// tools/merge_bench.py reports them as fiber_core_ns and checks each
// against a bar.
//   launch.<n>         one Runtime::run with an empty body
//   allreduce.<n>      one fused 1-double allreduce inside a running job
//   p2p_round_trip     one 8-byte send + matching receive there and back
// The in-job legs run kRounds operations per job and report the job's
// time divided by kRounds, so the launch is amortised to noise.

constexpr int kRounds = 256;

void BM_JobLaunch(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto result = Runtime::run(ranks, [](Comm&) {});
    benchmark::DoNotOptimize(result.ok);
  }
}
BENCHMARK(BM_JobLaunch)->Arg(4)->Arg(1024);

void BM_FusedAllreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  resilience::simmpi::detail::set_fused_collectives_enabled(true);
  for (auto _ : state) {
    Runtime::run(ranks, [](Comm& comm) {
      double acc = 0.0;
      for (int round = 0; round < kRounds; ++round) {
        acc += comm.allreduce_value(1.0 + comm.rank());
      }
      benchmark::DoNotOptimize(acc);
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kRounds);
}
BENCHMARK(BM_FusedAllreduce)->Arg(4)->Arg(1024);

void BM_P2PRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    Runtime::run(2, [](Comm& comm) {
      double token = 1.0;
      for (int round = 0; round < kRounds; ++round) {
        if (comm.rank() == 0) {
          comm.send_value(1, 0, token);
          token = comm.recv_value<double>(1, 1);
        } else {
          token = comm.recv_value<double>(0, 0);
          comm.send_value(0, 1, token + 1.0);
        }
      }
      benchmark::DoNotOptimize(token);
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kRounds);
}
BENCHMARK(BM_P2PRoundTrip);

void BM_PingPong(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::size_t count = bytes / sizeof(double);
  std::uint64_t allocs = 0;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    const auto result = Runtime::run(2, [count](Comm& comm) {
      std::vector<double> buf(count, 1.0);
      for (int round = 0; round < 16; ++round) {
        if (comm.rank() == 0) {
          comm.send(1, 0, std::span<const double>(buf));
          comm.recv(1, 1, std::span<double>(buf));
        } else {
          comm.recv(0, 0, std::span<double>(buf));
          comm.send(0, 1, std::span<const double>(buf));
        }
      }
    });
    allocs += result.pool_allocs;
    messages += result.messages_sent;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 32 *
                          static_cast<std::int64_t>(bytes));
  // The envelope-pool acceptance metric: payload allocations per message
  // (the seed allocated 1.0; the freelist drives it toward 1/messages).
  state.counters["allocs_per_msg"] =
      benchmark::Counter(static_cast<double>(allocs) /
                         static_cast<double>(messages ? messages : 1));
}
BENCHMARK(BM_PingPong)->Arg(64)->Arg(4096)->Arg(65536);

// ---- fused vs mailbox collectives -----------------------------------------
// tools/merge_bench.py derives collective_speedup.<n>: the allreduce as a
// fused combine vs decomposed into mailbox messages on the same fiber
// core (bar: >= 1.0x at every benched rank count).

void allreduce_rounds(Comm& comm) {
  double acc = 0.0;
  for (int round = 0; round < 16; ++round) {
    acc += comm.allreduce_value(1.0 + comm.rank());
  }
  benchmark::DoNotOptimize(acc);
}

void run_allreduce_rounds(benchmark::State& state, bool fused) {
  const int ranks = static_cast<int>(state.range(0));
  resilience::simmpi::detail::set_fused_collectives_enabled(fused);
  for (auto _ : state) {
    Runtime::run(ranks, allreduce_rounds);
  }
  resilience::simmpi::detail::set_fused_collectives_enabled(true);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}

void BM_AllreduceRound(benchmark::State& state) {
  run_allreduce_rounds(state, /*fused=*/true);
}
BENCHMARK(BM_AllreduceRound)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void BM_AllreduceRoundMailbox(benchmark::State& state) {
  run_allreduce_rounds(state, /*fused=*/false);
}
BENCHMARK(BM_AllreduceRoundMailbox)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): default the JSON dump to
// BENCH_micro_substrate.json (tools/merge_bench.py folds it into
// BENCH_substrate.json) while keeping every --benchmark_* flag working.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro_substrate.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  // The stock library_build_type context field describes how the
  // google-benchmark *library* was compiled, not this binary; stamp the
  // binary's own optimization level so merge_bench.py can refuse
  // unoptimized dumps regardless of how the prebuilt library was built.
#ifdef __OPTIMIZE__
  benchmark::AddCustomContext("binary_build_type", "release");
#else
  benchmark::AddCustomContext("binary_build_type", "debug");
#endif
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

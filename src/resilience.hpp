// Umbrella header: the framework's public API in one include.
//
//   #include "resilience.hpp"
//
// pulls in every layer an application or study driver needs — the
// simulated-MPI runtime, the fault injector, the built-in benchmarks and
// integration kernels, the campaign harness, the modeling pipeline, and
// the telemetry subsystem. Configuration is plain structs
// (DeploymentConfig, StudyConfig): the library reads no environment.
// Deep includes ("core/study.hpp") remain valid for consumers that want a
// narrower dependency surface; this header is the recommended entry point
// for examples and external tools.
#pragma once

// util: RNG streams, statistics, tables, JSON.
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

// telemetry: metrics registry, trace spans/events, pluggable sinks.
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"

// simmpi: the simulated MPI substrate applications run on.
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"
#include "simmpi/topology.hpp"

// fsefi: instrumented Real arithmetic and injection plans.
#include "fsefi/fault_context.hpp"
#include "fsefi/plan.hpp"
#include "fsefi/real.hpp"

// apps: the App interface, built-in benchmarks, integration kernels.
#include "apps/app.hpp"
#include "apps/kernels.hpp"

// harness: campaigns, golden runs/caching, checkpoints, serialization.
#include "harness/campaign.hpp"
#include "harness/checkpoint.hpp"
#include "harness/runner.hpp"
#include "harness/serialize.hpp"

// core: the paper's modeling pipeline — studies, prediction, reports.
#include "core/bootstrap.hpp"
#include "core/report.hpp"
#include "core/similarity.hpp"
#include "core/study.hpp"

#include "harness/runner.hpp"

#include <cstring>
#include <memory>
#include <stdexcept>

#include "apps/trial_control.hpp"
#include "telemetry/telemetry.hpp"

namespace resilience::harness {

namespace {

/// a - b, componentwise over the (region, kind) cells.
fsefi::OpCountProfile profile_delta(const fsefi::OpCountProfile& a,
                                    const fsefi::OpCountProfile& b) noexcept {
  fsefi::OpCountProfile d;
  for (int r = 0; r < fsefi::kNumRegions; ++r) {
    for (int k = 0; k < fsefi::kNumOpKinds; ++k) {
      d.counts[r][k] = a.counts[r][k] - b.counts[r][k];
    }
  }
  return d;
}

void add_profile(fsefi::OpCountProfile& dst,
                 const fsefi::OpCountProfile& src) noexcept {
  for (int r = 0; r < fsefi::kNumRegions; ++r) {
    for (int k = 0; k < fsefi::kNumOpKinds; ++k) {
      dst.counts[r][k] += src.counts[r][k];
    }
  }
}

}  // namespace

RunOutput run_app_once(const apps::App& app, int nranks,
                       const std::vector<fsefi::InjectionPlan>& plans,
                       const RunOptions& options) {
  if (!app.supports(nranks)) {
    throw simmpi::UsageError(app.label() + " does not support " +
                             std::to_string(nranks) + " ranks");
  }
  if (!plans.empty() && plans.size() != static_cast<std::size_t>(nranks)) {
    throw simmpi::UsageError("plans must be empty or one per rank");
  }

  // Contexts live here (stable addresses) for the duration of the job.
  std::vector<std::unique_ptr<fsefi::FaultContext>> contexts;
  contexts.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    contexts.push_back(std::make_unique<fsefi::FaultContext>());
  }

  // Trial controls (DESIGN.md §9): a golden capture records boundaries; an
  // armed run with checkpoints gets fast-forward + early exit. The restore
  // boundary is chosen once, before launch, so every rank resumes at the
  // same iteration.
  const bool armed = [&] {
    for (const auto& plan : plans) {
      if (plan.armed()) return true;
    }
    return false;
  }();
  const bool state_armed = [&] {
    for (const auto& plan : plans) {
      if (!plan.state_faults.empty()) return true;
    }
    return false;
  }();
  const CheckpointData* ckpt =
      (options.checkpoints != nullptr && armed) ? options.checkpoints
                                                : nullptr;
  const BoundaryRecord* resume =
      ckpt != nullptr ? select_resume(*ckpt, plans) : nullptr;
  std::vector<std::unique_ptr<apps::TrialControl>> controls;
  std::vector<FastForwardControl*> ff_controls;
  if (options.capture != nullptr) {
    options.capture->ranks.assign(static_cast<std::size_t>(nranks), {});
    options.capture->state_reals.assign(static_cast<std::size_t>(nranks), 0);
    for (int r = 0; r < nranks; ++r) {
      controls.push_back(std::make_unique<CaptureControl>(
          options.capture->ranks[static_cast<std::size_t>(r)],
          options.capture->state_reals[static_cast<std::size_t>(r)],
          options.capture->budget));
    }
  } else if (ckpt != nullptr || state_armed) {
    // With checkpoints the control fast-forwards and early-exits; without
    // them (kill switch off) a state-armed plan still needs the boundary
    // hook to perform its flips — data stays null, so the control only
    // injects and joins the consensus.
    for (int r = 0; r < nranks; ++r) {
      auto ctl = std::make_unique<FastForwardControl>(
          ckpt, resume, r, plans[static_cast<std::size_t>(r)]);
      ff_controls.push_back(ctl.get());
      controls.push_back(std::move(ctl));
    }
  }

  RunOutput out;

  simmpi::RunOptions run_opts;
  run_opts.on_rank_start = [&](int rank) {
    auto& ctx = *contexts[static_cast<std::size_t>(rank)];
    if (!plans.empty()) {
      ctx.arm(plans[static_cast<std::size_t>(rank)]);
    } else {
      ctx.reset();
    }
    ctx.set_op_budget(options.op_budget);
    fsefi::install_context(&ctx);
    if (!controls.empty()) {
      apps::install_trial_control(
          controls[static_cast<std::size_t>(rank)].get());
    }
  };
  run_opts.on_rank_exit = [&](int) {
    apps::install_trial_control(nullptr);
    fsefi::install_context(nullptr);
  };

  std::optional<apps::AppResult> rank0_result;
  out.runtime = simmpi::Runtime::run(
      nranks,
      [&](simmpi::Comm& comm) {
        apps::AppResult r = app.run(comm);
        if (comm.rank() == 0) rank0_result = std::move(r);
      },
      run_opts);

  if (out.runtime.ok) out.result = std::move(rank0_result);
  out.hang = !out.runtime.ok &&
             out.runtime.error.find("operation budget exceeded") !=
                 std::string::npos;
  out.crashed = !out.runtime.ok &&
                out.runtime.error.find("injected rank crash") !=
                    std::string::npos;

  out.profiles.reserve(contexts.size());
  out.contaminated.reserve(contexts.size());
  out.filtered_ops.reserve(contexts.size());
  out.injection_events.reserve(contexts.size());
  out.recv_reals.reserve(contexts.size());
  for (const auto& ctx : contexts) {
    out.profiles.push_back(ctx->profile());
    out.contaminated.push_back(ctx->contaminated());
    out.filtered_ops.push_back(ctx->filtered_ops());
    out.injection_events.push_back(ctx->injection_events());
    out.recv_reals.push_back(ctx->recv_reals());
  }

  if (!ff_controls.empty()) {
    out.checkpoint_restored = resume != nullptr;
    out.resume_iteration = resume != nullptr ? resume->iter : 0;
    out.early_exit = out.runtime.ok && ff_controls.front()->early_exit();
  }
  if (out.early_exit) {
    // The run stopped at a boundary where every rank's live state
    // bit-equals the golden run's: the tail would replay golden exactly.
    // Synthesize its observables — the per-rank op counts the skipped
    // tail would have added, and the golden final output.
    const BoundaryRecord* at = ckpt->find(ff_controls.front()->exit_iter());
    if (at == nullptr) {
      throw std::logic_error("early exit at an unrecorded boundary");
    }
    for (int r = 0; r < nranks; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      const fsefi::OpCountProfile tail =
          profile_delta(ckpt->final_profiles[ri], at->profiles[ri]);
      add_profile(out.profiles[ri], tail);
      if (!plans[ri].points.empty()) {
        out.filtered_ops[ri] +=
            tail.matching(plans[ri].kinds, plans[ri].regions);
      }
      // recv_reals is left at the exit-boundary value: only golden runs
      // (which never early-exit) feed the payload sample space.
    }
    out.result = apps::AppResult{ckpt->signature, ckpt->iterations};
  }
  return out;
}

double GoldenRun::unique_fraction() const noexcept {
  std::uint64_t unique = 0, total = 0;
  for (const auto& prof : profiles) {
    unique += prof.in_region(fsefi::Region::ParallelUnique);
    total += prof.total();
  }
  return total == 0 ? 0.0
                    : static_cast<double>(unique) / static_cast<double>(total);
}

std::uint64_t GoldenRun::matching_total(fsefi::KindMask kinds,
                                        fsefi::RegionMask regions) const {
  std::uint64_t total = 0;
  for (const auto& prof : profiles) total += prof.matching(kinds, regions);
  return total;
}

GoldenRun profile_app(const apps::App& app, int nranks,
                      bool capture_checkpoints) {
  telemetry::TraceSpan span("harness", "golden_profile", "nranks",
                            static_cast<std::uint64_t>(nranks));
  RunOptions opts;
  CheckpointCapture capture;
  if (capture_checkpoints) {
    capture.budget = kCheckpointBudget;
    opts.capture = &capture;
  }
  RunOutput out = run_app_once(app, nranks, /*plans=*/{}, opts);
  if (!out.runtime.ok || !out.result.has_value()) {
    throw std::runtime_error("golden run of " + app.label() + " on " +
                             std::to_string(nranks) +
                             " ranks failed: " + out.runtime.error);
  }
  GoldenRun golden;
  golden.profiles = std::move(out.profiles);
  golden.signature = out.result->signature;
  golden.recv_reals = std::move(out.recv_reals);
  for (const auto& prof : golden.profiles) {
    golden.max_rank_ops = std::max(golden.max_rank_ops, prof.total());
  }
  if (capture_checkpoints) {
    if (auto data = assemble_checkpoints(std::move(capture))) {
      data->signature = golden.signature;
      data->iterations = out.result->iterations;
      data->final_profiles = golden.profiles;
      golden.checkpoints = std::move(data);
    }
  }
  return golden;
}

}  // namespace resilience::harness

// Per-rank fault-injection state: the software analogue of one F-SEFI
// guest VM (paper Section 2).
//
// Exactly one FaultContext is installed per rank (per rank fiber) for the
// duration of an application run. Every instrumented floating-point operation
// reports here: the context counts dynamic operations by (region, kind),
// performs the planned bit flips when their dynamic index comes up, and
// records whether this rank ever touched corrupted data ("contamination",
// the quantity profiled in Figures 1 and 2 of the paper).
//
// Corruption is tracked by *value divergence*, not symbolic taint: every
// fsefi::Real carries a shadow copy that computes the fault-free result
// alongside the (possibly corrupted) primary value. A rank counts as
// contaminated when a value whose primary and shadow bit patterns differ
// is produced by its computation, injected into it, or delivered into its
// memory by a receive. This matches F-SEFI's memory-diff observation
// model, including its most important consequence: a low-order mantissa
// flip whose contribution is rounded away in a long accumulation stops
// propagating — which is why most injections in CG contaminate only one
// MPI process (Figure 1a).
//
// Hot-path design (DESIGN.md §8): a fault-free operation must cost about
// as much as the plain double op plus two counter increments. Two
// mechanisms deliver that:
//
//  1. A *countdown dispatcher*: arm()/reset()/set_op_budget() precompute
//     the packed (region x kind) filter word and a conservative distance,
//     in dynamic ops, to the next *event* — the next injection point
//     becoming due in the filtered stream, or the hang budget running
//     out. The per-op path is then counter bumps, one branch-free
//     filtered-stream increment, and a single predictable decrement; all
//     plan matching, bit flipping, budget throwing, and countdown
//     recomputation live in the cold out-of-line on_event().
//  2. A *blocked counting API* (quiet_ops() + on_block()): kernels ask
//     how many upcoming ops are guaranteed event-free, run that window as
//     raw double arithmetic in the exact same operation order, and
//     account the whole block with two bulk adds.
//
// The pre-countdown logic is kept alive, bit-identical, as the reference
// path and differential oracle: set_fast_real_enabled(false) before the
// context is reset/armed routes every op through it, and the differential
// tests (and the bench's Reference legs) assert that profiles, filtered
// indices, injection traces, and campaign results match the fast path
// exactly. It has no environment knob: no run outside those needs it.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "fsefi/plan.hpp"

namespace resilience::fsefi {

/// Thrown when a rank exceeds its dynamic-operation budget. The budget is
/// the deterministic stand-in for a wall-clock hang detector: a corrupted
/// run that executes many times the fault-free operation count is "hung"
/// and the harness classifies it as a Failure outcome.
class HangBudgetExceeded : public std::runtime_error {
 public:
  HangBudgetExceeded()
      : std::runtime_error("dynamic FP operation budget exceeded (hang)") {}
};

/// Thrown by the fault context when a fail-stop (RankCrash) injection
/// point fires: the rank dies at its planned dynamic op and the simmpi
/// runtime's abort/teardown path winds the rest of the job down, exactly
/// as an uncaught application error would. The harness recognizes the
/// message substring and classifies the trial as a Crash outcome.
class RankCrashError : public std::runtime_error {
 public:
  RankCrashError()
      : std::runtime_error("injected rank crash (fail-stop fault)") {}
};

/// True when primary and shadow values diverge. Bit-pattern comparison so
/// that NaN == NaN and +0 != -0 behave as memory diffing would.
inline bool values_diverge(double primary, double shadow) noexcept {
  return std::bit_cast<std::uint64_t>(primary) !=
         std::bit_cast<std::uint64_t>(shadow);
}

/// Whether newly reset/armed FaultContexts use the countdown fast path
/// (default) or the pre-countdown reference implementation;
/// set_fast_real_enabled() selects it per process (tests and benches).
[[nodiscard]] bool fast_real_enabled() noexcept;
void set_fast_real_enabled(bool enabled) noexcept;

/// Record of one performed injection (for debugging and trace analysis:
/// F-SEFI similarly maps each injected instruction back to the
/// application).
struct InjectionEvent {
  std::uint64_t op_total = 0;     ///< unfiltered dynamic op count at injection
  std::uint64_t op_filtered = 0;  ///< index within the filtered stream
  OpKind kind = OpKind::Add;
  Region region = Region::Common;
  std::uint8_t operand = 0;
  std::uint8_t bit = 0;
  std::uint8_t width = 1;
  double value_before = 0.0;
  double value_after = 0.0;

  friend bool operator==(const InjectionEvent&,
                         const InjectionEvent&) = default;
};

class FaultContext {
 public:
  FaultContext() = default;

  // Contexts are pinned per rank; copying one mid-run is always a bug.
  FaultContext(const FaultContext&) = delete;
  FaultContext& operator=(const FaultContext&) = delete;

  /// Install an injection plan for the next run. Clears all counters.
  /// Throws std::invalid_argument if plan.points is not sorted by op_index.
  void arm(InjectionPlan plan);

  /// Clear counters and any armed plan (counting-only mode).
  void reset();

  /// Abort the run (via HangBudgetExceeded) once more than `budget`
  /// instrumented operations execute. 0 disables the guard.
  void set_op_budget(std::uint64_t budget) noexcept {
    op_budget_ = budget;
    recompute_countdown();
  }

  // ---- observed results ---------------------------------------------------

  [[nodiscard]] const OpCountProfile& profile() const noexcept {
    return profile_;
  }
  /// Total dynamic operations so far. The fast path maintains only the
  /// per-(region, kind) profile cells in its per-op code and derives the
  /// total on demand — the profile advances in lockstep with the reference
  /// path's dedicated counter, so the value is bit-identical.
  [[nodiscard]] std::uint64_t ops_total() const noexcept {
    return fast() ? profile_.total() : ops_total_;
  }
  /// Dynamic operations that matched the armed plan's filters so far (the
  /// stream injection points index into). 0 when never armed. Derived on
  /// the fast path: an op advances the filtered stream iff it lands in a
  /// (region, kind) cell selected by the filters, so the stream length is
  /// profile_.matching(...) — corrected by filtered_bias_ for ops the
  /// reference path counts in the profile but not the stream (the
  /// budget-throw ordering, see on_event).
  [[nodiscard]] std::uint64_t filtered_ops() const noexcept {
    if (!fast()) return filtered_ops_;
    if (!armed_) return 0;
    return profile_.matching(plan_.kinds, plan_.regions) -
           static_cast<std::uint64_t>(filtered_bias_);
  }
  /// Number of planned flips actually performed.
  [[nodiscard]] std::size_t injections_done() const noexcept {
    return next_point_;
  }
  /// Trace of performed injections, in execution order.
  [[nodiscard]] const std::vector<InjectionEvent>& injection_events()
      const noexcept {
    return events_;
  }
  /// True if corrupted (primary != shadow) data was injected here, produced
  /// by this rank's computation, or delivered into its memory by a receive.
  [[nodiscard]] bool contaminated() const noexcept { return contaminated_; }
  /// Dynamic op index (unfiltered) at which contamination first occurred;
  /// meaningful only when contaminated().
  [[nodiscard]] std::uint64_t first_contamination_op() const noexcept {
    return first_contamination_op_;
  }

  /// Mark this rank contaminated outside an op (message delivery).
  void note_external_taint() noexcept { mark_contaminated(); }

  // ---- message-payload stream ----------------------------------------------

  /// fsefi::Real elements delivered into this rank by receives so far
  /// (point-to-point and collective-internal alike). This is the sample
  /// space MessagePayload scenarios draw from; golden runs record it.
  [[nodiscard]] std::uint64_t recv_reals() const noexcept {
    return recv_reals_;
  }
  /// Account `n` delivered Real elements (transport delivery hook).
  void add_recv_reals(std::size_t n) noexcept {
    recv_reals_ += static_cast<std::uint64_t>(n);
  }
  /// The next pending payload flip whose delivery index falls in
  /// [base, base + n), consuming it, or nullptr. The caller performs the
  /// flip on element (point->op_index - base) of the delivered span.
  [[nodiscard]] const InjectionPoint* take_payload_flip(
      std::uint64_t base, std::size_t n) noexcept {
    if (!armed_ || next_payload_ >= plan_.payload_points.size()) {
      return nullptr;
    }
    return take_payload_flip_slow(base, n);
  }
  /// Payload flips performed so far.
  [[nodiscard]] std::size_t payload_flips_done() const noexcept {
    return next_payload_;
  }

  // ---- region tracking ------------------------------------------------------

  [[nodiscard]] Region current_region() const noexcept { return region_; }

  // ---- hot path -------------------------------------------------------------

  /// Record one dynamic FP operation and perform any planned bit flips on
  /// the primary operand values (shadows are never flipped). The caller
  /// computes the op on both the primary and shadow values afterwards.
  /// `b`/`b_shadow` are ignored for unary kinds.
  void on_op(OpKind kind, double& a, double& b) {
    // profile_row_ tracks the current region, and `kind` is a constant at
    // every inlined call site, so the count bump is one increment at a
    // fixed offset. Everything else — filtered-stream length, op totals —
    // is derived from the profile when needed.
    ++profile_row_[static_cast<int>(kind)];
    if (state_ == HotState::FastIdle) {
      // No event source (no pending injection, no budget): the whole run
      // for golden passes, the post-injection tail for campaign trials.
      return;
    }
    if (state_ == HotState::FastLive) {
      if (--countdown_ == 0) [[unlikely]] {
        on_event(kind, a, b);
      }
      return;
    }
    reference_on_op(kind, a, b);
  }

  /// How many of the next `max_ops` dynamic operations are guaranteed to
  /// be event-free (no injection can become due, no budget exhaustion).
  /// Blocked kernels run that window as raw arithmetic and account it via
  /// on_block(). Always 0 on the reference path, which forces kernels
  /// through the per-op reference implementation.
  [[nodiscard]] std::uint64_t quiet_ops(std::uint64_t max_ops) const noexcept {
    if (!fast()) return 0;
    const std::uint64_t quiet = countdown_ - 1;  // countdown_ >= 1 invariant
    return max_ops < quiet ? max_ops : quiet;
  }

  /// Account `n` dynamic operations of one kind in the current region at
  /// once. Only valid for ops inside a window returned by quiet_ops():
  /// the caller guarantees no event falls among them, so order within the
  /// block cannot matter and bulk addition is exact.
  void on_block(OpKind kind, std::uint64_t n) noexcept {
    profile_row_[static_cast<int>(kind)] += n;
    countdown_ -= n;
  }

  /// Checkpoint fast-forward (DESIGN.md §9): bulk-adjust the counters to
  /// `target`, an absolute per-(region, kind) profile recorded at a
  /// fault-free boundary of the golden run. Because the fault-free prefix
  /// of a trial is bit-identical to the golden run, jumping the counters
  /// to the recorded values is indistinguishable from having executed the
  /// prefix — injection-point matching and the hang-budget guard both key
  /// off these counts. Valid only before any injection or budget throw
  /// has occurred on this context.
  void fast_forward(const OpCountProfile& target) noexcept;

  /// Called with each op's computed result; flags contamination when the
  /// corrupted execution diverges from the shadow (fault-free) execution.
  void observe_result(double primary, double shadow) noexcept {
    if (!contaminated_ && values_diverge(primary, shadow)) {
      mark_contaminated();
    }
  }

 private:
  friend class RegionScope;

  /// Countdown value meaning "no event armed": far beyond any real run's
  /// op count, so the slow path is never entered.
  static constexpr std::uint64_t kIdleCountdown = std::uint64_t{1} << 62;

  /// Per-op dispatch state, one byte so the hot path branches on a single
  /// load. FastIdle: countdown fast path with nothing armed to fire (no
  /// pending injection point, no budget). FastLive: countdown running.
  /// Reference: set_fast_real_enabled(false).
  enum class HotState : std::uint8_t { FastIdle = 0, FastLive = 1,
                                       Reference = 2 };

  [[nodiscard]] bool fast() const noexcept {
    return state_ != HotState::Reference;
  }

  void set_region(Region region) noexcept {
    region_ = region;
    profile_row_ = profile_.counts[static_cast<int>(region)];
  }

  void mark_contaminated() noexcept {
    if (!contaminated_) {
      contaminated_ = true;
      first_contamination_op_ = ops_total();
    }
  }

  /// Cold path of the countdown dispatcher: fires when the conservative
  /// event distance elapses. Throws the hang budget, performs any
  /// injections due at this op, and recomputes the countdown.
  void on_event(OpKind kind, double& a, double& b);

  /// The pre-countdown per-op implementation (the differential oracle):
  /// op-total bump, budget check, two mask lookups, and a linear point
  /// match per op. Kept out of line so the fast path stays small enough
  /// to inline.
  void reference_on_op(OpKind kind, double& a, double& b);

  /// countdown_ := min distance (in ops, conservative lower bound) to the
  /// next injection becoming due or the budget running out; >= 1 always.
  void recompute_countdown() noexcept;

  /// Cold path of take_payload_flip: range check, telemetry, consume.
  [[nodiscard]] const InjectionPoint* take_payload_flip_slow(
      std::uint64_t base, std::size_t n) noexcept;

  OpCountProfile profile_{};
  std::uint64_t ops_total_ = 0;
  std::uint64_t filtered_ops_ = 0;
  std::uint64_t op_budget_ = 0;
  std::uint64_t recv_reals_ = 0;

  InjectionPlan plan_{};
  bool armed_ = false;
  std::size_t next_point_ = 0;
  std::size_t next_payload_ = 0;
  std::vector<InjectionEvent> events_;

  bool contaminated_ = false;
  std::uint64_t first_contamination_op_ = 0;

  Region region_ = Region::Common;

  // ---- countdown fast path (see file comment) -----------------------------
  /// Latched from fast_real_enabled() at construction/reset/arm; flips
  /// between FastIdle and FastLive as event sources appear.
  HotState state_ = fast_real_enabled() ? HotState::FastIdle
                                        : HotState::Reference;
  /// profile_.counts row for region_, kept in sync by set_region() so the
  /// per-op count bump needs no region indexing.
  std::uint64_t* profile_row_ = profile_.counts[static_cast<int>(
      Region::Common)];
  std::uint32_t filter_word_ = 0;     ///< filter_word(plan.kinds, plan.regions)
  std::uint64_t countdown_ = kIdleCountdown;
  /// Filtered ops the derived count includes but the reference stream does
  /// not: ops that threw the hang budget (the reference throws before
  /// filter accounting, but the profile cell was already bumped).
  std::uint64_t filtered_bias_ = 0;
};

namespace detail {
/// The per-thread installed context. Inline so every translation unit
/// reads the thread-local slot directly instead of paying an out-of-line
/// call per instrumented operation.
inline thread_local FaultContext* tl_context = nullptr;
}  // namespace detail

/// The context installed on the calling thread, or nullptr when the thread
/// is not running under fault injection (ops then execute uninstrumented).
inline FaultContext* current_context() noexcept { return detail::tl_context; }

/// Install `ctx` on the calling thread; pass nullptr to uninstall.
inline void install_context(FaultContext* ctx) noexcept {
  detail::tl_context = ctx;
}

/// RAII installer for the calling thread.
class ContextGuard {
 public:
  explicit ContextGuard(FaultContext* ctx) noexcept
      : previous_(current_context()) {
    install_context(ctx);
  }
  ~ContextGuard() { install_context(previous_); }
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  FaultContext* previous_;
};

/// RAII region marker. Apps wrap their parallel-unique computation
/// (Observation 1) in RegionScope(Region::ParallelUnique) so the injector
/// can attribute dynamic operations — and target injections — per region.
class RegionScope {
 public:
  explicit RegionScope(Region region) noexcept
      : ctx_(current_context()), previous_(Region::Common) {
    if (ctx_ != nullptr) {
      previous_ = ctx_->region_;
      ctx_->set_region(region);
    }
  }
  ~RegionScope() {
    if (ctx_ != nullptr) ctx_->set_region(previous_);
  }
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;

 private:
  FaultContext* ctx_;
  Region previous_;
};

}  // namespace resilience::fsefi

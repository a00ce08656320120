// Cooperative execution control: deadlines, proposal budgets, cancellation.
//
// Every long-running solver loop (the GS engines, Irving rotation
// elimination, the binding drivers) accepts an optional ExecControl* and
// charges it one unit per proposal (or a batch per round). When the budget is
// exceeded or cancellation is requested, charge() throws ExecutionAborted —
// the solve unwinds cleanly instead of running to completion or hanging.
//
// Cost discipline: a null control is one predictable branch per proposal. An
// attached control costs one relaxed fetch_add plus two predictable branches
// (the proposal-budget compare — plain arithmetic on the fetch_add result —
// and the stride test); the cancellation token and the wall clock are only
// consulted every kClockStride charged units (amortized checking); the E9
// benchmark measures what the charge still costs (docs/RESILIENCE.md). A
// requested cancellation is observed within at most kClockStride charged
// units on the amortized path; check_now() stays unamortized — it always
// consults the token, the proposal budget, and the clock — so coarse
// checkpoints (per binding edge, per parallel round, cache waiters) keep
// prompt abort latency. ExecControl is thread-safe: the parallel executors
// share one control across pool workers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <utility>

#include "resilience/errors.hpp"

namespace kstable::resilience {

/// Work limits for one solve attempt. Non-positive fields mean "unlimited".
struct Budget {
  double wall_ms = 0.0;            ///< wall-clock limit in milliseconds
  std::int64_t max_proposals = 0;  ///< accumulated-proposal limit

  [[nodiscard]] bool unlimited() const noexcept {
    return wall_ms <= 0.0 && max_proposals <= 0;
  }
  [[nodiscard]] static Budget deadline(double ms) noexcept {
    return Budget{ms, 0};
  }
  [[nodiscard]] static Budget proposals(std::int64_t count) noexcept {
    return Budget{0.0, count};
  }
};

/// Shared cancellation flag. Copies observe the same flag; request_cancel()
/// from any thread makes every solver holding a control with this token abort
/// at its next charge.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() const noexcept {
    flag_->store(true, std::memory_order_release);
  }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Per-attempt execution controller: a Budget, a CancellationToken, and the
/// amortized checking state. One instance guards one solve attempt; pass its
/// address through the solver options (non-owning).
class ExecControl {
 public:
  /// How many charged units pass between wall-clock reads.
  static constexpr std::int64_t kClockStride = 1024;

  ExecControl() = default;
  explicit ExecControl(Budget budget, CancellationToken token = {})
      : budget_(budget), token_(std::move(token)) {}

  /// Records `events` units of work (proposals). Throws ExecutionAborted when
  /// over the proposal budget (checked on every call — plain arithmetic on
  /// the fetch_add result), or — checked only when the charge counter crosses
  /// a kClockStride boundary — when cancelled or past the wall-clock
  /// deadline. Amortizing the token's acquire load keeps the per-proposal
  /// cost at one relaxed fetch_add plus predictable branches; a cancellation
  /// is still observed within kClockStride charged units (and immediately at
  /// the next check_now()).
  void charge(std::int64_t events = 1) {
    const std::int64_t before =
        spent_.fetch_add(events, std::memory_order_relaxed);
    const std::int64_t after = before + events;
    if (budget_.max_proposals > 0 && after > budget_.max_proposals) {
      abort_now(AbortReason::proposal_budget, after);
    }
    if (before / kClockStride != after / kClockStride) {
      if (token_.cancelled()) abort_now(AbortReason::cancelled, after);
      if (budget_.wall_ms > 0.0) check_deadline(after);
    }
  }

  /// Unamortized checkpoint for coarse boundaries (per binding edge, per
  /// parallel round, cache waiters): always consults the cancellation flag,
  /// the proposal budget, and the clock. The budget comparison matters for
  /// work the checkpoint owner never charged itself: a shared control pushed
  /// over budget by other workers, or a driver whose own charges were
  /// serviced from a cache, must still stop here rather than overrun the
  /// budget indefinitely.
  void check_now() {
    const std::int64_t seen = spent_.load(std::memory_order_relaxed);
    if (token_.cancelled()) abort_now(AbortReason::cancelled, seen);
    if (budget_.max_proposals > 0 && seen > budget_.max_proposals) {
      abort_now(AbortReason::proposal_budget, seen);
    }
    if (budget_.wall_ms > 0.0) check_deadline(seen);
  }

  [[nodiscard]] std::int64_t spent() const noexcept {
    return spent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  [[nodiscard]] const Budget& budget() const noexcept { return budget_; }
  [[nodiscard]] const CancellationToken& token() const noexcept {
    return token_;
  }

  /// The status of a run this control aborted, for attempt logs.
  [[nodiscard]] SolveStatus aborted_status(AbortReason reason,
                                           std::string detail) const {
    SolveStatus status;
    status.outcome = SolveOutcome::aborted;
    status.abort_reason = reason;
    status.detail = std::move(detail);
    status.proposals = spent();
    status.wall_ms = elapsed_ms();
    return status;
  }

 private:
  [[noreturn]] void abort_now(AbortReason reason, std::int64_t spent) const {
    std::ostringstream os;
    os << "solve aborted (" << kstable::to_string(reason) << ") after "
       << spent << " proposals, " << elapsed_ms() << " ms";
    if (reason == AbortReason::proposal_budget) {
      os << " (budget " << budget_.max_proposals << ')';
    } else if (reason == AbortReason::deadline) {
      os << " (deadline " << budget_.wall_ms << " ms)";
    }
    throw ExecutionAborted(reason, os.str());
  }

  void check_deadline(std::int64_t spent) const {
    if (elapsed_ms() > budget_.wall_ms) {
      abort_now(AbortReason::deadline, spent);
    }
  }

  Budget budget_{};
  CancellationToken token_{};
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::atomic<std::int64_t> spent_{0};
};

}  // namespace kstable::resilience

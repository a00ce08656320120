// BatchSolver: solve many independent k-partite instances across the thread
// pool — the first serving-shaped API (ROADMAP: heavy traffic, many solves
// per second, not one big solve).
//
// Execution model: one task per instance over ThreadPool::for_each_index.
// Each pool worker keeps a thread_local gs::GsWorkspace, so after the first
// item warms it the per-edge GS runs allocate nothing; each *item* gets its
// own GsEdgeCache (caches are per-instance by contract) and its own
// ExecControl, so one slow or poisoned instance times out alone without
// stalling the batch. Abort-class failures (deadline, proposal budget,
// cancellation) never throw out of solve(): the per-item SolveStatus carries
// them, exactly like resilience::FallbackReport does for single solves.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/binding.hpp"
#include "observability/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "prefs/matching.hpp"
#include "resilience/control.hpp"

namespace kstable::core {

/// How each item's binding tree is chosen.
enum class BatchTree : std::uint8_t {
  path,        ///< trees::path(k) — the library default, no probe overhead
  cost_aware,  ///< probe all pairs, bind the min-cost tree; the tree's edges
               ///< replay from the per-item cache's probes for free
  sweep_best   ///< sweep_all_trees best_cost fold: the exact argmin over all
               ///< k^(k-2) trees (small k only). Runs inside a pool worker,
               ///< so TreeSweep's nested-pool guard keeps each item's sweep
               ///< sequential — the batch stays one-task-per-item.
};

struct BatchOptions {
  BatchTree tree = BatchTree::path;
  /// Budget applied to every item (each gets a fresh ExecControl), unless
  /// overridden per item below. Default: unlimited.
  resilience::Budget per_item{};
  /// Optional per-item budgets; when non-empty, must match the batch size.
  std::vector<resilience::Budget> per_item_budgets;
  /// Shared across all items: cancelling aborts every unfinished item.
  resilience::CancellationToken token{};
};

/// Outcome of one batch item.
struct BatchItemResult {
  /// ok, or aborted with reason/detail — mirrors the item's solo-run status
  /// under the same budget (asserted by the TSan batch tests).
  resilience::SolveStatus status;
  /// Set iff status.ok().
  std::optional<KaryMatching> matching;
  /// Theorem 3's unit for the item's solve (0 if aborted before any edge).
  std::int64_t total_proposals = 0;
  /// Per-item edge-cache outcomes. Pure single-tree path solves see only
  /// compulsory misses; cost-aware items hit on the probed edges.
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  /// Per-item record (engine "batch.item"); aborted items carry the abort
  /// status with the proposals spent before the cutoff.
  obs::SolveTelemetry telemetry;
};

class BatchSolver {
 public:
  /// The solver borrows `pool` (not owned); one BatchSolver per pool is the
  /// expected shape, but solve() is re-entrant and stateless apart from the
  /// workers' thread_local workspaces.
  explicit BatchSolver(ThreadPool& pool) : pool_(pool) {}

  /// Solves every instance; results are index-aligned with `instances`.
  /// Abort-class failures land in the item's status; ContractViolation (a
  /// programming error) propagates.
  std::vector<BatchItemResult> solve(
      std::span<const KPartiteInstance> instances,
      const BatchOptions& options = {});

 private:
  ThreadPool& pool_;
};

}  // namespace kstable::core

#include "core/batch_solver.hpp"

#include <utility>

#include "core/gs_cache.hpp"
#include "core/tree_selection.hpp"
#include "core/tree_sweep.hpp"
#include "observability/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kstable::core {

std::vector<BatchItemResult> BatchSolver::solve(
    std::span<const KPartiteInstance> instances, const BatchOptions& options) {
  KSTABLE_REQUIRE(options.per_item_budgets.empty() ||
                      options.per_item_budgets.size() == instances.size(),
                  "per_item_budgets has " << options.per_item_budgets.size()
                                          << " entries for "
                                          << instances.size() << " instances");

  std::vector<BatchItemResult> results(instances.size());
  pool_.for_each_index(instances.size(), [&](std::size_t idx) {
    const KPartiteInstance& inst = instances[idx];
    BatchItemResult& out = results[idx];
    const resilience::Budget budget = options.per_item_budgets.empty()
                                          ? options.per_item
                                          : options.per_item_budgets[idx];
    resilience::ExecControl control(budget, options.token);
    // One workspace per pool worker, reused across items and batches: after
    // the largest instance warms it, the GS hot path allocates nothing.
    thread_local gs::GsWorkspace workspace;
    GsEdgeCache cache(inst.genders());

    BindingOptions bopts;
    bopts.engine = options.engine;
    bopts.control = &control;
    bopts.workspace = &workspace;
    bopts.cache = options.use_cache ? &cache : nullptr;
    WallTimer item_timer;
    try {
      BindingResult result = [&] {
        switch (options.tree) {
          case BatchTree::cost_aware:
            return cost_aware_binding(inst, TreeObjective::min_cost, bopts);
          case BatchTree::sweep_best: {
            // We are a pool worker here, so the sweep's nested guard makes
            // it run sequentially even with the pool attached — exactly the
            // oversubscription behavior the tree_sweep tests pin down.
            TreeSweepOptions sopts;
            sopts.engine = options.engine;
            sopts.pool = &pool_;
            sopts.cache = bopts.cache;
            sopts.control = bopts.control;
            TreeSweepResult sweep = sweep_all_trees(inst, sopts);
            KSTABLE_ASSERT(sweep.succeeded());
            return std::move(*sweep.best);
          }
          case BatchTree::path:
            break;
        }
        return iterative_binding(inst, trees::path(inst.genders()), bopts);
      }();
      out.status = result.status;
      out.total_proposals = result.total_proposals;
      out.telemetry = result.telemetry;  // engine relabeled below
      out.matching = std::move(result.equivalence.matching);
    } catch (const ExecutionAborted& e) {
      out.status = control.aborted_status(e.reason(), e.what());
      out.total_proposals = control.spent();
      out.telemetry.executed_proposals = control.spent();
      KSTABLE_COUNTER_ADD("batch.items_aborted", 1);
    }
    if (options.use_cache) {
      // The per-item cache is fresh, so its stats cover the whole item —
      // including cost-aware probe replays and edges solved before an abort.
      const auto stats = cache.stats();
      out.cache_hits = stats.hits;
      out.cache_misses = stats.misses;
    }
    obs::SolveTelemetry& t = out.telemetry;
    t.engine = "batch.item";
    t.genders = inst.genders();
    t.size = inst.per_gender();
    t.wall_ms = item_timer.millis();
    t.status = out.status;
    t.proposals = out.total_proposals;
    t.cache_hits = out.cache_hits;
    t.cache_misses = out.cache_misses;
    t.attempts = 1;
    if (budget.wall_ms > 0.0 && out.status.ok()) {
      const double margin = budget.wall_ms - control.elapsed_ms();
      t.deadline_margin_ms = margin > 0.0 ? margin : 0.0;
    }
    obs::record(t);
    KSTABLE_COUNTER_ADD("batch.items", 1);
  });
  return results;
}

}  // namespace kstable::core

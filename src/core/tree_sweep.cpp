#include "core/tree_sweep.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "analysis/metrics.hpp"
#include "graph/prufer.hpp"
#include "observability/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kstable::core {

namespace {

/// Produces candidate `index` (pure: callable from any worker).
using TreeProvider = std::function<BindingStructure(std::int64_t)>;

/// Per-worker partial fold. Merged in worker order at the end; every field
/// merges through an order-insensitive operation (sum, or the fold's total
/// order on (cost, index)), which is what makes the sweep schedule-invariant.
struct WorkerLocal {
  std::int64_t trees = 0;
  std::int64_t total_proposals = 0;
  std::int64_t executed_proposals = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t best_index = -1;
  std::int64_t best_cost = 0;
  std::optional<BindingResult> best;
  std::optional<BindingStructure> best_tree;
  std::vector<TreePoint> points;
};

/// The fold's total order: (cost, index) lexicographically, lower wins; a
/// best_index of -1 means nothing is held yet.
bool beats(std::int64_t cost, std::int64_t index, std::int64_t best_cost,
           std::int64_t best_index) {
  return best_index < 0 || cost < best_cost ||
         (cost == best_cost && index < best_index);
}

/// Evaluates candidate `index` into `local`.
void evaluate_tree(const KPartiteInstance& inst, std::int64_t index,
                   const TreeProvider& provider, const TreeSweepOptions& opt,
                   gs::GsWorkspace& workspace, WorkerLocal& local) {
  if (opt.control != nullptr) opt.control->check_now();
  const BindingStructure tree = provider(index);

  BindingOptions bopts;
  bopts.control = opt.control;
  bopts.cache = opt.cache;
  bopts.warm_start = opt.warm_start;
  bopts.workspace = &workspace;
  BindingResult result = iterative_binding(inst, tree, bopts);

  ++local.trees;
  local.total_proposals += result.total_proposals;
  local.executed_proposals += result.executed_proposals;
  local.cache_hits += result.cache_hits;
  local.cache_misses += result.cache_misses;
  const std::int64_t cost =
      analysis::kary_tree_costs(inst, result.matching(), tree).total_cost;

  if (opt.fold == SweepFold::score_table) {
    TreePoint point;
    point.index = index;
    point.prufer = prufer::encode(tree);
    point.bound_pair_cost = cost;
    point.all_pairs_cost =
        analysis::kary_costs(inst, result.matching()).total_cost;
    point.total_proposals = result.total_proposals;
    point.executed_proposals = result.executed_proposals;
    point.cache_hits = result.cache_hits;
    point.cache_misses = result.cache_misses;
    if (opt.keep_matchings) point.matching = result.matching();
    local.points.push_back(std::move(point));
  }
  if (beats(cost, index, local.best_cost, local.best_index)) {
    local.best_index = index;
    local.best_cost = cost;
    local.best = std::move(result);
    local.best_tree = tree;
  }
}

TreeSweepResult sweep_indexed(const KPartiteInstance& inst, std::int64_t count,
                              const TreeProvider& provider,
                              const TreeSweepOptions& opt) {
  if (opt.cache != nullptr) {
    KSTABLE_REQUIRE(opt.cache->genders() == inst.genders(),
                    "cache built for k=" << opt.cache->genders()
                                         << ", instance has k="
                                         << inst.genders());
  }

  TreeSweepResult out;
  const WallTimer timer;
  const GsEdgeCache::Stats cache_before =
      opt.cache != nullptr ? opt.cache->stats() : GsEdgeCache::Stats{};

  const bool nested = opt.pool != nullptr && ThreadPool::in_worker_thread();
  const bool parallel_run = opt.pool != nullptr && !nested &&
                            opt.pool->thread_count() > 1 && count > 1;

  std::vector<WorkerLocal> locals;
  if (parallel_run) {
    locals.resize(opt.pool->thread_count());
    const SweepSchedule schedule = sweep_index_space(
        count, *opt.pool, 1,
        [&](std::size_t worker, std::int64_t begin, std::int64_t end) {
          // One warm workspace per pool thread, reused across sweeps (the
          // BatchSolver pattern): every per-edge GS run is allocation-free.
          thread_local gs::GsWorkspace workspace;
          for (std::int64_t i = begin; i < end; ++i) {
            evaluate_tree(inst, i, provider, opt, workspace, locals[worker]);
          }
        });
    out.stats.chunks = schedule.chunks;
    out.stats.workers = schedule.workers;
  } else {
    locals.resize(1);
    gs::GsWorkspace workspace;
    for (std::int64_t i = 0; i < count; ++i) {
      evaluate_tree(inst, i, provider, opt, workspace, locals[0]);
    }
    out.stats.workers = 1;
    out.stats.nested_fallback = nested;
  }

  // Deterministic merge of the per-worker partials: sums plus the fold's
  // total order, both independent of which worker saw which tree.
  TreeSweepStats& st = out.stats;
  for (auto& local : locals) {
    st.trees += local.trees;
    st.total_proposals += local.total_proposals;
    st.executed_proposals += local.executed_proposals;
    st.cache_hits += local.cache_hits;
    st.cache_misses += local.cache_misses;
    if (local.best.has_value() &&
        beats(local.best_cost, local.best_index, out.best_cost,
              out.best_index)) {
      out.best_index = local.best_index;
      out.best_cost = local.best_cost;
      out.best = std::move(local.best);
      out.best_tree = std::move(local.best_tree);
    }
    for (auto& point : local.points) out.per_tree.push_back(std::move(point));
  }
  std::sort(out.per_tree.begin(), out.per_tree.end(),
            [](const TreePoint& x, const TreePoint& y) {
              return x.index < y.index;
            });

  if (opt.cache != nullptr) {
    st.single_flight_waits = opt.cache->stats().single_flight_waits -
                             cache_before.single_flight_waits;
  }
  st.wall_ms = timer.millis();
  st.trees_per_sec = st.wall_ms > 0.0
                         ? static_cast<double>(st.trees) / (st.wall_ms / 1e3)
                         : 0.0;

  obs::SolveTelemetry& t = out.telemetry;
  t.engine = "sweep";
  t.genders = inst.genders();
  t.size = inst.per_gender();
  t.wall_ms = st.wall_ms;
  t.add_phase("sweep", st.wall_ms);
  if (out.best.has_value()) t.status = out.best->status;
  t.proposals = st.total_proposals;
  t.executed_proposals = st.executed_proposals;
  t.cache_hits = st.cache_hits;
  t.cache_misses = st.cache_misses;
  t.attempts = st.trees;
  obs::record(t);
  KSTABLE_COUNTER_ADD("sweep.trees", st.trees);
  KSTABLE_COUNTER_ADD("sweep.chunks", st.chunks);
  if (st.nested_fallback) KSTABLE_COUNTER_ADD("sweep.nested_fallback", 1);
  KSTABLE_GAUGE_SET("sweep.trees_per_sec", st.trees_per_sec);
  return out;
}

}  // namespace

SweepSchedule sweep_index_space(
    std::int64_t count, ThreadPool& pool, std::int64_t chunk,
    const std::function<void(std::size_t worker, std::int64_t begin,
                             std::int64_t end)>& run) {
  KSTABLE_REQUIRE(count >= 0, "negative index space: " << count);
  KSTABLE_REQUIRE(chunk >= 1, "chunk must be >= 1, got " << chunk);
  SweepSchedule schedule;
  const std::size_t workers = std::max<std::size_t>(1, pool.thread_count());
  schedule.workers = workers;
  if (count == 0) return schedule;

  // Clamped so that the cursor, which every worker pushes one chunk past
  // count on its way out, cannot overflow.
  chunk = std::min(chunk, count);
  std::atomic<std::int64_t> cursor{0};
  pool.for_each_index(workers, [&](std::size_t w) {
    for (;;) {
      const std::int64_t begin =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) return;
      run(w, begin, std::min(count, begin + chunk));
    }
  });
  // Every block below count was claimed exactly once.
  schedule.chunks = (count + chunk - 1) / chunk;
  return schedule;
}

TreeSweepResult sweep_all_trees(const KPartiteInstance& inst,
                                const TreeSweepOptions& options) {
  const Gender k = inst.genders();
  const std::int64_t count = prufer::cayley_count(k);
  KSTABLE_REQUIRE(count <= options.max_trees,
                  "full sweep of k=" << k << " spans " << count
                                     << " trees, above the max_trees guard ("
                                     << options.max_trees << ')');
  return sweep_indexed(
      inst, count,
      [k](std::int64_t index) { return prufer::tree_at(index, k); }, options);
}

TreeSweepResult sweep_trees(const KPartiteInstance& inst,
                            const std::vector<BindingStructure>& candidates,
                            const TreeSweepOptions& options) {
  for (const auto& tree : candidates) {
    KSTABLE_REQUIRE(tree.genders() == inst.genders(),
                    "candidate tree has " << tree.genders()
                                          << " genders, instance "
                                          << inst.genders());
    KSTABLE_REQUIRE(tree.is_spanning_tree(),
                    "sweep candidates must be spanning binding trees");
  }
  return sweep_indexed(inst, static_cast<std::int64_t>(candidates.size()),
                       [&candidates](std::int64_t index) {
                         return candidates[static_cast<std::size_t>(index)];
                       },
                       options);
}

}  // namespace kstable::core

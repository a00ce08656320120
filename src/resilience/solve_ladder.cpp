#include "resilience/solve_ladder.hpp"

#include <cmath>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/gs_cache.hpp"
#include "core/priority_binding.hpp"
#include "core/tree_sweep.hpp"
#include "graph/prufer.hpp"
#include "observability/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kstable::resilience {

namespace {

Budget scaled(const Budget& base, double scale) {
  Budget b = base;
  if (b.wall_ms > 0.0) b.wall_ms *= scale;
  if (b.max_proposals > 0) {
    b.max_proposals =
        static_cast<std::int64_t>(static_cast<double>(b.max_proposals) * scale);
  }
  return b;
}

SolveStatus abort_status(const ExecControl& control, const ExecutionAborted& e) {
  return control.aborted_status(e.reason(), e.what());
}

}  // namespace

FallbackReport solve_with_fallback(const KPartiteInstance& inst,
                                   const FallbackOptions& options) {
  KSTABLE_REQUIRE(options.backoff >= 1.0,
                  "backoff must be >= 1, got " << options.backoff);
  KSTABLE_REQUIRE(options.max_tree_attempts >= 1,
                  "need at least one strict attempt");
  const Gender k = inst.genders();

  FallbackReport report;
  // Cache counters are read as a delta off the cache's own stats so that
  // hits inside *aborted* attempts (whose BindingResult is lost to the
  // unwinding) are still accounted for.
  const core::GsEdgeCache::Stats cache_before =
      options.cache != nullptr ? options.cache->stats()
                               : core::GsEdgeCache::Stats{};
  const WallTimer ladder_timer;
  const auto finalize = [&](FallbackReport& r) -> FallbackReport& {
    if (options.cache != nullptr) {
      const auto now = options.cache->stats();
      r.cache_hits = now.hits - cache_before.hits;
      r.cache_misses = now.misses - cache_before.misses;
    }
    obs::SolveTelemetry& t = r.telemetry;
    t.engine = "ladder";
    t.genders = inst.genders();
    t.size = inst.per_gender();
    t.wall_ms = ladder_timer.millis();
    t.add_phase("ladder", t.wall_ms);
    t.status = r.status;
    // The ladder's proposal total is the semantic count of the winning
    // attempt; executed covers every attempt (failed rungs included).
    t.proposals = r.result.has_value() ? r.result->total_proposals : 0;
    t.executed_proposals = r.executed_proposals;
    t.cache_hits = r.cache_hits;
    t.cache_misses = r.cache_misses;
    t.attempts = static_cast<std::int64_t>(r.attempts.size());
    t.rung = static_cast<std::int32_t>(r.rung);
    obs::record(t);
    switch (r.rung) {
      case Rung::strict_tree:
        KSTABLE_COUNTER_ADD("ladder.rung.strict", 1);
        break;
      case Rung::degraded_priority:
        KSTABLE_COUNTER_ADD("ladder.rung.degraded", 1);
        break;
      case Rung::none:
        KSTABLE_COUNTER_ADD("ladder.rung.none", 1);
        break;
    }
    return r;
  };
  Rng tree_rng(options.tree_seed);
  // Distinct candidate trees, deduplicated by Prüfer code. cayley_count
  // saturates at INT64_MAX for large k, which is fine as an upper bound.
  // Attempt 0 binds along the path tree (the library default); retries draw
  // fresh random trees from the deterministic stream, skipping repeats. The
  // stream is shared by the sequential and speculative paths, so both see
  // the same candidate list.
  std::set<std::vector<Gender>> tried;
  const std::int64_t distinct_trees = prufer::cayley_count(k);
  const auto next_candidate =
      [&](std::int32_t attempt) -> std::optional<BindingStructure> {
    if (static_cast<std::int64_t>(tried.size()) >= distinct_trees) {
      return std::nullopt;
    }
    BindingStructure tree =
        attempt == 0 ? trees::path(k) : prufer::random_tree(k, tree_rng);
    while (!tried.insert(prufer::encode(tree)).second) {
      tree = prufer::random_tree(k, tree_rng);
    }
    return tree;
  };

  const bool speculate = options.speculative && options.pool != nullptr &&
                         !ThreadPool::in_worker_thread() &&
                         options.pool->thread_count() > 1 &&
                         options.max_tree_attempts > 1;
  if (speculate) {
    // Race the strict rungs: first_stable fold = lowest-indexed candidate to
    // succeed within its backoff-scaled budget, which is the sequential
    // ladder's winner (see FallbackOptions::speculative for the shared-cache
    // caveat). chunk_trees=1 maximizes how many rungs run concurrently.
    std::vector<BindingStructure> candidates;
    candidates.reserve(static_cast<std::size_t>(options.max_tree_attempts));
    for (std::int32_t attempt = 0; attempt < options.max_tree_attempts;
         ++attempt) {
      auto tree = next_candidate(attempt);
      if (!tree.has_value()) break;
      candidates.push_back(std::move(*tree));
    }
    core::TreeSweepOptions sopts;
    sopts.engine = options.engine;
    sopts.pool = options.pool;
    sopts.cache = options.cache;
    sopts.fold = core::SweepFold::first_stable;
    sopts.warm_start = options.warm_start;
    sopts.per_tree_budget = options.per_attempt;
    sopts.budget_backoff = options.backoff;
    sopts.chunk_trees = 1;
    ExecControl sweep_control(Budget{}, options.token);
    sopts.control = &sweep_control;
    try {
      auto sweep = core::sweep_trees(inst, candidates, sopts);
      for (auto& point : sweep.per_tree) {
        report.executed_proposals += point.executed_proposals;
        if (sweep.best_index >= 0 && point.index > sweep.best_index) {
          // Speculation overshoot: rungs the sequential ladder would never
          // have started. Logged as waste, not as attempts.
          report.speculative_waste += point.executed_proposals;
          continue;
        }
        AttemptLog log;
        log.rung = Rung::strict_tree;
        log.tree_edges =
            candidates[static_cast<std::size_t>(point.index)].edges();
        log.status = point.status;
        if (!point.succeeded) report.status = point.status;
        report.attempts.push_back(std::move(log));
      }
      if (sweep.succeeded()) {
        report.succeeded = true;
        report.rung = Rung::strict_tree;
        report.status = sweep.best->status;
        report.result = std::move(sweep.best);
        return finalize(report);
      }
    } catch (const ExecutionAborted& e) {
      // Only a cancellation escapes the raced rungs (per-candidate budget
      // blows are folded into per_tree); it stops the whole ladder.
      report.status = abort_status(sweep_control, e);
      return finalize(report);
    }
  } else {
    double scale = 1.0;
    for (std::int32_t attempt = 0; attempt < options.max_tree_attempts;
         ++attempt) {
      auto candidate = next_candidate(attempt);
      if (!candidate.has_value()) break;
      const BindingStructure tree = std::move(*candidate);

      ExecControl control(scaled(options.per_attempt, scale), options.token);
      AttemptLog log;
      log.rung = Rung::strict_tree;
      log.tree_edges = tree.edges();
      try {
        core::BindingOptions bopts{options.engine, options.pool, &control};
        bopts.cache = options.cache;
        bopts.warm_start = options.warm_start;
        auto result = core::iterative_binding(inst, tree, bopts);
        log.status = result.status;
        report.attempts.push_back(std::move(log));
        report.succeeded = true;
        report.rung = Rung::strict_tree;
        report.status = result.status;
        report.executed_proposals += result.executed_proposals;
        report.result = std::move(result);
        return finalize(report);
      } catch (const ExecutionAborted& e) {
        log.status = abort_status(control, e);
        report.status = log.status;
        // The charged units of the aborted attempt are the proposals it
        // actually executed (cache hits are never charged).
        report.executed_proposals += log.status.proposals;
        report.attempts.push_back(std::move(log));
        // A cancellation is a caller decision, not a per-tree failure: stop
        // the whole ladder instead of burning the remaining rungs.
        if (e.reason() == AbortReason::cancelled) return finalize(report);
        scale *= options.backoff;
      }
    }
  }

  if (options.allow_degraded && !options.token.cancelled()) {
    // Every strict rung failed, so the degraded attempt's budget continues
    // the escalation: backoff^(failed strict attempts) — the same value the
    // sequential loop accumulated multiplicatively.
    const double scale = std::pow(
        options.backoff, static_cast<double>(report.attempts.size()));
    ExecControl control(scaled(options.per_attempt, scale), options.token);
    AttemptLog log;
    log.rung = Rung::degraded_priority;
    try {
      core::PriorityBindingOptions popts;
      popts.binding = {options.engine, options.pool, &control};
      popts.binding.cache = options.cache;
      popts.binding.warm_start = options.warm_start;
      auto pr = core::priority_binding(inst, popts);
      log.tree_edges = pr.tree.edges();
      log.status = pr.binding.status;
      report.attempts.push_back(std::move(log));
      report.succeeded = true;
      report.rung = Rung::degraded_priority;
      report.status = pr.binding.status;
      report.executed_proposals += pr.binding.executed_proposals;
      report.result = std::move(pr.binding);
      return finalize(report);
    } catch (const ExecutionAborted& e) {
      log.status = abort_status(control, e);
      report.status = log.status;
      report.executed_proposals += log.status.proposals;
      report.attempts.push_back(std::move(log));
    }
  }

  report.rung = Rung::none;
  return finalize(report);
}

}  // namespace kstable::resilience

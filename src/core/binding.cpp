#include "core/binding.hpp"

#include <utility>

#include "core/gs_cache.hpp"
#include "resilience/fault_injection.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kstable::core {

namespace {

/// Runs GS on the rounds schedule, no cache involvement.
gs::GsResult solve_cold(const KPartiteInstance& inst, GenderEdge edge,
                        const BindingOptions& options) {
  gs::GsOptions gs_options;
  gs_options.control = options.control;
  gs_options.trace = options.trace;
  gs::GsWorkspace local;
  gs::GsWorkspace& workspace =
      options.workspace != nullptr ? *options.workspace : local;
  gs::GsResult result;
  gs::gale_shapley_rounds(inst, edge.a, edge.b, gs_options, workspace, result);
  return result;
}

/// Fills the result's telemetry from its already-populated counters. The
/// `engine` label (nullptr = "binding") lets the higher drivers (Algorithm 2,
/// parallel executor, ladder) re-label the same record shape.
void finish_telemetry(BindingResult& result, const KPartiteInstance& inst,
                      const BindingOptions& options, const char* engine) {
  obs::SolveTelemetry& t = result.telemetry;
  t.engine = engine != nullptr ? engine : "binding";
  t.genders = inst.genders();
  t.size = inst.per_gender();
  t.wall_ms = result.status.wall_ms;
  t.status = result.status;
  t.proposals = result.total_proposals;
  t.executed_proposals = result.executed_proposals;
  t.cache_hits = result.cache_hits;
  t.cache_misses = result.cache_misses;
  t.attempts = 1;
  for (const auto& r : result.edge_results) t.rounds += r.rounds;
  if (options.control != nullptr && options.control->budget().wall_ms > 0.0) {
    const double margin =
        options.control->budget().wall_ms - options.control->elapsed_ms();
    t.deadline_margin_ms = margin > 0.0 ? margin : 0.0;
  }
}

}  // namespace

gs::GsResult run_binding(const KPartiteInstance& inst, GenderEdge edge,
                         const BindingOptions& options, bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  // Warm-or-cold compute: the warm-start provider (if any) gets first
  // refusal; a nullopt answer falls through to a cold solve.
  const auto compute = [&]() -> gs::GsResult {
    if (options.warm_start != nullptr) {
      if (auto warm = options.warm_start->warm_solve(inst, edge, options)) {
        return std::move(*warm);
      }
    }
    return solve_cold(inst, edge, options);
  };
  if (options.cache == nullptr) return compute();
  KSTABLE_REQUIRE(options.cache->genders() == inst.genders(),
                  "cache built for k=" << options.cache->genders()
                                       << ", instance has k="
                                       << inst.genders());
  // Staleness guard: a generation-bound cache refuses to serve an instance
  // that has mutated since binding (docs/INCREMENTAL.md — invalidate() +
  // rebind() is the sanctioned path). Throws std::logic_error.
  options.cache->check_instance(inst);
  // Single-flight lookup: under a concurrent sweep, N workers missing the
  // same oriented edge run GS once and share the published result.
  return options.cache->get_or_compute(edge, compute, options.control,
                                       cache_hit);
}

BindingResult bind_structure(const KPartiteInstance& inst,
                             const BindingStructure& structure,
                             const BindingOptions& options) {
  KSTABLE_REQUIRE(structure.genders() == inst.genders(),
                  "structure has " << structure.genders()
                                   << " genders, instance " << inst.genders());
  BindingResult result;
  WallTimer timer;
  result.edge_results.reserve(structure.edges().size());
  for (const auto& edge : structure.edges()) {
    KSTABLE_FAULT_POINT("core/binding_edge");
    if (options.control != nullptr) options.control->check_now();
    bool hit = false;
    result.edge_results.push_back(run_binding(inst, edge, options, &hit));
    const auto& edge_result = result.edge_results.back();
    result.total_proposals += edge_result.proposals;
    if (!hit) result.executed_proposals += edge_result.proposals;
    if (options.cache != nullptr) {
      hit ? ++result.cache_hits : ++result.cache_misses;
    }
  }
  const double bind_ms = timer.millis();
  result.equivalence = derive_families(inst, structure, result.edge_results);
  result.status.proposals = result.total_proposals;
  result.status.wall_ms = timer.millis();
  finish_telemetry(result, inst, options, nullptr);
  result.telemetry.add_phase("bind", bind_ms);
  result.telemetry.add_phase("assemble", timer.millis() - bind_ms);
  obs::record(result.telemetry);
  return result;
}

BindingResult iterative_binding(const KPartiteInstance& inst,
                                const BindingStructure& tree,
                                const BindingOptions& options) {
  KSTABLE_REQUIRE(tree.is_spanning_tree(),
                  "Algorithm 1 requires a spanning binding tree; "
                  "use bind_structure for forests/cycles");
  BindingResult result = bind_structure(inst, tree, options);
  // Theorem 2: a spanning tree always yields consistent k-tuples.
  KSTABLE_ENSURE(result.equivalence.consistent,
                 "spanning-tree binding produced inconsistent classes: "
                     << result.equivalence.inconsistency);
  // Theorem 3: at most (k-1) n² accumulated proposals.
  const std::int64_t bound =
      static_cast<std::int64_t>(inst.genders() - 1) *
      static_cast<std::int64_t>(inst.per_gender()) *
      static_cast<std::int64_t>(inst.per_gender());
  KSTABLE_ENSURE(result.total_proposals <= bound,
                 "proposal count " << result.total_proposals
                                   << " exceeds the Theorem 3 bound " << bound);
  return result;
}

StrengthenResult strengthen_bindings(const KPartiteInstance& inst,
                                     const BindingStructure& base,
                                     const BindingOptions& options) {
  KSTABLE_REQUIRE(base.is_forest(),
                  "strengthen_bindings starts from an acyclic base");
  StrengthenResult result{BindingStructure(inst.genders()), {}, 0, 0};
  WallTimer timer;
  // Re-add the base edges, then try every absent pair in (a, b) order.
  std::vector<GenderEdge> candidates = base.edges();
  const auto base_count = static_cast<std::int32_t>(candidates.size());
  for (Gender a = 0; a < inst.genders(); ++a) {
    for (Gender b = a + 1; b < inst.genders(); ++b) {
      bool present = false;
      for (const auto& e : base.edges()) {
        present |= e.normalized() == GenderEdge{a, b};
      }
      if (!present) candidates.push_back({a, b});
    }
  }

  BindingStructure accepted(inst.genders());
  std::vector<gs::GsResult> edge_results;
  for (std::size_t idx = 0; idx < candidates.size(); ++idx) {
    const auto edge = candidates[idx];
    const bool is_base = static_cast<std::int32_t>(idx) < base_count;
    // Tentatively add the edge and re-derive the classes.
    BindingStructure trial = accepted;
    trial.add_edge(edge);
    auto trial_results = edge_results;
    bool hit = false;
    trial_results.push_back(run_binding(inst, edge, options, &hit));
    if (!hit) {
      result.binding.executed_proposals += trial_results.back().proposals;
    }
    if (options.cache != nullptr) {
      hit ? ++result.binding.cache_hits : ++result.binding.cache_misses;
    }
    const auto report = derive_families(inst, trial, trial_results);
    if (report.consistent) {
      accepted = std::move(trial);
      edge_results = std::move(trial_results);
      if (!is_base) ++result.extra_accepted;
    } else {
      KSTABLE_REQUIRE(!is_base, "base edges can never conflict (forest)");
      ++result.extra_rejected;
    }
  }
  result.structure = accepted;
  result.binding.edge_results = std::move(edge_results);
  for (const auto& r : result.binding.edge_results) {
    result.binding.total_proposals += r.proposals;
  }
  result.binding.status.proposals = result.binding.total_proposals;
  result.binding.status.wall_ms = timer.millis();
  result.binding.equivalence =
      derive_families(inst, result.structure, result.binding.edge_results);
  KSTABLE_ENSURE(result.binding.equivalence.consistent,
                 "strengthened structure lost consistency");
  finish_telemetry(result.binding, inst, options, "binding.strengthen");
  result.binding.telemetry.add_phase("strengthen", timer.millis());
  obs::record(result.binding.telemetry);
  return result;
}

BindingStructure greedy_spanning_tree(
    Gender k, const std::vector<GenderEdge>& candidates) {
  BindingStructure tree(k);
  for (const auto& edge : candidates) {
    if (tree.is_spanning_tree()) break;
    if (!tree.would_cycle(edge.a, edge.b)) tree.add_edge(edge);
  }
  KSTABLE_REQUIRE(tree.is_spanning_tree(),
                  "candidate edges do not span the " << k << " genders");
  return tree;
}

}  // namespace kstable::core

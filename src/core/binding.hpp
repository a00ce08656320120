// Iterative Binding GS — Algorithm 1 of the paper (§IV.A) and its
// generalization to arbitrary binding structures for the Theorem 4 tightness
// experiments (§IV.B).
//
// Algorithm 1 applies one binary Gale-Shapley matching per edge of a spanning
// binding tree over the gender set, then converts the pair set into k-ary
// families through the "same matching tuple" equivalence relation
// (equivalence.hpp). Theorem 2: the result is always a stable k-ary matching.
// Theorem 3: it takes at most (k-1)n² accumulated proposals. Theorem 4: k-1
// bindings are tight — bind_structure on a cyclic edge set generally yields
// inconsistent equivalence classes, and on a proper forest the index-assembled
// matching is generally unstable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/equivalence.hpp"
#include "graph/binding_structure.hpp"
#include "gs/gale_shapley.hpp"
#include "observability/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "prefs/kpartite.hpp"
#include "prefs/matching.hpp"
#include "resilience/control.hpp"

namespace kstable::core {

/// Which Gale-Shapley schedule runs each binary binding (gs/propose_loop.hpp):
/// the textbook free stack or the paper's §II.A rounds. Both are sequential
/// and reach the same matching with the same proposal count.
enum class GsEngine { queue, rounds };

/// Number of GsEngine values. Keep NEXT TO the enum and update together when
/// adding an engine: GsEdgeCache sizes its slot table from this and
/// static_asserts against its own compiled-in constant, so a third engine
/// cannot silently alias cache slots.
inline constexpr std::size_t kGsEngineCount = 2;

/// Static-lifetime display/metrics label of an engine.
[[nodiscard]] constexpr const char* to_string(GsEngine engine) noexcept {
  switch (engine) {
    case GsEngine::queue: return "queue";
    case GsEngine::rounds: return "rounds";
  }
  return "unknown";
}

class GsEdgeCache;  // core/gs_cache.hpp
struct BindingOptions;

/// Warm-start hook for incremental re-stabilization (src/incremental/,
/// docs/INCREMENTAL.md). When BindingOptions::warm_start is attached,
/// run_binding asks the provider for each oriented edge BEFORE running the
/// selected engine cold: the provider may return a complete GsResult derived
/// from a previous solve (an untouched edge's old result reused verbatim, or
/// a warm GS continuation re-enqueueing only the proposers a preference
/// delta dirtied), or nullopt to fall back to the cold engine. Contract: a
/// returned result must be bitwise-identical (match arrays) to what the cold
/// engine would produce on `inst` — GS confluence makes the warm
/// continuation satisfy this, and the DiffRunner churn battery pins it. The
/// provider must be safe to call concurrently (TreeSweep workers share one
/// BindingOptions); implementations are const and use atomic counters.
class WarmStartProvider {
 public:
  virtual ~WarmStartProvider() = default;
  [[nodiscard]] virtual std::optional<gs::GsResult> warm_solve(
      const KPartiteInstance& inst, GenderEdge edge,
      const BindingOptions& options) const = 0;
};

struct BindingOptions {
  GsEngine engine = GsEngine::queue;
  /// Optional pool for drivers that fan independent per-edge solves out
  /// (probe_all_pairs); each GS run itself stays sequential.
  ThreadPool* pool = nullptr;
  /// Optional deadline/budget/cancellation control, threaded into every
  /// per-edge GS run and checked between edges. Throws ExecutionAborted.
  resilience::ExecControl* control = nullptr;
  /// Optional per-instance memo of per-edge GS outcomes (core/gs_cache.hpp).
  /// Must be built for THIS instance's gender count and never shared across
  /// instances. Cache hits skip the GS run entirely — including its
  /// ExecControl charges — so multi-tree retries get already-solved edges
  /// for free. Semantically invisible: matchings are bitwise-identical with
  /// and without a cache.
  GsEdgeCache* cache = nullptr;
  /// Optional scratch buffers for the engines (gs::GsWorkspace); a warm
  /// workspace makes every per-edge GS run allocation-free. Owned by the
  /// calling thread.
  gs::GsWorkspace* workspace = nullptr;
  /// If non-null, every per-edge proposal event is appended (small instances
  /// only). Cache hits replay no events — only freshly computed edges trace.
  std::vector<gs::ProposalEvent>* trace = nullptr;
  /// Optional warm-start provider (incremental::DeltaWarmStart): consulted
  /// per edge before the cold engine, composing with the cache (a cache hit
  /// still wins; on a miss the provider's result is what gets published).
  const WarmStartProvider* warm_start = nullptr;
};

/// Result of binding a structure (tree, forest, or cyclic edge set).
struct BindingResult {
  /// Per-edge GS outcomes, aligned with structure.edges().
  std::vector<gs::GsResult> edge_results;
  /// Equivalence-class outcome (consistency, assembled matching).
  EquivalenceReport equivalence;
  /// Accumulated proposals over all bindings (Theorem 3's unit). Cached
  /// edges contribute the proposals of their original computation, so this
  /// stays the semantic per-tree quantity the Theorem 3 bound is about.
  std::int64_t total_proposals = 0;
  /// Proposals actually executed by THIS call — cache hits contribute
  /// nothing. Equals total_proposals when no cache is attached; the E15
  /// cache ablation accumulates this across trees.
  std::int64_t executed_proposals = 0;
  /// Edge-cache outcomes for this call's edges (both 0 without a cache).
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  /// How the solve ended (always SolveOutcome::ok when the call returns —
  /// aborts throw — but carried so ladder/serving layers report uniformly).
  resilience::SolveStatus status;
  /// Structured per-solve record (engine, shape, timing breakdown, counters)
  /// assembled by bind_structure and re-labeled by the higher drivers
  /// (parallel executor, Algorithm 2, ladder). Exported via
  /// telemetry.to_json() / to_prometheus().
  obs::SolveTelemetry telemetry;

  [[nodiscard]] bool has_matching() const {
    return equivalence.matching.has_value();
  }
  [[nodiscard]] const KaryMatching& matching() const {
    return *equivalence.matching;
  }
};

/// Runs one binary binding GS(edge.a proposes, edge.b responds) with the
/// selected engine. With options.cache attached, a memoized result is
/// returned without re-running GS; `cache_hit` (if non-null) reports whether
/// that happened.
gs::GsResult run_binding(const KPartiteInstance& inst, GenderEdge edge,
                         const BindingOptions& options,
                         bool* cache_hit = nullptr);

/// Algorithm 1: iterative binding over a spanning tree. The tree is REQUIRED
/// to be spanning (use bind_structure for forests/cycles); the result always
/// carries a consistent KaryMatching.
BindingResult iterative_binding(const KPartiteInstance& inst,
                                const BindingStructure& tree,
                                const BindingOptions& options = {});

/// Generalized binding over any simple edge set. Spanning tree => Algorithm 1.
/// Forest => families assembled by class index across components (generally
/// unstable; Theorem 4 lower side). Cyclic => equivalence classes may be
/// inconsistent (Theorem 4 upper side); check result.equivalence.consistent.
BindingResult bind_structure(const KPartiteInstance& inst,
                             const BindingStructure& structure,
                             const BindingOptions& options = {});

/// Algorithm 1's tree-construction loop made explicit: consume candidate
/// edges in order, adding each edge that does not close a cycle, until a
/// spanning tree exists. Throws if the candidates cannot span.
BindingStructure greedy_spanning_tree(Gender k,
                                      const std::vector<GenderEdge>& candidates);

/// §IV.B's "strengthen the family tie" direction: more than k-1 bindings
/// require the extra edges' GS matchings to agree with the families already
/// implied — which "may not always exist". This greedy maximizer starts from
/// `base` (a spanning tree by default) and adds every remaining gender pair
/// whose GS matching keeps the equivalence classes consistent. Returns the
/// final structure and binding result; result.equivalence is always
/// consistent. The number of accepted extra edges measures how much
/// "strengthening" an instance admits (master lists admit all C(k,2);
/// uniform instances almost none — see E6).
struct StrengthenResult {
  BindingStructure structure;      ///< base + accepted extra edges
  BindingResult binding;           ///< results for the final structure
  std::int32_t extra_accepted = 0; ///< edges beyond the base
  std::int32_t extra_rejected = 0;
};
StrengthenResult strengthen_bindings(const KPartiteInstance& inst,
                                     const BindingStructure& base,
                                     const BindingOptions& options = {});

}  // namespace kstable::core

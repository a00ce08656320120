// rematch(): one-call incremental re-stabilization (docs/INCREMENTAL.md).
//
// The driver that ties the churn pipeline together. Given the mutated
// instance, the binding tree, the PREVIOUS solve's BindingResult, and the
// MutationDelta bridging the two generations, it:
//   1. invalidates exactly the stale cache slots (both orientations of every
//      gender pair the delta touched) and rebinds the cache to the new
//      generation — or clear()s everything when the shape changed;
//   2. re-runs Algorithm 1 with a DeltaWarmStart provider attached, so
//      untouched edges reuse the previous per-edge results verbatim and
//      touched edges run the warm GS continuation instead of a cold solve;
//   3. reports exact work accounting: slots invalidated, edges
//      reused/warm/cold, and the continuation proposals actually executed —
//      the counters the churn batteries prove "strictly less than a cold
//      re-solve" with.
// The resulting matching is bitwise-identical to a cold solve of the mutated
// instance (GS confluence; pinned by the DiffRunner churn battery).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "core/binding.hpp"
#include "core/gs_cache.hpp"
#include "graph/binding_structure.hpp"
#include "incremental/mutation.hpp"
#include "resilience/control.hpp"

namespace kstable::incremental {

/// WarmStartProvider backed by a previous BindingResult plus the delta since
/// it was computed. Per oriented edge: an edge the delta does not touch
/// returns the previous result verbatim (zero proposals executed); a touched
/// edge runs warm_gale_shapley; an edge absent from the previous result
/// (different tree) answers nullopt and falls back to a cold solve.
/// Thread-safe: const with atomic counters (TreeSweep workers may share it).
/// Holds references — `previous` and `delta` must outlive the provider.
class DeltaWarmStart final : public core::WarmStartProvider {
 public:
  /// Requires !delta.shape_changed (membership churn cannot warm-start;
  /// rematch() answers it with a cold solve instead of building a provider).
  DeltaWarmStart(const core::BindingResult& previous,
                 const MutationDelta& delta);

  [[nodiscard]] std::optional<gs::GsResult> warm_solve(
      const KPartiteInstance& inst, GenderEdge edge,
      const core::BindingOptions& options) const override;

  /// Exact work accounting, independent of the cache's hit/miss counters
  /// (which cannot distinguish a warm compute from a cold one).
  struct Stats {
    std::int64_t edges_reused = 0;  ///< untouched: previous result returned
    std::int64_t edges_warm = 0;    ///< touched: warm continuation ran
    std::int64_t edges_cold = 0;    ///< not in previous result: cold fallback
    std::int64_t warm_executed_proposals = 0;  ///< continuation work only
  };
  [[nodiscard]] Stats stats() const noexcept;

 private:
  const core::BindingResult& previous_;
  const MutationDelta& delta_;
  mutable std::atomic<std::int64_t> edges_reused_{0};
  mutable std::atomic<std::int64_t> edges_warm_{0};
  mutable std::atomic<std::int64_t> edges_cold_{0};
  mutable std::atomic<std::int64_t> warm_executed_{0};
};

struct RematchOptions {
  resilience::ExecControl* control = nullptr;
  /// Optional edge cache carried across re-stabilizations. rematch() performs
  /// the targeted invalidation + rebind itself; the caller only guarantees
  /// quiescence (no concurrent solve is using the cache during rematch).
  core::GsEdgeCache* cache = nullptr;
};

struct RematchReport {
  core::BindingResult result;
  /// Ready cache slots dropped by the targeted invalidation (or by clear()
  /// when the shape changed); 0 without a cache. Strictly fewer than a
  /// clear() would drop for single-pair deltas at k >= 3 — the churn battery
  /// asserts this.
  std::size_t slots_invalidated = 0;
  std::int64_t edges_reused = 0;
  std::int64_t edges_warm = 0;
  std::int64_t edges_cold = 0;
  /// Proposals the warm continuations executed (reused edges add zero).
  std::int64_t warm_executed_proposals = 0;
  /// True when the delta's shape_changed forced a full cold solve.
  bool cold_fallback = false;
};

/// Re-stabilizes `inst` (already mutated; delta.to_generation must equal
/// inst.generation()) over `tree`, warm-starting from `previous` — the
/// binding result solved on the pre-delta instance over the same tree.
/// Returns the new proposer-optimal matching, bitwise-identical to a cold
/// iterative_binding of the mutated instance.
RematchReport rematch(const KPartiteInstance& inst,
                      const BindingStructure& tree,
                      const core::BindingResult& previous,
                      const MutationDelta& delta,
                      const RematchOptions& options = {});

}  // namespace kstable::incremental

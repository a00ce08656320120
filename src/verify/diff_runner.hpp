// DiffRunner: the differential battery of the verification harness
// (docs/VERIFY.md).
//
// One generated instance is pushed through every engine pair that promises an
// agreement relation, and the relations are asserted:
//
//   bitwise agreement (GS is confluent; the caches and the ladder are
//   documented as semantically invisible):
//     * gs queue vs rounds vs scan vs scan_simd — identical match arrays AND
//       identical proposal counts for every ordered gender pair;
//     * iterative_binding vs sweep_trees on the same (path) tree;
//     * binding with no cache vs a single-flight GsEdgeCache, including a
//       second cached pass (all hits) — replay must equal compute;
//     * direct path-tree binding vs solve_with_fallback (attempt 0 is always
//       the path tree, so an unconstrained ladder must reproduce it exactly);
//     * fair SMP man_oriented vs men-proposing GS and woman_oriented vs
//       women-proposing GS (bipartite only — a cross-ALGORITHM check: Irving
//       phase-1+rotations against Gale-Shapley);
//     * double-solving a roommates linearization (determinism).
//
//   certificate agreement (cert_checker.hpp, the independent raw-list
//   checkers) where bitwise identity is not promised:
//     * every GS result, k-ary matching, and roommates matching produced
//       above must carry a valid stability certificate;
//     * rm::solve's own has_stable verdict must agree with the independent
//       roommates checker.
//
//   abort-path invariants (ExecutionAborted must leave no partial matching
//   claimed stable):
//     * a binding run under half its own proposal budget must throw, and the
//       control must STILL report exhaustion from check_now() afterwards
//       (the resilience PR's check_now bug class);
//     * a strict-only one-attempt ladder under a 1-proposal budget must
//       report !succeeded with result unset.
//
// Sabotage: the harness can deliberately corrupt one engine's output before
// comparison (see Sabotage) to prove end to end that the battery detects a
// re-introduced bug and the shrinker minimizes it — the self-test the
// acceptance criteria demand. Sabotage only ever mutates local copies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gs/gale_shapley.hpp"
#include "prefs/matching.hpp"
#include "verify/instance_gen.hpp"

namespace kstable::verify {

/// Deliberate corruption injected between solve and comparison, for harness
/// self-tests. Never mutates shared state — only this battery's local copies.
enum class Sabotage {
  none,
  gs_swap,    ///< swap two proposers' partners in the scan engine's GS(0,1)
  kary_swap,  ///< swap two families' gender-0 members in the sweep matching
};

[[nodiscard]] const char* to_string(Sabotage sabotage) noexcept;
std::optional<Sabotage> parse_sabotage(std::string_view text);

struct DiffOptions {
  Sabotage sabotage = Sabotage::none;
  /// Incremental re-stabilization legs (src/incremental/): apply this many
  /// seeded random preference mutations to a copy of the instance and, after
  /// every step, assert that rematch() — warm restart + targeted cache
  /// invalidation — reproduces a cold solve of the mutated instance bitwise,
  /// that a stale generation-bound cache refuses to serve, and that the
  /// warm path provably does less work (fewer slots reset than clear(),
  /// fewer proposals executed than cold, on single-pair deltas at k >= 3).
  /// 0 skips the churn legs.
  std::int32_t churn_steps = 0;
};

/// One violated agreement relation, with replay provenance.
struct Mismatch {
  std::string check;   ///< relation id, e.g. "gs.engine.scan.bitwise"
  std::string detail;  ///< human-readable witness
  Shape shape = Shape::kpartite;
  Dist dist = Dist::uniform;
  std::uint64_t seed = 0;
  Gender k = 0;
  Index n = 0;

  /// Single-line JSON object for the mismatch report stream.
  [[nodiscard]] std::string to_json() const;
};

struct BatteryResult {
  std::vector<Mismatch> mismatches;
  std::int64_t checks = 0;  ///< agreement relations evaluated

  [[nodiscard]] bool clean() const noexcept { return mismatches.empty(); }
};

/// Runs the full battery for the instance's shape. The second overload is the
/// shrinker's re-execution hook: same battery, caller-supplied provenance.
BatteryResult run_battery(const GeneratedInstance& gen,
                          const DiffOptions& options = {});
BatteryResult run_battery(const KPartiteInstance& inst, Shape shape,
                          const DiffOptions& options = {},
                          Dist dist = Dist::uniform, std::uint64_t seed = 0);

/// Sabotage primitives, exposed so tests can aim them at the checkers
/// directly. Both require n >= 2 (no-ops below that).
void sabotage_gs_result(gs::GsResult& result);
[[nodiscard]] KaryMatching sabotage_kary(const KaryMatching& matching);

}  // namespace kstable::verify

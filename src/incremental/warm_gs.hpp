// Warm-restart Gale-Shapley: re-solve one binary binding GS(i, j) after a
// preference delta, starting from the previous proposer-optimal matching
// instead of from scratch (docs/INCREMENTAL.md).
//
// Soundness rests on GS confluence (the proposer-optimal matching is
// independent of proposal order) plus a replay argument: the previous
// execution, filtered down to the proposers the delta did NOT disturb, is a
// valid GS execution prefix on the NEW instance — so seeding the engine with
// that prefix's state and running the queue engine's propose loop
// (gs/propose_loop.hpp, StackSchedule) to quiescence reaches the new
// instance's proposer-optimal matching bit for bit.
//
// "Disturbed" is computed as a closure, not just the mutated rows. Dirty
// seeds: proposers whose list over j changed (P0) and responders whose list
// over i changed (R0). Closure rules, to a fixpoint:
//   * a dirty proposer dirties every responder in its OLD walked prefix
//     (ranks 0..opr inclusive, opr = old rank of its old partner): those
//     responders may have replied differently;
//   * a dirty responder dirties its old holder (the held match may not
//     survive) and every proposer that had walked past it (old rank < opr):
//     a rejection that might now be an acceptance.
// Clean proposers keep their old partner with next_choice = opr + 1; dirty
// proposers restart free at rank 0; responders held by dirty proposers start
// unmatched (the closure guarantees a clean proposer's partner is clean).
// Extra conservative dirt is always sound — it only replays more work.
//
// The continuation runs the stack schedule, although the drivers' cold solves
// run the rounds schedule; by confluence the match arrays equal every
// schedule's cold output (the churn battery pins this bitwise against the
// cold driver and across both rank widths).
#pragma once

#include "gs/gale_shapley.hpp"
#include "incremental/mutation.hpp"
#include "prefs/kpartite.hpp"

namespace kstable::incremental {

/// Closure bookkeeping of one warm restart, for the counter-proof batteries
/// (a single swapped pair should dirty few proposers; proposals executed is
/// GsResult::proposals — continuation work only, old work is not recounted).
struct WarmGsStats {
  Index dirty_proposers = 0;
  Index dirty_responders = 0;
};

/// Re-solves GS(i, j) on `inst` (already mutated) given `previous` — the
/// solved result for the SAME oriented pair on the pre-delta instance — and
/// the delta bridging the two. Returns a result bitwise-identical in its
/// match arrays to a cold solve of `inst`, with proposals counting only the
/// continuation work; engine is "gs.warm". Requires !delta.shape_changed and
/// delta.to_generation == inst.generation() (rows outside (i<->j) are
/// ignored). Throws ContractViolation on a mismatched previous result.
gs::GsResult warm_gale_shapley(const KPartiteInstance& inst, Gender i,
                               Gender j, const gs::GsResult& previous,
                               const MutationDelta& delta,
                               const gs::GsOptions& options = {},
                               WarmGsStats* stats = nullptr);

}  // namespace kstable::incremental

// The one Gale-Shapley propose kernel (paper §II.A) that every sequential
// engine runs: a free proposer proposes to the best responder it has not yet
// tried, the responder keeps the better of the challenger and its current
// holder, and whoever loses goes back onto the free list.
//
// propose_loop is monomorphized on three compile-time choices, so the hot
// loop carries no per-proposal branch on any of them:
//
//   * View     — the preference backend and rank width
//                (prefs/implicit/pref_view.hpp: ExplicitView<u16/u32>,
//                ImplicitView), dispatched once per solve by with_pref_view;
//   * Schedule — which free proposer goes next:
//       StackSchedule  — the textbook free stack (the queue engine): a
//                        rejected or displaced proposer proposes again
//                        immediately. Takes pre-seeded state, so the warm
//                        restart (incremental/warm_gs.hpp) is this schedule
//                        started from its dirty closure instead of all-free;
//       RoundsSchedule — the paper's rounds: every free proposer proposes
//                        once per round (McVitie-Wilson style);
//   * Accept   — how the responder compares challenger and holder:
//       RankAccept     — two rank-table loads (the production path);
//       ScanAccept     — walk the responder's list (the rank-table ablation,
//                        O(n) per compare);
//       SimdScanAccept — the same walk with the vectorized first-of-pair
//                        kernel (gs/simd.hpp) on contiguous rows.
//
// GS is confluent, so every (Schedule, Accept) flavour reaches the same
// proposer-optimal matching with the same proposal count; Accept never
// changes the proposal order, so flavours sharing a Schedule emit identical
// traces. tests/gs_kernel_test.cpp runs one suite against every flavour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gs/gale_shapley.hpp"
#include "gs/simd.hpp"
#include "prefs/implicit/pref_view.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kstable::gs {

/// Free-stack schedule: pops ascend by proposer index on a cold start.
struct StackSchedule {
  static constexpr bool kRounds = false;
  static void seed_all_free(GsWorkspace& workspace, Index n) {
    auto& free_stack = workspace.free_list;
    free_stack.resize(static_cast<std::size_t>(n));
    for (Index p = 0; p < n; ++p) {
      free_stack[static_cast<std::size_t>(p)] = n - 1 - p;
    }
  }
};

/// Round schedule: round one is every proposer in index order.
struct RoundsSchedule {
  static constexpr bool kRounds = true;
  static void seed_all_free(GsWorkspace& workspace, Index n) {
    auto& free_list = workspace.free_list;
    free_list.resize(static_cast<std::size_t>(n));
    for (Index p = 0; p < n; ++p) free_list[static_cast<std::size_t>(p)] = p;
    workspace.still_free.clear();
    workspace.still_free.reserve(static_cast<std::size_t>(n));
  }
};

/// Rank-table compare: the responder's row handle is hoisted once and the
/// verdict is two rank loads (two PRP inversions on the implicit backend).
struct RankAccept {
  template <typename View>
  static bool prefers(const View& view, Index r, Index /*n*/, Index challenger,
                      Index holder) {
    const auto ranks = view.resp_row(r);
    return view.rank_in(ranks, challenger) < view.rank_in(ranks, holder);
  }
};

/// List-walk compare: whichever of the two appears first on the responder's
/// list wins. No rank table is consulted.
struct ScanAccept {
  template <typename View>
  static bool prefers(const View& view, Index r, Index n, Index challenger,
                      Index holder) {
    const auto row = view.resp_row(r);
    for (Index c = 0; c < n; ++c) {
      const Index candidate = view.resp_pref_in(row, c);
      if (candidate == challenger) return true;
      if (candidate == holder) return false;
    }
    KSTABLE_REQUIRE(false, "neither " << challenger << " nor " << holder
                                      << " on responder " << r << "'s list");
    return false;
  }
};

/// ScanAccept with the vectorized first-of-pair kernel, 8/4 lanes at a time.
/// The kernel needs the row in contiguous memory; the implicit backend has
/// none, so it takes the scalar walk (identical earliest-hit verdict).
struct SimdScanAccept {
  template <typename View>
  static bool prefers(const View& view, Index r, Index n, Index challenger,
                      Index holder) {
    if constexpr (View::kContiguousRows) {
      const auto list = view.resp_pref_span(r, n);
      const std::size_t pos =
          simd::first_of_pair(list.data(), list.size(), challenger, holder);
      KSTABLE_REQUIRE(pos < list.size(), "neither " << challenger << " nor "
                                                    << holder
                                                    << " on responder " << r
                                                    << "'s list");
      return list[pos] == challenger;
    } else {
      return ScanAccept::prefers(view, r, n, challenger, holder);
    }
  }
};

/// Runs proposals to quiescence from whatever state `workspace` and `result`
/// hold: workspace.next_choice, workspace.free_list (Schedule's order), and
/// the match arrays. Adds to result.proposals and result.rounds. A non-null
/// options.control is charged one unit per proposal on the stack schedule
/// and one batch per round on the rounds schedule; options.trace receives
/// one event per proposal.
template <typename Schedule, typename Accept, typename View>
void propose_loop(const View view, Index n, const GsOptions& options,
                  GsWorkspace& workspace, GsResult& result) {
  Index* const proposer_match = result.proposer_match.data();
  Index* const responder_match = result.responder_match.data();
  Index* const next_choice = workspace.next_choice.data();
  auto& free_list = workspace.free_list;

  // The propose step. The loser (a rejected challenger or a displaced
  // holder) goes onto `freed`.
  const auto propose = [&](Index p, std::vector<Index>& freed) {
    // A proposer can never run off the end of its list: a responder once
    // matched stays matched (pigeonhole), and warm seeding preserves this.
    KSTABLE_ASSERT(next_choice[static_cast<std::size_t>(p)] < n);
    const Index r = view.pref_at(p, next_choice[static_cast<std::size_t>(p)]++);
    ++result.proposals;
    if constexpr (!Schedule::kRounds) {
      if (options.control != nullptr) options.control->charge();
    }
    const Index holder = responder_match[static_cast<std::size_t>(r)];
    ProposalEvent event{p, r, false, -1};
    if (holder < 0) {
      responder_match[static_cast<std::size_t>(r)] = p;
      proposer_match[static_cast<std::size_t>(p)] = r;
      event.accepted = true;
    } else if (Accept::prefers(view, r, n, p, holder)) {
      responder_match[static_cast<std::size_t>(r)] = p;
      proposer_match[static_cast<std::size_t>(p)] = r;
      proposer_match[static_cast<std::size_t>(holder)] = -1;
      freed.push_back(holder);
      event.accepted = true;
      event.displaced = holder;
    } else {
      freed.push_back(p);
    }
    if (options.trace != nullptr) options.trace->push_back(event);
  };

  if constexpr (Schedule::kRounds) {
    auto& still_free = workspace.still_free;
    while (!free_list.empty()) {
      ++result.rounds;
      if (options.control != nullptr) {
        options.control->charge(static_cast<std::int64_t>(free_list.size()));
      }
      still_free.clear();
      for (const Index p : free_list) propose(p, still_free);
      free_list.swap(still_free);
    }
  } else {
    const std::int64_t before = result.proposals;
    while (!free_list.empty()) {
      const Index p = free_list.back();
      free_list.pop_back();
      propose(p, free_list);
    }
    result.rounds += result.proposals - before;  // one proposal per round
  }
}

namespace detail {

/// Throws ContractViolation unless (i, j) is an ordered pair of distinct
/// genders of `inst`.
void check_genders(const KPartiteInstance& inst, Gender i, Gender j);

/// Resets `result` for a fresh (i, j) solve, reusing vector capacity.
void reset_result(GsResult& result, Gender i, Gender j, Index n);

/// Traced runs reserve the Theorem 3 per-binding bound (n² proposals) once,
/// instead of growing the event vector geometrically mid-run.
void reserve_trace(const GsOptions& options, Index n);

/// Postcondition: `result` is a perfect matching with consistent arrays.
void finish(const KPartiteInstance& inst, const GsResult& result);

}  // namespace detail

/// Cold solve of GS(i proposes, j responds) with one (Schedule, Accept)
/// flavour: the shared preamble, an all-free start, one backend + width
/// dispatch, the propose loop, and the perfect-matching postcondition.
/// Into-style: zero heap allocations once `workspace` and `result` are warm.
/// The named engines (gale_shapley_queue, _rounds, _scan, _scan_simd) are
/// this template plus an engine label and their counters.
template <typename Schedule, typename Accept>
void solve(const KPartiteInstance& inst, Gender i, Gender j,
           const GsOptions& options, GsWorkspace& workspace,
           GsResult& result) {
  detail::check_genders(inst, i, j);
  const WallTimer timer;
  const Index n = inst.per_gender();
  detail::reset_result(result, i, j, n);
  detail::reserve_trace(options, n);
  workspace.next_choice.assign(static_cast<std::size_t>(n), Index{0});
  Schedule::seed_all_free(workspace, n);
  prefs::with_pref_view(inst, i, j, [&](const auto view) {
    propose_loop<Schedule, Accept>(view, n, options, workspace, result);
  });
  result.wall_ms = timer.millis();
  detail::finish(inst, result);
}

}  // namespace kstable::gs

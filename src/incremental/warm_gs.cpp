#include "incremental/warm_gs.hpp"

#include <span>
#include <vector>

#include "gs/propose_loop.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace kstable::incremental {

namespace {

/// The pre-delta row of `m` over `g`: the delta's captured old row when the
/// delta rewrote it (earliest capture wins, matching MutationDelta::merge),
/// the instance's current row otherwise (unchanged => current == old).
std::span<const Index> old_row_of(const KPartiteInstance& inst,
                                  const MutationDelta& delta, MemberId m,
                                  Gender g, bool* changed) {
  for (const RowDelta& row : delta.rows) {
    if (row.member == m && row.target == g) {
      *changed = true;
      return {row.old_row.data(), row.old_row.size()};
    }
  }
  *changed = false;
  return inst.pref_row(m, g);
}

}  // namespace

gs::GsResult warm_gale_shapley(const KPartiteInstance& inst, Gender i,
                               Gender j, const gs::GsResult& previous,
                               const MutationDelta& delta,
                               const gs::GsOptions& options,
                               WarmGsStats* stats) {
  const WallTimer timer;
  const Index n = inst.per_gender();
  gs::detail::check_genders(inst, i, j);
  KSTABLE_REQUIRE(
      previous.proposer_gender == i && previous.responder_gender == j,
      "previous result is for GS(" << previous.proposer_gender << ','
                                   << previous.responder_gender
                                   << "), not GS(" << i << ',' << j << ')');
  KSTABLE_REQUIRE(previous.proposer_match.size() ==
                          static_cast<std::size_t>(n) &&
                      previous.responder_match.size() ==
                          static_cast<std::size_t>(n),
                  "previous result sized for n="
                      << previous.proposer_match.size()
                      << ", instance has n=" << n);
  KSTABLE_REQUIRE(!delta.shape_changed,
                  "shape-changed delta: warm restart is undefined, cold-solve "
                  "the rebuilt instance");
  KSTABLE_REQUIRE(delta.to_generation == inst.generation(),
                  "delta ends at generation " << delta.to_generation
                                              << " but instance is at "
                                              << inst.generation());

  // Per-proposer pre-delta state: old row over j and opr = old rank of the
  // old partner (the walked-prefix length minus one). Unchanged rows read
  // opr straight off the current rank table; changed rows scan their
  // captured old order.
  std::vector<std::span<const Index>> old_rows(static_cast<std::size_t>(n));
  std::vector<Index> opr(static_cast<std::size_t>(n));
  std::vector<char> dirty_p(static_cast<std::size_t>(n), 0);
  std::vector<char> dirty_r(static_cast<std::size_t>(n), 0);
  std::vector<Index> queue_p;
  std::vector<Index> queue_r;
  const auto mark_p = [&](Index p) {
    if (dirty_p[static_cast<std::size_t>(p)] == 0) {
      dirty_p[static_cast<std::size_t>(p)] = 1;
      queue_p.push_back(p);
    }
  };
  const auto mark_r = [&](Index r) {
    if (dirty_r[static_cast<std::size_t>(r)] == 0) {
      dirty_r[static_cast<std::size_t>(r)] = 1;
      queue_r.push_back(r);
    }
  };

  for (Index p = 0; p < n; ++p) {
    bool changed = false;
    const auto row = old_row_of(inst, delta, {i, p}, j, &changed);
    KSTABLE_REQUIRE(row.size() == static_cast<std::size_t>(n),
                    "delta old row for proposer " << p << " has "
                                                  << row.size()
                                                  << " entries, expected "
                                                  << n);
    old_rows[static_cast<std::size_t>(p)] = row;
    const Index r0 = previous.proposer_match[static_cast<std::size_t>(p)];
    KSTABLE_REQUIRE(r0 >= 0 && r0 < n,
                    "previous matching not perfect at proposer " << p);
    if (changed) {
      Index rank = -1;
      for (Index t = 0; t < n; ++t) {
        if (row[static_cast<std::size_t>(t)] == r0) {
          rank = t;
          break;
        }
      }
      KSTABLE_REQUIRE(rank >= 0, "old row of proposer "
                                     << p << " is missing old partner " << r0);
      opr[static_cast<std::size_t>(p)] = rank;
      mark_p(p);  // P0: p's own list over j changed
    } else {
      opr[static_cast<std::size_t>(p)] =
          static_cast<Index>(inst.rank_row({i, p}, j)[
              static_cast<std::size_t>(r0)]);
    }
  }
  for (const RowDelta& row : delta.rows) {
    // R0: responders whose list over the proposer gender changed. Rows over
    // any other gender pair are someone else's problem (another edge's warm
    // restart); they cannot affect GS(i, j).
    if (row.member.gender == j && row.target == i) {
      KSTABLE_REQUIRE(row.member.index >= 0 && row.member.index < n,
                      "delta row member " << row.member << " out of range");
      mark_r(row.member.index);
    }
  }

  // suitors[r] = proposers whose old STRICT walked prefix contains r (they
  // were rejected by r, or displaced from it, before settling). Built in
  // O(total old proposals); this is the rule-5 adjacency.
  std::vector<std::vector<Index>> suitors(static_cast<std::size_t>(n));
  for (Index p = 0; p < n; ++p) {
    const auto row = old_rows[static_cast<std::size_t>(p)];
    for (Index t = 0; t < opr[static_cast<std::size_t>(p)]; ++t) {
      suitors[static_cast<std::size_t>(row[static_cast<std::size_t>(t)])]
          .push_back(p);
    }
  }

  // Dirty closure to a fixpoint (BFS over the bipartite reachability graph).
  while (!queue_p.empty() || !queue_r.empty()) {
    if (!queue_p.empty()) {
      const Index p = queue_p.back();
      queue_p.pop_back();
      // Rule 3: everything p proposed to (inclusive of its old partner at
      // rank opr) may have answered differently post-delta.
      const auto row = old_rows[static_cast<std::size_t>(p)];
      for (Index t = 0; t <= opr[static_cast<std::size_t>(p)]; ++t) {
        mark_r(row[static_cast<std::size_t>(t)]);
      }
    } else {
      const Index r = queue_r.back();
      queue_r.pop_back();
      // Rule 4: the held match may not survive.
      mark_p(previous.responder_match[static_cast<std::size_t>(r)]);
      // Rule 5: a rejection r issued might now be an acceptance.
      for (const Index q : suitors[static_cast<std::size_t>(r)]) mark_p(q);
    }
  }

  // Seed the warm state. The closure guarantees a clean proposer's old
  // partner is clean (rule 3 dirties the inclusive prefix), so clean pairs
  // re-form exactly and dirty responders start unmatched.
  gs::GsResult result;
  gs::detail::reset_result(result, i, j, n);
  gs::GsWorkspace workspace;
  workspace.next_choice.assign(static_cast<std::size_t>(n), Index{0});
  WarmGsStats local{};
  for (Index p = 0; p < n; ++p) {
    if (dirty_p[static_cast<std::size_t>(p)] != 0) {
      ++local.dirty_proposers;
      continue;
    }
    const Index r0 = previous.proposer_match[static_cast<std::size_t>(p)];
    result.proposer_match[static_cast<std::size_t>(p)] = r0;
    result.responder_match[static_cast<std::size_t>(r0)] = p;
    workspace.next_choice[static_cast<std::size_t>(p)] =
        opr[static_cast<std::size_t>(p)] + 1;
  }
  for (Index r = 0; r < n; ++r) {
    local.dirty_responders += dirty_r[static_cast<std::size_t>(r)] != 0;
  }
  // Descending push so pops ascend by index, matching the cold engine's
  // order (any order is correct by confluence; sameness aids debugging).
  for (Index p = n - 1; p >= 0; --p) {
    if (dirty_p[static_cast<std::size_t>(p)] != 0) {
      workspace.free_list.push_back(p);
    }
  }
  gs::detail::reserve_trace(options, n);

  // The cold queue engine's schedule and accept, started from the closure.
  prefs::with_pref_view(inst, i, j, [&](const auto view) {
    gs::propose_loop<gs::StackSchedule, gs::RankAccept>(view, n, options,
                                                        workspace, result);
  });
  result.engine = "gs.warm";
  result.wall_ms = timer.millis();
  gs::detail::finish(inst, result);
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace kstable::incremental

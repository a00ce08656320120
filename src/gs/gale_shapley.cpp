#include "gs/gale_shapley.hpp"

#include "gs/propose_loop.hpp"
#include "observability/metrics.hpp"
#include "util/check.hpp"

namespace kstable::gs {

namespace {

#if KSTABLE_METRICS_ENABLED
/// Eagerly registers this TU's instruments at static-init time: the
/// KSTABLE_COUNTER_ADD call sites then resolve against already-registered
/// names, so even the very FIRST warm solve performs zero heap allocations
/// (asserted by GsWorkspace.WarmHelpersPreallocate).
const bool kInstrumentsWarm = [] {
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("gs.queue.solves");
  registry.counter("gs.queue.proposals");
  registry.counter("gs.rounds.solves");
  registry.counter("gs.rounds.proposals");
  registry.counter("gs.rounds.rounds");
  return true;
}();
#endif

}  // namespace

namespace detail {

void check_genders(const KPartiteInstance& inst, Gender i, Gender j) {
  KSTABLE_REQUIRE(i >= 0 && i < inst.genders() && j >= 0 && j < inst.genders(),
                  "GS(" << i << ',' << j << ") out of range, k="
                        << inst.genders());
  KSTABLE_REQUIRE(i != j, "GS(" << i << ',' << i << "): a gender cannot bind "
                                   "to itself");
}

void reset_result(GsResult& result, Gender i, Gender j, Index n) {
  result.proposer_gender = i;
  result.responder_gender = j;
  result.proposer_match.assign(static_cast<std::size_t>(n), Index{-1});
  result.responder_match.assign(static_cast<std::size_t>(n), Index{-1});
  result.proposals = 0;
  result.rounds = 0;
}

void reserve_trace(const GsOptions& options, Index n) {
  if (options.trace != nullptr) {
    options.trace->reserve(options.trace->size() +
                           static_cast<std::size_t>(n) *
                               static_cast<std::size_t>(n));
  }
}

void finish(const KPartiteInstance& inst, const GsResult& result) {
  const Index n = inst.per_gender();
  for (Index p = 0; p < n; ++p) {
    KSTABLE_ENSURE(result.proposer_match[static_cast<std::size_t>(p)] >= 0,
                   "proposer " << p << " left unmatched");
  }
  for (Index r = 0; r < n; ++r) {
    const Index p = result.responder_match[static_cast<std::size_t>(r)];
    KSTABLE_ENSURE(p >= 0, "responder " << r << " left unmatched");
    KSTABLE_ENSURE(result.proposer_match[static_cast<std::size_t>(p)] == r,
                   "match arrays inconsistent at responder " << r);
  }
}

}  // namespace detail

void gale_shapley_queue(const KPartiteInstance& inst, Gender i, Gender j,
                        const GsOptions& options, GsWorkspace& workspace,
                        GsResult& result) {
  solve<StackSchedule, RankAccept>(inst, i, j, options, workspace, result);
  result.engine = "gs.queue";
  KSTABLE_COUNTER_ADD("gs.queue.solves", 1);
  KSTABLE_COUNTER_ADD("gs.queue.proposals", result.proposals);
}

GsResult gale_shapley_queue(const KPartiteInstance& inst, Gender i, Gender j,
                            const GsOptions& options) {
  GsWorkspace workspace;
  GsResult result;
  gale_shapley_queue(inst, i, j, options, workspace, result);
  return result;
}

void gale_shapley_rounds(const KPartiteInstance& inst, Gender i, Gender j,
                         const GsOptions& options, GsWorkspace& workspace,
                         GsResult& result) {
  solve<RoundsSchedule, RankAccept>(inst, i, j, options, workspace, result);
  result.engine = "gs.rounds";
  KSTABLE_COUNTER_ADD("gs.rounds.solves", 1);
  KSTABLE_COUNTER_ADD("gs.rounds.proposals", result.proposals);
  KSTABLE_COUNTER_ADD("gs.rounds.rounds", result.rounds);
}

GsResult gale_shapley_rounds(const KPartiteInstance& inst, Gender i, Gender j,
                             const GsOptions& options) {
  GsWorkspace workspace;
  GsResult result;
  gale_shapley_rounds(inst, i, j, options, workspace, result);
  return result;
}

obs::SolveTelemetry solve_telemetry(const GsResult& result, Gender k,
                                    Index n) {
  obs::SolveTelemetry t;
  t.engine = result.engine[0] != '\0' ? result.engine : "gs";
  t.genders = k;
  t.size = n;
  t.wall_ms = result.wall_ms;
  t.add_phase("gs", result.wall_ms);
  t.proposals = result.proposals;
  t.executed_proposals = result.proposals;
  t.rounds = result.rounds;
  t.attempts = 1;
  t.status.proposals = result.proposals;
  t.status.wall_ms = result.wall_ms;
  return t;
}

bool is_stable_binding(const KPartiteInstance& inst, const GsResult& result) {
  const Index n = inst.per_gender();
  const Gender i = result.proposer_gender;
  const Gender j = result.responder_gender;
  for (Index p = 0; p < n; ++p) {
    const Index matched = result.proposer_match[static_cast<std::size_t>(p)];
    if (matched < 0) return false;
    const std::int32_t matched_rank = inst.rank_of({i, p}, {j, matched});
    // Any responder p strictly prefers to its partner forms a blocking pair
    // iff that responder also prefers p to its own partner. pref_at keeps
    // this verifier backend-agnostic (implicit instances store no lists).
    for (std::int32_t rank = 0; rank < matched_rank; ++rank) {
      const Index r = inst.pref_at({i, p}, j, static_cast<Index>(rank));
      const Index r_partner = result.responder_match[static_cast<std::size_t>(r)];
      if (r_partner < 0 || inst.prefers({j, r}, {i, p}, {i, r_partner})) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace kstable::gs

// Unit & property tests for the Gale-Shapley engines: paper Example 1,
// stability, proposer-optimality, confluence across engines, proposal bounds.
#include <gtest/gtest.h>

#include <tuple>

#include "gs/gale_shapley.hpp"
#include "prefs/examples.hpp"
#include "prefs/generators.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable {
namespace {

TEST(GaleShapley, Example1FirstPreferences) {
  // Paper §II.A: men propose; m is rejected by w and ends with w'.
  const auto inst = examples::example1_first();
  const auto result =
      gs::gale_shapley_queue(inst, examples::kMen, examples::kWomen);
  EXPECT_EQ(result.proposer_match[0], 1);  // (m, w')
  EXPECT_EQ(result.proposer_match[1], 0);  // (m', w)
  EXPECT_TRUE(gs::is_stable_binding(inst, result));
}

TEST(GaleShapley, Example1SecondPreferencesManOptimal) {
  // Men propose: (m, w), (m', w') — the man-optimal matching.
  const auto inst = examples::example1_second();
  const auto men_propose =
      gs::gale_shapley_queue(inst, examples::kMen, examples::kWomen);
  EXPECT_EQ(men_propose.proposer_match[0], 0);
  EXPECT_EQ(men_propose.proposer_match[1], 1);
  // Women propose: (m, w'), (m', w) — the woman-optimal matching the paper
  // notes GS cannot produce for men proposing.
  const auto women_propose =
      gs::gale_shapley_queue(inst, examples::kWomen, examples::kMen);
  EXPECT_EQ(women_propose.proposer_match[0], 1);  // w -> m'
  EXPECT_EQ(women_propose.proposer_match[1], 0);  // w' -> m
  EXPECT_TRUE(gs::is_stable_binding(inst, men_propose));
  EXPECT_TRUE(gs::is_stable_binding(inst, women_propose));
}

TEST(GaleShapley, TraceRecordsEvents) {
  const auto inst = examples::example1_first();
  std::vector<gs::ProposalEvent> trace;
  gs::GsOptions options;
  options.trace = &trace;
  const auto result =
      gs::gale_shapley_queue(inst, examples::kMen, examples::kWomen, options);
  EXPECT_EQ(static_cast<std::int64_t>(trace.size()), result.proposals);
  // First proposal: m proposes to w (his first choice) and is accepted.
  EXPECT_EQ(trace[0].proposer, 0);
  EXPECT_EQ(trace[0].responder, 0);
  EXPECT_TRUE(trace[0].accepted);
  // Some later event must displace m (m' outranks him at w).
  bool saw_displacement = false;
  for (const auto& event : trace) saw_displacement |= event.displaced >= 0;
  EXPECT_TRUE(saw_displacement);
}

TEST(GaleShapley, RejectsInvalidGenderArguments) {
  const auto inst = examples::example1_first();
  EXPECT_THROW(gs::gale_shapley_queue(inst, 0, 0), ContractViolation);
  EXPECT_THROW(gs::gale_shapley_queue(inst, 0, 5), ContractViolation);
}

TEST(GaleShapley, MasterListProposalCount) {
  // With one shared list, proposer i (in acceptance order) is accepted after
  // being rejected by all higher-ranked responders: total = n(n+1)/2.
  Rng rng(70);
  const Index n = 16;
  const auto inst = gen::master_list(2, n, rng);
  const auto result = gs::gale_shapley_queue(inst, 0, 1);
  EXPECT_EQ(result.proposals, static_cast<std::int64_t>(n) * (n + 1) / 2);
  EXPECT_TRUE(gs::is_stable_binding(inst, result));
}

TEST(GaleShapley, SingleMemberInstance) {
  Rng rng(71);
  const auto inst = gen::uniform(2, 1, rng);
  const auto result = gs::gale_shapley_queue(inst, 0, 1);
  EXPECT_EQ(result.proposals, 1);
  EXPECT_EQ(result.proposer_match[0], 0);
}

/// Property sweep over (seed, n): all engines stable, identical, and within
/// the n² proposal bound.
class GsPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Index>> {};

TEST_P(GsPropertyTest, EnginesAgreeAndAreStable) {
  const auto [seed, n] = GetParam();
  Rng rng(seed);
  const auto inst = gen::uniform(2, n, rng);

  const auto queue = gs::gale_shapley_queue(inst, 0, 1);
  const auto rounds = gs::gale_shapley_rounds(inst, 0, 1);

  // Confluence: the proposer-optimal matching is engine-independent.
  EXPECT_EQ(queue.proposer_match, rounds.proposer_match);
  EXPECT_EQ(queue.proposals, rounds.proposals);

  EXPECT_TRUE(gs::is_stable_binding(inst, queue));
  EXPECT_LE(queue.proposals, static_cast<std::int64_t>(n) * n);
  EXPECT_GE(queue.proposals, n);  // everyone proposes at least once
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GsPropertyTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                       ::testing::Values(Index{2}, Index{3}, Index{8},
                                         Index{33}, Index{64})));

/// Proposer-optimality: every proposer weakly prefers the GS outcome to any
/// other stable matching (checked by exhaustive enumeration for small n).
TEST(GaleShapley, ProposerOptimalAgainstAllStableMatchings) {
  Rng rng(80);
  for (int trial = 0; trial < 30; ++trial) {
    const Index n = 5;
    const auto inst = gen::uniform(2, n, rng);
    const auto result = gs::gale_shapley_queue(inst, 0, 1);
    // Enumerate all perfect matchings (permutations) and keep the stable ones.
    std::vector<Index> perm(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
    do {
      bool stable = true;
      for (Index p = 0; p < n && stable; ++p) {
        for (Index r = 0; r < n && stable; ++r) {
          if (perm[static_cast<std::size_t>(p)] == r) continue;
          const bool p_wants =
              inst.prefers({0, p}, {1, r}, {1, perm[static_cast<std::size_t>(p)]});
          // Find r's partner.
          Index rp = -1;
          for (Index q = 0; q < n; ++q) {
            if (perm[static_cast<std::size_t>(q)] == r) rp = q;
          }
          const bool r_wants = inst.prefers({1, r}, {0, p}, {0, rp});
          if (p_wants && r_wants) stable = false;
        }
      }
      if (stable) {
        for (Index p = 0; p < n; ++p) {
          const Index gs_rank =
              inst.rank_of({0, p}, {1, result.proposer_match[static_cast<std::size_t>(p)]});
          const Index other_rank =
              inst.rank_of({0, p}, {1, perm[static_cast<std::size_t>(p)]});
          EXPECT_LE(gs_rank, other_rank)
              << "proposer " << p << " does better in another stable matching";
        }
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

TEST(RoundEngine, RoundCountIsReasonable) {
  Rng rng(93);
  const auto inst = gen::uniform(2, 32, rng);
  const auto result = gs::gale_shapley_rounds(inst, 0, 1);
  EXPECT_GE(result.rounds, 1);
  EXPECT_LE(result.rounds, result.proposals);
}

TEST(StabilityCheck, DetectsBlockingPair) {
  // Build an unstable matching by hand on Example 1's second preferences:
  // (m, w'), (m', w) is stable; (m, w), (m', w') is stable; but under the
  // FIRST preference set, (m, w), (m', w') is blocked by (m', w).
  const auto inst = examples::example1_first();
  gs::GsResult fake;
  fake.proposer_gender = examples::kMen;
  fake.responder_gender = examples::kWomen;
  fake.proposer_match = {0, 1};  // (m, w), (m', w')
  fake.responder_match = {0, 1};
  EXPECT_FALSE(gs::is_stable_binding(inst, fake));
}

TEST(StabilityCheck, RejectsPartialMatching) {
  const auto inst = examples::example1_first();
  gs::GsResult fake;
  fake.proposer_gender = examples::kMen;
  fake.responder_gender = examples::kWomen;
  fake.proposer_match = {-1, 1};
  fake.responder_match = {-1, 1};
  EXPECT_FALSE(gs::is_stable_binding(inst, fake));
}

}  // namespace
}  // namespace kstable

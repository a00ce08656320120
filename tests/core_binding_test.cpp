// Tests for Algorithm 1 (iterative binding GS): Theorem 2 stability,
// Theorem 3 proposal bound, Theorem 4 tightness, tree-shape sweeps.
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/oracle.hpp"
#include "analysis/stability.hpp"
#include "core/binding.hpp"
#include "graph/prufer.hpp"
#include "prefs/examples.hpp"
#include "prefs/generators.hpp"
#include "resilience/control.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace kstable::core {
namespace {

TEST(IterativeBinding, Fig3ExampleMatchesPaper) {
  const auto inst = kstable::examples::fig3_instance();
  BindingStructure tree(3);
  tree.add_edge({0, 1});  // M - W
  tree.add_edge({1, 2});  // W - U
  const auto result = iterative_binding(inst, tree);
  ASSERT_TRUE(result.has_matching());
  const auto& m = result.matching();
  const Index fam = m.family_of({0, 0});
  EXPECT_EQ(m.member_at(fam, 1), (MemberId{1, 0}));  // (m, w, u)
  EXPECT_EQ(m.member_at(fam, 2), (MemberId{2, 0}));
  // Theorem 2: stable under the strict blocking condition.
  EXPECT_FALSE(analysis::find_blocking_family(inst, m).has_value());
}

TEST(IterativeBinding, AlternativeTreesGiveDifferentStableMatchings) {
  // §IV.B: bindings M-U and U-W give (m, w', u') and (m', w, u).
  const auto inst = kstable::examples::fig3_instance();
  BindingStructure tree(3);
  tree.add_edge({0, 2});  // M - U
  tree.add_edge({2, 1});  // U - W
  const auto result = iterative_binding(inst, tree);
  const auto& m = result.matching();
  const Index fam = m.family_of({0, 0});
  EXPECT_EQ(m.member_at(fam, 2), (MemberId{2, 1}));  // m with u'
  EXPECT_FALSE(analysis::find_blocking_family(inst, m).has_value());
}

TEST(IterativeBinding, RequiresSpanningTree) {
  Rng rng(210);
  const auto inst = gen::uniform(3, 2, rng);
  BindingStructure forest(3);
  forest.add_edge({0, 1});
  EXPECT_THROW(iterative_binding(inst, forest), ContractViolation);
}

/// Theorem 2 property sweep: every (engine, k, n, tree) combination yields a
/// strictly stable k-ary matching.
class BindingStabilityTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Gender, Index>> {
};

TEST_P(BindingStabilityTest, Theorem2StableAndTheorem3Bounded) {
  const auto [seed, k, n] = GetParam();
  Rng rng(seed);
  const auto inst = gen::uniform(k, n, rng);
  const auto tree = prufer::random_tree(k, rng);
  const auto result = iterative_binding(inst, tree);
  ASSERT_TRUE(result.has_matching());
  // Theorem 3 (also enforced as a postcondition inside the call).
  EXPECT_LE(result.total_proposals,
            static_cast<std::int64_t>(k - 1) * n * n);
  // Theorem 2 via exact search (sizes kept small enough).
  EXPECT_FALSE(analysis::find_blocking_family(inst, result.matching())
                   .has_value())
      << "k=" << k << " n=" << n << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BindingStabilityTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(Gender{3}, Gender{4}, Gender{5}),
                       ::testing::Values(Index{2}, Index{3}, Index{5})));

TEST(IterativeBinding, AllTreesStableOnSmallInstances) {
  // Exhaust all k^(k-2) binding trees for k = 4, n = 3: every one must give a
  // strictly stable matching (Theorem 2 holds per tree, §IV.B notes the
  // matchings differ).
  Rng rng(220);
  const auto inst = gen::uniform(4, 3, rng);
  std::int64_t trees = 0;
  prufer::enumerate_trees(4, [&](const BindingStructure& tree) {
    const auto result = iterative_binding(inst, tree);
    EXPECT_FALSE(
        analysis::find_blocking_family(inst, result.matching()).has_value());
    ++trees;
  });
  EXPECT_EQ(trees, 16);
}

TEST(IterativeBinding, ProposalBudgetAbortsExactlyPastTheUnguardedTotal) {
  // The rounds schedule charges its ExecControl once per round, and the
  // round charges add up to the solve's proposal total T. So the driver
  // succeeds under a budget of exactly T and aborts under T - 1, on every
  // tree shape, with the same matching as the unguarded run.
  Rng rng(230);
  for (int trial = 0; trial < 12; ++trial) {
    const Gender k = 3 + trial % 3;
    const auto inst = gen::uniform(k, 6 + 5 * (trial % 4), rng);
    const auto tree = prufer::random_tree(k, rng);
    const auto unguarded = iterative_binding(inst, tree);
    const std::int64_t total = unguarded.total_proposals;

    resilience::ExecControl exact(resilience::Budget::proposals(total));
    BindingOptions options;
    options.control = &exact;
    const auto guarded = iterative_binding(inst, tree, options);
    EXPECT_EQ(guarded.matching(), unguarded.matching()) << "trial " << trial;
    EXPECT_EQ(exact.spent(), total) << "trial " << trial;

    resilience::ExecControl short_by_one(
        resilience::Budget::proposals(total - 1));
    options.control = &short_by_one;
    try {
      (void)iterative_binding(inst, tree, options);
      ADD_FAILURE() << "trial " << trial << ": budget " << total - 1
                    << " below the total " << total << " did not abort";
    } catch (const ExecutionAborted& e) {
      EXPECT_EQ(e.reason(), AbortReason::proposal_budget) << "trial " << trial;
      // Only the last round's charge can cross T - 1, and it lands on T.
      EXPECT_EQ(short_by_one.spent(), total) << "trial " << trial;
    }
  }
}

TEST(IterativeBinding, StableMatchingsExistForAllSmallSizes) {
  // Cross-check with the oracle: the binding result appears among the
  // oracle's stable matchings.
  Rng rng(240);
  for (int trial = 0; trial < 5; ++trial) {
    const auto inst = gen::uniform(3, 3, rng);
    const auto result = iterative_binding(inst, trees::path(3));
    const auto census = analysis::kary_census(inst);
    EXPECT_GE(census.stable_matchings, 1);
    EXPECT_FALSE(
        analysis::find_blocking_family(inst, result.matching()).has_value());
  }
}

TEST(Theorem4, CyclePreferencesCannotSupportThreeBindings) {
  // §IV.B witness: with the listed preferences it is impossible to perform
  // three binary bindings and keep them consistent/stable. The GS matchings
  // of the three edges disagree, so the cycle's equivalence classes collapse.
  const auto inst = gen::theorem4_cycle_prefs();
  BindingStructure cycle(3);
  cycle.add_edge({0, 1});
  cycle.add_edge({1, 2});
  cycle.add_edge({2, 0});
  const auto result = bind_structure(inst, cycle);
  EXPECT_FALSE(result.equivalence.consistent)
      << "the paper's cycle preferences should make three bindings collide";
}

TEST(Theorem4, FewerBindingsCauseInstability) {
  // With k-2 bindings some component is unbound; preferences exist that make
  // the index-assembled matching unstable. The Fig. 3 instance already
  // works: bind only M-W and leave U unbound.
  const auto inst = kstable::examples::fig3_instance();
  BindingStructure forest(3);
  forest.add_edge({0, 1});
  const auto result = bind_structure(inst, forest);
  ASSERT_TRUE(result.equivalence.consistent);
  // Index assembly joins (m, w) with u = (2, 0); but m prefers u' and u'
  // prefers m, while... verify instability via exact search.
  const auto witness =
      analysis::find_blocking_family(inst, *result.equivalence.matching);
  // Either assembly is blocked, or (rarely) the arbitrary join happened to be
  // stable. For this specific instance the assembly pairs (m,w) with u and
  // (m',w') with u', which IS the stable matching — so use the crosswise
  // instance instead.
  (void)witness;
  // Crosswise variant: make the unbound gender's index-join wrong.
  KPartiteInstance bad = inst;
  // Flip u/u' preferences of both w and w' so W-U mutual first choices cross:
  bad.set_pref_list({1, 0}, 2, std::vector<Index>{1, 0});  // w : u' > u
  bad.set_pref_list({1, 1}, 2, std::vector<Index>{0, 1});  // w': u > u'
  bad.set_pref_list({2, 0}, 1, std::vector<Index>{1, 0});  // u : w' > w
  bad.set_pref_list({2, 1}, 1, std::vector<Index>{0, 1});  // u': w > w'
  bad.validate();
  const auto bad_result = bind_structure(bad, forest);
  ASSERT_TRUE(bad_result.equivalence.consistent);
  const auto bad_witness =
      analysis::find_blocking_family(bad, *bad_result.equivalence.matching);
  EXPECT_TRUE(bad_witness.has_value())
      << "unbound component should admit a blocking family";
}

TEST(Theorem4, RandomInstancesFewBindingsSometimesUnstable) {
  // Statistical contrast: across random k=4 instances, a 1-edge forest must
  // produce at least one blocked assembly while the spanning tree never does.
  // (Strict blocking families need many simultaneous preference agreements,
  // so the per-instance hit rate is modest — Theorem 4's "fewer bindings
  // cause instability" is an existence claim, covered deterministically
  // above; here we only check the rates separate.)
  Rng rng(250);
  int forest_unstable = 0;
  int tree_unstable = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    const auto inst = gen::uniform(4, 8, rng);
    BindingStructure forest(4);
    forest.add_edge({0, 1});
    const auto result = bind_structure(inst, forest);
    ASSERT_TRUE(result.equivalence.consistent);
    forest_unstable +=
        analysis::find_blocking_family_pairs(inst, *result.equivalence.matching,
                                             analysis::BlockingMode::strict)
            .has_value();
    const auto full = iterative_binding(inst, trees::path(4));
    tree_unstable +=
        analysis::find_blocking_family_pairs(inst, full.matching(),
                                             analysis::BlockingMode::strict)
            .has_value();
  }
  EXPECT_GT(forest_unstable, 0);
  EXPECT_EQ(tree_unstable, 0);
  EXPECT_GT(forest_unstable, tree_unstable);
}

TEST(GreedySpanningTree, ConsumesCandidatesInOrder) {
  const std::vector<GenderEdge> candidates{
      {0, 1}, {1, 0}, {1, 2}, {0, 2}, {2, 3}};
  // Second candidate (1,0) would duplicate/cycle and must be skipped.
  const auto tree = greedy_spanning_tree(4, candidates);
  EXPECT_TRUE(tree.is_spanning_tree());
  ASSERT_EQ(tree.edges().size(), 3U);
  EXPECT_EQ(tree.edges()[0].a, 0);
  EXPECT_EQ(tree.edges()[1].b, 2);
}

TEST(GreedySpanningTree, ThrowsWhenCandidatesCannotSpan) {
  const std::vector<GenderEdge> candidates{{0, 1}};
  EXPECT_THROW(greedy_spanning_tree(3, candidates), ContractViolation);
}

TEST(Strengthen, GloballyAlignedScoresAcceptEveryExtraBinding) {
  // popularity(noise=0) ranks everyone by one global score per member, so
  // every pairwise GS matching is score-aligned and all C(k,2) - (k-1) extra
  // edges stay consistent. (Plain master_list does NOT have this property:
  // its shared orders are independent per gender pair.)
  Rng rng(270);
  const Gender k = 5;
  const auto inst = gen::popularity(k, 6, rng, 0.0);
  const auto result = strengthen_bindings(inst, trees::path(k));
  EXPECT_EQ(result.extra_accepted, (k * (k - 1) / 2) - (k - 1));
  EXPECT_EQ(result.extra_rejected, 0);
  EXPECT_TRUE(result.binding.equivalence.consistent);
}

TEST(Strengthen, UniformInstancesRejectMostExtraBindings) {
  Rng rng(271);
  int total_accepted = 0;
  int total_rejected = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto inst = gen::uniform(4, 8, rng);
    const auto result = strengthen_bindings(inst, trees::path(4));
    total_accepted += result.extra_accepted;
    total_rejected += result.extra_rejected;
    // Whatever was accepted, the result stays a consistent matching.
    ASSERT_TRUE(result.binding.equivalence.consistent);
    EXPECT_FALSE(analysis::find_blocking_family_pairs(
                     inst, *result.binding.equivalence.matching,
                     analysis::BlockingMode::strict)
                     .has_value());
  }
  EXPECT_GT(total_rejected, total_accepted);
}

TEST(Strengthen, PaperCyclePreferencesRejectTheClosingEdge) {
  // §IV.B: the cycle witness preferences cannot support a third binding.
  const auto inst = gen::theorem4_cycle_prefs();
  BindingStructure base(3);
  base.add_edge({0, 1});
  base.add_edge({1, 2});
  const auto result = strengthen_bindings(inst, base);
  EXPECT_EQ(result.extra_accepted, 0);
  EXPECT_EQ(result.extra_rejected, 1);
  EXPECT_TRUE(result.structure.is_spanning_tree());
}

TEST(Strengthen, RejectsCyclicBase) {
  Rng rng(272);
  const auto inst = gen::uniform(3, 2, rng);
  BindingStructure cyclic(3);
  cyclic.add_edge({0, 1});
  cyclic.add_edge({1, 2});
  cyclic.add_edge({2, 0});
  EXPECT_THROW(strengthen_bindings(inst, cyclic), ContractViolation);
}

TEST(BindingResult, ProposalAccountingMatchesEdges) {
  Rng rng(260);
  const auto inst = gen::uniform(4, 6, rng);
  const auto tree = trees::star(4, 0);
  const auto result = iterative_binding(inst, tree);
  std::int64_t sum = 0;
  for (const auto& r : result.edge_results) sum += r.proposals;
  EXPECT_EQ(sum, result.total_proposals);
  EXPECT_EQ(result.edge_results.size(), 3U);
}

}  // namespace
}  // namespace kstable::core

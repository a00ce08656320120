// Tests for the implicit preference backend (src/prefs/implicit/,
// docs/PERFORMANCE.md §Implicit preferences): the Feistel PRP is a bijection
// with an exact O(1) inverse, implicit instances are indistinguishable from
// their materialized explicit twins to every GS engine and to the binding /
// ladder / batch layers, the immutability contract holds, and the memory
// introspection reports the true O(1)-per-instance footprint.
#include <gtest/gtest.h>

#include <vector>

#include "core/batch_solver.hpp"
#include "core/binding.hpp"
#include "core/gs_cache.hpp"
#include "graph/binding_structure.hpp"
#include "gs/gale_shapley.hpp"
#include "gs/scan_gs.hpp"
#include "prefs/implicit/feistel.hpp"
#include "prefs/kpartite.hpp"
#include "resilience/solve_ladder.hpp"
#include "util/check.hpp"

namespace kstable {
namespace {

using prefs::imp::Family;
using prefs::imp::ImplicitSpec;

// ---------------------------------------------------------------------------
// PRP layer

TEST(Feistel, GeometryCoversDomain) {
  for (const Index n : {1, 2, 3, 4, 5, 16, 17, 255, 256, 1000, 4097, 65536}) {
    const auto g = prefs::imp::feistel_geometry(n);
    const std::uint64_t domain = 1ULL << (2 * g.half_bits);
    EXPECT_GE(domain, static_cast<std::uint64_t>(n)) << "n=" << n;
    // Cycle-walking stays cheap: the domain is < 4n, so the expected walk
    // length is below 4 (docs/PERFORMANCE.md).
    if (n > 1) {
      EXPECT_LT(domain, 4ULL * static_cast<std::uint64_t>(n)) << "n=" << n;
    }
  }
}

TEST(Feistel, PrpIsABijectionWithExactInverse) {
  for (const Index n : {1, 2, 3, 5, 16, 255, 1000, 4097}) {
    const auto g = prefs::imp::feistel_geometry(n);
    for (const std::uint64_t row : {0ULL, 1ULL, 977ULL}) {
      const auto keys = prefs::imp::derive_row_keys(0x5eedULL, row);
      std::vector<bool> seen(static_cast<std::size_t>(n), false);
      for (Index x = 0; x < n; ++x) {
        const Index y = prefs::imp::prp_forward(g, keys, x);
        ASSERT_GE(y, 0);
        ASSERT_LT(y, n);
        EXPECT_FALSE(seen[static_cast<std::size_t>(y)])
            << "collision at n=" << n << " x=" << x;
        seen[static_cast<std::size_t>(y)] = true;
        EXPECT_EQ(prefs::imp::prp_inverse(g, keys, y), x)
            << "inverse mismatch at n=" << n << " x=" << x;
      }
    }
  }
}

TEST(Feistel, DistinctRowsGetDistinctPermutations) {
  const Index n = 64;
  const auto g = prefs::imp::feistel_geometry(n);
  const auto a = prefs::imp::derive_row_keys(7, 0);
  const auto b = prefs::imp::derive_row_keys(7, 1);
  bool differs = false;
  for (Index x = 0; x < n && !differs; ++x) {
    differs = prefs::imp::prp_forward(g, a, x) !=
              prefs::imp::prp_forward(g, b, x);
  }
  EXPECT_TRUE(differs) << "rows 0 and 1 produced the same permutation";
}

// ---------------------------------------------------------------------------
// Instance layer

TEST(ImplicitInstance, CyclicClosedForm) {
  const Index n = 9;
  const auto inst =
      KPartiteInstance::make_implicit(3, n, {Family::cyclic, 0});
  for (Index i = 0; i < n; ++i) {
    for (Index r = 0; r < n; ++r) {
      EXPECT_EQ(inst.pref_at({0, i}, 1, r), (i + r) % n);
      EXPECT_EQ(inst.rank_of({0, i}, {1, (i + r) % n}),
                static_cast<std::int32_t>(r));
    }
  }
}

TEST(ImplicitInstance, RankOfInvertsPrefAt) {
  for (const auto family : {Family::uniform, Family::cyclic}) {
    const Index n = 33;
    const auto inst =
        KPartiteInstance::make_implicit(3, n, {family, 0xfeedULL});
    for (Gender g = 0; g < 3; ++g) {
      for (Index m = 0; m < n; ++m) {
        for (Gender h = 0; h < 3; ++h) {
          if (h == g) continue;
          for (Index r = 0; r < n; ++r) {
            const Index p = inst.pref_at({g, m}, h, r);
            ASSERT_EQ(inst.rank_of({g, m}, {h, p}),
                      static_cast<std::int32_t>(r))
                << "family=" << prefs::imp::to_string(family) << " g=" << g
                << " m=" << m << " h=" << h << " r=" << r;
          }
        }
      }
    }
  }
}

TEST(ImplicitInstance, MaterializedIsSemanticallyEqual) {
  for (const auto family : {Family::uniform, Family::cyclic}) {
    const auto inst =
        KPartiteInstance::make_implicit(3, 21, {family, 42});
    const auto wide = inst.materialized(prefs::RankWidth::wide32);
    const auto narrow = inst.materialized(prefs::RankWidth::narrow16);
    EXPECT_TRUE(wide == inst);
    EXPECT_TRUE(narrow == inst);
    EXPECT_NO_THROW(wide.validate());
    EXPECT_EQ(wide.backend(), PrefBackend::explicit_tables);
  }
  // Different seeds generate different instances (element-wise comparison).
  const auto a = KPartiteInstance::make_implicit(2, 16, {Family::uniform, 1});
  const auto b = KPartiteInstance::make_implicit(2, 16, {Family::uniform, 2});
  EXPECT_FALSE(a == b);
  // Same spec compares equal without any evaluation.
  const auto c = KPartiteInstance::make_implicit(2, 16, {Family::uniform, 1});
  EXPECT_TRUE(a == c);
}

TEST(ImplicitInstance, ReportsZeroTableFootprint) {
  const auto inst =
      KPartiteInstance::make_implicit(2, 100000, {Family::uniform, 9});
  EXPECT_EQ(inst.backend(), PrefBackend::implicit_gen);
  EXPECT_EQ(inst.pref_bytes(), 0u);
  EXPECT_EQ(inst.rank_bytes(), 0u);
  EXPECT_EQ(inst.arena_bytes(), 0u);
  EXPECT_EQ(inst.generation(), 0);
  EXPECT_NO_THROW(inst.validate());
}

TEST(ImplicitInstance, MutatorsAndTableAccessorsThrow) {
  const auto inst =
      KPartiteInstance::make_implicit(2, 4, {Family::uniform, 3});
  EXPECT_THROW((void)inst.pref_list({0, 0}, 1), ContractViolation);
  EXPECT_THROW(
      (void)KPartiteInstance::relaid(inst, prefs::RankWidth::wide32),
      ContractViolation);
  auto copy = inst;
  EXPECT_THROW(copy.set_pref_list({0, 0}, 1, std::vector<Index>{0, 1, 2, 3}),
               ContractViolation);
  EXPECT_THROW(copy.swap_pref_entries({0, 0}, 1, 0, 1), ContractViolation);
}

// ---------------------------------------------------------------------------
// Engine equivalence battery

TEST(ImplicitEngines, AllEnginesMatchMaterializedBitwise) {
  for (const Gender k : {2, 3, 4}) {
    for (const auto family : {Family::uniform, Family::cyclic}) {
      const Index n = 40;
      const auto inst = KPartiteInstance::make_implicit(
          k, n, {family, 0x9000ULL + static_cast<std::uint64_t>(k)});
      const auto wide = inst.materialized(prefs::RankWidth::wide32);
      const auto narrow = inst.materialized(prefs::RankWidth::narrow16);
      for (Gender i = 0; i < k; ++i) {
        for (Gender j = 0; j < k; ++j) {
          if (i == j) continue;
          const auto reference = gs::gale_shapley_queue(inst, i, j);
          EXPECT_TRUE(gs::is_stable_binding(inst, reference));
          auto expect_same = [&](const gs::GsResult& other) {
            EXPECT_EQ(other.proposer_match, reference.proposer_match)
                << other.engine << " k=" << k << " (" << i << "," << j << ")";
            EXPECT_EQ(other.responder_match, reference.responder_match)
                << other.engine;
            EXPECT_EQ(other.proposals, reference.proposals) << other.engine;
          };
          // Every engine on the implicit backend...
          expect_same(gs::gale_shapley_rounds(inst, i, j));
          expect_same(gs::gale_shapley_scan(inst, i, j));
          expect_same(gs::gale_shapley_scan_simd(inst, i, j));
          // ...and the queue engine on both explicit widths.
          expect_same(gs::gale_shapley_queue(wide, i, j));
          expect_same(gs::gale_shapley_queue(narrow, i, j));
        }
      }
    }
  }
}

TEST(ImplicitEngines, TracesMatchMaterializedExactly) {
  const auto inst =
      KPartiteInstance::make_implicit(2, 48, {Family::uniform, 77});
  const auto wide = inst.materialized(prefs::RankWidth::wide32);
  std::vector<gs::ProposalEvent> trace_imp;
  std::vector<gs::ProposalEvent> trace_exp;
  gs::GsOptions opt;
  opt.trace = &trace_imp;
  (void)gs::gale_shapley_queue(inst, 0, 1, opt);
  opt.trace = &trace_exp;
  (void)gs::gale_shapley_queue(wide, 0, 1, opt);
  EXPECT_EQ(trace_imp, trace_exp);
}

// ---------------------------------------------------------------------------
// Binding / ladder / batch integration

TEST(ImplicitBinding, IterativeBindingMatchesMaterialized) {
  for (const Gender k : {3, 4}) {
    const auto inst =
        KPartiteInstance::make_implicit(k, 25, {Family::uniform, 1234});
    const auto wide = inst.materialized(prefs::RankWidth::wide32);
    const auto path = trees::path(k);
    const auto a = core::iterative_binding(inst, path);
    const auto b = core::iterative_binding(wide, path);
    EXPECT_TRUE(a.matching() == b.matching()) << "k=" << k;
    EXPECT_EQ(a.total_proposals, b.total_proposals);
  }
}

TEST(ImplicitBinding, GenerationBoundCacheReplaysForFree) {
  const auto inst =
      KPartiteInstance::make_implicit(3, 20, {Family::uniform, 5});
  const auto path = trees::path(3);
  core::GsEdgeCache cache(inst);
  core::BindingOptions opts;
  opts.cache = &cache;
  const auto first = core::iterative_binding(inst, path, opts);
  const auto replay = core::iterative_binding(inst, path, opts);
  EXPECT_TRUE(replay.matching() == first.matching());
  EXPECT_EQ(replay.executed_proposals, 0);
  EXPECT_EQ(replay.cache_hits, 2);
}

TEST(ImplicitLadder, FallbackSolvesImplicitInstances) {
  const auto inst =
      KPartiteInstance::make_implicit(3, 18, {Family::uniform, 321});
  const auto report = resilience::solve_with_fallback(inst, {});
  ASSERT_TRUE(report.succeeded);
  const auto reference = core::iterative_binding(inst, trees::path(3));
  EXPECT_TRUE(report.matching() == reference.matching());
}

TEST(ImplicitBatch, MixedBackendBatchMatchesSoloRuns) {
  std::vector<KPartiteInstance> instances;
  for (int s = 0; s < 3; ++s) {
    const auto imp = KPartiteInstance::make_implicit(
        3, 16, {Family::uniform, static_cast<std::uint64_t>(s)});
    instances.push_back(imp);
    instances.push_back(imp.materialized());
  }
  ThreadPool pool(4);
  core::BatchSolver solver(pool);
  const auto results = solver.solve(instances);
  ASSERT_EQ(results.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << "item " << i;
    ASSERT_TRUE(results[i].matching.has_value());
    const auto solo = core::iterative_binding(instances[i], trees::path(3));
    EXPECT_TRUE(*results[i].matching == solo.matching()) << "item " << i;
  }
  // Implicit item 2s and explicit item 2s+1 share the spec, so they must
  // land on identical matchings.
  for (std::size_t s = 0; s + 1 < results.size(); s += 2) {
    EXPECT_TRUE(*results[s].matching == *results[s + 1].matching);
  }
}

// ---------------------------------------------------------------------------
// Scale smoke: the acceptance-criteria shape at a CI-friendly size. The
// E21 benchmark covers n = 10^5+; here we pin that a large implicit solve
// stays exact (perfect matching + stability spot check) without tables.

TEST(ImplicitScale, LargeBipartiteSolveIsStable) {
  const Index n = 20000;
  const auto inst =
      KPartiteInstance::make_implicit(2, n, {Family::uniform, 0xabcdULL});
  EXPECT_EQ(inst.pref_bytes() + inst.rank_bytes(), 0u);
  const auto result = gs::gale_shapley_queue(inst, 0, 1);
  // Perfect matching is enforced by the engine's postcondition; spot-check
  // stability on a band of proposers (full O(n²) check is too slow here).
  for (Index p = 0; p < 64; ++p) {
    const Index matched = result.proposer_match[static_cast<std::size_t>(p)];
    const std::int32_t matched_rank = inst.rank_of({0, p}, {1, matched});
    for (std::int32_t r = 0; r < matched_rank; ++r) {
      const Index w = inst.pref_at({0, p}, 1, static_cast<Index>(r));
      const Index w_partner =
          result.responder_match[static_cast<std::size_t>(w)];
      EXPECT_FALSE(inst.prefers({1, w}, {0, p}, {0, w_partner}))
          << "blocking pair (" << p << "," << w << ")";
    }
  }
}

}  // namespace
}  // namespace kstable

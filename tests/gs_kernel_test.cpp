// One suite for every flavour of the Gale-Shapley propose kernel
// (gs/propose_loop.hpp): each (Schedule, Accept) pair is a type parameter,
// and every test runs it over the narrow16, wide32, and implicit
// preference layouts at k = 2 and k = 3. The queue engine
// (StackSchedule, RankAccept) is the reference every flavour must match.
//
// This binary replaces the global operator new/delete with counting hooks so
// the warm into-style solves can assert zero heap allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/binding_structure.hpp"
#include "gs/gale_shapley.hpp"
#include "gs/propose_loop.hpp"
#include "prefs/generators.hpp"
#include "resilience/errors.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

// Out of line, so the compiler cannot pair an inlined free() with an
// operator new it does not see replaced and warn about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace kstable::gs {
namespace {

template <typename S, typename A>
struct Flavour {
  using Schedule = S;
  using Accept = A;
};

using Flavours = ::testing::Types<
    Flavour<StackSchedule, RankAccept>, Flavour<StackSchedule, ScanAccept>,
    Flavour<StackSchedule, SimdScanAccept>,
    Flavour<RoundsSchedule, RankAccept>, Flavour<RoundsSchedule, ScanAccept>,
    Flavour<RoundsSchedule, SimdScanAccept>>;

struct FlavourNames {
  template <typename F>
  static std::string GetName(int) {
    std::string name = F::Schedule::kRounds ? "Rounds" : "Stack";
    if constexpr (std::is_same_v<typename F::Accept, RankAccept>) {
      return name + "Rank";
    } else if constexpr (std::is_same_v<typename F::Accept, ScanAccept>) {
      return name + "Scan";
    } else {
      return name + "SimdScan";
    }
  }
};

enum class Layout { narrow16, wide32, implicit };

const char* to_string(Layout layout) {
  switch (layout) {
    case Layout::narrow16: return "narrow16";
    case Layout::wide32: return "wide32";
    case Layout::implicit: return "implicit";
  }
  return "?";
}

KPartiteInstance make_instance(Layout layout, Gender k, Index n,
                               std::uint64_t seed) {
  if (layout == Layout::implicit) {
    return KPartiteInstance::make_implicit(
        k, n, {prefs::imp::Family::uniform, seed});
  }
  Rng rng(seed);
  auto inst = gen::uniform(k, n, rng);
  return layout == Layout::wide32
             ? KPartiteInstance::relaid(inst, prefs::RankWidth::wide32)
             : inst;
}

/// One case of the sweep: layout, gender count, size, and instance seed.
struct Case {
  Layout layout;
  Gender k;
  Index n;
  std::uint64_t seed;
};

std::vector<Case> sweep_cases() {
  std::vector<Case> cases;
  for (const Layout layout :
       {Layout::narrow16, Layout::wide32, Layout::implicit}) {
    for (const Gender k : {Gender{2}, Gender{3}}) {
      for (const Index n : {Index{1}, Index{7}, Index{33}}) {
        cases.push_back({layout, k, n, 0x6b00 + static_cast<std::uint64_t>(n)});
      }
    }
  }
  return cases;
}

std::vector<GenderEdge> ordered_pairs(Gender k) {
  std::vector<GenderEdge> pairs;
  for (Gender a = 0; a < k; ++a) {
    for (Gender b = 0; b < k; ++b) {
      if (a != b) pairs.push_back({a, b});
    }
  }
  return pairs;
}

std::string describe(const Case& c, GenderEdge edge) {
  return std::string(to_string(c.layout)) + " k=" + std::to_string(c.k) +
         " n=" + std::to_string(c.n) + " GS(" + std::to_string(edge.a) + "," +
         std::to_string(edge.b) + ")";
}

template <typename F>
void solve_flavour(const KPartiteInstance& inst, GenderEdge edge,
                   const GsOptions& options, GsWorkspace& workspace,
                   GsResult& result) {
  solve<typename F::Schedule, typename F::Accept>(inst, edge.a, edge.b,
                                                  options, workspace, result);
}

template <typename F>
class GsKernelTest : public ::testing::Test {};
TYPED_TEST_SUITE(GsKernelTest, Flavours, FlavourNames);

TYPED_TEST(GsKernelTest, MatchesQueueBitwiseWithExactProposals) {
  for (const Case& c : sweep_cases()) {
    const auto inst = make_instance(c.layout, c.k, c.n, c.seed);
    for (const GenderEdge edge : ordered_pairs(c.k)) {
      const auto reference = gale_shapley_queue(inst, edge.a, edge.b);
      GsWorkspace workspace;
      GsResult result;
      solve_flavour<TypeParam>(inst, edge, {}, workspace, result);
      EXPECT_EQ(result.proposer_gender, edge.a) << describe(c, edge);
      EXPECT_EQ(result.responder_gender, edge.b) << describe(c, edge);
      EXPECT_EQ(result.proposer_match, reference.proposer_match)
          << describe(c, edge);
      EXPECT_EQ(result.responder_match, reference.responder_match)
          << describe(c, edge);
      EXPECT_EQ(result.proposals, reference.proposals) << describe(c, edge);
      EXPECT_TRUE(is_stable_binding(inst, result)) << describe(c, edge);
    }
  }
}

TYPED_TEST(GsKernelTest, RoundsCountMatchesTheSchedule) {
  for (const Case& c : sweep_cases()) {
    const auto inst = make_instance(c.layout, c.k, c.n, c.seed);
    for (const GenderEdge edge : ordered_pairs(c.k)) {
      GsWorkspace workspace;
      GsResult result;
      solve_flavour<TypeParam>(inst, edge, {}, workspace, result);
      if constexpr (TypeParam::Schedule::kRounds) {
        // Accept never changes which proposals happen, so every rounds
        // flavour takes as many rounds as the rank-compare rounds engine.
        const auto rounds = gale_shapley_rounds(inst, edge.a, edge.b);
        EXPECT_EQ(result.rounds, rounds.rounds) << describe(c, edge);
        EXPECT_GE(result.rounds, 1) << describe(c, edge);
        EXPECT_LE(result.rounds, result.proposals) << describe(c, edge);
      } else {
        EXPECT_EQ(result.rounds, result.proposals) << describe(c, edge);
      }
    }
  }
}

TYPED_TEST(GsKernelTest, TraceHasOneEventPerProposalInScheduleOrder) {
  for (const Case& c : sweep_cases()) {
    const auto inst = make_instance(c.layout, c.k, c.n, c.seed);
    for (const GenderEdge edge : ordered_pairs(c.k)) {
      // Reference trace: the rank-compare engine of the same schedule.
      std::vector<ProposalEvent> expected;
      GsOptions reference_options;
      reference_options.trace = &expected;
      if constexpr (TypeParam::Schedule::kRounds) {
        (void)gale_shapley_rounds(inst, edge.a, edge.b, reference_options);
      } else {
        (void)gale_shapley_queue(inst, edge.a, edge.b, reference_options);
      }

      std::vector<ProposalEvent> trace;
      GsOptions options;
      options.trace = &trace;
      GsWorkspace workspace;
      GsResult result;
      solve_flavour<TypeParam>(inst, edge, options, workspace, result);
      EXPECT_EQ(static_cast<std::int64_t>(trace.size()), result.proposals)
          << describe(c, edge);
      EXPECT_EQ(trace, expected) << describe(c, edge);
      // The Theorem 3 per-binding bound is reserved up front.
      EXPECT_GE(trace.capacity(), static_cast<std::size_t>(c.n) *
                                      static_cast<std::size_t>(c.n));
    }
  }
}

TYPED_TEST(GsKernelTest, WarmIntoStyleSolvesAllocateNothing) {
  for (const Layout layout :
       {Layout::narrow16, Layout::wide32, Layout::implicit}) {
    for (const Gender k : {Gender{2}, Gender{3}}) {
      const auto inst = make_instance(layout, k, 48, 0x6c00);
      GsWorkspace workspace;
      GsResult result;
      const GsOptions options;
      // Warm-up: the first solve may grow the workspace and result.
      solve_flavour<TypeParam>(inst, {0, 1}, options, workspace, result);
      for (const GenderEdge edge : ordered_pairs(k)) {
        const std::int64_t before =
            g_allocations.load(std::memory_order_relaxed);
        solve_flavour<TypeParam>(inst, edge, options, workspace, result);
        const std::int64_t allocs =
            g_allocations.load(std::memory_order_relaxed) - before;
        EXPECT_EQ(allocs, 0) << to_string(layout) << " k=" << k << " GS("
                             << edge.a << ',' << edge.b << ") allocated";
        const auto reference = gale_shapley_queue(inst, edge.a, edge.b);
        EXPECT_EQ(result.proposer_match, reference.proposer_match);
        EXPECT_EQ(result.proposals, reference.proposals);
      }
    }
  }
}

TYPED_TEST(GsKernelTest, ProposalBudgetAbortsLikeTheRankEngine) {
  for (const Layout layout :
       {Layout::narrow16, Layout::wide32, Layout::implicit}) {
    const auto inst = make_instance(layout, 3, 40, 0x6d00);
    const auto full = gale_shapley_queue(inst, 2, 0);
    // A budget below the solve's proposal count must abort every flavour;
    // the stack schedule charges per proposal and the rounds schedule per
    // round, exactly as the two rank-compare engines do.
    resilience::ExecControl control(
        resilience::Budget::proposals(full.proposals / 2));
    std::vector<ProposalEvent> trace;
    GsOptions options;
    options.control = &control;
    options.trace = &trace;
    GsWorkspace workspace;
    GsResult result;
    EXPECT_THROW(solve_flavour<TypeParam>(inst, {2, 0}, options, workspace,
                                          result),
                 ExecutionAborted)
        << to_string(layout);

    resilience::ExecControl reference_control(
        resilience::Budget::proposals(full.proposals / 2));
    std::vector<ProposalEvent> reference_trace;
    GsOptions reference_options;
    reference_options.control = &reference_control;
    reference_options.trace = &reference_trace;
    EXPECT_THROW(
        {
          if constexpr (TypeParam::Schedule::kRounds) {
            (void)gale_shapley_rounds(inst, 2, 0, reference_options);
          } else {
            (void)gale_shapley_queue(inst, 2, 0, reference_options);
          }
        },
        ExecutionAborted);
    // Same abort point: the events recorded before the throw agree.
    EXPECT_EQ(trace, reference_trace) << to_string(layout);
  }
}

TYPED_TEST(GsKernelTest, RejectsInvalidGenderPairs) {
  const auto inst = make_instance(Layout::narrow16, 3, 4, 0x6e00);
  GsWorkspace workspace;
  GsResult result;
  EXPECT_THROW(solve_flavour<TypeParam>(inst, {1, 1}, {}, workspace, result),
               ContractViolation);
  EXPECT_THROW(solve_flavour<TypeParam>(inst, {0, 3}, {}, workspace, result),
               ContractViolation);
  EXPECT_THROW(solve_flavour<TypeParam>(inst, {-1, 0}, {}, workspace, result),
               ContractViolation);
}

TYPED_TEST(GsKernelTest, MasterListHitsTheTriangularProposalCount) {
  // One shared list: the i-th accepted proposer is first rejected by every
  // responder ranked above its partner, n(n+1)/2 proposals in total.
  Rng rng(0x6f00);
  const Index n = 16;
  const auto inst = gen::master_list(2, n, rng);
  GsWorkspace workspace;
  GsResult result;
  solve_flavour<TypeParam>(inst, {0, 1}, {}, workspace, result);
  EXPECT_EQ(result.proposals, static_cast<std::int64_t>(n) * (n + 1) / 2);
  EXPECT_TRUE(is_stable_binding(inst, result));
}

}  // namespace
}  // namespace kstable::gs

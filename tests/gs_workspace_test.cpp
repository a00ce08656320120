// Allocation tests for the zero-allocation GS hot path: this binary replaces
// the global operator new/delete with counting hooks so the tests can assert
// that gale_shapley_queue / gale_shapley_rounds with a warm GsWorkspace and a
// warm GsResult perform ZERO heap allocations per solve, and that traced runs
// reserve the Theorem 3 bound (n² events) up front instead of growing
// geometrically.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/binding.hpp"
#include "gs/gale_shapley.hpp"
#include "prefs/generators.hpp"
#include "util/rng.hpp"

namespace {
/// Counts every global allocation in this test binary. Relaxed is enough:
/// the tests snapshot/compare on one thread.
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

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace kstable::gs {
namespace {

/// Runs `fn` and returns how many allocations it performed.
template <typename Fn>
std::int64_t allocations_during(Fn&& fn) {
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(GsWorkspace, QueueEngineZeroAllocationsWhenWarm) {
  Rng rng(71);
  const auto inst = gen::uniform(4, 64, rng);
  GsWorkspace workspace;
  GsResult result;
  const GsOptions options;
  // Warm-up: the first solve may allocate the workspace and result buffers.
  gale_shapley_queue(inst, 0, 1, options, workspace, result);

  // Every subsequent solve — same pair, new pair, either orientation — must
  // allocate nothing.
  for (const GenderEdge edge :
       {GenderEdge{0, 1}, GenderEdge{2, 3}, GenderEdge{3, 0}}) {
    const std::int64_t allocs = allocations_during([&] {
      gale_shapley_queue(inst, edge.a, edge.b, options, workspace, result);
    });
    EXPECT_EQ(allocs, 0) << "GS(" << edge.a << ',' << edge.b << ") allocated";
    const auto expected = gale_shapley_queue(inst, edge.a, edge.b);
    EXPECT_EQ(result.proposer_match, expected.proposer_match);
    EXPECT_EQ(result.responder_match, expected.responder_match);
    EXPECT_EQ(result.proposals, expected.proposals);
  }
}

TEST(GsWorkspace, RoundsEngineZeroAllocationsWhenWarm) {
  Rng rng(72);
  const auto inst = gen::uniform(3, 48, rng);
  GsWorkspace workspace;
  GsResult result;
  const GsOptions options;
  gale_shapley_rounds(inst, 0, 1, options, workspace, result);

  for (const GenderEdge edge : {GenderEdge{1, 2}, GenderEdge{2, 0}}) {
    const std::int64_t allocs = allocations_during([&] {
      gale_shapley_rounds(inst, edge.a, edge.b, options, workspace, result);
    });
    EXPECT_EQ(allocs, 0) << "GS(" << edge.a << ',' << edge.b << ") allocated";
    const auto expected = gale_shapley_rounds(inst, edge.a, edge.b);
    EXPECT_EQ(result.proposer_match, expected.proposer_match);
    EXPECT_EQ(result.proposals, expected.proposals);
    EXPECT_EQ(result.rounds, expected.rounds);
  }
}

TEST(GsWorkspace, ImplicitBackendZeroAllocationsWhenWarm) {
  // The implicit backend must keep the engines' zero-allocation warm-path
  // contract: generator evaluation is pure arithmetic, so a warm solve over
  // a generator-backed instance heap-allocates exactly as much as one over
  // arena tables — nothing.
  const auto inst = KPartiteInstance::make_implicit(
      3, 64, {prefs::imp::Family::uniform, 0x5eedULL});
  GsWorkspace workspace;
  GsResult result;
  const GsOptions options;
  gale_shapley_queue(inst, 0, 1, options, workspace, result);

  for (const GenderEdge edge :
       {GenderEdge{0, 1}, GenderEdge{1, 2}, GenderEdge{2, 0}}) {
    const std::int64_t allocs = allocations_during([&] {
      gale_shapley_queue(inst, edge.a, edge.b, options, workspace, result);
    });
    EXPECT_EQ(allocs, 0) << "implicit GS(" << edge.a << ',' << edge.b
                         << ") allocated";
    const auto expected = gale_shapley_queue(inst, edge.a, edge.b);
    EXPECT_EQ(result.proposer_match, expected.proposer_match);
    EXPECT_EQ(result.proposals, expected.proposals);
  }
}

TEST(GsWorkspace, ArenaInstancesAllocateNothingPerSolve) {
  // The arena layout concentrates every byte of instance storage in one slab
  // carved at construction: a warm queue solve over a freshly *generated*
  // instance still allocates nothing, because reading pref/rank rows never
  // touches the allocator.
  Rng rng(78);
  const auto first = gen::uniform(3, 32, rng);
  const auto second = gen::uniform(3, 32, rng);
  GsWorkspace workspace;
  GsResult result;
  gale_shapley_queue(first, 0, 1, {}, workspace, result);
  const std::int64_t allocs = allocations_during([&] {
    gale_shapley_queue(second, 2, 0, {}, workspace, result);
    gale_shapley_queue(first, 1, 2, {}, workspace, result);
  });
  EXPECT_EQ(allocs, 0);
}

TEST(GsWorkspace, WarmHelpersPreallocate) {
  Rng rng(73);
  const Index n = 32;
  const auto inst = gen::uniform(2, n, rng);
  GsWorkspace workspace;
  GsResult result;
  workspace.warm(n);
  warm_result(result, n);
  // Explicit warming removes even the first solve's allocations.
  const std::int64_t allocs = allocations_during(
      [&] { gale_shapley_queue(inst, 0, 1, {}, workspace, result); });
  EXPECT_EQ(allocs, 0);
}

TEST(GsWorkspace, SmallerInstancesReuseWarmCapacity) {
  Rng rng(74);
  const auto big = gen::uniform(3, 64, rng);
  const auto small = gen::uniform(3, 16, rng);
  GsWorkspace workspace;
  GsResult result;
  gale_shapley_queue(big, 0, 1, {}, workspace, result);
  // A different, smaller instance fits inside the warm capacity.
  const std::int64_t allocs = allocations_during(
      [&] { gale_shapley_queue(small, 1, 2, {}, workspace, result); });
  EXPECT_EQ(allocs, 0);
  const auto expected = gale_shapley_queue(small, 1, 2);
  EXPECT_EQ(result.proposer_match, expected.proposer_match);
}

TEST(GsWorkspace, WorkspaceThreadedThroughRunBinding) {
  Rng rng(75);
  const auto inst = gen::uniform(4, 32, rng);
  GsWorkspace workspace;
  core::BindingOptions options;
  options.workspace = &workspace;
  const auto with_workspace = core::run_binding(inst, {1, 3}, options);
  const auto without = core::run_binding(inst, {1, 3}, {});
  EXPECT_EQ(with_workspace.proposer_match, without.proposer_match);
  EXPECT_EQ(with_workspace.proposals, without.proposals);

  options.engine = core::GsEngine::rounds;
  const auto rounds = core::run_binding(inst, {1, 3}, options);
  EXPECT_EQ(rounds.proposer_match, without.proposer_match);
}

TEST(GsTrace, TracedRunsReserveTheTheorem3Bound) {
  Rng rng(76);
  const Index n = 24;
  const auto inst = gen::uniform(2, n, rng);
  std::vector<ProposalEvent> trace;
  GsOptions options;
  options.trace = &trace;
  gale_shapley_queue(inst, 0, 1, options);
  // One up-front reserve of n² events instead of geometric growth.
  EXPECT_GE(trace.capacity(),
            static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  EXPECT_LE(trace.size(),
            static_cast<std::size_t>(n) * static_cast<std::size_t>(n));

  // Appending a second traced run extends the reservation past the events
  // already recorded.
  const std::size_t first_run = trace.size();
  gale_shapley_rounds(inst, 1, 0, options);
  EXPECT_GE(trace.capacity(),
            first_run + static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
}

}  // namespace
}  // namespace kstable::gs

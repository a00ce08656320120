// E18 — TreeSweep engine: parallel sweep over all k^(k-2) binding trees with
// the sharded single-flight GsEdgeCache.
//
// Cayley's formula (cited for Theorem 3) gives k^(k-2) spanning binding
// trees; Prüfer random access (prufer::tree_at) makes the index space
// chunkable, so the sweep fans the trees across the pool with work stealing
// while all workers share one edge cache. Three claims are measured:
//
//   1. Thread scaling: trees/sec vs pool size (the wall-clock speedup column
//      is hardware-dependent; on a single-core host the hardware-independent
//      signals are the schedule counters and the determinism checks).
//   2. Cache ablation: no cache vs the single-flight cache. Single-flight
//      must show zero duplicate GS computes (misses == entries) at any
//      thread count.
//   3. Determinism: every configuration — any thread count, cache on or
//      off — lands on the bitwise-identical best tree and matching.

#include <string>
#include <vector>

#include "bench_common.hpp"

#include "core/gs_cache.hpp"
#include "core/tree_sweep.hpp"
#include "graph/prufer.hpp"

namespace {

using namespace kstable;

struct SweepRun {
  core::TreeSweepResult result;
  core::GsEdgeCache::Stats cache_stats;
  std::size_t cache_entries = 0;
};

SweepRun run_sweep(const KPartiteInstance& inst, ThreadPool* pool,
                   bool use_cache) {
  core::TreeSweepOptions options;
  options.pool = pool;
  SweepRun run;
  if (!use_cache) {
    run.result = core::sweep_all_trees(inst, options);
    return run;
  }
  core::GsEdgeCache cache(inst.genders());
  options.cache = &cache;
  run.result = core::sweep_all_trees(inst, options);
  run.cache_stats = cache.stats();
  run.cache_entries = cache.size();
  return run;
}

void report() {
  std::cout << "E18: parallel binding-tree sweep with the sharded "
               "single-flight edge cache\n\n";

  const Gender k = 5;
  const Index n = 64;
  Rng rng(8101);
  const auto inst = gen::uniform(k, n, rng);
  const std::int64_t tree_count = prufer::cayley_count(k);

  // Sequential reference: no pool, shared single-flight cache.
  const SweepRun reference = run_sweep(inst, nullptr, true);

  // --- 1. Thread scaling (shared single-flight cache) -----------------------
  TableWriter scaling("Thread scaling: sweep of all " +
                          std::to_string(tree_count) +
                          " trees (k=5, n=64, uniform, single-flight cache)",
                      {"threads", "wall ms", "trees/sec", "chunks", "steals",
                       "executed proposals", "identical"});
  bool all_identical = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const SweepRun run = run_sweep(inst, &pool, true);
    const bool identical =
        run.result.best_index == reference.result.best_index &&
        run.result.best_cost == reference.result.best_cost &&
        run.result.matching() == reference.result.matching() &&
        run.result.best->total_proposals ==
            reference.result.best->total_proposals;
    all_identical = all_identical && identical;
    scaling.add_row({static_cast<double>(threads), run.result.stats.wall_ms,
                     run.result.stats.trees_per_sec,
                     static_cast<double>(run.result.stats.chunks),
                     static_cast<double>(run.result.stats.steals),
                     static_cast<double>(run.result.stats.executed_proposals),
                     std::string(identical ? "yes" : "NO (BUG)")});
  }
  scaling.print(std::cout);
  std::cout << "Wall-clock speedup is hardware-dependent (this host may be "
               "single-core; acceptance target is >=3x at 8 threads on >=8 "
               "cores). Hardware-independent signals: chunks/steals show the "
               "work-stealing schedule engaged, 'identical' shows the fold is "
               "schedule-invariant.\n\n";

  // --- 2. Cache ablation at 8 threads ---------------------------------------
  TableWriter ablation(
      "Cache ablation at 8 threads (k=5, n=64, " +
          std::to_string(tree_count) + " trees x " + std::to_string(k - 1) +
          " edges = " + std::to_string(tree_count * (k - 1)) + " edge solves)",
      {"cache", "executed proposals", "fresh GS runs", "duplicate runs",
       "cache hits", "sf waits", "identical"});
  std::int64_t single_flight_duplicates = -1;
  for (const bool use_cache : {false, true}) {
    ThreadPool pool(8);
    const SweepRun run = run_sweep(inst, &pool, use_cache);
    const bool identical =
        run.result.best_index == reference.result.best_index &&
        run.result.matching() == reference.result.matching();
    all_identical = all_identical && identical;
    const char* name = use_cache ? "on (single-flight)" : "off";
    // Fresh GS runs with the cache off: every edge of every tree.
    const double fresh = use_cache
                             ? static_cast<double>(run.cache_stats.misses)
                             : static_cast<double>(tree_count * (k - 1));
    const std::int64_t duplicates =
        use_cache ? run.cache_stats.misses -
                        static_cast<std::int64_t>(run.cache_entries)
                  : 0;
    if (use_cache) single_flight_duplicates = duplicates;
    ablation.add_row(
        {std::string(name),
         static_cast<double>(run.result.stats.executed_proposals), fresh,
         static_cast<double>(duplicates),
         static_cast<double>(run.cache_stats.hits),
         static_cast<double>(run.cache_stats.single_flight_waits),
         std::string(identical ? "yes" : "NO (BUG)")});
  }
  ablation.print(std::cout);
  std::cout << "Zero duplicate GS computations under single-flight: "
            << (single_flight_duplicates == 0 ? "yes" : "NO (BUG)")
            << " (misses == stored entries; the off row is the uncached "
               "ceiling).\n\n";

  // --- 3. Determinism summary ------------------------------------------------
  std::cout << "Determinism: best tree index " << reference.result.best_index
            << " (bound-pair cost " << reference.result.best_cost
            << ") reproduced bitwise across every thread count and cache "
               "setting: "
            << (all_identical ? "yes" : "NO (BUG)") << ".\n";
}

// Registered twins for BENCH_e18.json. range(0) = pool threads (0 = no pool,
// pure sequential path).
void bm_sweep_threads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const Gender k = 5;
  Rng rng(8101);
  const auto inst = gen::uniform(k, 64, rng);
  ThreadPool pool(threads == 0 ? 1 : threads);
  std::int64_t steals = 0;
  for (auto _ : state) {
    core::GsEdgeCache cache(k);
    core::TreeSweepOptions options;
    options.pool = threads == 0 ? nullptr : &pool;
    options.cache = &cache;
    const auto result = core::sweep_all_trees(inst, options);
    steals = result.stats.steals;
    benchmark::DoNotOptimize(result.best_cost);
  }
  state.counters["trees"] = static_cast<double>(prufer::cayley_count(k));
  state.counters["steals"] = static_cast<double>(steals);
}
BENCHMARK(bm_sweep_threads)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// range(0): 0 = cache off, 1 = single-flight cache; always 8 pool threads,
// so both settings face the same contention.
void bm_sweep_cache(benchmark::State& state) {
  const Gender k = 5;
  Rng rng(8101);
  const auto inst = gen::uniform(k, 64, rng);
  ThreadPool pool(8);
  std::int64_t misses = 0;
  for (auto _ : state) {
    const SweepRun run = run_sweep(inst, &pool, state.range(0) != 0);
    misses = run.cache_stats.misses;
    benchmark::DoNotOptimize(run.result.best_cost);
  }
  state.counters["fresh_gs_runs"] = static_cast<double>(misses);
}
BENCHMARK(bm_sweep_cache)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Scheduling overhead in isolation: an empty-body sweep over a large index
// space measures claim/steal cost per chunk without any GS work.
void bm_sweep_schedule_overhead(benchmark::State& state) {
  const auto chunk = static_cast<std::int64_t>(state.range(0));
  ThreadPool pool(8);
  for (auto _ : state) {
    const auto schedule = core::sweep_index_space(
        1 << 16, pool, chunk,
        [](std::size_t, std::int64_t begin, std::int64_t end) {
          benchmark::DoNotOptimize(end - begin);
        });
    benchmark::DoNotOptimize(schedule.chunks);
  }
  state.counters["chunk"] = static_cast<double>(chunk);
}
BENCHMARK(bm_sweep_schedule_overhead)->Arg(8)->Arg(64)->Arg(512)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

KSTABLE_BENCH_MAIN(report)

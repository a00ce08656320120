// E9 — §II.A / §IV.C: Gale-Shapley engine comparison and O(n²) scaling.
//
// Paper claims regenerated:
//  * GS runs in O(n²) accumulated proposals ("at most n² accumulative
//    proposals"); on uniform instances the average is ~ n·H(n);
//  * the round-based engine is the paper's §II.A description, the queue
//    engine the textbook form; both reach the same matching (confluence)
//    and count identical proposals;
//  * ablation for the rank-table design decision: the scan engine answers
//    every accept/reject by walking the responder's list instead.

#include <cmath>

#include "bench_common.hpp"

namespace {

using namespace kstable;

void report() {
  std::cout << "E9: GS engine comparison and O(n²) scaling\n\n";
  TableWriter table("Proposals vs n (uniform, seed 91; theory ~ n ln n avg, "
                    "bound n²)",
                    {"n", "proposals", "n ln n", "n^2", "rounds (round-engine)"});
  Rng rng(91);
  for (const Index n : {64, 256, 1024, 4096}) {
    const auto inst = gen::uniform(2, n, rng);
    const auto queue = gs::gale_shapley_queue(inst, 0, 1);
    const auto rounds = gs::gale_shapley_rounds(inst, 0, 1);
    table.add_row({std::int64_t{n}, queue.proposals,
                   static_cast<double>(n) * std::log(static_cast<double>(n)),
                   static_cast<std::int64_t>(n) * n, rounds.rounds});
  }
  table.print(std::cout);

  // Engine agreement spot check at n = 2048.
  const Index n = 2048;
  Rng rng2(92);
  const auto inst = gen::uniform(2, n, rng2);
  const auto queue = gs::gale_shapley_queue(inst, 0, 1);
  const auto round = gs::gale_shapley_rounds(inst, 0, 1);
  std::cout << "Engines agree at n=2048: "
            << ((queue.proposer_match == round.proposer_match &&
                 queue.proposals == round.proposals)
                    ? "yes (confluence)"
                    : "NO — bug!")
            << "\n\n";
}

void bm_engine_queue(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(93);
  const auto inst = gen::uniform(2, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::gale_shapley_queue(inst, 0, 1).proposals);
  }
  state.SetComplexityN(n);
}
BENCHMARK(bm_engine_queue)->RangeMultiplier(2)->Range(256, 8192)->Complexity();

// Resilience-overhead ablation: the same queue engine with an attached (but
// unlimited) ExecControl. The delta vs bm_engine_queue is the full cost of
// deadline/cancellation support — one relaxed fetch_add plus one relaxed load
// per proposal, with the clock consulted every kClockStride units
// (docs/RESILIENCE.md records the measured overhead).
void bm_engine_queue_guarded(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(93);
  const auto inst = gen::uniform(2, n, rng);
  resilience::ExecControl control{
      resilience::Budget::deadline(3.6e6)};  // one hour: never trips
  gs::GsOptions options;
  options.control = &control;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gs::gale_shapley_queue(inst, 0, 1, options).proposals);
  }
}
BENCHMARK(bm_engine_queue_guarded)->RangeMultiplier(2)->Range(256, 8192);

void bm_engine_rounds(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(93);
  const auto inst = gen::uniform(2, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::gale_shapley_rounds(inst, 0, 1).proposals);
  }
}
BENCHMARK(bm_engine_rounds)->RangeMultiplier(2)->Range(256, 8192);

// Ablation for DESIGN.md decision 1 (rank tables): same algorithm, but every
// responder comparison scans the preference list. The gap vs bm_engine_queue
// is the price of dropping the O(1) rank lookup.
void bm_engine_scan_ablation(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(93);
  const auto inst = gen::uniform(2, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::gale_shapley_scan(inst, 0, 1).proposals);
  }
}
BENCHMARK(bm_engine_scan_ablation)->RangeMultiplier(4)->Range(256, 4096);

void bm_engine_master_list_worst_case(benchmark::State& state) {
  const auto n = static_cast<Index>(state.range(0));
  Rng rng(94);
  const auto inst = gen::master_list(2, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::gale_shapley_queue(inst, 0, 1).proposals);
  }
}
BENCHMARK(bm_engine_master_list_worst_case)->Arg(1024)->Arg(4096);

}  // namespace

KSTABLE_BENCH_MAIN(report)

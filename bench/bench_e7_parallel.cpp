// E7 — §IV.C / Corollaries 1-2 / Fig. 4: parallel implementation of the
// binding process.
//
// Paper claims regenerated:
//  * EREW PRAM with k-1 processors: the binding tree's max degree Δ is the
//    bottleneck — the schedule has exactly Δ rounds and the charged cost is
//    at most Δn² (Corollary 1);
//  * a linear (path) binding tree finishes in TWO rounds via even-odd
//    pairing, Fig. 4 (Corollary 2);
//  * CREW collapses the schedule to one round; EREW can emulate it with
//    ceil(log2 Δ) replication rounds;
//  * real wall-clock speedup on a thread pool tracks the model's prediction.

#include "bench_common.hpp"

namespace {

using namespace kstable;

void report() {
  std::cout << "E7: parallel binding — PRAM rounds and real speedup\n\n";

  const Gender k = 8;
  const Index n = 512;
  Rng rng(71);
  const auto inst = gen::uniform(k, n, rng);
  ThreadPool pool;
  std::cout << "Instance: k=8, n=512, pool of " << pool.thread_count()
            << " threads\n\n";

  TableWriter table("Schedules and costs by tree shape and model",
                    {"tree", "Δ", "mode", "rounds", "charged iters",
                     "Δn² bound", "model speedup", "wall ms"});
  const auto run = [&](const std::string& name, const BindingStructure& tree,
                       core::ExecutionMode mode, const char* mode_name) {
    const auto report = core::execute_binding(inst, tree, mode, pool);
    table.add_row({name, std::int64_t{tree.max_degree()},
                   std::string(mode_name), report.rounds_executed,
                   report.cost.charged_iterations,
                   static_cast<std::int64_t>(tree.max_degree()) * n * n,
                   report.cost.model_speedup(),
                   report.wall_seconds * 1e3});
  };
  const auto path = trees::path(k);
  const auto star = trees::star(k, 0);
  Rng tr(72);
  const auto random_tree = prufer::random_tree(k, tr);
  for (const auto& [name, tree] :
       std::vector<std::pair<std::string, const BindingStructure*>>{
           {"path (Fig. 4)", &path}, {"star", &star}, {"random", &random_tree}}) {
    run(name, *tree, core::ExecutionMode::sequential, "sequential");
    run(name, *tree, core::ExecutionMode::erew_rounds, "EREW rounds");
    run(name, *tree, core::ExecutionMode::crew_full, "CREW 1-round");
  }
  table.print(std::cout);

  // CREW emulation accounting (Corollary 1 extension).
  TableWriter emu("EREW emulating CREW: replication rounds = ceil(log2 Δ)",
                  {"tree", "Δ", "replication rounds", "replication cost"});
  for (const auto& [name, tree] :
       std::vector<std::pair<std::string, const BindingStructure*>>{
           {"path", &path}, {"star", &star}, {"random", &random_tree}}) {
    std::vector<std::int64_t> iters(tree->edges().size(), n);  // nominal
    const auto cost = pram::charge(*tree, iters,
                                   pram::Model::erew_emulating_crew, n);
    emu.add_row({name, std::int64_t{tree->max_degree()},
                 cost.replication_rounds, cost.replication_cost});
  }
  emu.print(std::cout);
  std::cout << "Expected shape: path = 2 EREW rounds (Corollary 2), star = "
               "k-1 = 7 rounds (Corollary 1 bottleneck), CREW always 1.\n\n";
}

void bm_execute_modes(benchmark::State& state) {
  const auto mode = static_cast<core::ExecutionMode>(state.range(0));
  const auto n = static_cast<Index>(state.range(1));
  Rng rng(73);
  const auto inst = gen::uniform(8, n, rng);
  const auto tree = trees::path(8);
  ThreadPool pool;
  for (auto _ : state) {
    const auto report = core::execute_binding(inst, tree, mode, pool);
    benchmark::DoNotOptimize(report.binding.total_proposals);
  }
}
BENCHMARK(bm_execute_modes)
    ->Args({0, 256})
    ->Args({1, 256})
    ->Args({2, 256})
    ->Args({0, 1024})
    ->Args({1, 1024})
    ->Args({2, 1024})
    ->Unit(benchmark::kMillisecond);

void bm_thread_scaling(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  Rng rng(74);
  const auto inst = gen::uniform(8, 512, rng);
  const auto tree = trees::path(8);
  ThreadPool pool(threads);
  for (auto _ : state) {
    const auto report =
        core::execute_binding(inst, tree, core::ExecutionMode::crew_full, pool);
    benchmark::DoNotOptimize(report.binding.total_proposals);
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(bm_thread_scaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

KSTABLE_BENCH_MAIN(report)

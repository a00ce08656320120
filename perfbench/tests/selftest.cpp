// Self-tests of the benchmark harness: the percentiles it reports, the
// span recorder's self-time arithmetic, and the output checks of every
// workload — a clean run must pass and a sabotaged one (one output
// corrupted before its check) must be counted as failed.
//
//   python3 perfbench/run.py --selftest      (exit 0 when all pass)
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile() {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  check(near(perfbench::percentile(v, 0.0), 1.0), "p0 is the minimum");
  check(near(perfbench::percentile(v, 100.0), 4.0), "p100 is the maximum");
  check(near(perfbench::percentile(v, 50.0), 2.5), "p50 interpolates");
  check(near(perfbench::percentile(v, 99.0), 3.97), "p99 interpolates");
  check(near(perfbench::percentile({7.0}, 99.0), 7.0), "single value");
  check(near(perfbench::median({5.0, 1.0, 3.0}), 3.0), "odd median");

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const auto s = perfbench::summarize(hundred);
  check(s.samples == 100 && near(s.p50_ms, 50.5) && near(s.p99_ms, 99.01),
        "summary percentiles (too few samples to split)");
  check(s.beyond_p99 == 1, "summary tail count");

  // Three stretches of 100: a stall confined to the last one moves the
  // whole-window p99 but not the median of the stretches' p99s.
  std::vector<double> stalled;
  for (int part = 0; part < 3; ++part) {
    for (int i = 1; i <= 100; ++i) {
      stalled.push_back(part == 2 && i > 90 ? 1000.0 : i);
    }
  }
  const auto split = perfbench::summarize(stalled);
  check(near(split.p99_ms, 99.01), "p99 is the median of the stretches' p99");
  check(perfbench::summarize(stalled, 1).p99_ms > 900.0,
        "one stretch gives the whole-window p99");
}

void test_tracer() {
  perfbench::Tracer tracer(true);
  tracer.set_phase("t");
  {
    perfbench::SpanScope root(tracer, "root", 0);
    {
      perfbench::SpanScope child(tracer, "child", 0, root.index());
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto root = tracer.durations_ms("t", "root");
  const auto root_self = tracer.durations_ms("t", "root", /*self=*/true);
  const auto child = tracer.durations_ms("t", "child");
  check(root.size() == 1 && root_self.size() == 1 && child.size() == 1,
        "one span each");
  check(near(root[0] - child[0], root_self[0]),
        "self time excludes the child");
  check(root_self[0] >= 9.0 && child[0] >= 19.0, "durations recorded");

  tracer.set_recording(false);
  check(tracer.begin("ignored", 1) == -1, "no span while not recording");
  check(tracer.spans().size() == 2, "nothing recorded while paused");
}

/// A small, quick configuration of a workload.
perfbench::Config small(const std::string& workload, bool sabotage,
                        bool trace) {
  perfbench::Config c;
  c.workload = workload;
  c.seed = 7;
  c.seconds = workload == "serve_rt" ? 1.0 : 0.3;
  c.trace = trace;
  c.sabotage = sabotage;
  c.setup_reps = 1;
  // serve_rt's traced run checks that parse + ladder + serialize cover 90%
  // of the server's time, which needs the benchmark's request size: at
  // smaller n fixed per-request costs dominate.
  c.n = workload == "serve_rt" ? 256 : 64;
  c.instances = 4;
  return c;
}

void test_workload_checks() {
  for (const auto& name : perfbench::workload_names()) {
    for (const bool trace : {false, true}) {
      const auto clean = perfbench::run_workload(small(name, false, trace));
      check(clean.correct && clean.failed == 0 && clean.attempted > 0,
            name + ": a clean run passes its checks");
      if (!clean.correct) {
        std::cerr << "  context: " << perfbench::context_json(clean) << "\n";
      }
      const auto& expected = trace ? perfbench::per_layer_metrics()
                                   : perfbench::end_to_end_metrics();
      check(clean.metrics.size() == expected.size(),
            name + ": prints every metric of its mode");
    }
    const auto bad = perfbench::run_workload(small(name, true, false));
    check(!bad.correct && bad.failed >= 1,
          name + ": a corrupted output counts as failed");
    const auto* ok = bad.find("ok_ratio");
    check(ok != nullptr && ok->value < 1.0,
          name + ": the failure shows in ok_ratio");
  }
}

void test_exact_counts_repeat() {
  auto counts = [](const std::string& workload, std::uint64_t seed) {
    auto c = small(workload, false, true);
    c.seed = seed;
    const auto result = perfbench::run_workload(c);
    std::vector<double> out;
    for (const char* name :
         {"gs.proposals_per_solve", "incremental.warm_proposal_share",
          "incremental.slots_invalidated"}) {
      out.push_back(result.find(name)->value);
    }
    return out;
  };
  const auto mem = counts("solve_mem", 11);
  check(mem[0] > 0.0 && mem == counts("solve_mem", 11),
        "solve_mem: exact counts repeat for a seed");
  check(mem != counts("solve_mem", 12),
        "solve_mem: exact counts change with the seed");
  const auto churn = counts("churn_rematch", 11);
  check(churn[1] > 0.0 && churn == counts("churn_rematch", 11),
        "churn_rematch: exact counts repeat for a seed");
  check(churn != counts("churn_rematch", 12),
        "churn_rematch: exact counts change with the seed");
}

}  // namespace

int main() {
  test_percentile();
  test_tracer();
  test_workload_checks();
  test_exact_counts_repeat();
  if (failures > 0) {
    std::cerr << failures << " self-test check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-tests passed\n";
  return 0;
}

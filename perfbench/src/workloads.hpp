// The three perfbench workloads (perfbench/README.md):
//   serve_rt       SOLVE round trips through a loopback TcpServer
//   solve_mem      in-memory solve_with_fallback of large explicit instances
//   churn_rematch  random_mutation + rematch on one live instance
// Each run generates its inputs from the seed, measures for a fixed time,
// checks every op's output outside the timed region, and reports either the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (empty: keep them in memory only).
  std::string trace_out;
  /// Corrupts one op's output before it is checked, to show that the check
  /// counts it as failed (self-tests and `--sabotage 1`).
  bool sabotage = false;
  /// Instance size and count; 0 keeps the workload's benchmark value.
  /// Self-tests shrink them so the harness can be exercised in seconds.
  std::int32_t n = 0;
  std::int32_t instances = 0;
  /// How many times setup runs; setup_s is the median.
  std::int32_t setup_reps = 5;
};

/// Names accepted by --workload.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Every metric a run prints, in print order: the end-to-end set for
/// untraced runs and the per-layer set for traced runs.
struct MetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// Runs one workload. Throws std::invalid_argument for an unknown workload.
[[nodiscard]] RunResult run_workload(const Config& config);

}  // namespace perfbench

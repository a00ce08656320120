// SolveTelemetry: the structured per-solve record every top-level driver
// assembles — engine, instance shape, timing breakdown, completion status,
// and the proposal/cache counters introduced by the perf PR.
//
// Design constraints:
//   * Cheap to carry: labels are static-lifetime const char* (engine names,
//     phase names), the phase table is a fixed-capacity inline array, and
//     every numeric field is a scalar — embedding a SolveTelemetry in a
//     result struct adds no heap allocation beyond what SolveStatus::detail
//     already owns.
//   * Uniform across drivers: the same record shape describes a single GS
//     edge, an Algorithm 1/2 binding, an Irving roommates solve, a parallel
//     EREW/CREW execution, the fallback ladder, and one batch item. Fields a
//     driver has nothing to say about stay at their defaults and export as
//     zeros (the JSON schema is fixed; see docs/OBSERVABILITY.md).
//   * Two export formats from one record: single-line JSON (to_json) for
//     machine pipelines (kmatch --stats-json, BENCH_*.json context) and
//     Prometheus text (to_prometheus) for scrape endpoints.
//
// record() additionally folds the record into the global MetricsRegistry
// (per-engine solve counters, proposal totals, wall-time histograms), which
// is how the aggregate view in `kmatch --stats-json` and the bench JSON
// context stays consistent with the per-solve records.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "resilience/errors.hpp"

namespace kstable::obs {

/// One named phase of a solve's timing breakdown (e.g. "bind", "assemble",
/// "phase1", "grow-tree"). `name` must have static lifetime.
struct PhaseTiming {
  const char* name = "";
  double ms = 0.0;
};

struct SolveTelemetry {
  /// Static-lifetime engine label: "gs.queue", "gs.rounds",
  /// "binding.queue", "binding.rounds", "binding.priority", "roommates",
  /// "ladder", "batch.item".
  const char* engine = "";

  // Instance shape. For k-partite drivers: genders=k, size=n (members per
  // gender). For roommates: genders=0, size=person count.
  std::int32_t genders = 0;
  std::int32_t size = 0;

  /// End-to-end wall time of the driver call.
  double wall_ms = 0.0;

  /// Timing breakdown; at most kMaxPhases entries (excess is dropped — the
  /// drivers define 1–3 phases each).
  static constexpr int kMaxPhases = 4;
  PhaseTiming phases[kMaxPhases];
  int phase_count = 0;

  /// How the solve ended (ok / aborted / no_stable + abort reason).
  resilience::SolveStatus status;

  // Work counters (Theorem 3's unit and the perf-PR cache counters).
  std::int64_t proposals = 0;           ///< accumulated (semantic) proposals
  std::int64_t executed_proposals = 0;  ///< actually run; cache hits excluded
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t rounds = 0;    ///< GS rounds / EREW rounds / Irving rotations
  std::int64_t attempts = 0;  ///< ladder attempts (1 for direct drivers)

  /// Fallback rung that produced the result: -1 not applicable, 0 strict
  /// tree, 1 degraded priority, 2 none (every rung failed). Mirrors
  /// resilience::Rung; kept as an int so this header stays below the ladder.
  std::int32_t rung = -1;

  /// Remaining wall budget when the solve finished (budget − elapsed), in
  /// ms; 0 when no wall deadline was set. Negative values never appear —
  /// a blown deadline aborts instead.
  double deadline_margin_ms = 0.0;

  /// Appends a phase timing (silently dropped beyond kMaxPhases).
  void add_phase(const char* name, double ms) {
    if (phase_count < kMaxPhases) {
      phases[phase_count++] = PhaseTiming{name, ms};
    }
  }

  /// Single-line JSON object; schema documented in docs/OBSERVABILITY.md.
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text exposition of this one record (gauge-style samples
  /// labeled with the engine).
  void write_prometheus(std::ostream& os) const;
  [[nodiscard]] std::string to_prometheus() const;
};

/// Folds `t` into the global MetricsRegistry: bumps the per-engine solve
/// counter, the outcome counter, proposal/cache totals, and the wall-time
/// histogram. No-op under KSTABLE_NO_METRICS. Drivers call this once per
/// completed solve.
void record(const SolveTelemetry& t);

}  // namespace kstable::obs

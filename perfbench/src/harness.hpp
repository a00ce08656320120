// Measurement plumbing shared by the perfbench workloads: order statistics,
// the in-memory span recorder, output fingerprints, process facts, and the
// one-line JSON result the benchmark prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// q-th percentile (q in [0, 100]) by linear interpolation between the two
/// closest ranks (numpy's default): rank = q/100 * (size - 1). Requires a
/// non-empty input; the input need not be sorted.
[[nodiscard]] double percentile(std::vector<double> values, double q);

[[nodiscard]] double median(std::vector<double> values);

/// Caller-side latency summary of one timed window, from latencies in the
/// order the ops ran. p50 is over the whole window. p99 is the median of the
/// p99s of `parts` consecutive, equal stretches of the window, so one short
/// stall of a shared host moves it less; with fewer than 100 samples per
/// stretch it is the whole window's p99.
struct LatencySummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t samples = 0;
  /// Samples strictly above p99: a p99 resting on fewer than ten is
  /// reported but flagged in the run context.
  std::size_t beyond_p99 = 0;
};
[[nodiscard]] LatencySummary summarize(const std::vector<double>& latency_ms,
                                       std::size_t parts = 3);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One recorded call into a layer.
struct Span {
  const char* name = "";   ///< "<layer>.<public call>", static lifetime
  const char* phase = "";  ///< which part of the run recorded it
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for roots
  std::int64_t op = -1;      ///< op the span belongs to
};

/// In-memory span recorder for one thread. Spans are appended as they open
/// and written out only by write_jsonl(), after the measured work. While not
/// recording, begin() returns -1 and end(-1) does nothing, so call sites do
/// not branch on tracing themselves.
class Tracer {
 public:
  explicit Tracer(bool recording);

  /// Traced runs alternate untraced and traced slices of one window.
  void set_recording(bool recording) noexcept { recording_ = recording; }
  void set_phase(const char* phase) noexcept { phase_ = phase; }

  /// Opens a span; returns its index (or -1 when disabled).
  std::int32_t begin(const char* name, std::int64_t op,
                     std::int32_t parent = -1);
  void end(std::int32_t index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Durations (ms) of the closed spans with this phase and name, in
  /// recording order; `self` subtracts the time covered by child spans.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& phase,
                                                 const std::string& name,
                                                 bool self = false) const;

  /// Writes one JSON object per span (name, phase, start/end ns relative to
  /// the tracer's creation, parent, op). Returns false on an I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<double> child_ms() const;

  bool recording_;
  const char* phase_ = "";
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span: begin on construction, end on destruction.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::int64_t op,
            std::int32_t parent = -1)
      : tracer_(tracer), index_(tracer.begin(name, op, parent)) {}
  ~SpanScope() { tracer_.end(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::int32_t index() const noexcept { return index_; }

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

// ---------------------------------------------------------------------------
// Output fingerprints
// ---------------------------------------------------------------------------

/// FNV-1a over a sequence of integer arrays: a 64-bit stand-in for a
/// matching, so an op's output can be compared with its checked reference
/// without keeping every output alive.
class Fingerprint {
 public:
  void add(std::span<const std::int32_t> values) noexcept;
  void add(std::int64_t value) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

// ---------------------------------------------------------------------------
// Process facts and the result line
// ---------------------------------------------------------------------------

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();
/// "model name" of the first CPU in /proc/cpuinfo, or "unknown".
[[nodiscard]] std::string cpu_model();
/// Online CPUs (what nproc prints).
[[nodiscard]] long online_cpus();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run reports. `context` is printed on the line before
/// the result; the result line carries exactly the keys the benchmark
/// contract fixes.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> context;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    context.emplace_back(std::move(key), std::move(value));
  }
  [[nodiscard]] const Metric* find(const std::string& name) const;
};

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
/// every value at full precision.
[[nodiscard]] std::string result_json(const RunResult& result);
/// {"<key>": "<value>", ...} of the run context.
[[nodiscard]] std::string context_json(const RunResult& result);

}  // namespace perfbench
